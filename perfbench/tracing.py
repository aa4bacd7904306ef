"""Span tracing of hexweb from outside, by patching its public functions.

Every traced function is replaced, in every module that binds it, by a
wrapper that times the call and charges it to the span that caused it.
Spans are aggregated in memory rather than recorded one by one: the key is
(item kind, parent span, span), the value is [calls, total s, self s], so
millions of jet products cost a few dict entries.  Self time is a span's
duration minus the time its child spans cover.

Counters are taken at the same boundaries from the traced call's result
(leaf steps and terminations, first-integral nodes, traced discriminant
points, path-frame checkpoints).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import hexweb.chern as chern
import hexweb.cubic as cubic
import hexweb.frobenius as frobenius
import hexweb.jets as jets
import hexweb.singular as singular
import hexweb.webgeo as webgeo


def _leaf_counts(leaf, args, counts):
    counts["webgeo.leaf.accepted_steps"] += len(leaf.points) - 1
    counts[f"webgeo.leaf.ended.{leaf.termination}"] += 1


def _fi_counts(state, args, counts):
    counts["webgeo.first_integrals.nodes"] += len(state.nodes)


def _trace_counts(trace, args, counts):
    counts["singular.trace_discriminant.points"] += sum(
        len(c) for c in trace.curves)


def _frame_counts(_, args, counts):
    counts["chern.PathFrame.checkpoints"] += len(args[0].checkpoints)


# (owner, attribute, span name, counter hook).  Class-body aliases such as
# Jet.__rmul__ = __mul__ are separate attributes bound to the same function;
# install() rebinds every attribute and module global that holds the original,
# so they are covered without listing them.
TRACED = [
    (jets.Jet, "__mul__", "jets.mul", None),
    (jets.Jet, "reciprocal", "jets.reciprocal", None),
    (jets.PolyExpr, "jet", "jets.lift", None),
    (jets.PolyExpr, "__call__", "jets.eval", None),
    (jets.PolyExpr, "__mul__", "jets.poly_mul", None),
    (cubic.DirectionField, "coeffs", "cubic.coeffs", None),
    (cubic.PolyCoeffField, "coeffs", "cubic.coeffs", None),
    (cubic.PolyCoeffField, "coeff_jets", "cubic.coeff_jets", None),
    (cubic.CallableJetField, "coeff_jets", "cubic.coeff_jets", None),
    (cubic.TranslatedField, "coeff_jets", "cubic.coeff_jets", None),
    (cubic, "roots_proj", "cubic.roots_proj", None),
    (cubic, "normalize_roots", "cubic.normalize_roots", None),
    (cubic, "match_roots", "cubic.match_roots", None),
    (cubic, "factorization_residual", "cubic.factorization_residual", None),
    (chern, "gamma_cubic", "chern.gamma_cubic", None),
    (chern, "gamma_from_definition", "chern.gamma_from_definition", None),
    (chern, "curvature", "chern.curvature", None),
    (chern, "corollary_residual", "chern.corollary_residual", None),
    (chern, "integrate_gamma", "chern.integrate_gamma", None),
    (chern, "blaschke_transport", "chern.blaschke_transport", None),
    (chern.PathFrame, "__init__", "chern.PathFrame", _frame_counts),
    (frobenius, "theorem2_residual", "frobenius.theorem2_residual", None),
    (frobenius, "idempotents", "frobenius.idempotents", None),
    (frobenius, "frobenius_transport", "frobenius.frobenius_transport",
     None),
    (webgeo, "integrate_leaf", "webgeo.integrate_leaf", _leaf_counts),
    (webgeo.Leaf, "point_at", "webgeo.point_at", None),
    (webgeo, "thomsen_closure", "webgeo.thomsen_closure", None),
    (webgeo, "first_integrals", "webgeo.first_integrals", _fi_counts),
    (webgeo, "symmetry_residual", "webgeo.symmetry_residual", None),
    (singular, "trace_discriminant", "singular.trace_discriminant",
     _trace_counts),
    (singular, "classify_singularity", "singular.classify_singularity",
     None),
    (singular, "solve_F", "singular.solve_F", None),
    (singular, "normal_form_field", "singular.normal_form_field", None),
]


class Tracer:
    """Aggregated span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(float)
        self.kind = "setup"
        # one frame per open span: [name, time covered by child spans]
        self._stack = [["root", 0.0]]
        self._saved = []

    # -- spans ---------------------------------------------------------

    def _wrap(self, name, fn, hook):
        stack = self._stack
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dt
                rec = spans[(self.kind, parent[0], name)]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if hook is not None:
                hook(out, args, counts)
            return out

        return traced

    def item(self, kind, name, fn):
        """Run one benchmark item as a top-level span of the given kind."""
        self.kind = kind
        return self._wrap(name, fn, None)()

    # -- patching ------------------------------------------------------

    def install(self, extra_modules=()):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hexweb" or
                                         n.startswith("hexweb."))]
        modules += list(extra_modules)
        for owner, attr, name, hook in TRACED:
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, hook)
            holders = [owner] + modules if isinstance(owner, type) \
                else modules
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        self._saved.append((holder, key, orig))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, orig in reversed(self._saved):
            setattr(holder, key, orig)
        self._saved.clear()

    # -- summaries -----------------------------------------------------

    def totals(self, kinds=None):
        """{span: [calls, total s, self s]} summed over parents and kinds."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (kind, _parent, name), rec in self.spans.items():
            if kinds is not None and kind not in kinds:
                continue
            acc = out[name]
            for i in range(3):
                acc[i] += rec[i]
        return out

    def calls_under(self, parent, name):
        return sum(rec[0] for (_, p, n), rec in self.spans.items()
                   if p == parent and n == name)
