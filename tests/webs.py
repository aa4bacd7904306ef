"""Fields shared by the test modules: slope webs, random polynomials and
the two non-flat control webs used as negative witnesses; triples of
projective roots for the labelling tests; and the recorded sample draws."""

import itertools
import json
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from hexweb.cubic import PolyCoeffField, proj_distance
from hexweb.jets import PolyExpr

X = PolyExpr.var(0, 2)
Y = PolyExpr.var(1, 2)


def slope_web(s1, s2, s3):
    """Field whose leaves have slopes s_i (PolyExpr or constants)."""
    def P(v):
        return v if isinstance(v, PolyExpr) else PolyExpr.const(v, 2)
    s1, s2, s3 = P(s1), P(s2), P(s3)
    # K-form (dy - s1 dx)(dy - s2 dx)(dy - s3 dx): K3=1, K2=-(s1+s2+s3), ...
    k2 = PolyExpr.zero() - s1 - s2 - s3
    k1 = s1 * s2 + s1 * s3 + s2 * s3
    k0 = PolyExpr.zero() - s1 * s2 * s3
    # field coefficients (a, b, c, r) = (-K3, K2, -K1, K0)
    return PolyCoeffField(PolyExpr.const(-1, 2), k2,
                          PolyExpr.zero() - k1, k0)


def random_poly(rng, max_deg=2):
    """1-3 monomials of degree <= max_deg in each variable, complex normal
    coefficients drawn from rng."""
    d = {}
    for _ in range(rng.integers(1, 4)):
        e = (int(rng.integers(0, max_deg + 1)),
             int(rng.integers(0, max_deg + 1)))
        d[e] = complex(rng.standard_normal(), rng.standard_normal())
    return PolyExpr.from_dict(d)


# Points (t, x, y) and transport draws that criteria 4 and 11 and two
# test_frobenius tests drew from generators that also fed the random
# idempotent draws of an earlier version; recorded at that version, so the
# tests keep their samples.
RECORDED_DRAWS = json.loads(
    (Path(__file__).parent / "data" / "recorded_draws.json").read_text())

# generic non-flat control web
CONTROL_GENERIC = PolyCoeffField(PolyExpr.const(1, 2), PolyExpr.zero(),
                                 X + Y * Y, PolyExpr.const(1, 2))
# non-flat slope web: two parallel families and slopes 8x + 2.5
CONTROL_SLOPES = slope_web(0.0, 1.0, X * 8 + 2.5)


# ---------------------------------------------------------------------------
# Root triples for match_roots and the path labelling


def unit_root(s, chart):
    """The projective root [s : 1] (chart) or [1 : s], scaled to unit max
    component as roots_proj scales its roots."""
    return np.array([s, 1] if chart else [1, s], dtype=complex) / max(
        abs(s), 1.0)


SLOPES = st.complex_numbers(max_magnitude=4, allow_nan=False,
                            allow_infinity=False)
UNIT_ROOTS = st.builds(unit_root, SLOPES, st.booleans())
# how far a root moves: 0 makes exact ties, the tiny ones near ties
NUDGES = st.sampled_from([0.0, 1e-17, 1e-15, 1e-13, 1e-9, 1e-3])


@st.composite
def root_triples(draw):
    """Three unit-scaled roots, two of them equal or a nudge apart when
    drawn so (each root a new array)."""
    triple = draw(st.lists(UNIT_ROOTS, min_size=3, max_size=3))
    if draw(st.booleans()):
        i, j, _ = draw(st.permutations(range(3)))
        triple[j] = triple[i] + draw(NUDGES)
    return triple


@st.composite
def moved_triples(draw, triple):
    """A new triple: drawn afresh, or the given one shuffled and its roots
    nudged by different amounts."""
    if draw(st.booleans()):
        return draw(root_triples())
    nudge = draw(NUDGES) * draw(SLOPES)
    return [triple[i] + (m + 1) * nudge
            for m, i in enumerate(draw(st.permutations(range(3))))]


@st.composite
def root_chains(draw, max_nodes=10):
    """Root triples (n, 3, 2) at the nodes of a path, each node's triple
    moved from the last one's."""
    chain = [draw(root_triples())]
    for _ in range(draw(st.integers(1, max_nodes - 1))):
        chain.append(draw(moved_triples(chain[-1])))
    return np.array(chain)


def search_per_permutation(ref, new, dist=proj_distance):
    """The per-permutation loop that match_roots replaced: each permutation
    of new, in itertools order, sums its own dist calls on the pairs
    (ref[i], new[perm[i]]), and the first of least cost wins.  Returns the
    reordered new (a list) and its cost."""
    best, best_cost = None, np.inf
    for perm in itertools.permutations(range(len(new))):
        cost = sum(dist(ref[i], new[perm[i]]) for i in range(len(ref)))
        if cost < best_cost:
            best, best_cost = perm, cost
    return [new[i] for i in best], best_cost
