"""Truncated Taylor (jet) arithmetic over complex scalars in two variables.

A jet stores the Taylor coefficients of a scalar field at a base point up to
a fixed total order K, i.e. ``coeffs[j1, j2] = d^(j1+j2) f / (j1! j2!)``.
Everything downstream (connection forms, curvature, root jets) is built on
top of this module, so operations are kept exact to the truncation order.

Batch axes: the coefficient array has shape (K+1, K+1, ...): c[j1, j2] is
one coefficient, a number for a single jet (batch shape ()) or an array over
the trailing axes, which index independent jets (one per point of an array
of base points).  Every operation acts on all of them with the same numpy
calls, so a batch costs about as many calls as one jet.  The base is a pair
of complex scalars, or of complex arrays broadcastable to the batch shape;
operands of a binary operation share their base and their batch shape.
``value`` is ``c[0, 0]``, a numpy scalar for a single jet, so that scalar
code keeps numpy's scalar arithmetic.  Scalar factors, summands and the
constants of ``constant`` may be arrays over the batch axes; ``jet_pow``
and ``jet_cbrt`` take the principal branch of every element.  A check on a
value (a zero constant term, say) fails when it fails for any element.

Only the triangle j1 + j2 <= K of the first two axes is meaningful.
Products, derivatives and truncations return zeros above it and never read
an operand's entries there.

Products run on one index plan per order (``_product_plan``; none depends
on a batch shape; ``_sum_products`` is the arithmetic).
Each of the T = (K+1)(K+2)/2 outputs (m1, m2) of the triangle collects the
terms a[j1, j2] * b[m1 - j1, m2 - j2], C(K+4, 4) terms in all.  The plan
holds the gather indices of both factors into the flattened first two axes,
one column per output padded to the largest term count L (L x T), and, per
output, the row of the running sum that ends its own terms.  A product
gathers coefficient rows (a number each for one jet, a row over the batch
for many) into term rows 1..L below a row of zeros, multiplies them, runs
one sequential ``np.add.accumulate`` down the term axis and gathers the
result: a fixed number of numpy calls, whatever the batch shape (long rows
are summed row by row, the same sums in L calls, because the accumulation
walks them column by column).  Order 0 is the elementwise product.

Bit-identity contract: for finite coefficients, products, ``deriv`` and
``truncate`` return exactly the floats of the dense reference (for each
output, terms added one by one onto +0.0 in row-major order of ``a``'s
multi-index).  The accumulation is sequential because pairwise or blocked
sums (``reduceat``, ``einsum``, ``matmul``) round differently, and it
starts from the +0.0 row so that a result never carries -0.0 where the
reference has +0.0.  Each element of a batch goes through the same
elementwise operations in the same order, so every operation of this
module returns, element by element, exactly the floats it returns for that
element alone.  ``tests/test_jets.py`` checks both against the reference
loop and the single jets.  (With an inf or nan coefficient the reference
skipped exact-zero terms of ``a`` that the plan multiplies, so 0 * inf may
give nan there.)

Programs: ``replay(fn, *jets)`` returns ``fn(*jets)`` for a straight-line
formula of jets.  fn runs once per (fn, arity, order) on tracing nodes that
record sums, differences, products, negations, number operands on either
side and reciprocals (as ``Jet.reciprocal``'s own steps), and raise
TypeError on anything that reads data (``bool``, comparisons, ``abs``,
``.value``, ``.c``), so a formula that branches cannot be traced.  An
operation repeated on the same operands is recorded once; the rest are
grouped by dependency depth and kind, and each group is one numpy step on a
register array (n_regs, (K+1)^2, B), the jets' own layout with the batch
flattened to B (inputs go in with one concatenation, outputs come out with
one reshape), its results written to the group's contiguous registers.  A
step does the eager operation's elementwise arithmetic (products through
``_sum_products``), so every output equals the eager formula's, element by
element: the ~130 jet operations of the closed-form connection run in 23
steps at order 0, whatever the batch shape.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from dataclasses import dataclass

import numpy as np


class JetError(ValueError):
    pass


def _frozen(arr):
    arr.setflags(write=False)
    return arr


# +0.0 under an order-0 product, as under the terms of higher orders, and
# above a truncation's triangle
_ZERO_1x1 = _frozen(np.zeros((1, 1), dtype=complex))


@functools.cache
def _product_plan(K):
    """Gather indices (ia, ib) and output map of the order-K product.

    Column t of ia, ib lists the terms of the t-th triangle output (m1, m2),
    the pairs (j1, j2) x (m1 - j1, m2 - j2) in row-major order of (j1, j2),
    padded at the end; the indices are flat positions j1 (K+1) + j2 in the
    flattened first two axes of the operands.  The terms are accumulated
    below a row of zeros, so row r of the running sum holds the first r
    terms; ``last[m1, m2]`` is the flat position of the row that ends the
    output's own terms (row 0, +0.0, above the triangle).
    """
    n = K + 1
    outs = [(m1, m2) for m1 in range(n) for m2 in range(n - m1)]
    L = (K // 2 + 1) * (K - K // 2 + 1)
    ia = np.zeros((L, len(outs)), dtype=np.intp)
    ib = np.zeros((L, len(outs)), dtype=np.intp)
    last = np.zeros(n * n, dtype=np.intp)
    for t, (m1, m2) in enumerate(outs):
        pairs = [(j1 * n + j2, (m1 - j1) * n + (m2 - j2))
                 for j1 in range(m1 + 1) for j2 in range(m2 + 1)]
        ia[:len(pairs), t], ib[:len(pairs), t] = zip(*pairs)
        last[m1 * n + m2] = len(pairs) * len(outs) + t
    return _frozen(ia), _frozen(ib), _frozen(last.reshape(n, n))


# row length from which the running sums go row by row: np.add.accumulate
# down axis 0 walks the columns one by one, some 30 times slower than a
# row-wise add on rows of thousands
ACCUMULATE_ROW_MAX = 256


def _sum_products(ta, tb):
    """The product kernel: running sums down axis 0 of the term products
    ta * tb, below a row of +0.0 (row r holds the first r terms)."""
    L = len(ta)
    terms = np.zeros((L + 1,) + ta.shape[1:], dtype=complex)
    np.multiply(ta, tb, terms[1:])
    if ta.size < L * ACCUMULATE_ROW_MAX:
        return np.add.accumulate(terms, 0)
    for r in range(1, len(terms)):  # the same sums, row by row
        np.add(terms[r - 1], terms[r], out=terms[r])
    return terms


@functools.cache
def _triangle(K, ndim):
    """Mask of the multi-indices j1 + j2 <= K of a (K+1) x (K+1) array,
    with trailing unit axes up to ndim axes (for a batch's coefficients)."""
    j = np.arange(K + 1)
    mask = j[:, None] + j[None, :] <= K
    return _frozen(mask.reshape(mask.shape + (1,) * (ndim - 2)))


@functools.cache
def _deriv_factor(K, axis, ndim):
    """j_axis + 1 on the (K+1) x (K+1) grid, as complex factors, with
    trailing unit axes up to ndim axes."""
    j = np.arange(1, K + 2, dtype=complex)
    fac = np.repeat(j[:, None], K + 1, axis=1)
    fac = fac if axis == 0 else fac.T
    return _frozen(fac.reshape(fac.shape + (1,) * (ndim - 2)))


def base_point(x, y):
    """A base point as jets hold it: two complex numbers, or two complex
    arrays of one shape.  Canonical arrays come back as the same objects,
    so jets lifted from one canonical point compare bases by identity."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.broadcast_arrays(np.asarray(x, dtype=complex),
                                   np.asarray(y, dtype=complex))
    return (complex(x), complex(y))


def _scalar(v):
    """A number (one-element arrays too), or an array over the batch axes."""
    if isinstance(v, np.ndarray):
        return v if v.size != 1 else complex(v.item())
    return complex(v)


def any_set(mask):
    """Whether any element of a boolean scalar or array is set."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def modulus(z):
    """|z| per element, rounded as abs() rounds one number, unlike np.abs."""
    return np.hypot(z.real, z.imag)


def _invertible(c0):
    if any_set((c0 == 0) | ~np.isfinite(c0)):
        raise JetError("reciprocal of jet with zero constant term (pole)")
    return c0


class Jet:
    """Truncated Taylor expansion at a base point, total order <= order.

    ``c`` has shape (order+1, order+1, ...); see the module docstring for
    the batch axes.  Immutable by convention: operations return new jets
    and never modify the coefficient array of an operand.
    """

    __slots__ = ("base", "order", "c")

    def __init__(self, base, order, coeffs=None):
        if order < 0:
            raise JetError("jet order must be >= 0")
        self.base = base_point(*base)
        self.order = int(order)
        if coeffs is None:
            batch = getattr(self.base[0], "shape", ())
            self.c = np.zeros((order + 1, order + 1) + batch, dtype=complex)
        elif np.shape(coeffs)[:2] != (order + 1, order + 1):
            # products index the flattened (K+1) x (K+1) leading axes
            raise JetError(f"order-{order} jet needs {order + 1}x{order + 1}"
                           f" coefficients, got shape {np.shape(coeffs)}")
        else:
            self.c = coeffs

    @classmethod
    def _raw(cls, base, order, c):
        """A jet on an already canonical base tuple; no conversions."""
        j = object.__new__(cls)
        j.base = base
        j.order = order
        j.c = c
        return j

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, base, order):
        j = cls(base, order)
        j.c[0, 0] = _scalar(value)
        return j

    @classmethod
    def variable(cls, axis, base, order):
        """The coordinate function x (axis=0) or y (axis=1) as a jet."""
        j = cls(base, order)
        j.c[0, 0] = j.base[axis]
        if order >= 1:
            j.c[1 - axis, axis] = 1.0
        return j

    # -- basic queries -------------------------------------------------

    @property
    def value(self):
        return self.c[0, 0]

    def _check(self, other):
        if self.base is not other.base:
            try:
                differ = self.base != other.base
            except ValueError:  # array bases that are distinct objects
                differ = not all(map(np.array_equal, self.base, other.base))
            if differ:
                raise JetError("jet base points differ")
        if self.order != other.order:
            raise JetError("jet orders differ")

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            out = self.c.copy()
            out[0, 0] += _scalar(other)
            return Jet._raw(self.base, self.order, out)
        self._check(other)
        return Jet._raw(self.base, self.order, self.c + other.c)

    __radd__ = __add__

    def __neg__(self):
        return Jet._raw(self.base, self.order, -self.c)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -_scalar(other))

    def __rsub__(self, other):
        out = -self.c
        out[0, 0] += _scalar(other)
        return Jet._raw(self.base, self.order, out)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet._raw(self.base, self.order, self.c * _scalar(other))
        self._check(other)
        K = self.order
        a, b = self.c, other.c
        if K == 0:
            return Jet._raw(self.base, 0, _ZERO_1x1 + a * b)
        ia, ib, last = _product_plan(K)
        if a.ndim == 2:  # one jet: ravel is numpy's cheapest flattening
            acc = _sum_products(a.ravel()[ia], b.ravel()[ib]).ravel()[last]
        else:  # a batch: each coefficient a row over the batch axes
            rows = (-1,) + a.shape[2:]
            acc = _sum_products(a.reshape(rows).take(ia, 0),
                                b.reshape(rows).take(ib, 0))
            acc = acc.reshape(rows).take(last, 0)
        return Jet._raw(self.base, K, acc)

    __rmul__ = __mul__

    def reciprocal(self):
        """Multiplicative inverse; requires a nonzero constant term."""
        # Newton iteration r <- r(2 - u r), quadratic convergence in order.
        r = self._inverse_constant()
        n = 1
        while n <= self.order:
            r = r * (2.0 - self * r)
            n *= 2
        return r

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise JetError("integer power only; use jet_pow for fractional")
        out = self._constant(1.0)
        p = self
        k = n
        while k:
            if k & 1:
                out = out * p
            p = p * p if k > 1 else p
            k >>= 1
        return out

    # -- calculus -------------------------------------------------------

    def deriv(self, axis):
        """Partial derivative; result has order reduced by one."""
        if self.order == 0:
            raise JetError("cannot differentiate an order-0 jet")
        K, c = self.order - 1, self.c
        src = c[1:, :K + 1] if axis == 0 else c[:K + 1, 1:]
        out = np.multiply(src, _deriv_factor(K, axis, c.ndim),
                          where=_triangle(K, c.ndim),
                          out=np.zeros(src.shape, dtype=complex))
        return Jet._raw(self.base, K, out)

    def truncate(self, order):
        if order > self.order:
            raise JetError("cannot raise jet order by truncation")
        if order < 0:
            raise JetError("jet order must be >= 0")
        out = np.where(_triangle(order, self.c.ndim),
                       self.c[: order + 1, : order + 1], _ZERO_1x1)
        return Jet._raw(self.base, order, out)

    def swap_axes(self):
        """The same expansion with the two variables interchanged."""
        return Jet._raw((self.base[1], self.base[0]), self.order,
                        np.swapaxes(self.c, 0, 1).copy())

    def _inverse_constant(self):
        return self._constant(1.0 / _invertible(self.value))

    def _constant(self, value):
        """The constant jet ``value`` (a number, or an array over the batch
        axes) on this jet's base, order and batch shape."""
        c = np.zeros(self.c.shape, dtype=complex)
        c[0, 0] = value
        return Jet._raw(self.base, self.order, c)

    def nilpotent_part(self):
        out = self.c.copy()
        out[0, 0] = 0.0
        return Jet._raw(self.base, self.order, out)

    def __repr__(self):
        return f"Jet(base={self.base}, order={self.order}, value={self.value})"


# -- programs: straight-line formulas, traced once, replayed stacked ------


class _Node:
    """A jet of an order-``order`` formula being traced: records the ring
    operations applied to it and refuses anything that would read data."""

    __slots__ = ("_rec", "_id", "order")
    __array_ufunc__ = None  # numpy operands defer to the reflected methods

    def __init__(self, rec, i, order):
        self._rec, self._id, self.order = rec, i, order

    def _op(self, kind, other=None):
        if isinstance(other, _Node):
            return self._rec(kind, self._id, other._id)
        if isinstance(other, np.ndarray) and other.ndim:
            raise TypeError("a traced jet formula takes number constants only")
        return self._rec(kind, self._id, None,
                         None if other is None else complex(other))

    def __add__(self, other):
        return self._op("add", other)

    def __sub__(self, other):  # x - k is x + (-k), as in Jet.__sub__
        if isinstance(other, _Node):
            return self._op("sub", other)
        return self + -complex(other)

    def __rsub__(self, other):  # k - x is (-x) + k, as in Jet.__rsub__
        return -self + other

    def __mul__(self, other):
        return self._op("mul", other)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return self._op("neg")

    def _inverse_constant(self):
        return self._op("inv")

    reciprocal = Jet.reciprocal

    def _refuse(self, *args):
        raise TypeError("a traced jet formula may only add, subtract, "
                        "multiply, negate and take reciprocals")

    __bool__ = __abs__ = __float__ = __complex__ = __index__ = _refuse
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __getattr__ = _refuse  # .value, .c, ...
    __hash__ = None


def _map(tree, leaf):
    """A formula's result (nested tuples and lists) with each leaf x
    replaced by leaf(x)."""
    if isinstance(tree, (tuple, list)):
        return type(tree)(_map(t, leaf) for t in tree)
    return leaf(tree)


@functools.cache
def _program(fn, arity, order):
    """fn traced on arity nodes and scheduled: (result tree of output
    positions, steps, register count, output registers).  An operation
    repeated on the same operands and number is recorded once.  Each
    operation sits one level above its deepest operand, and each (level,
    kind) group is one step, whose m results take the next m registers."""
    ops, seen = [], {}

    def rec(kind, a, b=None, k=None):
        kind += "" if k is None else " number"
        key = (kind, a, b, repr(k))  # repr tells -0.0 from 0.0
        if key not in seen:
            seen[key] = arity + len(ops)
            ops.append((kind, a, b, k))
        return _Node(rec, seen[key], order)

    def output(node):
        if not isinstance(node, _Node):
            raise TypeError("a traced jet formula must return jets")
        outs.append(node._id)
        return len(outs) - 1

    outs, groups = [], {}
    tree = _map(fn(*(_Node(rec, i, order) for i in range(arity))), output)
    level = [0] * (arity + len(ops))
    for i, (kind, a, b, _) in enumerate(ops):
        level[arity + i] = 1 + max(level[a], level[a if b is None else b])
        groups.setdefault((level[arity + i], kind), []).append(i)
    reg, steps, n = list(range(arity)) + [None] * len(ops), [], arity
    for (_, kind), members in sorted(groups.items()):
        for j, i in enumerate(members):
            reg[arity + i] = n + j
        steps.append(_step(kind, n, *zip(*[
            (reg[a], reg[a if b is None else b], k)
            for _, a, b, k in (ops[i] for i in members)]), order))
        n += len(members)
    return tree, steps, n, np.array([reg[i] for i in outs])


def _step(kind, s, ra, rb, ks, K):
    """A step at order K: a function of the registers (n_regs, n2 B), their
    coefficient rows (n_regs n2, B) and B that writes the m results to
    registers s..s+m-1 by the elementwise arithmetic of the eager ops."""
    n2, m = (K + 1) ** 2, len(ra)
    out, rows_out = slice(s, s + m), slice(s * n2, (s + m) * n2)
    if kind == "mul" and K:
        # the product plan on coefficient rows: the (2, L, m, T) term rows
        # of both factors, and per output row the running-sum row (of the
        # (L+1, m, T)) that ends its terms
        ia, ib, last = _product_plan(K)
        T = ia.shape[1]
        row, col = np.divmod(last.ravel(), T)
        iab = np.stack([np.array(r)[:, None] * n2 + i[:, None]
                        for r, i in ((ra, ia), (rb, ib))])
        pick = ((row * m + np.arange(m)[:, None]) * T + col).ravel()

        def product(regs, rows, B):
            terms = rows.take(iab, 0)
            _sum_products(terms[0], terms[1]).reshape(-1, B).take(
                pick, 0, rows[rows_out], "clip")
        return product
    a, b, k = np.array(ra), np.array(rb), np.array(ks)[:, None]
    ufunc = {"add": np.add, "sub": np.subtract, "mul": np.multiply}.get(kind)

    def run(regs, rows, B):
        o, x = regs[out], regs.take(a, 0)
        if ufunc:
            ufunc(x, regs.take(b, 0), out=o)
            if kind == "mul":  # order 0, as Jet.__mul__: +0.0 + x y
                o += 0j
        elif kind == "neg":
            np.negative(x, out=o)
        elif kind == "mul number":  # k a column: numpy's vector-scalar loop,
            np.multiply(x, k, out=o)  # as for Jet.c * k (the vector-vector
            # loop rounds complex products differently)
        elif kind == "add number":
            o[...] = x
            o[:, :B] += k
        else:  # inv: the constant jets 1 / c0
            o[...] = 0.0
            o[:, :B] = 1.0 / _invertible(x[:, :B])
    return run


def replay(fn, *jets):
    """``fn(*jets)`` for a straight-line formula fn of jets of one order and
    batch shape, run as a program: the same jets, float for float."""
    first = jets[0]
    K, cs = first.order, [j.c for j in jets]
    for j in jets[1:]:
        if j.base is not first.base or j.order != K:
            first._check(j)
    shape = cs[0].shape
    B = math.prod(shape[2:])
    if not B:
        return fn(*jets)
    tree, steps, n_regs, outs = _program(fn, len(jets), K)
    # the registers: a jet's (K+1)^2 coefficients, each a row over the batch
    R = np.empty((n_regs, (K + 1) ** 2, B), dtype=complex)
    np.concatenate(cs, out=R[:len(cs)].reshape((-1,) + shape[1:]))
    regs, rows = R.reshape(n_regs, -1), R.reshape(-1, B)
    for run in steps:
        run(regs, rows, B)
    out = R.take(outs, 0).reshape((len(outs),) + shape)
    return _map(tree, lambda i: Jet._raw(first.base, K, out[i]))


# -- series / elementary functions -------------------------------------


def compose_series(coeffs, u):
    """Sum_m coeffs[m] * (u - u0)^m where u0 is u's constant term.

    ``coeffs`` are Taylor coefficients of some univariate g at u0 (numbers,
    or arrays over the batch axes), so the result is the jet of g(u).
    """
    w = u.nilpotent_part()
    out = u._constant(0.0)
    # Horner from the top; w is nilpotent so terms beyond the order vanish.
    top = min(len(coeffs) - 1, u.order)
    for m in range(top, -1, -1):
        out = out * w + coeffs[m]
    return out


def jet_pow(u, s):
    """u**s for arbitrary complex/fractional s, principal branch at u0."""
    c0 = u.value
    if any_set(c0 == 0):
        raise JetError("fractional power of jet with zero constant term")
    s = complex(s)
    # u^s = (u / c0)^s c0^s, the first by its binomial series about 1
    coeffs = [1.0 + 0j]
    for m in range(1, u.order + 1):
        coeffs.append(coeffs[-1] * (s - (m - 1)) / m)
    return compose_series(coeffs, u * (1.0 / c0)) * np.exp(s * np.log(c0))


_OMEGA = np.exp(2j * np.pi / 3)
_OMEGA2 = _OMEGA ** 2


def cbrt_factor(root, target):
    """The factor that takes the cube root ``root`` to the cube root of
    root**3 nearest ``target``; numbers, not arrays (the branch is chosen
    one element at a time, as a continued branch must be)."""
    best = min((root, root * _OMEGA, root * _OMEGA2),
               key=lambda z: abs(z - target))
    return best / root


def jet_cbrt(u):
    """The principal cube root of u (per element, for a batch); cbrt_factor
    turns it to another branch."""
    if any_set(u.value == 0):
        raise JetError("cube root of jet with zero constant term")
    return jet_pow(u, Fraction(1, 3))


TAN_POLE_TOL = 1e-12  # |cos u0| below which tan(u) has a pole


def jet_tan(u):
    """tan(u), per element, by the recursion w' = 1 + w^2 at u's value."""
    t0 = u.value
    if any_set(np.abs(np.cos(t0)) < TAN_POLE_TOL):
        raise JetError("tan evaluated at a pole")
    c = [np.tan(t0)]
    for m in range(u.order):
        sq = sum(c[i] * c[m - i] for i in range(m + 1))
        c.append(((1.0 if m == 0 else 0.0) + sq) / (m + 1))
    return compose_series(c, u)


# -- polynomial expressions ---------------------------------------------


def _coerce_coef(coef):
    if isinstance(coef, (str, Fraction, int)):
        return Fraction(coef)
    return complex(coef)


@dataclass(frozen=True)
class PolyExpr:
    """Sparse polynomial with exact rational or complex coefficients.

    ``terms`` maps exponent tuples to coefficients; zero coefficients are
    dropped on construction.  Arity is free for the algebra (3 for full
    potentials), but evaluation and jet lifting (lift) are defined for two
    variables only.
    """

    terms: tuple

    @classmethod
    def from_dict(cls, d):
        items = []
        seen = set()
        for exps, coef in d.items():
            exps = tuple(int(e) for e in exps)
            if exps in seen:
                raise ValueError(f"duplicate exponent tuple {exps}")
            seen.add(exps)
            coef = _coerce_coef(coef)
            if coef != 0:
                items.append((exps, coef))
        items.sort(key=lambda t: t[0])
        return cls(tuple(items))

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def const(cls, value, nvars=2):
        return cls.from_dict({(0,) * nvars: value})

    @classmethod
    def var(cls, axis, nvars=2):
        e = [0] * nvars
        e[axis] = 1
        return cls.from_dict({tuple(e): 1})

    # arity of the exponent tuples (None for the zero polynomial)
    @property
    def nvars(self):
        return len(self.terms[0][0]) if self.terms else None

    def __add__(self, other):
        if not isinstance(other, PolyExpr):
            nv = self.nvars or 2
            other = PolyExpr.const(other, nv)
        d = {}
        for exps, coef in self.terms + other.terms:
            d[exps] = d.get(exps, 0) + coef
        return PolyExpr(tuple(sorted(
            (e, c) for e, c in d.items() if c != 0)))

    __radd__ = __add__

    def __neg__(self):
        return PolyExpr(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        if not isinstance(other, PolyExpr):
            nv = self.nvars or 2
            other = PolyExpr.const(other, nv)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, PolyExpr):
            other = _coerce_coef(other)
            return PolyExpr(tuple((e, c * other) for e, c in self.terms
                                  if c * other != 0))
        d = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                d[e] = d.get(e, 0) + c1 * c2
        return PolyExpr(tuple(sorted(
            (e, c) for e, c in d.items() if c != 0)))

    __rmul__ = __mul__

    def diff(self, axis):
        d = {}
        for exps, coef in self.terms:
            if exps[axis] == 0:
                continue
            e = list(exps)
            n = e[axis]
            e[axis] = n - 1
            d[tuple(e)] = d.get(tuple(e), 0) + coef * n
        return PolyExpr(tuple(sorted(d.items())))

    def __call__(self, x, y):
        """The value at a point (a Python complex), or at arrays of points."""
        return lift((self,), base_point(x, y), 0, self._lift_tables)[0]

    def jet(self, point, order):
        """Jet lift at a point, or at arrays of points (a batch of jets);
        exact for polynomials (they are entire); see lift."""
        return lift_jets((self,), base_point(point[0], point[1]), order,
                         self._lift_tables)[0]

    @functools.cached_property
    def _lift_tables(self):
        return {}


def _term_table(polys, K):
    """(size, powers, terms) of the order-K lift of polys: term (slot, cc,
    C(e1, j1), u, C(e2, j2), v) of cc x^e1 y^e2 in polys[p] adds onto slot p
    (K+1)^2 + j1 (K+1) + j2; powers[u], powers[v] = (0, e1-j1), (1, e2-j2)."""
    if K < 0:
        raise JetError("jet order must be >= 0")
    n, terms = K + 1, []
    for p, poly in enumerate(polys):
        if poly.terms and poly.nvars != 2:
            raise JetError("jet lifting is defined for 2-variable polynomials")
        terms += [(p * n * n + j1 * n + j2, complex(cc), math.comb(e1, j1),
                   (0, e1 - j1), math.comb(e2, j2), (1, e2 - j2))
                  for (e1, e2), cc in poly.terms
                  for j1 in range(min(e1, K) + 1)
                  for j2 in range(min(e2, K - j1) + 1)]
    powers = sorted({t[3] for t in terms} | {t[5] for t in terms})
    return len(polys) * n * n, powers, tuple(
        (slot, cc, k1, powers.index(u), k2, powers.index(v))
        for slot, cc, k1, u, k2, v in terms)


def lift(polys, base, order, tables):
    """The order-K Taylor coefficients of the 2-variable polynomials polys
    at base (base_point's), c[j1, j2] of polys[p] at p (K+1)^2 + j1 (K+1) +
    j2: Python complex numbers at a point, an array (len(polys) (K+1)^2,
    ...) at arrays of points.  tables: the group owner's cache of
    _term_table's tables, each held with its point function (below).

    Each power x0^n, y0^n is taken once, and each coefficient adds its
    terms cc * (C(e1, j1) x0^(e1-j1)) * C(e2, j2) * y0^(e2-j2) onto +0.0 in
    its polynomial's order.  At real points every product has a real
    factor, where numpy's vectorised complex multiply rounds as Python's
    does, and numpy's integer powers of real values differ from Python's at
    most in the sign of a zero imaginary part, which adding onto +0.0
    drops: an array of real points lifts as each point alone does.  At a
    point the loop runs as a function generated on the table's first point
    call: one statement per power and per term, in the loop's order, whose
    source holds only names and ints (the coefficients are its globals).
    """
    try:
        size, powers, terms, at_point = tables[order]
    except KeyError:
        size, powers, terms, at_point = tables[order] = (
            *_term_table(polys, order), None)
    if type(base[0]) is complex:
        if at_point is None:
            body = [f"p{u} = {'xy'[axis]} ** {n}"
                    for u, (axis, n) in enumerate(powers)]
            sums = set()  # the slots with a term so far
            for i, (slot, _, k1, u, k2, v) in enumerate(terms):
                prev = f"s{slot}" if slot in sums else "z"
                body.append(f"s{slot} = {prev} + c{i} * ({k1} * p{u})"
                            f" * {k2} * p{v}")
                sums.add(slot)
            body.append("return [" + ", ".join(
                f"s{s}" if s in sums else "z" for s in range(size)) + "]")
            scope = {f"c{i}": term[1] for i, term in enumerate(terms)}
            scope["z"] = 0j
            exec("def at_point(x, y):\n    " + "\n    ".join(body), scope)
            at_point = scope["at_point"]
            tables[order] = size, powers, terms, at_point
        return at_point(*base)
    pw = [base[axis] ** n for axis, n in powers]
    out = np.zeros((size,) + base[0].shape, dtype=complex)
    for slot, cc, k1, u, k2, v in terms:
        out[slot] += cc * (k1 * pw[u]) * k2 * pw[v]
    return out


def lift_jets(polys, base, order, tables):
    """lift's coefficients as one jet of each polynomial, on base."""
    c = np.asarray(lift(polys, base, order, tables), dtype=complex)
    return [Jet._raw(base, order, ci) for ci in c.reshape(
        (len(polys), order + 1, order + 1) + np.shape(base[0]))]


def jet_to_polyexpr(jet):
    """Expand a jet into an absolute-coordinate polynomial (Taylor shift)."""
    x0, y0 = jet.base
    dx = PolyExpr.var(0) - x0
    dy = PolyExpr.var(1) - y0
    out = PolyExpr.zero()
    dx_pows = [PolyExpr.const(1)]
    dy_pows = [PolyExpr.const(1)]
    for _ in range(jet.order):
        dx_pows.append(dx_pows[-1] * dx)
        dy_pows.append(dy_pows[-1] * dy)
    for j1 in range(jet.order + 1):
        for j2 in range(jet.order + 1 - j1):
            c = jet.c[j1, j2]
            if c != 0:
                out = out + dx_pows[j1] * dy_pows[j2] * c
    return out
