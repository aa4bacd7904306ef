"""Truncated Taylor (jet) arithmetic over complex scalars in two variables.

A jet stores the Taylor coefficients of a scalar field at a base point up to
a fixed total order K, i.e. ``coeffs[j1, j2] = d^(j1+j2) f / (j1! j2!)``.
Everything downstream (connection forms, curvature, root jets) is built on
top of this module, so operations are kept exact to the truncation order.

Batch axis: the coefficient array has shape (..., K+1, K+1); the leading
axes index independent jets (one per point of an array of base points), and
a single jet is batch shape ().  Every operation acts on all of them with
the same numpy calls, so a batch costs about as many calls as one jet.  The
base is a pair of complex scalars, or of complex arrays broadcastable to the
batch shape; operands of a binary operation share their base, and their
batch shapes broadcast.  ``value`` is ``c[..., 0, 0]``, a numpy scalar for
a single jet, so that scalar code keeps numpy's scalar arithmetic.  Scalar
factors, summands and the constants of ``constant``, ``jet_pow`` and
``jet_cbrt`` may be arrays over the batch axes; a check on a value (a zero
constant term, say) fails when it fails for any element.

Only the triangle j1 + j2 <= K of the last two axes is meaningful.
Products, derivatives and truncations return zeros above it and never read
an operand's entries there.

Products run on an index plan built once per order (``_product_plan``,
offset per element for a batch by ``_batch_plan``).
Each of the T = (K+1)(K+2)/2 outputs (m1, m2) of the triangle collects the
terms a[j1, j2] * b[m1 - j1, m2 - j2], C(K+4, 4) terms in all.  The plan
holds the flat gather indices of both factors, one column per output padded
to the largest term count L (L x T), and, per flat output position, the
row of the running sum that ends its own terms.  A product is one
gather-multiply, along the flattened last two axes, into rows 1..L below a
row of zeros, one sequential ``np.add.accumulate`` down the term axis and
one gather of the result: a fixed number of numpy calls and no Python loop,
whatever the batch shape.  Order 0 is the elementwise product.  The indices
do not depend on the coefficients, so batched operands use the same plan.

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
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from dataclasses import dataclass

import numpy as np

DEFAULT_ORDER = 6


class JetError(ValueError):
    pass


def _frozen(arr):
    arr.setflags(write=False)
    return arr


# +0.0 under an order-0 product, as under the terms of higher orders
_ZERO_1x1 = _frozen(np.zeros((1, 1), dtype=complex))


@functools.cache
def _product_plan(K):
    """Gather indices (ia, ib), output map and running-sum shape of the
    order-K product.

    Column t of ia, ib lists the terms of the t-th triangle output (m1, m2),
    the pairs (j1, j2) x (m1 - j1, m2 - j2) in row-major order of (j1, j2),
    padded at the end; the indices are flat positions in the raveled
    operands.  The terms are accumulated below a row of zeros, so row r of
    the running sum holds the first r terms; ``last[m1, m2]`` is the flat
    position of the row that ends the output's own terms (row 0, +0.0,
    above the triangle).
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
    return (_frozen(ia), _frozen(ib), _frozen(last.reshape(n, n)),
            (L + 1, len(outs)))


@functools.lru_cache(maxsize=16)
def _batch_plan(shape):
    """``_product_plan`` for operands of shape (*batch, K+1, K+1).  The term
    axis stays first, (L, *batch, T): element e's indices are offset by e
    jets, so one gather over the raveled operands and one accumulation down
    axis 0 serve every element, and ``last`` has the operands' shape."""
    batch, n = shape[:-2], shape[-1]
    ia, ib, last, (rows, T) = _product_plan(n - 1)
    e = np.arange(math.prod(batch))
    row, col = np.divmod(last, T)
    last = row * (e.size * T) + col + T * e[:, None, None]
    terms = (rows - 1,) + batch + (T,)
    return (_frozen((ia[:, None] + n * n * e[:, None]).reshape(terms)),
            _frozen((ib[:, None] + n * n * e[:, None]).reshape(terms)),
            _frozen(last.reshape(shape)), (rows,) + batch + (T,))


@functools.cache
def _triangle(K):
    """Mask of the multi-indices j1 + j2 <= K of a (K+1) x (K+1) array."""
    j = np.arange(K + 1)
    return _frozen(j[:, None] + j[None, :] <= K)


@functools.cache
def _deriv_factor(K):
    """j1 + 1 on the (K+1) x (K+1) grid, as complex factors; its transpose
    holds j2 + 1."""
    j = np.arange(1, K + 2, dtype=complex)
    return _frozen(np.repeat(j[:, None], K + 1, axis=1))


def base_point(x, y):
    """A base point as jets hold it: two complex numbers, or two complex
    arrays of one shape.  Canonical arrays come back as the same objects,
    so jets lifted from one canonical point compare bases by identity."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.broadcast_arrays(np.asarray(x, dtype=complex),
                                   np.asarray(y, dtype=complex))
    return (complex(x), complex(y))


def _scalar(v):
    """A summand or factor: a number, or an array over the batch axes."""
    return v if isinstance(v, np.ndarray) and v.ndim else complex(v)


def _c00(c):
    """Index of the constant terms of a coefficient array; a single jet's
    2-d index takes numpy's faster path."""
    return (0, 0) if c.ndim == 2 else (Ellipsis, 0, 0)


def any_set(mask):
    """Whether any element of a boolean scalar or array is set."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


class Jet:
    """Truncated Taylor expansion at a base point, total order <= order.

    ``c`` has shape (..., order+1, order+1); see the module docstring for
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
            self.c = np.zeros(batch + (order + 1, order + 1), dtype=complex)
        elif np.shape(coeffs)[-2:] != (order + 1, order + 1):
            # products index the raveled (K+1) x (K+1) trailing axes
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
        value = _scalar(value)
        if isinstance(value, np.ndarray) and value.shape != j.c.shape[:-2]:
            shape = np.broadcast_shapes(value.shape, j.c.shape[:-2])
            j.c = np.zeros(shape + (order + 1, order + 1), dtype=complex)
        j.c[_c00(j.c)] = value
        return j

    @classmethod
    def variable(cls, axis, base, order):
        """The coordinate function x (axis=0) or y (axis=1) as a jet."""
        j = cls(base, order)
        j.c[_c00(j.c)] = j.base[axis]
        if order >= 1:
            if axis == 0:
                j.c[..., 1, 0] = 1.0
            else:
                j.c[..., 0, 1] = 1.0
        return j

    # -- basic queries -------------------------------------------------

    @property
    def value(self):
        c = self.c
        return c[0, 0] if c.ndim == 2 else c[..., 0, 0]

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
            if out.ndim == 2:
                out[0, 0] += complex(other)
            else:
                out[..., 0, 0] += _scalar(other)
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
        out[_c00(out)] += _scalar(other)
        return Jet._raw(self.base, self.order, out)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            if isinstance(other, np.ndarray) and other.ndim:
                return Jet._raw(self.base, self.order,
                                self.c * other[..., None, None])
            return Jet._raw(self.base, self.order, self.c * complex(other))
        self._check(other)
        K = self.order
        a, b = self.c, other.c
        if K == 0:
            return Jet._raw(self.base, 0, _ZERO_1x1 + a * b)
        if a.shape != b.shape:
            shape = np.broadcast_shapes(a.shape, b.shape)
            a, b = np.broadcast_to(a, shape), np.broadcast_to(b, shape)
        ia, ib, last, rows = (_product_plan(K) if a.ndim == 2
                              else _batch_plan(a.shape))
        terms = np.zeros(rows, dtype=complex)
        np.multiply(a.ravel()[ia], b.ravel()[ib], out=terms[1:])
        acc = np.add.accumulate(terms, axis=0)
        return Jet._raw(self.base, K, acc.ravel()[last])

    __rmul__ = __mul__

    def reciprocal(self):
        """Multiplicative inverse; requires a nonzero constant term."""
        c0 = self.value
        if any_set((c0 == 0) | ~np.isfinite(c0)):
            raise JetError("reciprocal of jet with zero constant term (pole)")
        # Newton iteration r <- r(2 - u r), quadratic convergence in order.
        r = self._constant(1.0 / c0)
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
        K = self.order - 1
        if axis == 0:
            src, fac = self.c[..., 1:, :K + 1], _deriv_factor(K)
        else:
            src, fac = self.c[..., :K + 1, 1:], _deriv_factor(K).T
        out = np.multiply(src, fac, where=_triangle(K),
                          out=np.zeros(self.c.shape[:-2] + (K + 1, K + 1),
                                       dtype=complex))
        return Jet._raw(self.base, K, out)

    def truncate(self, order):
        if order > self.order:
            raise JetError("cannot raise jet order by truncation")
        if order < 0:
            raise JetError("jet order must be >= 0")
        out = np.where(_triangle(order),
                       self.c[..., : order + 1, : order + 1], 0)
        return Jet._raw(self.base, order, out)

    def swap_axes(self):
        """The same expansion with the two variables interchanged."""
        return Jet._raw((self.base[1], self.base[0]), self.order,
                        np.swapaxes(self.c, -1, -2).copy())

    def _constant(self, value):
        """The constant jet ``value`` (a number, or an array over the batch
        axes) on this jet's base, order and batch shape."""
        c = np.zeros(self.c.shape, dtype=complex)
        c[_c00(c)] = value
        return Jet._raw(self.base, self.order, c)

    def nilpotent_part(self):
        out = self.c.copy()
        out[_c00(out)] = 0.0
        return Jet._raw(self.base, self.order, out)

    def __repr__(self):
        return f"Jet(base={self.base}, order={self.order}, value={self.value})"


# -- series / elementary functions -------------------------------------


def compose_series(coeffs, u):
    """Sum_m coeffs[m] * (u - u0)^m where u0 is u's constant term.

    ``coeffs`` are Taylor coefficients of some univariate g at u0, so the
    result is the jet of g(u).
    """
    w = u.nilpotent_part()
    out = u._constant(0.0)
    # Horner from the top; w is nilpotent so terms beyond the order vanish.
    top = min(len(coeffs) - 1, u.order)
    for m in range(top, -1, -1):
        out = out * w + complex(coeffs[m])
    return out


def jet_pow(u, s):
    """u**s for arbitrary complex/fractional s, principal branch at u0."""
    c0 = u.value
    if any_set(c0 == 0):
        raise JetError("fractional power of jet with zero constant term")
    s = complex(s)
    head = np.exp(s * np.log(c0))
    w = u.nilpotent_part() * (1.0 / c0)
    out = u._constant(0.0)
    coeffs = [1.0 + 0j]
    for m in range(1, u.order + 1):
        coeffs.append(coeffs[-1] * (s - (m - 1)) / m)  # binomial series
    for m in range(u.order, -1, -1):
        out = out * w + coeffs[m]
    return out * head


_OMEGA = np.exp(2j * np.pi / 3)
_OMEGA2 = _OMEGA ** 2


def cbrt_factor(root, target):
    """The factor that takes the cube root ``root`` to the cube root of
    root**3 nearest ``target``; numbers, not arrays (the branch is chosen
    one element at a time, as a continued branch must be)."""
    best = min((root, root * _OMEGA, root * _OMEGA2),
               key=lambda z: abs(z - target))
    return best / root


def jet_cbrt(u, target=None):
    """A cube root of u; the branch whose constant term is nearest target
    (per element, for a batch and an array of targets)."""
    if any_set(u.value == 0):
        raise JetError("cube root of jet with zero constant term")
    r = jet_pow(u, Fraction(1, 3))
    if target is None:
        return r
    roots = r.value
    targets = np.broadcast_to(target, np.shape(roots))
    factor = [cbrt_factor(z, t) for z, t in zip(np.ravel(roots),
                                                np.ravel(targets))]
    return r * np.reshape(factor, np.shape(roots))


TAN_POLE_TOL = 1e-12  # |cos u0| below which tan(u) has a pole


def jet_tan(u):
    """tan(u) via the Taylor recursion w' = 1 + w^2 at u's constant term."""
    t0 = u.value
    K = u.order
    c = np.zeros(K + 1, dtype=complex)
    c[0] = np.tan(t0)
    if abs(np.cos(t0)) < TAN_POLE_TOL:
        raise JetError("tan evaluated at a pole")
    for m in range(K):
        sq = sum(c[i] * c[m - i] for i in range(m + 1))
        c[m + 1] = ((1.0 if m == 0 else 0.0) + sq) / (m + 1)
    return compose_series(c, u)


# -- polynomial expressions ---------------------------------------------


def _coerce_coef(coef):
    if isinstance(coef, str):
        return Fraction(coef)
    if isinstance(coef, (Fraction, int)):
        return Fraction(coef)
    return complex(coef)


@dataclass(frozen=True)
class PolyExpr:
    """Sparse polynomial with exact rational or complex coefficients.

    ``terms`` maps exponent tuples to coefficients; zero coefficients are
    dropped on construction.  Arity is free (2 for plane fields, 3 for full
    potentials) but jet lifting is defined for two variables only.
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

    @functools.cached_property
    def _complex_terms(self):
        """``terms`` with each coefficient converted to complex once."""
        return tuple((e, complex(c)) for e, c in self.terms)

    def __call__(self, *point):
        total = 0j
        for exps, term in self._complex_terms:
            for e, p in zip(exps, point):
                term *= complex(p) ** e
            total += term
        return total

    def jet(self, point, order):
        """Jet lift at a point, or at arrays of points (a batch of jets);
        exact for polynomials (they are entire).

        Each coefficient adds its terms in the same order either way.  At
        real points every product has a real factor, where numpy's
        vectorised complex multiply rounds as Python's does, and numpy's
        integer powers of real values differ from Python's at most in the
        sign of a zero imaginary part, which adding onto +0.0 drops: an
        array of real points lifts bit for bit as each point alone does.
        """
        if order < 0:
            raise JetError("jet order must be >= 0")
        if self.terms and self.nvars != 2:
            raise JetError("jet lifting is defined for 2-variable polynomials")
        out = Jet((point[0], point[1]), order)
        x0, y0 = out.base
        # c[j1, j2] is the coefficient, or its array over the points
        c = out.c if out.c.ndim == 2 else np.moveaxis(out.c, (-2, -1), (0, 1))
        for j1, j2, cc, k1, n1, k2, n2 in self._lift_terms(order):
            c[j1, j2] += cc * (k1 * x0 ** n1) * k2 * y0 ** n2
        return out

    @functools.cached_property
    def _lift_plans(self):
        return {}

    def _lift_terms(self, order):
        """The terms of the order-``order`` lift in accumulation order: the
        coefficient, cc * (C(e1, j1) x0^(e1-j1)) * C(e2, j2) y0^(e2-j2), of
        each term (e1, e2) adds onto c[j1, j2], as (j1, j2, cc, C(e1, j1),
        e1 - j1, C(e2, j2), e2 - j2)."""
        plans = self._lift_plans
        if order not in plans:
            plans[order] = [
                (j1, j2, cc, math.comb(e1, j1), e1 - j1, math.comb(e2, j2),
                 e2 - j2)
                for (e1, e2), cc in self._complex_terms
                for j1 in range(min(e1, order) + 1)
                for j2 in range(min(e2, order - j1) + 1)]
        return plans[order]


def jet_to_polyexpr(jet):
    """Expand a jet into an absolute-coordinate polynomial (Taylor shift)."""
    x0, y0 = jet.base
    x = PolyExpr.var(0)
    y = PolyExpr.var(1)
    dx = x - PolyExpr.const(x0)
    dy = y - PolyExpr.const(y0)
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
