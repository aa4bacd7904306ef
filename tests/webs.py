"""Fields shared by the test modules: slope webs, random polynomials and
the two non-flat control webs used as negative witnesses."""

from hexweb.cubic import PolyCoeffField
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


# generic non-flat control web
CONTROL_GENERIC = PolyCoeffField(PolyExpr.const(1, 2), PolyExpr.zero(),
                                 X + Y * Y, PolyExpr.const(1, 2))
# non-flat slope web: two parallel families and slopes 8x + 2.5
CONTROL_SLOPES = slope_web(0.0, 1.0, X * 8 + 2.5)
