"""Exact Nevanlinna-style calculator for rational functions over Q viewed
p-adically.

Conventions.  Radii are given on a logarithmic scale: a "radius" rho
means the closed ball of radius r = p**rho, and every returned quantity
is a log-base-p value, so everything is an exact Fraction.  For a
polynomial h = sum a_k z**k the Gauss norm is

    log_p |h|_rho = max_k ( -v_p(a_k) + k*rho )

over the nonzero coefficients, and it extends to quotients by
subtraction.  Newton polygon segments are stored as (slope, length)
where the slope IS the p-adic valuation of the corresponding roots:
`length` roots of h (in an algebraic closure) have |root|_p = p**(-slope).

The counting function n(rho) of zeros in the ball of radius p**rho and
its logarithmic height

    N(rho) = ord_0(h)*rho + sum over segments of length*max(0, rho + slope)

are piecewise linear in rho with kinks exactly at rho = -slope, which is
what makes every statement here checkable with zero tolerance.  The
ord_0(h)*rho term follows the classical definition literally, so N is
negative for rho < 0 when h vanishes at the origin; that sign behavior is
intentional.

Only rho changes between radii: each check computes a polynomial's
valuations and Newton polygon once and reads every radius off them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import as_fraction, valuation
from .symbolic import RatFunc, UPoly


class _AtInfinity:
    """Marker for the target 'infinity' (poles rather than zeros)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INF"


INF = _AtInfinity()


@dataclass(frozen=True)
class NewtonSegment:
    slope: Fraction
    length: int


@dataclass(frozen=True)
class NewtonPolygon:
    """Segments sorted by strictly increasing slope; total length equals
    the number of nonzero roots with multiplicity."""

    segments: tuple[NewtonSegment, ...]

    def __post_init__(self):
        slopes = [s.slope for s in self.segments]
        if any(s.length < 1 for s in self.segments):
            raise ValueError("segment lengths must be positive")
        if any(a >= b for a, b in zip(slopes, slopes[1:])):
            raise ValueError("slopes must be strictly increasing")

    @property
    def total_length(self) -> int:
        return sum(s.length for s in self.segments)


@dataclass(frozen=True)
class _PadicPoly:
    """What no radius changes about a nonzero polynomial: the points
    (k, v_p(a_k)) of its nonzero coefficients by increasing k, its order
    at 0 and its Newton polygon."""

    points: tuple[tuple[int, int], ...]
    ord0: int
    polygon: NewtonPolygon

    def log_norm(self, rho: Fraction) -> Fraction:
        return max(k * rho - v for k, v in self.points)

    def height(self, rho: Fraction) -> Fraction:
        total = self.ord0 * rho
        for s in self.polygon.segments:
            shifted = rho + s.slope
            if shifted > 0:
                total += s.length * shifted
        return total


def _padic(h: UPoly, p: int) -> _PadicPoly:
    if h.is_zero:
        raise ValueError("the zero polynomial has no Gauss norm or Newton polygon")
    pts = tuple((k, valuation(c, p)) for k, c in enumerate(h.coeffs) if c != 0)
    hull: list[tuple[int, int]] = []
    for x3, y3 in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append((x3, y3))
    segs = [NewtonSegment(Fraction(y1 - y2, x2 - x1), x2 - x1)
            for (x1, y1), (x2, y2) in zip(hull, hull[1:])]
    segs.sort(key=lambda s: s.slope)
    return _PadicPoly(pts, pts[0][0], NewtonPolygon(tuple(segs)))


def _as_ratfunc(f) -> RatFunc:
    if isinstance(f, RatFunc):
        return f
    return RatFunc(f)


def _minus(f: RatFunc, a: Fraction) -> UPoly:
    """The numerator of f - a over the denominator f.den: f is canonical,
    so num - a*den stays coprime to den."""
    h = f.num - f.den * a
    if h.is_zero:
        raise ValueError("f equals the target identically")
    return h


def _log_plus(value: Fraction) -> Fraction:
    return value if value > 0 else Fraction(0)


def gauss_log_norm(h, p: int, rho) -> Fraction:
    """log_p of the sup norm on the ball of radius p**rho, for a UPoly or
    a RatFunc (quotient: numerator minus denominator)."""
    r = as_fraction(rho)
    if isinstance(h, RatFunc):
        return _padic(h.num, p).log_norm(r) - _padic(h.den, p).log_norm(r)
    if isinstance(h, UPoly):
        return _padic(h, p).log_norm(r)
    raise TypeError("expected a UPoly or RatFunc")


def newton_polygon(h: UPoly, p: int) -> NewtonPolygon:
    """Lower convex hull of (k, v_p(a_k)) over the nonzero coefficients,
    reported as root valuations: a slope-s segment of length l means l
    roots of valuation s (the root at 0, if any, is not part of the
    polygon)."""
    if not isinstance(h, UPoly):
        raise TypeError("expected a UPoly")
    return _padic(h, p).polygon


def count_zeros(h: UPoly, p: int, rho) -> int:
    """Zeros of h in the closed ball of radius p**rho, with multiplicity:
    the order of vanishing at 0 plus the polygon lengths over slopes
    >= -rho (roots with |root|_p <= p**rho)."""
    r = as_fraction(rho)
    poly = newton_polygon(h, p)
    return h.ord0 + sum(s.length for s in poly.segments if s.slope >= -r)


def height_N(f, target, p: int, rho) -> Fraction:
    """The height function N at radius p**rho, normalized at rho = 0.

    target 0 counts zeros of f, INF counts poles, and a rational a counts
    solutions of f = a.  Piecewise linear in rho; negative below rho = 0
    when the relevant function vanishes at the origin.
    """
    f = _as_ratfunc(f)
    if f.is_zero:
        raise ValueError("height of the zero function")
    h = f.den if target is INF else _minus(f, as_fraction(target))
    return _padic(h, p).height(as_fraction(rho))


def prox_m(f, target, p: int, rho) -> Fraction:
    """Proximity function: log+ of 1/|f - a| at the radius, or log+ |f|
    for the target INF."""
    f = _as_ratfunc(f)
    r = as_fraction(rho)
    if target is INF:
        return _log_plus(gauss_log_norm(f, p, r))
    h = _minus(f, as_fraction(target))
    return _log_plus(_padic(f.den, p).log_norm(r) - _padic(h, p).log_norm(r))


def check_pjf(f, p: int, rhos) -> Fraction:
    """The constant log|f| - N(f,0) + N(f,inf), checked to be the same at
    every given radius (at least two).  Raises ArithmeticError naming the
    offending radius if the values ever disagreed."""
    f = _as_ratfunc(f)
    if f.is_zero:
        raise ValueError("zero function")
    grid = [as_fraction(r) for r in rhos]
    if len(grid) < 2:
        raise ValueError("need at least 2 radii")
    num, den = _padic(f.num, p), _padic(f.den, p)
    constants = [num.log_norm(r) - den.log_norm(r) - num.height(r) + den.height(r)
                 for r in grid]
    for r, c in zip(grid, constants):
        if c != constants[0]:
            raise ArithmeticError(f"constant mismatch at rho={r}: {c} != {constants[0]}")
    return constants[0]


# Largest accepted n * max(1, deg den): the final gcd of f^(n) grows fast
# in both, and at this budget one check takes well under a second.
LDL_BUDGET = 40


def check_ldl(f, n: int, p: int, rho) -> bool:
    """Exact check of |f^(n)/f| <= p**(-n*rho) at the radius.  True
    vacuously when the n-th derivative vanishes identically.  Refuses
    n * max(1, deg den) above LDL_BUDGET."""
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    f = _as_ratfunc(f)
    cost = n * max(1, f.den.degree)
    if cost > LDL_BUDGET:
        raise ValueError(f"n * max(1, deg den) = {cost} > {LDL_BUDGET} refused "
                         "(resource guard)")
    if f.is_zero:
        raise ValueError("zero function")
    fn = f.derivative(n)
    if fn.is_zero:
        return True
    r = as_fraction(rho)
    return gauss_log_norm(fn / f, p, r) <= -n * r


def _eventual_bound(polys, quotients) -> Fraction:
    """A radius beyond which every involved piecewise-linear function is
    affine and every positive-part clip has settled.

    Past the last kink of its polygon, log|h| is the leading term's
    deg(h)*rho - v_p(lead h), so the log-norm of a quotient h/k changes
    sign there at most once, where those two pieces cross."""
    bound = max([Fraction(0)] + [-s.slope for h in polys for s in h.polygon.segments])
    for h, k in quotients:
        (dh, vh), (dk, vk) = h.points[-1], k.points[-1]
        if dh != dk:
            bound = max(bound, Fraction(vh - vk, dh - dk))
    return bound


@dataclass(frozen=True)
class FmtReport:
    """Defect m(f,a) + N(f,a) - m(f,inf) - N(f,inf) over a radius grid.

    The defect is piecewise linear; beyond `stable_beyond` it is affine
    with slope `eventual_slope`, and the check passes exactly when that
    slope is zero (the defect is then the constant `eventual_value`)."""

    a: Fraction
    grid: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    spread: Fraction
    stable_beyond: Fraction
    eventual_slope: Fraction
    eventual_value: Fraction

    @property
    def passed(self) -> bool:
        return self.eventual_slope == 0


def check_fmt(f, a, p: int, rhos) -> FmtReport:
    f = _as_ratfunc(f)
    if f.is_constant:
        raise ValueError("f must be nonconstant")
    a = as_fraction(a)
    grid = tuple(sorted(as_fraction(r) for r in rhos))
    if not grid:
        raise ValueError("empty radius grid")
    num, den, fa = (_padic(h, p) for h in (f.num, f.den, _minus(f, a)))

    def defect(r: Fraction) -> Fraction:
        # m(f, a) + N(f, a) - m(f, inf) - N(f, inf)
        return (_log_plus(den.log_norm(r) - fa.log_norm(r)) + fa.height(r)
                - _log_plus(num.log_norm(r) - den.log_norm(r)) - den.height(r))

    bound = _eventual_bound((num, den, fa), ((num, den), (fa, den)))
    values = tuple(defect(r) for r in grid)
    v1 = defect(bound + 1)
    v2 = defect(bound + 2)
    return FmtReport(a=a, grid=grid, values=values,
                     spread=max(values) - min(values),
                     stable_beyond=bound,
                     eventual_slope=v2 - v1,
                     eventual_value=v1)


@dataclass(frozen=True)
class SmtReport:
    """sum_i m(f, a_i) - N(f, inf) over a radius grid.

    Beyond `stable_beyond` the quantity is affine; the check passes when
    its eventual slope is <= 0, so the grid supremum cannot be escaped to
    the right.  A finite grid cannot certify more."""

    targets: tuple[Fraction, ...]
    grid: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    sup: Fraction
    stable_beyond: Fraction
    eventual_slope: Fraction

    @property
    def passed(self) -> bool:
        return self.eventual_slope <= 0


def check_smt(f, targets, p: int, rhos) -> SmtReport:
    f = _as_ratfunc(f)
    if f.is_constant:
        raise ValueError("f must be nonconstant")
    ts = tuple(as_fraction(a) for a in targets)
    if len(set(ts)) != len(ts):
        raise ValueError("targets must be distinct")
    if not ts:
        raise ValueError("need at least one target")
    grid = tuple(sorted(as_fraction(r) for r in rhos))
    if not grid:
        raise ValueError("empty radius grid")
    den = _padic(f.den, p)
    fas = [_padic(_minus(f, a), p) for a in ts]

    def value(r: Fraction) -> Fraction:
        # sum_i m(f, a_i) - N(f, inf)
        return (sum(_log_plus(den.log_norm(r) - fa.log_norm(r)) for fa in fas)
                - den.height(r))

    bound = _eventual_bound([den, *fas], [(fa, den) for fa in fas])
    values = tuple(value(r) for r in grid)
    v1 = value(bound + 1)
    v2 = value(bound + 2)
    return SmtReport(targets=ts, grid=grid, values=values,
                     sup=max(values),
                     stable_beyond=bound,
                     eventual_slope=v2 - v1)


def delta_identity(f, u, a) -> bool:
    """With g = (a + f)**2 - u**2 (so h = u satisfies h**2 = (a+f)**2 - g),
    checks the exact factorization

        g'**2 - 4*f'**2*g = 4*u*(u*f'**2 - u'**2*u - u'*g')

    which holds identically for every rational f, u and constant a."""
    f = _as_ratfunc(f)
    u = _as_ratfunc(u)
    a = as_fraction(a)
    g = (f + a) ** 2 - u ** 2
    fp = f.derivative()
    up = u.derivative()
    gp = g.derivative()
    delta = gp ** 2 - 4 * fp ** 2 * g
    delta_n = u * fp ** 2 - up ** 2 * u - up * gp
    return delta == 4 * u * delta_n


def difference_identity(f, a_i, a_j, h_i_sq, h_j_sq) -> bool:
    """Checks h_i**2 - h_j**2 = (a_i - a_j)*(2f + a_i + a_j), the linear
    relation forced when both squares equal (a + f)**2 - g for a common g."""
    f = _as_ratfunc(f)
    ai = as_fraction(a_i)
    aj = as_fraction(a_j)
    lhs = _as_ratfunc(h_i_sq) - _as_ratfunc(h_j_sq)
    rhs = (ai - aj) * (2 * f + ai + aj)
    return lhs == rhs
