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

from fractions import Fraction
from math import lcm

from . import Record, guard
from .exact import INFINITY as INF  # the target 'infinity': poles, not zeros
from .exact import as_fraction, valuation, vanishes_on_grid
from .symbolic import RatFunc, UPoly


class NewtonSegment(Record):
    __slots__ = ("slope", "length")


class NewtonPolygon(Record):
    """Segments sorted by strictly increasing slope; total length equals
    the number of nonzero roots with multiplicity."""

    __slots__ = ("segments",)

    def __init__(self, segments):
        slopes = [s.slope for s in segments]
        if any(s.length < 1 for s in segments):
            raise ValueError("segment lengths must be positive")
        if any(a >= b for a, b in zip(slopes, slopes[1:])):
            raise ValueError("slopes must be strictly increasing")
        object.__setattr__(self, "segments", segments)

    @property
    def total_length(self) -> int:
        return sum(s.length for s in self.segments)


class _PadicPoly(Record):
    """What no radius changes about a nonzero polynomial: the points
    (k, v_p(a_k)) of its nonzero coefficients by increasing k, its order
    at 0, its Newton polygon, the lcm L of its slopes' denominators and
    the (length, slope * L) of each segment, in integers."""

    __slots__ = ("points", "ord0", "polygon", "scale", "kinks")

    def log_norm(self, rho: Fraction) -> Fraction:
        """max(k*rho - v) over the points, in integers: with rho = a/b and
        b > 0, every term is (k*a - v*b)/b."""
        a, b = rho.numerator, rho.denominator
        return Fraction(max(k * a - v * b for k, v in self.points), b)

    def height(self, rho: Fraction) -> Fraction:
        """ord0*rho + the sum of length*max(0, rho + slope), in integers:
        with rho = a/b and b > 0, every term is over b*L."""
        a, b = rho.numerator * self.scale, rho.denominator
        return Fraction(self.ord0 * a + sum(n * max(0, a + s * b) for n, s in self.kinks),
                        b * self.scale)


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
    scale = lcm(*(s.slope.denominator for s in segs))
    kinks = tuple((s.length, s.slope.numerator * (scale // s.slope.denominator)) for s in segs)
    return _PadicPoly(pts, pts[0][0], NewtonPolygon(tuple(segs)), scale, kinks)


def _as_ratfunc(f) -> RatFunc:
    if isinstance(f, RatFunc):
        return f
    return RatFunc(f)


def _minus(num: UPoly, den: UPoly, a: Fraction) -> UPoly:
    """num - a*den: f - a over den for f = num/den, coprime to den when num is."""
    h = num - den * a
    if h.is_zero:
        raise ValueError("f equals the target identically")
    return h


def _log_plus(value: Fraction) -> Fraction:
    return value if value > 0 else Fraction(0)


def gauss_log_norm(h, p: int, rho) -> Fraction:
    """log_p of the sup norm on the ball of radius p**rho, for a UPoly or
    a RatFunc (quotient: numerator minus denominator).  The norm is
    multiplicative, so a RatFunc is read as stored, with no gcd."""
    r = as_fraction(rho)
    if isinstance(h, RatFunc):
        num, den = h.as_quotient()
        return _padic(num, p).log_norm(r) - _padic(den, p).log_norm(r)
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
    h = f.den if target is INF else _minus(f.num, f.den, as_fraction(target))
    return _padic(h, p).height(as_fraction(rho))


def prox_m(f, target, p: int, rho) -> Fraction:
    """Proximity function: log+ of 1/|f - a| at the radius, or log+ |f|
    for the target INF, from f's stored parts: a common factor cancels."""
    f = _as_ratfunc(f)
    r = as_fraction(rho)
    if target is INF:
        return _log_plus(gauss_log_norm(f, p, r))
    num, den = f.as_quotient()
    h = _minus(num, den, as_fraction(target))
    return _log_plus(_padic(den, p).log_norm(r) - _padic(h, p).log_norm(r))


# Largest (radii + 20) * (weight * (degree + 40) + 240) that check_pjf,
# check_fmt and check_smt evaluate (resource guard), the degree being the
# larger of f's stored num and den, and the weight the polynomials
# each reads at every radius besides the denominator: the numerator for
# pjf, the numerator and f - a for fmt, and f - a for each target of smt.
# A reading costs about degree + 40 steps, each radius about 240 steps of
# its own (converting, sorting and printing it), and each polynomial is
# also read at two samples past the grid, with its Newton polygon costing
# about 18 readings more.  Over 1,500 radii (2-vCPU VM, CPython 3.11,
# in-process through cli.main, dense (z+1)**d over z+2) a radius took
# 20-23 us at degree 1 and 48-50 us at degree 200 for pjf and one smt
# target, 34 and 67 us for fmt, and 63 and 224 us for 10 smt targets.
# At this budget one smt target at degree 200 has the edge 16,646 radii.
RADII_BUDGET = 8_000_000


def _radii(weight: int, rhos, *parts: UPoly) -> list[Fraction]:
    """rhos as Fractions, refused before any is converted beyond
    RADII_BUDGET for a check that reads weight polynomials of the degree
    of the parts of f it reads besides the denominator at each radius."""
    rhos = list(rhos)
    degree = max(h.degree for h in parts)
    guard("RADII_BUDGET", (len(rhos) + 20) * (weight * (degree + 40) + 240), RADII_BUDGET,
          "(radii + 20) * (weight * (degree + 40) + 240)")
    return [as_fraction(r) for r in rhos]


class PjfReport(Record):
    """The radii, in the order given, and the constant log|f| - N(f,0) +
    N(f,inf) that they all gave."""

    __slots__ = ("grid", "constant")


def check_pjf(f, p: int, rhos) -> PjfReport:
    """The constant log|f| - N(f,0) + N(f,inf), checked to be the same at
    every given radius (at least two); raises ArithmeticError naming the
    offending radius if the values ever disagreed.  f is read as stored,
    with no gcd: the norm is multiplicative, N adds over products and no
    constant factor moves it, so every num/den of f gives one constant."""
    f = _as_ratfunc(f)
    if f.is_zero:
        raise ValueError("zero function")
    grid = tuple(_radii(1, rhos, *f.as_quotient()))
    if len(grid) < 2:
        raise ValueError("need at least 2 radii")
    num, den = (_padic(h, p) for h in f.as_quotient())
    constants = [num.log_norm(r) - den.log_norm(r) - num.height(r) + den.height(r)
                 for r in grid]
    for r, c in zip(grid, constants):
        if c != constants[0]:
            raise ArithmeticError(f"constant mismatch at rho={r}: {c} != {constants[0]}")
    return PjfReport(grid=grid, constant=constants[0])


# Largest accepted n * max(1, deg den) (resource guard): f^(n) has the
# denominator den**(n+1), so its products grow with both.  f^(n)/f is
# never formed: the Gauss norm is multiplicative, so its norm is that of
# f^(n) less that of f.  At this budget, seven shapes with 20-bit
# coefficients up to degree 42/40 (2-vCPU VM, CPython 3.11) took 0.017 s
# together, where reducing f^(n)/f took 5.2 s.
LDL_BUDGET = 40


def check_ldl(f, n: int, p: int, rho) -> bool:
    """Exact check of |f^(n)/f| <= p**(-n*rho) at the radius.  True
    vacuously when the n-th derivative vanishes identically.  Refuses
    n * max(1, deg den) above LDL_BUDGET, den being f's stored
    denominator, which f^(n) raises to the power n + 1.  Runs no gcd."""
    if n < 1:
        raise ValueError("derivative order must be >= 1")
    f = _as_ratfunc(f)
    cost = n * max(1, f.as_quotient()[1].degree)
    guard("LDL_BUDGET", cost, LDL_BUDGET, "n * max(1, deg den)")
    if f.is_zero:
        raise ValueError("zero function")
    fn = f.derivative(n)
    if fn.is_zero:
        return True
    r = as_fraction(rho)
    return gauss_log_norm(fn, p, r) - gauss_log_norm(f, p, r) <= -n * r


def _sweep(value, grid, polys, quotients) -> tuple:
    """value, made of the log-norms of polys and the positive parts of
    those of quotients, at each radius of the grid; a radius beyond which
    it is affine; its slope there; and its value one past that radius.

    Past the last kink of its polygon, log|h| is the leading term's
    deg(h)*rho - v_p(lead h), so the log-norm of a quotient h/k changes
    sign there at most once, where those two pieces cross."""
    bound = max([Fraction(0)] + [-s.slope for h in polys for s in h.polygon.segments])
    for h, k in quotients:
        (dh, vh), (dk, vk) = h.points[-1], k.points[-1]
        if dh != dk:
            bound = max(bound, Fraction(vh - vk, dh - dk))
    values = tuple(value(r) for r in grid)
    v1 = value(bound + 1)
    return values, bound, value(bound + 2) - v1, v1


class FmtReport(Record):
    """Defect m(f,a) + N(f,a) - m(f,inf) - N(f,inf) over a radius grid.

    The defect is piecewise linear; beyond `stable_beyond` it is affine
    with slope `eventual_slope`, and the check passes exactly when that
    slope is zero (the defect is then the constant `eventual_value`)."""

    __slots__ = ("a", "grid", "values", "spread", "stable_beyond", "eventual_slope",
                 "eventual_value")

    @property
    def passed(self) -> bool:
        return self.eventual_slope == 0


def check_fmt(f, a, p: int, rhos) -> FmtReport:
    f = _as_ratfunc(f)
    if f.is_constant:
        raise ValueError("f must be nonconstant")
    a, parts = as_fraction(a), f.as_quotient()  # a common factor cancels in the defect
    grid = tuple(sorted(_radii(2, rhos, *parts)))
    if not grid:
        raise ValueError("empty radius grid")
    num, den, fa = (_padic(h, p) for h in (*parts, _minus(*parts, a)))

    def defect(r: Fraction) -> Fraction:
        # m(f, a) + N(f, a) - m(f, inf) - N(f, inf)
        return (_log_plus(den.log_norm(r) - fa.log_norm(r)) + fa.height(r)
                - _log_plus(num.log_norm(r) - den.log_norm(r)) - den.height(r))

    values, bound, slope, v1 = _sweep(defect, grid, (num, den, fa), ((num, den), (fa, den)))
    return FmtReport(a=a, grid=grid, values=values, spread=max(values) - min(values),
                     stable_beyond=bound, eventual_slope=slope, eventual_value=v1)


class SmtReport(Record):
    """sum_i m(f, a_i) - N(f, inf) over a radius grid.

    Beyond `stable_beyond` the quantity is affine; the check passes when
    its eventual slope is <= 0, so the grid supremum cannot be escaped to
    the right.  A finite grid cannot certify more."""

    __slots__ = ("targets", "grid", "values", "sup", "stable_beyond", "eventual_slope")

    @property
    def passed(self) -> bool:
        return self.eventual_slope <= 0


def check_smt(f, targets, p: int, rhos) -> SmtReport:
    f = _as_ratfunc(f)
    if f.is_constant:
        raise ValueError("f must be nonconstant")
    grid = tuple(sorted(_radii(len(targets), rhos, *f.as_quotient())))  # before targets, gcd
    ts = tuple(as_fraction(a) for a in targets)
    if len(set(ts)) != len(ts):
        raise ValueError("targets must be distinct")
    if not ts:
        raise ValueError("need at least one target")
    if not grid:
        raise ValueError("empty radius grid")
    den = _padic(f.den, p)  # N(f, inf) needs the coprime denominator
    fas = [_padic(_minus(f.num, f.den, a), p) for a in ts]

    def value(r: Fraction) -> Fraction:
        # sum_i m(f, a_i) - N(f, inf), reading den once per radius
        log_den, height = den.log_norm(r), den.height(r)
        return sum(_log_plus(log_den - fa.log_norm(r)) for fa in fas) - height

    values, bound, slope, _ = _sweep(value, grid, [den, *fas], [(fa, den) for fa in fas])
    return SmtReport(targets=ts, grid=grid, values=values, sup=max(values),
                     stable_beyond=bound, eventual_slope=slope)


def _delta_residual(a, f, f1, u, u1):
    """g'**2 - 4*f1**2*g - 4*u*(u*f1**2 - u1**2*u - u1*g') in five formal
    symbols, f1 and u1 standing for f' and u', with g = (a + f)**2 - u**2
    and g' = 2*(a + f)*f1 - 2*u*u1 by the Leibniz rule (a is constant).
    Each symbol has degree at most 2 in it."""
    g = (a + f) ** 2 - u ** 2
    g1 = 2 * (a + f) * f1 - 2 * u * u1
    return g1 ** 2 - 4 * f1 ** 2 * g - 4 * u * (u * f1 ** 2 - u1 ** 2 * u - u1 * g1)


def delta_identity(f, u, a) -> bool:
    """With g = (a + f)**2 - u**2 (so h = u satisfies h**2 = (a+f)**2 - g),
    checks the exact factorization

        g'**2 - 4*f'**2*g = 4*u*(u*f'**2 - u'**2*u - u'*g')

    which holds identically for every rational f, u and constant a: the
    difference of its sides is _delta_residual at (a, f, f', u, u'), a
    polynomial of degree at most 2 in each of its five symbols, so
    vanishes_on_grid certifies it once for all inputs on 3**5 = 243
    points.  The inputs are only coerced, so a bad type raises; no product
    or gcd of them runs."""
    _as_ratfunc(f)
    _as_ratfunc(u)
    as_fraction(a)
    return vanishes_on_grid(_delta_residual, (2,) * 5)


def difference_identity(f, a_i, a_j, h_i_sq, h_j_sq) -> bool:
    """Checks h_i**2 - h_j**2 = (a_i - a_j)*(2f + a_i + a_j), the linear
    relation forced when both squares equal (a + f)**2 - g for a common g,
    cross-multiplied over the stored parts N/D of each, with no gcd:
    (N_i*D_j - N_j*D_i)*D_f == (a_i - a_j)*(2*N_f + (a_i + a_j)*D_f)*D_i*D_j."""
    nf, df = _as_ratfunc(f).as_quotient()
    ai, aj = as_fraction(a_i), as_fraction(a_j)
    ni, di = _as_ratfunc(h_i_sq).as_quotient()
    nj, dj = _as_ratfunc(h_j_sq).as_quotient()
    return (ni * dj - nj * di) * df == (ai - aj) * (2 * nf + (ai + aj) * df) * di * dj
