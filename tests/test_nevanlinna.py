import random
from fractions import Fraction

import pytest

from buchi.exact import INFINITY, valuation
from buchi.nevanlinna import (INF, LDL_BUDGET, RADII_BUDGET, NewtonSegment,
                              check_fmt, check_ldl, check_pjf, check_smt, count_zeros,
                              delta_identity, difference_identity,
                              gauss_log_norm, height_N, newton_polygon, prox_m)
from buchi.nevanlinna import _padic
from buchi.symbolic import RatFunc, UPoly
from helpers import count_gcd_calls, rand_fraction, rand_ratfunc, rand_upoly

Z = RatFunc.x()


class TestGaussNorm:
    def test_examples(self):
        h = UPoly((1, 2))  # 1 + 2z
        assert gauss_log_norm(h, 2, 0) == 0
        assert gauss_log_norm(h, 2, 3) == 2
        for p in (2, 3, 7):
            rho = Fraction(5, 3)
            assert gauss_log_norm(UPoly.x(), p, rho) == rho

    def test_constants_have_radius_free_norm(self):
        assert gauss_log_norm(UPoly((Fraction(9, 50),)), 5, 17) == -valuation(Fraction(9, 50), 5)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            gauss_log_norm(UPoly.zero(), 2, 0)

    def test_multiplicative_randomized(self):
        rng = random.Random(31)
        for _ in range(200):
            h = rand_upoly(rng, 5, nonzero=True)
            k = rand_upoly(rng, 5, nonzero=True)
            p = rng.choice((2, 3, 5, 7))
            rho = rand_fraction(rng, 6, 3)
            assert gauss_log_norm(h * k, p, rho) == \
                gauss_log_norm(h, p, rho) + gauss_log_norm(k, p, rho)

    def test_integer_log_norm_matches_fraction_oracle(self):
        # max(k*a - v*b)/b against max(k*rho - v) in Fraction arithmetic,
        # with negative valuations and radii that are negative, zero,
        # integers, or given as unreduced quotients
        rng = random.Random(47)
        radii = [0, -3, 5, Fraction(4, 6), Fraction(-9, 6), Fraction(10, -4)]
        for _ in range(300):
            coeffs = [rand_fraction(rng, 60, 60) for _ in range(rng.randint(1, 8))]
            h = UPoly(coeffs + [rand_fraction(rng, 60, 60, nonzero=True)])
            padic = _padic(h, rng.choice((2, 3, 5, 7)))
            for rho in radii + [rand_fraction(rng, 40, 12) for _ in range(4)]:
                rho = Fraction(rho)
                assert padic.log_norm(rho) == max(k * rho - v for k, v in padic.points)

    def test_ratfunc_norm_subtracts(self):
        f = RatFunc(UPoly((1, 2)), UPoly.x())
        assert gauss_log_norm(f, 2, 3) == 2 - 3

    def test_ratfunc_norm_needs_no_canonical_form(self, monkeypatch):
        # unreduced quotients: the norm read off the stored parts, with no
        # gcd, equals the one of the canonical parts
        calls = count_gcd_calls(monkeypatch)
        rng = random.Random(37)
        for _ in range(250):
            common = rand_upoly(rng, 3, nonzero=True) * rand_fraction(rng, nonzero=True)
            num, den = rand_upoly(rng, 5), rand_upoly(rng, 5, nonzero=True)
            f = RatFunc(common * num, common * den)
            if f.is_zero:
                continue
            p = rng.choice((2, 3, 5, 7))
            rho = rand_fraction(rng, 6, 3)
            del calls[:]
            value = gauss_log_norm(f, p, rho)
            assert calls == []
            assert value == gauss_log_norm(f.num, p, rho) - gauss_log_norm(f.den, p, rho)


class TestNewtonPolygon:
    def test_factored_example(self):
        poly = newton_polygon(UPoly((0, -2, 1)), 2)  # z(z-2)
        assert poly.segments == (NewtonSegment(Fraction(1), 1),)

    def test_linear_example(self):
        poly = newton_polygon(UPoly((-3, 1)), 3)  # z - 3
        assert poly.segments == (NewtonSegment(Fraction(1), 1),)

    def test_unit_roots(self):
        poly = newton_polygon(UPoly((-1, 0, 1)), 5)  # z^2 - 1
        assert poly.segments == (NewtonSegment(Fraction(0), 2),)

    def test_mixed_valuations(self):
        # (z - p)(z - 1): one root of valuation 1, one of valuation 0
        poly = newton_polygon(UPoly.from_roots([2, 1]), 2)
        assert poly.segments == (NewtonSegment(Fraction(0), 1),
                                 NewtonSegment(Fraction(1), 1))
        assert poly.total_length == 2

    def test_fractional_slope(self):
        # z^2 - p has two roots of valuation 1/2
        poly = newton_polygon(UPoly((-3, 0, 1)), 3)
        assert poly.segments == (NewtonSegment(Fraction(1, 2), 2),)


class TestCountZeros:
    def test_examples(self):
        h = UPoly((0, -2, 1))  # z(z-2)
        assert count_zeros(h, 2, 0) == 2
        assert count_zeros(h, 2, -2) == 1
        assert count_zeros(UPoly((-3, 1)), 3, -2) == 0
        # closed ball: at rho = -1 the root 3 sits exactly on the boundary
        assert count_zeros(UPoly((-3, 1)), 3, -1) == 1

    def test_monotone_and_additive(self):
        rng = random.Random(7)
        for _ in range(100):
            h = rand_upoly(rng, 5, nonzero=True)
            k = rand_upoly(rng, 5, nonzero=True)
            p = rng.choice((2, 3, 5))
            grid = sorted(rand_fraction(rng, 5, 2) for _ in range(5))
            prev = None
            for rho in grid:
                n = count_zeros(h, p, rho)
                if prev is not None:
                    assert n >= prev
                prev = n
                assert count_zeros(h * k, p, rho) == n + count_zeros(k, p, rho)
            assert count_zeros(h, p, 10 ** 6) == h.degree

    def test_factored_oracle(self):
        # polynomials with known rational roots: count_zeros must match
        # direct root counting on a grid spanning every breakpoint
        rng = random.Random(13)
        for _ in range(100):
            p = rng.choice((2, 3, 5, 7))
            roots = [rand_fraction(rng, 9, 4) for _ in range(rng.randint(1, 6))]
            h = UPoly.from_roots(roots, lead=rand_fraction(rng, 5, 3, nonzero=True))
            finite = [valuation(r, p) for r in roots if r != 0]
            points = sorted({Fraction(-v) for v in finite}) or [Fraction(0)]
            grid = set(points)
            for a, b in zip(points, points[1:]):
                grid.add((a + b) / 2)
            grid.add(min(points) - 1)
            grid.add(max(points) + 1)
            for rho in sorted(grid):
                direct = sum(1 for r in roots
                             if r == 0 or valuation(r, p) >= -rho)
                assert count_zeros(h, p, rho) == direct


class TestHeightN:
    def test_single_zero_at_origin(self):
        for rho in (0, 1, Fraction(7, 2)):
            assert height_N(Z, 0, 2, rho) == rho
        assert height_N(Z, 0, 2, -3) == -3

    def test_simple_pole(self):
        assert INF is INFINITY  # one infinity marker: the valuation of zero
        f = 1 / (Z - 1)
        assert height_N(f, INF, 5, 2) == 2
        assert height_N(f, INF, 5, -1) == 0

    def test_target_value(self):
        # f = z, target 4: the zero of z - 4 has valuation 2 at p = 2,
        # so it contributes max(0, rho + 2)
        assert height_N(Z, 4, 2, -3) == 0
        assert height_N(Z, 4, 2, -2) == 0
        assert height_N(Z, 4, 2, 0) == 2
        assert height_N(Z, 4, 2, 3) == 5

    def test_degenerate_target(self):
        with pytest.raises(ValueError):
            height_N(RatFunc.constant(3), 3, 2, 0)


class TestProxM:
    def test_examples(self):
        assert prox_m(Z, INF, 2, 2) == 2
        assert prox_m(Z, INF, 2, -1) == 0
        assert prox_m(1 / Z, 0, 3, -2) == 0

    def test_proximity_to_small_values(self):
        # f = z is close to 0 on small balls: m(rho, z, 0) = -rho for rho < 0
        assert prox_m(Z, 0, 2, -3) == 3


class TestPjf:
    def test_identity_function(self):
        assert check_pjf(Z, 2, (-2, 0, 1, 5)) == 0

    def test_shifted_reciprocal(self):
        f = (Z - 1) / Z
        assert check_pjf(f, 2, (-2, -1, 0, 1, 3)) == 0

    def test_scaled_square(self):
        assert check_pjf(5 * Z * Z, 5, (0, 1, 2)) == -1

    def test_constant_oracle_randomized(self):
        # independent oracle: C = -v_p(lowest num coeff) + v_p(lowest den coeff)
        rng = random.Random(71)
        for _ in range(100):
            f = rand_ratfunc(rng, 5, nonzero=True)
            p = rng.choice((2, 3, 5, 7))
            grid = sorted({rand_fraction(rng, 6, 3) for _ in range(6)})
            if len(grid) < 2:
                grid = [Fraction(0), Fraction(1)]
            c = check_pjf(f, p, grid)
            num, den = f.num, f.den
            expected = (-valuation(num.coeffs[num.ord0], p)
                        + valuation(den.coeffs[den.ord0], p))
            assert c == expected

    def test_needs_two_radii(self):
        with pytest.raises(ValueError):
            check_pjf(Z, 2, (0,))


class TestLdl:
    def test_examples(self):
        assert check_ldl(Z * Z, 1, 3, 1)
        assert check_ldl(Z * Z, 1, 2, 0)
        assert check_ldl((Z + 1) ** 5, 2, 7, 2)

    def test_vacuous_when_derivative_vanishes(self):
        assert check_ldl(RatFunc.constant(4), 1, 2, 0)
        assert check_ldl(RatFunc(UPoly((1, 1))), 2, 2, -5)

    def test_order_budget(self):
        f = 1 / (Z * Z + Z + 1)
        assert isinstance(check_ldl(f, LDL_BUDGET // 2, 3, 1), bool)
        with pytest.raises(ValueError, match="resource guard"):
            check_ldl(f, LDL_BUDGET // 2 + 1, 3, 1)
        assert check_ldl(Z ** 3, LDL_BUDGET, 3, 1)
        with pytest.raises(ValueError, match="resource guard"):
            check_ldl(Z ** 3, LDL_BUDGET + 1, 3, 1)

    def test_gcds_only_for_the_input(self, monkeypatch):
        # the quotient f^(n)/f is never reduced: check_ldl runs the gcds
        # of its input's canonical form and no more
        calls = count_gcd_calls(monkeypatch)
        rng = random.Random(41)
        for _ in range(30):
            common = rand_upoly(rng, 2, nonzero=True)
            f = RatFunc(common * rand_upoly(rng, 4, nonzero=True),
                        common * rand_upoly(rng, 4, nonzero=True))
            del calls[:]
            RatFunc(*f.as_quotient()).num
            needed = len(calls)
            del calls[:]
            check_ldl(f, rng.randint(1, 3), rng.choice((2, 3, 5)), rng.randint(-3, 3))
            assert len(calls) == needed == 1
            del calls[:]
            check_ldl(f, 1, 3, 0)
            assert calls == []

    def test_randomized(self):
        rng = random.Random(19)
        for _ in range(500):
            f = rand_ratfunc(rng, 6, nonzero=True)
            n = rng.randint(1, 3)
            p = rng.choice((2, 3, 5, 7))
            rho = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            assert check_ldl(f, n, p, rho)


class TestFmt:
    def test_identity_function_zero_defect(self):
        report = check_fmt(Z, 0, 2, (-3, -1, 0, 2, 5))
        assert set(report.values) == {0}
        assert report.spread == 0
        assert report.passed

    def test_shifted_reciprocal(self):
        f = (Z - 1) / Z
        report = check_fmt(f, 1, 2, range(-3, 6))
        assert report.passed
        assert report.eventual_slope == 0

    def test_square_at_p3(self):
        report = check_fmt(Z * Z, 4, 3, (-2, 0, 1, 2, 4))
        assert report.passed

    def test_randomized(self):
        rng = random.Random(37)
        for _ in range(150):
            f = rand_ratfunc(rng, 4, nonzero=True)
            if f.is_constant:
                continue
            a = rand_fraction(rng, 6, 3)
            if (f - a).is_zero:
                continue
            p = rng.choice((2, 3, 5, 7))
            grid = sorted({rand_fraction(rng, 5, 2) for _ in range(5)})
            report = check_fmt(f, a, p, grid or [0])
            assert report.passed

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            check_fmt(RatFunc.constant(2), 0, 2, (0, 1))


class TestSmt:
    def test_identity_function(self):
        report = check_smt(Z, (0, 1), 2, (1, 2, 3))
        assert report.passed
        assert report.sup <= 1

    def test_reciprocal(self):
        report = check_smt(1 / Z, (1, 2, 3), 5, (-2, -1, 0, 1, 2))
        assert report.passed

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            check_smt(RatFunc.constant(1), (0, 1), 2, (0, 1))

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError):
            check_smt(Z, (1, 1), 2, (0, 1))

    def test_grid_budget(self):
        # 100 targets at degree 60: 761 radii are within the budget, 762
        # are refused
        targets, per_radius = range(1, 101), 100 * (60 + 40) + 240
        radii = RADII_BUDGET // per_radius - 20
        assert (radii + 20) * per_radius <= RADII_BUDGET < (radii + 21) * per_radius
        assert len(check_smt(Z ** 60, targets, 5, range(radii)).values) == radii
        with pytest.raises(ValueError, match="RADII_BUDGET = 8000000 refused"):
            check_smt(Z ** 60, targets, 5, range(radii + 1))

    def test_grid_budget_weighs_the_degree(self):
        # a grid admitted at degree 1 is refused at degree 200, numerator
        # or denominator, and one radius does not admit unbounded targets
        targets, radii = range(1, 21), range(2000)
        assert len(check_smt(1 / Z, targets, 5, radii).values) == 2000
        for f in (Z ** 200 + 1, 1 / (Z ** 200 + 1)):
            with pytest.raises(ValueError, match="RADII_BUDGET"):
                check_smt(f, targets, 5, radii)
        with pytest.raises(ValueError, match="RADII_BUDGET"):
            check_smt(Z ** 200 + 1, range(1, 1700), 5, [0])

    def test_randomized(self):
        rng = random.Random(53)
        for _ in range(100):
            f = rand_ratfunc(rng, 4, nonzero=True)
            if f.is_constant:
                continue
            targets = []
            while len(targets) < 3:
                t = rand_fraction(rng, 5, 2)
                if t not in targets and not (f - t).is_zero:
                    targets.append(t)
            p = rng.choice((2, 3, 5))
            grid = sorted({rand_fraction(rng, 4, 2) for _ in range(4)})
            report = check_smt(f, targets, p, grid or [0])
            assert report.passed


# The first implementation's formulas, evaluated afresh at every radius:
# f - a rebuilt as a RatFunc, the Gauss norm as a max over all
# coefficients, N from a newly built Newton polygon, and the eventual
# bound inferred by sampling the log-norms at bound+1 and bound+2.

def _oracle_norm(h, p, rho):
    return max(-valuation(c, p) + k * rho for k, c in enumerate(h.coeffs) if c != 0)


def _oracle_log(g, p, rho):
    return _oracle_norm(g.num, p, rho) - _oracle_norm(g.den, p, rho)


def _oracle_N(f, a, p, rho):
    h = f.den if a is INF else (f - a).num
    total = h.ord0 * rho
    for s in newton_polygon(h, p).segments:
        if rho + s.slope > 0:
            total += s.length * (rho + s.slope)
    return total


def _oracle_m(f, a, p, rho):
    value = _oracle_log(f, p, rho) if a is INF else -_oracle_log(f - a, p, rho)
    return max(value, Fraction(0))


def _oracle_bound(p, polys, log_funcs):
    bound = Fraction(0)
    for h in polys:
        for s in newton_polygon(h, p).segments:
            bound = max(bound, -s.slope)
    for fun in log_funcs:
        v1, v2 = fun(bound + 1), fun(bound + 2)
        if v2 != v1:
            bound = max(bound, bound + 1 - v1 / (v2 - v1))
    return bound


class TestAgainstPerRadiusOracle:
    def test_randomized(self):
        rng = random.Random(89)
        cases = 0
        while cases < 200:
            f = rand_ratfunc(rng, 4, nonzero=True)
            if f.is_constant:
                continue
            cases += 1
            p = rng.choice((2, 3, 5, 7))
            grid = sorted({rand_fraction(rng, 6, 3) for _ in range(rng.randint(2, 6))})
            if len(grid) < 2:
                grid = [Fraction(-1), Fraction(2)]

            constants = {_oracle_log(f, p, r) - _oracle_N(f, 0, p, r)
                         + _oracle_N(f, INF, p, r) for r in grid}
            assert {check_pjf(f, p, grid)} == constants

            a = rand_fraction(rng, 6, 3)

            def defect(r):
                return (_oracle_m(f, a, p, r) + _oracle_N(f, a, p, r)
                        - _oracle_m(f, INF, p, r) - _oracle_N(f, INF, p, r))

            bound = _oracle_bound(p, [f.num, f.den, (f - a).num],
                                  [lambda r: _oracle_log(f, p, r),
                                   lambda r: _oracle_log(f - a, p, r)])
            report = check_fmt(f, a, p, grid)
            assert report.values == tuple(defect(r) for r in grid)
            assert report.stable_beyond == bound
            assert report.eventual_value == defect(bound + 1)
            assert report.eventual_slope == defect(bound + 2) - defect(bound + 1)

            targets = list({rand_fraction(rng, 5, 2) for _ in range(rng.randint(1, 3))})

            def value(r):
                return (sum(_oracle_m(f, t, p, r) for t in targets)
                        - _oracle_N(f, INF, p, r))

            bound = _oracle_bound(p, [f.den] + [(f - t).num for t in targets],
                                  [(lambda r, t=t: _oracle_log(f - t, p, r))
                                   for t in targets])
            report = check_smt(f, targets, p, grid)
            assert report.values == tuple(value(r) for r in grid)
            assert report.sup == max(value(r) for r in grid)
            assert report.stable_beyond == bound
            assert report.eventual_slope == value(bound + 2) - value(bound + 1)


class TestDeltaIdentity:
    def test_explicit_expansion(self):
        # f = z, u = z^2, a = 1: both sides are 16z^6 - 12z^4 - 16z^3
        f, u = Z, Z * Z
        g = (1 + f) ** 2 - u ** 2
        delta = g.derivative() ** 2 - 4 * f.derivative() ** 2 * g
        assert delta == RatFunc(UPoly((0, 0, 0, -16, -12, 0, 16)))
        assert delta_identity(f, u, 1)

    def test_degenerate_u(self):
        f = Z
        g = (1 + f) ** 2
        assert (g.derivative() ** 2 - 4 * f.derivative() ** 2 * g).is_zero
        assert delta_identity(f, RatFunc.constant(0), 1)

    def test_randomized(self):
        rng = random.Random(61)
        for _ in range(200):
            f = rand_ratfunc(rng, 4)
            u = rand_ratfunc(rng, 4)
            a = rand_fraction(rng, 6, 3)
            assert delta_identity(f, u, a)

    def test_gcds_only_for_the_inputs(self, monkeypatch):
        calls = count_gcd_calls(monkeypatch)
        rng = random.Random(63)
        for _ in range(20):
            common = rand_upoly(rng, 2, nonzero=True)
            f = RatFunc(common * rand_upoly(rng, 3, nonzero=True),
                        common * rand_upoly(rng, 3, nonzero=True))
            u = RatFunc(common * rand_upoly(rng, 3, nonzero=True),
                        common * rand_upoly(rng, 3, nonzero=True))
            del calls[:]
            assert delta_identity(f, u, rand_fraction(rng, 6, 3))
            assert len(calls) == 2  # one canonical form per input
            assert delta_identity(f, u, 1) and len(calls) == 2


class TestDifferenceIdentity:
    def test_explicit(self):
        f, g = Z, Z ** 3
        hi = (1 + f) ** 2 - g
        hj = (2 + f) ** 2 - g
        assert hi - hj == RatFunc(UPoly((-3, -2)))
        assert difference_identity(f, 1, 2, hi, hj)

    def test_equal_nodes(self):
        f, g = Z, Z * Z
        h = (3 + f) ** 2 - g
        assert difference_identity(f, 3, 3, h, h)

    def test_randomized(self):
        rng = random.Random(67)
        for _ in range(100):
            f = rand_ratfunc(rng, 4)
            g = rand_ratfunc(rng, 4)
            ai = rand_fraction(rng, 8, 3)
            aj = rand_fraction(rng, 8, 3)
            hi = (ai + f) ** 2 - g
            hj = (aj + f) ** 2 - g
            assert difference_identity(f, ai, aj, hi, hj)
            # any nonzero change to one square breaks the relation
            eps = rand_ratfunc(rng, 2, nonzero=True)
            assert not difference_identity(f, ai, aj, hi + eps, hj)
            if not hj.is_zero:
                assert not difference_identity(f, ai, aj, hi, hj * (1 + Z))


class TestContexts:
    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            gauss_log_norm(UPoly.x(), 6, 0)
        with pytest.raises(ValueError):
            gauss_log_norm(UPoly.x(), 9, 0)

    def test_log_radius_rejects_floats(self):
        with pytest.raises(TypeError):
            gauss_log_norm(UPoly.x(), 2, 0.5)
