import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from buchi.symbolic import MPoly, RatFunc, UPoly
from helpers import rand_fraction, rand_ratfunc, rand_upoly

coeff_lists = st.lists(st.integers(-9, 9), max_size=4)
nonzero_coeff_lists = coeff_lists.filter(lambda cs: any(cs))


class TestUPoly:
    def test_trailing_zeros_trimmed(self):
        assert UPoly((1, 2, 0, 0)) == UPoly((1, 2))
        assert UPoly((0, 0)).is_zero
        assert UPoly((0, 0)).degree == -1

    def test_divmod_and_gcd(self):
        rng = random.Random(11)
        for _ in range(100):
            a = rand_upoly(rng, 5)
            b = rand_upoly(rng, 3, nonzero=True)
            q, r = divmod(a, b)
            assert a == q * b + r
            assert r.is_zero or r.degree < b.degree
            g = a.gcd(b)
            if not g.is_zero:
                assert g.lead == 1
                assert (a % g).is_zero and (b % g).is_zero

    def test_from_roots_and_eval(self):
        p = UPoly.from_roots([1, -2, Fraction(1, 2)])
        for r in (1, -2, Fraction(1, 2)):
            assert p(r) == 0
        assert p(0) == 1 * (-2) * Fraction(1, 2) * -1  # (-1)^3 * product

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            UPoly((0.5, 1))


class TestRatFunc:
    def test_sum_over_common_denominator(self):
        z = RatFunc.x()
        assert z + 1 / z == RatFunc(UPoly((1, 0, 1)), UPoly.x())

    def test_cancellation_on_construction(self):
        f = RatFunc(UPoly((-1, 0, 1)), UPoly((-1, 1)))  # (z^2-1)/(z-1)
        assert f == RatFunc(UPoly((1, 1)))

    def test_inverse_pair(self):
        z = RatFunc.x()
        assert ((z + 1) / z) * (z / (z + 1)) == 1

    def test_arith_dispatch(self):
        z = RatFunc.x()
        assert z + z == 2 * z
        assert (z - z).is_zero
        assert z * z == RatFunc(UPoly.monomial(2))
        assert z / z == 1
        with pytest.raises(ZeroDivisionError):
            z / RatFunc.constant(0)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(UPoly.x(), UPoly.zero())

    def test_canonical_form_unique(self):
        a = RatFunc(UPoly((0, 2)), UPoly((0, 0, 4)))   # 2z / 4z^2
        b = RatFunc(UPoly((1,)), UPoly((0, 2)))        # 1 / 2z
        assert a == b and hash(a) == hash(b)
        assert a.den.lead == 1
        assert a.num.gcd(a.den).degree <= 0

    def test_derivative_examples(self):
        z = RatFunc.x()
        assert (z * z).derivative() == 2 * z
        assert (1 / z).derivative(2) == RatFunc(UPoly((2,)), UPoly.monomial(3))
        # expand-then-differentiate oracle for (1+z)^2
        expanded = UPoly((1, 2, 1))
        oracle = RatFunc(UPoly(tuple(k * c for k, c in enumerate(expanded.coeffs))[1:]))
        assert ((1 + z) ** 2).derivative() == oracle == RatFunc(UPoly((2, 2)))

    def test_derivative_matches_quotient_rule_oracle(self):
        def oracle(f, n):
            # the quotient rule applied n times, canonical at every step
            for _ in range(n):
                f = RatFunc(f.num.derivative() * f.den - f.num * f.den.derivative(),
                            f.den * f.den)
            return f

        rng = random.Random(41)
        for _ in range(80):
            f = rand_ratfunc(rng, max_deg=4)
            n = rng.randint(1, 8)
            assert f.derivative(n) == oracle(f, n), (f, n)

    def test_product_rule_randomized(self):
        rng = random.Random(23)
        for _ in range(200):
            f = rand_ratfunc(rng, max_deg=6)
            g = rand_ratfunc(rng, max_deg=6)
            assert (f * g).derivative() == f.derivative() * g + f * g.derivative()

    @given(coeff_lists, nonzero_coeff_lists, coeff_lists,
           nonzero_coeff_lists, coeff_lists, nonzero_coeff_lists)
    def test_field_axioms(self, an, ad, bn, bd, cn, cd):
        a = RatFunc(UPoly(an), UPoly(ad))
        b = RatFunc(UPoly(bn), UPoly(bd))
        c = RatFunc(UPoly(cn), UPoly(cd))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a + (b + c) == (a + b) + c
        if not b.is_zero:
            assert (a / b) * b == a


class TestMPoly:
    def test_binomial_identity(self):
        x, y = MPoly.vars("x", "y")
        assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2

    def test_square_difference_factorization_mod_alpha(self):
        # (a+f)^2 - (alpha*f + b)^2 = (a - alpha*b)(a + alpha*b + 2f)
        # once alpha^2 = 1 is imposed.
        a, f, b, alpha = MPoly.vars("a", "f", "b", "alpha")
        lhs = (a + f) ** 2 - (alpha * f + b) ** 2
        rhs = (a - alpha * b) * (a + alpha * b + 2 * f)
        assert lhs != rhs  # distinct before the relation
        assert lhs.impose_square_one("alpha") == rhs.impose_square_one("alpha")

    def test_constant_mismatch(self):
        x, y = MPoly.vars("x", "y")
        assert x ** 2 + 1 != x ** 2

    def test_arity_mismatch(self):
        x, _ = MPoly.vars("x", "y")
        u = MPoly.var("u", ("u",))
        with pytest.raises(ValueError):
            x - u
        with pytest.raises(ValueError):
            x + u

    def test_ring_axioms_randomized(self):
        rng = random.Random(5)
        names = ("x", "y", "z")

        def rand_mpoly():
            terms = {}
            for _ in range(rng.randint(0, 6)):
                exps = tuple(rng.randint(0, 4) for _ in names)
                terms[exps] = rand_fraction(rng)
            return MPoly(names, terms)

        for _ in range(200):
            a, b, c = rand_mpoly(), rand_mpoly(), rand_mpoly()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a

    def test_substitute_and_eval(self):
        x, y = MPoly.vars("x", "y")
        p = x ** 2 + y
        assert p.substitute("x", y - 1) == y ** 2 - 2 * y + 1 + y
        assert p(x=3, y=Fraction(1, 2)) == 9 + Fraction(1, 2)
