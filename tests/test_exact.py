import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from buchi.exact import (INFINITY, as_fraction, is_prime, is_square_int,
                         is_square_rat, valuation)

isqrt = math.isqrt


class TestIsqrt:
    def test_zero(self):
        assert isqrt(0) == 0

    def test_large_square(self):
        assert isqrt(1521) == 39
        assert isqrt(10 ** 40) == 10 ** 20

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            isqrt(-1)

    @given(st.integers(min_value=0, max_value=10 ** 36))
    def test_floor_bracket(self, n):
        r = isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)


class TestIsSquare:
    def test_examples(self):
        assert is_square_int(529)
        assert not is_square_int(-4)
        assert not is_square_int(495)  # isqrt(495) = 22 and 22**2 = 484

    def test_random_large(self):
        rng = random.Random(7)
        for _ in range(200):
            m = rng.randint(2, 10 ** 30)
            assert is_square_int(m * m)
            assert not is_square_int(m * m + 1)

    def test_rational_examples(self):
        assert is_square_rat(Fraction(9, 4)) == Fraction(3, 2)
        assert is_square_rat(2) is None
        assert is_square_rat(Fraction(529, 1)) == 23
        assert is_square_rat(Fraction(-9, 4)) is None

    def test_rational_rejects_floats(self):
        with pytest.raises(TypeError):
            is_square_rat(2.25)


class TestValuation:
    def test_examples(self):
        assert valuation(24, 2) == 3
        assert valuation(0, 5) is INFINITY
        assert valuation(Fraction(9, 50), 5) == -2

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            valuation(10, 4)
        with pytest.raises(ValueError):
            valuation(10, 1)

    def test_infinity_semantics(self):
        assert INFINITY > 10 ** 100
        assert not (INFINITY < 10 ** 100)
        assert INFINITY + 5 is INFINITY
        assert 5 + INFINITY is INFINITY
        assert min(3, INFINITY) == 3
        assert INFINITY == INFINITY
        assert INFINITY >= INFINITY

    def test_addition_matches_products(self):
        assert valuation(24, 2) + valuation(0, 2) is valuation(24 * 0, 2)
        assert valuation(24, 2) + valuation(Fraction(5, 8), 2) == valuation(15, 2)

    @given(st.fractions(), st.fractions(), st.sampled_from([2, 3, 5, 7, 11]))
    def test_ultrametric(self, x, y, p):
        vx, vy, vxy = valuation(x, p), valuation(y, p), valuation(x + y, p)
        assert vxy >= min(vx, vy)
        if vx != vy:
            assert vxy == min(vx, vy)

    @given(st.fractions().filter(lambda q: q != 0),
           st.fractions().filter(lambda q: q != 0),
           st.sampled_from([2, 3, 5, 7, 11]))
    def test_multiplicative(self, x, y, p):
        assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)


class TestIsPrime:
    def test_small(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
        assert [n for n in range(2, 25) if is_prime(n)] == primes

    def test_carmichael_and_big(self):
        assert not is_prime(561)
        assert not is_prime(2 ** 32 + 1)
        assert is_prime(2 ** 61 - 1)

    def test_strong_pseudoprime_to_bases_up_to_37(self):
        n = 318665857834031151167461  # = 399165290221 * 798330580441
        assert 399165290221 * 798330580441 == n
        assert not is_prime(n)

    def test_refuses_beyond_proven_bound(self):
        assert not is_prime(3317044064679887385961980)
        with pytest.raises(ValueError):
            is_prime(3317044064679887385961981)
        with pytest.raises(ValueError):
            is_prime(2 ** 89 - 1)


class TestAsFraction:
    def test_accepted_forms(self):
        assert as_fraction(3) == 3
        assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
        assert as_fraction("-7") == -7
        assert as_fraction("6/4") == Fraction(3, 2)
        assert as_fraction("-1/3") == Fraction(-1, 3)

    def test_rejects_other_notations(self):
        for text in ("0.5", "1e3", "+2", " 1", "1/-2", "1_000", "", "1/"):
            with pytest.raises(ValueError):
                as_fraction(text)
        with pytest.raises(TypeError):
            as_fraction(0.5)
