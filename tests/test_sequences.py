import math
import random

import pytest

from buchi.sequences import (SEARCH_BOUND_BUDGET, BuchiSequence, _roots_of_unity,
                             _smallest_prime_factors, classify_trivial, closed_form,
                             is_buchi, search, second_difference)
from helpers import factor_pair_search


def pair_search(length, bound):
    """The pair loop search ran before the factor-pair enumeration, kept
    as its oracle: every (x_1, x_2) of opposite parity in [0, bound]**2,
    extended by the closed form and tested against a set of squares."""
    dbl_squares = [2 * x * x for x in range(bound + 1)]
    # Largest forced square over every admissible pair and index.
    max_sq = max(closed_form(0, bound * bound, n) for n in range(3, length + 1))
    max_sq = max(max_sq, bound * bound)
    square_set = {y * y for y in range(math.isqrt(max_sq) + 1)}

    found = []
    for x1 in range(bound + 1):
        s1 = x1 * x1
        c = 2 - s1
        # s_3 = 2 - s_1 + 2*s_2 is 2 or 3 mod 4 unless x_1, x_2 have
        # opposite parity, and no square is 2 or 3 mod 4.
        start = 1 if x1 % 2 == 0 else 0
        for x2 in range(start, bound + 1, 2):
            s2 = dbl_squares[x2] >> 1
            s3 = c + dbl_squares[x2]
            if s3 not in square_set:
                continue
            squares = [s1, s2, s3]
            ok = True
            for n in range(4, length + 1):
                sn = closed_form(s1, s2, n)
                if sn < 0 or sn not in square_set:
                    ok = False
                    break
                squares.append(sn)
            if not ok:
                continue
            seq = BuchiSequence(tuple(math.isqrt(s) for s in squares[:length]))
            if classify_trivial(seq) is None:
                found.append(seq)
    return found


class TestSecondDifference:
    def test_consecutive_squares(self):
        assert second_difference((1, 4, 9, 16)) == (2, 2)

    def test_nonconsecutive_example(self):
        assert second_difference((36, 529, 1024, 1521)) == (2, 2)

    def test_zeros(self):
        assert second_difference((0, 0, 0)) == (0,)

    def test_too_short(self):
        with pytest.raises(ValueError):
            second_difference((1, 4))


class TestIsBuchi:
    def test_examples(self):
        assert is_buchi((6, 23, 32, 39))
        assert is_buchi((2, 1, 0, 1, 2))
        assert not is_buchi((1, 2, 4))  # 16 - 8 + 1 = 9 != 2

    def test_signs_do_not_matter(self):
        assert is_buchi((-6, 23, -32, 39))

    def test_too_short(self):
        with pytest.raises(ValueError):
            is_buchi((1, 2))


class TestClassifyTrivial:
    def test_consecutive(self):
        w = classify_trivial(BuchiSequence((1, 2, 3, 4)))
        assert w is not None and w.nu == 0

    def test_nontrivial_example(self):
        assert classify_trivial(BuchiSequence((6, 23, 32, 39))) is None

    def test_negative_shift(self):
        w = classify_trivial(BuchiSequence((2, 1, 0, 1, 2)))
        assert w is not None and w.nu == -3

    def test_trivial_family_roundtrip(self):
        for nu in range(-20, 21):
            for m in range(3, 11):
                seq = BuchiSequence.trivial(nu, m)
                assert is_buchi(seq.values)
                w = classify_trivial(seq)
                assert w is not None
                for i, v in enumerate(seq.values, start=1):
                    assert v * v == (w.nu + i) ** 2
                    assert w.signs[i - 1] * (w.nu + i) == v


class TestClosedForm:
    def test_sequence_values(self):
        assert closed_form(36, 529, 3) == 1024
        assert closed_form(36, 529, 4) == 1521

    def test_zero_start(self):
        for n in range(1, 12):
            assert closed_form(0, 0, n) == (n - 1) * (n - 2)

    def test_second_difference_identity(self):
        rng = random.Random(17)
        for _ in range(1000):
            s1 = rng.randint(0, 10 ** 6)
            s2 = rng.randint(0, 10 ** 6)
            forced = [closed_form(s1, s2, n) for n in range(1, 9)]
            assert forced[0] == s1 and forced[1] == s2
            assert second_difference(forced) == (2,) * 6


class TestSearch:
    def test_contains_classical_example(self):
        results = search(4, 100)
        assert (6, 23, 32, 39) in [seq.values for seq in results]

    def test_length5_bound1000_empty(self):
        assert search(5, 1000) == []

    def test_short_sequences(self):
        # Oracle: enumerate pairs (x1, x2) raw and force the third square.
        def brute(bound):
            out = set()
            for a in range(bound + 1):
                for b in range(bound + 1):
                    c_sq = 2 - a * a + 2 * b * b
                    if c_sq < 0:
                        continue
                    c = math.isqrt(c_sq)
                    if c * c != c_sq:
                        continue
                    seq = BuchiSequence((a, b, c))
                    if classify_trivial(seq) is None:
                        out.add(seq.values)
            return sorted(out)

        assert [s.values for s in search(3, 5)] == brute(5) == []
        assert [s.values for s in search(3, 7)] == brute(7) == [(0, 7, 10)]

    def test_results_are_nontrivial_buchi_and_sorted(self):
        results = search(4, 120)
        tuples = [seq.values for seq in results]
        assert tuples == sorted(tuples)
        rng = random.Random(3)
        for seq in results:
            assert is_buchi(seq.values)
            assert classify_trivial(seq) is None
            # canonicalization: random sign flips verify from raw squares
            flipped = tuple(v * rng.choice((1, -1)) for v in seq.values)
            assert is_buchi(flipped)
            assert BuchiSequence(flipped) == seq != seq.values
            assert hash(BuchiSequence(flipped)) == hash(seq)
        with pytest.raises(AttributeError):
            seq.values = (0, 7, 10)

    def test_against_unfiltered_brute_force(self):
        # independent oracle with no residue filtering and no squares set:
        # validates the mod-4 parity pruning inside the fast path
        def brute(length, bound):
            out = []
            for x1 in range(bound + 1):
                for x2 in range(bound + 1):
                    squares = [x1 * x1, x2 * x2]
                    ok = True
                    for n in range(3, length + 1):
                        s = closed_form(squares[0], squares[1], n)
                        r = math.isqrt(s) if s >= 0 else -1
                        if r < 0 or r * r != s:
                            ok = False
                            break
                        squares.append(s)
                    if not ok:
                        continue
                    seq = BuchiSequence([math.isqrt(s) for s in squares])
                    if classify_trivial(seq) is None:
                        out.append(seq.values)
            return sorted(out)

        for length, bound in ((3, 30), (4, 150), (5, 60)):
            assert [s.values for s in search(length, bound)] == brute(length, bound)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            search(2, 10)
        with pytest.raises(ValueError):
            search(4, 0)

    def test_matches_pair_loop(self):
        rng = random.Random(2024)
        for length in range(3, 7):
            bounds = [1, 2, 3, 7, 400] + [rng.randint(4, 400) for _ in range(4)]
            for bound in bounds:
                assert search(length, bound) == pair_search(length, bound), \
                    (length, bound)
        assert len(search(3, 300)) == 581

    def test_matches_factor_pair_loop_at_every_small_bound(self):
        for length in range(3, 7):
            for bound in range(1, 301):
                assert search(length, bound) == factor_pair_search(length, bound), \
                    (length, bound)

    def test_matches_factor_pair_loop_at_large_bounds(self):
        rng = random.Random(14)
        for _ in range(12):
            length, bound = rng.randint(3, 6), rng.randint(300, 5000)
            assert search(length, bound) == factor_pair_search(length, bound), \
                (length, bound)
        assert search(5, 20000) == factor_pair_search(5, 20000) == []

    def test_trivial_exactly_when_first_two_differ_by_one(self):
        # every length-3 solution with x_1, x_2 <= 300, trivial ones included
        checked = 0
        for x1 in range(301):
            for x2 in range(301):
                s3 = 2 - x1 * x1 + 2 * x2 * x2
                x3 = math.isqrt(s3) if s3 >= 0 else -1
                if x3 * x3 != s3:
                    continue
                seq = BuchiSequence((x1, x2, x3))
                assert (classify_trivial(seq) is not None) == (abs(x1 - x2) == 1)
                checked += 1
        assert checked > 581

    def test_bound_budget(self):
        with pytest.raises(ValueError, match="resource guard"):
            search(3, SEARCH_BOUND_BUDGET + 1)


class TestKernelHelpers:
    def test_roots_of_unity_match_brute_force(self):
        # r*r = 1 (mod m) read as m | r*r - 1, so that mod 1 the root is 0
        spf = _smallest_prime_factors(3000)
        for m in range(1, 3001):
            assert sorted(_roots_of_unity(m, spf)) == \
                [r for r in range(m) if (r * r - 1) % m == 0], m

    def test_roots_of_unity_at_powers_of_two(self):
        spf = _smallest_prime_factors(3000)
        assert _roots_of_unity(1, spf) == [0]
        assert _roots_of_unity(2, spf) == [1]
        assert sorted(_roots_of_unity(4, spf)) == [1, 3]
        assert sorted(_roots_of_unity(8, spf)) == [1, 3, 5, 7]
        # 2**k * odd: four roots mod 8 times four mod 15
        assert sorted(_roots_of_unity(8 * 15, spf)) == \
            [1, 11, 19, 29, 31, 41, 49, 59, 61, 71, 79, 89, 91, 101, 109, 119]

    def test_certified_checks_every_second_difference(self):
        seq = BuchiSequence._certified((6, 23, 32, 39))
        assert seq == BuchiSequence((6, 23, 32, 39))
        for values in ([1, 2, 4], (6, 23, 32, 40), [6, 23, 32, 39, 45]):
            with pytest.raises(ValueError, match="not a Buchi sequence"):
                BuchiSequence._certified(values)
