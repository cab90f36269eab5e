import random
import time
from fractions import Fraction
from math import factorial

import pytest

from buchi.exact import is_square_int, is_square_rat
from buchi import surfaces
from buchi.surfaces import (FAMILY_N_BUDGET, SCAN_GRID_BUDGET, SCAN_HEIGHT_BUDGET, SIEVE_PRIMES,
                            BuchiSurface, EvaluationNodes, MonicQuadratic, ProjectivePoint,
                            _rank, _reduced_values, conic_integrality_identity, contains,
                            counterexample_family, f_of_point, j_of_f, jacobian_rank,
                            scan_exceptional, square_iff_trivial, surface_equations,
                            trivial_line_member)
from helpers import rand_fraction, scan_integer_nodes


def grid_scan(nodes, height, integers_only=False):
    """The grid loops scan_exceptional ran before it enumerated squares,
    kept as its oracle: every (u, v) pair, tested with is_square_int on
    integer nodes and with Fraction arithmetic otherwise."""
    found = []
    node_list = nodes.nodes
    if integers_only and all(a.denominator == 1 for a in node_list):
        ints = [a.numerator for a in node_list]
        rng = range(-height, height + 1)
        for u in rng:
            bases = [a * a + u * a for a in ints]
            for v in rng:
                if u * u == 4 * v:
                    continue
                if all(is_square_int(b + v) for b in bases):
                    found.append(MonicQuadratic(u, v))
        return found
    values = ([Fraction(k) for k in range(-height, height + 1)] if integers_only
              else sorted({Fraction(p, q) for q in range(1, height + 1)
                           for p in range(-height, height + 1)}))
    for u in values:
        bases = [a * a + u * a for a in node_list]
        for v in values:
            if u * u == 4 * v:
                continue
            if all(is_square_rat(b + v) is not None for b in bases):
                found.append(MonicQuadratic(u, v))
    return found


def rand_nodes(rng, n, max_num=12):
    while True:
        ns = [rand_fraction(rng, max_num, 4) for _ in range(n)]
        if len(set(ns)) == n:
            return EvaluationNodes(ns)


class TestSurfaceEquations:
    def test_two_offsets(self):
        eqs = surface_equations(BuchiSurface((1, 2)))
        # x_3^2 = 2x_0^2 - x_1^2 + 2x_2^2
        assert eqs == [(2, -1, 2, -1)]

    def test_three_offsets(self):
        eqs = surface_equations(BuchiSurface((1, 2, 3)))
        assert len(eqs) == 2
        assert eqs[1] == (6, -2, 3, 0, -1)  # x_4^2 = 6x_0^2 - 2x_1^2 + 3x_2^2

    def test_single_offset_is_projective_plane(self):
        assert surface_equations(BuchiSurface((1,))) == []

    def test_invalid_offsets(self):
        with pytest.raises(ValueError):
            BuchiSurface((1, 0))
        with pytest.raises(ValueError):
            BuchiSurface((2, 2))


class TestContains:
    def test_examples(self):
        assert contains(BuchiSurface((1, 2)), ProjectivePoint((1, 1, 2, 3)))
        assert contains(BuchiSurface((1, 2, 3)),
                        ProjectivePoint((1, 6, 23, 32, 39)))
        assert not contains(BuchiSurface((1, 2)), ProjectivePoint((1, 0, 0, 1)))

    def test_scaling_invariance(self):
        s = BuchiSurface((1, 2))
        assert contains(s, ProjectivePoint((3, 3, 6, 9)))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            contains(BuchiSurface((1, 2)), ProjectivePoint((1, 1, 2)))

    def test_matches_dense_rows(self):
        # the dense rows of surface_equations, summed in full, are the oracle
        rng = random.Random(89)
        for _ in range(300):
            s = BuchiSurface(rand_distinct_nonzero(rng, rng.randint(1, 6)))
            nu = rand_fraction(rng)
            on_line = [1, nu] + [nu + d for d in s.deltas]
            for coords in (on_line, [rand_fraction(rng) for _ in range(s.n + 1)],
                           on_line[:-1] + [rand_fraction(rng)]):
                if not any(coords):
                    continue
                p = ProjectivePoint(coords)
                dense = all(sum(c * x * x for c, x in zip(eq, p.coords)) == 0
                            for eq in surface_equations(s))
                assert contains(s, p) == dense


class TestTrivialLines:
    def test_affine_member(self):
        w = trivial_line_member(BuchiSurface((1, 2)), ProjectivePoint((1, 1, 2, 3)))
        assert w is not None and w.nu == 1 and w.signs == (1, 1, 1)

    def test_classical_point_is_not_on_a_line(self):
        w = trivial_line_member(BuchiSurface((1, 2, 3)),
                                ProjectivePoint((1, 6, 23, 32, 39)))
        assert w is None

    def test_negative_parameter(self):
        w = trivial_line_member(BuchiSurface((1, 2)), ProjectivePoint((1, -1, 0, 1)))
        assert w is not None and w.nu == -1 and w.signs == (1, 1, 1)

    def test_point_at_infinity(self):
        s = BuchiSurface((1, 2))
        w = trivial_line_member(s, ProjectivePoint((0, 1, -1, 1)))
        assert w is not None and w.nu is None and w.signs == (1, -1, 1)

    def test_line_points_always_on_surface(self):
        rng = random.Random(41)
        for _ in range(100):
            n = rng.randint(2, 8)
            deltas = rand_distinct_nonzero(rng, n - 1)
            s = BuchiSurface(deltas)
            nu = rand_fraction(rng, 10, 3)
            signs = [rng.choice((1, -1)) for _ in range(n)]
            coords = [Fraction(1), signs[0] * nu]
            coords += [signs[i] * (nu + d) for i, d in enumerate(deltas, start=1)]
            p = ProjectivePoint(coords)
            assert contains(s, p)
            assert trivial_line_member(s, p) is not None


def rand_distinct_nonzero(rng, k):
    out = []
    while len(out) < k:
        d = rand_fraction(rng, 9, 3, nonzero=True)
        if d not in out:
            out.append(d)
    return tuple(out)


class TestJacobian:
    def test_rank_one_surface(self):
        assert jacobian_rank(BuchiSurface((1, 2)), ProjectivePoint((1, 1, 2, 3))) == 1

    def test_classical_point(self):
        assert jacobian_rank(BuchiSurface((1, 2, 3)),
                             ProjectivePoint((1, 6, 23, 32, 39))) == 2

    def test_rank_of_the_identity(self):
        assert _rank([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) == 2

    def test_no_equations_rank_zero(self):
        # one offset: X_2 is P^2, with no equations, so _rank sees no rows
        assert jacobian_rank(BuchiSurface([1]), ProjectivePoint([1, 2, 3])) == 0

    def test_rejects_points_off_surface(self):
        with pytest.raises(ValueError):
            jacobian_rank(BuchiSurface((1, 2)), ProjectivePoint((1, 0, 0, 1)))

    def test_full_rank_at_sampled_points(self):
        rng = random.Random(12)
        for _ in range(60):
            n = rng.randint(3, 8)
            deltas = rand_distinct_nonzero(rng, n - 1)
            s = BuchiSurface(deltas)
            nu = rand_fraction(rng, 8, 3)
            signs = [rng.choice((1, -1)) for _ in range(n)]
            coords = [Fraction(1), signs[0] * nu]
            coords += [signs[i] * (nu + d) for i, d in enumerate(deltas, start=1)]
            scale = rand_fraction(rng, 5, 3, nonzero=True)
            p = ProjectivePoint([scale * c for c in coords])
            assert jacobian_rank(s, p) == n - 2
            # the infinity point of the same sign pattern
            inf = ProjectivePoint([0, signs[0]] + signs[1:])
            assert jacobian_rank(s, inf) == n - 2


class TestCorrespondence:
    def test_classical_polynomial_maps_to_classical_point(self):
        nodes = EvaluationNodes((1, 2, 3, 4))
        f = MonicQuadratic(490, -455)
        assert j_of_f(nodes, f) == ProjectivePoint((1, 6, 23, 32, 39))

    def test_square_polynomial(self):
        nodes = EvaluationNodes((0, 1, 2))
        p = j_of_f(nodes, MonicQuadratic(6, 9))
        assert p == ProjectivePoint((1, 3, 4, 5))

    def test_non_square_value_rejected(self):
        nodes = EvaluationNodes((0, 1, 2))
        with pytest.raises(ValueError):
            j_of_f(nodes, MonicQuadratic(0, 1))  # f(1) = 2

    def test_f_of_point_examples(self):
        f = f_of_point(EvaluationNodes((1, 2, 3, 4)),
                       ProjectivePoint((1, 6, 23, 32, 39)))
        assert (f.u, f.v) == (490, -455)
        f = f_of_point(EvaluationNodes((0, 1)), ProjectivePoint((1, 3, 4)))
        assert (f.u, f.v) == (6, 9)
        f = f_of_point(EvaluationNodes((0, 1)), ProjectivePoint((1, 0, 1)))
        assert (f.u, f.v) == (0, 0)

    def test_x0_zero_rejected(self):
        with pytest.raises(ValueError):
            f_of_point(EvaluationNodes((0, 1)), ProjectivePoint((0, 1, 1)))

    def test_square_iff_trivial_examples(self):
        nodes = EvaluationNodes((0, 1, 2))
        assert square_iff_trivial(nodes, MonicQuadratic(6, 9)) == (True, True)
        assert square_iff_trivial(nodes, MonicQuadratic(0, 0)) == (True, True)
        nodes4 = EvaluationNodes((1, 2, 3, 4))
        assert square_iff_trivial(nodes4, MonicQuadratic(490, -455)) == (False, False)

    def test_roundtrip_randomized(self):
        rng = random.Random(99)
        for _ in range(300):
            nodes = rand_nodes(rng, 2)
            b1 = rand_fraction(rng, 10, 4)
            b2 = rand_fraction(rng, 10, 4)
            f = f_of_point(nodes, ProjectivePoint((1, b1, b2)))
            point = j_of_f(nodes, f)
            assert f_of_point(nodes, point) == f
            assert contains(nodes.surface(), point)
            lhs, rhs = square_iff_trivial(nodes, f)
            assert lhs == rhs

    def test_roundtrip_square_family_many_nodes(self):
        rng = random.Random(100)
        for _ in range(100):
            n = rng.randint(3, 8)
            nodes = rand_nodes(rng, n)
            c = rand_fraction(rng, 10, 4)
            f = MonicQuadratic(2 * c, c * c)  # (x + c)^2
            point = j_of_f(nodes, f)
            assert contains(nodes.surface(), point)
            assert f_of_point(nodes, point) == f
            assert square_iff_trivial(nodes, f) == (True, True)


class TestScan:
    def test_small_height_is_empty(self):
        nodes = EvaluationNodes((1, 2, 3, 4))
        assert scan_exceptional(nodes, 10) == []

    def test_integer_scan_finds_classical_candidate(self):
        nodes = EvaluationNodes((1, 2, 3, 4))
        found = scan_exceptional(nodes, 500, integers_only=True)
        assert MonicQuadratic(490, -455) in found
        surface = nodes.surface()
        for f in found:
            assert not f.is_square
            point = j_of_f(nodes, f)  # every candidate has all-square values
            assert jacobian_rank(surface, point) == len(nodes) - 2

    def test_rational_scan_small(self):
        nodes = EvaluationNodes((0, 1, 2))
        assert scan_exceptional(nodes, 3) == []

    def test_both_scan_paths_match_direct_enumeration(self):
        # integer nodes take a fast path, rational nodes the generic one;
        # both must agree with a plain double loop
        def brute(nodes, height):
            out = []
            for u in range(-height, height + 1):
                for v in range(-height, height + 1):
                    f = MonicQuadratic(u, v)
                    if f.is_square:
                        continue
                    if all(is_square_rat(f(a)) is not None for a in nodes.nodes):
                        out.append(f)
            return out

        fast_nodes = EvaluationNodes((0, 1, 3))
        assert scan_exceptional(fast_nodes, 30, integers_only=True) == \
            brute(fast_nodes, 30)
        generic_nodes = EvaluationNodes((Fraction(1, 2), 1, 2))
        assert scan_exceptional(generic_nodes, 12, integers_only=True) == \
            brute(generic_nodes, 12)

    def test_integer_nodes_match_grid(self):
        rng = random.Random(73)
        cases = [((0, 1, 3), 60), ((1, 2, 3), 200), ((-3, -2, 5), 150),
                 ((-1000, 3, 7), 200), ((1, 2, 3, 4), 120), ((0, 5, 2000), 100)]
        # each has a candidate with v just below -height, which must stay out
        cases += [((-4, -6, 8), 20), ((-7, 7, -5), 20), ((8, 3, 5), 60),
                  ((4, 5, 2), 150)]
        for _ in range(12):
            ints = rng.sample(range(-8, 9), 3)
            if rng.random() < 0.2:
                ints[2] = rng.choice((-1, 1)) * rng.randint(100, 3000)
            cases.append((tuple(ints), rng.randint(60, 200)))
        hits = 0
        for ints, height in cases:
            nodes = EvaluationNodes(ints)
            found = scan_exceptional(nodes, height, integers_only=True)
            assert found == grid_scan(nodes, height, True), (ints, height)
            hits += len(found)
        assert hits >= 30

    def test_rational_grid_matches_fraction_grid(self):
        rng = random.Random(73)
        small = sorted({Fraction(p, q) for p in range(-4, 5) for q in (1, 2)})
        cases = [((Fraction(1, 2), 1, 3), 12), ((0, 1, 2), 8), ((-3, 6, -1, 3), 6)]
        cases += [(tuple(rng.sample(small, 3)), rng.randint(6, 10)) for _ in range(8)]
        hits = 0
        for ns, height in cases:
            nodes = EvaluationNodes(ns)
            found = scan_exceptional(nodes, height)
            assert found == grid_scan(nodes, height), (ns, height)
            height = 3 * height
            found_int = scan_exceptional(nodes, height, integers_only=True)
            assert found_int == grid_scan(nodes, height, True), (ns, height)
            hits += len(found) + len(found_int)
        assert hits >= 10

    def test_budgets(self):
        nodes = EvaluationNodes((1, 2, 3))
        with pytest.raises(ValueError, match="resource guard"):
            scan_exceptional(nodes, SCAN_HEIGHT_BUDGET + 1, integers_only=True)
        with pytest.raises(ValueError, match="resource guard"):
            scan_exceptional(nodes, 41)
        with pytest.raises(ValueError, match="resource guard"):
            scan_exceptional(EvaluationNodes((Fraction(1, 2), 1, 3)), 1000,
                             integers_only=True)
        # a pair counts 1 + S // 8 times, S the most bits of a node's
        # numerator and denominator: the 261,121 pairs of height 20 are
        # admitted for small nodes, and refused for a node of 132 bits
        scan_exceptional(EvaluationNodes((Fraction(1, 2), 1, 3)), 20)
        with pytest.raises(ValueError, match="SCAN_GRID_BUDGET"):
            scan_exceptional(EvaluationNodes((Fraction(1, 2 ** 130), 1, 3)), 20)

    def test_integer_grid_budget_edge(self):
        # (2**46 + 1)/2 weighs 1 + 49 // 8 = 7: at height 377 the 755**2 * 7
        # integer pairs are within the budget, where a quick count of
        # (2h + 2)**2 pairs would refuse them; height 378 is refused
        nodes = EvaluationNodes((Fraction(2 ** 46 + 1, 2), 1, 3))
        assert 755 ** 2 * 7 <= SCAN_GRID_BUDGET < 756 ** 2 * 7
        assert isinstance(scan_exceptional(nodes, 377, integers_only=True), list)
        with pytest.raises(ValueError, match=f"{757 ** 2 * 7} > SCAN_GRID_BUDGET"):
            scan_exceptional(nodes, 378, integers_only=True)

    def test_needs_three_nodes(self):
        with pytest.raises(ValueError):
            scan_exceptional(EvaluationNodes((0, 1)), 5)


def square_at(w, D, ks):
    """Nodes a = (k + D/k)/2 - w, one for each k: (a + w)**2 - D is then
    ((k - D/k)/2)**2, so x**2 + 2*w*x + w*w - D is square at each."""
    return EvaluationNodes([(k + D / k) / 2 - w for k in ks])


class TestSieve:
    # M is divisible by every sieve prime, so the nodes 0, M and 2M are
    # congruent modulo each: no residue rules a v out, and every row of
    # the mask survives
    CONGRUENT = (0, 111_546_435, 223_092_870)

    def test_reduced_values_match_fraction_set(self):
        for height in (1, 2, 3, 7, 13, 40):
            expected = sorted({Fraction(p, q) for q in range(1, height + 1)
                               for p in range(-height, height + 1)})
            assert [Fraction(p, q) for p, q in _reduced_values(height)] == expected

    def test_denominators_divisible_by_each_sieve_prime(self, monkeypatch):
        # every sieve prime l divides a node denominator and that of a
        # planted u = 2/l, with v = m/l or v an integer; the Fraction grid
        # (for l <= 7) and the kernel with no sieve prime are the oracles
        rng = random.Random(3)
        cases = []
        for l in SIEVE_PRIMES:
            # k = 1/l gives the node -v*l/2, a multiple of l, where f is
            # square though v is not a square mod l
            residues = {x * x % l for x in range(l)}
            for v in (Fraction(rng.choice([m for m in range(-l, l + 1) if m % l]), l),
                      Fraction(rng.choice([m for m in range(-l, l + 1) if m % l not in residues]))):
                w = Fraction(1, l)
                ks = [Fraction(1, l)] + rng.sample([Fraction(l), Fraction(2 * l), Fraction(l, 2),
                                                    Fraction(3), Fraction(-1), Fraction(2, 3)], 2)
                nodes = square_at(w, w * w - v, ks)
                assert any(a.denominator % l == 0 for a in nodes.nodes)
                found = scan_exceptional(nodes, l)
                assert MonicQuadratic(2 * w, v) in found, (l, v)
                if l <= 7:
                    assert found == grid_scan(nodes, l), (l, v)
                cases.append((nodes, l, found))
        monkeypatch.setattr(surfaces, "SIEVE_PRIMES", ())
        for nodes, height, found in cases:
            assert scan_exceptional(nodes, height) == found, height

    def test_square_window_without_the_sieve(self, monkeypatch):
        # with no sieve prime every mask is full, so each integer-node scan
        # walks its squares; the node sets with a candidate at v just
        # below -height and just above height pin both ends of the window
        monkeypatch.setattr(surfaces, "SIEVE_PRIMES", ())
        hits = 0
        cases = [((1, 2, 3, 4), 500), ((0, 1, 3), 60), ((-3, -2, 5), 150),
                 ((-4, -6, 8), 20), ((-7, 7, -5), 20), ((8, 3, 5), 60), ((4, 5, 2), 150),
                 ((-1000, 3, 7), 200)]
        for ints, height in cases:
            for h in (height - 1, height, height + 1):
                found = scan_exceptional(EvaluationNodes(ints), h, integers_only=True)
                assert found == scan_integer_nodes(list(ints), h), (ints, h)
                hits += len(found)
        assert hits >= 30

    def test_hits_at_both_ends_of_the_values(self):
        # v = -height is bit 0 of every mask and v = height its top bit
        cases = [((-4, -3, 5), 6, MonicQuadratic(Fraction(1, 4), -6)),
                 ((-4, -2, Fraction(-3, 2)), 9, MonicQuadratic(Fraction(-9, 2), -9)),
                 ((-4, -2, Fraction(-3, 2)), 7, MonicQuadratic(Fraction(7, 2), 7)),
                 ((-4, -2, Fraction(-4, 3)), 8, MonicQuadratic(6, 8))]
        for ns, height, f in cases:
            nodes = EvaluationNodes(ns)
            found = scan_exceptional(nodes, height)
            assert f in found, (ns, height)
            assert found == grid_scan(nodes, height), (ns, height)

    def test_integers_only_with_rational_nodes(self):
        rng = random.Random(29)
        hits = 0
        for _ in range(8):
            w, D = rng.randint(-3, 3), rng.choice([d for d in range(-9, 10) if d])
            dens = rng.sample((1, 2, 3, 4, 5, 6, 7, 9, 11, 13, 17, 19), 3)
            ks = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), q) for q in dens]
            if len({(k + D / k) for k in ks}) < 3:
                continue
            nodes = square_at(Fraction(w), Fraction(D), ks)
            height = rng.randint(20, 50)
            found = scan_exceptional(nodes, height, integers_only=True)
            assert MonicQuadratic(2 * w, w * w - D) in found
            assert found == grid_scan(nodes, height, True), (nodes, height)
            hits += len(found)
        assert hits >= 6

    def test_nodes_of_hundreds_of_bits(self):
        rng = random.Random(41)
        hits = 0
        for _ in range(3):
            w, D = rng.randint(-2, 2), rng.choice((-3, -2, -1, 1, 2, 3))
            ks = [Fraction(rng.getrandbits(300) | 1, rng.getrandbits(200) | 1) for _ in range(3)]
            nodes = square_at(Fraction(w), Fraction(D), ks)
            assert min(a.numerator.bit_length() for a in nodes.nodes) > 200
            found = scan_exceptional(nodes, 5)
            assert MonicQuadratic(2 * w, w * w - D) in found
            assert found == grid_scan(nodes, 5)
            found_int = scan_exceptional(nodes, 12, integers_only=True)
            assert found_int == grid_scan(nodes, 12, True)
            hits += len(found) + len(found_int)
        assert hits >= 3
        # integer nodes this large leave only square f below the height
        for ints in ((0, 1, 2 ** 300 + 7), (-(3 ** 200), 5, 2 ** 400)):
            nodes = EvaluationNodes(ints)
            assert scan_exceptional(nodes, 300, integers_only=True) == \
                scan_integer_nodes(list(ints), 300) == []

    def test_congruent_nodes_fast(self):
        # no non-square f of height <= 5000 is square at 0, M and 2M, so
        # this test pins time and agreement, not hits
        assert all(self.CONGRUENT[1] % l == 0 for l in SIEVE_PRIMES)
        nodes = EvaluationNodes(self.CONGRUENT)
        t0 = time.monotonic()
        found = scan_exceptional(nodes, SCAN_HEIGHT_BUDGET, integers_only=True)
        assert time.monotonic() - t0 < 1
        assert found == scan_integer_nodes(list(self.CONGRUENT), SCAN_HEIGHT_BUDGET) == []

    def test_integer_nodes_at_the_budget(self):
        hits = 0
        for ints in ((1, 2, 3, 4), (-1, 6, 0)):
            found = scan_exceptional(EvaluationNodes(ints), SCAN_HEIGHT_BUDGET,
                                     integers_only=True)
            assert found == scan_integer_nodes(list(ints), SCAN_HEIGHT_BUDGET), ints
            hits += len(found)
        assert hits >= 10


class TestCounterexampleFamily:
    def test_small_cases(self):
        f, nodes, roots = counterexample_family(2)
        assert (f.u, f.v) == (0, -96)
        assert nodes == [25, 14] and roots == [23, 10]
        f, nodes, roots = counterexample_family(1)
        assert (f.u, f.v) == (0, -8) and nodes == [3] and roots == [1]

    def test_n3_first_node(self):
        f, nodes, roots = counterexample_family(3)
        assert nodes[0] == 1 + 720
        assert f(nodes[0]) == 719 ** 2 == roots[0] ** 2

    def test_budget(self):
        assert len(counterexample_family(FAMILY_N_BUDGET)[1]) == FAMILY_N_BUDGET
        with pytest.raises(ValueError, match="resource guard"):
            counterexample_family(FAMILY_N_BUDGET + 1)

    def test_growing_families(self):
        for n in range(1, 7):
            f, nodes, roots = counterexample_family(n)
            assert len(nodes) == n
            assert all(nodes[i] > nodes[i + 1] for i in range(n - 1))
            for a, r in zip(nodes, roots):
                assert f(a) == r * r
            assert f.v == -4 * factorial(2 * n)
            assert not f.is_square


class TestConicIdentity:
    def test_symbolic(self):
        assert conic_integrality_identity()

    def test_numeric_spot_check(self):
        c, d2, x1, x2 = Fraction(3), Fraction(1), Fraction(2), Fraction(5)
        lhs = (c * c * x2 * x2
               + c * (c - d2) * (d2 * d2 - x1 * x1 - x2 * x2)
               + (c - d2) ** 2 * x1 * x1)
        rhs = d2 * (d2 * c * (c - d2) - (c - d2) * x1 * x1 + c * x2 * x2)
        assert lhs == rhs
