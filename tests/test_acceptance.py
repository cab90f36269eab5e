"""Acceptance suite: one test per criterion, zero tolerance throughout
(everything here is exact arithmetic), with the stated runtime budgets.

Run with `pytest tests/test_acceptance.py -s` to see one line per
criterion.
"""

import json
import random
import time
from fractions import Fraction
from itertools import product

from buchi import sequences
from buchi.cli import main
from buchi.exact import valuation
from buchi.nevanlinna import (INF, check_fmt, check_ldl, check_pjf, check_smt,
                              count_zeros, delta_identity,
                              difference_identity, gauss_log_norm, height_N,
                              newton_polygon)
from buchi.reduction import (compile_system, parse, translate_witness,
                             validate_target)
from buchi.surfaces import (BuchiSurface, EvaluationNodes, MonicQuadratic,
                            ProjectivePoint, conic_integrality_identity,
                            contains, counterexample_family, f_of_point,
                            j_of_f, jacobian_rank, square_iff_trivial)
from buchi.symbolic import RatFunc, UPoly
from helpers import rand_fraction, rand_ratfunc, scalar_evaluate


def report(n: int, message: str, started: float) -> None:
    print(f"ACCEPTANCE {n:2d} PASS: {message} ({time.monotonic() - started:.2f}s)")


def test_criterion_01_search_length4(capsys):
    t0 = time.monotonic()
    assert main(["seq", "search", "--length", "4", "--bound", "100", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [6, 23, 32, 39] in payload["nontrivial"]
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, "length-4 search up to 100 finds (6,23,32,39)", t0)


def test_criterion_02_search_length5_bound_10000(capsys):
    t0 = time.monotonic()
    assert main(["seq", "search", "--length", "5", "--bound", "10000",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nontrivial"] == []
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    with capsys.disabled():
        report(2, "length-5 search up to 10000 finds nothing nontrivial", t0)


def test_criterion_03_counterexample_family(capsys):
    t0 = time.monotonic()
    for n in range(1, 7):
        f, nodes, roots = counterexample_family(n)
        assert len(nodes) == n
        assert all(a > b for a, b in zip(nodes, nodes[1:]))
        for a, r in zip(nodes, roots):
            assert f(a) == r * r
    assert time.monotonic() - t0 < 1.0
    with capsys.disabled():
        report(3, "factorial family: square values and decreasing nodes, N=1..6", t0)


def test_criterion_04_correspondence_roundtrip_1000(capsys):
    t0 = time.monotonic()
    rng = random.Random(404)
    cases = 0

    def check(nodes, f):
        nonlocal cases
        point = j_of_f(nodes, f)
        assert contains(nodes.surface(), point)
        assert f_of_point(nodes, point) == f
        left, right = square_iff_trivial(nodes, f)
        assert left == right
        cases += 1

    for _ in range(700):
        while True:
            a1 = rand_fraction(rng, 12, 4)
            a2 = rand_fraction(rng, 12, 4)
            if a1 != a2:
                break
        nodes = EvaluationNodes((a1, a2))
        b1 = rand_fraction(rng, 10, 4)
        b2 = rand_fraction(rng, 10, 4)
        check(nodes, f_of_point(nodes, ProjectivePoint((1, b1, b2))))

    for _ in range(200):
        n = rng.randint(3, 8)
        while True:
            ns = [rand_fraction(rng, 12, 4) for _ in range(n)]
            if len(set(ns)) == n:
                break
        c = rand_fraction(rng, 10, 4)
        check(EvaluationNodes(ns), MonicQuadratic(2 * c, c * c))

    for i in range(100):
        f, family_nodes, roots = counterexample_family(3 + i % 4)
        nodes = EvaluationNodes(family_nodes)
        point = j_of_f(nodes, f)
        signs = [1] + [rng.choice((1, -1)) for _ in range(len(family_nodes))]
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        flipped = ProjectivePoint([scale * s * c for s, c in
                                   zip(signs, point.coords)])
        assert contains(nodes.surface(), flipped)
        assert f_of_point(nodes, flipped) == f
        assert square_iff_trivial(nodes, f) == (False, False)
        cases += 1

    assert cases == 1000
    with capsys.disabled():
        report(4, "1000 correspondence round trips, zero failures", t0)


def test_criterion_05_smoothness_200_points(capsys):
    t0 = time.monotonic()
    rng = random.Random(505)
    checked = 0
    while checked < 200:
        n = 3 + checked % 6  # n in 3..8
        deltas = []
        while len(deltas) < n - 1:
            d = rng.randint(-12, 12)
            if d != 0 and d not in deltas:
                deltas.append(d)
        s = BuchiSurface(deltas)
        if checked % 5 == 4:
            signs = [rng.choice((1, -1)) for _ in range(n)]
            point = ProjectivePoint([0, signs[0]] + signs[1:])
        else:
            nu = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
            signs = [rng.choice((1, -1)) for _ in range(n)]
            coords = [Fraction(1), signs[0] * nu]
            coords += [signs[i] * (nu + d) for i, d in enumerate(deltas, start=1)]
            scale = Fraction(rng.randint(1, 7), rng.randint(1, 4))
            point = ProjectivePoint([scale * c for c in coords])
        assert jacobian_rank(s, point) == n - 2
        checked += 1
    with capsys.disabled():
        report(5, "Jacobian rank n-2 at 200 rational points, n in 3..8", t0)


def test_criterion_06_conic_integrality(capsys):
    t0 = time.monotonic()
    assert conic_integrality_identity()
    with capsys.disabled():
        report(6, "conic pullback identity and trivial-line vanishing, exact", t0)


def _breakpoint_grid(f: RatFunc, p: int) -> list[Fraction]:
    bps = set()
    for poly in (f.num, f.den):
        if poly.degree >= 1:
            for seg in newton_polygon(poly, p).segments:
                bps.add(-seg.slope)
    if not bps:
        bps = {Fraction(0)}
    lo, hi = min(bps), max(bps)
    grid = set(bps) | {lo - 1, hi + 1, (lo + hi) / 2}
    extra = lo
    while len(grid) < 6:
        extra -= 1
        grid.add(extra)
    return sorted(grid)


def test_criterion_07_pjf_50_random(capsys):
    t0 = time.monotonic()
    rng = random.Random(707)
    done = 0
    while done < 50:
        f = rand_ratfunc(rng, 5, nonzero=True)
        p = (2, 3, 5, 7)[done % 4]
        grid = _breakpoint_grid(f, p)
        assert len(grid) >= 6
        c = check_pjf(f, p, grid)
        expected = (-valuation(f.num.coeffs[f.num.ord0], p)
                    + valuation(f.den.coeffs[f.den.ord0], p))
        assert c == expected
        done += 1
    with capsys.disabled():
        report(7, "PJF constant on 50 random functions x {2,3,5,7}, exact", t0)


def test_criterion_08_ldl_500_random(capsys):
    t0 = time.monotonic()
    rng = random.Random(808)
    for _ in range(500):
        f = rand_ratfunc(rng, 6, nonzero=True)
        n = rng.randint(1, 3)
        p = rng.choice((2, 3, 5, 7))
        rho = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert check_ldl(f, n, p, rho)
    with capsys.disabled():
        report(8, "derivative-quotient bound on 500 random samples, exact", t0)


def test_criterion_09_newton_oracle_100(capsys):
    t0 = time.monotonic()
    rng = random.Random(909)
    for _ in range(100):
        p = rng.choice((2, 3, 5, 7))
        roots = [rand_fraction(rng, 9, 4) for _ in range(rng.randint(1, 7))]
        h = UPoly.from_roots(roots, lead=rand_fraction(rng, 5, 3, nonzero=True))
        finite = [valuation(r, p) for r in roots if r != 0]
        points = sorted({Fraction(-v) for v in finite}) or [Fraction(0)]
        grid = set(points) | {points[0] - 1, points[-1] + 1}
        for a, b in zip(points, points[1:]):
            grid.add((a + b) / 2)
        for rho in sorted(grid):
            direct = sum(1 for r in roots if r == 0 or valuation(r, p) >= -rho)
            assert count_zeros(h, p, rho) == direct
    with capsys.disabled():
        report(9, "zero counting matches direct root counting, 100 polynomials", t0)


def test_criterion_10_delta_and_difference_200(capsys):
    t0 = time.monotonic()
    rng = random.Random(1010)
    for _ in range(200):
        f = rand_ratfunc(rng, 4)
        u = rand_ratfunc(rng, 4)
        a = rand_fraction(rng, 6, 3)
        assert delta_identity(f, u, a)
    for _ in range(200):
        f = rand_ratfunc(rng, 4)
        g = rand_ratfunc(rng, 4)
        ai = rand_fraction(rng, 8, 3)
        aj = rand_fraction(rng, 8, 3)
        assert difference_identity(f, ai, aj, (ai + f) ** 2 - g,
                                   (aj + f) ** 2 - g)
    with capsys.disabled():
        report(10, "discriminant and difference identities, 200 cases each", t0)


def _random_system_text(rng) -> str:
    names = ["x", "y", "z"][:rng.randint(1, 3)]
    eqs = []
    for _ in range(rng.randint(1, 3)):
        terms = []
        for _ in range(rng.randint(1, 4)):
            coeff = rng.randint(-6, 6)
            degree = rng.randint(0, 2)
            mono = "*".join(rng.choice(names) for _ in range(degree))
            terms.append(f"{coeff}*{mono}" if mono else str(coeff))
        eqs.append(" + ".join(terms) + f" = {rng.randint(-9, 9)}")
    return "; ".join(eqs)


def test_criterion_11_compiler(capsys):
    t0 = time.monotonic()
    rng = random.Random(1111)
    lifted_total = 0
    for _ in range(100):
        system = parse(_random_system_text(rng))
        target = compile_system(system, m=5)
        validate_target(target)
        k = len(system.variables)
        for combo in product(range(-10, 11), repeat=k):
            env = dict(zip(system.variables, combo))
            if all(scalar_evaluate(eq.expr, env) == 0 for eq in system.equations):
                translate_witness(system, target, env)
                lifted_total += 1
    assert lifted_total > 0

    # gadget backward check at M=5 within |w_i| <= 40, cross-consistent
    # with criterion 2 (both searches exhaust all pairs below their bound)
    assert sequences.search(5, 40) == []
    for nu in range(-46, 46):
        us = [(nu + i) ** 2 for i in range(1, 6)]
        t = (us[1] - us[0] - 1) // 2
        assert us[0] == t * t

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    with capsys.disabled():
        report(11, f"compiler: 100 systems validated, {lifted_total} witnesses "
                   "lifted exactly, gadget collapse certified", t0)


def test_criterion_12_analytic_primitive_coverage(capsys):
    # The function-scale classification results are statements about all
    # meromorphic functions and cannot be reproduced by finite
    # computation; their computable content is exactly the primitives
    # exercised by criteria 7-10, checked here once more end to end.
    t0 = time.monotonic()
    z = RatFunc.x()
    f = (z - 1) / (z * z)
    assert check_pjf(f, 2, (-3, -1, 0, 2, 4)) == check_pjf(f, 2, (0, 1))
    assert check_ldl(f, 2, 3, Fraction(1, 2))
    assert check_fmt(f, 5, 2, range(-3, 4)).passed
    assert check_smt(f, (1, 2, 3), 5, range(-3, 4)).passed
    assert delta_identity(f, z, 3)
    assert difference_identity(f, 1, 4, (1 + f) ** 2 - z, (4 + f) ** 2 - z)
    # the norm identity specialized at rho = 0
    c = check_pjf(f, 2, (0, 1))
    assert gauss_log_norm(f, 2, 0) == \
        height_N(f, 0, 2, 0) - height_N(f, INF, 2, 0) + c
    with capsys.disabled():
        report(12, "analytic primitives behind the classification theorems "
                   "all covered by exact suites", t0)
