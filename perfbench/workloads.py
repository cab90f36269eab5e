"""Seeded inputs of the benchmark.

Four command groups, each stressing other layers: seq-search,
surface-scan, padic-calc and compile-check.  A workload runs two groups,
so that each run is long enough to average over the machine's speed
changes: square-search is seq-search plus surface-scan, exact-algebra is
padic-calc plus compile-check.

`build(workload, seed, workdir)` returns the workload's round: a list of
distinct invocations, each with its group, its argv (what follows
`python -m buchi`), any input files it reads, and an oracle already
primed with its reference.  The same seed gives the same round.  Sizes
sit in narrow strata, so that every seed gives a round of about the same
cost and the command shapes of a group take about the same time per
invocation; the seed varies bounds within a stratum, nodes,
coefficients, primes and variable names.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable

import oracles

GROUPS = {"square-search": ("seq-search", "surface-scan"),
          "exact-algebra": ("padic-calc", "compile-check")}
WORKLOADS = tuple(GROUPS)

@dataclass
class Case:
    """One distinct invocation.  `check(stdout)` returns (None or what is
    wrong, number of target variables declared when the command compiles)."""

    argv: list[str]
    check: Callable[[str], "tuple[str | None, int]"]
    files: dict[str, str] = field(default_factory=dict)
    group: str = ""


def _plain(check) -> Callable[[str], "tuple[str | None, int]"]:
    return lambda text: (check(text), 0)


def _strata(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """One uniform draw from each of n equal slices of [lo, hi)."""
    width = (hi - lo) // n
    return [lo + i * width + rng.randrange(width) for i in range(n)]


# -- seq-search ------------------------------------------------------------

def _seq_search(rng: random.Random, workdir: str) -> list[Case]:
    bounds = {length: _strata(rng, 1500, 2100, 4) for length in (3, 4, 5)}
    triples = oracles.square_triples(max(max(b) for b in bounds.values()))
    cases = []
    for length, bs in bounds.items():
        for bound in bs:
            expected = oracles.count_sequences(triples, length, bound)
            cases.append(Case(
                ["seq", "search", "--json", "--length", str(length), "--bound", str(bound)],
                _plain(lambda text, length=length, bound=bound, expected=expected:
                       oracles.check_seq_search(text, length, bound, expected))))
    return cases


# -- surface-scan ----------------------------------------------------------

def _scan_case(nodes: list[Fraction], height: int, integers_only: bool) -> Case:
    expected = len(oracles.scan_reference(nodes, height, integers_only))
    argv = ["surface", "scan", "--json", "--nodes=" + ",".join(str(a) for a in nodes),
            "--height", str(height)]
    if integers_only:
        argv.append("--integers-only")
    return Case(argv, _plain(
        lambda text: oracles.check_surface_scan(text, nodes, height, integers_only, expected)))


def _surface_scan(rng: random.Random, workdir: str) -> list[Case]:
    small = sorted({Fraction(p, q) for p in range(-4, 7) for q in (1, 2, 3)})
    ints = [Fraction(a) for a in range(-5, 9)]
    cases = []
    for height, count in ((11, 4), (12, 3), (12, 4), (12, 3), (12, 4), (13, 3)):
        nodes = rng.sample(small, count)
        if all(a.denominator == 1 for a in nodes):
            nodes[-1] += Fraction(1, 2)
        cases.append(_scan_case(nodes, height, False))
    for height, count in zip(_strata(rng, 270, 366, 6), (3, 4, 3, 4, 3, 4)):
        cases.append(_scan_case(rng.sample(ints, count), height, True))
    return cases


# -- padic-calc ------------------------------------------------------------

def _poly(rng: random.Random, degree: int, p: int = 1) -> list[int]:
    """Integer coefficients a_0..a_degree, a_degree != 0; with p > 1 each
    coefficient carries a random power of p, so Newton polygons bend."""
    coeffs = [rng.randint(-9, 9) * p ** rng.randrange(3) for _ in range(degree)]
    coeffs.append(rng.choice((-1, 1)) * rng.randint(1, 9) * p ** rng.randrange(3))
    if not any(coeffs[:-1]):
        coeffs[0] = rng.randint(1, 9)
    return coeffs


def poly_text(coeffs: list[int], var: str = "z") -> str:
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mono = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else (mono or str(abs(c)))
        terms.append(("-" if c < 0 else "+") + body)
    text = "".join(reversed(terms))
    return text[1:] if text.startswith("+") else text


def _radii(rng: random.Random, count: int) -> list[Fraction]:
    den = rng.choice((3, 4, 5))
    start = -(count // 2) + rng.randrange(-3, 4)
    return [Fraction(k, den) for k in range(start, start + count)]


# (command, degree of the numerator, radii): sized so that each grid
# command takes about as long as one `delta` invocation.
GRID_SHAPES = (("fmt", 10, 320), ("smt", 8, 140), ("pjf", 14, 440),
               ("fmt", 10, 320), ("smt", 8, 140), ("pjf", 14, 440))


def _padic_calc(rng: random.Random, workdir: str) -> list[Case]:
    cases = []
    for _ in range(6):
        degree = 5
        argv = ["padic", "delta", "--json",
                "--f-num=" + poly_text(_poly(rng, degree)),
                "--f-den=" + poly_text(_poly(rng, degree - 1)),
                "--u-num=" + poly_text(_poly(rng, degree)),
                "--u-den=" + poly_text(_poly(rng, degree - 2)),
                "--a=" + str(rng.randint(-5, 5))]
        cases.append(Case(argv, _plain(oracles.check_padic_delta)))
    for command, degree, count in GRID_SHAPES:
        p = rng.choice((2, 3, 5, 7))
        num = _poly(rng, degree, p)
        den = _poly(rng, degree - 1, p)
        radii = _radii(rng, count)
        argv = ["padic", command, "--json", "--p", str(p), "--num=" + poly_text(num),
                "--den=" + poly_text(den), "--rhos=" + ",".join(str(r) for r in radii)]
        n = len(radii)
        if command == "fmt":
            argv.append(f"--a={rng.randint(-3, 3)}")
            check = _plain(lambda text, n=n: oracles.check_padic_fmt(text, n))
        elif command == "smt":
            targets = rng.sample(sorted({Fraction(a, b) for a in range(-4, 5)
                                         for b in (1, 2, 3)}), 6)
            argv.append("--targets=" + ",".join(str(t) for t in targets))
            check = _plain(lambda text, n=n: oracles.check_padic_smt(text, n))
        else:
            constant = oracles.pjf_constant([Fraction(c) for c in num],
                                            [Fraction(c) for c in den], p)
            check = _plain(lambda text, n=n, c=constant: oracles.check_padic_pjf(text, n, c))
        cases.append(Case(argv, check))
    return cases


# -- compile-check ---------------------------------------------------------

_NAMES = ["a", "b", "c", "d", "x", "y", "z", "w", "p", "q", "r", "s"]


def _compile_case(rng: random.Random, workdir: str, index: int, emit: str,
                  power: int) -> Case:
    names = rng.sample(_NAMES, 4)
    target, inner = names[0], names[1:]
    terms = [("-" if rng.random() < 0.5 else "+") + v for v in inner]
    body = "".join(terms).lstrip("+")
    text = f"{target} = ({body})^{power}\n"
    path = os.path.join(workdir, f"compile{index}.txt")
    source_vars = set(names)
    return Case(["compile", "--in", path, "--emit", emit],
                lambda out: oracles.check_compile(out, emit, source_vars),
                files={path: text})


def _random_system(rng: random.Random, names: list[str], box: int):
    """Two cubic equations with a planted solution inside the box, as
    (text, [dict of exponent tuple -> coefficient]).  Each equation has
    one linear, two quadratic and two cubic monomials, so every seed
    lowers to a target of about the same size."""
    planted = [rng.randint(-box, box) for _ in names]
    by_degree = {d: [e for e in product(range(3), repeat=len(names)) if sum(e) == d]
                 for d in (1, 2, 3)}
    polys = []
    for _ in range(2):
        monomials = [e for d, k in ((1, 1), (2, 2), (3, 2)) for e in rng.sample(by_degree[d], k)]
        poly = {e: rng.choice((-1, 1)) * rng.randint(1, 12) for e in monomials}
        value = sum(c * _monomial_value(e, planted) for e, c in poly.items())
        poly[(0,) * len(names)] = -value
        polys.append(poly)
    lines = []
    for poly in polys:
        terms = []
        for e, c in sorted(poly.items(), reverse=True):
            if c == 0:
                continue
            mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(names, e) if k)
            body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else (mono or str(abs(c)))
            terms.append(("-" if c < 0 else "+") + body)
        lines.append("".join(terms).lstrip("+") + " = 0;")
    return "\n".join(lines) + "\n", polys


def _monomial_value(exps, point) -> int:
    value = 1
    for x, k in zip(point, exps):
        value *= x ** k
    return value


def _check_case(rng: random.Random, workdir: str, index: int, box: int) -> Case:
    names = sorted(rng.sample(_NAMES, 3))
    text, polys = _random_system(rng, names, box)
    solutions = []
    for point in product(range(-box, box + 1), repeat=len(names)):
        if all(sum(c * _monomial_value(e, point) for e, c in poly.items()) == 0
               for poly in polys):
            solutions.append(dict(zip(names, point)))
    path = os.path.join(workdir, f"check{index}.txt")
    return Case(["check", "--in", path, "--box", str(box), "--json"],
                _plain(lambda out: oracles.check_equisat(out, box, len(names), solutions)),
                files={path: text})


def _compile_check(rng: random.Random, workdir: str) -> list[Case]:
    cases = [_compile_case(rng, workdir, i, emit, power)
             for i, (emit, power) in enumerate([("json", 15), ("text", 17)] * 3)]
    cases += [_check_case(rng, workdir, i, 7) for i in range(6)]
    return cases


_BUILDERS = {"seq-search": _seq_search, "surface-scan": _surface_scan,
             "padic-calc": _padic_calc, "compile-check": _compile_check}


def build(workload: str, seed: int, workdir: str) -> list[Case]:
    """The workload's round for this seed, group by group, with input
    files written."""
    cases = []
    for group in GROUPS[workload]:
        for case in _BUILDERS[group](random.Random(f"{group}/{seed}"), workdir):
            case.group = group
            cases.append(case)
    for case in cases:
        for path, text in case.files.items():
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
    return cases
