"""Output oracles for the benchmark, written independently of `buchi`.

Nothing here imports the package under test.  References are computed
from the definitions: an enumeration of square sequences, a scan that
tests squares on unreduced fractions, valuations of the coefficients the
generator chose, a parser for the emitted diagonal systems and a
brute-force count of source solutions.  Each `check_*` function takes
one invocation's stdout and returns None when it is right, or a short
description of the first thing found wrong.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, isqrt


class Wrong(Exception):
    """An output that contradicts its reference."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


def _verdict(check, *args) -> tuple[str | None, object]:
    """(None, what check returned), or (what is wrong, None)."""
    try:
        return None, check(*args)
    except Wrong as exc:
        return str(exc), None
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}", None


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


# -- seq search ------------------------------------------------------------

def square_triples(bmax: int) -> list[tuple[int, int]]:
    """Every (s1, s2) = (x1**2, x2**2) with 0 <= x1, x2 <= bmax for which
    s3 = 2*s2 - s1 + 2 is a square: the length-3 prefixes of all
    sequences the search can report."""
    squares = {y * y for y in range(isqrt(2 * bmax * bmax + 2) + 1)}
    found = []
    for x2 in range(bmax + 1):
        s2 = x2 * x2
        top = 2 * s2 + 2
        # x1 and x2 of equal parity make s3 2 or 3 mod 4, never a square.
        for x1 in range(1 - x2 % 2, min(bmax, isqrt(top)) + 1, 2):
            if top - x1 * x1 in squares:
                found.append((x1 * x1, s2))
    return found


def _extend(s1: int, s2: int, length: int) -> list[int] | None:
    squares = [s1, s2]
    while len(squares) < length:
        nxt = 2 * squares[-1] - squares[-2] + 2
        if not _is_square(nxt):
            return None
        squares.append(nxt)
    return squares


def is_consecutive(values) -> bool:
    """True iff values[i]**2 = (nu + i + 1)**2 for one integer nu."""
    first = values[0]
    return any(all(v * v == (nu + i) ** 2 for i, v in enumerate(values, 1))
               for nu in (first - 1, -first - 1))


def count_sequences(triples, length: int, bound: int) -> int:
    """Nontrivial canonical sequences of `length` with x1, x2 <= bound."""
    limit = bound * bound
    count = 0
    for s1, s2 in triples:
        if s1 > limit or s2 > limit:
            continue
        squares = _extend(s1, s2, length)
        if squares is not None and not is_consecutive([isqrt(s) for s in squares]):
            count += 1
    return count


def _seq_search(text: str, length: int, bound: int, expected: int) -> None:
    data = json.loads(text)
    _require(data["length"] == length and data["bound"] == bound,
             "echoed length or bound differs from the input")
    seqs = [tuple(s) for s in data["nontrivial"]]
    for vs in seqs:
        _require(len(vs) == length, f"{vs} has the wrong length")
        _require(all(type(v) is int and v >= 0 for v in vs), f"{vs} is not canonical")
        _require(vs[0] <= bound and vs[1] <= bound, f"{vs} is outside the bound")
        sq = [v * v for v in vs]
        _require(all(sq[i + 2] - 2 * sq[i + 1] + sq[i] == 2 for i in range(length - 2)),
                 f"{vs} does not have second difference 2")
        _require(not is_consecutive(vs), f"{vs} is a run of consecutive squares")
    _require(len(set(seqs)) == len(seqs), "a sequence is reported twice")
    _require(len(seqs) == expected, f"{len(seqs)} sequences reported, {expected} exist")


def check_seq_search(text: str, length: int, bound: int, expected: int) -> str | None:
    return _verdict(_seq_search, text, length, bound, expected)[0]


# -- surface scan ----------------------------------------------------------

def height(q: Fraction) -> int:
    return max(abs(q.numerator), q.denominator)


def rationals_up_to(h: int) -> list[Fraction]:
    return [Fraction(p, q) for q in range(1, h + 1) for p in range(-h, h + 1)
            if gcd(p, q) == 1]


def grid_size(h: int, integers_only: bool) -> int:
    """Number of (u, v) pairs a brute-force scan of height h visits."""
    side = 2 * h + 1 if integers_only else len(rationals_up_to(h))
    return side * side


def _scan_integers(nodes: list[int], h: int) -> set[tuple[int, int]]:
    found = set()
    for u in range(-h, h + 1):
        bases = [a * a + u * a for a in nodes]
        first = bases[0]
        if first + h < 0:
            continue
        t = isqrt(max(0, first - h))
        while t * t <= first + h:
            v = t * t - first
            t += 1
            if v < -h or u * u == 4 * v:
                continue
            if all(_is_square(b + v) for b in bases[1:]):
                found.add((u, v))
    return found


def _scan_rationals(nodes: list[Fraction], h: int) -> set[tuple[Fraction, Fraction]]:
    # f(n/d) + r/s = (A*s + r*D) / (D*s) with A/D = (n/d)**2 + u*(n/d)
    # unreduced; X/Y with Y > 0 is a rational square iff X*Y is a square.
    grid = rationals_up_to(h)
    found = set()
    for u in grid:
        p, q = u.numerator, u.denominator
        parts = [(a.numerator ** 2 * q + p * a.numerator * a.denominator,
                  a.denominator ** 2 * q) for a in nodes]
        for v in grid:
            if u * u == 4 * v:
                continue
            r, s = v.numerator, v.denominator
            if all(_is_square((big_a * s + r * big_d) * (big_d * s))
                   for big_a, big_d in parts):
                found.add((u, v))
    return found


def scan_reference(nodes: list[Fraction], h: int, integers_only: bool) -> set:
    """All non-square x**2 + u*x + v of height <= h with a rational square
    at every node, as a set of (u, v)."""
    if integers_only:
        if all(a.denominator == 1 for a in nodes):
            ints = _scan_integers([a.numerator for a in nodes], h)
            return {(Fraction(u), Fraction(v)) for u, v in ints}
        raise ValueError("the reference scans integer nodes only with integers_only")
    return _scan_rationals(nodes, h)


def _rational_square(q: Fraction) -> bool:
    return _is_square(q.numerator) and _is_square(q.denominator)


def _surface_scan(text: str, nodes, h: int, integers_only: bool, expected: int) -> None:
    data = json.loads(text)
    _require(data["height"] == h and data["integers_only"] == integers_only,
             "echoed height or mode differs from the input")
    pairs = [(Fraction(c["u"]), Fraction(c["v"])) for c in data["candidates"]]
    _require(data["count"] == len(pairs), "count disagrees with the candidate list")
    for u, v in pairs:
        _require(u * u != 4 * v, f"u={u} v={v} is a square polynomial")
        _require(height(u) <= h and height(v) <= h, f"u={u} v={v} exceeds the height")
        if integers_only:
            _require(u.denominator == 1 and v.denominator == 1, f"u={u} v={v} is not integral")
        for a in nodes:
            _require(_rational_square(a * a + u * a + v),
                     f"u={u} v={v} is not a square at node {a}")
    _require(len(set(pairs)) == len(pairs), "a candidate is reported twice")
    _require(len(pairs) == expected, f"{len(pairs)} candidates reported, {expected} exist")


def check_surface_scan(text: str, nodes, h: int, integers_only: bool,
                       expected: int) -> str | None:
    return _verdict(_surface_scan, text, nodes, h, integers_only, expected)[0]


# -- padic -----------------------------------------------------------------

def valuation(q: Fraction, p: int) -> int:
    """v_p of a nonzero rational."""
    v = 0
    n, d = q.numerator, q.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def pjf_constant(num: list[Fraction], den: list[Fraction], p: int) -> Fraction:
    """log|f| - N(f, 0) + N(f, inf) for f = num/den (coefficients listed
    from degree 0): the difference of the lowest terms' valuations, read
    off as rho tends to -infinity."""
    low_num = next(c for c in num if c != 0)
    low_den = next(c for c in den if c != 0)
    return Fraction(valuation(low_den, p) - valuation(low_num, p))


def _padic_delta(text: str) -> None:
    _require(json.loads(text)["holds"] is True, "delta identity reported false")


def _padic_fmt(text: str, radii: int) -> None:
    data = json.loads(text)
    _require(len(data["grid"]) == radii and len(data["defects"]) == radii,
             "grid length differs from the input")
    _require(data["passed"] is True, "first main theorem check did not pass")


def _padic_smt(text: str, radii: int) -> None:
    data = json.loads(text)
    _require(len(data["grid"]) == radii and len(data["values"]) == radii,
             "grid length differs from the input")
    _require(data["passed"] is True, "second main theorem check did not pass")


def _padic_pjf(text: str, radii: int, constant: Fraction) -> None:
    data = json.loads(text)
    _require(len(data["rhos"]) == radii, "grid length differs from the input")
    got = Fraction(data["constant"])
    _require(got == constant, f"constant {got}, expected {constant}")


def check_padic_delta(text: str) -> str | None:
    return _verdict(_padic_delta, text)[0]


def check_padic_fmt(text: str, radii: int) -> str | None:
    return _verdict(_padic_fmt, text, radii)[0]


def check_padic_smt(text: str, radii: int) -> str | None:
    return _verdict(_padic_smt, text, radii)[0]


def check_padic_pjf(text: str, radii: int, constant: Fraction) -> str | None:
    return _verdict(_padic_pjf, text, radii, constant)[0]


# -- compile and check -----------------------------------------------------

_INT = re.compile(r"\d+\Z")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def parse_target_json(text: str):
    """(variables, linear, squares) of `compile --emit json`; linear is a
    list of (coeffs, const) and squares a list of (lhs, rhs)."""
    data = json.loads(text)
    variables = data["vars"]
    linear = [(eq["coeffs"], eq["const"]) for eq in data["linear"]]
    squares = [(sq["lhs"], sq["rhs"]) for sq in data["squares"]]
    _require(set(data) == {"vars", "linear", "squares", "meta"},
             "unexpected top-level keys")
    return variables, linear, squares


def _parse_linear_body(body: str) -> tuple[dict, int]:
    # Terms alternate with signs; a leading '+' is not printed.
    toks = body.split()
    sign = 1
    if toks[:1] == ["-"]:
        sign = -1
        toks = toks[1:]
    _require(len(toks) % 2 == 1, f"equation {body!r} does not alternate terms and signs")
    coeffs: dict[str, int] = {}
    const = 0
    for i, tok in enumerate(toks):
        if i % 2:
            _require(tok in ("+", "-"), f"expected a sign, got {tok!r}")
            sign = 1 if tok == "+" else -1
        elif _INT.match(tok):
            const += sign * int(tok)
        else:
            c, _, v = tok.rpartition("*")
            _require(c == "" or _INT.match(c) is not None,
                     f"coefficient {c!r} is not an integer")
            _require(_NAME.match(v) is not None, f"bad term {tok!r}")
            coeffs[v] = coeffs.get(v, 0) + sign * (int(c) if c else 1)
    return coeffs, const


def parse_target_text(text: str):
    """(variables, linear, squares) of `compile --emit text`."""
    variables = None
    linear = []
    squares = []
    for line in text.splitlines():
        if line.startswith("# variables:"):
            variables = line[len("# variables:"):].split()
        elif line.startswith("#") or not line.strip():
            continue
        elif line.startswith("linear: "):
            body, _, rhs = line[len("linear: "):].rpartition(" = ")
            _require(rhs == "0", f"linear equation {line!r} is not '= 0'")
            linear.append(_parse_linear_body(body))
        elif line.startswith("square: "):
            lhs, _, rhs = line[len("square: "):].partition(" = ")
            _require(rhs.endswith("^2"), f"square equation {line!r} is not 'x = y^2'")
            squares.append((lhs, rhs[:-2]))
        else:
            raise Wrong(f"line {line!r} is neither linear nor square")
    _require(variables is not None, "no variable declaration")
    return variables, linear, squares


def check_diagonal(system, source_vars) -> int:
    """Raise Wrong unless the system is in diagonal form: linear equations
    with integer coefficients and squares x = y**2 whose y is a fresh
    witness.  Returns the number of declared variables."""
    variables, linear, squares = system
    declared = set(variables)
    _require(all(isinstance(v, str) and _NAME.match(v) for v in variables),
             "a declared variable is not a name")
    _require(len(declared) == len(variables), "a variable is declared twice")
    _require(set(source_vars) <= declared, "a source variable is not declared")
    in_linear: set[str] = set()
    for coeffs, const in linear:
        _require(type(const) is int, f"constant {const!r} is not an integer")
        for v, c in coeffs.items():
            _require(type(c) is int, f"coefficient {c!r} of {v} is not an integer")
            _require(v in declared, f"{v} is used but not declared")
        in_linear.update(coeffs)
    witnesses = [rhs for _, rhs in squares]
    lhs_all = {lhs for lhs, _ in squares}
    _require(len(set(witnesses)) == len(witnesses), "a square witness is reused")
    for lhs, rhs in squares:
        _require(lhs in declared and rhs in declared, f"square {lhs} = {rhs}^2 is undeclared")
        _require(rhs not in in_linear, f"witness {rhs} appears in a linear equation")
        _require(rhs not in lhs_all, f"witness {rhs} is also a squared value")
        _require(rhs not in source_vars, f"witness {rhs} is a source variable")
    return len(variables)


def _compile(text: str, emit: str, source_vars) -> int:
    parse = parse_target_json if emit == "json" else parse_target_text
    return check_diagonal(parse(text), source_vars)


def check_compile(text: str, emit: str, source_vars) -> tuple[str | None, int]:
    """(verdict, number of declared target variables)."""
    verdict, count = _verdict(_compile, text, emit, source_vars)
    return verdict, count or 0


def _equisat(text: str, box: int, nvars: int, solutions: list[dict]) -> None:
    data = json.loads(text)
    _require(data["box"] == box, "echoed box differs from the input")
    _require(data["assignments"] == (2 * box + 1) ** nvars,
             "assignment count differs from the box size")
    _require(data["source_solutions"] == len(solutions),
             f"{data['source_solutions']} source solutions reported, {len(solutions)} exist")
    _require(data["agreements"] == data["assignments"], "extension disagrees with the source")
    _require(data["lifted"] == data["source_solutions"], "a solution did not lift")
    _require(data["passed"] is True, "check reported failure")
    got = sorted(tuple(sorted(s.items())) for s in data["solutions"])
    want = sorted(tuple(sorted(s.items())) for s in solutions)
    _require(got == want, "reported solutions differ from the brute-force ones")


def check_equisat(text: str, box: int, nvars: int, solutions: list[dict]) -> str | None:
    return _verdict(_equisat, text, box, nvars, solutions)[0]
