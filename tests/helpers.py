"""Shared random generators and scalar oracles for the test suites."""

from fractions import Fraction
from itertools import product
from math import isqrt

from buchi import guard
from buchi.exact import is_square_int
from buchi.reduction.compiler import CHECK_WORK_BUDGET, W_BOUND_BUDGET, EquisatReport
from buchi.reduction.lower import eliminate_mul, lower_tac
from buchi.reduction.parser import (_SYMBOLS, MAX_CONSTANT_BITS, MAX_TOKENS, Num, ParseError,
                                    Pow, Product, Sum, Token, Var, bounded_pow)
from buchi.sequences import BuchiSequence, _smallest_prime_factors, closed_form, search
from buchi.surfaces import MonicQuadratic
from buchi.symbolic import RatFunc, UPoly


def rand_fraction(rng, max_num=9, max_den=5, nonzero=False):
    while True:
        q = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        if q != 0 or not nonzero:
            return q


def rand_upoly(rng, max_deg=4, max_coeff=6, nonzero=False):
    while True:
        deg = rng.randint(0, max_deg)
        p = UPoly([rng.randint(-max_coeff, max_coeff) for _ in range(deg + 1)])
        if not (nonzero and p.is_zero):
            return p


def rand_ratfunc(rng, max_deg=4, max_coeff=6, nonzero=False):
    while True:
        f = RatFunc(rand_upoly(rng, max_deg, max_coeff),
                    rand_upoly(rng, max_deg, max_coeff, nonzero=True))
        if not (nonzero and f.is_zero):
            return f


def loop_valuation(n: int, p: int) -> int:
    """v_p(n) for n != 0 and p >= 2, one division per unit of valuation:
    the oracle of exact._int_valuation."""
    v = 0
    while n % p == 0:
        v, n = v + 1, n // p
    return v


def fraction_height(padic, rho: Fraction) -> Fraction:
    """N(rho) = ord0*rho + the sum of length*max(0, rho + slope) of a
    nevanlinna._PadicPoly, in Fractions segment by segment: the oracle of
    its height in integers."""
    total = padic.ord0 * rho
    for s in padic.polygon.segments:
        shifted = rho + s.slope
        if shifted > 0:
            total += s.length * shifted
    return total


def product_delta_identity(f, u, a) -> bool:
    """g'**2 - 4*f'**2*g == 4*u*(u*f'**2 - u'**2*u - u'*g') with
    g = (a + f)**2 - u**2, checked by RatFunc products: the differential
    oracle of nevanlinna.delta_identity's grid certificate."""
    g = (f + a) ** 2 - u ** 2
    fp, up, gp = f.derivative(), u.derivative(), g.derivative()
    return gp ** 2 - 4 * fp ** 2 * g == 4 * u * (u * fp ** 2 - up ** 2 * u - up * gp)


def ratfunc_difference_identity(f, a_i, a_j, h_i_sq, h_j_sq) -> bool:
    """h_i**2 - h_j**2 == (a_i - a_j)*(2f + a_i + a_j) for RatFuncs f,
    h_i**2 and h_j**2, by RatFunc arithmetic: the differential oracle of
    nevanlinna.difference_identity's cross-multiplied stored parts."""
    ai, aj = Fraction(a_i), Fraction(a_j)
    return h_i_sq - h_j_sq == (ai - aj) * (2 * f + ai + aj)


# RatFunc's arithmetic, which no path of the package runs.
RATFUNC_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                      "__rmul__", "__truediv__", "__rtruediv__", "__pow__")


def forbid_ratfunc_arithmetic(monkeypatch) -> None:
    """From now on each method of RATFUNC_ARITHMETIC raises AssertionError."""
    def forbidden(name):
        def method(*args):
            raise AssertionError(f"RatFunc.{name} called")
        return method

    for name in RATFUNC_ARITHMETIC:
        monkeypatch.setattr(RatFunc, name, forbidden(name))


def count_gcd_calls(monkeypatch) -> list:
    """A list that records every UPoly.gcd call from now on."""
    calls = []
    gcd = UPoly.gcd

    def counted(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(UPoly, "gcd", counted)
    return calls


# Expressions in z of size n, each with the parser calls a unit of n
# costs as parser.MAX_DEPTH counts them: n nested levels of parentheses
# or signs, or None for a flat sum or product of n terms, which MAX_DEPTH
# does not limit (parser.MAX_TOKENS does).
DEEP_SHAPES = {
    "parentheses": (4, lambda n: "(" * n + "z" + ")" * n),
    "signs": (1, lambda n: "-" * n + "z"),
    "sum": (None, lambda n: "+".join(["z"] * n)),
    "product": (None, lambda n: "*".join(["z"] + ["2"] * (n - 1))),
}
# Length at which the flat shapes are tested.
FLAT_LENGTH = 4000


def mixed_nesting(levels: int) -> str:
    """A power of a sum of products, nested `levels` parentheses deep:
    three syntax-tree levels for each '(', all of degree 1 in z."""
    text = "z"
    for _ in range(levels):
        text = f"(2*{text}+z)^1"
    return text


def dense_poly(degree: int) -> str:
    """The dense expansion of a polynomial in z, term by term with
    coefficients other than 1, led by a negative one."""
    return "-" + "+".join(f"{k + 2}*z^{k}" for k in range(degree, -1, -1))


# The factor-pair loop sequences.search ran over a before it ran over the
# smaller factor e, kept as its oracle: for each a it factors a**2 - 1
# and visits every factor pair, keeping those the bounds admit.

def _factor(k: int, spf: list[int], into: dict[int, int]) -> None:
    while k > 1:
        p = spf[k]
        into[p] = into.get(p, 0) + 1
        k //= p


def _small_divisors(factors: dict[int, int], n: int) -> list[int]:
    """The divisors e of n with e*e <= n, from n's factorization."""
    divisors = [1]
    for p, e in factors.items():
        powers = [p ** i for i in range(e + 1)]
        divisors = [d * q for d in divisors for q in powers]
    return [d for d in divisors if d * d <= n]


def factor_pair_search(length: int, bound: int) -> list[BuchiSequence]:
    """sequences.search by every factor pair of every a**2 - 1."""
    # x_1 <= bound and x_3**2 = 2 - x_1**2 + 2*x_2**2 <= 2*bound**2 + 2.
    top = (bound + isqrt(2 * bound * bound + 2)) // 2 + 1
    spf = _smallest_prime_factors(top + 1)
    found: list[BuchiSequence] = []
    for a in range(2, top + 1):
        # The pairs e*f = a**2 - 1 with e = f (mod 2).  For even a, e and f
        # are odd and divide n = (a-1)(a+1).  For odd a they are even, and
        # the loop runs over e/2 * f/2 = n = ((a-1)/2)*((a+1)/2) instead.
        # Either way n = lo*hi with lo, hi coprime.
        if a % 2:
            lo, scale = (a - 1) // 2, 1
            hi = lo + 1
        else:
            lo, hi, scale = a - 1, a + 1, 2
        factors: dict[int, int] = {}
        _factor(lo, spf, factors)
        _factor(hi, spf, factors)
        n = lo * hi
        for e in _small_divisors(factors, n):
            f = n // e
            x2, b = (e + f) // scale, (f - e) // scale
            if x2 > bound or b > a:
                continue
            for x1 in {a - b, a + b}:
                # |x_1 - x_2| = 1 exactly for the consecutive squares.
                if x1 > bound or abs(x1 - x2) == 1:
                    continue
                values = [x1, x2, 2 * a - x1]
                for i in range(4, length + 1):
                    sn = closed_form(x1 * x1, x2 * x2, i)
                    root = isqrt(sn) if sn >= 0 else -1
                    if root * root != sn:
                        break
                    values.append(root)
                else:
                    found.append(BuchiSequence(values))
    found.sort(key=lambda seq: seq.values)
    return found


def scan_integer_nodes(nodes: list[int], height: int) -> list[MonicQuadratic]:
    """surfaces.scan_exceptional on integer nodes with integers_only, as
    it ran before the residue sieve, kept as its fast oracle: for each u,
    v = s**2 - top over the squares s**2 in [top - height, top + height],
    top the largest node value, and each other value tested with
    is_square_int."""
    found = []
    for u in range(-height, height + 1):
        bases = sorted((a * a + u * a for a in nodes), reverse=True)
        top, rest = bases[0], bases[1:]
        s = isqrt(max(0, top - height))
        if s * s < top - height:
            s += 1
        while (v := s * s - top) <= height:
            s += 1
            if u * u != 4 * v and all(is_square_int(b + v) for b in rest):
                found.append(MonicQuadratic(u, v))
    return found


def scalar_tokenize(text: str) -> list[Token]:
    """reduction.parser.tokenize as a loop over the characters, which
    reads digits and letters with str.isdigit and str.isalpha, so it
    agrees with tokenize on ASCII text only."""
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        guard("MAX_TOKENS", len(tokens) + 1, MAX_TOKENS, "tokens", ParseError, line, col)
        if ch in _SYMBOLS:
            tokens.append(Token(_SYMBOLS[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            digits = text[start:i].lstrip("0") or "0"
            # its bits: exact up to the 4300 digits int() takes, more beyond
            guard("MAX_CONSTANT_BITS", int(digits[:4300]).bit_length(), MAX_CONSTANT_BITS,
                  "bits of an integer literal", ParseError, line, col)
            tokens.append(Token("INT", digits, line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            if ch == "_":
                raise ParseError(f"identifier {text[start:i]!r} starts with '_', which "
                                 "is reserved for the target variables _t, _u and _w",
                                 line, col)
            tokens.append(Token("IDENT", text[start:i], line, col))
            col += i - start
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# Scalar oracles of the reduction's column kernels, each on one
# assignment at a time.

def scalar_run_trace(steps, env: dict[str, int]) -> dict[str, int]:
    """reduction.lower.run_trace on one assignment: env maps each
    variable to one integer."""
    for step in steps:
        op = step[0]
        if op == "const":
            env[step[1]] = step[2]
        elif op == "add":
            env[step[1]] = env[step[2]] + env[step[3]]
        elif op == "sub":
            env[step[1]] = env[step[2]] - env[step[3]]
        elif op == "mul":
            env[step[1]] = env[step[2]] * env[step[3]]
        elif op == "square":
            env[step[1]] = env[step[2]] ** 2
        elif op == "shift":
            env[step[1]] = env[step[2]] + step[3]
        else:
            raise ValueError(f"unknown trace step {op!r}")
    return env


def scalar_evaluate(expr, env: dict[str, int]) -> int:
    """reduction.parser.evaluate on one assignment."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Sum):
        total = 0
        for sign, term in expr.terms:
            total += scalar_evaluate(term, env) if sign > 0 else -scalar_evaluate(term, env)
        return total
    if isinstance(expr, Product):
        value = 1
        for factor in expr.factors:
            value *= scalar_evaluate(factor, env)
        return value
    if isinstance(expr, Pow):
        return bounded_pow(scalar_evaluate(expr.base, env), expr.exponent)
    raise TypeError(f"not an expression node: {expr!r}")


def scalar_residual(eq, env: dict[str, int]) -> int:
    """LinearEq.residual at one assignment."""
    return sum(c * env[v] for v, c in eq.coeffs.items()) + eq.const


def compile_counts(system, m: int) -> dict[str, int]:
    """compile_system's work on system at gadget length m, read off the
    three-address program and its squarings: each instruction is a
    temporary, a product of equal operands is one squaring, a product of
    distinct ones adds a sum s and squares s, a and b, and each squaring
    becomes one gadget of M u's and M w's."""
    prog = lower_tac(system)
    instrs, squarings = prog.instrs, eliminate_mul(prog).squarings
    muls = [step for step in instrs if step[0] == "mul"]
    distinct = sum(a != b for _, _, a, b in muls)
    return {"tac_temps": len(instrs), "muls_distinct": distinct,
            "muls_square": len(muls) - distinct, "sums": distinct,
            "squarings": len(squarings), "gadgets": len(squarings),
            "gadget_vars": 2 * m * len(squarings)}


def scalar_satisfied(target, env: dict[str, int]) -> bool:
    return (all(scalar_residual(eq, env) == 0 for eq in target.linear)
            and all(env[sq.lhs] == env[sq.rhs] ** 2 for sq in target.squares))


def scalar_bounded_equisat(system, target, box: int) -> EquisatReport:
    """compiler.bounded_equisat one assignment at a time.  Its guards are
    literals, and it also refuses more than 2 * 10**6 assignments, which
    CHECK_WORK_BUDGET implies.  Its work is assignments times the units
    each one runs through, with no blocks."""
    if box < 1:
        raise ValueError("box must be >= 1")
    guard("MAX_BOX", box, 50, "box")
    k = len(system.variables)
    guard("MAX_SOURCE_VARS", k, 4, "source variables")
    guard("2 * 10**6", (2 * box + 1) ** k, 2_000_000, "assignments")
    work = (2 * box + 1) ** k * (system.size + len(target.trace)
                                 + len(target.linear) + len(target.squares))
    guard("CHECK_WORK_BUDGET", work, CHECK_WORK_BUDGET, "check work")
    w_vars = [step[1] for step in target.trace if step[0] == "shift"]
    solutions = []
    lifted = agreements = total = w_bound = 0
    for combo in product(range(-box, box + 1), repeat=k):
        env = dict(zip(system.variables, combo))
        total += 1
        sat = all(scalar_evaluate(eq.expr, env) == 0 for eq in system.equations)
        full = scalar_run_trace(target.trace, dict(env))
        holds = scalar_satisfied(target, full)
        if holds == sat:
            agreements += 1
        w_bound = max([w_bound] + [abs(full[w]) for w in w_vars])
        guard("W_BOUND_BUDGET", w_bound, W_BOUND_BUDGET, "gadget witness bound")
        if sat:
            solutions.append(dict(env))
            lifted += holds
    nontrivial = len(search(target.buchi_m, max(w_bound, 1))) if w_vars else 0
    return EquisatReport(box=box, assignments=total, source_solutions=len(solutions),
                         lifted=lifted, agreements=agreements, solutions=solutions,
                         derived_w_bound=w_bound, nontrivial_gadget_sequences=nontrivial)
