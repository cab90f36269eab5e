"""Lowering of equation systems to three-address constraints, and
elimination of multiplication in favor of squaring constraints.

Every stage of the reduction records how each variable it introduces is
forced by the source variables, as a trace: a sequence of steps, each a
tuple whose second entry is the variable it assigns,

    ("const", d, c)       d := c
    ("add", d, a, b)      d := a + b
    ("mul", d, a, b)      d := a * b
    ("square", d, a)      d := a**2
    ("shift", d, a, c)    d := a + c

with c an integer constant.  run_trace is the one interpreter of this
format; the three-address program, the elimination trace and the
square gadgets all use it.

Three-address form uses the first three step shapes over integer
variables, plus equality constraints between variables.  A step is read
as an equation (the dest is a fresh temporary, assigned once), so a
solution of the program is an integer assignment of the source variables
extended by the forced temporary values that satisfies every equality.

Each source equation is expanded to a polynomial and split into the two
sides with nonnegative coefficients (pos = neg), so no subtraction and no
negative constants are ever needed; coefficient scaling uses binary
addition chains rather than multiplication steps, keeping every product
in the program an honest variable*variable multiplication.

eliminate_mul replaces d := a*b for distinct a, b by the polarization

    s = a + b,   s**2 = a**2 + b**2 + 2d

introducing one new squared quantity per product (the squares of a and b
are reused across products), and d := a*a collapses to d = square(a).
The result is linear equations plus constraints q = t**2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .parser import SourceSystem, expand


def run_trace(steps, env: dict[str, int]) -> dict[str, int]:
    """Assign every step's destination in order, extending env in place,
    and return env.  env must hold each variable a step reads that no
    earlier step assigns."""
    for step in steps:
        op = step[0]
        if op == "const":
            env[step[1]] = step[2]
        elif op == "add":
            env[step[1]] = env[step[2]] + env[step[3]]
        elif op == "mul":
            env[step[1]] = env[step[2]] * env[step[3]]
        elif op == "square":
            env[step[1]] = env[step[2]] ** 2
        elif op == "shift":
            env[step[1]] = env[step[2]] + step[3]
        else:
            raise ValueError(f"unknown trace step {op!r}")
    return env


@dataclass(frozen=True)
class TACProgram:
    """Three-address program: instrs are "const", "add" and "mul" trace
    steps, one per temporary, in the order of temps."""

    source_vars: tuple[str, ...]
    temps: tuple[str, ...]
    instrs: tuple
    equalities: tuple[tuple[str, str], ...]


class _Lowerer:
    def __init__(self, variables: tuple[str, ...]):
        self.variables = variables
        self.instrs: list = []
        self.temps: list[str] = []
        self.const_memo: dict[int, str] = {}
        self.mono_memo: dict[tuple[int, ...], str] = {}
        self.add_memo: dict[tuple[str, str], str] = {}
        self.mul_memo: dict[tuple[str, str], str] = {}
        self.scale_memo: dict[tuple[str, int], str] = {}

    def fresh(self) -> str:
        name = f"_t{len(self.temps)}"
        self.temps.append(name)
        return name

    def const(self, value: int) -> str:
        if value not in self.const_memo:
            t = self.fresh()
            self.instrs.append(("const", t, value))
            self.const_memo[value] = t
        return self.const_memo[value]

    def add(self, a: str, b: str) -> str:
        key = (a, b) if a <= b else (b, a)
        if key not in self.add_memo:
            t = self.fresh()
            self.instrs.append(("add", t, a, b))
            self.add_memo[key] = t
        return self.add_memo[key]

    def mul(self, a: str, b: str) -> str:
        key = (a, b) if a <= b else (b, a)
        if key not in self.mul_memo:
            t = self.fresh()
            self.instrs.append(("mul", t, a, b))
            self.mul_memo[key] = t
        return self.mul_memo[key]

    def monomial(self, exps: tuple[int, ...]) -> str:
        """Variable-power product by repeated multiplication, memoized on
        the exponent vector (prefix products shared across terms)."""
        if exps in self.mono_memo:
            return self.mono_memo[exps]
        total = sum(exps)
        if total == 1:
            idx = next(i for i, e in enumerate(exps) if e)
            name = self.variables[idx]
        else:
            idx = max(i for i, e in enumerate(exps) if e)
            prev = list(exps)
            prev[idx] -= 1
            name = self.mul(self.monomial(tuple(prev)), self.variables[idx])
        self.mono_memo[exps] = name
        return name

    def scale(self, name: str, c: int) -> str:
        """c*name for c >= 1 using a binary doubling chain of additions."""
        if c == 1:
            return name
        key = (name, c)
        if key in self.scale_memo:
            return self.scale_memo[key]
        doubles = [name]
        power = 1
        while power * 2 <= c:
            prev = doubles[-1]
            nxt = self.scale_memo.get((name, power * 2))
            if nxt is None:
                nxt = self.add(prev, prev)
                self.scale_memo[(name, power * 2)] = nxt
            doubles.append(nxt)
            power *= 2
        acc = None
        bit = 0
        rem = c
        while rem:
            if rem & 1:
                piece = doubles[bit]
                acc = piece if acc is None else self.add(acc, piece)
            rem >>= 1
            bit += 1
        self.scale_memo[key] = acc
        return acc

    def side(self, terms: list[tuple[tuple[int, ...], int]]) -> str:
        if not terms:
            return self.const(0)
        acc = None
        for exps, coeff in terms:
            if all(e == 0 for e in exps):
                piece = self.const(coeff)
            else:
                piece = self.scale(self.monomial(exps), coeff)
            acc = piece if acc is None else self.add(acc, piece)
        return acc


def lower_tac(system: SourceSystem) -> TACProgram:
    """Semantics-preserving lowering: integer solutions of the system
    correspond exactly to solutions of the program restricted to the
    source variables."""
    lw = _Lowerer(system.variables)
    equalities: list[tuple[str, str]] = []
    for eq in system.equations:
        poly = expand(eq.expr, system.variables)
        pos: list[tuple[tuple[int, ...], int]] = []
        neg: list[tuple[tuple[int, ...], int]] = []
        for exps, coeff in sorted(poly.terms.items()):
            if coeff.denominator != 1:
                raise ValueError("non-integer coefficient after expansion")
            c = coeff.numerator
            if c > 0:
                pos.append((exps, c))
            else:
                neg.append((exps, -c))
        left = lw.side(pos)
        right = lw.side(neg)
        if left != right:
            equalities.append((left, right))
    return TACProgram(source_vars=system.variables,
                      temps=tuple(lw.temps),
                      instrs=tuple(lw.instrs),
                      equalities=tuple(equalities))


@dataclass
class LinearEq:
    """sum(coeffs[v] * v) + const = 0 over integer variables."""

    coeffs: dict[str, int]
    const: int = 0

    def residual(self, env: dict[str, int]) -> int:
        return sum(c * env[v] for v, c in self.coeffs.items()) + self.const


@dataclass(frozen=True)
class Squaring:
    """The constraint q = t**2 (t shared with the rest of the system)."""

    q: str
    t: str


@dataclass
class IntermediateSystem:
    """Only linear equations plus squaring constraints; the trace records
    how every introduced variable is forced by the source variables."""

    source_vars: tuple[str, ...]
    variables: tuple[str, ...]
    linear: list[LinearEq]
    squarings: list[Squaring]
    trace: tuple
    counters: dict = field(default_factory=dict)


def eliminate_mul(prog: TACProgram) -> IntermediateSystem:
    """Replace every multiplication by linear equations and squarings."""
    counter = len(prog.temps)
    variables = list(prog.source_vars) + list(prog.temps)
    linear: list[LinearEq] = []
    squarings: list[Squaring] = []
    trace: list[tuple] = []
    square_memo: dict[str, str] = {}
    counts = {"muls_distinct": 0, "muls_square": 0, "sums": 0,
              "squarings": 0, "tac_temps": len(prog.temps)}

    def fresh() -> str:
        nonlocal counter
        name = f"_t{counter}"
        counter += 1
        variables.append(name)
        return name

    def square_of(x: str) -> str:
        if x not in square_memo:
            q = fresh()
            squarings.append(Squaring(q, x))
            trace.append(("square", q, x))
            square_memo[x] = q
            counts["squarings"] += 1
        return square_memo[x]

    for step in prog.instrs:
        trace.append(step)
        op, d = step[0], step[1]
        if op == "const":
            linear.append(LinearEq({d: 1}, -step[2]))
        elif op == "add":
            coeffs = {d: 1}
            for v in step[2:]:
                coeffs[v] = coeffs.get(v, 0) - 1
            linear.append(LinearEq(coeffs, 0))
        else:
            a, b = step[2], step[3]
            if a == b:
                q = square_of(a)
                linear.append(LinearEq({d: 1, q: -1}, 0))
                counts["muls_square"] += 1
            else:
                s = fresh()
                trace.append(("add", s, a, b))
                linear.append(LinearEq({s: 1, a: -1, b: -1}, 0))
                counts["sums"] += 1
                qs = square_of(s)
                qa = square_of(a)
                qb = square_of(b)
                linear.append(LinearEq({qs: 1, qa: -1, qb: -1, d: -2}, 0))
                counts["muls_distinct"] += 1
    for x, y in prog.equalities:
        if x != y:
            linear.append(LinearEq({x: 1, y: -1}, 0))
    return IntermediateSystem(source_vars=prog.source_vars,
                              variables=tuple(variables),
                              linear=linear,
                              squarings=squarings,
                              trace=tuple(trace),
                              counters=counts)
