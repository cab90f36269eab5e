"""Lowering of equation systems to three-address constraints, and
elimination of multiplication in favor of squaring constraints.

Every stage of the reduction records how each variable it introduces is
forced by the source variables, as a trace: a sequence of steps, each a
tuple whose second entry is the variable it assigns,

    ("const", d, c)       d := c
    ("add", d, a, b)      d := a + b
    ("sub", d, a, b)      d := a - b
    ("mul", d, a, b)      d := a * b
    ("square", d, a)      d := a**2
    ("shift", d, a, c)    d := a + c

with c an integer constant.  run_trace is the one interpreter of this
format; the three-address program, the elimination trace and the
square gadgets all use it.  It runs on columns: each variable holds its
values at a block of assignments, one per row, and each step is one map
over its operand columns.  It runs any run of steps whose operands are
assigned, so a caller can run part of a trace on some rows and the rest
on fewer: compiler.bounded_equisat runs each step only at the rows that
satisfy the equations before the first one that needs it.  A single
assignment is a block of one row.

Three-address form uses the first four step shapes over integer
variables, plus equality constraints between variables.  A step is read
as an equation (the dest is a fresh temporary, assigned once), so a
solution of the program is an integer assignment of the source variables
extended by the forced temporary values that satisfies every equality.

Both sides of each equation are lowered by one walk over the syntax
tree, so the program grows with the input text, not with the monomials of
the expanded polynomial.  Steps are hash-consed (equal subterms share one
temporary) and subterms without variables fold to integers, refused
beyond parser.MAX_CONSTANT_BITS.  A sum is a chain of
add and sub steps over its terms, left to right.  A power is
square-and-multiply; a product multiplies its variable factors and
applies its constant factor (its integer factors and signs) last by a
doubling chain of additions, so every mul step is variable*variable and
no constant enters a square.

eliminate_mul replaces d := a*b for distinct a, b by the polarization

    s = a + b,   s**2 = a**2 + b**2 + 2d

introducing one new squared quantity per product (the squares of a and b
are reused across products), and d := a*a collapses to d = square(a).
The result is linear equations plus constraints q = t**2.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial, reduce
from itertools import repeat
from math import prod
from operator import add, mul, sub

from .. import Record
from .parser import SourceSystem, _fold, bounded, bounded_pow

_BINARY = {"add": add, "sub": sub, "mul": mul}


def run_trace(steps, env: dict[str, Sequence[int]], rows: int) -> dict[str, Sequence[int]]:
    """Assign every step's destination column, a tuple of `rows` values,
    in order, extending env in place, and return env.  env must hold a
    column of `rows` values for each variable a step reads that no earlier
    step assigns.  Columns are tuples because the garbage collector stops
    tracking a tuple of integers, where it would walk a list each time."""
    for step in steps:
        op, dest = step[0], step[1]
        if op == "const":
            env[dest] = (step[2],) * rows
        elif op in _BINARY:
            env[dest] = tuple(map(_BINARY[op], env[step[2]], env[step[3]]))
        elif op == "square":
            env[dest] = tuple(map(mul, env[step[2]], env[step[2]]))
        elif op == "shift":
            env[dest] = tuple(map(add, env[step[2]], repeat(step[3])))
        else:
            raise ValueError(f"unknown trace step {op!r}")
    return env


class TACProgram(Record):
    """Three-address program: instrs are "const", "add", "sub" and "mul"
    trace steps, each assigning a new temporary."""

    __slots__ = ("source_vars", "instrs", "equalities")


class _Lowerer:
    def __init__(self):
        self.instrs: list = []
        self.memo: dict[tuple, str] = {}

    def step(self, op: str, *args) -> str:
        """The temporary assigned by (op, *args), emitted on first use;
        integer operands become const steps."""
        if op != "const":
            args = tuple(self.name(a) for a in args)
            if op in ("add", "mul"):
                args = tuple(sorted(args))
        key = (op, *args)
        if key not in self.memo:
            self.memo[key] = f"_t{len(self.memo)}"
            self.instrs.append((op, self.memo[key], *args))
        return self.memo[key]

    def name(self, value: str | int) -> str:
        return self.step("const", value) if isinstance(value, int) else value

    def lower(self, node) -> str | int:
        """The variable holding node's value, or the value itself when
        node has no variables."""
        return _fold(node, int, str, partial(self.combine, add), partial(self.combine, sub),
                     self.product, self.power)

    def combine(self, op, a: str | int, b: str | int) -> str | int:
        """a + b or a - b for op add or sub, folded when both are integers."""
        if isinstance(a, int) and isinstance(b, int):
            return bounded(op(a, b))
        return self.step(op.__name__, a, b)

    def product(self, factors: list) -> str | int:
        """The product of the variable factors, then the integer ones."""
        c = bounded(prod(f for f in factors if isinstance(f, int)))
        names = [f for f in factors if isinstance(f, str)]
        return self.scale(reduce(partial(self.step, "mul"), names), c) if names and c else c

    def power(self, base: str | int, k: int) -> str | int:
        """base**k by left-to-right square-and-multiply."""
        if isinstance(base, int):
            return bounded_pow(base, k)
        if k == 0:
            return 1
        acc = base
        for bit in bin(k)[3:]:
            acc = self.step("mul", acc, acc)
            if bit == "1":
                acc = self.step("mul", acc, base)
        return acc

    def scale(self, name: str, c: int) -> str:
        """c*name for c != 0: a binary doubling chain of additions, then a
        subtraction from 0 if c < 0."""
        if c < 0:
            return self.step("sub", 0, self.scale(name, -c))
        acc, double = None, name
        while True:
            if c & 1:
                acc = double if acc is None else self.step("add", acc, double)
            c >>= 1
            if not c:
                return acc
            double = self.step("add", double, double)


def lower_tac(system: SourceSystem) -> TACProgram:
    """Semantics-preserving lowering: integer solutions of the system
    correspond exactly to solutions of the program restricted to the
    source variables."""
    lw = _Lowerer()
    equalities: list[tuple[str, str]] = []
    for eq in system.equations:
        left, right = [lw.name(lw.lower(side)) for _, side in eq.expr.terms]
        if left != right:
            equalities.append((left, right))
    return TACProgram(source_vars=system.variables,
                      instrs=tuple(lw.instrs),
                      equalities=tuple(equalities))


class LinearEq(Record):
    """sum(coeffs[v] * v) + const = 0 over integer variables."""

    __slots__ = ("coeffs", "const")
    __setattr__ = object.__setattr__

    def __init__(self, coeffs: dict[str, int], const: int):
        self.coeffs = coeffs
        self.const = const

    def residual(self, env: dict[str, Sequence[int]], rows: int) -> list[int]:
        """The residual at each of env's `rows` rows."""
        total = [self.const] * rows
        for v, c in self.coeffs.items():
            total = list(map(add, total, map(mul, repeat(c), env[v])))
        return total


class Squaring(Record):
    """The constraint q = t**2 (t shared with the rest of the system)."""

    __slots__ = ("q", "t")


class IntermediateSystem(Record):
    """Only linear equations plus squaring constraints; the trace records
    how every introduced variable is forced by the source variables."""

    __slots__ = ("source_vars", "variables", "linear", "squarings", "trace", "counters")
    __setattr__ = object.__setattr__


def eliminate_mul(prog: TACProgram) -> IntermediateSystem:
    """Replace every multiplication by linear equations and squarings."""
    temps = [step[1] for step in prog.instrs]
    counter = len(temps)
    variables = list(prog.source_vars) + temps
    # The equalities come first: they are what fails for an assignment
    # that is not a solution, so compiler.filter_rows drops it there.
    linear = [LinearEq({x: 1, y: -1}, 0) for x, y in prog.equalities if x != y]
    squarings: list[Squaring] = []
    trace: list[tuple] = []
    square_memo: dict[str, str] = {}
    counts = {"muls_distinct": 0, "muls_square": 0, "sums": 0,
              "squarings": 0, "tac_temps": counter}

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
        elif op in ("add", "sub"):
            coeffs = {d: 1}
            for v, c in zip(step[2:], (-1, 1 if op == "sub" else -1)):
                coeffs[v] = coeffs.get(v, 0) + c
            linear.append(LinearEq({v: c for v, c in coeffs.items() if c}, 0))
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
    return IntermediateSystem(source_vars=prog.source_vars,
                              variables=tuple(variables),
                              linear=linear,
                              squarings=squarings,
                              trace=tuple(trace),
                              counters=counts)
