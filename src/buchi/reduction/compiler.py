"""Compilation to diagonal quadratic systems and desk-scale verification.

A compiled system contains only

    LINEAR equations   sum(b_i * x_i) + c = 0
    SQUARE equations   x - y**2 = 0

and every SQUARE right-hand side is a fresh witness variable appearing in
no other equation, so a SQUARE equation asserts exactly "x is a square"
rather than tying x to an accessible root.  Functional squaring q = t**2
is therefore not emitted directly; it is encoded by the second-difference
gadget

    u_i square (i = 1..M),  u_{i+1} - 2u_i + u_{i-1} = 2 (i = 2..M-1),
    q = u_1,  u_2 - u_1 = 2t + 1.

Forward direction, unconditional: q = t**2 extends by u_i = (t+i-1)**2,
w_i = t+i-1.  Backward direction: if every length-M square sequence with
second difference 2 is a run of consecutive squares (open over Z; M = 5
is the numerically supported choice), the gadget forces q = t**2.  Every
emitted artifact carries that conditionality in its metadata.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from itertools import chain, compress, islice, product, repeat
from operator import add, mul, not_, sub

from .. import Record, guard
from .formulas import check_m
from .lower import LinearEq, eliminate_mul, lower_tac, run_trace
from .parser import SourceSystem


# Largest gadget witness |w| bounded_equisat certifies.  Its certificate
# sequences.search(5, 2000) takes about 0.05 s (2-vCPU VM, CPython 3.11);
# the budget is kept so that check accepts and refuses the same inputs.
W_BOUND_BUDGET = 2000
# Largest M times squarings compile_system accepts: each
# squaring becomes a gadget of M square witnesses, so the target grows as
# their product.  At 10**5, x = (a+1)^2+...+(a+100)^2 at M = 1000, compile
# prints 8.9 MB in about 1 s (2-vCPU VM, CPython 3.11).
GADGET_BUDGET = 100_000
# Largest work bounded_equisat accepts: the units each assignment runs
# through (source tokens, a bound on the nodes evaluate visits, trace
# steps, linear and square equations) times the assignments plus
# BLOCK_COST per block of them, for the fixed part a block costs each
# unit (measured, about 13 rows on x*y = z), so that a target of one row
# per block, as x = z*z*...*z (4095 factors), which takes 1.9 s at box 1,
# is refused.  The units count every trace step at every assignment,
# though check runs most of them only where the first equations hold.
# Box 18 on x*y = z ((50,653 + 8 * 31) * 74 = 3.8 * 10**6) takes 0.05 s
# in-process, x = (a+1)^2+...+(a+10)^2 at M = 1000 and box 1 0.09 s, and
# one row per block at most about 0.8 s, on 0 = z*z*...*z (3000 factors)
# at box 1 (2-vCPU VM, CPython 3.11, through cli.main).  Every source has
# at least 4 tokens, the end of input counted, so the budget also caps
# the assignments at 10**6.
CHECK_WORK_BUDGET = 4_000_000
BLOCK_COST = 8
# Largest --box and most source variables bounded_equisat accepts.
MAX_BOX = 50
MAX_SOURCE_VARS = 4
# Values of one block of assignments, rows times the columns held at
# every row (check_schedule's block_rows), which bounded_equisat runs
# through the trace together; a block has at least one row.  Larger
# blocks take more memory: on tests/golden/cubic.dioph at box 7 (35 such
# columns of 206 variables), 2**12, 2**13, 2**14 and 2**16 cells took
# 0.018-0.025, 0.017-0.022, 0.016-0.021 and 0.019-0.022 s in-process,
# and check peaked at 15.6-16.0, 15.7-16.3, 16.0-16.4 and 17.1-17.6 MB
# RSS (2-vCPU VM, CPython 3.11).
BLOCK_CELLS = 2 ** 13


class SquareEq(Record):
    """lhs - rhs**2 = 0; rhs is a fresh witness variable."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: str, rhs: str):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def residual(self, env: dict[str, Sequence[int]], rows: int) -> list[int]:
        """lhs - rhs**2 at each of env's `rows` rows, as LinearEq.residual."""
        rhs = env[self.rhs]
        return list(map(sub, env[self.lhs], map(mul, rhs, rhs)))


class TargetSystem(Record):
    __slots__ = ("source_vars", "variables", "linear", "squares", "buchi_m", "meta", "trace")

    def extend(self, assignment: dict[str, int]) -> dict[str, int]:
        """Forced values of every variable given the source variables: the
        trace run on a block of one row."""
        env = run_trace(self.trace, {v: (int(assignment[v]),) for v in self.source_vars}, 1)
        return {v: column[0] for v, column in env.items()}

    def satisfied(self, env: dict[str, int]) -> bool:
        return bool(filter_rows(chain(self.linear, self.squares),
                                {v: (x,) for v, x in env.items()}, 1))

    def to_json(self) -> str:
        payload = {
            "vars": list(self.variables),
            "linear": [{"coeffs": {v: c for v, c in sorted(eq.coeffs.items())},
                        "const": eq.const} for eq in self.linear],
            "squares": [{"lhs": sq.lhs, "rhs": sq.rhs} for sq in self.squares],
            "meta": self.meta,
        }
        return json.dumps(payload, indent=2)

    def to_text(self) -> str:
        lines = [f"# diagonal quadratic system ({self.meta['conditional']})",
                 f"# variables: {' '.join(self.variables)}"]
        for eq in self.linear:
            terms = []
            for v, c in sorted(eq.coeffs.items()):
                if c == 1:
                    terms.append(f"+ {v}")
                elif c == -1:
                    terms.append(f"- {v}")
                elif c < 0:
                    terms.append(f"- {-c}*{v}")
                else:
                    terms.append(f"+ {c}*{v}")
            if eq.const > 0:
                terms.append(f"+ {eq.const}")
            elif eq.const < 0:
                terms.append(f"- {-eq.const}")
            body = " ".join(terms) if terms else "0"
            lines.append(f"linear: {body.lstrip('+ ')} = 0")
        for sq in self.squares:
            lines.append(f"square: {sq.lhs} = {sq.rhs}^2")
        return "\n".join(lines) + "\n"


class GadgetBlock(Record):
    __slots__ = ("variables", "linear", "squares", "trace")


def encode_square(t: str, q: str, m: int, first: int) -> GadgetBlock:
    """Second-difference gadget tying q to t**2 through M square witnesses.

    Emits M SQUARE equations u_i = w_i**2, the M-2 second-difference
    equations, and the two linear ties q = u_1 and u_2 - u_1 = 2t + 1,
    with u_1..u_M named _u<first>.._u<first+M-1>, and the w_i alike.
    """
    if m < 3:
        raise ValueError("gadget length must be >= 3")
    us = [f"_u{first + i}" for i in range(m)]
    ws = [f"_w{first + i}" for i in range(m)]
    squares = tuple(SquareEq(u, w) for u, w in zip(us, ws))
    linear = []
    for i in range(1, m - 1):  # second difference at positions 2..m-1
        linear.append(LinearEq({us[i + 1]: 1, us[i]: -2, us[i - 1]: 1}, -2))
    linear.append(LinearEq({q: 1, us[0]: -1}, 0))
    linear.append(LinearEq({us[1]: 1, us[0]: -1, t: -2}, -1))
    trace = []
    for i, (u, w) in enumerate(zip(us, ws)):
        trace.append(("shift", w, t, i))
        trace.append(("square", u, w))
    return GadgetBlock(variables=tuple(us) + tuple(ws),
                       linear=tuple(linear),
                       squares=squares,
                       trace=tuple(trace))


def compile_system(system: SourceSystem, m: int = 5) -> TargetSystem:
    """parse -> three-address -> multiplication elimination -> gadgets.

    Deterministic: variable names come from monotone counters in traversal
    order, so compiling the same source twice is byte-identical.
    """
    check_m(m)
    inter = eliminate_mul(lower_tac(system))
    guard("GADGET_BUDGET", m * len(inter.squarings), GADGET_BUDGET, "M * squarings")
    variables = list(inter.variables)
    linear = list(inter.linear)
    squares: list[SquareEq] = []
    trace = list(inter.trace)
    for i, sq in enumerate(inter.squarings):
        block = encode_square(sq.t, sq.q, m, m * i)
        variables.extend(block.variables)
        linear.extend(block.linear)
        squares.extend(block.squares)
        trace.extend(block.trace)
    meta = {
        "M": m,
        "conditional": f"BP(Z,{m})",
        "note": ("solutions of the source system lift to this system "
                 "unconditionally; the converse holds if every length-M "
                 "integer square sequence with second difference 2 is a "
                 "run of consecutive squares"),
    }
    return TargetSystem(source_vars=system.variables,
                        variables=tuple(variables),
                        linear=tuple(linear),
                        squares=tuple(squares),
                        buchi_m=m,
                        meta=meta,
                        trace=tuple(trace))


def validate_target(target: TargetSystem) -> None:
    """Structural validator for the diagonal form.

    Checks that the data model is coherent and that each SQUARE
    right-hand side is a fresh witness: it appears in its own equation
    and nowhere else, so no square ties two accessible variables.
    """
    declared = set(target.variables)
    if len(declared) != len(target.variables):
        raise ValueError("duplicate variable declaration")
    if not set(target.source_vars) <= declared:
        raise ValueError("source variables must be declared")
    for eq in target.linear:
        for v, c in eq.coeffs.items():
            if v not in declared:
                raise ValueError(f"linear equation uses undeclared {v!r}")
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError("linear coefficients must be integers")
        if not isinstance(eq.const, int) or isinstance(eq.const, bool):
            raise ValueError("linear constant must be an integer")
    witness_seen: set[str] = set()
    for sq in target.squares:
        if sq.lhs not in declared or sq.rhs not in declared:
            raise ValueError("square equation uses undeclared variables")
        if sq.rhs in witness_seen:
            raise ValueError(f"square witness {sq.rhs!r} reused")
        witness_seen.add(sq.rhs)
    if witness_seen & set(target.source_vars):
        raise ValueError("square witness collides with a source variable")
    for eq in target.linear:
        used = witness_seen & set(eq.coeffs)
        if used:
            raise ValueError(f"square witness {sorted(used)[0]!r} appears in a linear equation")
    for sq in target.squares:
        if sq.lhs in witness_seen:
            raise ValueError(f"square witness {sq.lhs!r} used as a squared value")


def translate_witness(system: SourceSystem, target: TargetSystem,
                      witness: dict[str, int]) -> dict[str, int]:
    """Extend a solution of the source system to an exact solution of the
    target system (the unconditional direction)."""
    env = {}
    for v in system.variables:
        if v not in witness:
            raise ValueError(f"witness is missing variable {v!r}")
        env[v] = int(witness[v])
    if not filter_rows(system.equations, {v: (x,) for v, x in env.items()}, 1):
        raise ValueError("witness does not satisfy the source system")
    full = target.extend(env)
    if not target.satisfied(full):
        raise ArithmeticError("internal error: lifted witness fails the target")
    return full


class EquisatReport(Record):
    """Exhaustive box check of the source/target correspondence.

    forward: every source solution in the box lifts to an exact target
    solution.  agreement: for every assignment in the box (solution or
    not), the forced extension satisfies the target exactly when the
    assignment satisfies the source.  The backward direction over the
    whole derived box additionally needs the gadget collapse, certified
    here by an exhaustive sequence search below the derived bound.
    """

    __slots__ = ("box", "assignments", "source_solutions", "lifted", "agreements",
                 "solutions", "derived_w_bound", "nontrivial_gadget_sequences")

    @property
    def passed(self) -> bool:
        return (self.lifted == self.source_solutions
                and self.agreements == self.assignments
                and self.nontrivial_gadget_sequences == 0)


class CheckSchedule(Record):
    """How bounded_equisat runs a target's trace on a block of rows.

    shared: the steps run at every row, those the first equation needs and
    those that assign a value t some gadget witness shifts.  needs: for
    each equation in order, linear then square, the steps it needs that no
    step before it assigned, in trace order.  shifts: (t, least, greatest
    shift constant) for each shifted t.  block_rows: the rows of a block,
    BLOCK_CELLS over the columns held at every row (the source variables
    and shared's), and at least one."""

    __slots__ = ("shared", "needs", "shifts", "block_rows")


def check_schedule(target: TargetSystem) -> CheckSchedule:
    """The schedule bounded_equisat runs target's trace by."""
    trace = target.trace
    pending = {step[1]: i for i, step in enumerate(trace)}
    disjoint = pending.keys().isdisjoint

    def needed(variables) -> tuple:
        # the steps, in trace order, that force variables and that no
        # earlier call returned
        if disjoint(variables):
            return ()
        stack, found = [*variables], []
        while stack:
            i = pending.pop(stack.pop(), None)
            if i is not None:
                found.append(i)
                stack += trace[i][2:]
        found.sort()
        return tuple([trace[i] for i in found])

    constants: dict[str, list[int]] = {}
    for step in trace:
        if step[0] == "shift":
            constants.setdefault(step[2], []).append(step[3])
    shifts = tuple((t, min(cs), max(cs)) for t, cs in constants.items())
    first = target.linear[0].coeffs if target.linear else ()
    shared = needed([*first, *constants])
    needs = (*[needed(eq.coeffs) for eq in target.linear],
             *[needed((sq.lhs, sq.rhs)) for sq in target.squares])
    width = len(target.source_vars) + len(shared)
    return CheckSchedule(shared=shared, needs=needs, shifts=shifts,
                         block_rows=max(1, BLOCK_CELLS // width))


def bounded_equisat(system: SourceSystem, target: TargetSystem, box: int) -> EquisatReport:
    """Enumerate all source assignments in [-box, box]^k and check both
    directions of the correspondence at desk scale.  Refuses before
    enumerating when the work exceeds CHECK_WORK_BUDGET, and at once a box
    where some gadget witness exceeds W_BOUND_BUDGET.

    The assignments run in product order, in blocks of the target's
    check_schedule(target).block_rows: each block is one column per
    variable, and its trace runs on demand, each equation's steps only
    at the rows that satisfy the equations before it (_check_block)."""
    if box < 1:
        raise ValueError("box must be >= 1")
    guard("MAX_BOX", box, MAX_BOX, "box")
    k = len(system.variables)
    guard("MAX_SOURCE_VARS", k, MAX_SOURCE_VARS, "source variables")
    schedule = check_schedule(target)
    count = (2 * box + 1) ** k
    work = (count + BLOCK_COST * -(-count // schedule.block_rows)) * (
        system.size + len(target.trace) + len(target.linear) + len(target.squares))
    guard("CHECK_WORK_BUDGET", work, CHECK_WORK_BUDGET, "check work")
    assignments = product(range(-box, box + 1), repeat=k)
    solutions: list[dict[str, int]] = []
    lifted = 0
    agreements = 0
    total = 0
    w_bound = 0

    while block := list(islice(assignments, schedule.block_rows)):
        sat, holds, largest_w = _check_block(system, target, schedule, block)
        agreements += len(block) - len(set(sat).symmetric_difference(holds))
        lifted += len(set(sat).intersection(holds))
        solutions.extend(dict(zip(system.variables, block[i])) for i in sat)
        total += len(block)
        w_bound = max(w_bound, largest_w)

    nontrivial = 0
    if schedule.shifts:
        from .. import sequences  # only this certificate needs the search
        found = sequences.search(target.buchi_m, max(w_bound, 1))
        nontrivial = len(found)
    return EquisatReport(box=box,
                         assignments=total,
                         source_solutions=len(solutions),
                         lifted=lifted,
                         agreements=agreements,
                         solutions=solutions,
                         derived_w_bound=w_bound,
                         nontrivial_gadget_sequences=nontrivial)


def _check_block(system: SourceSystem, target: TargetSystem, schedule: CheckSchedule,
                 block: list[tuple]) -> tuple[list[int], list[int], int]:
    """For a block of source assignments: the rows that solve the source,
    the rows whose forced extension satisfies the target, and the largest
    gadget witness |w|.  Only the schedule's shared steps run at every
    row; the rest run where the equations before them hold.  A |w| above
    W_BOUND_BUDGET is refused at the first row that has one, with that
    row's largest |w|, as a running maximum over the assignments in order
    would be."""
    rows = len(block)
    columns = dict(zip(system.variables, zip(*block)))
    sat = filter_rows(system.equations, dict(columns), rows)  # the trace needs every row
    env = run_trace(schedule.shared, columns, rows)
    largest = _witness_bound(env, schedule.shifts)
    if largest > W_BOUND_BUDGET:
        # a row's largest |w| is at its t's least or greatest shift
        ends = [tuple(map(add, env[t], repeat(c)))
                for t, least, greatest in schedule.shifts for c in (least, greatest)]
        for row in zip(*ends):
            guard("W_BOUND_BUDGET", max(map(abs, row)), W_BOUND_BUDGET, "gadget witness bound")
    return sat, filter_rows(chain(target.linear, target.squares), env, rows,
                            schedule.needs), largest


def _witness_bound(env: dict[str, Sequence[int]], shifts: Sequence[tuple]) -> int:
    """The largest |t + c| over the rows of env's columns, for each (t,
    least, greatest) of shifts and c from least to greatest: |x + c| is
    convex, so it is largest at t's least or greatest value, shifted by
    least or greatest."""
    return max((max(abs(min(env[t]) + least), abs(max(env[t]) + greatest))
                for t, least, greatest in shifts), default=0)


def filter_rows(equations: Iterable, env: dict[str, Sequence[int]], rows: int,
                needs: Iterable[tuple] = repeat(())) -> list[int]:
    """The rows, ascending indices into env's columns of `rows` values, at
    which every equation holds.  The equations are checked in order, each
    by its residual and only at the rows that satisfy the ones before it,
    so a source equation's powers are refused only at such rows.  needs,
    from a CheckSchedule, holds for each equation the steps run_trace
    assigns before it is checked; without them env must hold every
    variable.  When rows drop, env's columns are compressed to the rows
    left, in place."""
    alive = range(rows)
    for steps, eq in zip(needs, equations):
        if steps:
            run_trace(steps, env, len(alive))
        residual = eq.residual(env, len(alive))
        if any(residual):
            keep = list(map(not_, residual))
            alive = list(compress(alive, keep))
            if not alive:
                break
            for v, column in env.items():
                env[v] = tuple(compress(column, keep))
    return list(alive)
