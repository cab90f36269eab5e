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
from dataclasses import dataclass, field
from itertools import product

from .. import sequences
from .lower import LinearEq, eliminate_mul, lower_tac, run_trace
from .parser import SourceSystem, evaluate


@dataclass(frozen=True)
class SquareEq:
    """lhs - rhs**2 = 0; rhs is a fresh witness variable."""

    lhs: str
    rhs: str


@dataclass
class TargetSystem:
    source_vars: tuple[str, ...]
    variables: tuple[str, ...]
    linear: tuple[LinearEq, ...]
    squares: tuple[SquareEq, ...]
    buchi_m: int
    meta: dict
    trace: tuple
    counters: dict = field(default_factory=dict)

    def extend(self, assignment: dict[str, int]) -> dict[str, int]:
        """Forced values of every variable given the source variables."""
        return run_trace(self.trace, {v: int(assignment[v]) for v in self.source_vars})

    def satisfied(self, env: dict[str, int]) -> bool:
        return (all(eq.residual(env) == 0 for eq in self.linear)
                and all(env[sq.lhs] == env[sq.rhs] ** 2 for sq in self.squares))

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


@dataclass(frozen=True)
class GadgetBlock:
    variables: tuple[str, ...]
    linear: tuple[LinearEq, ...]
    squares: tuple[SquareEq, ...]
    trace: tuple


def encode_square(t: str, q: str, m: int,
                  u_names: list[str] | None = None,
                  w_names: list[str] | None = None) -> GadgetBlock:
    """Second-difference gadget tying q to t**2 through M square witnesses.

    Emits M SQUARE equations u_i = w_i**2, the M-2 second-difference
    equations, and the two linear ties q = u_1 and u_2 - u_1 = 2t + 1.
    """
    if m < 3:
        raise ValueError("gadget length must be >= 3")
    us = u_names if u_names is not None else [f"u{i}" for i in range(1, m + 1)]
    ws = w_names if w_names is not None else [f"w{i}" for i in range(1, m + 1)]
    if len(us) != m or len(ws) != m:
        raise ValueError("need exactly m names for u and for w")
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
    if m < 3:
        raise ValueError("gadget length must be >= 3")
    inter = eliminate_mul(lower_tac(system))
    variables = list(inter.variables)
    linear = list(inter.linear)
    squares: list[SquareEq] = []
    trace = list(inter.trace)
    u_counter = 0
    w_counter = 0
    for sq in inter.squarings:
        us = [f"_u{u_counter + i}" for i in range(m)]
        ws = [f"_w{w_counter + i}" for i in range(m)]
        u_counter += m
        w_counter += m
        block = encode_square(sq.t, sq.q, m, us, ws)
        variables.extend(block.variables)
        linear.extend(block.linear)
        squares.extend(block.squares)
        trace.extend(block.trace)
    counters = dict(inter.counters)
    counters["gadgets"] = len(inter.squarings)
    counters["gadget_vars"] = 2 * m * len(inter.squarings)
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
                        trace=tuple(trace),
                        counters=counters)


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
    for eq in system.equations:
        if evaluate(eq.expr, env) != 0:
            raise ValueError("witness does not satisfy the source system")
    full = target.extend(env)
    if not target.satisfied(full):
        raise ArithmeticError("internal error: lifted witness fails the target")
    return full


@dataclass
class EquisatReport:
    """Exhaustive box check of the source/target correspondence.

    forward: every source solution in the box lifts to an exact target
    solution.  agreement: for every assignment in the box (solution or
    not), the forced extension satisfies the target exactly when the
    assignment satisfies the source.  The backward direction over the
    whole derived box additionally needs the gadget collapse, certified
    here by an exhaustive sequence search below the derived bound.
    """

    box: int
    assignments: int
    source_solutions: int
    lifted: int
    agreements: int
    solutions: list[dict[str, int]]
    derived_w_bound: int
    nontrivial_gadget_sequences: int

    @property
    def passed(self) -> bool:
        return (self.lifted == self.source_solutions
                and self.agreements == self.assignments
                and self.nontrivial_gadget_sequences == 0)


def bounded_equisat(system: SourceSystem, target: TargetSystem, box: int) -> EquisatReport:
    """Enumerate all source assignments in [-box, box]^k and check both
    directions of the correspondence at desk scale."""
    if box < 1:
        raise ValueError("box must be >= 1")
    if box > 50:
        raise ValueError("box > 50 refused (resource guard)")
    k = len(system.variables)
    if k > 4:
        raise ValueError("more than 4 source variables refused (resource guard)")
    if (2 * box + 1) ** k > 2_000_000:
        raise ValueError("assignment box too large for exhaustive search (resource guard)")
    values = range(-box, box + 1)
    w_vars = [step[1] for step in target.trace if step[0] == "shift"]
    solutions: list[dict[str, int]] = []
    lifted = 0
    agreements = 0
    total = 0
    w_bound = 0

    for combo in product(values, repeat=k):
        env = dict(zip(system.variables, combo))
        total += 1
        sat = all(evaluate(eq.expr, env) == 0 for eq in system.equations)
        full = target.extend(env)
        holds = target.satisfied(full)
        if holds == sat:
            agreements += 1
        for w in w_vars:
            if abs(full[w]) > w_bound:
                w_bound = abs(full[w])
        if sat:
            solutions.append(dict(env))
            lifted += holds

    nontrivial = 0
    if w_vars:
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
