"""Command-line entry point.

Subcommands: seq {search,verify}, surface {check,line,scan,family},
padic {norm,zeros,pjf,ldl,fmt,smt,delta}, compile, check, formulas.

Each subcommand's words, help and flags are declared once, on its handler,
by the @_command decorator; build_parser builds the argparse tree from that
list, so a new subcommand is one decorated handler.

Output is deterministic for fixed inputs; --json selects the machine
format.  Rationals are printed as "num/den" strings, never as floats.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import guard

# Each handler imports the modules it runs, so that an invocation loads
# only those of its subcommand.

# Longest number, in characters, of a list argument, --rho or --a: an output
# multiplies at most about three, short of CPython's 4300-digit str() limit.
MAX_ARG_DIGITS = 1000


# (words, help, flags, handler) of each subcommand, in the order of the
# handlers below and of --help.  A flag is (name, add_argument keyword
# arguments); the constants are the flags that several subcommands share.
_COMMANDS: list = []
_GROUPS = {"seq": "square-sequence operations", "surface": "quadric surface operations",
           "padic": "exact p-adic value distribution"}
JSON = ("--json", {"action": "store_true", "help": "machine-readable output"})
P = ("--p", {"type": int, "required": True})
NUM = ("--num", {"required": True, "help": "numerator polynomial in z"})
DEN = ("--den", {"default": "", "help": "denominator polynomial in z (default 1)"})
POLY, RHO, RHOS, A, DELTAS, POINT = (
    ("--" + name, {"required": True}) for name in ("poly", "rho", "rhos", "a", "deltas", "point"))
IN = ("--in", {"required": True, "dest": "infile"})
M = ("--m", {"type": int, "default": 5})


def _command(words: str, summary: str, *flags):
    """Register the decorated handler as the subcommand `words`."""
    def register(handler):
        _COMMANDS.append((words.split(), summary, flags, handler))
        return handler
    return register


def _rat(text: str):
    from .exact import as_fraction
    guard("MAX_ARG_DIGITS", len(text), MAX_ARG_DIGITS, "characters of a number")
    return as_fraction(text)


def _rat_list(text: str) -> list:
    return [_rat(part) for part in text.split(",") if part != ""]


def _numbers(text: str) -> list[str]:
    """The numbers of a comma-separated list, unconverted, refused when one
    has more than MAX_ARG_DIGITS characters."""
    parts = [part for part in text.split(",") if part != ""]
    guard("MAX_ARG_DIGITS", max(map(len, parts), default=0), MAX_ARG_DIGITS,
          "characters of a number")
    return parts


def _int_list(text: str) -> list[int]:
    parts = _numbers(text)
    for part in parts:
        if not re.fullmatch("-?[0-9]+", part):
            raise ValueError(f"{part!r} is not an integer")
    return [int(part) for part in parts]


def _emit(args, payload: dict, human) -> None:
    """Print payload as JSON under --json, else human: the text, or a
    function that builds it when the text costs time to build."""
    if args.json:
        print(json.dumps(payload))
    else:
        print(human() if callable(human) else human)


def _ratfunc(args, num_attr: str = "num", den_attr: str = "den"):
    from . import nevanlinna
    from .reduction.parser import parse_poly
    from .symbolic import UPoly
    num = parse_poly(getattr(args, num_attr))
    den_text = getattr(args, den_attr, None)
    den = parse_poly(den_text) if den_text else UPoly.constant(1)
    return nevanlinna.quotient(num, den)


@_command("seq search", "exhaustive nontrivial sequence search",
          ("--length", {"type": int, "required": True}),
          ("--bound", {"type": int, "required": True}), JSON)
def _cmd_seq_search(args) -> None:
    from . import sequences
    results = sequences.search(args.length, args.bound)
    values = [list(seq.values) for seq in results]
    payload = {"length": args.length, "bound": args.bound, "nontrivial": values}
    _emit(args, payload, lambda: "\n".join(",".join(map(str, vs)) for vs in values)
          or "no nontrivial sequences")


@_command("seq verify", "verify and classify a sequence",
          ("values", {"help": "comma-separated integers, e.g. 6,23,32,39"}), JSON)
def _cmd_seq_verify(args) -> None:
    from . import sequences
    values = _int_list(args.values)
    if not sequences.is_buchi(values):
        _emit(args, {"values": values, "is_buchi": False, "trivial": None,
                     "nu": None}, "buchi: no")
        return
    seq = sequences.BuchiSequence(values)
    witness = sequences.classify_trivial(seq)
    if witness is None:
        _emit(args, {"values": values, "is_buchi": True, "trivial": False,
                     "nu": None}, "buchi: yes, nontrivial")
    else:
        _emit(args, {"values": values, "is_buchi": True, "trivial": True,
                     "nu": witness.nu}, f"buchi: yes, trivial (nu={witness.nu})")


@_command("surface check", "point membership", DELTAS, POINT, JSON)
def _cmd_surface_check(args) -> None:
    from . import surfaces
    surface = surfaces.BuchiSurface(_rat_list(args.deltas))
    point = surfaces.ProjectivePoint(_rat_list(args.point))
    on_surface = surfaces.contains(surface, point)
    payload = {"deltas": [str(d) for d in surface.deltas],
               "point": [str(c) for c in point.coords],
               "contains": on_surface}
    _emit(args, payload, f"on surface: {'yes' if on_surface else 'no'}")


@_command("surface line", "trivial-line membership", DELTAS, POINT, JSON)
def _cmd_surface_line(args) -> None:
    from . import surfaces
    surface = surfaces.BuchiSurface(_rat_list(args.deltas))
    point = surfaces.ProjectivePoint(_rat_list(args.point))
    witness = surfaces.trivial_line_member(surface, point)
    if witness is None:
        _emit(args, {"on_trivial_line": False, "signs": None, "nu": None},
              "not on a trivial line")
    else:
        nu = None if witness.nu is None else str(witness.nu)
        signs = list(witness.signs)
        _emit(args, {"on_trivial_line": True, "signs": signs, "nu": nu},
              f"trivial line: signs={signs} nu={nu}")


@_command("surface scan", "bounded-height candidate scan",
          ("--nodes", {"required": True}), ("--height", {"type": int, "required": True}),
          ("--integers-only", {"action": "store_true"}), JSON)
def _cmd_surface_scan(args) -> None:
    from . import surfaces
    nodes = surfaces.EvaluationNodes(_rat_list(args.nodes))
    found = surfaces.scan_exceptional(nodes, args.height,
                                      integers_only=args.integers_only)
    payload = {
        "nodes": [str(a) for a in nodes.nodes],
        "height": args.height,
        "integers_only": args.integers_only,
        "label": "candidates up to the height bound; no completeness implied",
        "count": len(found),
        "candidates": [{"u": str(f.u), "v": str(f.v)} for f in found],
        "growth": {"height": args.height, "count": len(found)},
    }
    human = "\n".join([f"{len(found)} candidate(s) up to height {args.height}"]
                      + [f"u={f.u} v={f.v}" for f in found])
    _emit(args, payload, human)


@_command("surface family", "the factorial counterexample family",
          ("--N", {"type": int, "required": True}), JSON)
def _cmd_surface_family(args) -> None:
    from . import surfaces
    f, nodes, roots = surfaces.counterexample_family(args.N)
    payload = {"N": args.N, "f": {"u": str(f.u), "v": str(f.v)},
               "nodes": [str(a) for a in nodes],
               "roots": [str(r) for r in roots]}
    human = (f"f = x^2 + ({f.u})*x + ({f.v})\n"
             f"nodes: {','.join(str(a) for a in nodes)}\n"
             f"roots: {','.join(str(r) for r in roots)}")
    _emit(args, payload, human)


@_command("padic norm", "Gauss log-norm of a polynomial", P, POLY, RHO, JSON)
def _cmd_padic_norm(args) -> None:
    from . import nevanlinna
    from .reduction.parser import parse_poly
    poly = parse_poly(args.poly)
    value = nevanlinna.gauss_log_norm(poly, args.p, _rat(args.rho))
    _emit(args, {"p": args.p, "rho": args.rho, "log_norm": str(value)}, str(value))


@_command("padic zeros", "zero count in a ball", P, POLY, RHO, JSON)
def _cmd_padic_zeros(args) -> None:
    from . import nevanlinna
    from .reduction.parser import parse_poly
    poly = parse_poly(args.poly)
    rho = _rat(args.rho)
    polygon = nevanlinna.newton_polygon(poly, args.p)
    count = nevanlinna.count_zeros(poly, args.p, rho)
    payload = {"p": args.p, "rho": args.rho, "count": count,
               "newton_polygon": [{"slope": str(s.slope), "length": s.length}
                                  for s in polygon.segments]}
    _emit(args, payload, str(count))


@_command("padic pjf", "log|f| = N(0) - N(inf) + C", P, NUM, DEN, RHOS, JSON)
def _cmd_padic_pjf(args) -> None:
    from . import nevanlinna
    f = _ratfunc(args)
    rhos = _numbers(args.rhos)  # check_pjf refuses too many before converting them
    constant = nevanlinna.check_pjf(f, args.p, rhos)
    payload = {"p": args.p, "rhos": [str(_rat(r)) for r in rhos], "constant": str(constant)}
    _emit(args, payload, f"C = {constant}")


@_command("padic ldl", "derivative quotient norm bound", P, NUM, DEN,
          ("--n", {"type": int, "default": 1}), RHO, JSON)
def _cmd_padic_ldl(args) -> None:
    from . import nevanlinna
    f = _ratfunc(args)
    holds = nevanlinna.check_ldl(f, args.n, args.p, _rat(args.rho))
    _emit(args, {"p": args.p, "n": args.n, "rho": args.rho, "holds": holds},
          f"ldl: {'true' if holds else 'false'}")


@_command("padic fmt", "first-main-theorem defect report", P, NUM, DEN, A, RHOS, JSON)
def _cmd_padic_fmt(args) -> None:
    from . import nevanlinna
    f = _ratfunc(args)
    report = nevanlinna.check_fmt(f, _rat(args.a), args.p, _numbers(args.rhos))
    payload = {"p": args.p, "a": args.a,
               "grid": [str(r) for r in report.grid],
               "defects": [str(v) for v in report.values],
               "spread": str(report.spread),
               "stable_beyond": str(report.stable_beyond),
               "eventual_slope": str(report.eventual_slope),
               "eventual_defect": str(report.eventual_value),
               "passed": report.passed}
    human = (f"spread {report.spread}; defect is {report.eventual_value} for "
             f"rho > {report.stable_beyond}; passed: {report.passed}")
    _emit(args, payload, human)


@_command("padic smt", "second-main-theorem sum report", P, NUM, DEN,
          ("--targets", {"required": True}), RHOS, JSON)
def _cmd_padic_smt(args) -> None:
    from . import nevanlinna
    f = _ratfunc(args)
    # check_smt weighs the targets and radii before converting either
    report = nevanlinna.check_smt(f, _numbers(args.targets), args.p, _numbers(args.rhos))
    payload = {"p": args.p,
               "targets": [str(t) for t in report.targets],
               "grid": [str(r) for r in report.grid],
               "values": [str(v) for v in report.values],
               "sup": str(report.sup),
               "stable_beyond": str(report.stable_beyond),
               "eventual_slope": str(report.eventual_slope),
               "passed": report.passed}
    human = (f"sup {report.sup}; eventual slope {report.eventual_slope}; "
             f"passed: {report.passed}")
    _emit(args, payload, human)


@_command("padic delta", "discriminant factorization identity",
          ("--f-num", {"required": True}), ("--f-den", {"default": ""}),
          ("--u-num", {"required": True}), ("--u-den", {"default": ""}), A, JSON)
def _cmd_padic_delta(args) -> None:
    from . import nevanlinna
    f = _ratfunc(args, "f_num", "f_den")
    u = _ratfunc(args, "u_num", "u_den")
    holds = nevanlinna.delta_identity(f, u, _rat(args.a))
    _emit(args, {"holds": holds}, f"delta identity: {'true' if holds else 'false'}")


def _read_source(path: str):
    from .reduction.parser import parse
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


@_command("compile", "compile a system to diagonal quadratic form", IN, M,
          ("--emit", {"choices": ("json", "text"), "default": "text"}))
def _cmd_compile(args) -> None:
    from .reduction import compiler
    system = _read_source(args.infile)
    target = compiler.compile_system(system, m=args.m)
    compiler.validate_target(target)
    if args.emit == "json":
        print(target.to_json())
    else:
        print(target.to_text(), end="")


@_command("check", "bounded equisatisfiability check", IN, M,
          ("--box", {"type": int, "required": True}), JSON)
def _cmd_check(args) -> None:
    from .reduction import compiler
    system = _read_source(args.infile)
    target = compiler.compile_system(system, m=args.m)
    compiler.validate_target(target)
    report = compiler.bounded_equisat(system, target, args.box)
    payload = {
        "box": report.box,
        "assignments": report.assignments,
        "source_solutions": report.source_solutions,
        "lifted": report.lifted,
        "agreements": report.agreements,
        "derived_w_bound": report.derived_w_bound,
        "nontrivial_gadget_sequences": report.nontrivial_gadget_sequences,
        "passed": report.passed,
        "solutions": [{k: v for k, v in sorted(sol.items())}
                      for sol in report.solutions],
    }
    human = (f"{report.source_solutions} solution(s) in box {report.box}, "
             f"{report.lifted} lifted exactly; "
             f"agreement on {report.agreements}/{report.assignments} assignments; "
             f"gadget certificate: {report.nontrivial_gadget_sequences} nontrivial "
             f"sequence(s) below bound {report.derived_w_bound}; "
             f"{'PASS' if report.passed else 'FAIL'}")
    _emit(args, payload, human)


@_command("formulas", "print the defining formulas",
          ("--mode", {"required": True, "choices": ("F", "G", "H", "Psi")}),
          ("--m", {"type": int}),  # default formulas.DEFAULT_M, read when run
          ("--deltas", {"default": ""}), JSON)
def _cmd_formulas(args) -> None:
    from .reduction import formulas
    m = formulas.DEFAULT_M if args.m is None else args.m
    deltas = _rat_list(args.deltas) if args.deltas else None
    text = formulas.print_formulas(args.mode, m=m, deltas=deltas)
    _emit(args, {"mode": args.mode, "m": m, "text": text}, text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buchi",
        description="exact workbench: square sequences, quadric surfaces, "
                    "p-adic value distribution, diagonal quadratic reduction")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for words, summary, flags, handler in _COMMANDS:
        choices = sub
        if len(words) == 2:  # a group's subcommand: the group's parser comes first
            group = words[0]
            if group not in groups:
                groups[group] = sub.add_parser(group, help=_GROUPS[group]).add_subparsers(
                    dest="subcommand", required=True)
            choices = groups[group]
        p = choices.add_parser(words[-1], help=summary)
        for name, kwargs in flags:
            p.add_argument(name, **kwargs)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except (ValueError, ArithmeticError, ZeroDivisionError, OSError) as exc:
        print(f"buchi: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
