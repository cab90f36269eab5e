"""Hypothesis fuzz test of the `buchi` command, run in-process.

Each example is an argv drawn from the argparse grammar of one
subcommand: every option it may take, with a value from a strategy chosen
by the option's type and destination.  The values include sizes at and
just past each README budget and number text near the 4300 digits that
CPython converts between int and str.  Each call must exit with 0, 1 or
2, let no exception escape `main`, print no CPython-internal message,
word every resource-guard refusal in the one format that names a README
constant, and finish within DEADLINE."""

import argparse
import contextlib
import io
import re
import time
from math import isqrt

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from buchi.cli import MAX_ARG_DIGITS, build_parser, main
from buchi.reduction.compiler import GADGET_BUDGET
from buchi.reduction.formulas import MAX_M
from buchi.reduction.parser import MAX_CONSTANT_BITS, MAX_DEPTH, MAX_EXPONENT, MAX_TOKENS
from buchi.surfaces import SCAN_GRID_BUDGET, _grid_side
from test_budgets import readme_table

BUDGETS = readme_table()
# CPU seconds one call may take.  The budgets are sized for about 1 s
# in-process on a 2-vCPU VM, and their slowest admitted edge (the rational
# scan at its grid edge) takes 1.3-1.4 s there, seq search at its bound
# 0.45 s; a call past twice that has a cost model that misses its work.
DEADLINE = 2.0
GUARD = re.compile(r"buchi: error: (?:line \d+, column \d+: )?\S.* (?:\d+|of \d+ bits) "
                   r"> (\w+) = (\d+) refused \(resource guard\)")
INTERNAL = ("exceeds the limit", "set_int_max_str_digits", "recursion", "invalid literal")


def leaves(parser: argparse.ArgumentParser, path: tuple = ()):
    """(subcommand words, parser) of each leaf of the argparse tree."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path, parser
    for action in subparsers:
        for name, sub in action.choices.items():
            yield from leaves(sub, path + (name,))


COMMANDS = dict(leaves(build_parser()))


def near(*values: int) -> set[int]:
    return {v + d for v in values for d in (-1, 0, 1)}


# Integer options: small values, each budget and the heights at the edge
# of both scan grids, one below and one past, and text of about 4300
# digits, which argparse may not convert.
GRID_EDGE = max(h for h in range(1, 100) if _grid_side(h, False) ** 2 <= SCAN_GRID_BUDGET)
INTEGERS = st.one_of(
    st.integers(-2, 8).map(str),
    st.sampled_from(sorted(near(GRID_EDGE, (isqrt(SCAN_GRID_BUDGET) - 1) // 2,
                                *(value for _, value in BUDGETS.values())))).map(str),
    st.sampled_from(["9" * 4299, "9" * 4300, "9" * 4301, "-" + "9" * 4300]))

# Numbers of list options, --rho and --a.
NUMBERS = st.one_of(
    st.integers(-9, 9).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(0, 4)),
    st.sampled_from(["7" * (MAX_ARG_DIGITS - 1), "7" * MAX_ARG_DIGITS,
                     "-" + "7" * MAX_ARG_DIGITS, "1/" + "3" * (MAX_ARG_DIGITS - 2),
                     "9" * 4299, "9" * 4301, "1/" + "3" * 4400, "1.5", "1e3", "z", ""]))
LISTS = st.lists(NUMBERS, min_size=1, max_size=5).map(",".join)

LITERALS = [str(2 ** MAX_CONSTANT_BITS - 1), str(2 ** MAX_CONSTANT_BITS), "9" * 4299,
            "9" * 4301, "0" * 5000 + "5"]
EXPONENTS = ["0", "1", "2", "3", "200", "201", str(MAX_EXPONENT), str(MAX_EXPONENT + 1),
             "9" * 4301]


def shapes(v: str) -> list[str]:
    """Expressions in v at and past the depth and token budgets."""
    deep = MAX_DEPTH // 4
    flat = MAX_TOKENS // 2
    return (["(" * n + v + ")" * n for n in (deep, deep + 1)]
            + ["-" * n + v for n in (MAX_DEPTH, MAX_DEPTH + 1)]
            + [op.join([v] * n) for op in "+*" for n in (flat - 1, flat, flat + 1)])


def expressions(names: list[str]):
    leaf = st.one_of(st.sampled_from(names), st.integers(0, 30).map(str),
                     st.sampled_from(LITERALS))
    tree = st.recursive(leaf, lambda inner: st.one_of(
        st.builds("{}{}{}".format, inner, st.sampled_from(["+", "-", "*"]), inner),
        st.builds("({})^{}".format, inner, st.sampled_from(EXPONENTS)),
        st.builds("-({})".format, inner)), max_leaves=6)
    return st.one_of(tree, st.sampled_from(shapes(names[-1])))


def squares(terms: int) -> str:
    return "x = " + "+".join(f"(a+{i})^2" for i in range(1, terms + 1))


SOURCES = st.one_of(
    st.builds("x = {}".format, expressions(["y", "z"])),
    st.builds("{} = {}".format, expressions(["x", "y"]), expressions(["a", "b"])),
    st.sampled_from(["x*y = z", "x*y = 6; x + y = 5", "x + = 3", "", "_t0 = 1", "x = 2²",
                     "x = é", squares(10), squares(GADGET_BUDGET // MAX_M),
                     squares(GADGET_BUDGET // MAX_M + 1)]))

# Values of the options that are not integers, by destination; --in
# takes SOURCE, which the test replaces by a file holding a SOURCES text.
SOURCE = "{source}"
VALUES = {"poly": expressions(["z"]), "rho": NUMBERS, "a": NUMBERS, "infile": st.just(SOURCE)}
VALUES.update(dict.fromkeys(("num", "den", "f_num", "f_den", "u_num", "u_den"), VALUES["poly"]))
VALUES.update(dict.fromkeys(("values", "deltas", "point", "nodes", "rhos", "targets"), LISTS))


def value(action: argparse.Action):
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    return INTEGERS if action.type is int else VALUES[action.dest]


@st.composite
def invocations(draw, words: tuple):
    """argv for the subcommand `words`, and the source text that a
    --in option names, if it has one."""
    argv = list(words)
    for action in COMMANDS[words]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.required and not draw(st.booleans()):
            continue
        if action.nargs == 0:
            argv.append(action.option_strings[0])
        elif action.option_strings:
            argv.append(f"{action.option_strings[0]}={draw(value(action))}")
        else:
            argv.append(draw(value(action)))
    if draw(st.integers(0, 9)) == 0:  # now and then a usage error
        argv.append("--no-such-flag")
    return argv, draw(SOURCES) if f"--in={SOURCE}" in argv else None


@pytest.mark.parametrize("words", sorted(COMMANDS), ids=" ".join)
@settings(max_examples=15, derandomize=True, database=None, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(data=st.data())
def test_cli_fuzz(tmp_path, words, data):
    argv, source = data.draw(invocations(words))
    if source is not None:
        path = tmp_path / "fuzz.dioph"
        path.write_text(source, encoding="utf-8")
        argv = [a.replace(SOURCE, str(path)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # anything main lets escape is a failure
            pytest.fail(f"{type(exc).__name__} escaped main: {exc!s:.200}")
    elapsed = time.process_time() - start
    shown = " ".join(a if len(a) < 60 else f"<{len(a)} chars>" for a in argv)
    assert code in (0, 1, 2), shown
    text = err.getvalue()
    assert not any(word in text.lower() for word in INTERNAL), (shown, text[:300])
    for line in text.splitlines():
        if "(resource guard)" in line:
            match = GUARD.fullmatch(line)
            assert match and match[1] in BUDGETS, (shown, line[:300])
            assert int(match[2]) == BUDGETS[match[1]][1], (shown, line[:300])
    assert elapsed < DEADLINE, (shown, elapsed)
