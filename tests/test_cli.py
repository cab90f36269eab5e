import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from buchi import cli
from buchi.cli import MAX_ARG_DIGITS, _int, build_parser, main
from buchi.nevanlinna import RADII_BUDGET
from buchi.reduction.compiler import CHECK_WORK_BUDGET, GADGET_BUDGET
from buchi.reduction.formulas import MAX_M
from buchi.reduction.parser import (MAX_CONSTANT_BITS, MAX_DEPTH, MAX_EXPONENT,
                                    MAX_POLY_DEGREE, MAX_TOKENS)
from buchi.symbolic import QUOTIENT_GCD_BUDGET
from helpers import (DEEP_SHAPES, FLAT_LENGTH, dense_poly, forbid_ratfunc_arithmetic,
                     mixed_nesting)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


GOLDEN = Path(__file__).parent / "golden"
FLOAT_LITERAL = re.compile(r"\d\.\d")


class TestSeq:
    def test_verify_nontrivial(self, capsys):
        code, out, _ = run(capsys, "seq", "verify", "6,23,32,39")
        assert code == 0 and out.strip() == "buchi: yes, nontrivial"

    def test_verify_trivial(self, capsys):
        code, out, _ = run(capsys, "seq", "verify", "2,1,0,1,2")
        assert code == 0 and out.strip() == "buchi: yes, trivial (nu=-3)"

    def test_verify_negative(self, capsys):
        code, out, _ = run(capsys, "seq", "verify", "1,2,4")
        assert code == 0 and out.strip() == "buchi: no"

    def test_verify_too_short_is_domain_error(self, capsys):
        code, _, err = run(capsys, "seq", "verify", "1,2")
        assert code == 1 and "buchi: error" in err

    def test_verify_reads_ascii_integers_only(self, capsys):
        # each number is -?[0-9]+, as in a source; not int()'s syntax
        for part in ("1_0", "٣", "1.5", "1e3", "+5", " 6"):
            code, out, err = run(capsys, "seq", "verify", f"{part},23,32,39")
            assert (code, out, err) == (1, "", f"buchi: error: {part!r} is not an integer\n")
        code, out, _ = run(capsys, "seq", "verify", "6,-023,32,39")
        assert code == 0 and out.strip() == "buchi: yes, nontrivial"

    def test_search_json_schema(self, capsys):
        payload = run_json(capsys, "seq", "search", "--length", "4",
                           "--bound", "100", "--json")
        assert payload["length"] == 4 and payload["bound"] == 100
        assert [6, 23, 32, 39] in payload["nontrivial"]

    def test_search_empty(self, capsys):
        payload = run_json(capsys, "seq", "search", "--length", "5",
                           "--bound", "500", "--json")
        assert payload["nontrivial"] == []

    # (sha256, bytes) of stdout, pinned from the search over every factor
    # pair of every a**2 - 1, which ran before the loop over the smaller
    # factor: the output stays byte for byte the same.
    @pytest.mark.parametrize("length, bound, json_flag, sha256, size", [
        (3, 2030, True, "95688d5cb40fb207d0adf7e4e826ce047a070ed9b14238f285cc265ba86832da", 111359),
        (4, 2057, True, "f99586db09ac0aa7d7739c252f178475a50298a4b0866038710ee08f1c9616e4", 1147),
        (5, 1981, True, "12986a9c33aa22e039abcdd1ed6378e5f3ec7de35f15900beec2fafd92a253c9", 47),
        (3, 1927, False, "3a15ab1d0cee6aeec2e1d5d07ccc2e6f763407417cd41d3ce717e93af7915c1d", 74787),
    ])
    def test_search_golden_stdout(self, capsys, length, bound, json_flag, sha256, size):
        code, out, err = run(capsys, "seq", "search", "--length", str(length),
                             "--bound", str(bound), *(["--json"] if json_flag else []))
        data = out.encode()
        assert (code, err) == (0, "")
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (sha256, size)

    def test_search_bound_guard(self, capsys):
        t0 = time.monotonic()
        code, out, err = run(capsys, "seq", "search", "--length", "3",
                             "--bound", "1000000")
        assert code == 1 and out == "" and "(resource guard)" in err
        assert time.monotonic() - t0 < 1


class TestSurface:
    def test_check(self, capsys):
        code, out, _ = run(capsys, "surface", "check", "--deltas", "1,2,3",
                           "--point", "1,6,23,32,39")
        assert code == 0 and "yes" in out
        payload = run_json(capsys, "surface", "check", "--deltas", "1,2",
                           "--point", "1,0,0,1", "--json")
        assert payload["contains"] is False

    def test_line(self, capsys):
        payload = run_json(capsys, "surface", "line", "--deltas", "1,2",
                           "--point", "1,1,2,3", "--json")
        assert payload == {"on_trivial_line": True, "signs": [1, 1, 1], "nu": "1"}

    def test_scan_labels_candidates(self, capsys):
        payload = run_json(capsys, "surface", "scan", "--nodes", "1,2,3,4",
                           "--height", "10", "--json")
        assert payload["count"] == 0
        assert "candidates" in payload["label"]
        assert "growth" in payload

    def test_scan_height_guard(self, capsys):
        t0 = time.monotonic()
        code, out, err = run(capsys, "surface", "scan", "--nodes", "1,2,3",
                             "--height", "100000", "--integers-only")
        assert code == 1 and out == "" and "(resource guard)" in err
        assert time.monotonic() - t0 < 1

    def test_scan_grid_guard(self, capsys):
        # a pair of 3314-bit nodes counts 415 times, so their grid of
        # height 40 is refused at once
        for nodes, height in (("1/2,1,3", "100"), ("1/" + "3" * 998 + ",1,3", "40")):
            t0 = time.monotonic()
            code, out, err = run(capsys, "surface", "scan", f"--nodes={nodes}",
                                 "--height", height)
            assert code == 1 and out == "" and "(resource guard)" in err
            assert time.monotonic() - t0 < 1

    # --json stdout at the two budget edges, pinned from the grid and the
    # square window the scan ran before its residue sieve
    @pytest.mark.parametrize("argv, golden", [
        (["--nodes=1/2,1,3", "--height", "40"], "scan.half13.h40.json"),
        (["--nodes", "1,2,3,4", "--height", "5000", "--integers-only"], "scan.1234.h5000.json"),
    ])
    def test_scan_golden_json(self, capsys, argv, golden):
        code, out, err = run(capsys, "surface", "scan", *argv, "--json")
        assert (code, err) == (0, "")
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_family(self, capsys):
        payload = run_json(capsys, "surface", "family", "--N", "2", "--json")
        assert payload["f"] == {"u": "0", "v": "-96"}
        assert payload["nodes"] == ["25", "14"]
        assert payload["roots"] == ["23", "10"]

    def test_family_guard(self, capsys):
        t0 = time.monotonic()
        code, out, err = run(capsys, "surface", "family", "--N", "780")
        assert code == 1 and out == "" and "(resource guard)" in err
        assert time.monotonic() - t0 < 1

    def test_check_and_line_linear_in_deltas(self, capsys):
        deltas = ",".join(str(k) for k in range(1, 2001))
        on = "1,0," + ",".join(str(k) for k in range(1, 2001))
        off = "1,0," + ",".join(str(k) for k in range(1, 2000)) + ",2001"
        t0 = time.monotonic()
        code, out, _ = run(capsys, "surface", "check", "--deltas", deltas, "--point", on)
        assert code == 0 and out.strip() == "on surface: yes"
        code, out, _ = run(capsys, "surface", "check", "--deltas", deltas, "--point", off)
        assert code == 0 and out.strip() == "on surface: no"
        payload = run_json(capsys, "surface", "line", "--deltas", deltas, "--point", on,
                           "--json")
        assert payload == {"on_trivial_line": True, "signs": [1] * 2001, "nu": "0"}
        assert time.monotonic() - t0 < 1

    def test_rational_deltas(self, capsys):
        payload = run_json(capsys, "surface", "check", "--deltas", "1/2,3/2",
                           "--point", "1,0,1/2,3/2", "--json")
        assert payload["contains"] in (True, False)

    def test_float_input_rejected(self, capsys):
        code, _, err = run(capsys, "surface", "check", "--deltas", "1.5,2",
                           "--point", "1,1,2,3")
        assert code == 1 and "float" in err


class TestPadic:
    def test_norm(self, capsys):
        code, out, _ = run(capsys, "padic", "norm", "--p", "2",
                           "--poly", "1+2*z", "--rho", "3")
        assert code == 0 and out.strip() == "2"

    def test_exponent_notation_rejected(self, capsys):
        code, out, err = run(capsys, "padic", "norm", "--p", "2", "--poly", "z",
                             "--rho", "1e3")
        assert code == 1 and out == "" and "float" in err

    def test_composite_or_uncertified_prime_rejected(self, capsys):
        # a strong pseudoprime to bases 2..37, then the first n the bases
        # 2..41 cannot certify
        for p in ("318665857834031151167461", "3317044064679887385961981"):
            code, out, err = run(capsys, "padic", "norm", "--p", p,
                                 "--poly", "z", "--rho", "1")
            assert code == 1 and out == "" and "buchi: error" in err

    def test_poly_refused_where_it_stands(self, capsys):
        for poly, message in (("z²", "line 1, column 2: unexpected character '²'"),
                              ("z + 3*y", "line 1, column 7: unknown variable 'y'")):
            code, out, err = run(capsys, "padic", "norm", "--p", "2", "--poly", poly,
                                 "--rho", "1")
            assert code == 1 and out == "" and err.startswith(f"buchi: error: {message}"), err

    def test_zeros(self, capsys):
        payload = run_json(capsys, "padic", "zeros", "--p", "2",
                           "--poly", "z^2-2*z", "--rho", "0", "--json")
        assert payload["count"] == 2
        assert payload["newton_polygon"] == [{"slope": "1", "length": 1}]

    def test_pjf(self, capsys):
        payload = run_json(capsys, "padic", "pjf", "--p", "5",
                           "--num", "5*z^2", "--rhos", "0,1,2", "--json")
        assert payload["constant"] == "-1"

    def test_zero_denominator_refused(self, capsys):
        # RatFunc's ZeroDivisionError is an ArithmeticError, which main reports
        for den in ("0", "z-z"):
            code, out, err = run(capsys, "padic", "pjf", "--p", "3", "--num", "z",
                                 "--den", den, "--rhos", "0,1")
            assert (code, out, err) == (1, "", "buchi: error: zero denominator\n")

    def test_ldl(self, capsys):
        payload = run_json(capsys, "padic", "ldl", "--p", "3", "--num", "z^2",
                           "--n", "1", "--rho", "1", "--json")
        assert payload["holds"] is True

    def test_ldl_order_guard(self, capsys):
        # a cost of more than the 4300 digits CPython prints is given by
        # its bits
        for n, cost in (("1000", "2000"), ("9" * 4300, "of 14286 bits")):
            t0 = time.monotonic()
            code, out, err = run(capsys, "padic", "ldl", "--p", "3", "--num", "1",
                                 "--den", "z^2+z+1", "--n", n, "--rho", "1")
            assert code == 1 and out == ""
            assert err == (f"buchi: error: n * max(1, deg den) {cost} > LDL_BUDGET = 40 "
                           "refused (resource guard)\n")
            assert time.monotonic() - t0 < 1

    def test_poly_degree_guard(self, capsys):
        t0 = time.monotonic()
        code, out, err = run(capsys, "padic", "norm", "--p", "3",
                             "--poly", "(z+2)^1000+1", "--rho", "1")
        assert code == 1 and out == "" and "(resource guard)" in err
        assert time.monotonic() - t0 < 1

    def test_poly_coefficient_guard(self, capsys):
        t0 = time.monotonic()
        code, out, err = run(capsys, "padic", "norm", "--p", "3", "--poly",
                             "(4611686018427387903*z+4611686018427387903)^200",
                             "--rho", "1")
        assert code == 1 and out == "" and "(resource guard)" in err
        assert time.monotonic() - t0 < 1
        code, out, _ = run(capsys, "padic", "norm", "--p", "3",
                           "--poly", "(z+2)^200+1", "--rho", "1")
        assert code == 0 and out.strip() == "200"

    def test_quotient_gcd_guard(self, capsys):
        # pjf and fmt read f as stored and run no gcd, so they answer; ldl
        # weighs the stored denominator, of degree 200 > LDL_BUDGET; smt's
        # N(f, inf) reads f's canonical form, refused before the gcd (60 s)
        polys = ("--p", "3", "--num", "(z+1)^200+z", "--den", "(2*z+5)^200+1")
        for extra, answer in (
                (("pjf", "--rhos", "0,1"), (0, "C = 0\n", "")),
                (("fmt", "--a", "1", "--rhos", "0,1"),
                 (0, "spread 0; defect is 0 for rho > 1/199; passed: True\n", "")),
                (("ldl", "--rho", "1"), (1, "", "buchi: error: n * max(1, deg den) 200 > "
                                         "LDL_BUDGET = 40 refused (resource guard)\n")),
                (("smt", "--targets", "1", "--rhos", "0,1"),
                 (1, "", f"buchi: error: quotient gcd size 22320000 > QUOTIENT_GCD_BUDGET = "
                         f"{QUOTIENT_GCD_BUDGET} refused (resource guard)\n"))):
            t0 = time.monotonic()
            assert run(capsys, "padic", extra[0], *polys, *extra[1:]) == answer
            assert time.monotonic() - t0 < 1

    @pytest.mark.parametrize("command, out", [
        ("ldl --p 3 --num (z+1)^200+z --den (z+3)^40 --rho 1", "ldl: true"),
        ("zeros --p 2 --poly (262144*z+262144)^200 --rho 1", "200"),
        ("norm --p 2 --poly (262144*z+262144)^200 --rho 1", "-3400"),
        ("pjf --p 2 --num (262144*z+262144)^200+z --den (262144*z+1)^200+1 --rhos=0,1",
         "C = -3599"),
        ("ldl --p 2 --num (262144*z+262144)^200 --den (262144*z+262144)^40 --rho 1",
         "ldl: true")])
    def test_large_quotients_and_valuations(self, capsys, command, out):
        # no gcd of f's parts runs, and coefficients of p-adic valuation
        # up to 3,600 are read in O(log v) divisions each
        t0 = time.monotonic()
        assert run(capsys, "padic", *command.split()) == (0, out + "\n", "")
        assert time.monotonic() - t0 < 1

    @pytest.mark.parametrize("f_num, f_den, u_num, u_den", [
        ("(z+1)^40", "(z-2)^40", "(z+3)^40", "(2*z+5)^40"),
        ("(z+1)^200", "", "(z+3)^200", "")])
    def test_delta_guard(self, capsys, f_num, f_den, u_num, u_den):
        # the identity is one grid certificate, whatever the size of f and
        # u, and reads no canonical form, so no guard refuses them
        t0 = time.monotonic()
        code, out, err = run(capsys, "padic", "delta", f"--f-num={f_num}", f"--f-den={f_den}",
                             f"--u-num={u_num}", f"--u-den={u_den}", "--a", "1")
        assert (code, out, err) == (0, "delta identity: true\n", "")
        assert time.monotonic() - t0 < 1

    @pytest.mark.parametrize("d", [8, 20, 37, 38])
    def test_delta_binomial_family(self, capsys, d):
        # (z+3)^d/(2*z+5)^d is past QUOTIENT_GCD_BUDGET from d = 38, but
        # delta runs no gcd
        t0 = time.monotonic()
        code, out, err = run(capsys, "padic", "delta", f"--f-num=(z+1)^{d}",
                             f"--f-den=(z-2)^{d}", f"--u-num=(z+3)^{d}",
                             f"--u-den=(2*z+5)^{d}", "--a", "1")
        assert (code, out, err) == (0, "delta identity: true\n", "")
        assert time.monotonic() - t0 < 1

    def test_fmt(self, capsys):
        payload = run_json(capsys, "padic", "fmt", "--p", "2", "--num", "z-1",
                           "--den", "z", "--a", "1", "--rhos=-3,-1,0,2,5",
                           "--json")
        assert payload["passed"] is True
        assert payload["eventual_slope"] == "0"

    def test_smt(self, capsys):
        payload = run_json(capsys, "padic", "smt", "--p", "5", "--num", "1",
                           "--den", "z", "--targets", "1,2,3",
                           "--rhos=-2,-1,0,1,2", "--json")
        assert payload["passed"] is True

    @pytest.mark.parametrize("command, weight, extra", [
        ("pjf", 1, []), ("fmt", 2, ["--a=1"]), ("smt", 1, ["--targets=1"])])
    def test_radii_budget(self, capsys, command, weight, extra):
        # at degree 200 the most radii RADII_BUDGET admits run; one more,
        # and 65,000 (a 130 kB argument, under Linux's 128 KiB limit on
        # one), are refused before any radius is converted
        edge = RADII_BUDGET // (weight * (200 + 40) + 240) - 20
        for radii, refused in ((edge, False), (edge + 1, True), (65_000, True)):
            t0 = time.monotonic()
            code, out, err = run(capsys, "padic", command, "--p", "3", "--num", "(z+1)^200",
                                 "--den", "z+2", "--rhos=" + ",".join(["0"] * radii), *extra)
            if refused:
                assert code == 1 and out == ""
                assert f"> RADII_BUDGET = {RADII_BUDGET} refused (resource guard)" in err
                assert time.monotonic() - t0 < 1
            else:
                assert code == 0 and out, err

    def test_radii_budget_weighs_targets_first(self, capsys):
        # 20,000 targets (a 109 kB argument) with one radius are refused
        # before any target is converted, so a duplicate or a target that
        # is no number among them meets the budget's refusal first
        targets = [str(t) for t in range(1, 20_001)]
        for bad in ([], ["1"], ["x"]):
            t0 = time.monotonic()
            code, out, err = run(capsys, "padic", "smt", "--p", "3", "--num", "(z+1)^200",
                                 "--den", "z+2", "--rhos=0", "--targets=" + ",".join(targets + bad))
            assert code == 1 and out == ""
            assert f"> RADII_BUDGET = {RADII_BUDGET} refused (resource guard)" in err
            assert time.monotonic() - t0 < 0.1

    def test_delta(self, capsys):
        payload = run_json(capsys, "padic", "delta", "--f-num", "z",
                           "--u-num", "z^2", "--a", "1", "--json")
        assert payload["holds"] is True

    def test_nonprime_rejected(self, capsys):
        code, _, err = run(capsys, "padic", "norm", "--p", "6",
                           "--poly", "z", "--rho", "0")
        assert code == 1 and "prime" in err


class TestCompileCheck:
    def test_compile_json_round_trip(self, capsys, tmp_path):
        src = tmp_path / "sys.dioph"
        src.write_text("x*y = 6; x + y = 5\n")
        code, out, _ = run(capsys, "compile", "--in", str(src),
                           "--m", "5", "--emit", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"vars", "linear", "squares", "meta"}
        assert payload["meta"]["M"] == 5
        assert payload["meta"]["conditional"] == "BP(Z,5)"
        assert all(set(sq) == {"lhs", "rhs"} for sq in payload["squares"])

    def test_compile_text(self, capsys, tmp_path):
        src = tmp_path / "sys.dioph"
        src.write_text("x^2 = 4\n")
        code, out, _ = run(capsys, "compile", "--in", str(src))
        assert code == 0
        assert "square:" in out and "linear:" in out

    def test_compile_linear_size(self, capsys, tmp_path):
        src = tmp_path / "sys.dioph"
        src.write_text("x = (a+b+c+d)^4096\n")
        t0 = time.monotonic()
        payload = run_json(capsys, "compile", "--in", str(src), "--emit", "json")
        assert time.monotonic() - t0 < 1
        assert len(payload["vars"]) < 200

    def test_reserved_names_refused(self, capsys, tmp_path):
        src = tmp_path / "sys.dioph"
        src.write_text("x*y = _t0\n")
        code, out, err = run(capsys, "check", "--in", str(src), "--box", "2")
        assert code == 1 and out == ""
        assert "reserved for the target variables _t, _u and _w" in err
        src.write_text("x*t0 = u_1\n")
        code, out, _ = run(capsys, "compile", "--in", str(src))
        assert code == 0 and "t0" in out and "u_1" in out

    def test_constant_budget(self, capsys, tmp_path):
        src = tmp_path / "sys.dioph"
        for text in ("x = (9^4096)^2\n", "x = ((9^4096)^4096)^4096\n"):
            src.write_text(text)
            t0 = time.monotonic()
            code, out, err = run(capsys, "compile", "--in", str(src))
            assert code == 1 and out == "" and "(resource guard)" in err
            assert time.monotonic() - t0 < 1

    def test_gadget_bound_guard(self, capsys, tmp_path):
        src = tmp_path / "sys.dioph"
        src.write_text("x = (a+b)^12\n")
        t0 = time.monotonic()
        code, out, err = run(capsys, "check", "--in", str(src), "--box", "3")
        assert code == 1 and out == "" and "(resource guard)" in err
        assert time.monotonic() - t0 < 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "compile", "--in", "missing.dioph")
        assert code == 1 and "buchi: error" in err

    def test_check(self, capsys, tmp_path):
        src = tmp_path / "sys.dioph"
        src.write_text("x*x = 4\n")
        payload = run_json(capsys, "check", "--in", str(src),
                           "--box", "10", "--json")
        assert payload["passed"] is True
        assert payload["source_solutions"] == 2
        assert sorted(s["x"] for s in payload["solutions"]) == [-2, 2]

    def test_check_unsat(self, capsys, tmp_path):
        src = tmp_path / "sys.dioph"
        src.write_text("x*x = 3\n")
        payload = run_json(capsys, "check", "--in", str(src),
                           "--box", "10", "--json")
        assert payload["passed"] is True and payload["source_solutions"] == 0

    @pytest.mark.parametrize("command", ["compile", "check"])
    def test_m_budget(self, capsys, tmp_path, command):
        src = tmp_path / "sys.dioph"
        src.write_text("x = y^2\n")
        box = ["--box", "1"] if command == "check" else []
        code, out, _ = run(capsys, command, "--in", str(src), "--m", str(MAX_M), *box)
        assert code == 0 and out
        for m in (MAX_M + 1, 10 ** 7):
            t0 = time.monotonic()
            code, out, err = run(capsys, command, "--in", str(src), "--m", str(m), *box)
            assert code == 1 and out == "" and "(resource guard)" in err
            assert time.monotonic() - t0 < 1

    @pytest.mark.parametrize("command", ["compile", "check"])
    def test_gadget_budget(self, capsys, tmp_path, command):
        # M times squarings may not exceed GADGET_BUDGET, at M = MAX_M or
        # in a long flat sum; (a+k)^2 is one squaring, (a+k)^4096 twelve
        def squares(terms: int, k: int) -> str:
            return "x = " + "+".join(f"(a+{i})^{k}" for i in range(1, terms + 1)) + "\n"

        src = tmp_path / "sys.dioph"
        box = ["--box", "1"] if command == "check" else []
        for text, m, refused in ((squares(10, 2), MAX_M, False),
                                 (squares(GADGET_BUDGET // MAX_M + 1, 2), MAX_M, True),
                                 (squares(GADGET_BUDGET // 60 + 1, 4096), 5, True)):
            src.write_text(text)
            t0 = time.monotonic()
            code, out, err = run(capsys, command, "--in", str(src), "--m", str(m), *box)
            assert time.monotonic() - t0 < 1
            if refused:
                assert code == 1 and out == "" and "(resource guard)" in err
            else:
                assert code == 0 and out, err

    def test_check_work_budget(self, capsys, tmp_path):
        # x*y = z is 6 tokens and compiles to 68 trace steps and
        # equations: box 18 is 37**3 * 74 = 3.7 * 10**6 steps, box 19 4.4;
        # a long constant sum folds away in the target, but evaluation
        # still visits every term
        assert 37 ** 3 * 74 <= CHECK_WORK_BUDGET < 39 ** 3 * 74
        src = tmp_path / "sys.dioph"
        ones = "+".join(["1"] * 2000)
        # every assignment of a*b*c*d = d*c*b*a is a solution and runs the
        # whole trace, so a cost of shared steps only would admit box 9 (~4 s)
        for text, box in (("x*y = z", 19), ("x*y = z", 50), (f"x = y + ({ones})", 50),
                          ("a*b*c*d = d*c*b*a", 9)):
            src.write_text(text + "\n")
            t0 = time.monotonic()
            code, out, err = run(capsys, "check", "--in", str(src), "--box", str(box))
            assert code == 1 and out == "" and "(resource guard)" in err
            assert time.monotonic() - t0 < 1
        src.write_text("x*y = z\n")
        payload = run_json(capsys, "check", "--in", str(src), "--box", "3", "--json")
        assert payload["passed"] is True and payload["assignments"] == 7 ** 3
        # a target of 98,246 variables runs one row per block and pays a
        # block's fixed cost for each; it is refused after its compile
        src.write_text("x = " + "*".join(["z"] * 4095) + "\n")
        code, out, err = run(capsys, "check", "--in", str(src), "--box", "1")
        assert code == 1 and out == "" and "> CHECK_WORK_BUDGET = " in err

    def test_check_work_budget_caps_the_assignments(self, capsys, tmp_path):
        # every source has at least 4 tokens, the end of input counted, so
        # CHECK_WORK_BUDGET refuses any box of more than 10**6 assignments
        # and no separate cap on them is needed
        assert 4 * 10 ** 6 >= CHECK_WORK_BUDGET and 39 ** 4 > 2 * 10 ** 6
        src = tmp_path / "sys.dioph"
        src.write_text("a = b + c + d\n")
        t0 = time.monotonic()
        code, out, err = run(capsys, "check", "--in", str(src), "--box", "19")
        assert code == 1 and out == "" and "(resource guard)" in err
        assert time.monotonic() - t0 < 1

    def test_golden_compile_text(self, capsys):
        # a source that mixes signs, nested parentheses, constant products
        # and powers keeps the text the binary-tree parser compiled it to
        code, out, err = run(capsys, "compile", "--in", str(GOLDEN / "mixed.dioph"),
                             "--m", "3", "--emit", "text")
        assert code == 0, err
        assert out == (GOLDEN / "mixed.m3.txt").read_text(encoding="utf-8")

    def test_golden_check_json(self, capsys):
        # a cubic system of the benchmark's shape keeps the report the
        # check printed one assignment at a time
        code, out, err = run(capsys, "check", "--in", str(GOLDEN / "cubic.dioph"),
                             "--box", "7", "--json")
        assert code == 0, err
        assert out == (GOLDEN / "cubic.box7.json").read_text(encoding="utf-8")

    def test_golden_check_failing_json(self, capsys):
        # at M = 3, with gadget values t from -30 to 420, the witness bound
        # is 422 and the gadget certificate fails: the report printed when
        # the whole trace ran at every row
        code, out, err = run(capsys, "check", "--in", str(GOLDEN / "mixed.dioph"),
                             "--m", "3", "--box", "10", "--json")
        assert code == 0, err
        assert out == (GOLDEN / "mixed.m3.box10.json").read_text(encoding="utf-8")

    def test_parse_error_exit_code(self, capsys, tmp_path):
        src = tmp_path / "sys.dioph"
        src.write_text("x + = 3\n")
        code, _, err = run(capsys, "compile", "--in", str(src))
        assert code == 1 and "column 5" in err

    @pytest.mark.parametrize("command", ["compile", "check"])
    def test_non_ascii_refused_where_it_stands(self, capsys, tmp_path, command):
        src = tmp_path / "sys.dioph"
        for text, message in (("x = 2²", "line 1, column 6: unexpected character '²'"),
                              ("x = ٣", "line 1, column 5: unexpected character '٣'"),
                              ("é = 1", "line 1, column 1: unexpected character 'é'")):
            src.write_text(text + "\n", encoding="utf-8")
            code, out, err = run(capsys, command, "--in", str(src), *(
                ["--box", "1"] if command == "check" else []))
            assert (code, out, err) == (1, "", f"buchi: error: {message}\n")


def _expr_argv(command: str, expr: str, src) -> list[str]:
    """argv that runs `command` on the expression expr, through
    x = expr in the file src for compile and check."""
    src.write_text(f"x = {expr}\n")
    return {"padic": ["padic", "norm", "--p", "3", f"--poly={expr}", "--rho", "1"],
            "compile": ["compile", "--in", str(src)],
            "check": ["check", "--in", str(src), "--box", "1"]}[command]


class TestDepthGuard:
    @pytest.mark.parametrize("command", ["padic", "compile", "check"])
    @pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
    def test_inside_and_past_the_limit(self, capsys, tmp_path, shape, command):
        # parentheses and signs at the most levels MAX_DEPTH allows, and
        # one more; a flat sum or product is not limited by MAX_DEPTH
        cost, deep = DEEP_SHAPES[shape]
        sizes = (((FLAT_LENGTH, False),) if cost is None else
                 ((MAX_DEPTH // cost, False), (MAX_DEPTH // cost + 1, True)))
        for size, refused in sizes:
            argv = _expr_argv(command, deep(size), tmp_path / "deep.dioph")
            t0 = time.monotonic()
            code, out, err = run(capsys, *argv)
            assert time.monotonic() - t0 < 1
            if refused:
                assert code == 1 and out == "" and "(resource guard)" in err
            else:
                assert code == 0 and out, err

    @pytest.mark.parametrize("command", ["padic", "compile", "check"])
    def test_token_budget(self, capsys, tmp_path, command):
        # a product of 10**5 factors is refused as its tokens are read,
        # before any tree is built
        assert 2 * 10 ** 5 > MAX_TOKENS
        argv = _expr_argv(command, "*".join(["z"] * 10 ** 5), tmp_path / "long.dioph")
        t0 = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - t0 < 1
        assert code == 1 and out == ""
        assert (f"tokens {MAX_TOKENS + 1} > MAX_TOKENS = {MAX_TOKENS} "
                "refused (resource guard)") in err

    @pytest.mark.parametrize("command", ["padic", "compile", "check"])
    def test_literal_and_exponent_budgets(self, capsys, tmp_path, command):
        # a literal of MAX_CONSTANT_BITS bits is read; one more bit, or a
        # literal or exponent of more digits than CPython converts, is
        # refused as it is tokenized, and an exponent past MAX_EXPONENT
        # as it is parsed
        edge = 2 ** MAX_CONSTANT_BITS
        code, out, err = run(capsys, *_expr_argv(command, str(edge - 1), tmp_path / "n.dioph"))
        assert code == 0 and out, err
        for expr, name in ((f"{edge}*z", "MAX_CONSTANT_BITS"),
                           ("9" * 5000 + "*z", "MAX_CONSTANT_BITS"),
                           ("z^" + "9" * 5000, "MAX_CONSTANT_BITS"),
                           (f"z^{MAX_EXPONENT + 1}", "MAX_EXPONENT")):
            argv = _expr_argv(command, expr, tmp_path / "n.dioph")
            t0 = time.monotonic()
            code, out, err = run(capsys, *argv)
            assert time.monotonic() - t0 < 1
            assert code == 1 and out == "" and "Exceeds the limit" not in err
            assert re.search(rf"column \d+: .* > {name} = \d+ refused \(resource guard\)$",
                             err.strip()), err[:200]

    @pytest.mark.parametrize("command", ["padic", "compile", "check"])
    def test_mixed_nesting_at_the_limit(self, capsys, tmp_path, command):
        # a power of a sum of products in MAX_DEPTH // 4 parentheses: no
        # walk of its tree raises a RecursionError
        argv = _expr_argv(command, mixed_nesting(MAX_DEPTH // 4), tmp_path / "deep.dioph")
        code, out, err = run(capsys, *argv)
        assert code == 0 and out, err

    def test_dense_poly_and_long_sum(self, capsys, tmp_path):
        # a dense polynomial of the top degree and a sum of 300 terms
        # with coefficients and powers
        code, out, err = run(capsys, "padic", "norm", "--p", "3",
                             f"--poly={dense_poly(MAX_POLY_DEGREE)}", "--rho", "1")
        assert code == 0 and out, err
        src = tmp_path / "sum.dioph"
        src.write_text("x = " + "+".join(f"{k + 2}*y^{k % 4}" for k in range(300)) + "\n")
        for argv in (["compile", "--in", str(src)],
                     ["check", "--in", str(src), "--box", "1"]):
            code, out, err = run(capsys, *argv)
            assert code == 0 and out, err


class TestFormulasCommand:
    def test_formulas_text(self, capsys):
        code, out, _ = run(capsys, "formulas", "--mode", "F", "--m", "35")
        assert code == 0 and out.count("∃") == 35

    def test_m_budget(self, capsys):
        code, out, _ = run(capsys, "formulas", "--mode", "F", "--m", str(MAX_M))
        assert code == 0 and out.count("∃") == MAX_M
        for mode in ("F", "G", "H"):
            t0 = time.monotonic()
            code, out, err = run(capsys, "formulas", "--mode", mode, "--m", "1000000")
            assert code == 1 and out == "" and "(resource guard)" in err
            assert time.monotonic() - t0 < 1

    def test_formulas_psi(self, capsys):
        code, out, _ = run(capsys, "formulas", "--mode", "Psi",
                           "--deltas", "1,2,3")
        assert code == 0 and "P2(c1)" in out


class TestNumberArguments:
    def test_digit_budget(self, capsys):
        # each number of a list argument, --rho and --a is refused past
        # MAX_ARG_DIGITS characters, before CPython's 4300-digit limit on
        # conversion is reached
        for argv in (["seq", "verify", "5" * 5000 + ",1,2"],
                     ["padic", "norm", "--p", "3", "--poly", "z^200", "--rho", "9" * 4299],
                     ["padic", "fmt", "--p", "2", "--num", "z-1", "--a", "1/" + "3" * 4400,
                      "--rhos", "0,1"],
                     ["formulas", "--mode", "Psi", "--deltas", "1," + "7" * 2200]):
            t0 = time.monotonic()
            code, out, err = run(capsys, *argv)
            assert time.monotonic() - t0 < 1
            assert code == 1 and out == ""
            assert err.strip().endswith(
                f"> MAX_ARG_DIGITS = {MAX_ARG_DIGITS} refused (resource guard)"), err[:200]

    def test_argument_at_the_limit(self, capsys):
        long = "7" * MAX_ARG_DIGITS
        code, out, err = run(capsys, "formulas", "--mode", "Psi", "--deltas", f"1,{long}")
        assert code == 0 and str(int(long) * (int(long) - 1)) in out, err[:200]
        code, out, err = run(capsys, "seq", "verify", f"{long},1,2")
        assert code == 0 and out.strip() == "buchi: no"
        code, out, err = run(capsys, "padic", "norm", "--p", "3", "--poly", "z^200",
                             "--rho", long)
        assert code == 0 and out.strip() == str(200 * int(long))
        code, out, err = run(capsys, "formulas", "--mode", "Psi", "--deltas", f"1,{long}7")
        assert code == 1 and "MAX_ARG_DIGITS" in err

    @pytest.mark.parametrize("text", ["1_1", "٣", " 1_0", "+3"])
    def test_integer_options_read_ascii_digits_only(self, capsys, text):
        # -?[0-9]+, as every other number: not int()'s syntax
        for argv, flag in ((["padic", "norm", "--poly", "z", "--rho", "1", "--p"], "--p"),
                           (["seq", "search", "--length", "4", "--bound"], "--bound"),
                           (["check", "--in", "x.dioph", "--box"], "--box")):
            code, out, err = run(capsys, *argv, text)
            assert (code, out) == (2, "")
            assert err.endswith(f": error: argument {flag}: invalid int value: {text!r}\n")
        code, out, _ = run(capsys, "seq", "search", "--length", "3", "--bound", "010", "--json")
        assert code == 0 and json.loads(out)["bound"] == 10
        code, _, err = run(capsys, "padic", "norm", "--poly", "z", "--rho", "1", "--p=-03")
        assert (code, err) == (1, "buchi: error: -3 is not prime\n")


class TestHarness:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["seq", "search", "--length", "4"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_no_float_literals_anywhere(self, capsys):
        commands = [
            ["seq", "search", "--length", "4", "--bound", "100", "--json"],
            ["seq", "verify", "6,23,32,39", "--json"],
            ["surface", "check", "--deltas", "1/2,3/2",
             "--point", "2,0,1,3", "--json"],
            ["padic", "pjf", "--p", "3", "--num", "z^2-9", "--den", "z",
             "--rhos=-2,1/2,3", "--json"],
            ["formulas", "--mode", "Psi", "--deltas", "1,2", "--json"],
        ]
        for argv in commands:
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert not FLOAT_LITERAL.search(out), (argv, out)

    def test_json_outputs_parse_back(self, capsys):
        for argv in (["seq", "verify", "0,1,2", "--json"],
                     ["surface", "line", "--deltas", "1,2",
                      "--point", "0,1,1,1", "--json"],
                     ["padic", "zeros", "--p", "3", "--poly", "z-3",
                      "--rho", "-1", "--json"]):
            payload = run_json(capsys, *argv)
            assert isinstance(payload, dict)


def parsers(parser: argparse.ArgumentParser, path: tuple = ()):
    """(subcommand words, parser) of every parser of the argparse tree:
    the root, each group and each leaf."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from parsers(sub, path + (name,))


README_CLI = re.search(r"## CLI\n\n```\n(.*?)```",
                       (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8"),
                       re.S).group(1).splitlines()


# Each line of the README's CLI block as argv, with --emit json.
README_ARGV = [["json" if w == "json|text" else w for w in shlex.split(line)[1:]
                if w != "[--json]"] for line in README_CLI]
LEAVES = sorted(path for path, parser in parsers(build_parser()) if parser.get_default("func"))


class TestParserTree:
    # sha256 of the help text, handler and actions of all 20 parsers: a
    # change to how the tree is declared must leave every flag as it was
    TREE = "6ee78b343eb3720c69acc52b5282c6274415c330c491a69cac819ad6e47d9c09"

    def test_tree_is_unchanged(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
        digest = hashlib.sha256()
        tree = list(parsers(build_parser()))
        for path, parser in tree:
            func = parser.get_default("func")
            digest.update(repr((path, parser.format_help(),
                                func and func.__name__)).encode("utf-8"))
            for a in parser._actions:
                digest.update(repr((a.dest, a.option_strings, getattr(a.type, "__name__", None),
                                    a.default, a.required,
                                    a.choices and list(a.choices), a.help)).encode("utf-8"))
        assert len(tree) == 20
        assert digest.hexdigest() == self.TREE

    def test_readme_cli_block_parses(self):
        # every line parses as written, no file being read at parse time,
        # and every leaf subcommand is shown at least once
        parser = build_parser()
        shown = set()
        for line in README_CLI:
            words = shlex.split(line.replace(" [--json]", ""))
            assert words[0] == "buchi", line
            for choice in ("json", "text"):
                argv = [choice if w == "json|text" else w for w in words[1:]]
                shown.add(parser.parse_args(argv).func)
        leaves = {sub.get_default("func") for _, sub in parsers(parser)} - {None}
        assert len(leaves) == 16 and leaves <= shown

    @pytest.mark.parametrize("words", LEAVES, ids=" ".join)
    def test_parser_of_one_subcommand_matches_the_tree(self, monkeypatch, words):
        # what main builds from a subcommand's argv parses it as the whole
        # tree does: the same help, Namespace, messages and exit status
        monkeypatch.setenv("COLUMNS", "80")
        example = next(argv for argv in README_ARGV if tuple(argv[:len(words)]) == words)
        full, alone = build_parser(), build_parser(example)
        assert [path for path, _ in parsers(alone)] == [words[:n] for n in range(len(words) + 1)]
        assert dict(parsers(alone))[words].format_help() == dict(parsers(full))[words].format_help()
        cases = [example, [*words, "-h"], list(words), [*example, "--no-such-flag"]]
        cases += [[*example, f"{a.option_strings[0]}=1_1"]
                  for a in dict(parsers(full))[words]._actions if a.type is _int][:1]
        for argv in cases:
            assert parsed(build_parser(argv), argv) == parsed(full, argv), argv
        assert parsed(full, example)[3] is not None

    def test_whole_tree_unless_argv_names_one_subcommand(self, monkeypatch):
        for argv in ([], ["-h"], ["padic"], ["padic", "nope"], ["nope", "pjf"], ["-h", "padic"]):
            assert len(list(parsers(build_parser(argv)))) == 20, argv
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda argv=None: built.append(argv) or
                            build_parser(argv))
        monkeypatch.setattr(sys, "argv", ["buchi", "seq", "verify", "6,23,32,39"])
        assert main() == 0 and main(["formulas", "--mode", "F"]) == 0
        assert built == [["seq", "verify", "6,23,32,39"], ["formulas", "--mode", "F"]]


def parsed(parser: argparse.ArgumentParser, argv: list) -> tuple:
    """(exit status, stdout, stderr, Namespace or None) of parsing argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args, code = parser.parse_args(argv), 0
        except SystemExit as exc:
            args, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), args


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class TestBenchmarkRounds:
    # sha256 of all the stdout of one round of the benchmark, its cases
    # run through main in order: a change that should keep every output
    # byte, such as a refactor of the reduction, fails here if it does not
    ROUNDS = {
        ("exact-algebra", 501): "38da350f3025c0c59a271148e8a12330c17649cf1d1728e41be0ca65dd6fcb9c",
        ("exact-algebra", 601): "39230451167ff983a3a979436d9daee3680201389cf9ac854e6898bc952d0508",
        ("exact-algebra", 777): "53882320bd88b6145a9ca51ec20323b0a8b83982f2ef4e6eba4ce26d98bc93b6",
        ("square-search", 501): "0006e3586fe9c6487dfe955ac7b42f6f6564fc1b0ee5968b0f7f33780c9fb193",
        ("square-search", 601): "29b1139a137bc007ecb4a8ae22731645ce3ec82aba2a24a573539894137bf8b5",
        ("square-search", 777): "36b55cb60279f0c64363416a7d838509c1129044972926328cf8c4b52bcd77c2",
    }

    @pytest.mark.parametrize("workload, seed", sorted(ROUNDS))
    def test_round_stdout(self, capsys, monkeypatch, tmp_path, workload, seed):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads
        digest = hashlib.sha256()
        for case in workloads.build(workload, seed, str(tmp_path)):
            code, out, err = run(capsys, *case.argv)
            assert code == 0, (case.argv, err)
            digest.update(out.encode("utf-8"))
        assert digest.hexdigest() == self.ROUNDS[workload, seed]

    @pytest.mark.parametrize("seed", [501, 601, 777])
    def test_exact_algebra_runs_no_ratfunc_arithmetic(self, capsys, monkeypatch, tmp_path,
                                                      seed):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads
        cases = workloads.build("exact-algebra", seed, str(tmp_path))
        assert len(cases) == 24
        forbid_ratfunc_arithmetic(monkeypatch)
        for case in cases:
            code, out, err = run(capsys, *case.argv)
            assert code == 0, (case.argv, err)


SRC = Path(__file__).resolve().parent.parent / "src"
# Run in a fresh interpreter: the main(argv) given on the command line,
# then one JSON line [exit code, the buchi modules it loaded, which of
# dataclasses and inspect it loaded].
LOADED_BY_MAIN = """
import contextlib, io, json, sys
before = set(sys.modules)
from buchi.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = set(sys.modules) - before
print(json.dumps([code, sorted(m for m in loaded if m.split('.')[0] == 'buchi'),
                  sorted(loaded & {'dataclasses', 'inspect'}),
                  sorted(loaded & {'decimal', 'fractions'})]))
"""


FRESH_ENV = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
FRESH_ENV["PYTHONPATH"] = str(SRC)


def _fresh_python(code: str, *args: str) -> str:
    return subprocess.run([sys.executable, "-c", code, *args], env=FRESH_ENV, check=True,
                          capture_output=True, text=True, timeout=60).stdout


class TestImportGraph:
    # One fresh interpreter for each subcommand group: an invocation
    # loads only the modules its subcommand runs, and never dataclasses
    # or inspect, which cost about 10 ms of start-up.  Only a command
    # that loads buchi.exact reads rationals, so only it loads fractions
    # and decimal.
    BASE = ["buchi", "buchi.cli"]
    PARSER = ["buchi.reduction", "buchi.reduction.parser"]
    COMPILER = PARSER + ["buchi.reduction.compiler", "buchi.reduction.formulas",
                         "buchi.reduction.lower"]
    GROUPS = {
        "seq": (["seq", "verify", "6,23,32,39"], ["buchi.sequences"]),
        "surface": (["surface", "scan", "--nodes", "1,2,3,4", "--height", "30"],
                    ["buchi.exact", "buchi.surfaces"]),
        "padic": (["padic", "ldl", "--p", "3", "--num", "z^2", "--rho", "1"],
                  PARSER + ["buchi.exact", "buchi.nevanlinna", "buchi.symbolic"]),
        "compile": (["compile", "--in", "{src}"], COMPILER),
        "check": (["check", "--in", "{src}", "--box", "2"], COMPILER + ["buchi.sequences"]),
        "formulas": (["formulas", "--mode", "F"],
                     ["buchi.reduction", "buchi.reduction.formulas"]),
    }

    @pytest.mark.parametrize("group", sorted(GROUPS))
    def test_subcommand_loads_only_its_modules(self, tmp_path, group):
        src = tmp_path / "sys.dioph"
        src.write_text("x*y = 6; x + y = 5\n")
        argv, modules = self.GROUPS[group]
        code, loaded, slow_imports, rationals = json.loads(_fresh_python(
            LOADED_BY_MAIN, *(a.format(src=src) for a in argv)))
        assert code == 0
        assert loaded == sorted(self.BASE + modules)
        assert slow_imports == []
        if "buchi.exact" not in modules:
            assert rationals == []

    def test_conic_identity_loads_no_symbolic(self):
        out = _fresh_python(
            "import sys\n"
            "from buchi.surfaces import conic_integrality_identity\n"
            "print(conic_integrality_identity(), 'buchi.symbolic' in sys.modules)")
        assert out.split() == ["True", "False"]

    def test_import_buchi_loads_no_submodule(self):
        out = _fresh_python(
            "import sys, buchi\n"
            "print(sorted(m for m in sys.modules if m.startswith('buchi')))\n"
            "print(buchi.nevanlinna.__name__, buchi.__version__)")
        assert out.splitlines() == ["['buchi']", "buchi.nevanlinna 0.1.0"]

    def test_reduction_names_resolve_without_caching(self, monkeypatch):
        # a name is looked up in its submodule on every access, so a
        # function replaced there (as a tracer does) is seen, and restored
        import buchi
        import buchi.reduction as reduction
        from buchi.reduction import compiler, parser
        original = parser.parse
        monkeypatch.setattr(parser, "parse", lambda text: None)
        assert reduction.parse is parser.parse is not original
        monkeypatch.undo()
        assert reduction.parse is parser.parse is original
        assert reduction.compile_system is compiler.compile_system
        assert all(hasattr(reduction, name) for name in reduction.__all__)
        assert not set(reduction.__all__) & set(vars(reduction))
        with pytest.raises(AttributeError):
            reduction.no_such_name
        with pytest.raises(AttributeError):
            buchi.no_such_module


# An entry point that ends through the interpreter's teardown: the
# reference for every exit status and message.
TEARDOWN_ENTRY = ["-c", "import sys; from buchi.cli import main; sys.exit(main())"]
# An atexit handler and a finalizer, then `python -m buchi` as a wrapper
# would start it.
WRAPPED = """
import atexit, runpy, sys

class Finalized:
    def __del__(self):
        print("teardown ran")

kept = Finalized()
atexit.register(print, "atexit handler ran")
sys.argv = ["buchi", *sys.argv[1:]]
runpy.run_module("buchi", run_name="__main__")
"""


def _process(*args: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=FRESH_ENV, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=60)


class TestModuleEntry:
    # `python -m buchi` ends once its output is flushed: each byte, exit
    # status and message is what main gives, and the atexit handlers run
    def test_stdout_is_mains(self, capsys):
        argv = ["seq", "search", "--length", "3", "--bound", "20000"]
        code, out, err = run(capsys, *argv)
        res = _process("-m", "buchi", *argv)
        assert (res.returncode, res.stderr) == (code, err.encode()) == (0, b"")
        assert res.stdout == out.encode() and len(res.stdout) > 1_000_000

    @pytest.mark.parametrize("argv, code", [
        (["seq", "verify", "6,23,32,39"], 0),
        (["seq", "search", "--length", "3", "--bound", "1000000"], 1),
        (["seq", "search", "--length", "3"], 2),
        (["padic", "--help"], 0),
    ])
    def test_exit_status_and_messages_are_mains(self, capsys, argv, code):
        expected = (code, *(text.encode() for text in run(capsys, *argv)[1:]))
        res = _process("-m", "buchi", *argv)
        assert (res.returncode, res.stdout, res.stderr) == expected
        res = _process(*TEARDOWN_ENTRY, *argv)
        assert (res.returncode, res.stdout, res.stderr) == expected

    @pytest.mark.parametrize("argv, code", [(["seq", "verify", "6,23,32,39"], 0),
                                            (["seq", "search", "--length", "3"], 2)])
    def test_installed_script_entry_is_the_modules(self, argv, code):
        # the `buchi` script of pyproject.toml calls run, as -m does
        module = _process("-m", "buchi", *argv)
        script = _process("-c", "from buchi.__main__ import run; run()", *argv)
        assert (script.returncode, script.stdout, script.stderr) == \
            (module.returncode, module.stdout, module.stderr)
        assert module.returncode == code and (module.stdout if code == 0 else module.stderr)

    def test_atexit_handlers_run_and_teardown_does_not(self):
        res = _process("-c", WRAPPED, "seq", "verify", "6,23,32,39")
        assert (res.returncode, res.stderr) == (0, b"")
        assert res.stdout == b"buchi: yes, nontrivial\natexit handler ran\n"

    def test_reader_that_closes_early(self):
        proc = subprocess.Popen([sys.executable, "-m", "buchi", "seq", "search", "--length", "3",
                                 "--bound", "20000"], env=FRESH_ENV,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert err == b"buchi: error: [Errno 32] Broken pipe\n"

    def test_failed_final_flush_is_reported_as_by_the_interpreter(self):
        # the reader is gone before the one buffered line is flushed
        results = []
        for entry in (["-m", "buchi"], TEARDOWN_ENTRY):
            read, write = os.pipe()
            os.close(read)
            try:
                results.append(_process(*entry, "seq", "verify", "6,23,32,39", stdout=write))
            finally:
                os.close(write)
        new, old = ((res.returncode, res.stderr) for res in results)
        assert new == old and new[0] == 120 and b"BrokenPipeError" in new[1]
