import json
import re
import time

import pytest

from buchi.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


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

    def test_search_json_schema(self, capsys):
        payload = run_json(capsys, "seq", "search", "--length", "4",
                           "--bound", "100", "--json")
        assert payload["length"] == 4 and payload["bound"] == 100
        assert [6, 23, 32, 39] in payload["nontrivial"]

    def test_search_empty(self, capsys):
        payload = run_json(capsys, "seq", "search", "--length", "5",
                           "--bound", "500", "--json")
        assert payload["nontrivial"] == []


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

    def test_family(self, capsys):
        payload = run_json(capsys, "surface", "family", "--N", "2", "--json")
        assert payload["f"] == {"u": "0", "v": "-96"}
        assert payload["nodes"] == ["25", "14"]
        assert payload["roots"] == ["23", "10"]

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

    def test_zeros(self, capsys):
        payload = run_json(capsys, "padic", "zeros", "--p", "2",
                           "--poly", "z^2-2*z", "--rho", "0", "--json")
        assert payload["count"] == 2
        assert payload["newton_polygon"] == [{"slope": "1", "length": 1}]

    def test_pjf(self, capsys):
        payload = run_json(capsys, "padic", "pjf", "--p", "5",
                           "--num", "5*z^2", "--rhos", "0,1,2", "--json")
        assert payload["constant"] == "-1"

    def test_ldl(self, capsys):
        payload = run_json(capsys, "padic", "ldl", "--p", "3", "--num", "z^2",
                           "--n", "1", "--rho", "1", "--json")
        assert payload["holds"] is True

    def test_ldl_order_guard(self, capsys):
        t0 = time.monotonic()
        code, out, err = run(capsys, "padic", "ldl", "--p", "3", "--num", "1",
                             "--den", "z^2+z+1", "--n", "1000", "--rho", "1")
        assert code == 1 and out == "" and "(resource guard)" in err
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

    def test_parse_error_exit_code(self, capsys, tmp_path):
        src = tmp_path / "sys.dioph"
        src.write_text("x + = 3\n")
        code, _, err = run(capsys, "compile", "--in", str(src))
        assert code == 1 and "column 5" in err


class TestFormulasCommand:
    def test_formulas_text(self, capsys):
        code, out, _ = run(capsys, "formulas", "--mode", "F", "--m", "35")
        assert code == 0 and out.count("∃") == 35

    def test_formulas_psi(self, capsys):
        code, out, _ = run(capsys, "formulas", "--mode", "Psi",
                           "--deltas", "1,2,3")
        assert code == 0 and "P2(c1)" in out


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
