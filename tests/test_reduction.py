import random
import re

import pytest

from buchi import sequences
from buchi.reduction import (ParseError, TACProgram, bounded_equisat,
                             compile_system, eliminate_mul, encode_square,
                             evaluate, lower_tac, parse, parse_poly,
                             print_formulas, run_trace, translate_witness,
                             validate_target)
from buchi.symbolic import UPoly


class TestParser:
    def test_simple_system(self):
        system = parse("x*y + 3 = 10")
        assert len(system.equations) == 1
        assert system.variables == ("x", "y")

    def test_power_expansion(self):
        system = parse("x^2 = 4")
        prog = lower_tac(system)
        muls = [step for step in prog.instrs if step[0] == "mul"]
        assert len(muls) == 1
        assert muls[0][2] == muls[0][3] == "x"

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("x + = 3")
        assert err.value.line == 1 and err.value.col == 5

    def test_comments_and_semicolons(self):
        system = parse("# a comment\nx = 1; # inline\ny = 2;\n")
        assert system.variables == ("x", "y")
        assert len(system.equations) == 2

    def test_exponent_overflow(self):
        with pytest.raises(ParseError) as err:
            parse("x^100000 = 0")
        assert "overflow" in str(err.value)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("   # nothing\n")

    def test_evaluate_matches_expansion(self):
        system = parse("(x - 2*y)^3 + x*y - 7 = x - 1")
        rng = random.Random(3)
        from buchi.reduction import expand
        poly = expand(system.equations[0].expr, system.variables)
        for _ in range(50):
            env = {v: rng.randint(-8, 8) for v in system.variables}
            assert evaluate(system.equations[0].expr, env) == poly(**env)

    def test_parse_poly(self):
        assert parse_poly("1+2*z") == UPoly((1, 2))
        assert parse_poly("(z-1)*(z+1)") == UPoly((-1, 0, 1))
        assert parse_poly("-z^3") == UPoly((0, 0, 0, -1))
        with pytest.raises(ParseError):
            parse_poly("1 + w")
        with pytest.raises(ParseError):
            parse_poly("z = 1")


class TestLowering:
    def test_single_product(self):
        prog = lower_tac(parse("x*y = 6"))
        muls = [step for step in prog.instrs if step[0] == "mul"]
        consts = [step for step in prog.instrs if step[0] == "const"]
        assert len(muls) == 1 and set(muls[0][2:]) == {"x", "y"}
        assert any(c[2] == 6 for c in consts)
        assert len(prog.equalities) == 1

    def test_pure_linear_has_no_multiplications(self):
        prog = lower_tac(parse("x + y = z; z = 2"))
        assert not any(step[0] == "mul" for step in prog.instrs)

    def test_solution_preservation(self):
        system = parse("3*x^2 - 2*x*y + 5 = y + 1; x + y = 7")
        prog = lower_tac(system)
        rng = random.Random(5)
        for _ in range(300):
            env = {v: rng.randint(-10, 10) for v in system.variables}
            source_sat = all(evaluate(eq.expr, env) == 0 for eq in system.equations)
            full = run_trace(prog.instrs, dict(env))
            assert all(full[a] == full[b] for a, b in prog.equalities) == source_sat

    def test_ssa(self):
        prog = lower_tac(parse("x*y + x^2*y - 4 = x*y"))
        dests = [step[1] for step in prog.instrs]
        assert len(dests) == len(set(dests))
        assert set(dests) == set(prog.temps)


class TestRunTrace:
    def test_each_op(self):
        steps = (("const", "c", 4), ("add", "s", "x", "c"), ("mul", "m", "s", "x"),
                 ("square", "q", "m"), ("shift", "w", "q", -3))
        env = {"x": 2}
        assert run_trace(steps, env) is env
        assert env == {"x": 2, "c": 4, "s": 6, "m": 12, "q": 144, "w": 141}

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown trace step 'neg'"):
            run_trace((("neg", "y", "x"),), {"x": 1})


class TestEliminateMul:
    def test_constant_product_polarization(self):
        prog = TACProgram(source_vars=(),
                          temps=("_t0", "_t1", "_t2"),
                          instrs=(("const", "_t0", 3), ("const", "_t1", 5),
                                  ("mul", "_t2", "_t0", "_t1")),
                          equalities=())
        inter = eliminate_mul(prog)
        assert len(inter.squarings) == 3  # s, a and b each get one square
        env = run_trace(inter.trace, {})
        s = next(t for t in inter.trace if t[0] == "add")[1]
        assert env[s] == 8
        squares = {t: q for (op, q, t) in
                   [st for st in inter.trace if st[0] == "square"]}
        assert env[squares[s]] == 64
        assert env[squares["_t0"]] == 9 and env[squares["_t1"]] == 25
        assert 64 == 9 + 25 + 2 * env["_t2"]
        for eq in inter.linear:
            assert eq.residual(env) == 0

    def test_square_collapse(self):
        inter = eliminate_mul(lower_tac(parse("x*x = 4")))
        assert len(inter.squarings) == 1
        assert inter.squarings[0].t == "x"
        assert inter.counters["muls_square"] == 1
        assert inter.counters["sums"] == 0

    def test_square_sharing_across_products(self):
        # x appears squared through two different products: one square only
        inter = eliminate_mul(lower_tac(parse("x*y = 2; x*z = 3")))
        squared = [sq.t for sq in inter.squarings]
        assert squared.count("x") == 1

    def test_no_multiplications_identity_pass(self):
        prog = lower_tac(parse("x + y = z; z = 2"))
        inter = eliminate_mul(prog)
        assert inter.squarings == []
        assert not any(step[0] == "square" for step in inter.trace)


class TestEncodeSquare:
    def test_shape_m5(self):
        block = encode_square("t", "q", 5)
        assert len(block.squares) == 5
        second_diff = [eq for eq in block.linear if eq.const == -2]
        ties = [eq for eq in block.linear if eq.const != -2]
        assert len(second_diff) == 3 and len(ties) == 2
        assert len(block.variables) == 10

    def test_canonical_witness(self):
        block = encode_square("t", "q", 5)
        env = run_trace(block.trace, {"t": 3, "q": 9})
        us = [env[f"u{i}"] for i in range(1, 6)]
        ws = [env[f"w{i}"] for i in range(1, 6)]
        assert us == [9, 16, 25, 36, 49]
        assert ws == [3, 4, 5, 6, 7]
        assert us[1] - us[0] == 2 * 3 + 1
        for eq in block.linear:
            assert eq.residual(env) == 0
        for sq in block.squares:
            assert env[sq.lhs] == env[sq.rhs] ** 2

    def test_zero_witness(self):
        block = encode_square("t", "q", 5)
        env = run_trace(block.trace, {"t": 0, "q": 0})
        assert [env[f"u{i}"] for i in range(1, 6)] == [0, 1, 4, 9, 16]
        assert all(eq.residual(env) == 0 for eq in block.linear)

    def test_gadget_correctness_many_t(self):
        for m in (3, 4, 5, 8):
            block = encode_square("t", "q", m)
            for t in range(-30, 31):
                env = run_trace(block.trace, {"t": t, "q": t * t})
                assert all(eq.residual(env) == 0 for eq in block.linear)
                assert all(env[sq.lhs] == env[sq.rhs] ** 2 for sq in block.squares)

    def test_backward_direction_exhaustive_m5(self):
        # Every gadget solution with |w_i| <= 40 forces q = t**2: with no
        # nontrivial length-5 sequence below the bound, the u_i must be a
        # run of consecutive squares, and the ties then pin q and t.
        assert sequences.search(5, 40) == []
        for nu in range(-46, 46):
            us = [(nu + i) ** 2 for i in range(1, 6)]
            q = us[0]
            assert (us[1] - us[0]) % 2 == 1
            t = (us[1] - us[0] - 1) // 2
            assert t == nu + 1
            assert q == t * t

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            encode_square("t", "q", 2)


class TestCompile:
    def test_single_square_equation(self):
        system = parse("x*x = 4")
        target = compile_system(system, m=5)
        validate_target(target)
        report = bounded_equisat(system, target, 10)
        assert report.passed
        assert sorted(sol["x"] for sol in report.solutions) == [-2, 2]

    def test_unsatisfiable_linear_core(self):
        system = parse("x = x + 1")
        target = compile_system(system, m=5)
        validate_target(target)
        report = bounded_equisat(system, target, 10)
        assert report.passed and report.source_solutions == 0

    def test_two_equation_system(self):
        system = parse("x*y = 6; x + y = 5")
        target = compile_system(system, m=5)
        report = bounded_equisat(system, target, 10)
        assert report.passed
        assert sorted((sol["x"], sol["y"]) for sol in report.solutions) == \
            [(2, 3), (3, 2)]

    def test_deterministic_output(self):
        text = "x*y - 3*z^2 = 1; x + z = 4"
        a = compile_system(parse(text), m=5)
        b = compile_system(parse(text), m=5)
        assert a.to_json() == b.to_json()
        assert a.to_text() == b.to_text()

    def test_metadata_banner(self):
        target = compile_system(parse("x*x = 9"), m=7)
        assert target.buchi_m == 7
        assert target.meta["M"] == 7
        assert target.meta["conditional"] == "BP(Z,7)"
        assert "unconditional" in target.meta["note"]
        assert "BP(Z,7)" in target.to_text()
        assert "BP(Z,7)" in target.to_json()

    def test_variable_accounting(self):
        rng = random.Random(8)
        for _ in range(50):
            system = parse(rand_system_text(rng))
            m = rng.choice((3, 5, 8))
            target = compile_system(system, m=m)
            validate_target(target)
            c = target.counters
            k = len(target.source_vars)
            # each distinct-factor product costs s, s^2 and one gadget
            # (2m+2 variables); every other squared operand costs q plus
            # a gadget (2m+1), charged to the temporaries
            operand_squares = c["squarings"] - c["muls_distinct"]
            assert len(target.variables) == (
                k + c["tac_temps"]
                + (2 * m + 2) * c["muls_distinct"]
                + (2 * m + 1) * operand_squares)


def rand_system_text(rng) -> str:
    names = ["x", "y", "z"][:rng.randint(1, 3)]
    eqs = []
    for _ in range(rng.randint(1, 3)):
        terms = []
        for _ in range(rng.randint(1, 4)):
            coeff = rng.randint(-6, 6)
            degree = rng.randint(0, 2)
            mono = "*".join(rng.choice(names) for _ in range(degree))
            terms.append(f"{coeff}*{mono}" if mono else str(coeff))
        eqs.append(" + ".join(terms) + f" = {rng.randint(-9, 9)}")
    return "; ".join(eqs)


class TestWitness:
    def test_square_gadget_values(self):
        system = parse("x*x = 4")
        target = compile_system(system, m=5)
        full = translate_witness(system, target, {"x": 2})
        assert [full[f"_u{i}"] for i in range(5)] == [4, 9, 16, 25, 36]
        assert [full[f"_w{i}"] for i in range(5)] == [2, 3, 4, 5, 6]

    def test_polarization_values(self):
        system = parse("x*y = 6")
        target = compile_system(system, m=5)
        full = translate_witness(system, target, {"x": 2, "y": 3})
        assert full["_t2"] == 5       # s = x + y
        assert full["_t3"] == 25      # s^2
        assert full["_t4"] == 4       # x^2
        assert full["_t5"] == 9       # y^2
        assert full["_t3"] == full["_t4"] + full["_t5"] + 2 * full["_t0"]

    def test_invalid_witness_rejected(self):
        system = parse("x*x = 4")
        target = compile_system(system, m=5)
        with pytest.raises(ValueError):
            translate_witness(system, target, {"x": 1})
        with pytest.raises(ValueError):
            translate_witness(system, target, {})

    def test_forward_soundness_randomized(self):
        rng = random.Random(21)
        checked = 0
        for _ in range(25):
            system = parse(rand_system_text(rng))
            if len(system.variables) > 2:
                continue
            target = compile_system(system, m=5)
            report = bounded_equisat(system, target, 6)
            assert report.passed
            checked += report.source_solutions
        assert checked > 0


class TestEquisatGuards:
    def test_box_guard(self):
        system = parse("x = 1")
        target = compile_system(system)
        with pytest.raises(ValueError):
            bounded_equisat(system, target, 51)

    def test_variable_guard(self):
        system = parse("a + b + c + d + e = 0")
        target = compile_system(system)
        with pytest.raises(ValueError):
            bounded_equisat(system, target, 5)

    def test_combined_size_guard(self):
        system = parse("a + b + c + d = 0")
        target = compile_system(system)
        with pytest.raises(ValueError):
            bounded_equisat(system, target, 50)


class TestValidator:
    def test_random_systems_validate(self):
        rng = random.Random(34)
        for _ in range(100):
            target = compile_system(parse(rand_system_text(rng)), m=5)
            validate_target(target)  # must not raise

    def test_trace_forces_each_variable_once(self):
        # extend relies on this: one pass over the trace assigns every
        # introduced variable, each from values already assigned.
        rng = random.Random(34)
        texts = [rand_system_text(rng) for _ in range(100)] + ["x = (a+b-c)^5"]
        for text in texts:
            target = compile_system(parse(text), m=5)
            known = set(target.source_vars)
            dests = []
            for step in target.trace:
                operands = [v for v in step[2:] if isinstance(v, str)]
                assert set(operands) <= known, (text, step)
                dests.append(step[1])
                known.add(step[1])
            assert len(dests) == len(set(dests)), text
            assert set(dests) == set(target.variables) - set(target.source_vars)

    def test_witness_reuse_detected(self):
        target = compile_system(parse("x*x = 4"), m=5)
        from buchi.reduction import SquareEq
        broken = compile_system(parse("x*x = 4"), m=5)
        broken.squares = broken.squares + (SquareEq("_t0", broken.squares[0].rhs),)
        with pytest.raises(ValueError):
            validate_target(broken)
        target.linear[0].coeffs[target.squares[0].rhs] = 1
        with pytest.raises(ValueError):
            validate_target(target)


class TestFormulas:
    def test_f_formula_counts(self):
        text = print_formulas("F", 35)
        assert text.count("∃") == 35
        assert len(re.findall(r"= 2\*u\d+ \+ 2", text)) == 33
        assert "x = u1" in text and "2*y + 1 = u2 - u1" in text
        assert text.count("P2(") == 35
        assert text.count("(") == text.count(")")

    def test_f_formula_minimal(self):
        text = print_formulas("F", 3)
        assert text.count("∃") == 3
        assert len(re.findall(r"= 2\*u\d+ \+ 2", text)) == 1

    def test_g_and_h(self):
        g = print_formulas("G", 35)
        assert "F[x,y] ∧ F[z*x, z^2*y]" in g
        h = print_formulas("H", 35)
        assert "∃u ∃v (G[x+y, u] ∧ G[x-y, v] ∧ u = v + 4*w)" in h

    def test_psi_references_surface_equations(self):
        text = print_formulas("Psi", deltas=(1, 2))
        assert "c2 - c1 = 2*1*x + 1" in text
        assert "1*c3 = 2 - 1*c1 + 2*c2" in text
        assert "y = c1" in text
        assert text.count("(") == text.count(")")

    def test_psi_default_has_eight_coordinates(self):
        text = print_formulas("Psi")
        assert "∃c8" in text
        assert text.count("P2(") == 8

    def test_mode_errors(self):
        with pytest.raises(ValueError):
            print_formulas("Q")
        with pytest.raises(ValueError):
            print_formulas("F", 2)
