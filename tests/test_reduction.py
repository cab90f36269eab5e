import random
import re
from fractions import Fraction
from itertools import product
from math import prod
from pathlib import Path

import pytest

from buchi import sequences
from buchi.reduction import (LinearEq, ParseError, SquareEq, TACProgram, TargetSystem,
                             bounded_equisat, compile_system, compiler, eliminate_mul,
                             encode_square, evaluate, expand, lower_tac, parse,
                             parse_poly, print_formulas, run_trace, translate_witness,
                             validate_target)
from buchi.reduction.compiler import _witness_bound, check_schedule
from buchi.reduction.parser import (MAX_CONSTANT_BITS, MAX_DEPTH, MAX_POLY_DEGREE,
                                    MAX_TOKENS, Num, Pow, Product, Sum, Var, _size_bound,
                                    tokenize)
from buchi.surfaces import BuchiSurface, surface_equations
from buchi.symbolic import UPoly
from helpers import (DEEP_SHAPES, FLAT_LENGTH, dense_poly, mixed_nesting,
                     scalar_bounded_equisat, scalar_residual, scalar_run_trace,
                     scalar_tokenize)


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
        assert str(err.value) == ("line 1, column 3: exponent 100000 > MAX_EXPONENT = 4096 "
                                  "refused (resource guard)")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("   # nothing\n")

    def test_evaluate_matches_expansion(self):
        system = parse("(x - 2*y)^3 + x*y - 7 = x - 1")
        rng = random.Random(3)
        terms = expand(system.equations[0].expr, system.variables).terms
        envs = [{v: rng.randint(-8, 8) for v in system.variables} for _ in range(50)]
        columns = {v: [env[v] for env in envs] for v in system.variables}
        assert evaluate(system.equations[0].expr, columns, 50) == tuple(
            sum(c * prod(env[v] ** e for v, e in zip(system.variables, exps))
                for exps, c in terms.items())
            for env in envs)

    def test_parse_poly(self):
        assert parse_poly("1+2*z") == UPoly((1, 2))
        assert parse_poly("(z-1)*(z+1)") == UPoly((-1, 0, 1))
        assert parse_poly("-z^3") == UPoly((0, 0, 0, -1))
        with pytest.raises(ParseError):
            parse_poly("z = 1")
        # the first unknown name in source order is refused where it stands
        for text, message in (("1 + w", "line 1, column 5: unknown variable 'w'"),
                              ("z + 3*y", "line 1, column 7: unknown variable 'y'"),
                              ("z +\n w*b", "line 2, column 2: unknown variable 'w'"),
                              ("(b + a)*b", "line 1, column 2: unknown variable 'b'")):
            with pytest.raises(ParseError, match="^" + re.escape(message)):
                parse_poly(text)
        assert parse("b + a = b").variables == ("a", "b")

    def test_parse_poly_matches_mpoly_route(self):
        # The multivariate route parse_poly used to take, kept as oracle:
        # expand over MPoly, then read the coefficients off by degree.
        def via_mpoly(text):
            poly = expand(parse(f"{text} = 0").equations[0].expr, ("z",))
            coeffs = {e[0]: c for e, c in poly.terms.items()}
            return UPoly([coeffs.get(k, 0) for k in range(max(coeffs, default=0) + 1)])

        rng = random.Random(52)
        for _ in range(300):
            text = rand_expr(rng, ["z"], 4)
            assert parse_poly(text) == via_mpoly(text), text

    def test_size_bound_is_an_upper_bound(self):
        # text = 0 adds nothing to either bound; integer input gives
        # integer coefficients, whose absolute values the norm bound caps
        rng = random.Random(54)
        for _ in range(300):
            text = rand_expr(rng, ["z"], 4)
            degree, norm = _size_bound(parse(f"{text} = 0").equations[0].expr)
            poly = parse_poly(text)
            assert all(c.denominator == 1 for c in poly.coeffs), text
            assert poly.degree <= degree and sum(map(abs, poly.coeffs)) <= norm, text

    def test_parse_poly_degree_guard(self):
        assert parse_poly(f"z^{MAX_POLY_DEGREE}").degree == MAX_POLY_DEGREE
        with pytest.raises(ValueError, match="resource guard"):
            parse_poly(f"(z+2)^{MAX_POLY_DEGREE + 1}")
        with pytest.raises(ValueError, match="resource guard"):
            parse_poly("((z^2+1)^20)^20")

    def test_reserved_underscore_prefix(self):
        for text in ("x*y = _t0", "_u1 = 2", "x = _w0 + 1", "_ = 1"):
            with pytest.raises(ParseError, match="_t, _u and _w"):
                parse(text)
        system = parse("x*t0 = u_1 + t_")
        assert system.variables == ("t0", "t_", "u_1", "x")
        validate_target(compile_system(system, m=5))

    def test_constant_budget(self):
        # 9^4096 has 12,984 bits and folds; its square would have 25,968.
        prog = lower_tac(parse("x = 9^4096"))
        assert [step[2] for step in prog.instrs if step[0] == "const"] == [9 ** 4096]
        for text in ("x = (9^4096)^2", "x = ((9^4096)^4096)^4096",
                     "x = 9^4096 * 9^4096", "x = 2^4096 * 2^4096 * 2^4096 * 2^4096"):
            with pytest.raises(ValueError, match="resource guard"):
                lower_tac(parse(text))
        assert evaluate(parse("x = (y^4096)^3").equations[0].expr.terms[1][1],
                        {"y": (2, 0, -1)}, 3) == (2 ** 12288, 0, 1)
        with pytest.raises(ValueError, match="resource guard"):
            evaluate(parse("x = (y^4096)^4096").equations[0].expr.terms[1][1],
                     {"y": (1, 2, 0)}, 3)
        with pytest.raises(ValueError, match="resource guard"):
            parse_poly("(9^4096)^4096")
        with pytest.raises(ValueError, match="resource guard"):
            parse_poly("(z + 9^4096)^200")
        assert parse_poly("9^4096 * z").coeffs == (0, 9 ** 4096)

    def test_literal_budget(self):
        # a literal of MAX_CONSTANT_BITS bits is read and one of a bit more
        # refused, at its position; leading zeros do not count
        edge = 2 ** MAX_CONSTANT_BITS
        assert parse_poly(f"{edge - 1}*z").coeffs == (0, edge - 1)
        assert parse(f"x = {edge - 1}").equations[0].expr.terms[1][1] == Num(edge - 1)
        assert parse_poly("0" * 5000 + "5*z").coeffs == (0, 5)
        for text in (f"x = {edge}", "x =\n  " + "9" * 5000, "x = y^" + "9" * 5000):
            with pytest.raises(ParseError, match=r"^line \d, column \d: bits of an integer "
                               r"literal \d+ > MAX_CONSTANT_BITS = 14000 refused"):
                parse(text)
        # a power is refused before it is computed when |base|**k has, by
        # the bits of base, at least MAX_CONSTANT_BITS + 1 bits
        with pytest.raises(ValueError, match=r"^bits of an integer power, at least 14001 "):
            lower_tac(parse("x = (2^3500 + 1)^4"))

    def test_poly_size_budget(self):
        # degree 200 admits a coefficient-sum bound of 4000 bits, not 4001
        assert parse_poly("(131071*z+131071)^200").degree == 200
        for text in ("(524288*z+524288)^200",
                     "(4611686018427387903*z+4611686018427387903)^200"):
            with pytest.raises(ValueError, match="resource guard"):
                parse_poly(text)

    def test_depth_budget(self):
        # parentheses and signs parse at the most levels MAX_DEPTH allows,
        # and one more is a ParseError, never a RecursionError; a flat sum
        # or product is not limited by MAX_DEPTH
        for cost, deep in DEEP_SHAPES.values():
            if cost is None:
                assert parse_poly(deep(FLAT_LENGTH)).degree == 1
                assert parse(f"x = {deep(FLAT_LENGTH)}").variables == ("x", "z")
                continue
            n = MAX_DEPTH // cost
            assert parse_poly(deep(n)).degree == 1
            assert parse(f"x = {deep(n)}").variables == ("x", "z")
            for parser, text in ((parse_poly, deep(n + 1)),
                                 (parse, f"x = {deep(n + 1)}"),
                                 (parse_poly, deep(5 * n))):
                with pytest.raises(ParseError, match="resource guard"):
                    parser(text)

    def test_token_budget(self):
        # MAX_TOKENS tokens are read, and blanks and comments after them,
        # and the next token is refused before any tree is built
        assert len(tokenize("z+" * (MAX_TOKENS // 2) + " # end\n")) == MAX_TOKENS + 1
        assert parse_poly("+".join(["z"] * (MAX_TOKENS // 2))) == UPoly((0, MAX_TOKENS // 2))
        for parser, text in ((tokenize, "z+" * (MAX_TOKENS // 2) + "z"),
                             (parse_poly, "+".join(["z"] * (MAX_TOKENS // 2 + 1))),
                             (parse, "x = " + "*".join(["z"] * 10 ** 5))):
            with pytest.raises(ParseError, match=re.escape(
                    f"tokens {MAX_TOKENS + 1} > MAX_TOKENS = {MAX_TOKENS} refused")):
                parser(text)

    def test_mixed_nesting_at_the_limit(self):
        # a power of a sum of products in MAX_DEPTH // 4 parentheses is
        # three tree levels per '(', and every walk of it finishes
        text = mixed_nesting(MAX_DEPTH // 4)
        assert parse_poly(text).degree == 1
        system = parse(f"x = {text}")
        assert evaluate(system.equations[0].expr, {"x": (1,), "z": (1,)}, 1) == (2 - 2 ** 201,)
        assert expand(system.equations[0].expr, system.variables).terms
        validate_target(compile_system(system, m=5))
        with pytest.raises(ParseError, match="resource guard"):
            parse(f"x = {mixed_nesting(MAX_DEPTH // 4 + 1)}")

    def test_flat_tree(self):
        # a product splices nested products, parenthesized or not, with a
        # sign as the factor -1; a parenthesized sum stays one term
        z, y = Var("z"), Var("y")
        assert parse("y = -z*(2*(z*y))").equations[0].expr == Sum(
            ((1, y), (-1, Product((Num(-1), z, Num(2), z, y)))))
        expr = parse("y = y-(z+y)+z^2").equations[0].expr.terms[1][1]
        assert expr == Sum(((1, y), (-1, Sum(((1, z), (1, y)))), (1, Pow(z, 2))))
        assert parse("y = (z)").equations[0].expr.terms[1][1] == z
        assert (lower_tac(parse("x = z+(y+w)")).instrs
                != lower_tac(parse("x = (z+y)+w")).instrs)
        # nodes compare by class and fields, hash by their fields, and are
        # immutable
        assert Sum(((1, z),)) != Product(((1, z),)) and Num(3) != (3,)
        assert Num(3) == Num(3) and hash(Num(3)) == hash(Num(3))
        assert {z: 1}[Var("z")] == 1
        with pytest.raises(AttributeError):
            z.name = "w"
        assert Pow(z, exponent=2) == Pow(base=z, exponent=2) == Pow(z, 2)
        for args, kwargs in (((z,), {}), ((z, 2, 3), {}), ((z,), {"base": z})):
            with pytest.raises(TypeError):
                Pow(*args, **kwargs)

    def test_dense_poly_at_degree_limit(self):
        # written term by term, a polynomial of degree MAX_POLY_DEGREE is
        # one flat sum of MAX_POLY_DEGREE + 1 terms
        poly = parse_poly(dense_poly(MAX_POLY_DEGREE))
        assert poly.coeffs == (*range(2, MAX_POLY_DEGREE + 2), -MAX_POLY_DEGREE - 2)


def lexed(tokenizer, text: str):
    """tokenizer's tokens of text, or the text of the ParseError it raises."""
    try:
        return tokenizer(text)
    except ParseError as exc:
        return str(exc)


class TestTokenize:
    # every ASCII character, and more often those that make up tokens,
    # blanks, comments and lines
    ALPHABET = "".join(map(chr, range(128))) + 4 * "0123456789xyzAZ_ \t\r\n#+-*^()=;"

    def test_matches_the_character_loop(self):
        rng = random.Random(24)
        for _ in range(20_000):
            text = "".join(rng.choices(self.ALPHABET, k=rng.randint(0, 30)))
            assert lexed(tokenize, text) == lexed(scalar_tokenize, text), repr(text)

    def test_matches_the_character_loop_at_the_budgets(self):
        # MAX_TOKENS - 1 tokens, with or without blanks, lines and comments
        # between them, then nothing, a comment or a line, one token or
        # two, or a reserved name or an unexpected character at or past
        # MAX_TOKENS
        flat = "z+" * (MAX_TOKENS // 2 - 1) + "z"
        spread = "z +\t# c\n" * (MAX_TOKENS // 2 - 1) + "z\r"
        texts = [body + end for body in (flat, spread)
                 for end in ("", " # end", "\n", "+", "+z", "+_t", "+\x01", "\x01")]
        # literals at MAX_CONSTANT_BITS bits and past, leading zeros not
        # counted, and near the 4300 digits int() converts
        edge = 2 ** MAX_CONSTANT_BITS
        for literal in (str(edge - 1), str(edge), "0" * 5000 + str(edge - 1),
                        "0" * 5000 + str(edge), "9" * 4299, "9" * 4300, "9" * 5000, "0" * 5000):
            texts += [literal, f"x =\n  {literal} # c", f"z^{literal}x"]
        for text in texts:
            assert lexed(tokenize, text) == lexed(scalar_tokenize, text), text[-40:]

    def test_positions(self):
        # EOF stands at the end of the last line, or at its comment
        for text, position in (("", (1, 1)), ("x  ", (1, 4)), ("x # c", (1, 3)),
                               ("x # c # d", (1, 3)), ("x\n# c", (2, 1)), ("x\n", (2, 1))):
            eof = tokenize(text)[-1]
            assert (eof.kind, eof.line, eof.col) == ("EOF", *position), text
        assert [(t.text, t.line, t.col) for t in tokenize("ab1 = 007\n\t(y_2)")] == [
            ("ab1", 1, 1), ("=", 1, 5), ("7", 1, 7), ("(", 2, 2), ("y_2", 2, 3),
            (")", 2, 6), ("", 2, 7)]

    def test_non_ascii_refused_where_it_stands(self):
        # a digit or letter outside ASCII is no token; a comment may hold it
        for text, message in (("x = 2²", "line 1, column 6: unexpected character '²'"),
                              ("x = ٣", "line 1, column 5: unexpected character '٣'"),
                              ("é = 1", "line 1, column 1: unexpected character 'é'"),
                              ("x = 1\n  yé = 2", "line 2, column 4: unexpected character 'é'")):
            with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
                parse(text)
        assert parse("x = 1  # é, 2², ٣\n").variables == ("x",)
        with pytest.raises(ParseError, match="^line 1, column 2: unexpected character '²'$"):
            parse_poly("z²")


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
        rows = 300
        columns = {v: [rng.randint(-10, 10) for _ in range(rows)] for v in system.variables}
        values = [evaluate(eq.expr, columns, rows) for eq in system.equations]
        source_sat = [not any(row) for row in zip(*values)]
        full = run_trace(prog.instrs, dict(columns), rows)
        assert [all(full[a][i] == full[b][i] for a, b in prog.equalities)
                for i in range(rows)] == source_sat

    def test_random_systems_keep_solutions(self):
        # Nested sums and powers, negated factors, zero and negative
        # coefficients and constant-only equations: on a box, the
        # program's equalities (and the compiled target) hold exactly
        # where the source equations do.
        rng = random.Random(44)
        for _ in range(100):
            eqs = [f"{rand_expr(rng, ['a', 'b', 'c'], 3)} = {rand_expr(rng, ['a', 'b'], 2)}"
                   for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.3:
                eqs.append(f"{rand_expr(rng, [], 2)} = {rand_expr(rng, [], 2)}")
            system = parse("; ".join(eqs))
            prog = lower_tac(system)
            target = compile_system(system, m=3)
            validate_target(target)
            box = list(product(range(-2, 3), repeat=len(system.variables)))
            rows = len(box)
            columns = dict(zip(system.variables, map(list, zip(*box))))
            values = [evaluate(eq.expr, columns, rows) for eq in system.equations]
            sat = [not any(row) for row in zip(*values)]
            full = run_trace(prog.instrs, dict(columns), rows)
            assert [all(full[x][i] == full[y][i] for x, y in prog.equalities)
                    for i in range(rows)] == sat, eqs
            for combo, expected in zip(box, sat):
                env = dict(zip(system.variables, combo))
                assert target.satisfied(target.extend(env)) == expected, eqs

    def test_equal_subterms_share_one_temporary(self):
        prog = lower_tac(parse("x = (a+b)*(a+b) + (b+a)^2"))
        assert [s for s in prog.instrs if s[0] == "add" and set(s[2:]) == {"a", "b"}] \
            == [("add", "_t0", "a", "b")]
        assert len([s for s in prog.instrs if s[0] == "mul"]) == 1

    def test_ssa(self):
        prog = lower_tac(parse("x*y + x^2*y - 4 = x*y"))
        dests = [step[1] for step in prog.instrs]
        assert len(dests) == len(set(dests))


class TestRunTrace:
    def test_each_op(self):
        steps = (("const", "c", 4), ("add", "s", "x", "c"), ("mul", "m", "s", "x"),
                 ("square", "q", "m"), ("shift", "w", "q", -3), ("sub", "n", "c", "w"))
        env = {"x": (2, -1)}
        assert run_trace(steps, env, 2) is env
        assert env == {"x": (2, -1), "c": (4, 4), "s": (6, 3), "m": (12, -3),
                       "q": (144, 9), "w": (141, 6), "n": (-137, -2)}
        assert run_trace((("const", "c", 7),), {}, 3) == {"c": (7, 7, 7)}

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown trace step 'neg'"):
            run_trace((("neg", "y", "x"),), {"x": (1,)}, 1)

    def test_matches_scalar_oracle(self):
        # each row of a block is what the trace gives that assignment alone
        rng = random.Random(61)
        for _ in range(60):
            target = compile_system(parse(rand_system_text(rng, max_vars=4)),
                                    m=rng.choice((3, 5)))
            rows = rng.randint(1, 9)
            envs = [{v: rng.randint(-7, 7) for v in target.source_vars} for _ in range(rows)]
            columns = run_trace(target.trace, {v: [env[v] for env in envs]
                                               for v in target.source_vars}, rows)
            for i, env in enumerate(envs):
                expected = scalar_run_trace(target.trace, dict(env))
                assert {v: column[i] for v, column in columns.items()} == expected
                assert target.extend(env) == expected


class TestEliminateMul:
    def test_constant_product_polarization(self):
        prog = TACProgram(source_vars=(),
                          instrs=(("const", "_t0", 3), ("const", "_t1", 5),
                                  ("mul", "_t2", "_t0", "_t1")),
                          equalities=())
        inter = eliminate_mul(prog)
        assert len(inter.squarings) == 3  # s, a and b each get one square
        env = scalar_run_trace(inter.trace, {})
        s = next(t for t in inter.trace if t[0] == "add")[1]
        assert env[s] == 8
        squares = {t: q for (op, q, t) in
                   [st for st in inter.trace if st[0] == "square"]}
        assert env[squares[s]] == 64
        assert env[squares["_t0"]] == 9 and env[squares["_t1"]] == 25
        assert 64 == 9 + 25 + 2 * env["_t2"]
        for eq in inter.linear:
            assert scalar_residual(eq, env) == 0

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
        block = encode_square("t", "q", 5, 1)
        assert len(block.squares) == 5
        second_diff = [eq for eq in block.linear if eq.const == -2]
        ties = [eq for eq in block.linear if eq.const != -2]
        assert len(second_diff) == 3 and len(ties) == 2
        assert len(block.variables) == 10

    def test_canonical_witness(self):
        block = encode_square("t", "q", 5, 1)
        env = scalar_run_trace(block.trace, {"t": 3, "q": 9})
        us = [env[f"_u{i}"] for i in range(1, 6)]
        ws = [env[f"_w{i}"] for i in range(1, 6)]
        assert us == [9, 16, 25, 36, 49]
        assert ws == [3, 4, 5, 6, 7]
        assert us[1] - us[0] == 2 * 3 + 1
        for eq in block.linear:
            assert scalar_residual(eq, env) == 0
        for sq in block.squares:
            assert env[sq.lhs] == env[sq.rhs] ** 2

    def test_zero_witness(self):
        block = encode_square("t", "q", 5, 1)
        env = scalar_run_trace(block.trace, {"t": 0, "q": 0})
        assert [env[f"_u{i}"] for i in range(1, 6)] == [0, 1, 4, 9, 16]
        assert all(scalar_residual(eq, env) == 0 for eq in block.linear)

    def test_gadget_correctness_many_t(self):
        for m in (3, 4, 5, 8):
            block = encode_square("t", "q", m, 0)
            ts = list(range(-30, 31))
            env = run_trace(block.trace, {"t": ts, "q": [t * t for t in ts]}, len(ts))
            for eq in block.linear:
                assert eq.residual(env, len(ts)) == [0] * len(ts)
            for sq in block.squares:
                assert env[sq.lhs] == tuple(w * w for w in env[sq.rhs])

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
            encode_square("t", "q", 2, 0)


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


def rand_expr(rng, names: list[str], depth: int) -> str:
    """A random expression over names and small integers; sums and
    powers come parenthesized, so it can stand as a product's factor."""
    if depth == 0 or rng.random() < 0.25:
        leaf = rng.choice(names + [str(rng.randint(0, 3))])
        return leaf if rng.random() < 0.8 else f"-{leaf}"
    a = rand_expr(rng, names, depth - 1)
    b = rand_expr(rng, names, depth - 1)
    kind = rng.randrange(5)
    if kind == 0:
        return f"({a} + {b})"
    if kind == 1:
        return f"({a} - {b})"
    if kind == 2:
        return f"{a}*{b}"
    if kind == 3:
        return f"{rng.randint(-3, 3)}*{a}"
    return f"({a})^{rng.randint(0, 4)}"


def rand_system_text(rng, max_vars: int = 3) -> str:
    names = ["x", "y", "z", "w"][:rng.randint(1, max_vars)]
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


def _equisat_outcome(check, system, target, box):
    """The report's fields, or the message check refused with."""
    try:
        report = check(system, target, box)
    except ValueError as err:
        return str(err)
    return {name: getattr(report, name) for name in report.__slots__}


class TestBlockEquisat:
    """bounded_equisat on blocks of assignments against the scalar oracle,
    which checks one assignment at a time."""

    def agree(self, text: str, m: int, box: int):
        system = parse(text)
        target = compile_system(system, m=m)
        block = _equisat_outcome(bounded_equisat, system, target, box)
        assert block == _equisat_outcome(scalar_bounded_equisat, system, target, box), text
        return block, target

    def test_random_systems(self):
        rng = random.Random(1107)
        boxes = {0: 7, 1: 7, 2: 7, 3: 5, 4: 3}  # the oracle's time bounds the box
        found = multiblock = 0
        for _ in range(120):
            text = rand_system_text(rng, max_vars=4)
            box = rng.randint(1, boxes[len(parse(text).variables)])
            report, target = self.agree(text, rng.choice((3, 5)), box)
            found += report["source_solutions"]
            multiblock += report["assignments"] > check_schedule(target).block_rows
        assert found > 0 and multiblock >= 10

    def test_block_size_does_not_divide_the_assignments(self):
        report, target = self.agree("x*y = 6; x + y = 5", 5, 25)
        rows = check_schedule(target).block_rows
        assert report["assignments"] % rows != 0 and report["assignments"] > rows
        assert report["source_solutions"] == 2

    def test_one_row_blocks(self):
        # the constant's doubling chain is the first equation's, so its
        # more than BLOCK_CELLS columns are held at every row
        text = f"{3 ** 8000}*a + " + "+".join(f"(a+{i})^2" for i in range(1, 11)) + " = 385"
        report, target = self.agree(text, 1000, 1)
        assert check_schedule(target).block_rows == 1
        assert report["assignments"] == 3 and report["solutions"] == [{"a": 0}]

    def test_witness_bound_refusal(self):
        # the first row, a = b = -3, already has a witness above the
        # budget, and later rows have larger ones: the refusal names the
        # first row's
        report, _ = self.agree("x = (a+b+10)^12", 5, 3)
        assert report.startswith("gadget witness bound ") and "(resource guard)" in report

    def test_constant_refusal_only_where_the_first_equation_holds(self):
        # the power's base is 0 unless a = 2, and only there is the second
        # equation evaluated: at a = 2, b = -2 its base is -48, whose
        # 4096th power has more than MAX_CONSTANT_BITS bits
        text = "a = 2; (b*(a+2)*(a+1)*a*(a-1))^4096 = 0"
        report, _ = self.agree(text, 5, 2)
        assert report.startswith("bits of an integer power, at least ")
        assert report.endswith(" > MAX_CONSTANT_BITS = 14000 refused (resource guard)")
        # at box 1 no row has a = 2, and nothing is refused
        report, _ = self.agree(text, 5, 1)
        assert report["source_solutions"] == 0
        # b^4096 overflows at the first row, b = -16, but a = 16 fails
        # there, so the trace's witness bound refuses it first, as one
        # assignment at a time does
        report, _ = self.agree("a = 16; b^4096 = 0", 5, 16)
        assert report.startswith("gadget witness bound ")

    def test_guards_refuse_on_both_sides(self):
        for text, box in (("x = 1", 51), ("a + b + c + d + e = 0", 1),
                          ("a + b = c + d", 19), ("x*y = z", 19)):
            system = parse(text)
            target = compile_system(system)
            for check in (bounded_equisat, scalar_bounded_equisat):
                with pytest.raises(ValueError, match="resource guard"):
                    check(system, target, box)


class TestScheduledTrace:
    """bounded_equisat runs a target's trace on demand (check_schedule).
    A compiled target fails, if at all, at its equalities; the tampered
    targets here fail after them, so the steps scheduled for later
    equations run and rows drop part of the way through a block."""

    # sources with many solutions in a box of 3
    TEXTS = ("x*y = z", "x^2 + y = z", "x*y - z*z = 2*x", "(x - y)^2 = z + y")

    @staticmethod
    def tampered(target: TargetSystem, **fields) -> TargetSystem:
        return TargetSystem(**{name: fields.get(name, getattr(target, name))
                               for name in target.__slots__})

    def tamperings(self, system, target: TargetSystem, rng):
        """Targets that differ from target in one equation after its
        equalities: a linear constant bumped, two squares' witnesses
        swapped, or a second difference u3 - 2*u2 + u1 made u3 - 2*u2 + 2*u1."""
        linear, squares = list(target.linear), list(target.squares)
        later = range(len(lower_tac(system).equalities), len(linear))
        for i in rng.sample(later, 3):
            eq = linear[i]
            yield self.tampered(target, linear=(*linear[:i], LinearEq(eq.coeffs, eq.const + 1),
                                                *linear[i + 1:]))
        i, j = sorted(rng.sample(range(len(squares)), 2))
        swapped = list(squares)
        swapped[i] = SquareEq(squares[i].lhs, squares[j].rhs)
        swapped[j] = SquareEq(squares[j].lhs, squares[i].rhs)
        yield self.tampered(target, squares=tuple(swapped))
        differences = [i for i, eq in enumerate(linear)
                       if eq.const == -2 and sorted(eq.coeffs.values()) == [-2, 1, 1]]
        i = rng.choice(differences)
        coeffs = dict(linear[i].coeffs)
        coeffs[list(coeffs)[-1]] = 2
        yield self.tampered(target, linear=(*linear[:i], LinearEq(coeffs, -2), *linear[i + 1:]))

    def test_tampered_targets_agree_with_the_oracle(self):
        rng = random.Random(1511)
        checked = failed_later = partly = 0
        for text in self.TEXTS:
            system = parse(text)
            for m in (3, 5):
                for target in self.tamperings(system, compile_system(system, m=m), rng):
                    report = _equisat_outcome(bounded_equisat, system, target, 3)
                    assert report == _equisat_outcome(scalar_bounded_equisat, system, target, 3)
                    checked += 1
                    failed_later += report["lifted"] < report["source_solutions"]
                    partly += 0 < report["lifted"] < report["source_solutions"]
        assert failed_later == checked == 40 and partly >= 10

    def test_gadget_steps_run_only_where_the_equalities_hold(self, monkeypatch):
        text = (Path(__file__).parent / "golden" / "cubic.dioph").read_text(encoding="utf-8")
        system = parse(text)
        target = compile_system(system)
        gadget = {step[1] for step in target.trace if step[0] == "shift"}
        gadget |= {sq.lhs for sq in target.squares}
        ran = dict.fromkeys(gadget, 0)
        run_trace = compiler.run_trace

        def counted(steps, env, rows):
            for step in steps:
                if step[1] in ran:
                    ran[step[1]] += rows
            return run_trace(steps, env, rows)

        monkeypatch.setattr(compiler, "run_trace", counted)
        report = bounded_equisat(system, target, 7)
        assert report.passed and report.source_solutions == 1
        assert len(ran) == 130 and set(ran.values()) == {1}

    def test_witness_bound_from_ranges(self):
        # the bound from each t's least and greatest value is max |w| over
        # every shift column built in full, t negative or not
        rng = random.Random(73)
        for _ in range(60):
            system = parse(rand_system_text(rng))
            target = compile_system(system, m=rng.randint(3, 7))
            schedule = check_schedule(target)
            rows = rng.randint(1, 20)
            columns = {v: tuple(rng.randint(-30, 30) for _ in range(rows))
                       for v in system.variables}
            full = run_trace(target.trace, dict(columns), rows)
            widest = max((abs(w) for step in target.trace if step[0] == "shift"
                          for w in full[step[1]]), default=0)
            env = run_trace(schedule.shared, dict(columns), rows)
            assert _witness_bound(env, schedule.shifts) == widest, system
        for _ in range(200):
            constants = rng.sample(range(-40, 40), rng.randint(1, 6))
            trace = tuple(("shift", f"w{i}", "t", c) for i, c in enumerate(constants))
            target = TargetSystem(source_vars=("t",), variables=("t", *(s[1] for s in trace)),
                                  linear=(), squares=(), buchi_m=3, meta={}, trace=trace,
                                  counters={})
            column = tuple(rng.randint(-100, 60) for _ in range(rng.randint(1, 9)))
            full = run_trace(trace, {"t": column}, len(column))
            widest = max(abs(w) for step in trace for w in full[step[1]])
            schedule = check_schedule(target)
            assert schedule.shared == ()
            assert _witness_bound({"t": column}, schedule.shifts) == widest


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

    @pytest.mark.parametrize("deltas", [None, (1, 2), ("1/2", -3, "5/7", 4)])
    def test_psi_conjuncts_are_the_surface_equations(self, deltas):
        # d2*ci = a - b*c1 + e*c2 read as the linear form
        # a*1 - b*c1 + e*c2 - d2*ci in (1, c1, ..., cn)
        surface = BuchiSurface(deltas or range(1, 8))
        conjunct = re.compile(r"    ∧ (\S+)\*c(\d+) = (\S+) - (\S+)\*c1 \+ (\S+)\*c2")
        rows = []
        for line in print_formulas("Psi", deltas=deltas).splitlines():
            if match := conjunct.fullmatch(line):
                d2, i, a, b, e = match.groups()
                row = [Fraction(0)] * (surface.n + 1)
                row[0], row[1], row[2] = Fraction(a), -Fraction(b), Fraction(e)
                row[int(i)] -= Fraction(d2)
                rows.append(tuple(row))
        assert rows == surface_equations(surface)

    def test_psi_default_has_eight_coordinates(self):
        text = print_formulas("Psi")
        assert "∃c8" in text
        assert text.count("P2(") == 8

    def test_mode_errors(self):
        with pytest.raises(ValueError):
            print_formulas("Q")
        with pytest.raises(ValueError):
            print_formulas("F", 2)
