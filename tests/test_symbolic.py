import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from buchi import symbolic
from buchi.symbolic import QUOTIENT_GCD_BUDGET, MPoly, RatFunc, UPoly
from helpers import count_gcd_calls, rand_fraction, rand_ratfunc, rand_upoly

coeff_lists = st.lists(st.integers(-9, 9), max_size=4)
nonzero_coeff_lists = coeff_lists.filter(lambda cs: any(cs))


# The Fraction-backed core that UPoly ran on before it stored integers
# over one denominator, kept as the oracle of the differential tests.
# Polynomials are tuples of Fractions with trailing zeros trimmed.

def frac_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def frac_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return frac_trim(out)


def frac_divmod(a, b):
    """Long division over Fraction coefficients."""
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b):
        c = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            r[k + i] -= c * y
        r = list(frac_trim(r))
    return frac_trim(q), tuple(r)


def _int_coeffs(cs):
    den = 1
    for c in cs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return [int(c * den) for c in cs]


def _primitive(v):
    g = 0
    for c in v:
        g = math.gcd(g, c)
    return [c // g for c in v] if g > 1 else v


def _strip(v):
    while v and v[-1] == 0:
        v.pop()
    return v


def _pseudo_rem(a, b):
    """prem(a, b) over Z: remainder of lc(b)**k * a by b."""
    a = a[:]
    db = len(b) - 1
    lb = b[-1]
    while _strip(a) and len(a) - 1 >= db:
        la = a[-1]
        shift = len(a) - 1 - db
        a = [c * lb for c in a]
        for i, bc in enumerate(b):
            a[shift + i] -= la * bc
    return a


def prs_gcd(a, b):
    """Monic gcd by the primitive pseudo-remainder sequence over Z."""
    if not a or not b:
        g = a or b
        return tuple(c / g[-1] for c in g)
    a, b = _primitive(_int_coeffs(a)), _primitive(_int_coeffs(b))
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return tuple(Fraction(c, a[-1]) for c in a)


def frac_repr(cs):
    parts = []
    for k, c in enumerate(cs):
        if c != 0:
            mono = "" if k == 0 else ("*z" if k == 1 else f"*z^{k}")
            parts.append(f"{c}{mono}" if c != 1 or k == 0 else mono[1:])
    return "UPoly(" + (" + ".join(parts) or "0") + ")"


def frac_ratfunc(num, den):
    """(num, den) of the canonical form: coprime, den monic."""
    if not num:
        return (), (Fraction(1),)
    g = prs_gcd(num, den)
    num, den = frac_divmod(num, g)[0], frac_divmod(den, g)[0]
    return tuple(c / den[-1] for c in num), tuple(c / den[-1] for c in den)


def rand_rational_coeffs(rng, max_deg, max_num, max_den):
    """0 to max_deg + 1 coefficients, so that zero and constant
    polynomials occur; some are zero, and denominators take either sign."""
    cs = []
    for _ in range(rng.randint(-1, max_deg) + 1):
        if rng.random() < 0.2:
            cs.append(Fraction(0))
        else:
            cs.append(Fraction(rng.randint(-max_num, max_num),
                               rng.choice((-1, 1)) * rng.randint(1, max_den)))
    return cs


def rand_pair_with_common_factor(rng, max_num, max_den):
    common = rand_rational_coeffs(rng, 3, max_num, max_den)
    return (frac_mul(frac_trim(common), frac_trim(rand_rational_coeffs(rng, 4, max_num, max_den))),
            frac_mul(frac_trim(common), frac_trim(rand_rational_coeffs(rng, 4, max_num, max_den))))


SIZES = ((9, 5), (10 ** 12, 10 ** 6))


def same(p, cs):
    """p has the value cs and the one normal form UPoly(cs) has."""
    q = UPoly(cs)
    return p.coeffs == frac_trim(cs) and p == q and hash(p) == hash(q)


class TestAgainstFractionCore:
    def test_ring_operations(self):
        rng = random.Random(71)
        for max_num, max_den in SIZES:
            for _ in range(400):
                a = frac_trim(rand_rational_coeffs(rng, 6, max_num, max_den))
                b = frac_trim(rand_rational_coeffs(rng, 6, max_num, max_den))
                pa, pb = UPoly(a), UPoly(b)
                assert pa.coeffs == a and repr(pa) == frac_repr(a)
                pad = [Fraction(0)] * max(len(a), len(b))
                assert same(pa + pb, [x + y for x, y in zip(a + tuple(pad), b + tuple(pad))])
                assert same(pa - pb, [x - y for x, y in zip(a + tuple(pad), b + tuple(pad))])
                assert same(-pa, [-c for c in a])
                assert same(pa * pb, frac_mul(a, b))
                assert same(pa ** 3, frac_mul(frac_mul(a, a), a))
                assert same(pa.derivative(), [k * c for k, c in enumerate(a)][1:])
                x = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
                assert pa(x) == sum(c * x ** k for k, c in enumerate(a))
                if a:
                    assert pa.lead == a[-1]
                    assert same(pa.monic(), [c / a[-1] for c in a])

    def test_divmod_by_nonmonic_divisors(self):
        rng = random.Random(73)
        for max_num, max_den in SIZES:
            for _ in range(400):
                a = frac_trim(rand_rational_coeffs(rng, 8, max_num, max_den))
                b = frac_trim(rand_rational_coeffs(rng, 4, max_num, max_den))
                if not b:
                    continue
                q, r = divmod(UPoly(a), UPoly(b))
                oq, orem = frac_divmod(a, b)
                assert same(q, oq) and same(r, orem)

    def test_gcd(self):
        rng = random.Random(79)
        for max_num, max_den in SIZES:
            for _ in range(300):
                if rng.random() < 0.5:
                    a, b = rand_pair_with_common_factor(rng, max_num, max_den)
                else:
                    a = frac_trim(rand_rational_coeffs(rng, 6, max_num, max_den))
                    b = frac_trim(rand_rational_coeffs(rng, 6, max_num, max_den))
                if a or b:
                    assert same(UPoly(a).gcd(UPoly(b)), prs_gcd(a, b))

    def test_ratfunc_canonical_form_and_repr(self):
        rng = random.Random(83)
        for max_num, max_den in SIZES:
            for _ in range(300):
                num, den = rand_pair_with_common_factor(rng, max_num, max_den)
                if not den:
                    continue
                f = RatFunc(UPoly(num), UPoly(den))
                cnum, cden = frac_ratfunc(num, den)
                assert same(f.num, cnum) and same(f.den, cden)
                expected = frac_repr(cnum)
                if cden != (1,):
                    expected += " / " + frac_repr(cden)
                assert repr(f) == f"RatFunc({expected})"


def frac_add(a, b):
    pad = max(len(a), len(b))
    return frac_trim(x + y for x, y in zip(a + (Fraction(0),) * (pad - len(a)),
                                           b + (Fraction(0),) * (pad - len(b))))


def frac_derivative(a):
    return tuple(k * c for k, c in enumerate(a))[1:]


def frac_pow(a, n):
    out = (Fraction(1),)
    for _ in range(n):
        out = frac_mul(out, a)
    return out


def oracle_step(op, x, y, n):
    """One operation on canonical (num, den) pairs of Fraction tuples,
    brought back to canonical form at once."""
    (xn, xd), (yn, yd) = x, y
    neg = tuple(-c for c in yn)
    parts = {"+": (frac_add(frac_mul(xn, yd), frac_mul(yn, xd)), frac_mul(xd, yd)),
             "-": (frac_add(frac_mul(xn, yd), frac_mul(neg, xd)), frac_mul(xd, yd)),
             "*": (frac_mul(xn, yn), frac_mul(xd, yd)),
             "/": (frac_mul(xn, yd), frac_mul(xd, yn)),
             "**": (frac_pow(xn, n), frac_pow(xd, n)) if n >= 0
             else (frac_pow(xd, -n), frac_pow(xn, -n)),
             "d": (frac_add(frac_mul(frac_derivative(xn), xd),
                            frac_mul(tuple(-c for c in xn), frac_derivative(xd))),
                   frac_mul(xd, xd))}[op]
    return frac_ratfunc(*parts)


class TestLazyCanonicalForm:
    def test_chains_match_canonical_every_step(self, monkeypatch):
        """Seeded chains of + - * / ** and derivative: reading num, den,
        repr and hash only at the end, or at random points between steps,
        gives what canonicalizing after every step gives."""
        # the chains at the larger size reach gcds past the resource guard
        # on the canonical form, whose refusals TestQuotientGcdGuard checks;
        # here only the canonical form's value is under test
        monkeypatch.setattr(symbolic, "QUOTIENT_GCD_BUDGET", 10 ** 12)
        rng = random.Random(89)
        for max_num, max_den in SIZES:
            for _ in range(100):
                def operand():
                    cs = [frac_trim(rand_rational_coeffs(rng, 2, max_num, max_den))
                          for _ in range(2)]
                    if not cs[1]:
                        cs[1] = (Fraction(1),)
                    return RatFunc(UPoly(cs[0]), UPoly(cs[1])), frac_ratfunc(*cs)

                f, oracle = operand()
                for _ in range(rng.randint(1, 6)):
                    op = rng.choice(("+", "-", "*", "/", "**", "d"))
                    g, other = operand()
                    n = rng.randint(-2, 3)
                    if op == "/" and g.is_zero or op == "**" and n < 0 and f.is_zero:
                        continue
                    f = {"+": lambda: f + g, "-": lambda: f - g, "*": lambda: f * g,
                         "/": lambda: f / g, "**": lambda: f ** n,
                         "d": lambda: f.derivative()}[op]()
                    oracle = oracle_step(op, oracle, other, n)
                    if rng.random() < 0.3:
                        f.num  # later steps then start from the canonical parts
                onum, oden = oracle
                expected = frac_repr(onum)
                if oden != (1,):
                    expected += " / " + frac_repr(oden)
                assert f.num.coeffs == onum and f.den.coeffs == oden
                assert repr(f) == f"RatFunc({expected})"
                assert hash(f) == hash((UPoly(onum), UPoly(oden)))

    def test_arithmetic_and_equality_run_no_gcd(self, monkeypatch):
        calls = count_gcd_calls(monkeypatch)
        rng = random.Random(97)
        for _ in range(50):
            f, g = rand_ratfunc(rng, 3, nonzero=True), rand_ratfunc(rng, 3, nonzero=True)
            h = ((f + g) * (f - g) / g) ** 2 - (-f) ** -1
            assert h.derivative(2) == h.derivative().derivative()
            assert (f + g) * (f - g) == f * f - g * g
            assert not calls
            h.num
            assert len(calls) == 1
            h.den, hash(h), repr(h), h.is_constant
            assert len(calls) == 1
            del calls[:]

    def test_equal_values_hash_equal(self):
        z = RatFunc.x()
        routes = [RatFunc(UPoly((-1, 0, 1)), UPoly((-1, 1))),   # (z^2-1)/(z-1)
                  (z * z - 1) / (z - 1),
                  RatFunc(UPoly((2, 2)), UPoly((2,))),
                  1 / (1 / (z + 1)),
                  ((z + 1) ** 3 / (z + 1) ** 2),
                  (z ** 2 / 2 + z).derivative()]
        for f in routes:
            assert f == z + 1 and hash(f) == hash(z + 1)
            assert repr(f) == "RatFunc(UPoly(1 + z))"
        assert len(set(routes)) == 1



class TestQuotientGcdGuard:
    # (z+1)^200+z over (2*z+5)^200+1: cost 200 * 200 * 558 bits, whose gcd
    # takes about a minute
    NUM = UPoly((1, 1)) ** 200 + UPoly.x()
    DEN = UPoly((5, 2)) ** 200 + 1
    REFUSED = f"> QUOTIENT_GCD_BUDGET = {QUOTIENT_GCD_BUDGET} refused (resource guard)"

    def test_stored_reads_never_refuse(self, monkeypatch):
        calls = count_gcd_calls(monkeypatch)
        f = RatFunc(self.NUM, self.DEN)
        assert f.as_quotient() == (self.NUM, self.DEN) and not f.is_zero
        assert f == RatFunc(self.NUM * 3, self.DEN * 3) and f != RatFunc(self.NUM, self.NUM)
        assert f.derivative().as_quotient()[1] == self.DEN ** 2
        assert calls == []

    def test_canonical_reads_refuse_before_the_gcd(self, monkeypatch):
        # is_constant reads the stored parts, so it answers
        calls = count_gcd_calls(monkeypatch)
        f = RatFunc(self.NUM, self.DEN)
        assert not f.is_constant
        for read in (lambda: f.num, lambda: f.den, lambda: hash(f)):
            with pytest.raises(ValueError, match=re.escape(
                    f"quotient gcd size {200 * 200 * 558} {self.REFUSED}")):
                read()
        assert calls == []

    def test_repr_shows_the_stored_parts(self, monkeypatch):
        # a traceback or assertion message that formats f still shows it
        calls = count_gcd_calls(monkeypatch)
        f = RatFunc(self.NUM, self.DEN)
        assert repr(f) == f"RatFunc({self.NUM!r} / {self.DEN!r})"
        assert calls == []

    def test_cost_is_on_the_stored_parts(self):
        # min(deg) * max(deg) * the most bits of any coefficient's
        # numerator or denominator: z^1000 + 2^149 over z + 1 is at the
        # budget, and one more bit, or a common factor, is past it
        at_edge = RatFunc(UPoly.monomial(1000) + 2 ** 149, UPoly((1, 1)))
        assert at_edge.num == UPoly.monomial(1000) + 2 ** 149
        assert 1 * 1000 * 150 == QUOTIENT_GCD_BUDGET
        past = RatFunc(UPoly.monomial(1000) + 2 ** 150, UPoly((1, 1)))
        with pytest.raises(ValueError, match=re.escape(f"size 151000 {self.REFUSED}")):
            past.den
        halves = RatFunc(UPoly.monomial(1000, Fraction(1, 2 ** 149)) + 1, UPoly((1, 1)))
        assert halves.den == UPoly((1, 1))
        common = UPoly((1, 1))
        shared = RatFunc(at_edge.num * common, UPoly((1, 1)) * common)
        with pytest.raises(ValueError, match=re.escape(f"size {2 * 1001 * 150} {self.REFUSED}")):
            shared.num
        assert shared == at_edge

class TestUPoly:
    def test_trailing_zeros_trimmed(self):
        assert UPoly((1, 2, 0, 0)) == UPoly((1, 2))
        assert UPoly((0, 0)).is_zero
        assert UPoly((0, 0)).degree == -1

    def test_divmod_and_gcd(self):
        rng = random.Random(11)
        for _ in range(100):
            a = rand_upoly(rng, 5)
            b = rand_upoly(rng, 3, nonzero=True)
            q, r = divmod(a, b)
            assert a == q * b + r
            assert r.is_zero or r.degree < b.degree
            g = a.gcd(b)
            if not g.is_zero:
                assert g.lead == 1
                assert (a % g).is_zero and (b % g).is_zero

    def test_from_roots_and_eval(self):
        p = UPoly.from_roots([1, -2, Fraction(1, 2)])
        for r in (1, -2, Fraction(1, 2)):
            assert p(r) == 0
        assert p(0) == 1 * (-2) * Fraction(1, 2) * -1  # (-1)^3 * product

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            UPoly((0.5, 1))


class TestRatFunc:
    def test_sum_over_common_denominator(self):
        z = RatFunc.x()
        assert z + 1 / z == RatFunc(UPoly((1, 0, 1)), UPoly.x())

    def test_cancellation_on_construction(self):
        f = RatFunc(UPoly((-1, 0, 1)), UPoly((-1, 1)))  # (z^2-1)/(z-1)
        assert f == RatFunc(UPoly((1, 1)))

    def test_inverse_pair(self):
        z = RatFunc.x()
        assert ((z + 1) / z) * (z / (z + 1)) == 1

    def test_arith_dispatch(self):
        z = RatFunc.x()
        assert z + z == 2 * z
        assert (z - z).is_zero
        assert z * z == RatFunc(UPoly.monomial(2))
        assert z / z == 1
        with pytest.raises(ZeroDivisionError):
            z / RatFunc.constant(0)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(UPoly.x(), UPoly.zero())

    def test_canonical_form_unique(self):
        a = RatFunc(UPoly((0, 2)), UPoly((0, 0, 4)))   # 2z / 4z^2
        b = RatFunc(UPoly((1,)), UPoly((0, 2)))        # 1 / 2z
        assert a == b and hash(a) == hash(b)
        assert a.den.lead == 1
        assert a.num.gcd(a.den).degree <= 0

    def test_is_constant_on_stored_parts(self, monkeypatch):
        # num * lc(den) == den * lc(num) on the parts as stored, against
        # the canonical form's degrees, which the oracle reads first
        rng = random.Random(29)
        stored, expected = [], []
        for _ in range(300):
            common, den = rand_upoly(rng, 3, nonzero=True), rand_upoly(rng, 3, nonzero=True)
            num = den * rand_fraction(rng) if rng.random() < 0.3 else rand_upoly(rng, 3)
            f = RatFunc(common * num, common * den)
            stored.append(RatFunc(*f.as_quotient()))
            expected.append(f.num.degree <= 0 and f.den.degree == 0)
        calls = count_gcd_calls(monkeypatch)
        assert [f.is_constant for f in stored] == expected and calls == []
        assert 50 < sum(expected) < 250

    def test_derivative_examples(self):
        z = RatFunc.x()
        assert (z * z).derivative() == 2 * z
        assert (1 / z).derivative(2) == RatFunc(UPoly((2,)), UPoly.monomial(3))
        # expand-then-differentiate oracle for (1+z)^2
        expanded = UPoly((1, 2, 1))
        oracle = RatFunc(UPoly(tuple(k * c for k, c in enumerate(expanded.coeffs))[1:]))
        assert ((1 + z) ** 2).derivative() == oracle == RatFunc(UPoly((2, 2)))

    def test_derivative_matches_quotient_rule_oracle(self):
        def oracle(f, n):
            # the quotient rule applied n times, reduced by the gcd at every
            # step (past the size at which RatFunc's canonical form refuses)
            num, den = f.as_quotient()
            for _ in range(n):
                num, den = num.derivative() * den - num * den.derivative(), den * den
                g = num.gcd(den)
                num, den = num // g, den // g
            return RatFunc(num, den)

        rng = random.Random(41)
        for _ in range(80):
            f = rand_ratfunc(rng, max_deg=4)
            n = rng.randint(1, 8)
            assert f.derivative(n) == oracle(f, n), (f, n)

    def test_product_rule_randomized(self):
        rng = random.Random(23)
        for _ in range(200):
            f = rand_ratfunc(rng, max_deg=6)
            g = rand_ratfunc(rng, max_deg=6)
            assert (f * g).derivative() == f.derivative() * g + f * g.derivative()

    @given(coeff_lists, nonzero_coeff_lists, coeff_lists,
           nonzero_coeff_lists, coeff_lists, nonzero_coeff_lists)
    def test_field_axioms(self, an, ad, bn, bd, cn, cd):
        a = RatFunc(UPoly(an), UPoly(ad))
        b = RatFunc(UPoly(bn), UPoly(bd))
        c = RatFunc(UPoly(cn), UPoly(cd))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a + (b + c) == (a + b) + c
        if not b.is_zero:
            assert (a / b) * b == a


class TestMPoly:
    NAMES = ("x", "y")

    def test_binomial_identity(self):
        x, y = (MPoly.var(name, self.NAMES) for name in self.NAMES)
        two = MPoly.constant(2, self.NAMES)
        assert (x + y) ** 2 == x ** 2 + two * x * y + y ** 2

    def test_constant_mismatch(self):
        x = MPoly.var("x", self.NAMES)
        assert x ** 2 + MPoly.constant(1, self.NAMES) != x ** 2

    def test_ring_axioms_randomized(self):
        rng = random.Random(5)
        names = ("x", "y", "z")

        def rand_mpoly():
            terms = {}
            for _ in range(rng.randint(0, 6)):
                exps = tuple(rng.randint(0, 4) for _ in names)
                terms[exps] = rand_fraction(rng)
            return MPoly(names, terms)

        for _ in range(200):
            a, b, c = rand_mpoly(), rand_mpoly(), rand_mpoly()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
