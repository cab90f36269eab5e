"""Shared random generators for the exact-arithmetic test suites."""

from fractions import Fraction

from buchi.symbolic import RatFunc, UPoly


def rand_fraction(rng, max_num=9, max_den=5, nonzero=False):
    while True:
        q = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        if q != 0 or not nonzero:
            return q


def rand_upoly(rng, max_deg=4, max_coeff=6, nonzero=False):
    while True:
        deg = rng.randint(0, max_deg)
        p = UPoly([rng.randint(-max_coeff, max_coeff) for _ in range(deg + 1)])
        if not (nonzero and p.is_zero):
            return p


def rand_ratfunc(rng, max_deg=4, max_coeff=6, nonzero=False):
    while True:
        f = RatFunc(rand_upoly(rng, max_deg, max_coeff),
                    rand_upoly(rng, max_deg, max_coeff, nonzero=True))
        if not (nonzero and f.is_zero):
            return f


def count_gcd_calls(monkeypatch) -> list:
    """A list that records every UPoly.gcd call from now on."""
    calls = []
    gcd = UPoly.gcd

    def counted(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(UPoly, "gcd", counted)
    return calls


# Expressions in z that are n levels deep, each with the nested calls a
# level costs as parser.MAX_DEPTH counts them.
DEEP_SHAPES = {
    "parentheses": (4, lambda n: "(" * n + "z" + ")" * n),
    "signs": (1, lambda n: "-" * n + "z"),
    "sum": (1, lambda n: "+".join(["z"] * (n + 1))),
    "product": (1, lambda n: "*".join(["z"] + ["2"] * n)),
}


def dense_poly(degree: int) -> str:
    """The dense expansion of a polynomial in z, term by term with
    coefficients other than 1, led by a negative one."""
    return "-" + "+".join(f"{k + 2}*z^{k}" for k in range(degree, -1, -1))
