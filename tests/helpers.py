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


# Expressions in z of size n, each with the parser calls a unit of n
# costs as parser.MAX_DEPTH counts them: n nested levels of parentheses
# or signs, or None for a flat sum or product of n terms, which MAX_DEPTH
# does not limit (parser.MAX_TOKENS does).
DEEP_SHAPES = {
    "parentheses": (4, lambda n: "(" * n + "z" + ")" * n),
    "signs": (1, lambda n: "-" * n + "z"),
    "sum": (None, lambda n: "+".join(["z"] * n)),
    "product": (None, lambda n: "*".join(["z"] + ["2"] * (n - 1))),
}
# Length at which the flat shapes are tested.
FLAT_LENGTH = 4000


def mixed_nesting(levels: int) -> str:
    """A power of a sum of products, nested `levels` parentheses deep:
    three syntax-tree levels for each '(', all of degree 1 in z."""
    text = "z"
    for _ in range(levels):
        text = f"(2*{text}+z)^1"
    return text


def dense_poly(degree: int) -> str:
    """The dense expansion of a polynomial in z, term by term with
    coefficients other than 1, led by a negative one."""
    return "-" + "+".join(f"{k + 2}*z^{k}" for k in range(degree, -1, -1))
