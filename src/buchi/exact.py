"""Exact integer and rational predicates used everywhere else: rational
coercion, primality, perfect-square tests, p-adic valuations, and
polynomial identity checks on an integer grid.

All arithmetic in this package is arbitrary precision and exact.  Floats
are rejected at the boundaries rather than silently converted.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product


class _PadicInfinity:
    """The valuation of zero.

    A tagged singleton rather than a sentinel integer: it compares above
    every finite valuation and absorbs addition, so valuation arithmetic
    is total.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"

    def __eq__(self, other) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("buchi.exact.INFINITY")

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return other is self

    def __gt__(self, other) -> bool:
        return other is not self

    def __ge__(self, other) -> bool:
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__


INFINITY = _PadicInfinity()

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_13: the least strong pseudoprime to every base in _SMALL_PRIMES.
_PRIME_BOUND = 3317044064679887385961981


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the prime bases 2..41, proven exact
    for n < 3317044064679887385961981.  Raises ValueError for larger n
    rather than guess."""
    if n < 2:
        return False
    if n >= _PRIME_BOUND:
        raise ValueError(f"cannot certify primality of {n} (at or above {_PRIME_BOUND})")
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions and strings of the form [-]digits[/digits].
    Other strings, decimal and exponent notation included, and a zero
    denominator raise ValueError; floats and other types raise TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if _RATIONAL.fullmatch(x) is None:
            raise ValueError(f"{x!r} is not an exact rational: write num/den, "
                             "not float notation")
        if int(x.partition("/")[2] or 1) == 0:
            raise ValueError(f"{x!r} has a zero denominator")
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def is_square_int(n: int) -> bool:
    """True iff n = m**2 for some integer m."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def is_square_rat(q) -> Fraction | None:
    """Nonnegative rational square root of q when one exists, else None.

    A rational in lowest terms is a square exactly when its numerator and
    denominator are both perfect squares.
    """
    q = as_fraction(q)
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    if rn * rn != q.numerator:
        return None
    rd = math.isqrt(q.denominator)
    if rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def _int_valuation(n: int, p: int) -> int:
    # n != 0, p >= 2 assumed.  Squares p while p**(2**k) divides n, then
    # reads v's binary digits from the top: O(log v) divisions, not v.
    if n % p:
        return 0
    powers, v = [p], 0
    while n % (square := powers[-1] * powers[-1]) == 0:
        powers.append(square)
    for k in range(len(powers) - 1, -1, -1):
        q, r = divmod(n, powers[k])
        if r == 0:
            n, v = q, v + (1 << k)
    return v


def valuation(q, p: int):
    """v_p(q) as a plain int, or INFINITY for q = 0.  p must be prime."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = as_fraction(q)
    if q == 0:
        return INFINITY
    return _int_valuation(q.numerator, p) - _int_valuation(q.denominator, p)


def vanishes_on_grid(poly, degrees) -> bool:
    """True iff the integer function poly(*point) is 0 at every point of
    the grid {0..D_1} x ... x {0..D_k}, degrees = (D_1, ..., D_k).

    A polynomial of degree at most D_v in each variable v that vanishes
    on that grid is the zero polynomial (Alon's Combinatorial
    Nullstellensatz, Combin. Probab. Comput. 8, 1999, Lemma 2.1), so for
    such a poly this is an exact, deterministic identity check."""
    return all(poly(*point) == 0 for point in product(*(range(d + 1) for d in degrees)))
