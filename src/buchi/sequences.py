"""Integer sequences whose squares have constant second difference 2:
verification, classification of the consecutive-squares (trivial) family,
and exhaustive bounded search.

The squares of such a sequence are forced by the first two: once s_1 and
s_2 are fixed, s_n = (n-1)(n-2) - (n-2)s_1 + (n-1)s_2 for every n.

The search finds the length-3 sequences from factor pairs instead of
testing every pair (x_1, x_2).  x_1**2 + x_3**2 = 2(x_2**2 + 1) forces
x_1 = x_3 (mod 2), and with a = (x_1 + x_3)/2, b = (x_3 - x_1)/2 it reads
(x_2 - |b|)(x_2 + |b|) = (a - 1)(a + 1).  So every solution is one
factorization e*f = a**2 - 1 with e <= f and e = f (mod 2), giving
x_2 = (e + f)/2, |b| = (f - e)/2 and x_1 = a -+ |b|.  One
smallest-prime-factor sieve factors a - 1 and a + 1, so a search costs
about the bound times the mean divisor count of a**2 - 1, not the bound
squared.  A sequence is trivial exactly when |x_1 - x_2| = 1 (its
entries |nu + i| move by one, and the first two squares force the
rest), so trivial pairs are dropped before the closed form extends the
others, stopping at the first forced value that is not a square.

Squares determine values up to sign, so sequences are canonicalized to
nonnegative entries; reported counts are counts of square-sequences, not
of sign-resolved tuples.
"""

from __future__ import annotations

from math import isqrt

from . import Record, guard

# Largest bound search accepts (resource guard).  Time and memory grow
# about linearly in the bound: search(3, 20000) builds 86,688 sequences
# in about 1.5 s, search(5, 20000) takes 1.0 s (2-vCPU VM, CPython 3.11).
SEARCH_BOUND_BUDGET = 20_000


def second_difference(squares) -> tuple[int, ...]:
    """s |-> (s_{i+2} - 2*s_{i+1} + s_i); output is 2 shorter."""
    s = tuple(squares)
    if len(s) < 3:
        raise ValueError("need at least 3 terms")
    return tuple(s[i + 2] - 2 * s[i + 1] + s[i] for i in range(len(s) - 2))


def is_buchi(values) -> bool:
    """True iff the second difference of the squares is constantly 2."""
    vs = tuple(values)
    if len(vs) < 3:
        raise ValueError("need at least 3 values")
    squares = tuple(v * v for v in vs)
    return all(d == 2 for d in second_difference(squares))


def closed_form(x1_sq: int, x2_sq: int, n: int) -> int:
    """Forced value of x_n**2 given the first two squares."""
    if n < 1:
        raise ValueError("index must be >= 1")
    return (n - 1) * (n - 2) - (n - 2) * x1_sq + (n - 1) * x2_sq


class TrivialityWitness(Record):
    """Certificate that x_i**2 = (nu + i)**2 for every index i."""

    __slots__ = ("nu", "signs")


class BuchiSequence(Record):
    """A canonical (entries >= 0) sequence of length >= 3 whose squares
    have second difference constantly 2."""

    __slots__ = ("values",)

    def __init__(self, values):
        vs = tuple(abs(int(v)) for v in values)
        if len(vs) < 3:
            raise ValueError("need at least 3 values")
        if not is_buchi(vs):
            raise ValueError(f"{vs} is not a Buchi sequence")
        object.__setattr__(self, "values", vs)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def squares(self) -> tuple[int, ...]:
        return tuple(v * v for v in self.values)

    @classmethod
    def trivial(cls, nu: int, length: int) -> "BuchiSequence":
        """The consecutive-squares sequence x_i = |nu + i|."""
        return cls(tuple(abs(nu + i) for i in range(1, length + 1)))


def classify_trivial(seq: BuchiSequence) -> TrivialityWitness | None:
    """Recover nu with x_i**2 = (nu + i)**2, or None when the sequence is
    not of consecutive-squares type.

    Both sign choices for x_1 are tried; x_1 = |nu + 1| pins nu to two
    candidates and the rest of the sequence either confirms one or rules
    both out.
    """
    vs = seq.values
    for nu in (vs[0] - 1, -vs[0] - 1):
        if all(v * v == (nu + i) * (nu + i) for i, v in enumerate(vs, start=1)):
            signs = tuple(1 if v == nu + i else -1
                          for i, v in enumerate(vs, start=1))
            return TrivialityWitness(nu, signs)
    return None


def _smallest_prime_factors(n: int) -> list[int]:
    """spf[k] = the least prime factor of k for 2 <= k <= n."""
    spf = list(range(n + 1))
    # Descending, so the last divisor written at k, the least, is prime.
    for d in range(isqrt(n), 1, -1):
        spf[d * d::d] = [d] * ((n - d * d) // d + 1)
    return spf


def _factor(k: int, spf: list[int], into: dict[int, int]) -> None:
    while k > 1:
        p = spf[k]
        into[p] = into.get(p, 0) + 1
        k //= p


def _small_divisors(factors: dict[int, int], n: int) -> list[int]:
    """The divisors e of n with e*e <= n, from n's factorization."""
    divisors = [1]
    for p, e in factors.items():
        powers = [p ** i for i in range(e + 1)]
        divisors = [d * q for d in divisors for q in powers]
    return [d for d in divisors if d * d <= n]


def search(length: int, bound: int) -> list[BuchiSequence]:
    """All nontrivial canonical sequences of the given length with
    0 <= x_1, x_2 <= bound, in increasing order of (x_1, x_2).

    Refuses bounds above SEARCH_BOUND_BUDGET, a resource guard.
    """
    if length < 3:
        raise ValueError("length must be >= 3")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    guard("SEARCH_BOUND_BUDGET", bound, SEARCH_BOUND_BUDGET, "search bound")

    # x_1 <= bound and x_3**2 = 2 - x_1**2 + 2*x_2**2 <= 2*bound**2 + 2.
    top = (bound + isqrt(2 * bound * bound + 2)) // 2 + 1
    spf = _smallest_prime_factors(top + 1)
    found: list[BuchiSequence] = []
    for a in range(2, top + 1):
        # The pairs e*f = a**2 - 1 with e = f (mod 2).  For even a, e and f
        # are odd and divide n = (a-1)(a+1).  For odd a they are even, and
        # the loop runs over e/2 * f/2 = n = ((a-1)/2)*((a+1)/2) instead.
        # Either way n = lo*hi with lo, hi coprime.
        if a % 2:
            lo, scale = (a - 1) // 2, 1
            hi = lo + 1
        else:
            lo, hi, scale = a - 1, a + 1, 2
        factors: dict[int, int] = {}
        _factor(lo, spf, factors)
        _factor(hi, spf, factors)
        n = lo * hi
        for e in _small_divisors(factors, n):
            f = n // e
            x2, b = (e + f) // scale, (f - e) // scale
            if x2 > bound or b > a:
                continue
            for x1 in {a - b, a + b}:
                # |x_1 - x_2| = 1 exactly for the consecutive squares.
                if x1 > bound or abs(x1 - x2) == 1:
                    continue
                values = [x1, x2, 2 * a - x1]
                for i in range(4, length + 1):
                    sn = closed_form(x1 * x1, x2 * x2, i)
                    root = isqrt(sn) if sn >= 0 else -1
                    if root * root != sn:
                        break
                    values.append(root)
                else:
                    found.append(BuchiSequence(values))
    found.sort(key=lambda seq: seq.values)
    return found
