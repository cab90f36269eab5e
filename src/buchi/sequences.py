"""Integer sequences whose squares have constant second difference 2:
verification, classification of the consecutive-squares (trivial) family,
and exhaustive bounded search.

The squares of such a sequence are forced by the first two: once s_1 and
s_2 are fixed, s_n = (n-1)(n-2) - (n-2)s_1 + (n-1)s_2 for every n.

The search finds the length-3 sequences from factor pairs instead of
testing every pair (x_1, x_2).  x_1**2 + x_3**2 = 2(x_2**2 + 1) forces
x_1 = x_3 (mod 2), and with a = (x_1 + x_3)/2, b = (x_3 - x_1)/2 it reads
(x_2 - |b|)(x_2 + |b|) = (a - 1)(a + 1).  So every solution is one
factorization e*f = a**2 - 1 with e < f and e = f (mod 2), giving
x_2 = (e + f)/2, |b| = (f - e)/2 and x_1 = a -+ |b|.  The loop runs over
the smaller factor e: for fixed e, f > e, x_2 <= bound and |b| <= a read
a > e, a**2 <= 2*bound*e - e**2 + 1 and (a - e)**2 <= 2*e**2 + 1, and
e | a**2 - 1 puts a on the square roots of 1 mod e.  A table gives them
for every odd modulus, each entry one Chinese remainder step from the
entry of its cofactor, and one more step joins an even modulus's odd
part to its power of 2.  So a search costs about the bound times the
mean number of those roots, not the bound squared.  A sequence is
trivial exactly when |x_1 - x_2| = 1 (its entries |nu + i| move by one,
and the first two squares force the rest), so trivial pairs are dropped
before the closed form extends the others, stopping at the first forced
value that is not a square.

Squares determine values up to sign, so sequences are canonicalized to
nonnegative entries; reported counts are counts of square-sequences, not
of sign-resolved tuples.
"""

from __future__ import annotations

from math import isqrt

from . import Record, guard

# Largest bound search accepts (resource guard).  Time and memory grow
# about linearly in the bound: search(3, 20000) builds 86,688 sequences
# in about 0.4 s, search(5, 20000) takes 0.15 s, and `seq search --length
# 3 --bound 20000` peaks at 40 MB of RSS (2-vCPU VM, CPython 3.11).
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

    @classmethod
    def _certified(cls, values: tuple[int, ...]) -> "BuchiSequence":
        """The sequence of a tuple of nonnegative ints, as search builds it:
        not coerced or copied, but every second difference is checked."""
        s, t, *rest = values
        s, t = s * s, t * t
        for u in rest:
            u *= u
            if s - 2 * t + u != 2:
                raise ValueError(f"{values} is not a Buchi sequence")
            s, t = t, u
        seq = object.__new__(cls)
        object.__setattr__(seq, "values", values)
        return seq

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


def _crt(roots: list[int], m: int, residues, q: int) -> list[int]:
    """The x mod m*q with x = r (mod m) and x = s (mod q), for coprime m
    and q, each r in roots and s in residues."""
    # x = r + m*((s - r)/m mod q)
    inv = pow(m, -1, q)
    return [r + m * ((s - r) * inv % q) for r in roots for s in residues]


def _odd_roots_of_unity(n: int, spf: list[int]) -> list[list[int]]:
    """Entry k holds the residues r mod m = 2k + 1 with r*r = 1 (mod m),
    for m <= n < len(spf): the entry of m's cofactor c = m/q, q the power
    of m's least prime in m, joined to +-1 mod q by one Chinese remainder
    step."""
    table = [[0]]
    for m in range(3, n + 1, 2):
        p = q = spf[m]
        c = m // p
        while c % p == 0:
            c //= p
            q *= p
        table.append(_crt(table[c >> 1], c, (1, q - 1), q))
    return table


def _roots_of_unity(m: int, odd: list[list[int]]) -> list[int]:
    """The residues r mod m with r*r = 1 (mod m), from the table of
    `_odd_roots_of_unity` for m's odd part o: for m = 2**k * o, its
    entry joined by one Chinese remainder step to {1}, {1, 3} or
    {+-1, 2**(k-1) +- 1} mod 2, 4 or 2**k (k >= 3)."""
    two = m & -m
    roots = odd[m // two >> 1]
    if two == 1:
        return roots
    residues = ((1,) if two == 2 else (1, 3) if two == 4
                else (1, two // 2 - 1, two // 2 + 1, two - 1))
    return _crt(roots, m // two, residues, two)


def search(length: int, bound: int) -> list[BuchiSequence]:
    """All nontrivial canonical sequences of the given length with
    0 <= x_1, x_2 <= bound, in increasing order of (x_1, x_2).

    For each smaller factor e < bound it visits only the a in the window
    of the three bounds, in the classes mod 2e that give f = e (mod 2).

    Refuses bounds above SEARCH_BOUND_BUDGET, a resource guard.
    """
    if length < 3:
        raise ValueError("length must be >= 3")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    guard("SEARCH_BOUND_BUDGET", bound, SEARCH_BOUND_BUDGET, "search bound")

    # 2e = 2**k * o with k >= 2 for even e, so every odd part is below bound
    odd = _odd_roots_of_unity(bound, _smallest_prime_factors(bound))
    found: list[tuple[int, ...]] = []
    for e in range(1, bound):
        # f = (a**2 - 1)/e = e (mod 2): for odd e, a is even; for even e,
        # 2e divides a**2 - 1.  Either way a is fixed mod 2e.
        starts = ([r if r % 2 == 0 else r + e for r in odd[e >> 1]]
                  if e % 2 else _roots_of_unity(2 * e, odd))
        step = 2 * e
        # top < 3e, so each class mod 2e holds at most one a > e below it.
        top = min(isqrt(step * bound - e * e + 1), e + isqrt(2 * e * e + 1))
        for r in starts:
            a = r if r > e else r + step
            if a > top:
                continue
            f = (a * a - 1) // e
            x2, b = (e + f) // 2, (f - e) // 2
            for x1 in (a - b, a + b):
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
                    found.append(tuple(values))
    found.sort()
    return [BuchiSequence._certified(values) for values in found]
