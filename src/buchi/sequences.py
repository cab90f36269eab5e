"""Integer sequences whose squares have constant second difference 2:
verification, classification of the consecutive-squares (trivial) family,
and exhaustive bounded search.

The squares of such a sequence are forced by the first two: once s_1 and
s_2 are fixed, s_n = (n-1)(n-2) - (n-2)s_1 + (n-1)s_2 for every n.  The
search therefore enumerates the pair (x_1, x_2) only and extends by this
closed form, pruning as soon as a forced value is negative or not a
perfect square.

Squares determine values up to sign, so sequences are canonicalized to
nonnegative entries; reported counts are counts of square-sequences, not
of sign-resolved tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .exact import is_square_int


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


@dataclass(frozen=True)
class TrivialityWitness:
    """Certificate that x_i**2 = (nu + i)**2 for every index i."""

    nu: int
    signs: tuple[int, ...]


@dataclass(frozen=True)
class BuchiSequence:
    """A canonical (entries >= 0) sequence of length >= 3 whose squares
    have second difference constantly 2."""

    values: tuple[int, ...]

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


def search(length: int, bound: int) -> list[BuchiSequence]:
    """Exhaustively enumerate nontrivial canonical sequences of the given
    length with 0 <= x_1, x_2 <= bound, in increasing order of (x_1, x_2).
    """
    if length < 3:
        raise ValueError("length must be >= 3")
    if bound < 1:
        raise ValueError("bound must be >= 1")

    dbl_squares = [2 * x * x for x in range(bound + 1)]
    # Largest forced square over every admissible pair and index.
    max_sq = max(closed_form(0, bound * bound, n) for n in range(3, length + 1))
    max_sq = max(max_sq, bound * bound)
    square_set = {y * y for y in range(isqrt(max_sq) + 1)}

    found: list[BuchiSequence] = []
    for x1 in range(bound + 1):
        s1 = x1 * x1
        c = 2 - s1
        # s_3 = 2 - s_1 + 2*s_2 is 2 or 3 mod 4 unless x_1, x_2 have
        # opposite parity, and no square is 2 or 3 mod 4.
        start = 1 if x1 % 2 == 0 else 0
        for x2 in range(start, bound + 1, 2):
            s2 = dbl_squares[x2] >> 1
            s3 = c + dbl_squares[x2]
            if s3 not in square_set:
                continue
            squares = [s1, s2, s3]
            ok = True
            for n in range(4, length + 1):
                sn = closed_form(s1, s2, n)
                if sn < 0 or sn not in square_set:
                    ok = False
                    break
                squares.append(sn)
            if not ok:
                continue
            seq = BuchiSequence(tuple(isqrt(s) for s in squares[:length]))
            if classify_trivial(seq) is None:
                found.append(seq)
    return found
