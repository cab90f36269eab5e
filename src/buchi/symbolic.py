"""Exact symbolic arithmetic: univariate polynomials and rational
functions over Q, and the sparse multivariate polynomials of
reduction.parser.expand.

UPoly stores integer numerators (a_0..a_d), trailing zeros trimmed, over
one positive denominator coprime to them.  Its arithmetic runs on those
integers, one integer pseudo-division serves both divmod and gcd, and
Fractions appear only in `coeffs`, `lead`, evaluation and repr.  RatFunc
arithmetic and == multiply and run no gcd; the canonical form (coprime,
den monic) is reduced once, the first time it is read.
MPoly maps exponent vectors over a fixed variable tuple to nonzero
rational coefficients; equality is structural.

There is deliberately no factorization, no multivariate gcd and no power
series here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

from .exact import as_fraction


def _reduced(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """num/den with trailing zeros stripped, gcd(den, *num) = 1 and
    den > 0; zero is ((), 1)."""
    while num and num[-1] == 0:
        num.pop()
    g = gcd(den, *num) if den > 0 else -gcd(den, *num)
    if g != 1:
        num, den = [c // g for c in num], den // g
    return tuple(num), den


def _primitive(v) -> list[int]:
    g = gcd(*v)
    return [c // g for c in v] if g > 1 else list(v)


def _pseudo_divmod(a, b, quotient: bool = True) -> tuple[list[int], list[int], int]:
    """(q, r, m) over Z with m*a = q*b + r, deg r < deg b and m != 0, for
    integer coefficient sequences without trailing zeros (b nonzero).
    Each step scales by lc(b)/gcd(lead, lc(b)) only, so a divisor with
    lead +-1 never scales.  A step scales only the deg b coefficients
    under b; each lower one takes the product m when b reaches it.  q,
    which can hold far more digits than r, is left empty unless asked."""
    db, lb = len(b) - 1, b[-1]
    r, steps, m = list(a), [], 1
    for k in range(len(a) - 1 - db, -1, -1):
        r[k] *= m
        t, s = r.pop(), 1
        if t:
            g = gcd(t, lb)
            s, t = lb // g, t // g
            m *= s
            r[k:] = [s * c - t * d for c, d in zip(r[k:], b)]
        steps.append((t, s))
    while r and r[-1] == 0:
        r.pop()
    q, later = [], 1  # each quotient term takes the scales of later steps
    for t, s in reversed(steps if quotient else ()):
        q.append(t * later)
        later *= s
    return q, r, m


class UPoly:
    """Univariate polynomial over Q, coefficients indexed by degree."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self._num, self._den = _reduced(
            [c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def _make(cls, num: list[int], den: int = 1) -> "UPoly":
        p = object.__new__(cls)
        p._num, p._den = _reduced(num, den)
        return p

    @classmethod
    def zero(cls) -> "UPoly":
        return cls(())

    @classmethod
    def constant(cls, c) -> "UPoly":
        return cls((c,))

    @classmethod
    def x(cls) -> "UPoly":
        """The monomial z."""
        return cls((0, 1))

    @classmethod
    def monomial(cls, k: int, c=1) -> "UPoly":
        if k < 0:
            raise ValueError("negative degree")
        return cls((0,) * k + (c,))

    @classmethod
    def from_roots(cls, roots: Iterable, lead=1) -> "UPoly":
        p = cls.constant(lead)
        for r in roots:
            p = p * cls((-as_fraction(r), 1))
        return p

    @property
    def coeffs(self) -> tuple:
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._num) - 1

    @property
    def lead(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    @property
    def ord0(self) -> int:
        """Order of vanishing at 0."""
        if self.is_zero:
            raise ValueError("zero polynomial vanishes to every order")
        return next(k for k, c in enumerate(self._num) if c)

    def __eq__(self, other) -> bool:
        if isinstance(other, UPoly):
            return self._num == other._num and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return self == UPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        if self.is_zero:
            return "UPoly(0)"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*z" if c != 1 else "z")
            else:
                parts.append(f"{c}*z^{k}" if c != 1 else f"z^{k}")
        return "UPoly(" + " + ".join(parts) + ")"

    @staticmethod
    def _coerce(other) -> "UPoly | None":
        if isinstance(other, UPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UPoly.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, den = self._num, other._num, self._den
        if den != other._den:
            den = lcm(den, other._den)
            a = [c * (den // self._den) for c in a]
            b = [c * (den // other._den) for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UPoly._make(out, den)

    __radd__ = __add__

    def __neg__(self) -> "UPoly":
        return UPoly._make([-c for c in self._num], self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return UPoly.zero()
        b = other._num
        out = [0] * (len(self._num) + len(b) - 1)
        for i, a in enumerate(self._num):
            if a:
                for j, c in enumerate(b, i):
                    out[j] += a * c
        return UPoly._make(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = UPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "UPoly"):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        # self = A/da and other = B/db with m*A = Q*B + R
        q, r, m = _pseudo_divmod(self._num, other._num)
        den = m * self._den
        return UPoly._make([c * other._den for c in q], den), UPoly._make(r, den)

    def __mod__(self, other: "UPoly") -> "UPoly":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "UPoly") -> "UPoly":
        return divmod(self, other)[0]

    def monic(self) -> "UPoly":
        if self.is_zero or self._num[-1] == self._den:
            return self
        return UPoly._make(list(self._num), self._num[-1])

    def gcd(self, other: "UPoly") -> "UPoly":
        """Monic gcd, computed by a primitive pseudo-remainder sequence
        over the integer numerators (plain rational Euclid explodes on the
        large products the identity checks produce)."""
        b = self._coerce(other)
        if b is None:
            raise TypeError("gcd expects a polynomial")
        if self.is_zero:
            return b.monic()
        if b.is_zero:
            return self.monic()
        a, b = _primitive(self._num), _primitive(b._num)
        if len(a) < len(b):
            a, b = b, a
        while len(b) > 1:
            a, b = b, _primitive(_pseudo_divmod(a, b, quotient=False)[1])
        g = b or a  # a nonzero constant remainder means the gcd is 1
        return UPoly._make(g, g[-1])

    def derivative(self, n: int = 1) -> "UPoly":
        if n < 0:
            raise ValueError("negative derivative order")
        p = self
        for _ in range(n):
            p = UPoly._make([k * c for k, c in enumerate(p._num)][1:], p._den)
        return p

    def __call__(self, x) -> Fraction:
        x = as_fraction(x)
        acc, scale = 0, 1  # Horner's rule for sum a_k p**k q**(d-k), x = p/q
        for c in reversed(self._num):
            acc, scale = acc * x.numerator + c * scale, scale * x.denominator
        return Fraction(acc, self._den * x.denominator ** max(0, self.degree))


class RatFunc:
    """Rational function over Q.  Arithmetic, derivative and == multiply
    the stored parts and run no gcd; the canonical form (coprime, den
    monic) is reduced once, when num, den, the hash or the repr reads it."""

    __slots__ = ("_num", "_den", "_canonical")

    def __init__(self, num, den=1):
        self._num, self._den = self._as_poly(num), self._as_poly(den)
        if self._den.is_zero:
            raise ZeroDivisionError("zero denominator")
        self._canonical = False

    def _parts(self) -> tuple[UPoly, UPoly]:
        """The canonical (num, den), reduced on the first call and kept."""
        if not self._canonical:
            num, den = self._num, self._den
            g = num.gcd(den)  # den itself, made monic, when num is zero
            if g.degree >= 1:
                num, den = num // g, den // g
            self._num, self._den = num * (1 / den.lead), den.monic()
            self._canonical = True
        return self._num, self._den

    @staticmethod
    def _as_poly(v) -> UPoly:
        if isinstance(v, UPoly):
            return v
        if isinstance(v, (int, Fraction)):
            return UPoly.constant(v)
        raise TypeError(f"cannot build a rational function from {type(v).__name__}")

    @classmethod
    def constant(cls, c) -> "RatFunc":
        return cls(UPoly.constant(c))

    @classmethod
    def x(cls) -> "RatFunc":
        return cls(UPoly.x())

    def as_quotient(self) -> tuple[UPoly, UPoly]:
        """Some (num, den) with self == num/den: the parts as stored, not
        necessarily coprime, so no gcd runs.  Enough for what is
        multiplicative, such as a norm."""
        return self._num, self._den

    @property
    def num(self) -> UPoly:
        return self._parts()[0]

    @property
    def den(self) -> UPoly:
        return self._parts()[1]

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._num * other._den == other._num * self._den

    def __hash__(self) -> int:
        return hash(self._parts())

    def __repr__(self) -> str:
        if self.den == UPoly.constant(1):
            return f"RatFunc({self.num!r})"
        return f"RatFunc({self.num!r} / {self.den!r})"

    @staticmethod
    def _coerce(other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction, UPoly)):
            return RatFunc(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self._num * other._den + other._num * self._den,
                       self._den * other._den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self._num, self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return RatFunc(self._num * other._den, self._den * other._num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return RatFunc.constant(1) / (self ** (-n))
        return RatFunc(self._num ** n, self._den ** n)

    def derivative(self, n: int = 1) -> "RatFunc":
        """Exact n-th derivative.  For f = N/D, f^(k) = N_k / D^(k+1) with
        N_0 = N and N_(k+1) = N_k' D - (k+1) N_k D', over the stored N and
        D; no gcd runs."""
        if n < 1:
            raise ValueError("derivative order must be >= 1")
        num, den = self._num, self._den
        den_prime = den.derivative()
        for k in range(1, n + 1):
            num = num.derivative() * den - k * num * den_prime
        return RatFunc(num, den ** (n + 1))


class MPoly:
    """Sparse multivariate polynomial over Q with named variables: the
    expansion parser.expand builds.

    Terms map exponent tuples (one entry per variable, in the order of
    the variable tuple) to nonzero coefficients.
    """

    __slots__ = ("_vars", "_terms")

    def __init__(self, variables: Iterable[str], terms: Mapping | None = None):
        self._vars = tuple(variables)
        self._terms = {exps: as_fraction(c) for exps, c in (terms or {}).items() if c != 0}

    @classmethod
    def constant(cls, c, variables: Iterable[str]) -> "MPoly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def var(cls, name: str, variables: Iterable[str]) -> "MPoly":
        variables = tuple(variables)
        e = [0] * len(variables)
        e[variables.index(name)] = 1
        return cls(variables, {tuple(e): 1})

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self._vars == other._vars and self._terms == other._terms

    def _coerce(self, other) -> "MPoly | None":
        return other if isinstance(other, MPoly) else None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for exps, c in other._terms.items():
            s = out.get(exps, Fraction(0)) + c
            if s == 0:
                out.pop(exps, None)
            else:
                out[exps] = s
        return MPoly(self._vars, out)

    def __neg__(self) -> "MPoly":
        return MPoly(self._vars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return MPoly(self._vars, out)

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power")
        result = MPoly.constant(1, self._vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result
