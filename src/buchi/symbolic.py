"""Exact symbolic arithmetic: univariate polynomials and rational
functions over Q, and sparse multivariate polynomials.

UPoly stores a dense coefficient tuple (a_0..a_d) with trailing zeros
trimmed.  RatFunc keeps a canonical form at all times: coprime numerator
and denominator with the denominator monic, so equality of values is
equality of fields.  MPoly maps exponent vectors over a fixed variable
tuple to nonzero rational coefficients; identity checks reduce to
structural equality of the maps.

There is deliberately no factorization, no multivariate gcd and no power
series here.  The one "reduction modulo a relation" ever needed is
imposing e**2 = 1 on a single variable, done by exponent substitution.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

from .exact import as_fraction


def _strip(v: list[int]) -> list[int]:
    while v and v[-1] == 0:
        v.pop()
    return v


def _primitive(v: list[int]) -> list[int]:
    g = 0
    for c in v:
        g = gcd(g, c)
    return [c // g for c in v] if g > 1 else v


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """prem(a, b) over Z: remainder of lc(b)**k * a by b for suitable k."""
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


def _int_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive PRS gcd of integer coefficient lists (both nonzero)."""
    a = _primitive(_strip(a[:]))
    b = _primitive(_strip(b[:]))
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return a


class UPoly:
    """Univariate polynomial over Q, coefficients indexed by degree."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

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
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def lead(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    @property
    def ord0(self) -> int:
        """Order of vanishing at 0."""
        if self.is_zero:
            raise ValueError("zero polynomial vanishes to every order")
        k = 0
        while self._coeffs[k] == 0:
            k += 1
        return k

    def __eq__(self, other) -> bool:
        if isinstance(other, UPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == UPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "UPoly(0)"
        parts = []
        for k, c in enumerate(self._coeffs):
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
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "UPoly":
        return UPoly(tuple(-c for c in self._coeffs))

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
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return UPoly(out)

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
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        r = list(self._coeffs)
        d = other.degree
        lead = other.lead
        while len(r) - 1 >= d and any(c != 0 for c in r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < d:
                break
            k = len(r) - 1 - d
            c = r[-1] / lead
            q[k] = c
            for i, b in enumerate(other._coeffs):
                r[k + i] -= c * b
        return UPoly(q), UPoly(r)

    def __mod__(self, other: "UPoly") -> "UPoly":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "UPoly") -> "UPoly":
        return divmod(self, other)[0]

    def monic(self) -> "UPoly":
        if self.is_zero:
            return self
        lead = self.lead
        if lead == 1:
            return self
        return UPoly(tuple(c / lead for c in self._coeffs))

    def _int_coeffs(self) -> list[int]:
        den = 1
        for c in self._coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        return [int(c * den) for c in self._coeffs]

    def gcd(self, other: "UPoly") -> "UPoly":
        """Monic gcd, computed by a primitive pseudo-remainder sequence
        over the integers (plain rational Euclid explodes on the large
        products the identity checks produce)."""
        b = self._coerce(other)
        if b is None:
            raise TypeError("gcd expects a polynomial")
        if self.is_zero:
            return b.monic()
        if b.is_zero:
            return self.monic()
        g = _int_poly_gcd(self._int_coeffs(), b._int_coeffs())
        return UPoly(g).monic()

    def derivative(self, n: int = 1) -> "UPoly":
        if n < 0:
            raise ValueError("negative derivative order")
        p = self
        for _ in range(n):
            p = UPoly(tuple(k * c for k, c in enumerate(p._coeffs) if k >= 1))
        return p

    def __call__(self, x) -> Fraction:
        x = as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc


class RatFunc:
    """Rational function over Q in canonical form: gcd(num, den) = 1 and
    den monic."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=1):
        num = self._as_poly(num)
        den = self._as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self._num = UPoly.zero()
            self._den = UPoly.constant(1)
            return
        g = num.gcd(den)
        if g.degree >= 1:
            num = num // g
            den = den // g
        lead = den.lead
        if lead != 1:
            num = num * (1 / lead)
            den = den * (1 / lead)
        self._num = num
        self._den = den

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

    @property
    def num(self) -> UPoly:
        return self._num

    @property
    def den(self) -> UPoly:
        return self._den

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    @property
    def is_constant(self) -> bool:
        return self._num.degree <= 0 and self._den.degree == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, UPoly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        if self._den == UPoly.constant(1):
            return f"RatFunc({self._num!r})"
        return f"RatFunc({self._num!r} / {self._den!r})"

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
        N_0 = N and N_(k+1) = N_k' D - (k+1) N_k D'; only the result is
        brought to canonical form."""
        if n < 1:
            raise ValueError("derivative order must be >= 1")
        num, den = self._num, self._den
        den_prime = den.derivative()
        for k in range(1, n + 1):
            num = num.derivative() * den - k * num * den_prime
        return RatFunc(num, den ** (n + 1))


class MPoly:
    """Sparse multivariate polynomial over Q with named variables.

    Terms map exponent tuples (one entry per variable, in the order of
    the variable tuple) to nonzero coefficients.
    """

    __slots__ = ("_vars", "_terms")

    def __init__(self, variables: Iterable[str], terms: Mapping | None = None):
        self._vars = tuple(variables)
        if len(set(self._vars)) != len(self._vars):
            raise ValueError("duplicate variable names")
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != len(self._vars):
                    raise ValueError("arity mismatch")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent")
                c = as_fraction(c)
                if c != 0:
                    clean[exps] = clean.get(exps, Fraction(0)) + c
                    if clean[exps] == 0:
                        del clean[exps]
        self._terms = clean

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "MPoly":
        return cls(variables)

    @classmethod
    def constant(cls, c, variables: Iterable[str]) -> "MPoly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def var(cls, name: str, variables: Iterable[str]) -> "MPoly":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        e = [0] * len(variables)
        e[variables.index(name)] = 1
        return cls(variables, {tuple(e): 1})

    @classmethod
    def vars(cls, *names: str) -> "tuple[MPoly, ...]":
        """Generators x_1..x_k over the variable tuple (names)."""
        return tuple(cls.var(n, names) for n in names)

    @property
    def variables(self) -> tuple[str, ...]:
        return self._vars

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(other, self._vars)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self._vars == other._vars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._vars, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if self.is_zero:
            return "MPoly(0)"
        bits = []
        for exps in sorted(self._terms, reverse=True):
            c = self._terms[exps]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self._vars, exps) if e > 0
            )
            if mono:
                bits.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                bits.append(str(c))
        return "MPoly(" + " + ".join(bits) + ")"

    def _coerce(self, other) -> "MPoly | None":
        if isinstance(other, MPoly):
            if other._vars != self._vars:
                raise ValueError("arity mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.constant(other, self._vars)
        return None

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

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly(self._vars, {e: -c for e, c in self._terms.items()})

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

    __rmul__ = __mul__

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

    def substitute(self, name: str, replacement: "MPoly") -> "MPoly":
        """Replace a variable by a polynomial over the same variable tuple."""
        if name not in self._vars:
            raise ValueError(f"unknown variable {name!r}")
        replacement = self._coerce(replacement)
        idx = self._vars.index(name)
        out = MPoly.zero(self._vars)
        powers: dict[int, MPoly] = {0: MPoly.constant(1, self._vars)}
        for exps, c in sorted(self._terms.items()):
            e = exps[idx]
            if e not in powers:
                powers[e] = replacement ** e
            rest = list(exps)
            rest[idx] = 0
            out = out + MPoly(self._vars, {tuple(rest): c}) * powers[e]
        return out

    def impose_square_one(self, name: str) -> "MPoly":
        """Reduce modulo the relation name**2 = 1 (exponents mod 2)."""
        if name not in self._vars:
            raise ValueError(f"unknown variable {name!r}")
        idx = self._vars.index(name)
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self._terms.items():
            e = list(exps)
            e[idx] %= 2
            e = tuple(e)
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return MPoly(self._vars, out)

    def __call__(self, **values) -> Fraction:
        env = [as_fraction(values[v]) for v in self._vars]
        total = Fraction(0)
        for exps, c in self._terms.items():
            term = c
            for x, e in zip(env, exps):
                if e:
                    term *= x ** e
            total += term
        return total
