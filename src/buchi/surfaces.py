"""Complete-intersection surfaces X_n in P^n cut out by the diagonal
quadrics

    d_2*x_i**2 = d_i*d_2*(d_i - d_2)*x_0**2 - (d_i - d_2)*x_1**2 + d_i*x_2**2

for i = 3..n, together with the dictionary between rational points with
x_0 != 0 and monic quadratics f = x**2 + u*x + v all of whose values at
fixed evaluation nodes are rational squares.

The surfaces contain the lines +-x_1 = +-x_2 - d_2*x_0 = ... =
+-x_n - d_n*x_0 ("trivial lines"), which correspond exactly to the f that
are squares of linear polynomials.  Everything here is exact; projective
points compare equal modulo a nonzero rational scalar.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt

from . import Record, guard
from .exact import as_fraction, is_square_rat, vanishes_on_grid

# Largest scans accepted (resource guards), sized for the scans before
# the residue sieve, which took about 1.1 s at integer height 5000 and
# 0.66 s on the grid of 3.8*10**6 pairs of rational height 40.  With the
# sieve, in-process on a 2-vCPU VM (CPython 3.11), height 40 over nodes
# 1/2, 1, 3 takes about 6 ms, integer height 5000 over 1, 2, 3, 4 about
# 25 ms, and over 0, M, 2M (nodes congruent modulo every sieve prime)
# about 50 ms.  A pair counts 1 + S // 8 times, S the most bits of a
# node's numerator and denominator: where no sieve prime constrains a
# pair, as on nodes whose denominators they all divide, every pair is
# tested exactly, and at S = 3300 a pair costs 205 small ones.
SCAN_HEIGHT_BUDGET = 5_000
SCAN_GRID_BUDGET = 4_000_000
# Largest N of the counterexample family accepted (resource guard): at
# N = 500 the nodes and roots have up to 2568 digits and `surface family
# --json` prints 2 MB in about 0.3 s; from N = 780 on, (2N)! has more
# digits than CPython converts to a string by default.
FAMILY_N_BUDGET = 500
# Odd primes of the scan's quadratic-residue sieve.  Of the sets 3..13
# to 3..29, 3..19 stays within about 20% of the fastest at rational
# heights 13 and 40 and integer heights 300 and 5000: 3..17 sieves too
# little at the large heights (1.4-1.8 times slower), and each prime past
# 19 costs more in tables than it saves at the small ones.
SIEVE_PRIMES = (3, 5, 7, 11, 13, 17, 19)


class MonicQuadratic(Record):
    """f = x**2 + u*x + v with exact rational u, v."""

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        object.__setattr__(self, "u", as_fraction(u))
        object.__setattr__(self, "v", as_fraction(v))

    def __call__(self, x) -> Fraction:
        x = as_fraction(x)
        return x * x + self.u * x + self.v

    @property
    def discriminant(self) -> Fraction:
        return self.u * self.u - 4 * self.v

    @property
    def is_square(self) -> bool:
        """True iff f = (x + u/2)**2, i.e. the discriminant vanishes."""
        return self.discriminant == 0


class EvaluationNodes(Record):
    """Pairwise distinct rational nodes a_1..a_n, n >= 2."""

    __slots__ = ("nodes",)

    def __init__(self, nodes):
        ns = tuple(as_fraction(a) for a in nodes)
        if len(ns) < 2:
            raise ValueError("need at least 2 nodes")
        if len(set(ns)) != len(ns):
            raise ValueError("nodes must be pairwise distinct")
        object.__setattr__(self, "nodes", ns)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def deltas(self) -> tuple[Fraction, ...]:
        """d_i = a_i - a_1 for i >= 2; distinct and nonzero."""
        a1 = self.nodes[0]
        return tuple(a - a1 for a in self.nodes[1:])

    def surface(self) -> "BuchiSurface":
        return BuchiSurface(self.deltas)


class BuchiSurface(Record):
    """X_n, presented by its offsets d_2..d_n (distinct nonzero rationals).

    A single offset gives n = 2 and the empty equation list: X_2 is all
    of P^2.
    """

    __slots__ = ("deltas",)

    def __init__(self, deltas):
        ds = tuple(as_fraction(d) for d in deltas)
        if not ds:
            raise ValueError("need at least one offset")
        if any(d == 0 for d in ds):
            raise ValueError("offsets must be nonzero")
        if len(set(ds)) != len(ds):
            raise ValueError("offsets must be distinct")
        object.__setattr__(self, "deltas", ds)

    @property
    def n(self) -> int:
        """Ambient dimension: the surface lives in P^n."""
        return len(self.deltas) + 1


class ProjectivePoint(Record):
    """[x_0 : ... : x_n]; equality is modulo a nonzero rational scalar."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        cs = tuple(as_fraction(c) for c in coords)
        if all(c == 0 for c in cs):
            raise ValueError("projective point needs a nonzero coordinate")
        object.__setattr__(self, "coords", cs)

    def canonical(self) -> "ProjectivePoint":
        """Scale so the first nonzero coordinate is 1."""
        for c in self.coords:
            if c != 0:
                return ProjectivePoint(tuple(x / c for x in self.coords))
        raise AssertionError("unreachable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        if len(self.coords) != len(other.coords):
            return False
        return self.canonical().coords == other.canonical().coords

    def __hash__(self) -> int:
        return hash(self.canonical().coords)


class TrivialLineWitness(Record):
    """Sign pattern eps_1..eps_n with eps_1*x_1 = eps_i*x_i - d_i*x_0 for
    all i >= 2, plus the common affine value nu = eps_1*x_1/x_0 (None for
    points with x_0 = 0)."""

    __slots__ = ("signs", "nu")


def defining_forms(s: BuchiSurface):
    """(i, c_0, c_1, c_2, c_i) for each defining form c_0*x_0**2 +
    c_1*x_1**2 + c_2*x_2**2 + c_i*x_i**2 = 0, i = 3..n; no other
    coefficient of a form is nonzero."""
    d2 = s.deltas[0]
    for i, di in enumerate(s.deltas[1:], 3):
        yield i, di * d2 * (di - d2), -(di - d2), di, -d2


def surface_equations(s: BuchiSurface) -> list[tuple[Fraction, ...]]:
    """Coefficient vectors (c_0..c_n) of the n-2 defining forms, each
    meaning sum of c_j*x_j**2 = 0."""
    eqs = []
    for i, c0, c1, c2, ci in defining_forms(s):
        c = [Fraction(0)] * (s.n + 1)
        c[0], c[1], c[2], c[i] = c0, c1, c2, ci
        eqs.append(tuple(c))
    return eqs


def _check_arity(s: BuchiSurface, p: ProjectivePoint) -> None:
    if len(p.coords) != s.n + 1:
        raise ValueError(f"point has {len(p.coords)} coordinates, surface needs {s.n + 1}")


def contains(s: BuchiSurface, p: ProjectivePoint) -> bool:
    """Exact membership: every defining form vanishes at p.  Each form
    has four nonzero coefficients, so this takes O(n) operations."""
    _check_arity(s, p)
    sq = [c * c for c in p.coords]
    return all(c0 * sq[0] + c1 * sq[1] + c2 * sq[2] + ci * sq[i] == 0
               for i, c0, c1, c2, ci in defining_forms(s))


def trivial_line_member(s: BuchiSurface, p: ProjectivePoint) -> TrivialLineWitness | None:
    """Sign pattern and affine parameter when p lies on a trivial line.

    Candidate values nu = +-x_1 (after scaling x_0 to 1) leave each
    remaining sign forced, so 2 candidates replace the 2**n pattern scan.
    """
    _check_arity(s, p)
    if not contains(s, p):
        raise ValueError("point is not on the surface")
    c = p.canonical().coords
    x0 = c[0]
    if x0 == 0:
        # Point at infinity of a trivial line: all x_i**2 equal, x_1 != 0.
        base = c[1]
        if base == 0 or any(x * x != base * base for x in c[2:]):
            return None
        signs = (1,) + tuple(1 if x == base else -1 for x in c[2:])
        return TrivialLineWitness(signs, None)
    x1 = c[1]
    for eps1 in (1, -1):
        nu = eps1 * x1
        signs = [eps1]
        ok = True
        for xi, di in zip(c[2:], s.deltas):
            target = nu + di
            if xi == target:
                signs.append(1)
            elif xi == -target:
                signs.append(-1)
            else:
                ok = False
                break
        if ok:
            return TrivialLineWitness(tuple(signs), nu)
    return None


def _rank(rows: list[list[Fraction]]) -> int:
    """Exact rank over Q by Gaussian elimination."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / lead
                for j in range(col, ncols):
                    rows[r][j] -= factor * rows[rank][j]
        rank += 1
        col += 1
    return rank


def jacobian_rank(s: BuchiSurface, p: ProjectivePoint) -> int:
    """Rank over Q of the (n-2) x (n+1) Jacobian of the defining forms
    at a point of the surface."""
    _check_arity(s, p)
    if not contains(s, p):
        raise ValueError("point is not on the surface")
    c = p.coords
    rows = [[2 * cj * xj for cj, xj in zip(eq, c)] for eq in surface_equations(s)]
    return _rank(rows)


def j_of_f(nodes: EvaluationNodes, f: MonicQuadratic) -> ProjectivePoint:
    """[1 : b_1 : ... : b_n] with b_i the nonnegative root of f(a_i).

    Raises when some f(a_i) is not a rational square; the image always
    lies on the surface with offsets d_i = a_i - a_1.
    """
    coords = [Fraction(1)]
    for a in nodes.nodes:
        val = f(a)
        b = is_square_rat(val)
        if b is None:
            raise ValueError(f"f({a}) = {val} is not a rational square")
        coords.append(b)
    return ProjectivePoint(coords)


def f_of_point(nodes: EvaluationNodes, p: ProjectivePoint) -> MonicQuadratic:
    """The unique monic quadratic with f(a_1) = b_1**2 and f(a_2) = b_2**2,
    read off a point [1 : b_1 : ... : b_n].

    When p lies on the surface of the nodes, f(a_i) = b_i**2 holds for
    every i, not just the first two.
    """
    if len(p.coords) != len(nodes) + 1:
        raise ValueError("point arity does not match the node count")
    c = p.canonical().coords
    if c[0] == 0:
        raise ValueError("the correspondence needs x_0 != 0")
    a1, a2 = nodes.nodes[0], nodes.nodes[1]
    b1sq = c[1] * c[1]
    b2sq = c[2] * c[2]
    u = (b2sq - b1sq - a2 * a2 + a1 * a1) / (a2 - a1)
    v = (a1 * a2 * (a2 - a1) - a1 * b2sq + a2 * b1sq) / (a2 - a1)
    return MonicQuadratic(u, v)


def square_iff_trivial(nodes: EvaluationNodes, f: MonicQuadratic) -> tuple[bool, bool]:
    """(f is a square polynomial, j(f) lies on a trivial line); the two
    booleans agree for every admissible f."""
    point = j_of_f(nodes, f)
    witness = trivial_line_member(nodes.surface(), point)
    return (f.is_square, witness is not None)


def _grid_side(height: int, integers_only: bool) -> int:
    """How many values of height at most `height` the grid draws u and v
    from: 2h + 1 integers, or 0 and +-p/q for the 2*(phi(1) + ... +
    phi(h)) - 1 coprime pairs (p, q) in [1, h]**2."""
    if integers_only:
        return 2 * height + 1
    phi = list(range(height + 1))
    for p in range(2, height + 1):
        if phi[p] == p:
            for k in range(p, height + 1, p):
                phi[k] -= phi[k] // p
    return 4 * sum(phi[1:]) - 1


def _reduced_values(height: int) -> list[tuple[int, int]]:
    """Reduced (p, q) with |p| <= height and 1 <= q <= height, ascending
    as p/q: the Farey fractions of order `height` in (0, 1), then 1 and
    their reciprocals, mirrored through 0."""
    low = []
    a, b, c, d = 0, 1, 1, height
    while c < d:
        low.append((c, d))
        k = (height + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    pos = low + [(1, 1)] + [(q, p) for p, q in reversed(low)]
    return [(-p, q) for p, q in reversed(pos)] + [(0, 1)] + pos


def _sieve_tables(nodes: list[tuple[int, int]],
                  values: list[tuple[int, int]]) -> list[tuple[bytes, list[int]]]:
    """For each sieve prime l, the residue code of every value (p/q mod l,
    or l when l divides q) and, by the code of u, the bitset of the v
    for which v + a**2 + u*a is 0 or a square mod l at every node a whose
    denominator l does not divide.  A value or u whose denominator l
    divides is left unconstrained."""
    tables = []
    for l in SIEVE_PRIMES:
        inv = [0] + [pow(x, -1, l) for x in range(1, l)]
        codes = bytes(p * inv[q % l] % l if q % l else l for p, q in values)
        squares = {x * x % l for x in range(l)}
        allowed = []
        for beta in range(l):
            # digit 1 at the codes r with r + beta 0 or a square mod l, and at l
            keep = bytes(ord("0") + ((r + beta) % l in squares) for r in range(l))
            # int() reads the first digit as the highest bit: value j is bit j
            allowed.append(int(codes.translate(keep + b"1" * (256 - l))[::-1], 2))
        alphas = [an * inv[ad % l] % l for an, ad in nodes if ad % l]
        by_u = []
        for r in range(l):
            mask = -1
            for alpha in alphas:
                mask &= allowed[(alpha * alpha + r * alpha) % l]
            by_u.append(mask)
        by_u.append(-1)
        tables.append((codes, by_u))
    return tables


def _scan(nodes: tuple[Fraction, ...], height: int, integers_only: bool) -> list[MonicQuadratic]:
    """scan_exceptional past its guards.  On integer nodes and values,
    v = s**2 - top over the squares s**2 in [top - height, top + height],
    top the largest node value, when they are fewer than the mask's bits."""
    values = ([(k, 1) for k in range(-height, height + 1)]
              if integers_only else _reduced_values(height))
    pairs = [(a.numerator, a.denominator) for a in nodes]
    window = integers_only and all(ad == 1 for _, ad in pairs)
    tables = _sieve_tables(pairs, values)
    ones = (1 << len(values)) - 1
    found = []
    for j, (up, uq) in enumerate(values):
        mask = ones
        for codes, by_u in tables:
            mask &= by_u[codes[j]]
        if not mask:
            continue
        # a**2 + u*a = n/d for a = an/ad, with d > 0
        bases = [(an * (an * uq + up * ad), ad * ad * uq) for an, ad in pairs]
        if window:
            top = max(n for n, _ in bases)
            s = isqrt(top - height - 1) + 1 if top > height else 0
            last = isqrt(top + height) if top + height >= 0 else -1
        if window and last - s < mask.bit_count():
            survivors = [i for i in (t * t - top + height for t in range(s, last + 1))
                         if mask >> i & 1]
        else:
            # bit i of the mask is digit i of its binary digits reversed
            digits = bin(mask)[:1:-1]
            survivors = []
            i = digits.find("1")
            while i >= 0:
                survivors.append(i)
                i = digits.find("1", i + 1)
        # v = u**2/4 in lowest terms makes f the square (x + u/2)**2
        square = (up * up // 4, uq * uq) if up % 2 == 0 else (up * up, 4 * uq * uq)
        # v = p/q; n/d + p/q is a rational square iff (n*q + p*d)*d*q is one
        for i in survivors:
            v = values[i]
            if v == square:
                continue
            p, q = v
            for n, d in bases:
                x = (n * q + p * d) * d * q
                if x < 0 or isqrt(x) ** 2 != x:
                    break
            else:
                found.append(MonicQuadratic(Fraction(up, uq), Fraction(p, q)))
    return found


def scan_exceptional(nodes: EvaluationNodes, height: int,
                     integers_only: bool = False) -> list[MonicQuadratic]:
    """All non-square f = x**2 + u*x + v of height at most `height` whose
    values at every node are rational squares.

    Height of a rational is max(|numerator|, denominator) in lowest
    terms.  The output is a list of candidates below the bound, in
    ascending (u, v) order; no finiteness or completeness beyond the
    bound is implied.

    u and v run over the 2h + 1 integers with integers_only, and over
    the reduced p/q with |p|, q <= height otherwise.  For each u, one
    bitset per prime of SIEVE_PRIMES keeps the v for which every node
    value is 0 or a square modulo that prime (a denominator the prime
    divides gives no constraint), and only the v in every bitset get the
    exact isqrt test.  On integer nodes with integers_only, the squares
    near the largest node value give the v to test instead when they are
    fewer.  So no scan makes more exact tests than the grid has pairs,
    nor, on integer nodes, than there are such squares (O(height**1.5)
    in all); the bitsets add O(height**2) bit operations, a machine word
    at a time.
    Refuses integer-node heights above SCAN_HEIGHT_BUDGET, and otherwise
    grids of more than SCAN_GRID_BUDGET pairs, weighted by node bits
    (both guards).
    """
    if len(nodes) < 3:
        raise ValueError("scan needs at least 3 nodes")
    if height < 1:
        raise ValueError("height must be >= 1")
    node_list = nodes.nodes
    if integers_only and all(a.denominator == 1 for a in node_list):
        guard("SCAN_HEIGHT_BUDGET", height, SCAN_HEIGHT_BUDGET, "scan height")
        return _scan(node_list, height, True)
    # Every grid holds the (2h + 1)**2 integer pairs; only a grid within
    # the budget by that count is counted exactly, so the count stays cheap.
    weight = 1 + max(a.numerator.bit_length() + a.denominator.bit_length()
                     for a in node_list) // 8
    pairs = (2 * height + 1) ** 2 * weight
    if pairs <= SCAN_GRID_BUDGET:
        pairs = _grid_side(height, integers_only) ** 2 * weight
    guard("SCAN_GRID_BUDGET", pairs, SCAN_GRID_BUDGET, "weighted scan grid pairs")
    return _scan(node_list, height, integers_only)


def counterexample_family(N: int) -> tuple[MonicQuadratic, list[int], list[int]]:
    """The family showing no node-count works uniformly for every node
    sequence: f_N = x**2 - 4*(2N)! takes square values at the N nodes
    a_i = i! + (2N)!/i!, which form a strictly decreasing integer
    sequence.

    Returns (f_N, nodes, roots) with f_N(a_i) = roots[i]**2 checked
    exactly; roots[i] = |i! - (2N)!/i!|.  Refuses N above
    FAMILY_N_BUDGET, a resource guard.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    guard("FAMILY_N_BUDGET", N, FAMILY_N_BUDGET, "N")
    K = factorial(2 * N)
    f = MonicQuadratic(0, -4 * K)
    nodes = []
    roots = []
    for i in range(1, N + 1):
        fi = factorial(i)
        a = fi + K // fi
        r = abs(fi - K // fi)
        if f(a) != r * r:
            raise ArithmeticError("square-value identity failed")
        nodes.append(a)
        roots.append(r)
    if any(nodes[i] <= nodes[i + 1] for i in range(len(nodes) - 1)):
        raise ArithmeticError("node sequence is not strictly decreasing")
    return f, nodes, roots


def conic_integrality_identity() -> bool:
    """Exact polynomial identities behind the integrality of the conic
    family c*(c - d_2)*d_2*x_0**2 - (c - d_2)*x_1**2 + c*x_2**2 = 0 for
    the quadratic symmetric form

        x_1*x_2 dx_1^2 + (d_2**2 - x_1**2 - x_2**2) dx_1 dx_2 + x_1*x_2 dx_2^2:

    the pullback lhs - rhs below is zero, and so is the cross term
    2*x1*x2 + d2**2 - x1**2 - x2**2 on the line x_1 = x_2 - d_2.
    vanishes_on_grid checks each exactly, at degree at most (2, 3, 2, 2)
    in (c, d2, x1, x2) and (2, 2) in (d2, x2).  A failure raises; both are
    identities.
    """
    def pullback(c, d2, x1, x2):
        lhs = (c ** 2 * x2 ** 2
               + c * (c - d2) * (d2 ** 2 - x1 ** 2 - x2 ** 2)
               + (c - d2) ** 2 * x1 ** 2)
        return lhs - d2 * (d2 * c * (c - d2) - (c - d2) * x1 ** 2 + c * x2 ** 2)

    def cross_on_line(d2, x2):
        x1 = x2 - d2
        return 2 * x1 * x2 + d2 ** 2 - x1 ** 2 - x2 ** 2

    if not vanishes_on_grid(pullback, (2, 3, 2, 2)):
        raise ArithmeticError("conic pullback identity failed")
    if not vanishes_on_grid(cross_on_line, (2, 2)):
        raise ArithmeticError("trivial-line vanishing identity failed")
    return True
