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
from .exact import as_fraction, is_square_int, is_square_rat, vanishes_on_grid

# Largest scans accepted (resource guards), from in-process times on a
# 2-vCPU VM (CPython 3.11): the integer-node scan at height 5000 takes up
# to about 1.1 s, and a grid of 3.8*10**6 pairs (rational height 40)
# 0.66 s.  A pair counts 1 + S // 8 times, S the most bits of a node's
# numerator and denominator: at S = 3300 a pair costs 205, height 40 444 s.
SCAN_HEIGHT_BUDGET = 5_000
SCAN_GRID_BUDGET = 4_000_000
# Largest N of the counterexample family accepted (resource guard): at
# N = 500 the nodes and roots have up to 2568 digits and `surface family
# --json` prints 2 MB in about 0.3 s; from N = 780 on, (2N)! has more
# digits than CPython converts to a string by default.
FAMILY_N_BUDGET = 500


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


def _rationals_up_to(height: int) -> list[Fraction]:
    """Reduced p/q with |p| <= height and 1 <= q <= height, ascending."""
    vals = set()
    for q in range(1, height + 1):
        for p in range(-height, height + 1):
            vals.add(Fraction(p, q))
    return sorted(vals)


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


def _scan_integer_nodes(nodes: list[int], height: int) -> list[MonicQuadratic]:
    found = []
    for u in range(-height, height + 1):
        bases = sorted((a * a + u * a for a in nodes), reverse=True)
        top, rest = bases[0], bases[1:]
        # v = s**2 - top over the squares s**2 in [top - height, top + height].
        s = isqrt(max(0, top - height))
        if s * s < top - height:
            s += 1
        while (v := s * s - top) <= height:
            s += 1
            if u * u != 4 * v and all(is_square_int(b + v) for b in rest):
                found.append(MonicQuadratic(u, v))
    return found


def _scan_grid(nodes: tuple[Fraction, ...], values: list[Fraction]) -> list[MonicQuadratic]:
    # n/d + p/q is a rational square iff (n*q + p*d)*d*q is a square.
    pairs = [(v, v.numerator, v.denominator) for v in values]
    found = []
    for u in values:
        bases = [(b.numerator, b.denominator) for b in (a * a + u * a for a in nodes)]
        square = u * u / 4  # v = u**2/4 makes f a square polynomial
        sn, sd = square.numerator, square.denominator
        for v, p, q in pairs:
            if p == sn and q == sd:
                continue
            for n, d in bases:
                x = (n * q + p * d) * d * q
                if x < 0 or isqrt(x) ** 2 != x:
                    break
            else:
                found.append(MonicQuadratic(u, v))
    return found


def scan_exceptional(nodes: EvaluationNodes, height: int,
                     integers_only: bool = False) -> list[MonicQuadratic]:
    """All non-square f = x**2 + u*x + v of height at most `height` whose
    values at every node are rational squares.

    Height of a rational is max(|numerator|, denominator) in lowest
    terms.  The output is a list of candidates below the bound, in
    ascending (u, v) order; no finiteness or completeness beyond the
    bound is implied.

    With integers_only and integer nodes, each u takes v from the squares
    near its largest node value, about O(height**1.5) work in all, and
    refuses heights above SCAN_HEIGHT_BUDGET.  Otherwise it tests the
    (u, v) grid on integer numerators and denominators, O(height**2)
    pairs for integers and O(height**4) for rationals, and refuses grids
    of more than SCAN_GRID_BUDGET pairs, weighted by node bits (both guards).
    """
    if len(nodes) < 3:
        raise ValueError("scan needs at least 3 nodes")
    if height < 1:
        raise ValueError("height must be >= 1")
    node_list = nodes.nodes
    if integers_only and all(a.denominator == 1 for a in node_list):
        guard("SCAN_HEIGHT_BUDGET", height, SCAN_HEIGHT_BUDGET, "scan height")
        return _scan_integer_nodes([a.numerator for a in node_list], height)
    # Every grid holds the (2h + 1)**2 integer pairs; only a grid within
    # the budget by that count is counted exactly, so the count stays cheap.
    weight = 1 + max(a.numerator.bit_length() + a.denominator.bit_length()
                     for a in node_list) // 8
    pairs = (2 * height + 1) ** 2 * weight
    if pairs <= SCAN_GRID_BUDGET:
        pairs = _grid_side(height, integers_only) ** 2 * weight
    guard("SCAN_GRID_BUDGET", pairs, SCAN_GRID_BUDGET, "weighted scan grid pairs")
    values = ([Fraction(k) for k in range(-height, height + 1)]
              if integers_only else _rationals_up_to(height))
    return _scan_grid(node_list, values)


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
