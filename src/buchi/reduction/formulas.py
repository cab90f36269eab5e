"""Text renderings of the positive-existential formulas over the
languages {0,1,+,P2} and {0,1,+,P2,f_z}.

P2(x) reads "x is a square"; f_z(x,y) reads "y = z*x".  Mode F is the
square-defining formula built from the second-difference gadget, G pins
down genuine squaring over function rings by a change of variable, H
recovers multiplication from squares by polarization, and Psi defines
squaring through membership in a quadric surface family (conditional on
the surface having no unexpected rational points).
"""

from __future__ import annotations

from .. import guard

DEFAULT_M = 35
# Largest M accepted by compile, check and formulas (resource guard).
# Their output grows linearly in M (2-vCPU VM, CPython 3.11): at M = 1000
# mode F prints 47 kB and compile of x = (a+b+c+d)**4096 1 MB, each in
# under 0.1 s, and at M = 10**5 that compile printed 117 MB and peaked at
# 1.4 GB.  check also refuses gadget witnesses above W_BOUND_BUDGET.
MAX_M = 1000


def check_m(m: int) -> None:
    """Refuse M below 3, and above MAX_M, a resource guard."""
    if m < 3:
        raise ValueError("M must be >= 3")
    guard("MAX_M", m, MAX_M, "M")


def _formula_f(m: int) -> str:
    us = [f"u{i}" for i in range(1, m + 1)]
    lines = ["F[x,y] :="]
    lines.append("  " + " ".join(f"∃{u}" for u in us) + " (")
    lines.append("      " + " ∧ ".join(f"P2({u})" for u in us))
    for i in range(2, m):  # second-difference conjuncts at i = 2..m-1
        lines.append(f"    ∧ u{i - 1} + u{i + 1} = 2*u{i} + 2")
    lines.append("    ∧ x = u1")
    lines.append("    ∧ 2*y + 1 = u2 - u1")
    lines.append("  )")
    return "\n".join(lines)


def _formula_g(m: int) -> str:
    return "\n".join([
        "G[x,y] := F[x,y] ∧ F[z*x, z^2*y]",
        "  (z*x and z^2*y abbreviate fresh variables tied by the pairing",
        f"   symbol f_z; F is the mode-F formula with M = {m})",
    ])


def _formula_h(m: int) -> str:
    return "\n".join([
        "H[x,y,w] := ∃u ∃v (G[x+y, u] ∧ G[x-y, v] ∧ u = v + 4*w)",
        f"  (G is the mode-G formula with M = {m})",
    ])


def _formula_psi(deltas) -> str:
    from ..surfaces import BuchiSurface, defining_forms  # Psi alone needs them
    if len(deltas) < 2:
        raise ValueError("Psi needs at least two offsets")
    surface = BuchiSurface(deltas)
    d2 = surface.deltas[0]
    cs = [f"c{i}" for i in range(1, surface.n + 1)]
    lines = ["Ψ[x,y] :="]
    lines.append("  " + " ".join(f"∃{c}" for c in cs) + " (")
    lines.append("      ψ(" + ",".join(cs) + ")")
    lines.append(f"    ∧ c2 - c1 = 2*{d2}*x + {d2 * d2}")
    lines.append("    ∧ y = c1")
    lines.append("  )")
    lines.append("where")
    lines.append("ψ(" + ",".join(cs) + ") :=")
    lines.append("      " + " ∧ ".join(f"P2({c})" for c in cs))
    for i, c0, c1, c2, ci in defining_forms(surface):
        lines.append(f"    ∧ {-ci}*c{i} = {c0} - {-c1}*c1 + {c2}*c2")
    lines.append("  (the conjuncts put [1 : sqrt(c1) : ... : sqrt(c%d)] on the"
                 % surface.n)
    lines.append("   quadric surface with offsets "
                 + ",".join(str(d) for d in surface.deltas) + ")")
    return "\n".join(lines)


def print_formulas(mode: str, m: int = DEFAULT_M, deltas=None) -> str:
    """Render one of the formulas F, G, H, Psi as text.

    m is the quantifier count of the underlying square-defining block
    (>= 3); Psi instead takes the surface offsets d_2..d_n.
    """
    if mode in ("F", "G", "H"):
        check_m(m)
    if mode == "F":
        return _formula_f(m)
    if mode == "G":
        return _formula_g(m)
    if mode == "H":
        return _formula_h(m)
    if mode == "Psi":
        if deltas is None:
            deltas = tuple(range(1, 8))
        return _formula_psi(deltas)
    raise ValueError(f"unknown mode {mode!r} (expected F, G, H or Psi)")
