"""Closed-form f_3 and t_3 data for dihedral groups of order 2n.

These formulas are evaluated straight from n, independent of the generic
character machinery, so the two paths cross-validate each other.  For the
order-2n dihedral group the coefficient of f_3 (or t_3) on every linear
character is a single number, and the coefficient on the degree-2 character
psi_j depends only on the parity of j; rotation values split by n mod 4.
"""
from __future__ import annotations

from dataclasses import dataclass

from .counts import ClassCounts
from .groups import GroupTable, conjugacy_classes


@dataclass(frozen=True)
class DihedralCoeffs:
    """Coefficients of a count function on the order-2n dihedral group:
    one shared value for the linear characters and one value per psi_j."""

    n: int
    linear_coeff: int
    psi_coeffs: tuple[int, ...]

    def as_row_tuple(self) -> tuple[int, ...]:
        """Coefficients aligned with the closed-form character table order
        (linear characters first, then psi_1, psi_2, ...)."""
        linear = 2 if self.n % 2 else 4
        return (self.linear_coeff,) * linear + self.psi_coeffs


def _require_n(n: int) -> None:
    if n < 3:
        raise ValueError("dihedral parameter n must be at least 3")


def f3_coeffs_closed(n: int) -> DihedralCoeffs:
    """Closed-form coefficients of f_3 on the order-2n dihedral group."""
    _require_n(n)
    half = (n - 1) // 2 if n % 2 else (n - 2) // 2
    js = range(1, half + 1)
    if n % 2:
        linear = (n * n + 2 * n + 5) // 2
        psis = tuple(n * n + 5 for _ in js)
    elif n % 4 == 0:
        linear = (n * n + 4 * n + 24) // 2
        psis = tuple(n * n + (16 if j % 2 else 24) for j in js)
    else:
        linear = (n * n + 4 * n + 20) // 2
        psis = tuple(n * n + 20 for _ in js)
    return DihedralCoeffs(n, linear, psis)


def t3_coeffs_closed(n: int) -> DihedralCoeffs:
    """Closed-form coefficients of t_3 on the order-2n dihedral group."""
    _require_n(n)
    half = (n - 1) // 2 if n % 2 else (n - 2) // 2
    if n % 2:
        linear, psi = n * n + 3 * n, n * n + 2 * n
    else:
        linear, psi = n * n + 6 * n, n * n + 4 * n
    return DihedralCoeffs(n, linear, (psi,) * half)


def f3_value_closed(n: int, s: int | None = None) -> int:
    """f_3 at the identity (s is None) or at the rotation a^(2s).

    Only the derived subgroup, generated by a^2, supports f_3; s indexes
    its non-trivial elements with 0 < s < n/2.
    """
    _require_n(n)
    if s is None:
        return n**3 + 7 * n if n % 2 else n**3 + 28 * n
    if not 0 < 2 * s < n:
        raise ValueError(f"rotation exponent parameter s={s} not in (0, n/2)")
    if n % 2:
        return 2 * n
    return 12 * n if 4 * s == n else 8 * n


def f3_class_counts_closed(G: GroupTable) -> ClassCounts:
    """f_3 on a dihedral group table, read from `f3_value_closed` alone: a
    rotation a^r of the derived subgroup is a^(2s) with s = r/2 (r even) or
    s = (n - r)/2 (r odd, n odd), and everything outside it gets 0."""
    n = _dihedral_parameter(G)
    vals = []
    for r in conjugacy_classes(G).reps:
        if r == 0:
            vals.append(f3_value_closed(n))
        elif r < n and (r % 2 == 0 or n % 2):
            vals.append(f3_value_closed(n, r // 2 if r % 2 == 0 else (n - r) // 2))
        else:
            vals.append(0)
    return ClassCounts(G, tuple(vals), "f", 3)


def t3_class_counts_closed(G: GroupTable) -> ClassCounts:
    """t_3 on a dihedral group table from n alone.  With s a reflection,
    [a^i, a^j] = 1, [a^i, s] = a^(-2i), [s, a^i] = a^(2i) and
    [a^j s, a^j' s] = a^(2(j - j')), and |C(s)| is 2 for odd n and 4 for
    even n; so t_3 lives on the rotations a^r with r even or n odd, at one
    value off the identity, and is 0 on every reflection."""
    n = _dihedral_parameter(G)
    if n % 2:
        identity, rotation = n**3 + 3 * n**2 + 4 * n, n**2 + 4 * n
    else:
        identity, rotation = n**3 + 6 * n**2 + 16 * n, 2 * n**2 + 16 * n
    vals = []
    for r in conjugacy_classes(G).reps:
        if r == 0:
            vals.append(identity)
        elif r < n and (r % 2 == 0 or n % 2):
            vals.append(rotation)
        else:
            vals.append(0)
    return ClassCounts(G, tuple(vals), "t", 3)


def _dihedral_parameter(G: GroupTable) -> int:
    if G.family != "dihedral":
        raise ValueError("closed dihedral formulas need a dihedral: group")
    return G.order // 2
