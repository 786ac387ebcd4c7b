"""Probability layer over the counting functions.

P_n(g) = f_n(g)/|G|^n is the probability that n uniformly random elements
pairwise commute into g; Q_3 is f_3 normalized into an honest distribution.
Everything is an exact Fraction, including the bound verdicts: comparisons
against irrational right-hand sides go through the exact cyclotomic sign
machinery, never floating point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chars import CharacterTable, table_for
from .counts import ClassCounts, count_f_n
from .cyclo import Cyclo, format_cyclo
from .groups import GroupTable, center_and_derived, conjugacy_classes
from .realcmp import abs_as_cyclo, compare


@dataclass(frozen=True, eq=False)
class GroupDistribution:
    """An exact probability distribution on the elements of a group."""

    group: GroupTable
    mass: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.mass) != self.group.order:
            raise ValueError("need one mass per group element")
        if any(m < 0 for m in self.mass):
            raise ValueError("masses must be non-negative")
        if sum(self.mass) != 1:
            raise ValueError("masses must sum to exactly 1")

    def __eq__(self, other):
        return (
            isinstance(other, GroupDistribution)
            and self.group is other.group
            and self.mass == other.mass
        )

    def at(self, g: int) -> Fraction:
        return self.mass[g]

    def support(self) -> frozenset[int]:
        return frozenset(g for g, m in enumerate(self.mass) if m)


def uniform(G: GroupTable) -> GroupDistribution:
    share = Fraction(1, G.order)
    return GroupDistribution(G, (share,) * G.order)


def point_mass(G: GroupTable, g: int = 0) -> GroupDistribution:
    mass = [Fraction(0)] * G.order
    mass[g] = Fraction(1)
    return GroupDistribution(G, tuple(mass))


def p_n(count: ClassCounts, g: int) -> Fraction:
    """P_n(g) = f_n(g) / |G|^n."""
    return Fraction(count.at(g), count.group.order**count.n)


def distribution_from_counts(count: ClassCounts) -> GroupDistribution:
    total = count.total()
    if total <= 0:
        raise ValueError("cannot normalize a count with zero total")
    part = conjugacy_classes(count.group)
    mass = tuple(
        Fraction(count.values[part.class_of[g]], total)
        for g in range(count.group.order)
    )
    return GroupDistribution(count.group, mass)


def q3(count: ClassCounts) -> GroupDistribution:
    """f_3 normalized by its total mass."""
    if count.kind != "f" or count.n != 3:
        raise ValueError("q3 needs an f_3 count")
    return distribution_from_counts(count)


def convolve(d1: GroupDistribution, d2: GroupDistribution) -> GroupDistribution:
    """(d1 * d2)(g) = sum over h of d1(h) d2(h^-1 g)."""
    if d1.group is not d2.group:
        raise ValueError("distributions live on different groups")
    G = d1.group
    mass = [Fraction(0)] * G.order
    for h, m1 in enumerate(d1.mass):
        if not m1:
            continue
        row = G.table[G.inv[h]].tolist()
        for g in range(G.order):
            m2 = d2.mass[row[g]]
            if m2:
                mass[g] += m1 * m2
    return GroupDistribution(G, tuple(mass))


def convolve_power(d: GroupDistribution, k: int) -> GroupDistribution:
    """The k-fold convolution d * d * ... * d; k = 0 is the point mass
    at the identity."""
    if k < 0:
        raise ValueError("k must be non-negative")
    out = point_mass(d.group)
    for _ in range(k):
        out = convolve(out, d)
    return out


def first_saturating_k(d: GroupDistribution, k_max: int = 30) -> int | None:
    """The smallest k with support(d^(*k)) = the whole group, or None if
    that does not happen by k_max.  Supports only grow once the identity
    carries mass, so the first hit is definitive."""
    full = frozenset(range(d.group.order))
    power = d
    for k in range(1, k_max + 1):
        if power.support() == full:
            return k
        power = convolve(power, d)
    return None


def l1_to_uniform(d: GroupDistribution) -> Fraction:
    share = Fraction(1, d.group.order)
    return sum((abs(m - share) for m in d.mass), Fraction(0))


# -- the bound suite -----------------------------------------------------------


@dataclass(frozen=True)
class BoundRecord:
    """One exact inequality: holds is the verdict of lhs <= rhs.

    Both sides are rendered in the cyclotomic literal grammar, so they can
    be re-parsed and the verdict re-checked exactly.
    """

    name: str
    lhs: str
    rhs: str
    holds: bool


@dataclass(frozen=True)
class BoundsReport:
    group_spec: str
    alpha: Fraction
    p2_1: Fraction
    p3_1: Fraction
    records: tuple[BoundRecord, ...]

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.records)

    def failures(self) -> list[BoundRecord]:
        return [r for r in self.records if not r.holds]


def _record(name: str, lhs, rhs) -> BoundRecord:
    left = lhs if isinstance(lhs, Cyclo) else Cyclo.rational(lhs)
    right = rhs if isinstance(rhs, Cyclo) else Cyclo.rational(rhs)
    return BoundRecord(
        name, format_cyclo(left), format_cyclo(right), compare(left, right) <= 0
    )


def bounds_report(
    G: GroupTable,
    f2: ClassCounts | None = None,
    f3: ClassCounts | None = None,
    T: CharacterTable | None = None,
) -> BoundsReport:
    """Exact evaluation of the probability bounds on a non-abelian group;
    abelian groups get a report with no records (every P_n(1) is 1 there)."""
    center, derived = center_and_derived(G)
    if len(center) == G.order:
        return BoundsReport(G.spec or "table", Fraction(1), Fraction(1), Fraction(1), ())

    f2 = f2 if f2 is not None else count_f_n(G, 2)
    f3 = f3 if f3 is not None else count_f_n(G, 3)
    T = table_for(G, T)
    part = conjugacy_classes(G)
    order = G.order
    alpha = Fraction(len(center), order)
    p2_1 = p_n(f2, 0)
    p3_1 = p_n(f3, 0)

    records = []
    mixed = (p2_1 - alpha) / 2 + alpha * p2_1
    records.append(_record("prop-i", p3_1, mixed))
    records.append(_record("prop-i-constant", mixed, Fraction(11, 32)))
    records.append(
        _record("prop-ii-lower", Fraction(1, order * len(derived)), p3_1)
    )

    for c, rep in enumerate(part.reps):
        abs_sum = Cyclo.zero()
        for chi, d in zip(T.irreducibles, T.degrees):
            v = chi.values[c]
            if v:
                abs_sum = abs_sum + d * abs_as_cyclo(v)
        p3_g = p_n(f3, rep)
        records.append(
            _record(f"prop-ii:{c}", p3_g, (p2_1 / order) * abs_sum)
        )
        records.append(_record(f"prop-ii-sum:{c}", abs_sum, order))
        cent_ratio = Fraction(order // part.sizes[c], order)
        records.append(
            _record(f"prop-iii:{c}", p3_g * p3_g, p2_1 * p2_1 * cent_ratio)
        )

    for n, p_val in ((2, p2_1), (3, p3_1)):
        lescot = Fraction(3 * 2 ** (n - 1) - 1, 2 ** (2 * n - 1))
        records.append(_record(f"lescot:{n}", p_val, lescot))
    records.append(_record("gustafson", p2_1, Fraction(5, 8)))

    return BoundsReport(G.spec or "table", alpha, p2_1, p3_1, tuple(records))
