"""Probability layer over the counting functions.

P_n(g) = f_n(g)/|G|^n is the probability that n uniformly random elements
pairwise commute into g; Q_3 is f_3 normalized into an honest distribution.
A distribution is exact: non-negative integers over one denominator, one per
block of a partition of the group -- its conjugacy classes for a class
function such as Q_3, its single elements otherwise.  Convolution powers are
computed on those blocks through their structure constants, and Q_3^(*k)
also from the character formula as an independent second path.  The bound
verdicts are exact too: comparisons against irrational right-hand sides go
through the exact cyclotomic sign machinery, never floating point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .chars import CharacterTable, _class_pair_counts, _combination, table_for
from .counts import ClassCounts, _certified_ints, count_f_n, f3_coeffs
from .cyclo import Cyclo, CycloArray, _exact, format_cyclo
from .groups import ClassPartition, GroupTable, _element, center_and_derived, conjugacy_classes
from .realcmp import _real_sign, abs_as_cyclo


class GroupDistribution:
    """An exact probability distribution on the elements of a group.

    The masses are ``ints`` over one denominator ``den``, one per block of
    the partition ``classes``: the mass of each member of the block.  That
    partition is the group's conjugacy classes (`on_classes`, `uniform`,
    `q3`) or its single elements (the constructor, which takes one exact
    mass per element, `point_mass` and `convolve`); `convolve_power` keeps
    the partition of its argument.
    """

    __slots__ = ("group", "ints", "den", "classes")

    def __init__(self, group: GroupTable, mass):
        if len(mass) != group.order:
            raise ValueError("need one mass per group element")
        mass = [Fraction(m) for m in mass]
        den = lcm(1, *(m.denominator for m in mass))
        ints = [m.numerator * (den // m.denominator) for m in mass]
        self._set(group, ints, den, _elements(group))

    @classmethod
    def on_classes(cls, group: GroupTable, ints, den: int) -> GroupDistribution:
        """ints[c] / den on every member of conjugacy class c."""
        return cls._of(group, ints, den, conjugacy_classes(group))

    @classmethod
    def _of(cls, group: GroupTable, ints, den: int, classes) -> GroupDistribution:
        d = cls.__new__(cls)
        d._set(group, ints, den, classes)
        return d

    def _set(self, group, ints, den, classes) -> None:
        self.group, self.ints, self.den, self.classes = group, tuple(ints), den, classes
        if len(self.ints) != len(classes):
            raise ValueError("need one mass per conjugacy class")
        if any(u < 0 for u in self.ints):
            raise ValueError("masses must be non-negative")
        if den <= 0 or sum(s * u for s, u in zip(classes.sizes, self.ints)) != den:
            raise ValueError("masses must sum to exactly 1")

    def _element_ints(self):
        return [self.ints[c] for c in self.classes.class_of]

    @property
    def mass(self) -> tuple[Fraction, ...]:
        """One exact mass per element."""
        return tuple(Fraction(u, self.den) for u in self._element_ints())

    def __eq__(self, other):
        if not isinstance(other, GroupDistribution) or self.group is not other.group:
            return False
        if self.classes is other.classes:
            pairs = zip(self.ints, other.ints)
        else:
            pairs = zip(self._element_ints(), other._element_ints())
        return all(u * other.den == v * self.den for u, v in pairs)

    def at(self, g: int) -> Fraction:
        return Fraction(self.ints[self.classes.class_of[_element(self.group, g)]], self.den)

    def support(self) -> frozenset[int]:
        members = self.classes.classes
        return frozenset(g for c, u in enumerate(self.ints) if u for g in members[c])


def _elements(G: GroupTable) -> ClassPartition:
    """The partition of G into single elements, built once per group."""
    return G.cached("element-partition", _single_elements)


def _single_elements(G: GroupTable) -> ClassPartition:
    every = tuple(range(G.order))
    return ClassPartition(tuple((g,) for g in every), every, (1,) * G.order, every)


def uniform(G: GroupTable) -> GroupDistribution:
    k = len(conjugacy_classes(G))
    return GroupDistribution.on_classes(G, (1,) * k, G.order)


def point_mass(G: GroupTable, g: int = 0) -> GroupDistribution:
    ints = [0] * G.order
    ints[_element(G, g)] = 1
    return GroupDistribution._of(G, ints, 1, _elements(G))


def p_n(count: ClassCounts, g: int) -> Fraction:
    """P_n(g) = f_n(g) / |G|^n."""
    return Fraction(count.at(g), count.group.order**count.n)


def distribution_from_counts(count: ClassCounts) -> GroupDistribution:
    total = count.total()
    if total <= 0:
        raise ValueError("cannot normalize a count with zero total")
    return GroupDistribution.on_classes(count.group, count.values, total)


def q3(count: ClassCounts) -> GroupDistribution:
    """f_3 normalized by its total mass."""
    if count.kind != "f" or count.n != 3:
        raise ValueError("q3 needs an f_3 count")
    return distribution_from_counts(count)


def convolve(d1: GroupDistribution, d2: GroupDistribution) -> GroupDistribution:
    """(d1 * d2)(g) = sum over h of d1(h) d2(h^-1 g), element by element."""
    if d1.group is not d2.group:
        raise ValueError("distributions live on different groups")
    G = d1.group
    a, b = d1._element_ints(), d2._element_ints()
    out = [0] * G.order
    for h, u in enumerate(a):
        if not u:
            continue
        row = G.table[G.inv[h]].tolist()
        for g in range(G.order):
            v = b[row[g]]
            if v:
                out[g] += u * v
    return GroupDistribution._of(G, out, d1.den * d2.den, _elements(G))


def _class_products(d: GroupDistribution):
    """The nonzero terms of right convolution by d on the blocks of its
    partition, as arrays (a, c, w): (p * d)(g_c) = sum of p_a * w over the
    terms (a, c, w), over p's denominator times d.den, for any p constant
    on those blocks, g_c the rep of block c.

    With N[a, b, c] = #{(x, y) in block a x block b : x y = g_c}, there is
    one term w = u_b * N[a, b, c] per nonzero N and block b in d's support.
    |c| N[a, b, c] = |a| m[a, b, c], m from `_class_pair_counts` over the
    support (k gathers of its size): on conjugacy classes by conjugating x
    and the pair count, and on single elements trivially, where every size
    is 1 and N = m is the group table."""
    part = d.classes
    k = len(part)
    u = np.array(d.ints, dtype=object)
    members = np.flatnonzero(u[np.asarray(part.class_of)])
    ab, c, m = _class_pair_counts(d.group, part, members)
    a, b = np.divmod(ab, k)
    sizes = np.asarray(part.sizes)
    # N[a, b, c] <= |b| (y fixes x), so w <= sum_b u_b |b| = d.den
    (u,) = _exact(d.den, u)
    return a, c, u[b] * (sizes[a] * m // sizes[c])


def convolve_power(d: GroupDistribution, k: int) -> GroupDistribution:
    """The k-fold convolution d * d * ... * d, on d's partition; k = 0 is
    the point mass at the identity, block 0.  Each step is one pass over the
    terms of `_class_products`."""
    if k < 0:
        raise ValueError("k must be non-negative")
    a, c, w = _class_products(d)
    vec, den = [1] + [0] * (len(d.classes) - 1), 1
    for _ in range(k):
        # masses are non-negative, so every partial sum is at most the
        # new denominator
        den *= d.den
        (nxt,) = _exact(den, np.zeros(len(vec), dtype=np.int64))
        np.add.at(nxt, c, np.array(vec, dtype=nxt.dtype)[a] * w)
        vec = nxt.tolist()
    return GroupDistribution._of(d.group, vec, den, d.classes)


def first_saturating_k(d: GroupDistribution, k_max: int = 30) -> int | None:
    """The smallest k <= k_max with support(d^(*k)) = the whole group, or
    None.  Masses are non-negative, so support(d^(*(k+1))) is exactly
    support(d^(*k)) * support(d): the supports are iterated alone, as
    blocks of d's partition, and once one equals the one before, every
    later one does."""
    a, c, _ = _class_products(d)
    supp = np.array([u > 0 for u in d.ints])
    for k in range(1, k_max + 1):
        if supp.all():
            return k
        nxt = np.zeros(len(supp), dtype=bool)
        nxt[c[supp[a]]] = True
        if (nxt == supp).all():
            return None
        supp = nxt
    return None


def l1_to_uniform(d: GroupDistribution) -> Fraction:
    """sum over g of |d(g) - 1/|G||, a block at a time."""
    n = d.group.order
    total = sum(s * abs(u * n - d.den) for s, u in zip(d.classes.sizes, d.ints))
    return Fraction(total, d.den * n)


def q3_power_by_characters(
    G: GroupTable, k: int, T: CharacterTable | None = None
) -> GroupDistribution:
    """Q_3^(*k) from the character formula, independently of any count.

    Irreducibles convolve as chi * psi = [chi = psi] (|G|/chi(1)) chi, so
    f_3 = sum_chi q_chi chi gives f_3^(*k) = sum_chi q_chi^k (|G|/chi(1))^(k-1)
    chi.  Its value at every class is certified a non-negative integer; its
    mass is the f_3 total to the k-th power, which normalizes it."""
    if k < 0:
        raise ValueError("k must be non-negative")
    T = table_for(G, T)
    weights = [
        q**k * Fraction(G.order, d) ** (k - 1)
        for q, d in zip(f3_coeffs(G, T), T.degrees)
    ]
    ints = _certified_ints(_combination(T, weights), lambda c: f"f_3^*{k} at class {c}")
    sizes = conjugacy_classes(G).sizes
    return GroupDistribution.on_classes(G, ints, sum(s * u for s, u in zip(sizes, ints)))


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
    """lhs <= rhs, each side an int, a Fraction or a real Cyclo.  Two
    rational sides are compared as Fractions, and str(Fraction) is the
    literal `format_cyclo` gives a rational value.  An irrational side is
    built from `abs_as_cyclo` values, proved real there."""
    left, right = _as_rational(lhs), _as_rational(rhs)
    if left is not None and right is not None:
        return BoundRecord(name, str(left), str(right), left <= right)
    left = lhs if isinstance(lhs, Cyclo) else Cyclo.rational(lhs)
    right = rhs if isinstance(rhs, Cyclo) else Cyclo.rational(rhs)
    return BoundRecord(
        name, format_cyclo(left), format_cyclo(right), _real_sign(left - right) <= 0
    )


def _as_rational(value) -> Fraction | None:
    if not isinstance(value, Cyclo):
        return Fraction(value)
    return value.to_rational() if value.is_rational() else None


def _abs_table(T: CharacterTable) -> list[tuple[list[int], CycloArray]]:
    """|chi(g_c)| for every irreducible chi and class c, with `abs_as_cyclo`
    called once per distinct nonzero table entry.  One pair (classes, A),
    A of shape (len(classes), len(T)), per class conductor: the lcm of the
    conductors of the class's nonzero |chi(g_c)|, at which their sum as
    `Cyclo` values is rendered."""
    distinct, where = T.array.distinct()
    absolutes = [abs_as_cyclo(v) if v else Cyclo.zero() for v in distinct.cyclos()]
    conductors = [
        lcm(*(absolutes[i].conductor for i in col)) for col in where.T.tolist()
    ]
    out = []
    for n in sorted(set(conductors)):
        # the entries of these classes all lie at divisors of n
        A = CycloArray.of(
            [a if n % a.conductor == 0 else Cyclo.zero() for a in absolutes], n
        )
        classes = [c for c, m in enumerate(conductors) if m == n]
        out.append((classes, CycloArray(A.ints[where[:, classes].T], A.den, n)))
    return out


def _abs_sums(T: CharacterTable) -> list[Cyclo]:
    """sum_chi chi(1) |chi(g_c)| for every class c, by one contraction of
    `_abs_table` with the degrees per conductor."""
    sums = [None] * T.array.ints.shape[1]
    for classes, A in _abs_table(T):
        for c, s in zip(classes, A.weighted(T.degrees).cyclos()):
            sums[c] = s
    return sums


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

    for c, (rep, abs_sum) in enumerate(zip(part.reps, _abs_sums(T))):
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
