"""Counting solutions of simultaneous commutator equations.

For a finite group G and n >= 2, f_n(g) is the number of n-tuples
(x_1, ..., x_n) with [x_i, x_j] = g for all i < j, where
[x, y] = x^-1 y^-1 x y.  The relaxed count is
t_n(g) = sum over pairs with [x, y] = g of |C(x)|^(n-2); it agrees
with f_n at n = 2 and dominates f_3 away from the identity.

The exhaustive oracles are gathers on the group table, its commutator
matrix and its commuting matrix.  `brute_f_n` uses the coset lemma
{y : [x, y] = [x, x2]} = C(x) x2: given (x1, x2), every later entry is in
C_H(x1) x2.  Its budget projects the candidate tuples it visits,
|H| * sum over x in H of |C_H(x)|^(n-2) (the t_n total, k(H) * |H|^2 at
n = 3), which bounds every count.  `naive_f_n` enumerates all |G|^n tuples.

Everything here is exact: brute-force tallies are plain integers, and
character-formula values are certified to be non-negative integers
before they are returned.  The formulas run on the table's integer array
(`chars.table_array`): the theta weights are an integer matrix applied to
it, and the t_n coefficients are weighted norms of its rows.

The paper's pair weight H[a, b] = |C(ab) b  intersect  C(a)| is evaluated in
one place, `_pair_weights`, one row a at a time from the group's commuting
matrix (`GroupTable.commuting`).  Binning its rows by the class of [a, b]
gives the theta weights (class-rep rows), the tau weights (all rows, per
column b) and `f3_parametrized` (all rows, per element [a, b]).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chars import (
    CharacterTable,
    ClassFunction,
    TableProviderError,
    TableValidationError,
    build_table,
    reconstruct,
    table_array,
)
from .cyclo import Cyclo, CycloArray, NotRationalError, exact_matmul, residue_cyclo
from .groups import _BLOCK_PRODUCTS, GroupTable, SubgroupRef, conjugacy_classes

DEFAULT_BUDGET = 10**9


class BudgetExceededError(RuntimeError):
    """A brute-force search would exceed the operation budget."""

    def __init__(self, projected: int, budget: int):
        self.projected = projected
        self.budget = budget
        super().__init__(
            f"projected cost {projected} exceeds budget {budget}; "
            "raise the budget to force the computation"
        )


@dataclass(frozen=True, eq=False)
class ClassCounts:
    """A count function, stored as one integer per conjugacy class.

    ``kind`` is "f" (all pairwise commutators equal g) or "t" (the
    star-shaped system); ``n`` is the tuple length.  Equality compares
    the counted values, not the provenance metadata.
    """

    group: GroupTable
    values: tuple[int, ...]
    kind: str = "f"
    n: int = 2

    def __eq__(self, other):
        return (
            isinstance(other, ClassCounts)
            and self.group is other.group
            and self.values == other.values
        )

    def at(self, g: int) -> int:
        return self.values[conjugacy_classes(self.group).class_of[g]]

    def total(self) -> int:
        """Sum over all group elements (class sizes times class values)."""
        part = conjugacy_classes(self.group)
        return sum(s * v for s, v in zip(part.sizes, self.values))

    def support(self) -> frozenset[int]:
        """All elements g with a positive count."""
        part = conjugacy_classes(self.group)
        out = []
        for cls, v in zip(part.classes, self.values):
            if v:
                out.extend(cls)
        return frozenset(out)


def _check_budget(m: int, n: int, budget: int) -> None:
    projected = m**n * (n * (n - 1) // 2)
    if projected > budget:
        raise BudgetExceededError(projected, budget)


def _fn_element_counts(G: GroupTable, members, n: int, budget: int) -> list[int]:
    """Per element g, the n-tuples drawn from members with every pairwise
    commutator equal to g, in column blocks of about _BLOCK_PRODUCTS."""
    if n < 2:
        raise ValueError("n must be at least 2")
    members = np.asarray(members)
    K = G.commuting()
    sizes = [int(np.count_nonzero(K[x, members])) for x in members]
    projected = len(members) * sum(c ** (n - 2) for c in sizes)
    if projected > budget:
        raise BudgetExceededError(projected, budget)
    comm = G.comm_table()
    counts = np.zeros(G.order, dtype=np.int64)
    for x1 in members:
        firsts = comm[x1, members]  # g = [x1, x2] for every x2
        if n == 2:
            counts += np.bincount(firsts, minlength=G.order)
            continue
        C = members[K[x1, members]]
        step = max(1, _BLOCK_PRODUCTS // len(C) ** min(n - 2, 2))
        for lo in range(0, len(members), step):
            x2, g = members[lo:lo + step], firsts[lo:lo + step]
            cands = G.table[np.ix_(C, x2)].T  # row j: the y with [x1, y] = g[j]
            hit = comm[x2[:, None], cands] == g[:, None]  # ... and [x2[j], y] = g[j]
            if n == 3:
                found = hit.sum(axis=1)
            else:
                pairs = comm[cands[:, :, None], cands[:, None, :]] == g[:, None, None]
                found = _chains(hit, pairs, n - 2)
            np.add.at(counts, g, found)
    return counts.tolist()


def _chains(V, R, depth: int):
    """For each row j of the (b, c) boolean V and the (b, c, c) boolean R:
    the depth-tuples (y_1, ..., y_depth) with every V[j, y_i] and
    R[j, y_i, y_k] for i < k (depth >= 2)."""
    R = R & V[:, :, None] & V[:, None, :]
    if depth == 2:
        return R.sum(axis=(1, 2))
    return sum(_chains(R[:, i], R, depth - 1) for i in range(R.shape[1]))


def _as_class_counts(G: GroupTable, counts, kind: str, n: int) -> ClassCounts:
    """ClassCounts from counts indexed by element, checked constant on classes."""
    part = conjugacy_classes(G)
    vals = []
    for cls in part.classes:
        v = counts[cls[0]]
        if any(counts[e] != v for e in cls[1:]):
            raise RuntimeError(
                f"count is not constant on the class of element {cls[0]}"
            )
        vals.append(v)
    return ClassCounts(G, tuple(vals), kind, n)


def brute_f_n(
    G: GroupTable,
    n: int,
    H: SubgroupRef | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ClassCounts | dict[int, int]:
    """f_n by exhaustive search, pruned to one coset per (x1, x2) for n >= 3.

    Without H: counts over all of G, as ClassCounts.  With a subgroup H:
    counts tuples drawn from H, returned as a map member -> count (zero
    values omitted) since the result is only an H-class function.
    """
    if H is None:
        counts = _fn_element_counts(G, range(G.order), n, budget)
        return _as_class_counts(G, counts, "f", n)
    if H.parent is not G:
        raise ValueError("subgroup reference belongs to a different group")
    counts = _fn_element_counts(G, H.members, n, budget)
    return {g: c for g, c in enumerate(counts) if c}


def naive_f_n(
    G: GroupTable, n: int, budget: int = DEFAULT_BUDGET
) -> ClassCounts:
    """f_n by literal enumeration of all |G|^n tuples.  Ground truth for
    the optimized search; only viable for small groups."""
    if n < 2:
        raise ValueError("n must be at least 2")
    _check_budget(G.order, n, budget)
    comm = G.comm_table()
    if n == 2:
        counts = sum(np.bincount(row, minlength=G.order) for row in comm).tolist()
    elif n == 3:
        tally = np.zeros(G.order, dtype=np.int64)
        for row in comm:  # row[y] = [x, y]
            g = row[:, None]
            hits = (row == g) & (comm == g)  # [x, z] = [y, z] = [x, y]
            np.add.at(tally, row, hits.sum(axis=1))
        counts = tally.tolist()
    else:
        from itertools import product

        ct = comm.tolist()
        counts = [0] * G.order
        for tup in product(range(G.order), repeat=n):
            g = ct[tup[0]][tup[1]]
            if all(
                ct[tup[i]][tup[j]] == g
                for i in range(n)
                for j in range(i + 1, n)
                if (i, j) != (0, 1)
            ):
                counts[g] += 1
    return _as_class_counts(G, counts, "f", n)


def f3_parametrized(G: GroupTable, budget: int = DEFAULT_BUDGET) -> ClassCounts:
    """f_3 via the coset parametrization: for each pair (c, z) with
    [c, z] = g, count x with x in C(cz)z and x in C(c).  The work is the
    k(G) * |G|^2 pair-weight terms."""
    projected = len(conjugacy_classes(G)) * G.order**2
    if projected > budget:
        raise BudgetExceededError(projected, budget)
    counts = np.zeros(G.order, dtype=np.int64)
    for c in range(G.order):
        np.add.at(counts, G.comm_row(c), _pair_weights(G, c))
    return _as_class_counts(G, counts.tolist(), "f", 3)


def brute_t_n(G: GroupTable, n: int, budget: int = DEFAULT_BUDGET) -> ClassCounts:
    """t_n on all of G: each pair [x, y] = g contributes |C(x)|^(n-2).  One
    bincount per commutator row, tallied per distinct |C(x)|."""
    if n < 2:
        raise ValueError("n must be at least 2")
    _check_budget(G.order, 2, budget)
    sizes, which = np.unique(G.commuting().sum(axis=1), return_inverse=True)
    comm = G.comm_table()
    tally = np.zeros((len(sizes), G.order), dtype=np.int64)
    for x in range(G.order):
        tally[which[x]] += np.bincount(comm[x], minlength=G.order)
    # Python ints: |C(x)|^(n-2) overflows int64 for larger n.
    weights = [c ** (n - 2) for c in sizes.tolist()]
    counts = [sum(w * t for w, t in zip(weights, col)) for col in tally.T.tolist()]
    return _as_class_counts(G, counts, "t", n)


# -- character formulas --------------------------------------------------------


def _certified_int(value: Cyclo, what: str, nonneg: bool = True) -> int:
    try:
        q = value.to_rational()
    except NotRationalError:
        raise ValueError(f"{what} is irrational: {value}") from None
    if q.denominator != 1:
        raise ValueError(f"{what} is not an integer: {q}")
    if nonneg and q < 0:
        raise ValueError(f"{what} is negative: {q}")
    return int(q)


def _certified_counts(
    G: GroupTable, T: CharacterTable, coeffs, kind: str, n: int
) -> ClassCounts:
    """sum_i coeffs[i] * chi_i, certified a non-negative integer per class."""
    values = reconstruct(T, coeffs).values
    return ClassCounts(
        G,
        tuple(
            _certified_int(v, f"{kind}_{n} at class {c}")
            for c, v in enumerate(values)
        ),
        kind,
        n,
    )


def f2_coeffs(T: CharacterTable) -> tuple[Fraction, ...]:
    """Coefficients of f_2 in the irreducible basis: |G|/chi(1)."""
    order = T.group.order
    return tuple(Fraction(order, d) for d in T.degrees)


def f2_from_characters(G: GroupTable, T: CharacterTable | None = None) -> ClassCounts:
    """f_2 via the classical class-equation formula, certified integral."""
    T = T or build_table(G)
    return _certified_counts(G, T, f2_coeffs(T), "f", 2)


def _commuting_pairs(G: GroupTable):
    """The commuting matrix in CSR form: the pairs (x, u) with u in C(x),
    row by row, and where each row starts; k(G) * |G| pairs in all."""
    K = G.commuting()
    x, u = np.nonzero(K)
    sizes = K.sum(axis=1)
    return x.astype(np.int32), u.astype(np.int32), np.cumsum(sizes) - sizes


def _pair_weights(G: GroupTable, a: int):
    """H[b] = |C(ab) b  intersect  C(a)| for every b: the u in C(ab) with
    u * b in C(a).  Each pair (x, u) of the commuting matrix is taken once,
    with x = ab, so b = a^-1 x and the row costs k(G) * |G| gathers."""
    x, u, starts = G.cached("commuting-pairs", _commuting_pairs)
    to_b = G.table[G.inv[a]]
    hits = G.commuting()[a][G.table[u, to_b[x]]]
    H = np.empty(G.order, dtype=np.int64)
    H[to_b] = np.add.reduceat(hits, starts, dtype=np.int64)
    return H


def _aggregated_theta_weights(G: GroupTable):
    """W[a, c]: for the rep a of class a, the sum of the pair weights H[a, b]
    over the b with [a, b] in class c, as a k x k matrix."""
    part = conjugacy_classes(G)
    class_of = np.array(part.class_of)
    W = np.zeros((len(part), len(part)), dtype=np.int64)
    for row, a in zip(W, part.reps):
        np.add.at(row, class_of[G.comm_row(a)], _pair_weights(G, a))
    return W


def _weighted(G: GroupTable, weights, chi: ClassFunction) -> list[Cyclo]:
    """Each row of an integer weight matrix on the classes applied to chi."""
    if chi.group is not G:
        raise ValueError("character belongs to a different group")
    return CycloArray.of(chi.values).weighted(weights).cyclos()


def theta_class_function(G: GroupTable, chi: ClassFunction) -> ClassFunction:
    """theta_chi as a class function of a (it is conjugation-invariant)."""
    weights = G.cached("theta-weights", _aggregated_theta_weights)
    return ClassFunction(G, tuple(_weighted(G, weights, chi)))


def theta_chi(G: GroupTable, chi: ClassFunction, a: int) -> Cyclo:
    """theta_chi(a) = sum_b |C(ab) b  intersect  C(a)| * chi([a, b])."""
    return theta_class_function(G, chi).at(a)


def _tau_weights(G: GroupTable):
    """W[b, c] = sum over a with [a, b] in class c of |C(ab) b  intersect  C(a)|,
    one row per element b: the summand of theta with the roles of a and b
    swapped, so summing it over b is a second path to m_chi."""
    part = conjugacy_classes(G)
    class_of = np.array(part.class_of)
    every = np.arange(G.order)
    W = np.zeros((G.order, len(part)), dtype=np.int64)
    for a in range(G.order):
        np.add.at(W, (every, class_of[G.comm_row(a)]), _pair_weights(G, a))
    return W


def tau_chi(G: GroupTable, chi: ClassFunction, b: int) -> Cyclo:
    """tau_chi(b) = sum_a |C(ab) b  intersect  C(a)| * chi([a, b]) — the
    same summand as theta_chi with the roles of a and b swapped."""
    weights = G.cached("tau-weights", _tau_weights)
    return _weighted(G, weights[b:b + 1], chi)[0]


def tau_values(G: GroupTable, chi: ClassFunction) -> list[Cyclo]:
    """tau_chi(b) for every element b, in index order."""
    return _weighted(G, G.cached("tau-weights", _tau_weights), chi)


def _m_values(G: GroupTable, X: CycloArray, labels) -> list[Cyclo]:
    """m_chi = sum_a theta_chi(a) for each row of X (rows x classes x N):
    the size-weighted column sums of the theta weights times X, certified
    real."""
    part = conjugacy_classes(G)
    weights = G.cached("theta-weights", _aggregated_theta_weights)
    m = X.weighted(exact_matmul(np.array(part.sizes), weights))
    out = []
    for label, res, conj in zip(labels, m.residues(), m.conj().residues()):
        total = residue_cyclo(res, X.den, X.conductor)
        if (res != conj).any():
            raise ValueError(
                f"m_{label} is not real ({total}); table is inconsistent"
            )
        out.append(total)
    return out


def m_chi(G: GroupTable, chi: ClassFunction) -> Cyclo:
    """m_chi = sum_a theta_chi(a), certified real."""
    if chi.group is not G:
        raise ValueError("character belongs to a different group")
    return _m_values(G, CycloArray.of([chi.values]), ["chi"])[0]


def f3_coeffs(G: GroupTable, T: CharacterTable | None = None) -> tuple[Fraction, ...]:
    """Coefficients of f_3 in the irreducible basis: m_chi / |G|, certified
    rational."""
    T = T or build_table(G)
    out = []
    for m, label in zip(_m_values(G, table_array(T), T.labels), T.labels):
        try:
            q = m.to_rational()
        except NotRationalError:
            raise ValueError(
                f"m_{label} is irrational ({m}); the f_3 expansion has no "
                "rational coefficient here"
            ) from None
        out.append(q / G.order)
    return tuple(out)


def f3_from_characters(G: GroupTable, T: CharacterTable | None = None) -> ClassCounts:
    T = T or build_table(G)
    return _certified_counts(G, T, f3_coeffs(G, T), "f", 3)


@dataclass(frozen=True)
class ConjectureRecord:
    """Integrality evidence for one irreducible: is m_chi / |G| a
    non-negative integer?"""

    label: str
    value: str
    is_rational: bool
    is_integer: bool
    is_nonnegative: bool

    @property
    def ok(self) -> bool:
        return self.is_rational and self.is_integer and self.is_nonnegative


def conjecture_report(
    G: GroupTable, T: CharacterTable | None = None
) -> list[ConjectureRecord]:
    T = T or build_table(G)
    out = []
    for m, label in zip(_m_values(G, table_array(T), T.labels), T.labels):
        m = m / G.order
        rational = m.is_rational()
        integer = False
        nonneg = False
        if rational:
            q = m.to_rational()
            integer = q.denominator == 1
            nonneg = q >= 0
        out.append(ConjectureRecord(label, str(m), rational, integer, nonneg))
    return out


def t_coeffs(
    G: GroupTable, n: int, T: CharacterTable | None = None
) -> tuple[Fraction, ...]:
    """Coefficients of t_n in the irreducible basis:
    (1/chi(1)) * sum over classes of size * |C|^(n-2) * |chi|^2.

    Equivalently |G|/chi(1) times the multiplicity of chi in theta^(n-2) chi,
    where theta is the conjugation character; that multiplicity is checked to
    be a non-negative integer.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    T = T or build_table(G)
    part = conjugacy_classes(G)
    weights = np.array(
        [size * (G.order // size) ** (n - 2) for size in part.sizes], dtype=object
    )
    X = table_array(T)
    out = []
    for i, (d, label) in enumerate(zip(T.degrees, T.labels)):
        row = X[i : i + 1]
        total = residue_cyclo(row.gram(row, weights)[0, 0], X.den**2, X.conductor)
        try:
            q = total.to_rational() / d
        except NotRationalError:
            raise ValueError(
                f"t_{n} coefficient for {label} is irrational ({total}); "
                "table is inconsistent"
            ) from None
        mult = q * d / G.order
        if mult.denominator != 1 or mult < 0:
            raise ValueError(
                f"multiplicity of {label} in theta^{n-2}*{label} is {mult}, "
                "not a non-negative integer; table is inconsistent"
            )
        out.append(q)
    return tuple(out)


def t_from_characters(
    G: GroupTable, n: int, T: CharacterTable | None = None
) -> ClassCounts:
    T = T or build_table(G)
    return _certified_counts(G, T, t_coeffs(G, n, T), "t", n)


# -- commuting-tuple recursion for f_n(1) --------------------------------------


def recursive_fn1(G: GroupTable, n: int, budget: int = DEFAULT_BUDGET) -> int:
    """f_n(1), the number of pairwise-commuting n-tuples, by the centralizer
    recursion f_n(1) = sum_g f_(n-1) of C(g) at 1.

    The budget bounds the number of set intersections performed; memoisation
    on (member set, level) keeps the real cost far below the worst case."""
    if n < 2:
        raise ValueError("n must be at least 2")
    cent_sets = [frozenset(np.flatnonzero(row).tolist()) for row in G.commuting()]
    memo: dict[tuple[frozenset, int], int] = {}
    work = 0

    def fn1(members: frozenset, level: int) -> int:
        nonlocal work
        if level == 1:
            return len(members)
        key = (members, level)
        got = memo.get(key)
        if got is None:
            work += len(members)
            if work > budget:
                raise BudgetExceededError(work, budget)
            got = sum(
                fn1(members & cent_sets[g], level - 1) for g in members
            )
            memo[key] = got
        return got

    return fn1(frozenset(range(G.order)), n)


def tc_check_and_formula(G: GroupTable, n: int) -> tuple[bool, int | None]:
    """Whether every non-central element of G has abelian centralizer, and if
    so the value of f_n(1) from the closed recursion

        f_n(1) = |G| * sum over non-central class reps of |C(x)|^(n-2)
                 + |Z| * f_(n-1)(1),   with f_2(1) = k(G) * |G|.

    Returns (False, None) when the centralizer condition fails."""
    if n < 2:
        raise ValueError("n must be at least 2")
    part = conjugacy_classes(G)
    K = G.commuting()
    sizes = K.sum(axis=1).tolist()
    noncentral_reps = [r for r in part.reps if sizes[r] < G.order]
    for r in noncentral_reps:
        C = np.flatnonzero(K[r])
        if not K[np.ix_(C, C)].all():
            return False, None
    value = len(part) * G.order
    for level in range(3, n + 1):
        value = (
            G.order * sum(sizes[r] ** (level - 2) for r in noncentral_reps)
            + sizes.count(G.order) * value
        )
    return True, value


# -- solution sets -------------------------------------------------------------


def ore_set(
    G: GroupTable,
    n: int,
    method: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> frozenset[int]:
    """All g with f_n(g) > 0."""
    counts = count_f_n(G, n, method=method, budget=budget)
    return counts.support()


def count_f_n(
    G: GroupTable,
    n: int,
    method: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> ClassCounts:
    """f_n by the requested method: ``brute``, ``character`` (n = 2 or 3),
    or ``auto`` (characters when a table provider exists, else brute)."""
    if method == "brute":
        return brute_f_n(G, n, budget=budget)
    if method == "character":
        if n == 2:
            return f2_from_characters(G)
        if n == 3:
            return f3_from_characters(G)
        raise ValueError("character formulas cover n = 2 and n = 3 only")
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    if n in (2, 3):
        try:
            return count_f_n(G, n, method="character", budget=budget)
        except (TableProviderError, TableValidationError):
            pass
    return brute_f_n(G, n, budget=budget)


def count_t_n(
    G: GroupTable,
    n: int,
    method: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> ClassCounts:
    """t_n by the requested method: ``brute``, ``character`` or ``auto``."""
    if method == "brute":
        return brute_t_n(G, n, budget)
    if method == "character":
        return t_from_characters(G, n)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    try:
        return t_from_characters(G, n)
    except (TableProviderError, TableValidationError):
        return brute_t_n(G, n, budget)
