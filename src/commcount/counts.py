"""Counting solutions of simultaneous commutator equations.

For a finite group G and n >= 2, f_n(g) is the number of n-tuples
(x_1, ..., x_n) with [x_i, x_j] = g for all i < j, where
[x, y] = x^-1 y^-1 x y.  The relaxed count is
t_n(g) = sum over pairs with [x, y] = g of |C(x)|^(n-2); it agrees
with f_n at n = 2 and dominates f_3 away from the identity.

The exhaustive oracles are gathers on the group table, its commutator
matrix and its commuting matrix.  On all of G, `brute_f_n` and `brute_t_n`
take the first entry x1 over the k class reps only: the tuples with first
entry x1 and commutator g are as many as those with x1^h and g^h, so
f_n(g_c) = (1/|c|) * sum over classes a of |a| * sum over g in c of
N(r_a, g), with the division checked exact.  A central rep contributes
f_(n-1)(1), the commuting (n-1)-tuples.  Otherwise the coset lemma
{y : [x1, y] = [x1, x2]} = C(x1) x2 puts every later entry in one coset of
C(x1).  At n = 3 the test [x2, c x2] = [x1, x2] is [c, x2] = [x1, x2^-1]:
the rows C(x1) of the commutator matrix, read in order, against one
vector.  At n >= 4 the coset T with [x1, T] = g is one 0/1 matrix
A = (comm[T, T] == g), whose ordered cliques are the later entries: f_4
sums A o (A A^T), and each further entry recurses on a row of A.  With a
subgroup H, x1 runs over every member of H, through the same coset step.
The budget projects the candidate tuples of a search over every x1,
|H| * sum over x in H of |C_H(x)|^(n-2) (the t_n total; k(H) * |H|^2 at
n = 3), which bounds every count.  `naive_f_n` enumerates all |G|^n tuples.

Everything here is exact: brute-force tallies are plain integers, and
character-formula values are certified to be non-negative integers
before they are returned.  The formulas run on the table's integer array
(`CharacterTable.array`): the theta weights are an integer matrix applied to
it, and the t_n coefficients are weighted norms of its rows.  Integrality,
sign and rationality are read off the residues of the resulting array
(`_certified_ints`); a `Cyclo` is made only to word an error.

The paper's pair weight H[a, b] = |C(ab) b  intersect  C(a)| is evaluated in
one place, `_pair_weight_rows`, from the group's commuting pairs
(`GroupTable.commuting_pairs`): a row a of H for theta, a column b for tau.
H[a^h, b^h] = H[a, b], so both marginals are class functions, and one tally
by the class of [a, b] at the k class reps gives each (`_class_weights`).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .chars import (
    CharacterTable,
    ClassFunction,
    TableProviderError,
    TableValidationError,
    _combination,
    table_for,
)
from .cyclo import Cyclo, CycloArray, NotRationalError, _amax, _exact, exact_matmul
from .groups import (
    _BLOCK_PRODUCTS, INDEX_DTYPE, GroupTable, SubgroupRef, _element, conjugacy_classes
)

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
        return self.values[conjugacy_classes(self.group).class_of[_element(self.group, g)]]

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


def _check_budget(projected: int, budget: int) -> None:
    """Refuse a search whose own projection of its work exceeds the budget."""
    if projected > budget:
        raise BudgetExceededError(projected, budget)


def _first_entry_counts(G: GroupTable, x1, C, members, n: int):
    """The tuples (x1, x2, ..., xn) of members with every pairwise
    commutator equal, for one first entry x1 whose centralizer in the
    members is C (members an index array, or slice(None) for all of G).
    Returns (g, found): found[i] of them have commutator g[i]; a value may
    repeat in g.

    By the coset lemma {y : [x1, y] = [x1, x2]} = C x2, so x2, ..., xn all
    lie in one coset of C.  At n = 3 the test [x2, y] = [x1, x2] for
    y = c x2 is [c, x2] = [x1, x2^-1] (as [x2, c x2] = x2^-1 [x2, c] x2):
    the rows C of the commutator matrix, read in order, against one vector.
    At n >= 4 each coset T with g = [x1, T] is one 0/1 matrix
    A = (comm[T, T] == g), and the later entries are its ordered cliques."""
    full = G.comm_row(x1)
    row = full[members]  # g = [x1, x2] for every x2
    if n == 2:
        return row, 1
    if n == 3:
        wanted = full[G.inv[members]]  # [x1, x2^-1] for every x2
        found = np.zeros(len(row), dtype=np.int64)
        step = max(1, _BLOCK_PRODUCTS // G.order)
        for lo in range(0, len(C), step):
            found += (G.comm_row(C[lo:lo + step])[:, members] == wanted).sum(axis=0)
        return row, found
    comm = G.comm_table()
    # each value g = [x1, x2] is taken on exactly one coset C x2: keep one x2
    first = np.full(G.order, -1)
    first[row] = np.arange(G.order)[members]
    g = np.flatnonzero(first >= 0)
    cosets = G.table[C, first[g][:, None]]  # row i: the c x2 (c in C) for g[i]
    found = np.empty(len(cosets), dtype=np.int64)
    step = max(1, _BLOCK_PRODUCTS // len(C) ** 2)
    for lo in range(0, len(cosets), step):
        T, gT = cosets[lo:lo + step], g[lo:lo + step, None, None]
        A = (comm[T[:, :, None], T[:, None, :]] == gT).astype(np.int32)
        found[lo:lo + step] = _ordered_cliques(A, n - 1)
    return g, found


def _ordered_cliques(A, depth: int):
    """For each (c, c) matrix of the 0/1 int32 stack A, the sequences
    (y_1, ..., y_depth), depth >= 3, with A[y_i, y_j] for every i < j: at
    depth 3 the sum of A o (A A^T), deeper the sum over y_1 of the cliques
    one shorter inside y_1's row.  Integer products are exact: an entry of
    A A^T is at most c <= ORDER_CAP, and the sum runs in int64."""
    if depth == 3:
        return (A * (A @ A.transpose(0, 2, 1))).sum(axis=(1, 2), dtype=np.int64)
    return sum(
        _ordered_cliques(A * w[:, :, None] * w[:, None, :], depth - 1)
        for w in A.transpose(1, 0, 2)  # w = A[:, i]: the y_2 allowed after i
    )


def _class_sums(G: GroupTable, n: int) -> list[int]:
    """For every class c, |c| * f_n(g_c) = sum over classes a of
    |a| * sum over g in c of N(r_a, g), where N(x1, g) counts the tuples with
    first entry x1, which is unchanged when x1 and g are conjugated together.
    A central rep has [r, x] = 1 for every x, so its term is f_(n-1)(1): the
    k(G) * |G| commuting pairs at n = 3."""
    if n == 2:  # f_2 = t_2
        return _star_class_sums(G, 2)
    part = conjugacy_classes(G)
    class_of = np.array(part.class_of)
    totals = [0] * len(part)
    commuting = len(part) * G.order if n == 3 else _class_sums(G, n - 1)[0]
    totals[0] = part.sizes.count(1) * commuting
    for r, size in zip(part.reps, part.sizes):
        if size == 1:
            continue
        C = np.flatnonzero(G.table[r] == G.table[:, r])
        g, found = _first_entry_counts(G, r, C, slice(None), n)
        sums = np.zeros(len(part), dtype=np.int64)
        np.add.at(sums, class_of[g], found)
        totals = [t + size * s for t, s in zip(totals, sums.tolist())]
    return totals


def _star_class_sums(G: GroupTable, n: int) -> list[int]:
    """For every class c, |c| * t_n(g_c) = sum over classes a of
    |a| * |C(r_a)|^(n-2) * #{y : [r_a, y] in c}: the k rep rows of the
    commutator matrix.  Reps of equal class size share a weight, so the
    rows are tallied per distinct size: a (sizes, k) tally, where one row
    per rep would be k x k (203 MB on cyclic:5040, with k = |G|), and one
    Python-int weight per size."""
    part = conjugacy_classes(G)
    k = len(part)
    class_of = np.array(part.class_of)
    sizes, which = np.unique(part.sizes, return_inverse=True)
    reps = np.array(part.reps)
    tally = np.zeros(len(sizes) * k, dtype=np.int64)
    step = max(1, _BLOCK_PRODUCTS // G.order)
    for lo in range(0, k, step):
        cells = which[lo:lo + step, None] * k + class_of[G.comm_row(reps[lo:lo + step])]
        tally += np.bincount(cells.ravel(), minlength=len(tally))
    # Python ints: |C(x)|^(n-2) overflows int64 for larger n.
    weights = [s * (G.order // s) ** (n - 2) for s in sizes.tolist()]
    return [
        sum(w * t for w, t in zip(weights, col))
        for col in tally.reshape(len(sizes), k).T.tolist()
    ]


def _per_class(G: GroupTable, sums, kind: str, n: int) -> ClassCounts:
    """ClassCounts from the sums of a class function over each class c,
    each divided, exactly, by |c|."""
    part = conjugacy_classes(G)
    out = []
    for c, (total, size) in enumerate(zip(sums, part.sizes)):
        if total % size:
            raise RuntimeError(
                f"{kind}_{n} summed over class {c} is {total}, "
                f"not a multiple of its size {size}"
            )
        out.append(total // size)
    return ClassCounts(G, tuple(out), kind, n)


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
    """f_n by exhaustive search, pruned to one coset of C_H(x1) per
    (x1, x2) for n >= 3.

    Without H: counts over all of G, as ClassCounts, with x1 over the k
    class reps only (see `_class_sums`).  With a subgroup H: counts tuples
    drawn from H, x1 over every member, returned as a map member -> count
    (zero values omitted) since the result is only an H-class function.
    Both budget the candidate tuples |H| * sum over x in H of |C_H(x)|^(n-2)
    of a search over every x1, so the class reps refuse what it would.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if H is None:
        sizes = conjugacy_classes(G).sizes  # |C(x)| = |G| / |class of x|
        _check_budget(G.order * sum(s * (G.order // s) ** (n - 2) for s in sizes), budget)
        return _per_class(G, _class_sums(G, n), "f", n)
    if H.parent is not G:
        raise ValueError("subgroup reference belongs to a different group")
    members = np.asarray(H.members)
    K = G.commuting()[np.ix_(members, members)]
    sizes = K.sum(axis=1).tolist()
    _check_budget(len(members) * sum(c ** (n - 2) for c in sizes), budget)
    G.comm_table()
    counts = np.zeros(G.order, dtype=np.int64)
    for x1, inside in zip(members, K):
        g, found = _first_entry_counts(G, x1, members[inside], members, n)
        np.add.at(counts, g, found)
    return {g: c for g, c in enumerate(counts.tolist()) if c}


def naive_f_n(
    G: GroupTable, n: int, budget: int = DEFAULT_BUDGET
) -> ClassCounts:
    """f_n by literal enumeration of all |G|^n tuples: a loop over the first
    n - 3 entries (the first at n = 3), with the last three as one array.
    Ground truth for the optimized search; only viable for small groups."""
    if n < 2:
        raise ValueError("n must be at least 2")
    _check_budget(G.order**n * (n * (n - 1) // 2), budget)
    comm = G.comm_table()
    if n == 2:
        counts = sum(np.bincount(row, minlength=G.order) for row in comm)
        return _as_class_counts(G, counts.tolist(), "f", n)
    tally = np.zeros(G.order, dtype=np.int64)
    if n == 3:
        for x1 in range(G.order):  # x_2 = y, so g = [x_1, y] is one value per row y
            row = comm[x1]
            g = row[:, None]
            hits = (row == g) & (comm == g)  # [x_1, z] = [y, z] = [x_1, y]
            np.add.at(tally, row, hits.sum(axis=1))
        return _as_class_counts(G, tally.tolist(), "f", n)
    step = max(1, _BLOCK_PRODUCTS // G.order**2)
    for head in product(range(G.order), repeat=n - 3):
        # v = x_(n-2) runs over every element; g[v] = [x_1, x_2] (= [x_1, v] at n = 4)
        g = comm[head[0]] if n == 4 else np.full(G.order, comm[head[0], head[1]])
        if any(comm[a, b] != g[0] for a, b in combinations(head, 2)):
            continue
        rows = comm[list(head)]
        for lo in range(0, G.order, step):
            v, gv = slice(lo, lo + step), g[lo:lo + step, None]
            # ok[v, w]: [x_i, v] = [x_i, w] = [v, w] = g[v] for every head entry
            ok = (comm[v] == gv) & (rows[:, None, :] == gv).all(axis=0)
            ok &= (rows[:, v] == gv.T).all(axis=0)[:, None]
            # y and z range over ok[v]: the pairs with [y, z] = g[v]
            hits = ok[:, :, None] & ok[:, None, :] & (comm == gv[:, :, None])
            np.add.at(tally, g[v], hits.sum(axis=(1, 2)))
    return _as_class_counts(G, tally.tolist(), "f", n)


def brute_t_n(G: GroupTable, n: int, budget: int = DEFAULT_BUDGET) -> ClassCounts:
    """t_n on all of G: each pair [x, y] = g contributes |C(x)|^(n-2).  As
    [x^h, y^h] = [x, y]^h, the k rows of the class reps give every class sum
    (see `_star_class_sums`); the budget is the |G|^2 pairs."""
    if n < 2:
        raise ValueError("n must be at least 2")
    _check_budget(G.order**2, budget)
    return _per_class(G, _star_class_sums(G, n), "t", n)


# -- character formulas --------------------------------------------------------


def _certified_int(value: Cyclo, what: str) -> int:
    try:
        q = value.to_rational()
    except NotRationalError:
        raise ValueError(f"{what} is irrational: {value}") from None
    if q.denominator != 1:
        raise ValueError(f"{what} is not an integer: {q}")
    if q < 0:
        raise ValueError(f"{what} is negative: {q}")
    return int(q)


def _first_failing(values: CycloArray, unit: int = 1):
    """Column 0 of the residues of a one-axis array, and the index of its
    first value that is not a non-negative integer multiple of unit (None
    when all are), read on the residues: every column but 0 must be zero,
    and column 0 a non-negative multiple of den * unit."""
    whole = values.den * unit
    (heads,) = _exact(max(_amax(values.ints), whole), values.ints[:, 0])
    bad = values.irrational() | (heads % whole != 0) | (heads < 0)
    return heads, int(np.argmax(bad)) if bad.any() else None


def _certified_ints(values: CycloArray, what) -> list[int]:
    """The values of a one-axis array, certified non-negative integers on
    their residues.  The first that is not raises through `_certified_int`,
    named by what(index)."""
    heads, i = _first_failing(values)
    if i is not None:
        _certified_int(values.item(i), what(i))
    return (heads // values.den).tolist()


def _certified_counts(
    G: GroupTable, T: CharacterTable, coeffs, kind: str, n: int
) -> ClassCounts:
    """sum_i coeffs[i] * chi_i, certified a non-negative integer per class."""
    values = _certified_ints(_combination(T, coeffs), lambda c: f"{kind}_{n} at class {c}")
    return ClassCounts(G, tuple(values), kind, n)


def f2_coeffs(T: CharacterTable) -> tuple[Fraction, ...]:
    """Coefficients of f_2 in the irreducible basis: |G|/chi(1)."""
    order = T.group.order
    return tuple(Fraction(order, d) for d in T.degrees)


def f2_from_characters(G: GroupTable, T: CharacterTable | None = None) -> ClassCounts:
    """f_2 via the classical class-equation formula, certified integral."""
    T = table_for(G, T)
    return _certified_counts(G, T, f2_coeffs(T), "f", 2)


def _pair_weight_rows(G: GroupTable, fixed, tau: bool = False):
    """Blocks (s, R) over the elements fixed (an index array): R[i, x] is the
    pair weight H[a, b] = |C(ab) b  intersect  C(a)| at the a, b with ab = x,
    x over G, where a = fixed[s][i] and b = a^-1 x (a row of H, for theta),
    or with tau, b = fixed[s][i] and a = x b^-1 (a column of H, for tau).
    H[a, b] counts the u in C(x) with u * b in C(a): each block reads every
    pair (x, u) of `GroupTable.commuting_pairs` once per fixed element, and
    tests u * b in C(a) by one flat gather at a * n + u * b."""
    u, starts = G.commuting_pairs()
    n = G.order
    x = np.repeat(np.arange(n, dtype=INDEX_DTYPE), np.diff(starts))
    # an entry costs about 13 bytes of temporaries (one buffer of flat intp
    # indices, reused, and gathered int16 elements; 21 with tau, whose a * n
    # is a second intp buffer), so blocks of _BLOCK_PRODUCTS / 8 entries keep
    # them near 100-170 KB
    step = max(1, _BLOCK_PRODUCTS // 8 // len(x))
    for lo in range(0, len(fixed), step):
        s = slice(lo, lo + step)
        f = fixed[s]
        if tau:
            a, b = G.table[:, G.inv[f]].T[:, x], f[:, None]
        else:
            a, b = f[:, None], G.table[G.inv[f]][:, x]
        # flat indices in intp (n^2 > 2^15, and a gather takes intp as is)
        flat = np.multiply(u, n, out=np.empty((len(f), len(x)), np.intp), dtype=np.intp)
        flat += b
        y = G.table.reshape(-1)[flat]  # u * b
        np.add(y, np.multiply(a, n, dtype=np.intp), out=flat)
        hits = G.commuting().reshape(-1)[flat]  # u * b in C(a)
        yield s, np.add.reduceat(hits, starts[:-1], axis=1, dtype=np.int64)


def _class_weights(G: GroupTable, tau: bool = False):
    """The pair weights at the class reps r, summed by the class c of the
    commutator, as a k x k matrix cached on G: W_theta[r, c] sums H[r, b]
    over the b with [r, b] in c, and with tau, W_tau[r, c] sums H[a, r] over
    the a with [a, r] in c.  H[a^h, b^h] = H[a, b], so both sums are class
    functions of r and the reps give every element: theta_chi(a) applies the
    row of a's class to chi, and tau_chi(b) that of b's."""
    return G.cached(("class-weights", tau), _tally_class_weights, tau)


def _tally_class_weights(G: GroupTable, tau: bool):
    # R[i, x] of `_pair_weight_rows` goes to the class of [a, b]: with
    # b = a^-1 x that is [a, x], and with a = x b^-1 it is [b^-1, x]
    part = conjugacy_classes(G)
    k = len(part)
    reps, class_of = np.array(part.reps), np.array(part.class_of)
    W = np.zeros(k * k, dtype=np.int64)
    for s, R in _pair_weight_rows(G, reps, tau):
        comm = G.comm_row(G.inv[reps[s]] if tau else reps[s])
        np.add.at(W, np.arange(k)[s, None] * k + class_of[comm], R)
    return W.reshape(k, k)


def _weighted(G: GroupTable, weights, chi: ClassFunction) -> list[Cyclo]:
    """Each row of an integer weight matrix on the classes applied to chi."""
    if chi.group is not G:
        raise ValueError("character belongs to a different group")
    return CycloArray.of(chi.values).weighted(weights).cyclos()


def _class_row(G: GroupTable, chi: ClassFunction, g, tau: bool) -> Cyclo:
    c = conjugacy_classes(G).class_of[_element(G, g)]
    return _weighted(G, _class_weights(G, tau)[c:c + 1], chi)[0]


def theta_class_function(G: GroupTable, chi: ClassFunction) -> ClassFunction:
    """theta_chi as a class function of a (it is conjugation-invariant)."""
    return ClassFunction(G, tuple(_weighted(G, _class_weights(G), chi)))


def theta_chi(G: GroupTable, chi: ClassFunction, a: int) -> Cyclo:
    """theta_chi(a) = sum_b |C(ab) b  intersect  C(a)| * chi([a, b])."""
    return _class_row(G, chi, a, False)


def tau_chi(G: GroupTable, chi: ClassFunction, b: int) -> Cyclo:
    """tau_chi(b) = sum_a |C(ab) b  intersect  C(a)| * chi([a, b]): the
    same summand as theta_chi with the roles of a and b swapped, read from
    the column tally at the class rep of b (tau_chi is a class function, as
    conjugating a and b together leaves the summand unchanged)."""
    return _class_row(G, chi, b, True)


def _m_values(G: GroupTable, X: CycloArray, labels) -> CycloArray:
    """m_chi = sum_a theta_chi(a) for each row of X (rows x classes x N):
    the size-weighted column sums of the theta weights times X, certified
    real (a rational value is; any other must equal its conjugate)."""
    sizes = np.array(conjugacy_classes(G).sizes)
    m = X.weighted(exact_matmul(sizes, _class_weights(G)))
    if m.irrational().any():
        unreal = (m.ints != m.conj().ints).any(axis=-1)
        if unreal.any():
            i = int(np.argmax(unreal))
            raise ValueError(f"m_{labels[i]} is not real ({m.item(i)}); table is inconsistent")
    return m


def m_chi(G: GroupTable, chi: ClassFunction) -> Cyclo:
    """m_chi = sum_a theta_chi(a), certified real."""
    if chi.group is not G:
        raise ValueError("character belongs to a different group")
    return _m_values(G, CycloArray.of([chi.values]), ["chi"]).item(0)


def f3_coeffs(G: GroupTable, T: CharacterTable | None = None) -> tuple[Fraction, ...]:
    """Coefficients of f_3 in the irreducible basis: m_chi / |G|, certified
    rational; computed once per table object, in G.cached."""
    T = table_for(G, T)
    return G.cached(("f3-coeffs", T), _f3_coeffs, T)


def _f3_coeffs(G: GroupTable, T: CharacterTable) -> tuple[Fraction, ...]:
    m = _m_values(G, T.array, T.labels)
    irrational = m.irrational()
    if irrational.any():
        i = int(np.argmax(irrational))
        raise ValueError(
            f"m_{T.labels[i]} is irrational ({m.item(i)}); the f_3 expansion has no "
            "rational coefficient here"
        )
    return tuple(Fraction(h, m.den * G.order) for h in m.ints[:, 0].tolist())


def f3_from_characters(G: GroupTable, T: CharacterTable | None = None) -> ClassCounts:
    T = table_for(G, T)
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
    T = table_for(G, T)
    m = _m_values(G, T.array, T.labels)
    out = []
    for i, (irrational, h) in enumerate(zip(m.irrational().tolist(), m.ints[:, 0].tolist())):
        if irrational:
            value = str(m.item(i) / G.order)
            out.append(ConjectureRecord(T.labels[i], value, False, False, False))
        else:
            q = Fraction(h, m.den * G.order)
            out.append(ConjectureRecord(T.labels[i], str(q), True, q.denominator == 1, q >= 0))
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
    T = table_for(G, T)
    part = conjugacy_classes(G)
    weights = np.array(
        [size * (G.order // size) ** (n - 2) for size in part.sizes], dtype=object
    )
    norms = T.array.dot(T.array, weights)
    # the multiplicity of chi is its norm over |G|
    heads, i = _first_failing(norms, G.order)
    if i is not None:
        label = T.labels[i]
        if norms.irrational()[i]:
            raise ValueError(
                f"t_{n} coefficient for {label} is irrational ({norms.item(i)}); "
                "table is inconsistent"
            )
        raise ValueError(
            f"multiplicity of {label} in theta^{n-2}*{label} is "
            f"{Fraction(int(heads[i]), norms.den * G.order)}, not a non-negative "
            "integer; table is inconsistent"
        )
    return tuple(Fraction(h, norms.den * d) for h, d in zip(heads.tolist(), T.degrees))


def t_from_characters(
    G: GroupTable, n: int, T: CharacterTable | None = None
) -> ClassCounts:
    T = table_for(G, T)
    return _certified_counts(G, T, t_coeffs(G, n, T), "t", n)


# -- commuting-tuple recursion for f_n(1) --------------------------------------


def recursive_fn1(G: GroupTable, n: int, budget: int = DEFAULT_BUDGET) -> int:
    """f_n(1), the number of pairwise-commuting n-tuples, by the centralizer
    recursion f_n(1) = sum_g f_(n-1) of C(g) at 1.

    A member set S is an index array, S cap C(g) is S masked by row g of
    K = `G.commuting()`, and f_2 of S is the sum over K[S, S].  C(g^h) is
    C(g)^h, so the top level runs over the class reps, weighted by size.
    The budget bounds the centralizer rows read; memoisation on (member
    set, level) keeps the real cost far below the worst case."""
    if n < 2:
        raise ValueError("n must be at least 2")
    K = G.commuting()
    part = conjugacy_classes(G)
    memo: dict[tuple[bytes, int], int] = {}
    work = len(part)
    _check_budget(work, budget)

    def fn1(members, level: int) -> int:
        nonlocal work
        if level == 1:
            return len(members)
        key = (members.tobytes(), level)
        got = memo.get(key)
        if got is None:
            work += len(members)
            _check_budget(work, budget)
            if level > 2:
                got = sum(fn1(members[K[g, members]], level - 1) for g in members)
            else:  # K[S, S], and no copy of K when S is all of G
                sub = K if len(members) == len(K) else K[np.ix_(members, members)]
                got = int(np.count_nonzero(sub))
            memo[key] = got
        return got

    return sum(
        size * fn1(np.flatnonzero(K[r]), n - 1) for r, size in zip(part.reps, part.sizes)
    )


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


def ore_set(G: GroupTable, n: int) -> frozenset[int]:
    """All g with f_n(g) > 0."""
    return count_f_n(G, n).support()


def count_f_n(
    G: GroupTable,
    n: int,
    method: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> ClassCounts:
    """f_n by the requested method: ``brute``, ``character`` (n = 2 or 3),
    or ``auto`` (characters when the group has a built-in table, else brute)."""
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
