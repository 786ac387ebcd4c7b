"""Class functions and character tables.

Tables are never computed by a generic algorithm.  The group alone picks
its table: a bundled data file (q8, a4, a5), the closed form of its family
(dihedral, the rim-hook recursion for symmetric groups, the tensor product
of the factors' tables), or the cyclic closed form when some element has
order |G|; only an explicit table file overrides it.  Every table is
validated exactly before use: class count, degrees, degree-square sum,
closure under the Galois group of Q(zeta_N), row orthogonality, and the
product identity chi(g)*chi(h) = (chi(1)/|G|) * sum_z chi(g * h^z) on every
pair of class representatives, at every order.  The last two are identities
in Z[zeta_N] with bounded coefficients, proved at split primes p = 1
(mod N) (see `validate_table`).  The report of that validation is stored on
the table.

A table is held once, as one integer array (`CharacterTable.array`, a
`CycloArray` of shape (rows, classes, phi(N)), used only with class functions
of its own group).  The closed forms write that array directly; documents are
parsed into it in one `CycloArray.of`; `irreducibles` is a view of its rows.
Validation, decomposition (one `CycloArray.dot`) and reconstruction from
coefficients run on the array.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from importlib import resources
from math import gcd, lcm

import numpy as np

from .cyclo import (
    TABLE_CAP,
    Cyclo,
    CycloArray,
    NotRationalError,
    _reduction,
    degree,
    format_cyclo,
    parse_cyclo,
    root_of_unity,
)
from .groups import ClassPartition, GroupTable, _element, conjugacy_classes


class TableProviderError(ValueError):
    """No built-in table for this group, or an unknown table source."""


class TableValidationError(ValueError):
    """A candidate table failed validation; carries the report."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        bad = ", ".join(c.name for c in report.checks if not c.passed)
        super().__init__(f"character table rejected: {bad}")


@dataclass(frozen=True)
class ClassFunction:
    """Exact class function: one cyclotomic value per conjugacy class, in
    the canonical class order of the group."""

    group: GroupTable
    values: tuple[Cyclo, ...]

    def __post_init__(self):
        k = len(conjugacy_classes(self.group))
        if len(self.values) != k:
            raise ValueError(f"expected {k} class values, got {len(self.values)}")

    def at(self, g: int) -> Cyclo:
        """Value at an element index."""
        return self.values[conjugacy_classes(self.group).class_of[_element(self.group, g)]]

    def __eq__(self, other):
        return (
            isinstance(other, ClassFunction)
            and self.group is other.group
            and all(a == b for a, b in zip(self.values, other.values))
        )


def inner_product(f: ClassFunction, h: ClassFunction) -> Cyclo:
    """<f, h> = (1/|G|) * sum_g f(g) * conj(h(g)), computed classwise."""
    if f.group is not h.group:
        raise ValueError("class functions live on different groups")
    part = conjugacy_classes(f.group)
    total = Cyclo.rational(0)
    for size, a, b in zip(part.sizes, f.values, h.values):
        if a and b:
            total = total + size * (a * b.conj())
    return total / f.group.order


@dataclass(eq=False)
class CharacterTable:
    """The values chi_i(class c) of the irreducibles of `group`, held once as
    `array`, at the table's conductor N; `irreducibles` views its rows as
    class functions, each value a `Cyclo` at N."""

    group: GroupTable
    array: CycloArray
    degrees: tuple[int, ...]
    labels: tuple[str, ...]
    provenance: str
    report: ValidationReport | None = None

    @cached_property
    def irreducibles(self) -> tuple[ClassFunction, ...]:
        X = self.array
        return tuple(
            ClassFunction(self.group, tuple(CycloArray(row, X.den, X.conductor).cyclos()))
            for row in X.ints
        )

    @property
    def validated(self) -> bool:
        return self.report is not None and self.report.passed

    def __len__(self) -> int:
        return len(self.array.ints)


def decompose(f: ClassFunction, T: CharacterTable) -> tuple[Fraction, ...]:
    """Multiplicities <f, chi> for each irreducible, as exact rationals."""
    if f.group is not T.group:
        raise ValueError("class functions live on different groups")
    sizes = conjugacy_classes(T.group).sizes
    F = CycloArray.of(f.values, T.array.conductor)
    m = F.dot(T.array.lifted(F.conductor), sizes)
    irrational = m.irrational()
    if irrational.any():
        raise NotRationalError(m.item(int(np.argmax(irrational))) / T.group.order)
    return tuple(Fraction(h, m.den * T.group.order) for h in m.ints[:, 0].tolist())


def _combination(T: CharacterTable, coeffs) -> CycloArray:
    """sum_i coeffs[i] * chi_i, coefficients ints or Fractions, as one value
    per class: a one-axis array at the table's conductor."""
    X = T.array
    den = lcm(1, *(q.denominator for q in coeffs))
    nums = np.array([q.numerator * (den // q.denominator) for q in coeffs], dtype=object)
    by_class = CycloArray(X.ints.swapaxes(0, 1), X.den, X.conductor)
    return by_class.weighted(nums, den)


# -- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckRecord, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckRecord]:
        return [c for c in self.checks if not c.passed]


def validate_table(T: CharacterTable) -> ValidationReport:
    """Run every exact consistency check and store the report on the table,
    which counts as validated only if all of them pass.  Failures are
    reported as data, never raised.

    The checks: as many irreducibles as classes; chi(1) equals the degree;
    the degree squares sum to |G|; the rows, as a multiset, are closed under
    zeta_N -> zeta_N^u for each generator u of (Z/N)^x; row orthogonality,
    X D X* = |G| I; and the product identity on every pair of class reps,
    with the table's own chi(1).  No column check: with k rows for k
    classes, row orthogonality gives X* X = |G| D^-1.

    The last two say that differences alpha in Z[zeta_N] (scaled by den^2)
    vanish.  Their coefficients are at most a bound B read off the array,
    and they are evaluated at zeta_N -> w, of order N mod primes p = 1
    (mod N) with prod p > 2B: modulo one prime ideal P over each p.  Under
    closure sigma(alpha_ij) = alpha_pi(i)pi(j) for a row permutation pi, so
    if every alpha is in P, each is in every sigma^-1(P), hence in
    pZ[zeta_N], and is 0 by the bound.  Without closure every ideal over p
    is evaluated.  A row pair or class-rep pair reported as failing is
    nonzero at some ideal, so it truly fails.
    """
    G = T.group
    part = conjugacy_classes(G)
    k = len(part)
    checks: list[CheckRecord] = []
    X = T.array

    ok = X.ints.shape[:2] == (k, k)
    checks.append(
        CheckRecord("class-count", ok, f"{len(T)} irreducibles vs {k} classes")
    )
    if not ok:
        T.report = ValidationReport(tuple(checks))
        return T.report

    # chi(1) = d exactly when its residue times den is (d * den, 0, ..., 0)
    bad = [
        i for i, (r, d) in enumerate(zip(X.ints[:, 0].tolist(), T.degrees))
        if r != [d * X.den] + [0] * (len(r) - 1) or d < 1
    ]
    checks.append(
        CheckRecord(
            "degrees-match-identity-column",
            not bad,
            f"rows {bad}" if bad else "",
        )
    )

    sq = sum(d * d for d in T.degrees)
    checks.append(
        CheckRecord(
            "degree-square-sum",
            sq == G.order,
            f"sum of squares {sq} vs order {G.order}",
        )
    )

    moved = X.galois_moved()
    detail = f"rows not permuted by zeta -> zeta^u for u in {moved}" if moved else ""
    checks.append(CheckRecord("galois-closure", not moved, detail))
    # one prime ideal over each prime if closed (see above), else all of them
    n = X.conductor
    exponents = [u for u in range(1, n) if gcd(u, n) == 1] if moved else [1]
    wrong, failing = _nonzero_at_split_primes(T, part, exponents)
    bad_rows = [(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(wrong | wrong.T)))]
    checks.append(
        CheckRecord(
            "row-orthogonality",
            not bad_rows,
            f"failing row pairs {bad_rows}" if bad_rows else "",
        )
    )
    if not failing.any():
        checks.append(CheckRecord("product-identity", True, "all class-rep pairs"))
    else:
        first = int(np.flatnonzero(failing.any(axis=0))[0])  # a*k + b
        a, b = divmod(first, k)
        bad = [(part.reps[a], part.reps[b], int(i)) for i in np.flatnonzero(failing[:, first])]
        checks.append(CheckRecord("product-identity", False, f"fails at (g, h, row) {bad}"))
    T.report = ValidationReport(tuple(checks))
    return T.report


def _class_pair_counts(G: GroupTable, part: ClassPartition, members=None):
    """The nonzero counts m[a, b, c] = #{y in class b : g_a * y in class c}
    for the class reps g_a, as arrays (a*k + b, c, m) sorted by a*k + b,
    with y over `members`, a union of classes (the whole group by default,
    where every pair is present); at most len(members) entries per rep."""
    k = len(part)
    class_of = np.asarray(part.class_of)
    ys = np.arange(G.order) if members is None else np.asarray(members)
    prod_class = class_of[G.table[np.ix_(part.reps, ys)]]  # g_a * y
    pair = k * np.arange(k)[:, None] + class_of[ys]  # a*k + (class of y)
    keys, m = np.unique((pair * k + prod_class).ravel(), return_counts=True)
    ab, c = np.divmod(keys, k)
    return ab, c, m


def _validation_primes(T: CharacterTable) -> tuple[int, list[int]]:
    # both differences weigh den^2 and products of two entries by 2|G| in all
    return T.array.bounded_primes(2 * T.group.order)


def _nonzero_at_split_primes(T: CharacterTable, part: ClassPartition, exponents):
    """The (row, row) and (row, a*k + b) entries of both differences that
    are nonzero at zeta_N -> w^u mod p, for some u in `exponents` and p
    from `_validation_primes`."""
    G, X = T.group, T.array
    k = len(part)
    ab, c, m = _class_pair_counts(G, part)
    # z -> h_b^z covers each member of class b |C(h_b)| times, so
    # cnt[a, b, c] = #{z : g_a * h_b^z in class c} = |C(h_b)| * m[a, b, c]
    count = m * (G.order // np.asarray(part.sizes))[ab % k]
    starts = np.flatnonzero(np.diff(ab, prepend=-1))  # first entry of each pair
    wrong = np.zeros((k, k), dtype=bool)
    failing = np.zeros((k, k * k), dtype=bool)
    block = max(1, 2**20 // len(c))  # rows per (block, entries) temporary
    for p in _validation_primes(T)[1]:
        w = root_of_unity(X.conductor, p)
        sizes, weights = np.asarray(part.sizes) % p, count % p
        want = np.eye(k, dtype=np.int64) * (G.order * X.den**2 % p)
        for u in exponents:
            E, Ebar = X.at_root(pow(w, u, p), p), X.at_root(pow(w, -u, p), p)
            wrong |= (E * sizes % p @ Ebar.T - want) % p != 0  # k * p^2 < 2^63
            for lo in range(0, k, block):
                Eb = E[lo : lo + block]
                # at most k classes c per pair, so the sums stay below k * p^2
                rhs = Eb[:, :1] * (np.add.reduceat(Eb[:, c] * weights, starts, axis=1) % p)
                lhs = Eb[:, :, None] * Eb[:, None, :] % p * (G.order % p)
                failing[lo : lo + block] |= (lhs.reshape(len(Eb), -1) - rhs) % p != 0
    return wrong, failing


# -- the table of a group ----------------------------------------------------

# groups whose table is a bundled data file, by spec
_BUNDLED = {"quaternion": "q8", "alternating:4": "a4", "alternating:5": "a5"}


def build_table(G: GroupTable, provider: str = "auto") -> CharacterTable:
    """Build and validate the character table of G.

    With ``auto`` the table follows from the group (see
    `_build_unvalidated`); ``file:<path>`` reads a table document instead.
    A table that fails validation is rejected.
    """
    return G.cached(("table", provider), _build_validated, provider)


def table_for(G: GroupTable, T: CharacterTable | None = None) -> CharacterTable:
    """T, or the validated table of G when T is None; a table of another
    group is refused."""
    if T is not None and T.group is not G:
        raise ValueError("character table belongs to a different group")
    return build_table(G) if T is None else T


def _build_validated(G: GroupTable, provider: str) -> CharacterTable:
    T = _build_unvalidated(G, provider)
    report = validate_table(T)
    if not report.passed:
        raise TableValidationError(report)
    return T


def _build_unvalidated(G: GroupTable, provider: str) -> CharacterTable:
    """The table read from ``file:<path>``, or for ``auto``, in this order:
    the bundled table of G's spec, the closed form of its family (dihedral,
    symmetric, product), or the cyclic closed form if some element has
    order |G|.  The provenance names which one."""
    from .fileio import _read_doc  # fileio imports this module

    if provider.startswith("file:"):
        return table_from_document(G, _read_doc(provider[len("file:"):]), provider)
    if provider != "auto":
        raise TableProviderError(f"unknown character-table provider {provider!r}")
    if G.spec in _BUNDLED:
        name = _BUNDLED[G.spec]
        path = resources.files("commcount") / "data" / f"{name}_chartable.json"
        return table_from_document(G, _read_doc(path), f"bundled:{name}")
    by_family = {
        "dihedral": _dihedral_table, "symmetric": _symmetric_table, "product": _tensor_table
    }
    if G.family in by_family:
        return by_family[G.family](G)
    orders = G.element_orders()
    gen = next((g for g in range(G.order) if orders[g] == G.order), None)
    if gen is None:
        raise TableProviderError(
            f"no built-in table for {G.spec or 'the group'}; import one with file:<path>"
        )
    return _cyclic_table(G, gen)


def _check_table_cap(G: GroupTable, conductor: int) -> None:
    """Refuse a table of G at this conductor above ``TABLE_CAP`` residues,
    before it is allocated."""
    k = len(conjugacy_classes(G))
    size = k * k * degree(conductor)
    if size > TABLE_CAP:
        raise TableProviderError(
            f"the character table of {G.spec or 'the group'} would hold {k} x {k} "
            f"x phi({conductor}) = {size} residues, above the cap {TABLE_CAP}"
        )


def _cyclic_table(G: GroupTable, gen: int) -> CharacterTable:
    """The closed form on the powers of `gen`, an element of order |G|."""
    n = G.order
    _check_table_cap(G, n)
    # cyclic groups are abelian, so class index == element index
    log = [0] * n
    x, k, times_gen = 0, 0, G.table[:, gen].tolist()
    while True:
        log[x] = k
        x = times_gen[x]
        k += 1
        if x == 0:
            break
    # chi_j(x) = zeta_n^(j * log x)
    X = CycloArray(_reduction(n)[np.outer(range(n), log) % n], 1, n)
    labels = tuple(f"chi{j}" for j in range(n))
    return CharacterTable(G, X, (1,) * n, labels, "cyclic-closed-form")


def _dihedral_table(G: GroupTable) -> CharacterTable:
    n = G.order // 2
    _check_table_cap(G, n)
    reps = np.asarray(conjugacy_classes(G).reps)
    # index e < n is a^e and index n+e is a^e*b
    rotation = reps < n
    e = np.where(rotation, reps, reps - n)
    R = _reduction(n)
    # Linear characters by their signs on a and on b: integers in column 0.
    signs = ((1, 1), (1, -1)) if n % 2 else ((1, 1), (1, -1), (-1, 1), (-1, -1))
    on_a, on_b = np.array(signs).T[:, :, None]
    linear = np.zeros((len(signs), len(reps), R.shape[1]), dtype=np.int64)
    linear[..., 0] = on_a**e * np.where(rotation, 1, on_b)
    # psi_j(a^e) = zeta^(je) + zeta^(-je), and psi_j(a^e*b) = 0
    j = np.arange(1, (n - 1) // 2 + 1)[:, None]
    psi = R[j * e % n] + R[-j * e % n]
    psi[:, ~rotation] = 0
    return CharacterTable(
        G,
        CycloArray(np.concatenate([linear, psi]), 1, n),
        (1,) * len(signs) + (2,) * len(psi),
        tuple(f"chi{i}" for i in range(1, len(signs) + 1))
        + tuple(f"psi{i}" for i in range(1, len(psi) + 1)),
        "dihedral-closed-form",
    )


# -- symmetric groups: rim-hook (Murnaghan-Nakayama) recursion ----------------


def partitions_of(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as descending tuples, ascending lex order."""
    out: list[tuple[int, ...]] = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, prefix + [p])

    rec(n, n, [])
    return sorted(out)


@cache
def rimhook_character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """chi_lam evaluated at cycle type mu, by rim-hook removal on beta
    numbers."""
    if sum(lam) != sum(mu):
        raise ValueError("partition sizes differ")
    if not mu:
        return 1
    hook, rest = mu[0], mu[1:]
    m = len(lam)
    beta = [lam[i] + (m - 1 - i) for i in range(m)]
    beta_set = set(beta)
    total = 0
    for pos, b in enumerate(beta):
        nb = b - hook
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((c for c in beta if c != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        new_lam = [v - (len(new_beta) - 1 - i) for i, v in enumerate(new_beta)]
        new_lam = tuple(v for v in new_lam if v > 0)
        total += (-1) ** height * rimhook_character(new_lam, rest)
    return total


def _symmetric_table(G: GroupTable) -> CharacterTable:
    n = len(G.perm_list[0])
    part = conjugacy_classes(G)
    from .perms import cycle_type

    types = [cycle_type(G.perm_list[rep]) for rep in part.reps]
    ident = tuple([1] * n)
    entries = sorted((rimhook_character(lam, ident), lam) for lam in partitions_of(n))
    ints = [[rimhook_character(lam, mu) for mu in types] for _, lam in entries]
    return CharacterTable(
        G,
        CycloArray(np.array(ints, dtype=np.int64)[..., None], 1, 1),
        tuple(deg for deg, _ in entries),
        tuple("(" + ",".join(map(str, lam)) + ")" for _, lam in entries),
        "symmetric-mn",
    )


def _tensor_table(G: GroupTable) -> CharacterTable:
    A, B = G.product_parts
    TA, TB = build_table(A), build_table(B)
    reps = np.asarray(conjugacy_classes(G).reps)
    x = np.asarray(conjugacy_classes(A).class_of)[reps // B.order]
    y = np.asarray(conjugacy_classes(B).class_of)[reps % B.order]
    n = lcm(TA.array.conductor, TB.array.conductor)
    _check_table_cap(G, n)
    XA, XB = TA.array.lifted(n), TB.array.lifted(n).conj()
    # (chi_i * psi_j)(x, y) over a contracted axis of length 1
    a = CycloArray(XA.ints[:, None, x, None], XA.den, n)
    b = CycloArray(XB.ints[None, :, y, None], XB.den, n)
    X = a.dot(b, [1])
    return CharacterTable(
        G,
        CycloArray(X.ints.reshape(-1, *X.ints.shape[2:]), X.den, n),
        tuple(d * e for d in TA.degrees for e in TB.degrees),
        tuple(f"{s}*{t}" for s in TA.labels for t in TB.labels),
        "product-tensor",
    )


def table_from_document(G: GroupTable, doc: dict, provenance: str) -> CharacterTable:
    """Build a table from a chartable document, aligning it against the
    group's canonical classes.  A malformed document raises DocumentError;
    misalignment is a hard error too."""
    from .fileio import DocumentError, _check_fields  # fileio imports this module

    _check_fields(
        doc,
        "table",
        required=("group_order", "class_sizes", "class_rep_orders", "irreducibles"),
        optional=("labels",),
        types={"group_order": int, "class_sizes": list, "class_rep_orders": list,
               "irreducibles": list},
    )
    for name in ("class_sizes", "class_rep_orders"):
        if not all(type(v) is int for v in doc[name]):  # a JSON true is no integer
            raise DocumentError(f"field {name!r}: expected a list of integers")
    part = conjugacy_classes(G)
    k = len(part)
    if doc["group_order"] != G.order:
        raise ValueError(
            f"table document is for order {doc['group_order']}, "
            f"group has order {G.order}"
        )
    sizes = tuple(doc["class_sizes"])
    if sizes != part.sizes:
        for i, (a, b) in enumerate(zip(sizes, part.sizes)):
            if a != b:
                raise ValueError(
                    f"class_sizes mismatch at class {i}: file {a}, group {b}"
                )
        raise ValueError(f"class_sizes length {len(sizes)} vs {k} classes")
    rep_orders = tuple(doc["class_rep_orders"])
    actual = tuple(G.element_orders()[r] for r in part.reps)
    if rep_orders != actual:
        raise ValueError(
            f"class_rep_orders mismatch: file {rep_orders}, group {actual}"
        )
    raw = doc["irreducibles"]
    for i, row in enumerate(raw):
        if not _strings(row, k):
            raise DocumentError(f"field 'irreducibles': row {i} is not a list of {k} strings")
    labels = doc.get("labels")
    if labels is None:
        labels = [f"chi{i+1}" for i in range(len(raw))]
    elif not _strings(labels, len(raw)):
        raise DocumentError(f"field 'labels': expected one string per row, {len(raw)} in all")
    values = [[parse_cyclo(s) for s in row] for row in raw]
    X = CycloArray.of(np.array(values, dtype=object).reshape(len(raw), k))
    first = X.ints[:, 0].tolist()  # chi(1) times den
    if any(any(r[1:]) or r[0] % X.den or r[0] <= 0 for r in first):
        raise ValueError("character degrees must be positive integers")
    degrees = tuple(r[0] // X.den for r in first)
    return CharacterTable(G, X, degrees, tuple(labels), provenance)


def _strings(value, count: int) -> bool:
    return (
        isinstance(value, list)
        and len(value) == count
        and all(isinstance(s, str) for s in value)
    )


def table_to_document(T: CharacterTable) -> dict:
    """The table's document, every entry written at its conductor N.  The
    document names no conductor: a table read back is at the lcm of its
    literals' conductors, so a rational table built at N > 1 (``cyclic:2``,
    ``dihedral:3``) reloads at conductor 1, with equal values and equal
    bytes when saved again."""
    part = conjugacy_classes(T.group)
    return {
        "group_order": T.group.order,
        "class_sizes": list(part.sizes),
        "class_rep_orders": [T.group.element_orders()[r] for r in part.reps],
        "labels": list(T.labels),
        "irreducibles": [
            [format_cyclo(v) for v in chi.values] for chi in T.irreducibles
        ],
    }
