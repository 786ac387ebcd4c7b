"""Class functions and character tables.

Tables are never computed by a generic algorithm: each one comes from a
closed-form provider (cyclic, dihedral), the rim-hook recursion for
symmetric groups, a bundled data file (a4, a5, q8), a tensor product of
factor tables, or an explicit file.  Every table is validated exactly
before use: class count, degrees, degree-square sum, row orthogonality, and
the product identity chi(g)*chi(h) = (chi(1)/|G|) * sum_z chi(g * h^z) on
every pair of class representatives, at every order.  The report of that
validation is stored on the table.

Table-scale work runs on one integer array per table (`table_array`, a
`CycloArray` of shape (k, k, N) stored on the table): validation, the
decomposition into irreducibles and the reconstruction from coefficients
are integer matrix products on it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import lcm

import numpy as np

from .cyclo import (
    Cyclo,
    CycloArray,
    cyclo_root,
    exact_matmul,
    exact_scaled,
    format_cyclo,
    parse_cyclo,
    residue_cyclo,
)
from .groups import ClassPartition, GroupTable, conjugacy_classes


class TableProviderError(ValueError):
    """No provider can build a table for this group."""


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
        return self.values[conjugacy_classes(self.group).class_of[g]]

    def __eq__(self, other):
        return (
            isinstance(other, ClassFunction)
            and self.group is other.group
            and all(a == b for a, b in zip(self.values, other.values))
        )


def class_function_from_element_values(G: GroupTable, vals) -> ClassFunction:
    """Build a ClassFunction from per-element values, checking constancy
    on classes."""
    part = conjugacy_classes(G)
    out = []
    for cls in part.classes:
        v = vals[cls[0]]
        if not isinstance(v, Cyclo):
            v = Cyclo.rational(v)
        for e in cls[1:]:
            w = vals[e]
            if not isinstance(w, Cyclo):
                w = Cyclo.rational(w)
            if w != v:
                raise ValueError(
                    f"values are not constant on the class of element {cls[0]}"
                )
        out.append(v)
    return ClassFunction(G, tuple(out))


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


def conjugation_character(G: GroupTable) -> ClassFunction:
    """The permutation character of G acting on itself by conjugation:
    g -> |C_G(g)|."""
    part = conjugacy_classes(G)
    order = G.order
    return ClassFunction(
        G, tuple(Cyclo.rational(order // s) for s in part.sizes)
    )


@dataclass
class CharacterTable:
    group: GroupTable
    irreducibles: tuple[ClassFunction, ...]
    degrees: tuple[int, ...]
    labels: tuple[str, ...]
    provenance: str
    report: ValidationReport | None = None
    array: CycloArray | None = field(default=None, repr=False, compare=False)

    @property
    def validated(self) -> bool:
        return self.report is not None and self.report.passed

    def __len__(self) -> int:
        return len(self.irreducibles)


def table_array(T: CharacterTable) -> CycloArray:
    """The values chi_i(class c) as one CycloArray of shape (k, k, N), N the
    lcm of the table's conductors; built on first use and stored on T."""
    if T.array is None:
        T.array = CycloArray.of([chi.values for chi in T.irreducibles])
    return T.array


def decompose(f: ClassFunction, T: CharacterTable) -> tuple[Fraction, ...]:
    """Multiplicities <f, chi> for each irreducible, as exact rationals."""
    sizes = conjugacy_classes(T.group).sizes
    X = table_array(T)
    F = CycloArray.of([f.values], X.conductor)
    X = X.lifted(F.conductor)
    scale = T.group.order * F.den * X.den
    return tuple(
        residue_cyclo(r, scale, F.conductor).to_rational()
        for r in F.gram(X, sizes)[0]
    )


def reconstruct(T: CharacterTable, coeffs) -> ClassFunction:
    """sum_i coeffs[i] * chi_i as a ClassFunction."""
    X = table_array(T)
    den = lcm(1, *(Fraction(q).denominator for q in coeffs))
    nums = np.array([int(Fraction(q) * den) for q in coeffs], dtype=object)
    by_class = CycloArray(X.ints.swapaxes(0, 1), X.den, X.conductor, X.reduction)
    return ClassFunction(T.group, tuple(by_class.weighted(nums, den).cyclos()))


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
    the degree squares sum to |G|; row orthogonality, as one size-weighted
    Gram product of the table array with its conjugate, equal to |G| I;
    and the product identity on every pair of class representatives.  No
    column check: with k rows for k classes, X D X* = |G| I (row
    orthogonality) gives X* X = |G| D^-1 (column orthogonality).
    """
    G = T.group
    part = conjugacy_classes(G)
    k = len(part)
    checks: list[CheckRecord] = []

    ok = len(T.irreducibles) == k
    checks.append(
        CheckRecord(
            "class-count", ok, f"{len(T.irreducibles)} irreducibles vs {k} classes"
        )
    )
    if not ok:
        T.report = ValidationReport(tuple(checks))
        return T.report

    bad = [
        i for i, (chi, d) in enumerate(zip(T.irreducibles, T.degrees))
        if chi.values[0] != d or d < 1
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

    X = table_array(T)
    gram = X.gram(X, part.sizes)  # |G| <chi_i, chi_j>, scaled by den^2
    want = np.eye(k, dtype=object) * (G.order * X.den**2)
    wrong = (gram[..., 1:] != 0).any(axis=-1) | (gram[..., 0] != want)
    bad_rows = [(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(wrong)))]
    checks.append(
        CheckRecord(
            "row-orthogonality",
            not bad_rows,
            f"failing row pairs {bad_rows}" if bad_rows else "",
        )
    )

    checks.append(_check_product_identity(T, part))
    T.report = ValidationReport(tuple(checks))
    return T.report


def _class_pair_counts(G: GroupTable, part: ClassPartition):
    """The nonzero counts cnt[a, b, c] = #{z : g_a * h_b^z in class c} for
    the class reps g_a, h_b, as arrays (a*k + b, c, count) sorted by
    a*k + b, every pair present.  z -> h_b^z covers each member of class b
    |C(h_b)| times, so count = |C(h_b)| * #{y in class b : g_a * y in
    class c}; at most |G| entries per rep g_a."""
    k = len(part)
    class_of = np.asarray(part.class_of)
    prod_class = class_of[G.table[list(part.reps)]]  # g_a * y
    pair = k * np.arange(k)[:, None] + class_of  # a*k + (class of y)
    keys, count = np.unique((pair * k + prod_class).ravel(), return_counts=True)
    ab, c = np.divmod(keys, k)
    return ab, c, count * (G.order // np.asarray(part.sizes))[ab % k]


def _check_product_identity(T: CharacterTable, part: ClassPartition) -> CheckRecord:
    # chi(g) chi(h) = (chi(1)/|G|) sum_z chi(g * h^z), checked on residues as
    # |G| * chi(g) chi(h) = chi(1) * sum over classes of count * chi(c), for
    # every pair of class reps, one character at a time.
    G = T.group
    k = len(part)
    X = table_array(T)
    res = X.residues()
    ab, c, count = _class_pair_counts(G, part)
    starts = np.flatnonzero(np.diff(ab, prepend=-1))  # first entry of each pair
    failing = []
    for i, deg in enumerate(T.degrees):
        # row g of mult_matrices(X[i, b]) is zeta^g * chi_i(b): res @ it
        # multiplies, so this is chi_i(a) * chi_i(b) for all a, b at once.
        mult = X[i].mult_matrices()
        pairs = exact_matmul(res[i], mult.swapaxes(0, 1).reshape(res.shape[-1], -1))
        lhs = exact_scaled(pairs.reshape(k * k, -1), G.order)
        terms = exact_scaled(res[i][c], count[:, None], k)  # <= k classes per pair
        rhs = exact_scaled(np.add.reduceat(terms, starts), deg * X.den)
        failing.append(np.flatnonzero((lhs != rhs).any(axis=-1)))  # a*k + b
    if not any(f.size for f in failing):
        return CheckRecord("product-identity", True, "all class-rep pairs")
    first = min(int(f[0]) for f in failing if f.size)
    a, b = divmod(first, k)
    bad = [(part.reps[a], part.reps[b], i) for i, f in enumerate(failing) if first in f]
    return CheckRecord("product-identity", False, f"fails at (g, h, row) {bad}")


# -- providers ----------------------------------------------------------------


def build_table(G: GroupTable, provider: str = "auto") -> CharacterTable:
    """Build and validate the character table of G.

    Providers: ``auto``, ``cyclic-closed-form``, ``dihedral-closed-form``,
    ``symmetric-mn``, ``product-tensor``, ``bundled:a4|a5|q8``,
    ``file:<path>``.  A table that fails validation is rejected.
    """
    return G.cached(("table", provider), _build_validated, provider)


def _build_validated(G: GroupTable, provider: str) -> CharacterTable:
    T = _build_unvalidated(G, provider)
    report = validate_table(T)
    if not report.passed:
        raise TableValidationError(report)
    return T


def _build_unvalidated(G: GroupTable, provider: str) -> CharacterTable:
    if provider == "auto":
        return _build_unvalidated(G, _auto_provider(G))
    if provider == "cyclic-closed-form":
        return _cyclic_table(G)
    if provider == "dihedral-closed-form":
        return _dihedral_table(G)
    if provider == "symmetric-mn":
        return _symmetric_table(G)
    if provider == "product-tensor":
        return _tensor_table(G)
    if provider.startswith("bundled:"):
        name = provider.split(":", 1)[1]
        text = (
            resources.files("commcount")
            .joinpath("data")
            .joinpath(f"{name}_chartable.json")
            .read_text()
        )
        return table_from_document(G, json.loads(text), provider)
    if provider.startswith("file:"):
        path = provider.split(":", 1)[1]
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return table_from_document(G, doc, provider)
    raise TableProviderError(f"unknown character-table provider {provider!r}")


def _auto_provider(G: GroupTable) -> str:
    fam = G.family
    if fam == "cyclic":
        return "cyclic-closed-form"
    if fam == "dihedral":
        return "dihedral-closed-form"
    if fam == "symmetric":
        return "symmetric-mn"
    if fam == "quaternion":
        return "bundled:q8"
    if fam == "alternating":
        n = int(G.spec.split(":")[1])
        if n <= 3:
            return "cyclic-closed-form"
        if n == 4:
            return "bundled:a4"
        if n == 5:
            return "bundled:a5"
        raise TableProviderError(
            f"no built-in table for {G.spec}; import one with file:<path>"
        )
    if fam == "product":
        return "product-tensor"
    if _cyclic_generator(G) is not None:
        return "cyclic-closed-form"
    raise TableProviderError(
        f"no automatic provider for family {fam!r}; import with file:<path>"
    )


def _cyclic_generator(G: GroupTable) -> int | None:
    orders = G.element_orders()
    return next((g for g in range(G.order) if orders[g] == G.order), None)


def _cyclic_table(G: GroupTable) -> CharacterTable:
    n = G.order
    if G.family == "cyclic":
        # element index is already the exponent
        log = range(n)
    else:
        gen = _cyclic_generator(G)
        if gen is None:
            raise TableProviderError(
                f"cyclic-closed-form requires a cyclic group; no element of "
                f"{G.spec or 'the group'} has order {n}"
            )
        # cyclic groups are abelian, so class index == element index
        log = [0] * n
        x, k, times_gen = 0, 0, G.table[:, gen].tolist()
        while True:
            log[x] = k
            x = times_gen[x]
            k += 1
            if x == 0:
                break
    rows = []
    for j in range(n):
        vals = tuple(cyclo_root(n, j * log[r]) for r in range(n))
        rows.append(ClassFunction(G, vals))
    labels = tuple(f"chi{j}" for j in range(n))
    return CharacterTable(G, tuple(rows), (1,) * n, labels, "cyclic-closed-form")


def _dihedral_table(G: GroupTable) -> CharacterTable:
    if G.family != "dihedral":
        raise TableProviderError("dihedral-closed-form requires a dihedral: group")
    n = int(G.spec.split(":")[1])
    reps = conjugacy_classes(G).reps
    # Linear characters by their signs on a and on b; index n+s is a^s*b.
    signs = ((1, 1), (1, -1)) if n % 2 else ((1, 1), (1, -1), (-1, 1), (-1, -1))
    rows: list[tuple[str, int, list[Cyclo]]] = []
    for i, (on_a, on_b) in enumerate(signs, 1):
        vals = [
            Cyclo.rational(on_a**rep if rep < n else on_a ** (rep - n) * on_b)
            for rep in reps
        ]
        rows.append((f"chi{i}", 1, vals))
    two, zero = Cyclo.rational(2), Cyclo.rational(0)
    # psi_j(a^r) = zeta^(jr) + zeta^(-jr) depends on jr mod n only
    cos2 = [cyclo_root(n, e) + cyclo_root(n, -e) for e in range(n)]
    for j in range(1, (n - 1) // 2 + 1):
        vals = [
            two if rep == 0 else zero if rep >= n else cos2[j * rep % n]
            for rep in reps
        ]
        rows.append((f"psi{j}", 2, vals))
    return CharacterTable(
        G,
        tuple(ClassFunction(G, tuple(vals)) for _, _, vals in rows),
        tuple(d for _, d, _ in rows),
        tuple(name for name, _, _ in rows),
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


@lru_cache(maxsize=None)
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
    if G.family != "symmetric" or G.perm_list is None:
        raise TableProviderError("symmetric-mn requires a symmetric: group")
    n = len(G.perm_list[0])
    part = conjugacy_classes(G)
    from .perms import cycle_type

    types = [cycle_type(G.perm_list[rep]) for rep in part.reps]
    ident = tuple([1] * n)
    lams = partitions_of(n)
    entries = []
    for lam in lams:
        deg = rimhook_character(lam, ident)
        entries.append((deg, lam))
    entries.sort()
    rows, degrees, labels = [], [], []
    for deg, lam in entries:
        vals = tuple(
            Cyclo.rational(rimhook_character(lam, mu)) for mu in types
        )
        rows.append(ClassFunction(G, vals))
        degrees.append(deg)
        labels.append("(" + ",".join(str(p) for p in lam) + ")")
    return CharacterTable(
        G, tuple(rows), tuple(degrees), tuple(labels), "symmetric-mn"
    )


def _tensor_table(G: GroupTable) -> CharacterTable:
    if G.family != "product" or G.product_parts is None:
        raise TableProviderError("product-tensor requires a product: group")
    A, B = G.product_parts
    TA, TB = build_table(A), build_table(B)
    part = conjugacy_classes(G)
    pa, pb = conjugacy_classes(A), conjugacy_classes(B)
    nb = B.order
    pair_of_class = [
        (pa.class_of[rep // nb], pb.class_of[rep % nb]) for rep in part.reps
    ]
    rows, degrees, labels = [], [], []
    for i, ca in enumerate(TA.irreducibles):
        for j, cb in enumerate(TB.irreducibles):
            vals = tuple(
                ca.values[x] * cb.values[y] for x, y in pair_of_class
            )
            rows.append(ClassFunction(G, vals))
            degrees.append(TA.degrees[i] * TB.degrees[j])
            labels.append(f"{TA.labels[i]}*{TB.labels[j]}")
    return CharacterTable(
        G, tuple(rows), tuple(degrees), tuple(labels), "product-tensor"
    )


def table_from_document(G: GroupTable, doc: dict, provenance: str) -> CharacterTable:
    """Build a table from a chartable document, aligning it against the
    group's canonical classes.  Misalignment is a hard error."""
    part = conjugacy_classes(G)
    if doc.get("group_order") != G.order:
        raise ValueError(
            f"table document is for order {doc.get('group_order')}, "
            f"group has order {G.order}"
        )
    sizes = tuple(doc.get("class_sizes", ()))
    if sizes != part.sizes:
        for i, (a, b) in enumerate(zip(sizes, part.sizes)):
            if a != b:
                raise ValueError(
                    f"class_sizes mismatch at class {i}: file {a}, group {b}"
                )
        raise ValueError(
            f"class_sizes length {len(sizes)} vs {len(part.sizes)} classes"
        )
    rep_orders = tuple(doc.get("class_rep_orders", ()))
    actual = tuple(G.element_orders()[r] for r in part.reps)
    if rep_orders != actual:
        raise ValueError(
            f"class_rep_orders mismatch: file {rep_orders}, group {actual}"
        )
    raw = doc.get("irreducibles", [])
    rows = []
    for row in raw:
        vals = tuple(parse_cyclo(s) for s in row)
        rows.append(ClassFunction(G, vals))
    degrees = tuple(r.values[0].to_rational() for r in rows)
    if any(d.denominator != 1 or d <= 0 for d in degrees):
        raise ValueError("character degrees must be positive integers")
    labels = tuple(
        doc.get("labels") or (f"chi{i+1}" for i in range(len(rows)))
    )
    return CharacterTable(
        G,
        tuple(rows),
        tuple(int(d) for d in degrees),
        labels,
        provenance,
    )


def table_to_document(T: CharacterTable) -> dict:
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
