"""Finite groups as dense multiplication tables.

Elements are indices 0..order-1 with the identity pinned at 0.  Every
constructor produces a fully validated table: identity and inverse laws,
Latin-square rows and columns, and associativity at every order, by Light's
test on a greedy generating set (complete, O(n^2 log n)).  Groups above
order 20160 are rejected.

Element layouts are deterministic per family:

* ``cyclic:n``      index r is a^r.
* ``dihedral:n``    indices 0..n-1 are a^0..a^(n-1); index n+s is a^s*b.
* ``symmetric:n`` / ``alternating:n`` / ``perm:...``   permutations sorted
  by cycle type, then one-line form (identity first).
* ``quaternion``    1, i, j, k, -1, -i, -j, -k.
* ``product:A,B``   index of (a, b) is a*|B| + b.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from . import perms

ORDER_CAP = 20160


class GroupSpecError(ValueError):
    """Bad group spec string, or a construction that exceeds the cap."""


class GroupLawError(ValueError):
    """A table failed one of the group laws; the message names it."""


@dataclass(frozen=True)
class ClassPartition:
    """Conjugacy classes in canonical order: class reps are the minimal
    member indices, classes sorted by rep, class 0 = {identity}."""

    classes: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...]
    sizes: tuple[int, ...]
    class_of: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class SubgroupRef:
    """A subgroup given by its sorted member indices inside a parent table."""

    parent: "GroupTable"
    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members or self.members[0] != 0:
            raise GroupLawError("subgroup must contain the identity (index 0)")
        mset = set(self.members)
        mul = self.parent.mul
        for x in self.members:
            for y in self.members:
                if mul[x][y] not in mset:
                    raise GroupLawError(
                        f"member set not closed: {x}*{y} = {mul[x][y]} escapes"
                    )

    @property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def __len__(self) -> int:
        return len(self.members)


class GroupTable:
    """Immutable multiplication table plus cached structural data."""

    def __init__(self, mul, names=None, family="table", spec="", perm_list=None,
                 product_parts=None):
        order = len(mul)
        if order == 0:
            raise GroupLawError("empty table")
        if order > ORDER_CAP:
            raise GroupSpecError(f"order {order} exceeds cap {ORDER_CAP}")
        rows = [array("i", row) for row in mul]
        if any(len(r) != order for r in rows):
            raise GroupLawError("table is not square")
        self.order = order
        self.mul = rows
        self.family = family
        self.spec = spec
        self.perm_list = tuple(perm_list) if perm_list is not None else None
        self.product_parts = product_parts
        if names is None:
            names = ["1"] + [f"g{i}" for i in range(1, order)]
        if len(names) != order:
            raise GroupLawError(f"expected {order} names, got {len(names)}")
        self.names = tuple(str(s) for s in names)
        self.inv = _check_group_laws(np.array(rows, dtype=np.int32))
        self._memo: dict = {}

    def cached(self, key, build, *args):
        """The per-group memo: build(self, *args) runs once per key."""
        try:
            return self._memo[key]
        except KeyError:
            got = self._memo[key] = build(self, *args)
            return got

    # -- elementwise helpers ------------------------------------------------

    def m(self, x: int, y: int) -> int:
        return self.mul[x][y]

    def conj(self, x: int, y: int) -> int:
        """y^-1 * x * y."""
        return self.mul[self.mul[self.inv[y]][x]][y]

    def comm(self, x: int, y: int) -> int:
        """x^-1 * y^-1 * x * y."""
        t = self.mul[self.inv[x]][self.inv[y]]
        return self.mul[self.mul[t][x]][y]

    def comm_table(self):
        return self.cached("comm", _comm_table)

    def element_orders(self):
        return self.cached("orders", _element_orders)

    def centralizer_lists(self):
        """Per element: the sorted tuple of indices commuting with it."""
        return self.cached("cents", _centralizer_lists)

    def centralizer_sets(self):
        return self.cached("cent-sets", _centralizer_sets)


def _check_group_laws(M) -> array:
    """Check every group law on the dense table M; return the inverses."""
    n = len(M)
    ar = np.arange(n)
    is_one = M == 0
    inv = is_one.argmax(axis=1)
    missing = np.flatnonzero(~is_one[ar, inv])
    if missing.size:
        raise GroupLawError(f"element {missing[0]} has no inverse")
    if M.min() < 0 or M.max() >= n:
        raise GroupLawError("table entry out of range")
    if not (M[0] == ar).all() or not (M[:, 0] == ar).all():
        raise GroupLawError("index 0 is not a two-sided identity")
    if not (np.sort(M, axis=1) == ar).all():
        raise GroupLawError("a row is not a permutation (left Latin law fails)")
    if not (np.sort(M, axis=0) == ar[:, None]).all():
        raise GroupLawError("a column is not a permutation (right Latin law fails)")
    # Light's test: the a with (x*a)*y == x*(a*y) for all x, y are closed
    # under products, so checking a generating set proves associativity.
    # Each greedy generator at least doubles the subgroup reached, so a
    # group never needs more than floor(log2 n) of them.
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        a = int(reached.argmin())
        gens.append(a)
        if len(gens) > n.bit_length() - 1:
            raise GroupLawError(
                f"associativity fails: more than log2({n}) greedy generators"
            )
        if not (M[M[:, a], :] == M[:, M[a, :]]).all():
            raise GroupLawError(f"associativity fails with middle element {a}")
        frontier = np.flatnonzero(reached)
        while frontier.size:
            prods = np.unique(M[np.ix_(frontier, gens)])
            frontier = prods[~reached[prods]]
            reached[frontier] = True
    # In a group the right inverse (where a row holds 0) is two-sided.
    return array("i", inv.tolist())


def _comm_table(G: GroupTable):
    mul, inv, n = G.mul, G.inv, G.order
    rows = []
    for x in range(n):
        ix = inv[x]
        rows.append(
            array("i", (mul[mul[mul[ix][inv[y]]][x]][y] for y in range(n)))
        )
    return rows


def _element_orders(G: GroupTable):
    out = []
    for x in range(G.order):
        k, y = 1, x
        while y != 0:
            y = G.mul[y][x]
            k += 1
        out.append(k)
    return out


def _centralizer_lists(G: GroupTable):
    mul, n = G.mul, G.order
    return [
        tuple(y for y in range(n) if mul[x][y] == mul[y][x]) for x in range(n)
    ]


def _centralizer_sets(G: GroupTable):
    return [frozenset(t) for t in G.centralizer_lists()]


# -- spec parsing ------------------------------------------------------------


def _parse_spec_prefix(text: str) -> tuple[str, str]:
    """Split one spec off the front of text; returns (spec, remainder)."""
    if text.startswith("product:"):
        rest = text[len("product:"):]
        first, rem = _parse_spec_prefix(rest)
        if not rem.startswith(","):
            raise GroupSpecError(f"product spec needs two factors: {text!r}")
        second, rem = _parse_spec_prefix(rem[1:])
        return f"product:{first},{second}", rem
    if text.startswith("perm:"):
        rest = text[len("perm:"):]
        depth, i = 0, 0
        while i < len(rest):
            ch = rest[i]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0 and (i + 1 < len(rest) and rest[i + 1] != "("):
                break
            i += 1
        return "perm:" + rest[:i], rest[i:]
    if text.startswith("file:"):
        return text, ""
    cut = text.find(",")
    if cut < 0:
        return text, ""
    return text[:cut], text[cut:]


def make_group(spec: str) -> GroupTable:
    """Build a group from a spec string.

    Specs: ``cyclic:n``, ``dihedral:n`` (n>=3), ``symmetric:n`` (n<=8),
    ``alternating:n`` (n<=8), ``quaternion``, ``product:specA,specB``,
    ``perm:(1 2 3)(4 5),(1 2)``, ``file:path``.
    """
    spec = spec.strip()
    parsed, rem = _parse_spec_prefix(spec)
    if rem:
        raise GroupSpecError(f"trailing text {rem!r} in group spec {spec!r}")
    return _dispatch(parsed)


def _int_param(spec: str, lo: int, hi: int | None = None) -> int:
    head, _, tail = spec.partition(":")
    if not tail:
        raise GroupSpecError(f"spec {spec!r} needs a numeric parameter")
    try:
        n = int(tail)
    except ValueError:
        raise GroupSpecError(f"bad parameter in spec {spec!r}") from None
    if n < lo or (hi is not None and n > hi):
        top = f"..{hi}" if hi is not None else ""
        raise GroupSpecError(f"{head} parameter must be in {lo}{top}, got {n}")
    return n


def _dispatch(spec: str) -> GroupTable:
    if spec.startswith("cyclic:"):
        return _cyclic(_int_param(spec, 1))
    if spec.startswith("dihedral:"):
        return _dihedral(_int_param(spec, 3))
    if spec.startswith("symmetric:"):
        return _symmetric(_int_param(spec, 1, 8), even_only=False)
    if spec.startswith("alternating:"):
        return _symmetric(_int_param(spec, 1, 8), even_only=True)
    if spec == "quaternion":
        return _quaternion()
    if spec.startswith("product:"):
        body = spec[len("product:"):]
        first, rem = _parse_spec_prefix(body)
        second = rem[1:]
        return _product(_dispatch(first), _dispatch(second), spec)
    if spec.startswith("perm:"):
        return _perm_group(spec)
    if spec.startswith("file:"):
        from .fileio import load_group
        return load_group(spec[len("file:"):])
    raise GroupSpecError(f"unknown group spec {spec!r}")


def _cyclic(n: int) -> GroupTable:
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = ["1"] + ["a" if i == 1 else f"a^{i}" for i in range(1, n)]
    return GroupTable(mul, names, family="cyclic", spec=f"cyclic:{n}")


def _dihedral(n: int) -> GroupTable:
    order = 2 * n
    mul = [[0] * order for _ in range(order)]
    for i in range(n):
        for j in range(n):
            mul[i][j] = (i + j) % n
            mul[i][n + j] = n + (i + j) % n
            mul[n + i][j] = n + (i - j) % n
            mul[n + i][n + j] = (i - j) % n
    rot = ["1"] + ["a" if i == 1 else f"a^{i}" for i in range(1, n)]
    ref = ["b"] + ["a*b" if i == 1 else f"a^{i}*b" for i in range(1, n)]
    return GroupTable(mul, rot + ref, family="dihedral", spec=f"dihedral:{n}")


def _quaternion() -> GroupTable:
    base = {
        ("e", "e"): (1, "e"), ("e", "i"): (1, "i"), ("e", "j"): (1, "j"),
        ("e", "k"): (1, "k"), ("i", "e"): (1, "i"), ("j", "e"): (1, "j"),
        ("k", "e"): (1, "k"), ("i", "i"): (-1, "e"), ("j", "j"): (-1, "e"),
        ("k", "k"): (-1, "e"), ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"), ("k", "i"): (1, "j"),
        ("i", "k"): (-1, "j"),
    }
    elems = [(1, "e"), (1, "i"), (1, "j"), (1, "k"),
             (-1, "e"), (-1, "i"), (-1, "j"), (-1, "k")]
    index = {e: i for i, e in enumerate(elems)}
    mul = []
    for s1, l1 in elems:
        row = []
        for s2, l2 in elems:
            s3, l3 = base[(l1, l2)]
            row.append(index[(s1 * s2 * s3, l3)])
        mul.append(row)
    names = ["1", "i", "j", "k", "-1", "-i", "-j", "-k"]
    return GroupTable(mul, names, family="quaternion", spec="quaternion")


def _table_from_perms(plist, family, spec) -> GroupTable:
    index = {p: i for i, p in enumerate(plist)}
    mul = []
    for p in plist:
        mul.append([index[perms.pmul(p, q)] for q in plist])
    names = [perms.format_cycles(p) for p in plist]
    return GroupTable(mul, names, family=family, spec=spec, perm_list=plist)


def _symmetric(n: int, even_only: bool) -> GroupTable:
    count = 1
    for k in range(2, n + 1):
        count *= k
    if even_only and n >= 3:
        count //= 2
    if count > ORDER_CAP:
        raise GroupSpecError(f"order {count} exceeds cap {ORDER_CAP}")
    plist = perms.even_perms(n) if even_only else perms.all_perms(n)
    fam = "alternating" if even_only else "symmetric"
    return _table_from_perms(plist, fam, f"{fam}:{n}")


def _perm_group(spec: str) -> GroupTable:
    body = spec[len("perm:"):]
    if not body:
        raise GroupSpecError("perm spec needs at least one generator")
    gen_texts = [s for s in body.split(",") if s.strip()]
    degree = 0
    for t in gen_texts:
        g = perms.parse_cycles(t)
        degree = max(degree, len(g))
    gens = [perms.parse_cycles(t, degree) for t in gen_texts]
    try:
        plist = perms.closure(gens, ORDER_CAP)
    except ValueError as exc:
        raise GroupSpecError(str(exc)) from None
    return _table_from_perms(plist, "perm", spec)


def _product(A: GroupTable, B: GroupTable, spec: str) -> GroupTable:
    na, nb = A.order, B.order
    if na * nb > ORDER_CAP:
        raise GroupSpecError(f"order {na * nb} exceeds cap {ORDER_CAP}")
    mul = []
    for a in range(na):
        for b in range(nb):
            arow, brow = A.mul[a], B.mul[b]
            mul.append(
                [arow[c] * nb + brow[d] for c in range(na) for d in range(nb)]
            )
    names = [
        f"({A.names[a]},{B.names[b]})" for a in range(na) for b in range(nb)
    ]
    return GroupTable(
        mul, names, family="product", spec=spec, product_parts=(A, B)
    )


# -- structural operations ---------------------------------------------------


def commutator(G: GroupTable, x: int, y: int) -> int:
    return G.comm(x, y)


def conjugacy_classes(G: GroupTable) -> ClassPartition:
    # ClassFunction.at and ClassCounts.at call this per lookup: a plain dict
    # hit once the partition is built.
    try:
        return G._memo["classes"]
    except KeyError:
        return G.cached("classes", _class_partition)


def _class_partition(G: GroupTable) -> ClassPartition:
    n = G.order
    class_of = [-1] * n
    classes, reps, sizes = [], [], []
    for start in range(n):
        if class_of[start] >= 0:
            continue
        idx = len(classes)
        orbit = {start}
        for y in range(n):
            orbit.add(G.conj(start, y))
        members = tuple(sorted(orbit))
        for e in members:
            class_of[e] = idx
        classes.append(members)
        reps.append(start)
        sizes.append(len(members))
    return ClassPartition(
        tuple(classes), tuple(reps), tuple(sizes), tuple(class_of)
    )


def centralizer(G: GroupTable, g: int) -> SubgroupRef:
    return SubgroupRef(G, G.centralizer_lists()[g])


def subgroup_generated(G: GroupTable, gens) -> SubgroupRef:
    seen = {0}
    frontier = [0]
    gens = sorted(set(gens))
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = G.mul[x][g]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return SubgroupRef(G, tuple(sorted(seen)))


def center_and_derived(G: GroupTable) -> tuple[SubgroupRef, SubgroupRef]:
    return G.cached("center-derived", _center_and_derived)


def _center_and_derived(G: GroupTable) -> tuple[SubgroupRef, SubgroupRef]:
    n, mul = G.order, G.mul
    central = tuple(
        x for x in range(n) if all(mul[x][y] == mul[y][x] for y in range(n))
    )
    comm = G.comm_table()
    cset = {comm[x][y] for x in range(n) for y in range(n)}
    return SubgroupRef(G, central), subgroup_generated(G, cset)


def element_order(G: GroupTable, g: int) -> int:
    return G.element_orders()[g]
