"""Finite groups as dense multiplication tables.

Elements are indices 0..order-1 with the identity pinned at 0.  Each group
holds one read-only int32 numpy table, ``GroupTable.table``, which every
reader in the package indexes, and its inverses as a read-only int32
vector, ``GroupTable.inv``.  Every constructor proves its table a group,
at every order, from three checks: index 0 is a two-sided identity, every
row holds a 0 (a right inverse), and Light's test passes on a greedy
generating set, each generator the largest index not yet reached, so the
law is associative (complete, O(n^2 log n)).  An associative magma with a
two-sided identity and right inverses is a group, and a group's table is a
Latin square, so no Latin check is needed.

Tables are built and analysed by numpy indexing, not by Python loops over
pairs: a permutation group's rows as gathers of the rows of a few
generators (row x*y is row(x)[row(y)]; only a generator's row is looked up,
all its products at once), direct products as a broadcast of the factor
tables, and commutators, classes, element orders and subgroup closure by
gathers on ``table``.

Commutators have one representation, ``G.comm_table()``: the read-only
int32 matrix of [x, y] = x^-1 y^-1 x y = (y x)^-1 (x y), filled by
``comm_row`` in row blocks, each entry one gather on the flattened table
at inv[M[y, x]] * n + M[x, y].  ``comm_row`` gathers from that matrix once
it is built, so a reader of a few rows never forces the n^2 build.
Centralizers have one representation, the commuting matrix
``G.commuting()``: the read-only boolean matrix K = (table == table.T), so
row x is C(x), its row sums are the centralizer orders and the rows that
are all true are the center.  It costs n^2 bytes, where per-element index
tuples cost n * |C(x)| Python ints (over 1 GB for ``cyclic:5040``).

Groups above order 5040 (``ORDER_CAP``, the order of ``symmetric:7``) are
rejected with ``GroupSpecError`` before their table is allocated: a dense
int32 table costs 4n^2 bytes, about 100 MB at the cap, and its structural
data a few times that.

Element layouts are deterministic per family:

* ``cyclic:n``      index r is a^r.
* ``dihedral:n``    indices 0..n-1 are a^0..a^(n-1); index n+s is a^s*b.
* ``symmetric:n`` / ``alternating:n`` / ``perm:...``   permutations sorted
  by cycle type, then one-line form (identity first).
* ``quaternion``    1, i, j, k, -1, -i, -j, -k.
* ``product:A,B``   index of (a, b) is a*|B| + b.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import perms

ORDER_CAP = 5040
# A character table holds rows x classes x phi(N) int64 residues; one above
# 2^24 (128 MB) is refused with TableProviderError before it is allocated.
TABLE_CAP = 1 << 24
# Products per block of a large gather (permutation tables, subgroup closure,
# the brute search), about 2^16, so that each block's temporaries stay near
# 0.5 MB.
_BLOCK_PRODUCTS = 1 << 16


class GroupSpecError(ValueError):
    """Bad group spec string, or a construction that exceeds the cap."""


class GroupLawError(ValueError):
    """A table failed one of the group laws; the message names it."""


def _check_cap(order: int) -> None:
    if order > ORDER_CAP:
        raise GroupSpecError(f"order {order} exceeds cap {ORDER_CAP}")


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
        members = np.array(self.members)
        inside = np.zeros(self.parent.order, dtype=bool)
        inside[members] = True
        step = max(1, _BLOCK_PRODUCTS // len(members))
        for lo in range(0, len(members), step):
            prods = self.parent.table[np.ix_(members[lo:lo + step], members)]
            escapes = np.argwhere(~inside[prods])
            if escapes.size:
                i, j = escapes[0]
                raise GroupLawError(
                    f"member set not closed: {members[lo + i]}*{members[j]} = "
                    f"{prods[i, j]} escapes"
                )

    @property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def __len__(self) -> int:
        return len(self.members)


class GroupTable:
    """Immutable multiplication table plus cached structural data.

    ``mul`` is a square table of indices: rows of ints or a 2-D integer
    array.  ``table`` keeps it as a read-only int32 array once every group
    law has been checked on it, and ``inv`` the inverses as a read-only
    int32 vector.  ``family`` is the prefix of ``spec`` before its first
    colon, or ``"table"`` for a table without a spec.
    """

    def __init__(self, mul, names=None, spec="", perm_list=None, product_parts=None):
        order = len(mul)
        if order == 0:
            raise GroupLawError("empty table")
        _check_cap(order)
        try:
            M = np.asarray(mul)
        except ValueError:
            raise GroupLawError("table is not square") from None
        if M.shape != (order, order):
            raise GroupLawError("table is not square")
        if M.dtype.kind not in "iu":
            raise GroupLawError("table entries are not all integers")
        self.order = order
        self.family = spec.partition(":")[0] or "table"
        self.spec = spec
        self.perm_list = tuple(perm_list) if perm_list is not None else None
        self.product_parts = product_parts
        if names is None:
            names = ["1"] + [f"g{i}" for i in range(1, order)]
        if len(names) != order:
            raise GroupLawError(f"expected {order} names, got {len(names)}")
        self.names = tuple(str(s) for s in names)
        self.inv = _check_group_laws(M)
        # C order, so that comm_row's flat gather reads it without a copy
        self.table = np.ascontiguousarray(M, dtype=np.int32).view()
        self.table.flags.writeable = False
        self._memo: dict = {}

    def cached(self, key, build, *args):
        """The per-group memo: build(self, *args) runs once per key."""
        try:
            return self._memo[key]
        except KeyError:
            got = self._memo[key] = build(self, *args)
            return got

    # -- elementwise helpers ------------------------------------------------

    @property
    def mul(self):
        """``table`` itself; kept only for the benchmark in ``perfbench/``."""
        return self.table

    def m(self, x: int, y: int) -> int:
        """x * y; kept only for the benchmark in ``perfbench/``."""
        return int(self.table[x, y])

    def comm_row(self, x):
        """x^-1 * y^-1 * x * y for every y, as an int32 array: gathered from
        ``comm_table()`` once it is built, else one flat gather on table.
        An int gives one row; a 1-D array or a slice of x, one row per x."""
        comm = self._memo.get("comm")
        if comm is not None:
            return comm[x]
        # [x, y] = (y*x)^-1 * (x*y), at flat index inv[M[y, x]] * n + M[x, y];
        # computed with y on the first axis, so that M[:, x] is read by rows
        M, n = self.table, self.order
        flat = self.inv[M[:, x]]
        flat *= n
        flat += M[x].T
        return M.reshape(-1)[flat].T

    def comm_table(self):
        """The read-only int32 matrix C[x, y] = x^-1 * y^-1 * x * y."""
        return self.cached("comm", _comm_table)

    def element_orders(self):
        return self.cached("orders", _element_orders)

    def commuting(self):
        """The read-only boolean matrix K[x, y] = (xy == yx); row x is C(x)."""
        return self.cached("commuting", _commuting)

    def centralizer_lists(self):
        """Per element: the sorted tuple of indices commuting with it, read
        from the rows of ``commuting()`` on each call.  No library code calls
        it; it stays only for the benchmark in ``perfbench/`` and the tests."""
        return [tuple(np.flatnonzero(row).tolist()) for row in self.commuting()]


def _check_group_laws(M):
    """Prove the dense table M a group; return the inverses.

    Three checks make the proof:

    * index 0 is a two-sided identity;
    * every row holds a 0, so every element has a right inverse;
    * Light's test passes on greedy generators whose closure reaches every
      element, so the law is associative.

    An associative magma with a two-sided identity and right inverses is a
    group, and a group's table is a Latin square.  Each check runs over row
    blocks of about _BLOCK_PRODUCTS entries, so that no temporary grows
    with the size of M."""
    n = len(M)
    ar = np.arange(n)
    step = max(1, _BLOCK_PRODUCTS // n)
    blocks = [slice(lo, lo + step) for lo in range(0, n, step)]
    inv = np.empty(n, dtype=np.int32)
    for rows in blocks:
        is_one = M[rows] == 0
        inv[rows] = is_one.argmax(axis=1)
        missing = np.flatnonzero(~is_one.any(axis=1))
        if missing.size:
            raise GroupLawError(f"element {rows.start + missing[0]} has no inverse")
    if M.min() < 0 or M.max() >= n:
        raise GroupLawError("table entry out of range")
    if not (M[0] == ar).all() or not (M[:, 0] == ar).all():
        raise GroupLawError("index 0 is not a two-sided identity")
    # Light's test: the a with (x*a)*y == x*(a*y) for all x, y are closed
    # under products, so checking a generating set proves associativity.
    # In a group each greedy generator at least doubles the subgroup
    # reached, so a table that needs more than floor(log2 n) is no group.
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        a = n - 1 - int(reached[::-1].argmin())
        gens.append(a)
        if len(gens) > n.bit_length() - 1:
            raise GroupLawError(
                f"associativity fails: more than log2({n}) greedy generators"
            )
        # (x*a)*y == x*(a*y) for the x of each row block and every y
        if not all((M[M[rows, a]] == M[rows][:, M[a]]).all() for rows in blocks):
            raise GroupLawError(f"associativity fails with middle element {a}")
        _close(M, reached, np.flatnonzero(reached), gens)
    # In a group the right inverse (where a row holds 0) is two-sided.
    inv.flags.writeable = False
    return inv


def _close(M, reached, frontier, gens) -> None:
    """Mark in reached everything frontier * gens^k reaches (k >= 1)."""
    gens = np.asarray(gens, dtype=np.intp)
    while frontier.size:
        fresh = np.zeros(len(M), dtype=bool)
        fresh[M[frontier[:, None], gens]] = True
        fresh[reached] = False
        reached |= fresh
        frontier = np.flatnonzero(fresh)


def _comm_table(G: GroupTable):
    """Filled in row blocks of about _BLOCK_PRODUCTS entries, so no n^2
    temporaries are made."""
    step = max(1, _BLOCK_PRODUCTS // G.order)
    C = np.empty((G.order, G.order), dtype=np.int32)
    for lo in range(0, G.order, step):
        C[lo:lo + step] = G.comm_row(slice(lo, lo + step))
    C.flags.writeable = False
    return C


def _element_orders(G: GroupTable):
    M = G.table
    orders = np.ones(G.order, dtype=np.int64)
    todo = np.arange(1, G.order)
    power, k = todo, 1
    while todo.size:
        k += 1
        power = M[power, todo]
        done = power == 0
        orders[todo[done]] = k
        todo, power = todo[~done], power[~done]
    return orders.tolist()


def _commuting(G: GroupTable):
    K = G.table == G.table.T
    K.flags.writeable = False
    return K


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
    ``perm:(1 2 3)(4 5),(1 2)``, ``file:path``.  A group of order above
    ``ORDER_CAP`` raises ``GroupSpecError``, before any table is built when
    the spec names its order (so ``symmetric:8`` and ``alternating:8`` are
    always refused).
    """
    spec = spec.strip()
    parsed, rem = _parse_spec_prefix(spec)
    if rem:
        raise GroupSpecError(f"trailing text {rem!r} in group spec {spec!r}")
    order, build = _plan(parsed)
    if order is not None:
        _check_cap(order)
    return build()


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


def _plan(spec: str):
    """(order or None when only building tells, builder) for a parsed spec.
    The order lets make_group refuse an oversized spec before building."""
    if spec.startswith("cyclic:"):
        n = _int_param(spec, 1)
        return n, lambda: _cyclic(n)
    if spec.startswith("dihedral:"):
        n = _int_param(spec, 3)
        return 2 * n, lambda: _dihedral(n)
    if spec.startswith(("symmetric:", "alternating:")):
        n = _int_param(spec, 1, 8)
        even_only = spec.startswith("alternating:")
        order = math.factorial(n) // (2 if even_only and n >= 2 else 1)
        return order, lambda: _symmetric(n, even_only)
    if spec == "quaternion":
        return 8, _quaternion
    if spec.startswith("product:"):
        first, rem = _parse_spec_prefix(spec[len("product:"):])
        (na, build_a), (nb, build_b) = _plan(first), _plan(rem[1:])
        order = None if na is None or nb is None else na * nb
        return order, lambda: _product(build_a(), build_b(), spec)
    if spec.startswith("perm:"):
        return None, lambda: _perm_group(spec)
    if spec.startswith("file:"):
        from .fileio import load_group
        return None, lambda: load_group(spec[len("file:"):])
    raise GroupSpecError(f"unknown group spec {spec!r}")


def _cyclic(n: int) -> GroupTable:
    r = np.arange(n, dtype=np.int32)
    mul = r[:, None] + r
    mul %= n  # in place: one n x n table at a time
    names = ["1"] + ["a" if i == 1 else f"a^{i}" for i in range(1, n)]
    return GroupTable(mul, names, spec=f"cyclic:{n}")


def _dihedral(n: int) -> GroupTable:
    # a^i * a^j = a^(i+j), a^i * a^j b = a^(i+j) b, a^i b * a^j = a^(i-j) b,
    # a^i b * a^j b = a^(i-j)
    r = np.arange(n, dtype=np.int32)
    add, sub = (r[:, None] + r) % n, (r[:, None] - r) % n
    mul = np.block([[add, add + n], [sub + n, sub]])
    rot = ["1"] + ["a" if i == 1 else f"a^{i}" for i in range(1, n)]
    ref = ["b"] + ["a*b" if i == 1 else f"a^{i}*b" for i in range(1, n)]
    return GroupTable(mul, rot + ref, spec=f"dihedral:{n}")


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
    return GroupTable(mul, names, spec="quaternion")


def _table_from_perms(plist, spec) -> GroupTable:
    """The table of a repeat-free permutation list closed under products.

    Row a holds the index of p_a * q for every q: it is the
    left-multiplication map of p_a, so row(x*y) = row(x)[row(y)].  Each
    generator s is the last element that no filled row reaches; its row is
    one bulk lookup of the composed permutations P[:, P[s]] (row x is
    s * p_x), each row's bytes a key of one dict, and a product missing
    from the list raises there.  Every other row is a gather of filled
    rows, by Dimino's coset enumeration: with the subgroup H of the earlier
    generators filled, the group that s adds is a union of cosets y*H, with
    y = g*x for a generator g and a coset rep x, and row(y*h) =
    row(y)[row(h)].  Each generator at least doubles the rows filled, so
    there are log2 of the order of them at most."""
    n = len(plist)
    _check_cap(n)
    P = np.array(plist, dtype=np.min_scalar_type(len(plist[0])))
    index = dict(zip(_row_keys(P), range(n)))
    if len(index) < n:
        raise GroupLawError("permutation list has a repeated element")
    one = index.get(np.arange(P.shape[1], dtype=P.dtype).tobytes())
    if one is None:
        raise GroupLawError("permutation list not closed: () is not in it")
    mul = np.empty((n, n), dtype=np.int32)
    mul[one] = np.arange(n)
    filled = np.zeros(n, dtype=bool)
    filled[one] = True
    gens: list[int] = []
    step = max(1, _BLOCK_PRODUCTS // n)
    while not filled.all():
        s = n - 1 - int(filled[::-1].argmin())
        keys = _row_keys(P[:, P[s]])
        mul[s] = row = np.array(list(map(index.get, keys, repeat(-1))), np.int32)
        if row.min() < 0:
            p = plist[int(row.argmin())]
            raise GroupLawError(
                "permutation list not closed: "
                f"{perms.format_cycles(plist[s])}*{perms.format_cycles(p)} is not in it"
            )
        gens.append(s)
        H = np.flatnonzero(filled)
        blocks = [H[lo:lo + step] for lo in range(0, len(H), step)]
        reps = [one]
        for x in reps:
            for g in gens:
                y = mul[g, x]
                if filled[y]:
                    continue
                row = mul[g][mul[x]]  # row(y), and row(y*h) = row[row(h)]
                for rows in blocks:
                    coset = row[rows]
                    mul[coset] = row[mul[rows]]
                    filled[coset] = True
                reps.append(y)
    names = [perms.format_cycles(p) for p in plist]
    return GroupTable(mul, names, spec=spec, perm_list=plist)


def _row_keys(P):
    """Each row of the 2-D array P as one bytes object."""
    P = np.ascontiguousarray(P)
    return P.view(np.dtype((np.void, P.itemsize * P.shape[1]))).ravel().tolist()


def _symmetric(n: int, even_only: bool) -> GroupTable:
    plist = perms.even_perms(n) if even_only else perms.all_perms(n)
    fam = "alternating" if even_only else "symmetric"
    return _table_from_perms(plist, f"{fam}:{n}")


def _perm_group(spec: str) -> GroupTable:
    body = spec[len("perm:"):]
    if not body:
        raise GroupSpecError("perm spec needs at least one generator")
    gen_texts = [s for s in body.split(",") if s.strip()]
    degree = 1  # perm:() is the identity on one point: a key needs a byte
    for t in gen_texts:
        g = perms.parse_cycles(t)
        degree = max(degree, len(g))
    gens = [perms.parse_cycles(t, degree) for t in gen_texts]
    try:
        plist = perms.closure(gens, ORDER_CAP)
    except ValueError as exc:
        raise GroupSpecError(str(exc)) from None
    return _table_from_perms(plist, spec)


def _product(A: GroupTable, B: GroupTable, spec: str) -> GroupTable:
    na, nb = A.order, B.order
    _check_cap(na * nb)
    MA, MB = A.table, B.table
    mul = (MA[:, None, :, None] * nb + MB[None, :, None, :]).reshape(na * nb, -1)
    names = [
        f"({A.names[a]},{B.names[b]})" for a in range(na) for b in range(nb)
    ]
    return GroupTable(mul, names, spec=spec, product_parts=(A, B))


# -- structural operations ---------------------------------------------------


def conjugacy_classes(G: GroupTable) -> ClassPartition:
    return G.cached("classes", _class_partition)


def _class_partition(G: GroupTable) -> ClassPartition:
    M, inv = G.table, G.inv
    every = np.arange(G.order)
    class_of = np.full(G.order, -1)
    classes = []
    for start in range(G.order):
        if class_of[start] >= 0:
            continue
        # the orbit y^-1 * start * y over all y; start is its least member
        member = np.zeros(G.order, dtype=bool)
        member[M[M[inv, start], every]] = True
        orbit = np.flatnonzero(member)
        class_of[orbit] = len(classes)
        classes.append(tuple(orbit.tolist()))
    return ClassPartition(
        tuple(classes),
        tuple(c[0] for c in classes),
        tuple(len(c) for c in classes),
        tuple(class_of.tolist()),
    )


def centralizer(G: GroupTable, g: int) -> SubgroupRef:
    return SubgroupRef(G, tuple(np.flatnonzero(G.commuting()[g]).tolist()))


def subgroup_generated(G: GroupTable, gens) -> SubgroupRef:
    reached = np.zeros(G.order, dtype=bool)
    reached[0] = True
    _close(G.table, reached, np.array([0]), sorted(set(gens)))
    return SubgroupRef(G, tuple(np.flatnonzero(reached).tolist()))


def center_and_derived(G: GroupTable) -> tuple[SubgroupRef, SubgroupRef]:
    return G.cached("center-derived", _center_and_derived)


def _center_and_derived(G: GroupTable) -> tuple[SubgroupRef, SubgroupRef]:
    central = tuple(np.flatnonzero(G.commuting().all(axis=1)).tolist())
    part = conjugacy_classes(G)
    class_of = np.array(part.class_of)
    hit = np.zeros(len(part), dtype=bool)
    for r in part.reps:  # [x^h, y^h] = [x, y]^h: every class a rep's row hits
        hit[class_of[G.comm_row(r)]] = True
    commutators = np.flatnonzero(hit[class_of]).tolist()
    return SubgroupRef(G, central), subgroup_generated(G, commutators)
