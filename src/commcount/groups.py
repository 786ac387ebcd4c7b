"""Finite groups as dense multiplication tables.

Elements are indices 0..order-1 with the identity pinned at 0.  Each group
holds one read-only int16 numpy table, ``GroupTable.table``, which every
reader in the package indexes, and its inverses as a read-only int16
vector, ``GroupTable.inv``.  Every constructor proves its table a group,
at every order, from three checks: index 0 is a two-sided identity, every
row holds a 0 (a right inverse), and Light's test passes on a generating
set, so the law is associative (complete, O(n^2 log n)).  The set is the
spec's two generators for ``symmetric:n`` and ``alternating:n``, then
greedy ones, each the largest index not yet reached.  An associative magma
with a two-sided identity and right inverses is a group, and a group's
table is a Latin square, so no Latin check is needed.  A direct product
``product:A,B`` is proved instead by its two proved factors and one n^2
equality of its table with the broadcast of theirs; its inverses,
commutators, classes, center and derived subgroup are those of the factors
paired, since the commutator is taken per factor.  A group is abelian
exactly when the generators that proved it (or both its factors) commute,
and then each element is a class of its own.  A subgroup
(``SubgroupRef``) is proved closed by greedy generators, the smallest
member not yet reached each time, with |H| products per generator and at
most log2|H| of them.  Element names not given to the constructor are
formatted when ``names`` is first read.

Tables are built and analysed by numpy indexing, not by Python loops over
pairs: a permutation group's rows as gathers of the rows of a few
generators (row x*y is row(x)[row(y)]; only a generator's row is looked up,
all its products at once), direct products and their commutators as a
broadcast of the factors' matrices, and commutators, classes, element
orders and subgroup closure by gathers on ``table``.

Commutators have one representation, ``G.comm_table()``: the read-only
int16 matrix of [x, y] = x^-1 y^-1 x y = (y x)^-1 (x y), filled in row
blocks: from a block's diagonal rightwards each entry is one gather on the
flattened table at inv[M[y, x]] * n + M[x, y], and left of it [y, x]^-1
from the rows above.  ``comm_row`` gathers from that matrix once it is
built, so a reader of a few rows never forces the n^2 build.
Centralizers are read from the commuting matrix ``G.commuting()``: the
read-only boolean matrix K = (table == table.T), so row x is C(x), its row
sums are the centralizer orders and the rows that are all true are the
center.  It costs n^2 bytes, where per-element index tuples cost
n * |C(x)| Python ints (over 1 GB for ``cyclic:5040``).  A reader of every
row takes them from ``G.commuting_pairs()``, K in CSR form: the sorted u in
C(x) row after row, as int16, and where each row starts, as int32 (a
position), k(G) * n pairs in all, found by one flat pass over K.  A reader
of a few rows reads K.

Groups above order 5040 (``ORDER_CAP``, the order of ``symmetric:7``) are
rejected with ``GroupSpecError`` before their table is allocated: a dense
int16 table costs 2n^2 bytes, about 51 MB at the cap, and its structural
data a few times that.  int16 is ``INDEX_DTYPE``, the smallest signed dtype
that holds ORDER_CAP and the one dtype of every element-valued array a
group holds: its table, inverses, commutators and centralizer columns.  A
position in an n x n matrix, x * n + y, does not fit in it (n^2 > 2^15), so
every such index is computed in a wider dtype.

A spec is parsed in one pass, ``_plan``: ``product:`` takes two specs and a
comma, ``perm:`` runs to a comma outside parentheses with text other than
"(" after it, ``file:`` to the end, any other spec to its first comma.
The generators of ``perm:`` split at the same commas
(``perms.split_top_level``), so a cycle may separate its points by commas.
Parameters are read once the whole text has parsed, then the order capped.

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
import operator
from dataclasses import dataclass
from itertools import combinations, repeat

import numpy as np

from . import perms

ORDER_CAP = 5040
# The dtype of an element index: int16, as -ORDER_CAP fits (the sign leaves
# room for the -1 a builder marks a missing product with).
INDEX_DTYPE = np.min_scalar_type(-ORDER_CAP)
# Products per block of a large gather (permutation tables, the group-law and
# product checks, the brute search), about 2^16, so that each block's
# temporaries stay near 0.5 MB.
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
    """A subgroup given by its sorted member indices inside a parent table.

    Closure is proved by greedy generators: the smallest member s not yet
    reached must satisfy H*s within H (|H| products), and the members
    reached are then closed under the generators so far.  Each generator
    at least doubles the subgroup reached, so there are at most log2|H|
    rounds.  H*s within H for every chosen s puts <S> inside H, and the
    loop ends only when <S> is all of H, so H is closed under products."""

    parent: "GroupTable"
    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members or self.members[0] != 0:
            raise GroupLawError("subgroup must contain the identity (index 0)")
        M, members = self.parent.table, np.array(self.members)
        if members[-1] >= len(M) or (members[1:] <= members[:-1]).any():
            raise GroupLawError(f"subgroup members must be increasing indices below {len(M)}")
        inside = np.zeros(len(M), dtype=bool)
        inside[members] = True

        def smallest_unreached(reached):
            left = members[~reached[members]]
            return int(left[0]) if left.size else None

        def closed_under(gens):
            s = gens[-1]
            escapes = np.flatnonzero(~inside[M[members, s]])
            if escapes.size:
                h = members[escapes[0]]
                raise GroupLawError(f"member set not closed: {h}*{s} = {M[h, s]} escapes")

        _greedy_closure(M, smallest_unreached, closed_under)

    @property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def __len__(self) -> int:
        return len(self.members)


class GroupTable:
    """Immutable multiplication table plus cached structural data.

    ``mul`` is a square table of indices: rows of ints or a 2-D integer
    array.  ``table`` keeps it as a read-only ``INDEX_DTYPE`` (int16)
    array once every group law has been checked on it, 2n^2 bytes, and
    ``inv`` the inverses as a read-only int16 vector.  ``family`` is the
    prefix of ``spec`` before its first colon, or ``"table"`` for a table
    without a spec.  Light's test takes the indices in ``generators``
    first.  With ``product_parts`` (A, B), two proved groups, the table must
    equal the broadcast of theirs, with (a, b) at a*|B| + b; then it is
    their direct product, and the group-law checks give way to that one
    equality.
    """

    def __init__(self, mul, names=None, spec="", perm_list=None, product_parts=None,
                 generators=()):
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
        self._memo: dict = {}
        if names is not None:
            if len(names) != order:
                raise GroupLawError(f"expected {order} names, got {len(names)}")
            self._memo["names"] = tuple(str(s) for s in names)
        if product_parts is None:
            self.inv, gens = _check_group_laws(M, generators)
            # the proved generators commute pairwise exactly when G is abelian
            self.abelian = all(M[g, h] == M[h, g] for g, h in combinations(gens, 2))
        else:
            self.inv = _check_product(M, *product_parts)
            self.abelian = all(P.abelian for P in product_parts)
        # C order, so that comm_row's flat gather reads it without a copy
        self.table = np.ascontiguousarray(M, dtype=INDEX_DTYPE).view()
        self.table.flags.writeable = False

    def cached(self, key, build, *args):
        """The per-group memo: build(self, *args) runs once per key."""
        try:
            return self._memo[key]
        except KeyError:
            got = self._memo[key] = build(self, *args)
            return got

    @property
    def names(self) -> tuple[str, ...]:
        """The names given, else each one formatted on first read."""
        return self.cached("names", _names)

    # -- elementwise helpers ------------------------------------------------

    @property
    def mul(self):
        """``table`` itself; kept only for the benchmark in ``perfbench/``."""
        return self.table

    def m(self, x: int, y: int) -> int:
        """x * y; kept only for the benchmark in ``perfbench/``."""
        return int(self.table[x, y])

    def comm_row(self, x):
        """x^-1 * y^-1 * x * y for every y, as an int16 array: gathered from
        ``comm_table()`` once it is built, else one flat gather on table.
        An int gives one row; a 1-D array or a slice of x, one row per x."""
        comm = self._memo.get("comm")
        if comm is not None:
            return comm[x]
        return _comm_columns(self, x, 0)

    def comm_table(self):
        """The read-only int16 matrix C[x, y] = x^-1 * y^-1 * x * y."""
        return self.cached("comm", _comm_table)

    def element_orders(self):
        return self.cached("orders", _element_orders)

    def commuting(self):
        """The read-only boolean matrix K[x, y] = (xy == yx); row x is C(x)."""
        return self.cached("commuting", _commuting)

    def commuting_pairs(self):
        """``commuting()`` in CSR form, (u, starts): u[starts[x]:starts[x + 1]]
        is the sorted C(x), read-only int16 and int32 vectors."""
        return self.cached("commuting-pairs", _commuting_pairs)

    def centralizer_lists(self):
        """Per element: the sorted tuple of indices commuting with it, cut
        from ``commuting_pairs()`` on each call.  No library code calls it;
        it stays only for the benchmark in ``perfbench/`` and the tests."""
        u, starts = self.commuting_pairs()
        u, starts = u.tolist(), starts.tolist()
        return [tuple(u[lo:hi]) for lo, hi in zip(starts, starts[1:])]


def _names(G: GroupTable) -> tuple[str, ...]:
    if G.perm_list is not None:
        return tuple(map(perms.format_cycles, G.perm_list))
    if G.product_parts is not None:
        A, B = G.product_parts
        return tuple(f"({a},{b})" for a in A.names for b in B.names)
    return ("1",) + tuple(f"g{i}" for i in range(1, G.order))


def _check_group_laws(M, seeds=()):
    """Prove the dense table M a group; return the inverses and the
    generators that Light's test proved.

    Three checks make the proof:

    * index 0 is a two-sided identity;
    * every row holds a 0, so every element has a right inverse;
    * Light's test passes on generators whose closure reaches every
      element, so the law is associative: the seeds, then greedy ones.

    An associative magma with a two-sided identity and right inverses is a
    group, and a group's table is a Latin square.  Each check runs over row
    blocks of about _BLOCK_PRODUCTS entries, so that no temporary grows
    with the size of M.  They read M as given, before the constructor casts
    it to INDEX_DTYPE, so that no entry can wrap into range."""
    n = len(M)
    ar = np.arange(n)
    step = max(1, _BLOCK_PRODUCTS // n)
    blocks = [slice(lo, lo + step) for lo in range(0, n, step)]
    inv = np.empty(n, dtype=INDEX_DTYPE)
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
    # In a group each generator not yet reached at least doubles the
    # subgroup reached, so a table that needs more than floor(log2 n) is no
    # group.
    seeds = iter(seeds)

    def seed_or_largest(reached):
        if reached.all():
            return None
        a = next((s for s in seeds if not reached[s]), None)
        return n - 1 - int(reached[::-1].argmin()) if a is None else a

    def associative(gens):
        a = gens[-1]
        if len(gens) > n.bit_length() - 1:
            raise GroupLawError(
                f"associativity fails: more than log2({n}) greedy generators"
            )
        # (x*a)*y == x*(a*y) for the x of each row block and every y
        if not all((np.take(M, M[rows, a], axis=0) == np.take(M[rows], M[a], axis=1)).all()
                   for rows in blocks):
            raise GroupLawError(f"associativity fails with middle element {a}")

    _, gens = _greedy_closure(M, seed_or_largest, associative)
    # In a group the right inverse (where a row holds 0) is two-sided.
    inv.flags.writeable = False
    return inv, gens


def _check_product(M, A: GroupTable, B: GroupTable):
    """Prove M the table of the direct product of the groups A and B: equal,
    row block by row block, to the broadcast of their tables.  Return the
    inverses, inv_A[a]*|B| + inv_B[b]."""
    na, nb = A.order, B.order
    if na * nb != len(M):
        raise GroupLawError(f"order {len(M)} is not {na}*{nb}, the order of the parts")
    step = max(1, _BLOCK_PRODUCTS // (nb * len(M)))
    for lo in range(0, na, step):
        if not (M[lo * nb:(lo + step) * nb] == _pair_matrix(A.table[lo:lo + step], B.table)).all():
            raise GroupLawError("table is not the product of its parts' tables")
    inv = (A.inv[:, None] * nb + B.inv).reshape(-1)
    inv.flags.writeable = False
    return inv


def _pair_matrix(MA, MB):
    """The matrix on pairs with ((x, a), (y, b)) -> MA[x, y]*|B| + MB[a, b],
    rows and columns numbered x*|B| + a; MA may be a block of rows.  Its
    entries are below |A||B|, within ORDER_CAP, so index arithmetic is
    exact in INDEX_DTYPE."""
    nb = len(MB)
    return (MA[:, None, :, None] * nb + MB[None, :, None, :]).reshape(len(MA) * nb, -1)


def _greedy_closure(M, pick, admit=None):
    """The subgroup reached from the identity by generators taken one at a
    time, as a boolean mask, and the generators: pick(reached) names the
    next generator (None ends the loop), admit(gens), when given, checks the
    newest one before the mask reached is closed under all of them."""
    reached = np.zeros(len(M), dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while (g := pick(reached)) is not None:
        gens.append(g)
        if admit is not None:
            admit(gens)
        _close(M, reached, np.flatnonzero(reached), gens)
    return reached, gens


def _close(M, reached, frontier, gens) -> int:
    """Mark in reached everything frontier * gens^k reaches (k >= 1);
    return the number of rounds.  The multipliers are the gens and their
    product (two reflections make a rotation), each with its powers g^2,
    g^4, ..., so a cycle of length m takes log2 m rounds, not m.  They
    pass Light's test with the gens, so the set reached is the same."""
    n = len(M)
    steps = np.zeros(n, dtype=bool)
    product = 0
    for g in gens:
        product = M[product, g]
    power = np.array([*gens, product], dtype=np.intp)
    square = M.diagonal()
    for _ in range((n - 1).bit_length()):
        steps[power] = True
        power = square[power]
    steps[0] = False
    steps = np.flatnonzero(steps)
    rounds = 0
    while frontier.size:
        fresh = np.zeros(n, dtype=bool)
        fresh[M[frontier[:, None], steps]] = True
        fresh[reached] = False
        reached |= fresh
        frontier = np.flatnonzero(fresh)
        rounds += 1
    return rounds


def _comm_columns(G: GroupTable, x, lo: int):
    """[x, y] for the y from lo on, one row per x (an int, a 1-D array or a
    slice of x), by one flat gather on the table."""
    # [x, y] = (y*x)^-1 * (x*y), at flat index inv[M[y, x]] * n + M[x, y];
    # computed with y on the first axis, so that M[:, x] is read by rows, and
    # in intp, as x * n overflows INDEX_DTYPE and a gather takes intp as is
    M, n = G.table, G.order
    flat = np.multiply(G.inv[M[lo:, x]], n, dtype=np.intp)
    flat += M[x, lo:].T
    return M.reshape(-1)[flat].T


def _comm_table(G: GroupTable):
    """A product's is the broadcast of its parts', as the commutator is
    taken per factor.  Any other is filled in row blocks of about
    _BLOCK_PRODUCTS entries, so no n^2 temporaries are made; left of its
    diagonal, a block reads the rows above it, as [x, y] = [y, x]^-1."""
    if G.product_parts is not None:
        A, B = G.product_parts
        C = _pair_matrix(A.comm_table(), B.comm_table())
    else:
        step = max(1, _BLOCK_PRODUCTS // G.order)
        C = np.empty((G.order, G.order), dtype=INDEX_DTYPE)
        for lo in range(0, G.order, step):
            x = slice(lo, lo + step)
            C[x, lo:] = _comm_columns(G, x, lo)
            C[x, :lo] = G.inv[C[:lo, x]].T
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
    """A product's is the AND of its parts', broadcast as in `_pair_matrix`:
    (x, a) and (y, b) commute exactly when x, y and a, b do."""
    if G.product_parts is not None:
        KA, KB = (P.commuting() for P in G.product_parts)
        K = (KA[:, None, :, None] & KB[None, :, None, :]).reshape(G.order, G.order)
    else:
        K = G.table == G.table.T
    K.flags.writeable = False
    return K


def _commuting_pairs(G: GroupTable):
    """The CSR of K from one flatnonzero: entry x * n + u is row x, column
    u, and row x starts at the first entry at or above x * n.  Its int64
    temporary is 8 bytes per pair; the INDEX_DTYPE columns 2 more.  The
    starts are positions, up to n^2 < 2^31 under ORDER_CAP: int32."""
    n = G.order
    flat = np.flatnonzero(G.commuting())
    starts = np.searchsorted(flat, np.arange(0, n * n + 1, n)).astype(np.int32)
    flat %= n
    u = flat.astype(INDEX_DTYPE)
    u.flags.writeable = starts.flags.writeable = False
    return u, starts


# -- spec parsing ------------------------------------------------------------


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
    check, rem = _plan(spec)
    if rem:
        raise GroupSpecError(f"trailing text {rem!r} in group spec {spec!r}")
    order, build = check()
    if order is not None:
        _check_cap(order)
    return build()


def _int_param(spec: str, lo: int, hi: int | None = None) -> int:
    head, _, tail = spec.partition(":")
    if not tail:
        raise GroupSpecError(f"spec {spec!r} needs a numeric parameter")
    if not (tail.isascii() and tail.isdigit()):
        raise GroupSpecError(f"bad parameter in spec {spec!r}")
    n = int(tail)
    if n < lo or (hi is not None and n > hi):
        bound = f"at least {lo}" if hi is None else f"in {lo}..{hi}"
        raise GroupSpecError(f"{head} parameter must be {bound}, got {n}")
    return n


def _plan(text: str):
    """Read one spec off the front of text: (check, rest), where check()
    reads the spec's parameters and returns (order or None when only
    building tells, builder)."""
    if text.startswith("product:"):
        check_a, rem = _plan(text[len("product:"):])
        if not rem.startswith(","):
            raise GroupSpecError(f"product spec needs two factors: {text!r}")
        check_b, rem = _plan(rem[1:])

        def check():
            (na, build_a), (nb, build_b) = check_a(), check_b()
            order = None if na is None or nb is None else na * nb
            return order, lambda: _product(build_a(), build_b())
        return check, rem
    if text.startswith("perm:"):
        parts, k = perms.split_top_level(text), 1
        while k < len(parts) and (parts[k].startswith("(") or parts[k:] == [""]):
            k += 1
        end = len(",".join(parts[:k]))
    elif text.startswith("file:") or "," not in text:
        end = len(text)
    else:
        end = text.index(",")
    spec = text[:end]
    return lambda: _leaf(spec), text[end:]


def _leaf(spec: str):
    """(order or None, builder) for a spec other than a product."""
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
    if spec.startswith("perm:"):
        return None, lambda: _perm_group(spec)
    if spec.startswith("file:"):
        from .fileio import load_group
        return None, lambda: load_group(spec[len("file:"):])
    raise GroupSpecError(f"unknown group spec {spec!r}")


def _cyclic(n: int) -> GroupTable:
    r = np.arange(n, dtype=INDEX_DTYPE)
    mul = r[:, None] + r  # below 2n, within INDEX_DTYPE
    mul %= n  # in place: one n x n table at a time
    names = ["1"] + ["a" if i == 1 else f"a^{i}" for i in range(1, n)]
    return GroupTable(mul, names, spec=f"cyclic:{n}")


def _dihedral(n: int) -> GroupTable:
    # a^i * a^j = a^(i+j), a^i * a^j b = a^(i+j) b, a^i b * a^j = a^(i-j) b,
    # a^i b * a^j b = a^(i-j)
    r = np.arange(n, dtype=INDEX_DTYPE)
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


def _table_from_perms(plist, spec, generators=()) -> GroupTable:
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
    there are log2 of the order of them at most.  The generators, given
    as permutations, are looked up for Light's test."""
    n = len(plist)
    _check_cap(n)
    P = np.array(plist, dtype=np.min_scalar_type(len(plist[0])))
    index = dict(zip(_row_keys(P), range(n)))
    if len(index) < n:
        raise GroupLawError("permutation list has a repeated element")
    one = index.get(np.arange(P.shape[1], dtype=P.dtype).tobytes())
    if one is None:
        raise GroupLawError("permutation list not closed: () is not in it")
    mul = np.empty((n, n), dtype=INDEX_DTYPE)
    mul[one] = np.arange(n)
    filled = np.zeros(n, dtype=bool)
    filled[one] = True
    gens: list[int] = []
    step = max(1, _BLOCK_PRODUCTS // n)
    while not filled.all():
        s = n - 1 - int(filled[::-1].argmin())
        keys = _row_keys(P[:, P[s]])
        mul[s] = row = np.array(list(map(index.get, keys, repeat(-1))), INDEX_DTYPE)
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
    seeds = [index[np.array(g, dtype=P.dtype).tobytes()] for g in generators]
    return GroupTable(mul, spec=spec, perm_list=plist, generators=seeds)


def _row_keys(P):
    """Each row of the 2-D array P as one bytes object."""
    P = np.ascontiguousarray(P)
    return P.view(np.dtype((np.void, P.itemsize * P.shape[1]))).ravel().tolist()


def _symmetric(n: int, even_only: bool) -> GroupTable:
    """S_n, generated by (1 2) and (1 2 ... n); or A_n, generated by (1 2 3)
    and whichever of (1 2 ... n) and (2 3 ... n) is even."""
    def cycle(first):
        return "(" + " ".join(map(str, range(first, n + 1))) + ")"

    if even_only:
        gens = ["(1 2 3)", cycle(2 - n % 2)] if n >= 3 else []
    else:
        gens = ["(1 2)", cycle(1)] if n >= 2 else []
    plist = perms.even_perms(n) if even_only else perms.all_perms(n)
    fam = "alternating" if even_only else "symmetric"
    return _table_from_perms(
        plist, f"{fam}:{n}", [perms.parse_cycles(g, n) for g in gens]
    )


def _perm_group(spec: str) -> GroupTable:
    body = spec[len("perm:"):]
    if not body:
        raise GroupSpecError("perm spec needs at least one generator")
    gen_texts = [s.strip() for s in perms.split_top_level(body) if s.strip()]
    degree = 1  # perm:() is the identity on one point: a key needs a byte
    for t in gen_texts:
        g = perms.parse_cycles(t)
        degree = max(degree, len(g))
    gens = [perms.parse_cycles(t, degree) for t in gen_texts]
    try:
        plist = perms.closure(gens, ORDER_CAP)
    except ValueError as exc:
        raise GroupSpecError(str(exc)) from None
    # the spec of the texts that parsed, so that it reads back as one spec
    return _table_from_perms(plist, "perm:" + ",".join(gen_texts))


def _product(A: GroupTable, B: GroupTable) -> GroupTable:
    """A x B, under the spec of its factors' specs, so that every spelling
    of a factor gives one spec."""
    _check_cap(A.order * B.order)
    return GroupTable(
        _pair_matrix(A.table, B.table), spec=f"product:{A.spec},{B.spec}", product_parts=(A, B)
    )


# -- structural operations ---------------------------------------------------


def conjugacy_classes(G: GroupTable) -> ClassPartition:
    return G.cached("classes", _class_partition)


def _class_partition(G: GroupTable) -> ClassPartition:
    """An abelian group's classes are its elements.  A product's are the
    pairs of its parts' classes, numbered lexicographically: the least
    member of a pair class is rep_A*|B| + rep_B, so that order is the
    canonical one.  Any other group's are its conjugation orbits."""
    if G.abelian:
        return _partition(np.arange(G.order))
    if G.product_parts is not None:
        A, B = map(conjugacy_classes, G.product_parts)
        return _partition((np.array(A.class_of)[:, None] * len(B) + B.class_of).reshape(-1))
    return _partition(_orbit_classes(G))


def _orbit_classes(G: GroupTable):
    """The class number of each element, one conjugation orbit per class
    in the order of its least member."""
    M, inv = G.table, G.inv
    every = np.arange(G.order)
    class_of = np.full(G.order, -1)
    count = 0
    for start in range(G.order):
        if class_of[start] < 0:
            # the orbit y^-1 * start * y over all y; start is its least member
            class_of[M[M[inv, start], every]] = count
            count += 1
    return class_of


def _partition(class_of) -> ClassPartition:
    """The partition with class numbers class_of, which number the classes
    in the order of their least members."""
    sizes = np.bincount(class_of)
    members = np.argsort(class_of, kind="stable").tolist()
    ends = np.cumsum(sizes).tolist()
    classes = tuple(tuple(members[lo:hi]) for lo, hi in zip([0] + ends, ends))
    return ClassPartition(
        classes,
        tuple(c[0] for c in classes),
        tuple(sizes.tolist()),
        tuple(class_of.tolist()),
    )


def _element(G: GroupTable, x) -> int:
    """x as an element index of G; anything else raises ValueError."""
    try:
        i = operator.index(x)
    except TypeError:
        raise ValueError(f"element index {x!r} is not an integer") from None
    if not 0 <= i < G.order:
        raise ValueError(f"element index {i} is outside 0..{G.order - 1}")
    return i


def centralizer(G: GroupTable, g: int) -> SubgroupRef:
    row = G.commuting()[_element(G, g)]
    return SubgroupRef(G, tuple(np.flatnonzero(row).tolist()))


def subgroup_generated(G: GroupTable, gens) -> SubgroupRef:
    """The subgroup that the element indices gens generate."""
    return _generated(G, sorted({_element(G, g) for g in gens}))


def _generated(G: GroupTable, gens) -> SubgroupRef:
    """The subgroup that gens, valid indices, generate; each one already
    reached is skipped."""
    todo = iter(gens)
    reached, _ = _greedy_closure(
        G.table, lambda reached: next((g for g in todo if not reached[g]), None)
    )
    return SubgroupRef(G, tuple(np.flatnonzero(reached).tolist()))


def center_and_derived(G: GroupTable) -> tuple[SubgroupRef, SubgroupRef]:
    return G.cached("center-derived", _center_and_derived)


def _center_and_derived(G: GroupTable) -> tuple[SubgroupRef, SubgroupRef]:
    """Z(A x B) = Z(A) x Z(B) and (A x B)' = A' x B'.  Otherwise the center
    is the classes of one element, and G' is generated by every class that
    a rep's commutator row hits, as [x^h, y^h] = [x, y]^h; a central rep's
    row is all 1, so only the other reps' rows are read."""
    if G.product_parts is not None:
        A, B = G.product_parts
        return tuple(
            SubgroupRef(G, tuple((np.array(HA.members)[:, None] * B.order
                                  + HB.members).reshape(-1).tolist()))
            for HA, HB in zip(center_and_derived(A), center_and_derived(B))
        )
    part = conjugacy_classes(G)
    class_of = np.array(part.class_of)
    hit = np.zeros(len(part), dtype=bool)
    central = []
    for r, size in zip(part.reps, part.sizes):
        if size == 1:
            central.append(r)
        else:
            hit[class_of[G.comm_row(r)]] = True
    commutators = np.flatnonzero(hit[class_of])
    return SubgroupRef(G, tuple(central)), _generated(G, commutators)
