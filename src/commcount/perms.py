"""Permutations of {0..n-1} as tuples; p[i] is the image of point i.

Products compose left-to-right: (p * q) means apply p, then q.  Text
notation is disjoint cycles on points 1..n, identity written '()'.
Permutations are plain Python tuples; a list of them is put in canonical
order by one numpy pass.  Whole groups of permutations become dense tables
in ``groups``, whose Light's test starts from the spec's generators of
``symmetric:n`` and ``alternating:n``, and whose element names, the cycles
formatted here, are derived when first read.
"""
from __future__ import annotations

import itertools
import re

import numpy as np


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def pmul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(q.__getitem__, p))


def pinv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def pcomm(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p^-1 * q^-1 * p * q."""
    return pmul(pmul(pinv(p), pinv(q)), pmul(p, q))


def cycles_of(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Disjoint cycles (fixed points included), each starting at its least
    point, ordered by least point."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append(tuple(cyc))
    return out


def cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths sorted descending, fixed points included."""
    return tuple(sorted((len(c) for c in cycles_of(p)), reverse=True))


def is_even(p: tuple[int, ...]) -> bool:
    return (len(p) - len(cycles_of(p))) % 2 == 0


def _canonical_order(plist, even_only: bool = False) -> list[tuple[int, ...]]:
    """plist (in one-line order) stably sorted by cycle type, descending
    lengths compared ascending, with the odd ones dropped if even_only.

    Power k of the (N, n) array closes the cycles of length k, at c_k
    points per row; the key sum of c_k * (n+1)^(k-1) has digits c_n..c_1
    in base n + 1, so it orders rows as their cycle types do."""
    n = len(plist[0])
    P = np.array(plist, dtype=np.min_scalar_type(max(n - 1, 0))).reshape(len(plist), n)
    points = np.arange(n, dtype=P.dtype)
    offsets = np.arange(0, len(P) * n, n or 1).reshape(-1, 1)
    dtype = np.int64 if (n + 1) ** n < 2**63 else object
    key = np.zeros(len(P), dtype=dtype)
    pending = np.ones(P.shape, dtype=bool)
    power = P
    for k in range(1, n + 1):
        closing = power == points
        closing &= pending
        key += closing.sum(axis=1).astype(dtype) * (n + 1) ** (k - 1)
        pending ^= closing
        if not pending.any():
            break
        power = P.reshape(-1)[power + offsets]  # row r of P^(k+1) is P_r[P_r^k]
    keys = sorted(set(key.tolist()))
    if even_only:
        keys = [ct for ct in keys if (n - _cycle_count(ct, n)) % 2 == 0]
    return [plist[i] for ct in keys for i in np.flatnonzero(key == ct).tolist()]


def _cycle_count(key: int, n: int) -> int:
    """Sum of c_k / k over the digits c_k of a _canonical_order key."""
    cycles = 0
    for k in range(1, n + 1):
        key, c_k = divmod(key, n + 1)
        cycles += c_k // k
    return cycles


def all_perms(n: int) -> list[tuple[int, ...]]:
    return _canonical_order(list(itertools.permutations(range(n))))


def even_perms(n: int) -> list[tuple[int, ...]]:
    return _canonical_order(list(itertools.permutations(range(n))), even_only=True)


def closure(gens: list[tuple[int, ...]], cap: int) -> list[tuple[int, ...]]:
    """All products of the generators, canonically sorted.  Raises if the
    enumeration exceeds cap elements."""
    if not gens:
        raise ValueError("need at least one generator")
    n = len(gens[0])
    if any(len(g) != n for g in gens):
        raise ValueError("generators act on different point sets")
    frontier = [identity(n)]
    seen = set(frontier)
    while frontier:
        frontier = [q for q in {pmul(p, g) for p in frontier for g in gens}
                    if q not in seen]
        seen.update(frontier)
        if len(seen) > cap:
            raise ValueError(f"permutation closure exceeds cap of {cap} elements")
    return _canonical_order(sorted(seen))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, n: int | None = None) -> tuple[int, ...]:
    """Parse disjoint-cycle notation on points 1..n, e.g. '(1 2 3)(4 5)'.

    Points are ASCII digits, separated by spaces or commas; '()' is the
    identity.  When n is omitted it is inferred from the largest point named.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    consumed = _CYCLE_RE.sub("", text).strip()
    if consumed:
        raise ValueError(f"bad cycle notation: {text!r}")
    cycles = []
    for body in _CYCLE_RE.findall(text):
        pts = [s for s in re.split(r"[\s,]+", body.strip()) if s]
        if not pts:
            continue
        if not all(s.isascii() and s.isdigit() and int(s) for s in pts):
            raise ValueError(f"points must be ASCII integers >= 1 in {text!r}")
        cyc = [int(s) for s in pts]
        cycles.append(cyc)
    top = max((v for c in cycles for v in c), default=0)
    if n is None:
        n = top
    elif top > n:
        raise ValueError(f"point {top} out of range for degree {n}")
    out = list(range(n))
    touched = set()
    for cyc in cycles:
        for v in cyc:
            if v - 1 in touched:
                raise ValueError(f"point {v} repeated in {text!r}")
            touched.add(v - 1)
        for i, v in enumerate(cyc):
            out[v - 1] = cyc[(i + 1) % len(cyc)] - 1
    return tuple(out)


def split_top_level(text: str) -> list[str]:
    """text cut at each comma outside parentheses, so that a list such as
    '(1,2,3),(1,2)' or '(a,1),b' splits into its items."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    return parts + [text[start:]]


def format_cycles(p: tuple[int, ...]) -> str:
    parts = [
        "(" + " ".join(str(v + 1) for v in c) + ")"
        for c in cycles_of(p)
        if len(c) > 1
    ]
    return "".join(parts) if parts else "()"
