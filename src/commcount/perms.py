"""Permutations of {0..n-1} as tuples; p[i] is the image of point i.

Products compose left-to-right: (p * q) means apply p, then q.  Text
notation is disjoint cycles on points 1..n, identity written '()'.
Everything here is plain Python on tuples; whole groups of permutations
become dense tables in ``groups``.
"""
from __future__ import annotations

import itertools
import re


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


def sort_key(p: tuple[int, ...]) -> tuple:
    """Canonical enumeration key: cycle type first (ascending), then the
    one-line form.  Puts the identity first and groups classes together."""
    return (cycle_type(p), p)


def all_perms(n: int) -> list[tuple[int, ...]]:
    return sorted(itertools.permutations(range(n)), key=sort_key)


def even_perms(n: int) -> list[tuple[int, ...]]:
    return sorted(
        (p for p in itertools.permutations(range(n)) if is_even(p)), key=sort_key
    )


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
    return sorted(seen, key=sort_key)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, n: int | None = None) -> tuple[int, ...]:
    """Parse disjoint-cycle notation on points 1..n, e.g. '(1 2 3)(4 5)'.

    Points may be separated by spaces or commas.  '()' is the identity.
    When n is omitted it is inferred from the largest point named.
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
        cyc = [int(s) for s in pts]
        if any(v < 1 for v in cyc):
            raise ValueError(f"points must be >= 1 in {text!r}")
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


def format_cycles(p: tuple[int, ...]) -> str:
    parts = [
        "(" + " ".join(str(v + 1) for v in c) + ")"
        for c in cycles_of(p)
        if len(c) > 1
    ]
    return "".join(parts) if parts else "()"
