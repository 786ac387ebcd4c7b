"""The three workloads as lists of job descriptions.

A job is a JSON-serialisable dict with an ``id``, an ``op`` naming the
worker routine that runs it, and the op's parameters.  Expected values come
from ``golden.json`` and travel inside the job, so the worker checks what
it is handed and a corrupted expectation shows up as a failed job.

The seed shuffles the order of the library jobs and draws the triple-solver
targets; the groups are fixed by name, and the CLI calls come last in a
fixed order.  The targets are random conjugates of a fixed list of cycle
types, because the solver's work depends on the cycle type only: the seed
changes the inputs but not the amount of work.
"""
from __future__ import annotations

import random

WORKLOADS = ("char-formula", "brute-oracle", "cli-analysis")

# Character path: orders <= 256, so groups build in milliseconds and the
# cost sits in building and validating the table and in the formulas.
CHAR_SPECS = (
    "cyclic:23",
    "dihedral:30",
    "dihedral:40",
    "dihedral:12",
    "product:dihedral:6,cyclic:4",
    "product:quaternion,cyclic:3",
    "cyclic:12",
    "symmetric:4",
    "symmetric:5",
    "alternating:4",
    "alternating:5",
    "quaternion",
)

# Exhaustive path: permutation groups above order 256 and a large dihedral
# group.  (spec, n) pairs: f_n by the pruned search, t_3 and f_n(1) by the
# centralizer recursion on each.
BRUTE_SPECS = (
    ("symmetric:6", 3),
    ("alternating:6", 3),
    ("product:alternating:5,cyclic:5", 3),
    ("product:symmetric:4,dihedral:10", 3),
    ("dihedral:100", 3),
    ("symmetric:5", 4),
)
NAIVE_SPECS = (("dihedral:100", 3),)

# The non-abelian groups of the paper suite (verify --suite paper).
PAPER_NONABELIAN = ("alternating:5", "symmetric:3", "symmetric:4") + tuple(
    f"dihedral:{n}" for n in range(3, 13)
)
CONVOLVE_K = 3
TRIPLE_DEGREES = range(3, 10)
FILEIO_SPEC = "alternating:5"


def golden_key(kind: str, n: int, spec: str) -> str:
    """Key of an expected per-class vector in golden.json, e.g. f3:symmetric:6."""
    return f"{kind}{n}:{spec}"


def jobs_for(workload: str, seed: int, golden: dict) -> list[dict]:
    rng = random.Random(seed)
    if workload == "char-formula":
        jobs = [{"id": f"char:{s}", "op": "char", "spec": s} for s in CHAR_SPECS]
        rng.shuffle(jobs)
        return jobs
    if workload == "brute-oracle":
        jobs = _brute_jobs(golden["counts"])
        rng.shuffle(jobs)
        return jobs
    if workload == "cli-analysis":
        jobs = _analysis_jobs(rng)
        rng.shuffle(jobs)
        cli = [
            {
                "id": "cli:" + " ".join(c["argv"]),
                "op": "cli",
                "argv": c["argv"],
                "expect": c["stdout"],
                "span": "verify.paper_suite" if c["argv"][0] == "verify" else "cli.main",
            }
            for c in golden["cli"]
        ]
        # The CLI calls keep their fixed order: they share module-level
        # caches (realcmp, cyclo), and a shuffled order would move single
        # job times by 10% from seed to seed.
        return jobs + cli
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _brute_jobs(expected: dict) -> list[dict]:
    jobs = []
    for spec, n in BRUTE_SPECS:
        f_n = expected[golden_key("f", n, spec)]
        jobs.append({"id": f"brute_f_n:{n}:{spec}", "op": "brute_f_n",
                     "spec": spec, "n": n, "expect": f_n})
        jobs.append({"id": f"brute_t_n:3:{spec}", "op": "brute_t_n", "spec": spec,
                     "n": 3, "expect": expected[golden_key("t", 3, spec)]})
        jobs.append({"id": f"recursive_fn1:{n}:{spec}", "op": "recursive_fn1",
                     "spec": spec, "n": n, "expect": f_n[0]})
    for spec, n in NAIVE_SPECS:
        jobs.append({"id": f"naive_f_n:{n}:{spec}", "op": "naive_f_n", "spec": spec,
                     "n": n, "expect": expected[golden_key("f", n, spec)]})
    return jobs


def _analysis_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for spec in PAPER_NONABELIAN:
        jobs.append({"id": f"bounds:{spec}", "op": "bounds", "spec": spec})
        jobs.append({"id": f"dist:{spec}", "op": "dist", "spec": spec,
                     "k": CONVOLVE_K})
        jobs.append({"id": f"ore:{spec}", "op": "ore", "spec": spec, "n": 3})
    for n in TRIPLE_DEGREES:
        for lam in even_cycle_types(n):
            target = _perm_of_type(lam, n, rng)
            jobs.append({"id": f"triple:{n}:{'.'.join(map(str, lam))}",
                         "op": "triple", "n": n, "target": target})
    jobs.append({"id": f"fileio:{FILEIO_SPEC}", "op": "fileio", "spec": FILEIO_SPEC})
    return jobs


def even_cycle_types(n: int) -> list[tuple[int, ...]]:
    """Cycle types (partitions of n) of the even permutations of n points."""
    out = []

    def rec(left: int, top: int, prefix: tuple[int, ...]) -> None:
        if left == 0:
            if sum(1 for part in prefix if part % 2 == 0) % 2 == 0:
                out.append(prefix)
            return
        for part in range(min(left, top), 0, -1):
            rec(left - part, part, prefix + (part,))

    rec(n, n, ())
    return out


def _perm_of_type(lam: tuple[int, ...], n: int, rng: random.Random) -> list[int]:
    """A random permutation of 0..n-1 (one-line form) with cycle type lam."""
    points = list(range(n))
    rng.shuffle(points)
    perm = list(range(n))
    i = 0
    for length in lam:
        cycle = points[i:i + length]
        i += length
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a] = b
    return perm
