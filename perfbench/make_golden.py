"""Regenerate perfbench/golden.json, the expected values the workers check.

    PYTHONPATH=src python3 perfbench/make_golden.py

Counts for the brute-oracle workload come from a numpy oracle written here,
independent of commcount's searches: it forms the commutator table from the
multiplication table and counts tuples by array masks.  Each vector is then
cross-checked against commcount's pruned search and, on dihedral groups,
its closed forms; any disagreement aborts.  The CLI entries are the exact
stdout of each fixed command at the time of generation.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

import commcount as cc
from commcount import cli

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

CLI_COMMANDS = (
    ["count", "--group", "alternating:5", "--fn", "f3", "--method", "brute", "--format", "table"],
    ["count", "--group", "dihedral:12", "--fn", "t3", "--method", "closed", "--format", "csv"],
    ["count", "--group", "quaternion", "--fn", "f3", "--method", "character", "--format", "json"],
    ["count", "--group", "symmetric:4", "--fn", "fn:4", "--method", "recursive"],
    ["coeffs", "--group", "dihedral:8", "--fn", "f3"],
    ["coeffs", "--group", "alternating:5", "--fn", "t3"],
    ["dist", "--group", "alternating:5", "--convolve", "2", "--l1"],
    ["bounds", "--group", "symmetric:3"],
    ["bounds", "--group", "dihedral:15"],
    ["ore", "--group", "symmetric:4", "--k", "3"],
    ["triple", "--n", "6", "--g", "(1 2)(3 4 5 6)"],
    ["triple", "--n", "9", "--g", "(1 2 3)(4 5)(6 7 8 9)"],
    ["verify", "--suite", "paper"],
)


def oracle_tables(G):
    M = np.array([list(r) for r in G.mul], dtype=np.int64)
    n = len(M)
    inv = np.argmin(M, axis=1)  # the unique y with x*y = 0 (index 0 is the identity)
    ar = np.arange(n)
    comm = M[M[M[inv[:, None], inv[None, :]], ar[:, None]], ar[None, :]]
    conj_orbits = M[M[inv[None, :], ar[:, None]], ar[None, :]]  # row x: y^-1 x y
    reps = conj_orbits.min(axis=1)
    cent = (M == M.T).sum(axis=1)
    return comm, reps, cent


def per_class(G, per_element, reps) -> list[int]:
    """Canonical class order: classes sorted by their minimal member."""
    out = []
    for r in sorted(set(reps.tolist())):
        vals = set(per_element[reps == r].tolist())
        if len(vals) != 1:
            raise SystemExit(f"{G.spec}: oracle count not constant on the class of {r}")
        out.append(int(vals.pop()))
    return out


def oracle_f(comm, n_tuple: int) -> np.ndarray:
    order = len(comm)
    counts = np.zeros(order, dtype=np.int64)
    for x in range(order):
        g = comm[x]  # g[y] = [x, y]
        if n_tuple == 3:
            z_ok = (comm[x][None, :] == g[:, None]) & (comm == g[:, None])
            counts += np.bincount(g, weights=z_ok.sum(axis=1), minlength=order).astype(np.int64)
        elif n_tuple == 4:
            for y in range(order):
                zs = np.nonzero((comm[x] == g[y]) & (comm[y] == g[y]))[0]
                counts[g[y]] += int((comm[np.ix_(zs, zs)] == g[y]).sum())
        else:
            raise SystemExit(f"oracle covers n = 3 and 4, not {n_tuple}")
    return counts


def oracle_t3(comm, cent) -> np.ndarray:
    weights = np.broadcast_to(cent[:, None], comm.shape).ravel()
    return np.bincount(comm.ravel(), weights=weights, minlength=len(comm)).astype(np.int64)


def brute_oracle_counts() -> dict:
    out = {}
    for spec, n in workloads.BRUTE_SPECS:
        G = cc.make_group(spec)
        comm, reps, cent = oracle_tables(G)
        f_n = per_class(G, oracle_f(comm, n), reps)
        t3 = per_class(G, oracle_t3(comm, cent), reps)
        checks = [
            (f_n, cc.brute_f_n(G, n, budget=10**10).values),
            (t3, cc.brute_t_n(G, 3).values),
        ]
        if G.family == "dihedral":
            checks += [(f_n, cc.f3_class_counts_closed(G).values),
                       (t3, cc.t3_class_counts_closed(G).values)]
        for want, got in checks:
            if list(got) != want:
                raise SystemExit(f"{spec}: oracle {want} disagrees with commcount {list(got)}")
        out[workloads.golden_key("f", n, spec)] = f_n
        out[workloads.golden_key("t", 3, spec)] = t3
        print(f"{spec}: f{n} and t3 agree", file=sys.stderr)
    return out


def cli_outputs() -> list[dict]:
    out = []
    for argv in CLI_COMMANDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {code}")
        out.append({"argv": argv, "stdout": buf.getvalue()})
    return out


def main() -> int:
    golden = {"counts": brute_oracle_counts(), "cli": cli_outputs()}
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
