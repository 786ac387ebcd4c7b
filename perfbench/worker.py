"""Run one batch of benchmark jobs in a fresh interpreter.

Reads ``{"trace": bool, "tmpdir": path, "jobs": [...]}`` as JSON on stdin
and writes one JSON object on stdout: each job's seconds and verdict, the
batch's exact work counts, its peak RSS, the library versions and, when
tracing, the spans.

A job's timed part calls public commcount functions only, each through
``Tracer.call``.  Its check runs afterwards, outside the timing, against an
independent path: the brute oracle for character results, the dihedral
closed forms, naive against brute, the expected values handed in with the
job, a ``pcomm`` re-check for triples and byte-exact stdout for CLI calls.

Before each job the worker collects garbage and trims the heap, so jobs
start alike whatever ran before them, and throughout the batch it samples
the machine's speed (``SpeedSampler``) so the parent can scale job times.
"""
from __future__ import annotations

import bisect
import contextlib
import ctypes
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from array import array
from fractions import Fraction

import numpy

import commcount as cc
from commcount import cli
from commcount.chars import table_to_document
from commcount.counts import DEFAULT_BUDGET
from commcount.fileio import ClassRow, CountReport
from commcount.perms import pcomm

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import speed  # noqa: E402

# Large enough for every brute-oracle job; the default budget refuses some
# of them, which the batch counts without running them that way.
EXPLICIT_BUDGET = 10**10

_LIBC = ctypes.CDLL(None)  # the C library the interpreter links (glibc)
_LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
_LIBC.malloc_trim.restype = ctypes.c_int

COUNT_KEYS = (
    "jobs",
    "groups.elements",
    "groups.classes",
    "groups.table_bytes",
    "chars.table_coeffs",
    "counts.brute_projected_ops",
    "counts.budget_refusals",
    "triples.solved",
    "cli.stdout_bytes",
)


class Tracer:
    """Spans around the benchmark's calls into commcount, kept in memory.

    A span is [name, start, end, parent span index or None, job id].  With
    tracing off, ``call`` only calls.
    """

    def __init__(self, on: bool):
        self.on = on
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()


def _note_group(G, counts) -> None:
    counts["groups.elements"] += G.order
    counts["groups.classes"] += len(cc.conjugacy_classes(G))
    counts["groups.table_bytes"] += 4 * G.order * G.order


def _note_table(T, counts) -> None:
    exponent = math.lcm(*T.group.element_orders())
    phi = sum(1 for j in range(1, exponent + 1) if math.gcd(j, exponent) == 1)
    counts["chars.table_coeffs"] += len(T) ** 2 * phi


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got}, want {want}")


# -- char-formula ----------------------------------------------------------------


def run_char(job, tr, tmpdir):
    # f3_coeffs is checked through f3_from_characters, which expands f3 in
    # the same coefficients.
    G = tr.call("groups.make_group", cc.make_group, job["spec"])
    T = tr.call("chars.build_table", cc.build_table, G)
    # A probe of the traced run only; run.PROBE_SPANS keeps it out of wall time.
    report = tr.call("chars.validate_table", cc.validate_table, T) if tr.on else None
    tr.call("counts.f3_coeffs", cc.f3_coeffs, G, T)
    f2 = tr.call("counts.f2_from_characters", cc.f2_from_characters, G, T)
    f3 = tr.call("counts.f3_from_characters", cc.f3_from_characters, G, T)
    t3 = tr.call("counts.t_from_characters", cc.t_from_characters, G, 3, T)
    return G, T, report, f2, f3, t3


def check_char(job, out, counts):
    G, T, report, f2, f3, t3 = out
    problems = []
    if report is not None and not report.passed:
        problems.append(f"validate_table failed: {report.failures()}")
    _expect(problems, "f2 vs brute", f2.values, cc.brute_f_n(G, 2).values)
    _expect(problems, "f3 vs brute", f3.values, cc.brute_f_n(G, 3).values)
    _expect(problems, "t3 vs brute", t3.values, cc.brute_t_n(G, 3).values)
    _note_group(G, counts)
    _note_table(T, counts)
    return problems


# -- brute-oracle ------------------------------------------------------------------


def _group_with_structure(job, tr):
    G = tr.call("groups.make_group", cc.make_group, job["spec"])
    tr.call("groups.conjugacy_classes", cc.conjugacy_classes, G)
    tr.call("groups.centralizer_lists", G.centralizer_lists)
    tr.call("groups.comm_table", G.comm_table)
    tr.call("groups.center_and_derived", cc.center_and_derived, G)
    return G


def _count_runner(name, fn):
    def run(job, tr, tmpdir):
        G = _group_with_structure(job, tr)
        return G, tr.call(name, fn, G, job["n"], budget=EXPLICIT_BUDGET)

    return run


def _projected(fn, G, n: int) -> int:
    """The search's own cost projection, read from its refusal at budget 0."""
    try:
        fn(G, n, budget=0)
    except cc.BudgetExceededError as e:
        return e.projected
    raise RuntimeError(f"{fn.__name__} ran under a zero budget")


def _count_checker(fn, closed=None, reference=None):
    def check(job, out, counts):
        G, got = out
        problems = []
        _expect(problems, "values vs expected", list(got.values), job["expect"])
        if closed is not None and G.family == "dihedral" and job["n"] == 3:
            _expect(problems, "values vs closed form", got.values, closed(G).values)
        if reference is not None:
            _expect(problems, "values vs reference search", got.values,
                    reference(G, job["n"], budget=EXPLICIT_BUDGET).values)
        projected = _projected(fn, G, job["n"])
        counts["counts.brute_projected_ops"] += projected
        counts["counts.budget_refusals"] += projected > DEFAULT_BUDGET
        _note_group(G, counts)
        return problems

    return check


def check_recursive(job, out, counts):
    G, got = out
    problems = []
    _expect(problems, "f_n(1) vs expected", got, job["expect"])
    if G.family == "dihedral" and job["n"] == 3:
        _expect(problems, "f_3(1) vs closed form", got,
                cc.f3_class_counts_closed(G).values[0])
    _note_group(G, counts)
    return problems


# -- cli-analysis ------------------------------------------------------------------


def run_bounds(job, tr, tmpdir):
    G = tr.call("groups.make_group", cc.make_group, job["spec"])
    return G, tr.call("distributions.bounds_report", cc.bounds_report, G)


def check_bounds(job, out, counts):
    G, rep = out
    n = G.order
    problems = []
    if not rep.records or not rep.all_hold:
        problems.append(f"bound records missing or failing: {rep.failures()}")
    central = sum(all(G.m(x, y) == G.m(y, x) for y in range(n)) for x in range(n))
    _expect(problems, "alpha", rep.alpha, Fraction(central, n))
    _expect(problems, "P2(1)", rep.p2_1, Fraction(cc.brute_f_n(G, 2).values[0], n**2))
    _expect(problems, "P3(1)", rep.p3_1, Fraction(cc.brute_f_n(G, 3).values[0], n**3))
    _note_group(G, counts)
    return problems


def run_dist(job, tr, tmpdir):
    G = tr.call("groups.make_group", cc.make_group, job["spec"])
    f3 = tr.call("counts.brute_f_n", cc.brute_f_n, G, 3)
    q = tr.call("distributions.q3", cc.q3, f3)
    d = tr.call("distributions.convolve_power", cc.convolve_power, q, job["k"])
    l1 = tr.call("distributions.l1_to_uniform", cc.l1_to_uniform, d)
    sat = tr.call("distributions.first_saturating_k", cc.first_saturating_k, q)
    return G, f3, d, l1, sat


def check_dist(job, out, counts):
    G, f3, d, l1, sat = out
    n, k = G.order, job["k"]
    problems = []
    oracle = cc.f3_class_counts_closed if G.family == "dihedral" else cc.naive_f_n
    want = oracle(G) if oracle is cc.f3_class_counts_closed else oracle(G, 3)
    _expect(problems, "f3 vs independent oracle", f3.values, want.values)
    # Integer convolution of the per-element f3 counts: d = conv^k / total^k.
    base = [f3.at(g) for g in range(n)]
    total = sum(base)
    conv = [1] + [0] * (n - 1)
    for _ in range(k):
        nxt = [0] * n
        for h, a in enumerate(conv):
            if a:
                for x, b in enumerate(base):
                    if b:
                        nxt[G.m(h, x)] += a * b
        conv = nxt
    scale = total**k
    if any(d.at(g) * scale != conv[g] for g in range(n)):
        problems.append("convolve_power disagrees with integer convolution")
    _expect(problems, "l1 * n * total^k", l1 * n * scale,
            sum(abs(n * c - scale) for c in conv))
    support = {g for g in range(n) if base[g]}
    reach, want_sat = set(support), None
    for step in range(1, 31):
        if len(reach) == n:
            want_sat = step
            break
        reach = {G.m(a, b) for a in reach for b in support}
    _expect(problems, "first saturating k", sat, want_sat)
    _note_group(G, counts)
    return problems


def run_ore(job, tr, tmpdir):
    G = tr.call("groups.make_group", cc.make_group, job["spec"])
    return G, tr.call("counts.ore_set", cc.ore_set, G, job["n"])


def check_ore(job, out, counts):
    G, got = out
    problems = []
    _expect(problems, "ore set vs brute support", got, cc.brute_f_n(G, job["n"]).support())
    _note_group(G, counts)
    return problems


def run_triple(job, tr, tmpdir):
    return tr.call("triples.ore_triple_symmetric", cc.ore_triple_symmetric,
                   job["n"], tuple(job["target"]))


def check_triple(job, out, counts):
    x1, x2, x3 = out
    g = tuple(job["target"])
    problems = []
    for name, a, b in (("[x1,x2]", x1, x2), ("[x1,x3]", x1, x3), ("[x2,x3]", x2, x3)):
        _expect(problems, name, pcomm(a, b), g)
    counts["triples.solved"] += not problems
    return problems


def run_fileio(job, tr, tmpdir):
    G = tr.call("groups.make_group", cc.make_group, job["spec"])
    T = tr.call("chars.build_table", cc.build_table, G)
    f3 = tr.call("counts.brute_f_n", cc.brute_f_n, G, 3)
    part = cc.conjugacy_classes(G)
    orders = G.element_orders()
    report = CountReport(G.spec, "f", 3, "brute", tuple(
        ClassRow(G.names[r], orders[r], part.sizes[c], str(f3.values[c]))
        for c, r in enumerate(part.reps)
    ))
    paths = [os.path.join(tmpdir, name) for name in ("group.json", "table.json", "report.json")]
    tr.call("fileio.save_group", cc.save_group, G, paths[0])
    tr.call("fileio.save_chartable", cc.save_chartable, T, paths[1])
    tr.call("fileio.save_report", cc.save_report, report, paths[2])
    G2 = tr.call("fileio.load_group", cc.load_group, paths[0])
    T2 = tr.call("fileio.load_chartable", cc.load_chartable, paths[1], G2)
    report2 = tr.call("fileio.load_report", cc.load_report, paths[2])
    return G, T, report, G2, T2, report2


def check_fileio(job, out, counts):
    G, T, report, G2, T2, report2 = out
    problems = []
    _expect(problems, "group table", [list(r) for r in G2.mul], [list(r) for r in G.mul])
    _expect(problems, "group names", G2.names, G.names)
    _expect(problems, "character table", table_to_document(T2), table_to_document(T))
    _expect(problems, "count report", report2, report)
    _note_group(G, counts)
    _note_table(T, counts)
    _note_table(T2, counts)
    return problems


def run_cli(job, tr, tmpdir):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tr.call(job["span"], cli.main, list(job["argv"]))
    return code, buf.getvalue()


def check_cli(job, out, counts):
    code, text = out
    problems = []
    _expect(problems, "exit code", code, 0)
    if text != job["expect"]:
        problems.append(f"stdout differs from golden ({len(text)} vs "
                        f"{len(job['expect'])} characters)")
    counts["cli.stdout_bytes"] += len(text.encode())
    return problems


OPS = {
    "char": (run_char, check_char),
    "brute_f_n": (_count_runner("counts.brute_f_n", cc.brute_f_n),
                  _count_checker(cc.brute_f_n, cc.f3_class_counts_closed)),
    "naive_f_n": (_count_runner("counts.naive_f_n", cc.naive_f_n),
                  _count_checker(cc.naive_f_n, cc.f3_class_counts_closed, cc.brute_f_n)),
    "brute_t_n": (_count_runner("counts.brute_t_n", cc.brute_t_n),
                  _count_checker(cc.brute_t_n)),
    "recursive_fn1": (_count_runner("counts.recursive_fn1", cc.recursive_fn1),
                      check_recursive),
    "bounds": (run_bounds, check_bounds),
    "dist": (run_dist, check_dist),
    "ore": (run_ore, check_ore),
    "triple": (run_triple, check_triple),
    "fileio": (run_fileio, check_fileio),
    "cli": (run_cli, check_cli),
}


def run_job(job, tr: Tracer, counts: dict, tmpdir: str) -> dict:
    run, check = OPS[job["op"]]
    tr.job = job["id"]
    counts["jobs"] += 1
    t0 = time.perf_counter()
    try:
        if tr.on:
            with tr.span("job"):
                out = run(job, tr, tmpdir)
        else:
            out = run(job, tr, tmpdir)
    except Exception as e:  # a job that raises is a failed job, not a crash
        return {"id": job["id"], "start": t0, "seconds": time.perf_counter() - t0,
                "ok": False, "error": f"{type(e).__name__}: {e}"}
    seconds = time.perf_counter() - t0
    try:
        problems = check(job, out, counts)
    except Exception as e:  # so is one whose check cannot complete
        problems = [f"check raised {type(e).__name__}: {e}"]
    return {"id": job["id"], "start": t0, "seconds": seconds, "ok": not problems,
            "error": "; ".join(problems)}


class SpeedSampler:
    """Every INTERVAL_S, a SIGALRM handler, which the interpreter runs in
    this same thread between bytecodes, times the speed probe (speed.py).
    A job's mean probe time over its interval tells how fast the machine
    ran during it.
    """

    INTERVAL_S = 0.02
    MARGIN_S = 0.25  # widens a short job's window to enough samples

    def __init__(self):
        # Raw doubles: a float object kept from inside a job would pin that
        # job's memory arena and keep its peak RSS after it ends.
        self.stamps = array("d")
        self.durations = array("d")

    def _sample(self, signum, frame):
        t0, seconds = speed.probe()
        self.stamps.append(t0)
        self.durations.append(seconds)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_probe(self, t0: float, t1: float) -> float:
        """Mean probe seconds over [t0, t1], widened by MARGIN_S; single
        probes above four times the median (an interrupt, a page fault) are
        clipped."""
        lo = bisect.bisect_left(self.stamps, t0 - self.MARGIN_S)
        hi = bisect.bisect_right(self.stamps, t1 + self.MARGIN_S)
        window = self.durations[lo:hi] or self.durations
        cap = 4 * statistics.median(self.durations)
        return sum(min(d, cap) for d in window) / len(window)


def main() -> int:
    batch = json.load(sys.stdin)
    tr = Tracer(bool(batch["trace"]))
    counts = dict.fromkeys(COUNT_KEYS, 0)
    tmpdir = batch["tmpdir"]
    os.makedirs(tmpdir, exist_ok=True)
    try:
        results = []
        with SpeedSampler() as sampler:
            for job in batch["jobs"]:
                # Free the last job's reference cycles (a group and its
                # subgroups) and hand its freed pages back to the OS, so
                # that every job starts from the same heap and neither its
                # time nor the peak RSS depends on the job order.
                gc.collect()
                _LIBC.malloc_trim(0)
                results.append(run_job(job, tr, counts, tmpdir))
        for r in results:
            r["probe_s"] = sampler.mean_probe(r["start"], r["start"] + r["seconds"])
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    out = {
        "jobs": results,
        "counts": counts,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probe_median_s": statistics.median(sampler.durations),
        "spans": tr.spans,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__},
    }
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
