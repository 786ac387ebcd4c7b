"""Cold, layer-traced benchmark of commcount.

    python3 perfbench/run.py --workload char-formula --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each batch of jobs runs in a fresh
interpreter (``worker.py``), so every cache starts empty; batches repeat,
one at a time, until the next one would overrun ``--seconds``.  One client,
one process, one thread, closed loop.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (interpreter
start plus ``import commcount``, median of samples taken between batches),
``wall_s`` (sum over jobs of each job's median time over the batches) and
``slowest_job_s`` (the largest of those medians), all three scaled to a
reference machine speed (see speed.py), and ``peak_rss_mb`` (the worker's
``ru_maxrss``, median over batches).  ``--trace 1`` alternates
untraced and traced batches and reports per-layer self times derived from
the spans, the exact work counts and ``trace_overhead_s``.

Every job is checked against an independent path.  A failed job, or work
counts that differ between batches or runs of the same seed and source,
makes the run exit 1.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full,
stamped record goes to ``.bench_out/`` in the repository root.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp"
GOLDEN = HERE / "golden.json"

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES_PER_BATCH = 5
WORKER_TIMEOUT_S = 170

# Per-layer time metrics (seconds) and the span names whose self time each
# sums; then the exact counts and their units.
LAYER_SPANS = {
    "groups.make_group_s": ("groups.make_group",),
    "groups.structure_s": ("groups.conjugacy_classes", "groups.centralizer_lists",
                           "groups.comm_table", "groups.center_and_derived"),
    "chars.build_table_s": ("chars.build_table",),
    "chars.validate_table_s": ("chars.validate_table",),
    "counts.f3_coeffs_s": ("counts.f3_coeffs",),
    "counts.character_formula_s": ("counts.f2_from_characters",
                                   "counts.f3_from_characters",
                                   "counts.t_from_characters"),
    "counts.brute_f_n_s": ("counts.brute_f_n",),
    "counts.naive_f_n_s": ("counts.naive_f_n",),
    "counts.brute_t_n_s": ("counts.brute_t_n",),
    "counts.recursive_fn1_s": ("counts.recursive_fn1",),
    "counts.ore_set_s": ("counts.ore_set",),
    "distributions.bounds_report_s": ("distributions.bounds_report",),
    "distributions.convolve_s": ("distributions.q3", "distributions.convolve_power",
                                 "distributions.first_saturating_k",
                                 "distributions.l1_to_uniform"),
    "triples.solve_s": ("triples.ore_triple_symmetric",),
    "fileio.save_s": ("fileio.save_group", "fileio.save_chartable", "fileio.save_report"),
    "fileio.load_s": ("fileio.load_group", "fileio.load_chartable", "fileio.load_report"),
    "verify.paper_suite_s": ("verify.paper_suite",),
    "cli.main_s": ("cli.main",),
}
LAYER_COUNTS = {
    "groups.elements": "count",
    "groups.table_bytes": "bytes",
    "chars.table_coeffs": "count",
    "counts.brute_projected_ops": "count",
    "counts.budget_refusals": "count",
    "triples.solved": "count",
    "cli.stdout_bytes": "bytes",
}
# Spans of calls only a traced batch makes (see worker.run_char); they are
# left out of its wall time so that trace_overhead_s measures tracing alone.
PROBE_SPANS = ("chars.validate_table",)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "commcount" / "__init__.py").is_file():
        print(f"error: no commcount sources under {SRC}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    jobs = workloads.jobs_for(args.workload, args.seed, golden)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    setup: list[float] = []
    batches = _run_batches(jobs, args.seconds, args.trace, env, setup)
    untraced = [b for b in batches if not b["traced"]]
    traced = [b for b in batches if b["traced"]]

    attempted = sum(len(b["jobs"]) for b in batches)
    failures = [(j["id"], j["error"]) for b in batches for j in b["jobs"] if not j["ok"]]
    counts = batches[0]["counts"]
    problems = [f"job {jid} failed: {err}" for jid, err in failures]
    if any(b["counts"] != counts for b in batches):
        problems.append("work counts differ between batches of one seed")
    digest = _source_digest()
    problems += _check_counts_repeat(args.workload, args.seed, digest, counts)

    # Each job's raw times and mean probe times over the untraced batches.
    # Times are scaled to the reference speed (see speed.py), and per-job
    # medians resist the bursts of contention that one batch can catch.
    raw: dict[str, list[float]] = {}
    probe: dict[str, list[float]] = {}
    for b in untraced:
        for j in b["jobs"]:
            raw.setdefault(j["id"], []).append(j["seconds"])
            probe.setdefault(j["id"], []).append(j["probe_s"])
    raw_medians = [statistics.median(t) for t in raw.values()]
    norm_medians = [
        statistics.median(t * speed.PROBE_REFERENCE_S / p for t, p in zip(raw[jid], probe[jid]))
        for jid in raw
    ]
    if args.trace:
        metrics = _layer_metrics(traced, untraced, counts)
        _write_spans(args, traced)
    else:
        metrics = {
            # Start-up is not sampled by the probe; the run's median probe,
            # taken over the same stretch of time, scales it instead.
            "setup_s": (statistics.median(setup) * speed.PROBE_REFERENCE_S
                        / _median(untraced, lambda b: b["probe_median_s"]), "s"),
            "wall_s": (sum(norm_medians), "s"),
            "slowest_job_s": (max(norm_medians), "s"),
            "peak_rss_mb": (_median(untraced, lambda b: b["rss_kb"] / 1024), "MB"),
        }
    emitted = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": _stamp(batches[0]["versions"], digest),
        "batches": {"untraced": len(untraced), "traced": len(traced)},
        "setup_samples": len(setup),
        "metrics": emitted,
        "counts": counts,
        "fail_ratio": len(failures) / attempted,
        "problems": problems,
        "raw_setup_s": statistics.median(setup),
        "raw_wall_s": sum(raw_medians),
        "raw_slowest_job_s": max(raw_medians),
        "job_seconds": raw,
        "job_probe_s": probe,
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for line in problems:
        print(f"FAIL {line}")
    print("work counts: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"fail_ratio: {record['fail_ratio']} ({len(failures)} of {attempted} jobs)")
    print(f"raw setup_s: {record['raw_setup_s']:.6g} s, raw wall_s: {record['raw_wall_s']:.6g} s, "
          f"raw slowest_job_s: {record['raw_slowest_job_s']:.6g} s (not speed-scaled)")
    for k, (v, u) in metrics.items():
        print(f"{k}: {v if isinstance(v, int) else f'{v:.6g}'} {u}")
    print("stamp: " + json.dumps(record["stamp"]))
    ok = not problems
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": emitted,
    }))
    return 0 if ok else 1


def _parse_args(argv):
    p = argparse.ArgumentParser(description="cold, layer-traced commcount benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _sample_setup(env, count: int) -> list[float]:
    """Seconds to start an interpreter and import commcount, ``count``
    times."""
    cmd = [sys.executable, "-c", "import commcount"]
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - t0)
    return samples


def _run_batches(jobs, seconds, trace, env, setup: list[float]) -> list[dict]:
    """Closed loop: set-up samples, then one batch, until the next round
    would overrun ``seconds``.  The first round always runs; with tracing,
    batches alternate untraced and traced and at least one of each runs.
    Spreading the set-up samples over the run keeps one burst of contention
    from moving their median."""
    _sample_setup(env, 1)  # discarded: writes the bytecode caches
    batches = []
    last = {}  # traced flag -> duration of the latest such round
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(batches) % 2 == 1
        t0 = time.perf_counter()
        setup.extend(_sample_setup(env, SETUP_SAMPLES_PER_BATCH))
        batch = run_batch(jobs, traced, env)
        last[traced] = time.perf_counter() - t0
        batches.append(batch)
        if trace and len(batches) < 2:
            continue
        following = bool(trace) and len(batches) % 2 == 1
        projected = last.get(following, last[traced])
        if time.perf_counter() - start + projected > seconds:
            return batches


def run_batch(jobs, traced: bool, env) -> dict:
    """Run the jobs in one fresh worker interpreter and return its report."""
    tmpdir = TMP_DIR / str(os.getpid())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps({"trace": traced, "tmpdir": str(tmpdir), "jobs": jobs}),
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    batch = json.loads(proc.stdout.splitlines()[-1])
    batch["traced"] = traced
    return batch


def _wall(batch) -> float:
    """Speed-scaled sum of job times, less the probe calls that only a
    traced batch makes."""
    extra: dict[str, float] = {}
    for name, start, end, _, job in batch["spans"]:
        if name in PROBE_SPANS:
            extra[job] = extra.get(job, 0.0) + end - start
    return sum((j["seconds"] - extra.get(j["id"], 0.0)) * speed.PROBE_REFERENCE_S / j["probe_s"]
               for j in batch["jobs"])


def _median(batches, value) -> float:
    return statistics.median(value(b) for b in batches)


def self_times(spans) -> dict[str, float]:
    """Self time per span name: a span's duration minus its children's.
    Spans come from one thread, so children never overlap."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    out: dict[str, float] = {}
    for s, t in zip(spans, own):
        out[s[0]] = out.get(s[0], 0.0) + t
    return out


def _layer_metrics(traced, untraced, counts) -> dict:
    per_batch = [self_times(b["spans"]) for b in traced]
    metrics = {
        name: (statistics.median(sum(st.get(s, 0.0) for s in spans) for st in per_batch), "s")
        for name, spans in LAYER_SPANS.items()
    }
    metrics.update({name: (counts[name], unit) for name, unit in LAYER_COUNTS.items()})
    metrics["trace_overhead_s"] = (_median(traced, _wall) - _median(untraced, _wall), "s")
    return metrics


def _write_spans(args, traced) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    doc = {"fields": ["name", "start", "end", "parent", "job"],
           "batches": [b["spans"] for b in traced]}
    name = f"spans-{args.workload}-seed{args.seed}.json"
    (OUT_DIR / name).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "commcount").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _check_counts_repeat(workload, seed, digest, counts) -> list[str]:
    """Exact work counts must repeat across runs of one seed and source."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"counts-{workload}-seed{seed}-{digest[:16]}.json"
    if path.is_file():
        before = json.loads(path.read_text(encoding="utf-8"))
        if before != counts:
            return [f"work counts differ from an earlier run of seed {seed}: {before}"]
        return []
    path.write_text(json.dumps(counts) + "\n", encoding="utf-8")
    return []


def _stamp(versions, digest) -> dict:
    return {
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "src_sha256": digest,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _commit() -> str:
    """HEAD of a git checkout, read from .git without running git; a plain
    source tree has none, and the source digest identifies it instead."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text(encoding="utf-8").strip()
            for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
