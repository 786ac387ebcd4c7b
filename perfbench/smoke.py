"""Smoke check of the benchmark.

    python3 perfbench/smoke.py

Run from the repository root; takes a few minutes and exits 0 when every
check passes.  It checks that:

* a short pass (one batch) of each workload, traced and untraced, succeeds
  and emits exactly the metrics BENCHMARK.json names, each with its unit;
* the correctness gate trips, with a non-zero exit, when an expected value
  is deliberately corrupted: one brute-oracle count and one CLI stdout;
* in a directory holding only BENCHMARK.json and the benchmark, the run
  exits non-zero without printing a result.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def bench_cmd(spec: dict, workload: str, trace: int) -> list[str]:
    return [*spec["command"], "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace)]


def short_passes(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(bench_cmd(spec, w["name"], trace),
                                  cwd=run.ROOT, capture_output=True, text=True, timeout=180)
            label = f"{w['name']} --trace {trace}"
            check(proc.returncode == 0, f"{label}: exit code {proc.returncode}")
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:])
                continue
            result = last_json(proc.stdout)
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{label}: result keys")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, f"{label}: all jobs correct")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{label}: every {section} metric with its unit")
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  f"{label}: numeric values")


def _corrupt_count(golden: dict) -> None:
    golden["counts"]["f3:symmetric:6"][1] += 1


def _corrupt_cli(golden: dict) -> None:
    golden["cli"][0]["stdout"] = golden["cli"][0]["stdout"].replace("1", "2", 1)


def corrupted_gate() -> None:
    golden = json.loads(run.GOLDEN.read_text(encoding="utf-8"))
    run.TMP_DIR.mkdir(exist_ok=True)
    saved = run.GOLDEN
    for workload, corrupt in (("brute-oracle", _corrupt_count), ("cli-analysis", _corrupt_cli)):
        bad = copy.deepcopy(golden)
        corrupt(bad)
        path = run.TMP_DIR / f"golden-corrupt-{workload}.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        run.GOLDEN = path
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = run.main(["--workload", workload, "--seed", "0", "--seconds", "1"])
        finally:
            run.GOLDEN = saved
            path.unlink()
        result = last_json(buf.getvalue())
        check(code != 0 and result["correct"] is False and result["failed"] >= 1,
              f"{workload}: gate trips on a corrupted expected value "
              f"(exit {code}, failed {result['failed']})")


def bare_directory(spec: dict) -> None:
    bare = run.TMP_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(run.ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(run.ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(bench_cmd(spec, spec["workloads"][0]["name"], 0),
                              cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"bare directory: exit {proc.returncode} and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    short_passes(spec)
    corrupted_gate()
    bare_directory(spec)
    print(f"{len(FAILURES)} smoke check(s) failed" if FAILURES else "all smoke checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
