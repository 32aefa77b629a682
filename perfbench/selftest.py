"""Self-test of the benchmark at toy sizes (about 30 seconds).

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that each workload's job stream
is a pure function of its seed, that run.py emits exactly the metric names
and units BENCHMARK.json lists, in both modes, that a tampered report counts
as a failed operation, and that run.py fails without printing a result when
the bsgx sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from worker import assess, load_pinned, run_job  # first: puts the checkout's src on sys.path
from bsgx.oracle import verify_report_dict
import run
from run import HERE, OUT, ROOT
from tracing import NullTracer
from workloads import WORKLOADS, job_stream

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def first_jobs(wl, seed, count):
    stream = job_stream(wl, seed, "toy")
    return [next(stream) for _ in range(count)]


def check_determinism(fail):
    for wl in WORKLOADS.values():
        count = 2 * wl.block
        if first_jobs(wl, 7, count) != first_jobs(wl, 7, count):
            fail(f"{wl.name}: seed 7 gave two different job streams")
        if [j.label for j in first_jobs(wl, 7, count)] == [j.label for j in first_jobs(wl, 8, count)]:
            fail(f"{wl.name}: seeds 7 and 8 gave the same jobs")


def check_metric_names(fail):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    if not sorted(names) == sorted(run.WORKLOADS) == sorted(WORKLOADS):
        fail(f"workloads differ: BENCHMARK.json {names}, run.py {run.WORKLOADS}, workloads.py {sorted(WORKLOADS)}")
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
                   "--seconds", "0.5", "--trace", str(trace), "--toy"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
            where = f"{name} --trace {trace}"
            if proc.returncode != 0:
                fail(f"{where}: exit code {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS or not result["correct"] or result["failed"]:
                fail(f"{where}: bad result {result}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                fail(f"{where}: metrics {sorted(got.items())} != BENCHMARK.json {sorted(want[trace].items())}")


def check_tampering(fail):
    pinned = load_pinned()
    job = next(job for job in first_jobs(WORKLOADS["certify"], 3, 4) if not job.codec)
    a_set, out, verdict, _, _ = run_job(job, NullTracer())
    if assess(job, a_set, out, verdict, pinned):
        fail("the untampered certify job does not pass")
    report = json.loads(out)
    report["achieved"]["diff_size"] += 1
    wrong_size = json.dumps(report, indent=2).encode() + b"\n"
    report = json.loads(out)
    report["checks"][0]["pass"] = False
    failed_check = json.dumps(report, indent=2).encode() + b"\n"
    for what, bad in (("extra byte", out + b" "), ("diff_size + 1", wrong_size), ("failed check", failed_check)):
        if not assess(job, a_set, bad, verify_report_dict(a_set, json.loads(bad)), pinned):
            fail(f"tampered report ({what}) was not counted as failed")


def check_bare_directory(fail):
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "certify", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, stdout=subprocess.PIPE, text=True, timeout=170)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"without bsgx sources run.py exited {proc.returncode} and printed {proc.stdout!r}")


def main() -> int:
    problems = []
    OUT.mkdir(exist_ok=True)
    for check in (check_determinism, check_tampering, check_bare_directory, check_metric_names):
        before = len(problems)
        check(problems.append)
        print(f"{check.__name__}: {'ok' if len(problems) == before else 'FAILED'}", flush=True)
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
