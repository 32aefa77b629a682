"""Run one bsgx benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wide-q --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload wide-q --seed 1 --seconds 20 --trace 1

Run from the root of a checkout; bsgx is imported from its src/ directory.
--trace 0 prints the end-to-end metrics.  --trace 1 runs the jobs untraced in
one fresh worker, replays them with spans in another, and prints the
per-layer metrics and the tracing overhead.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when every
job's output passed every check.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

WORKLOADS = ("popular-p", "wide-q", "certify")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20260917  # kept out of tuning; re-check later claims on it
SETUP_PROBES = 10  # extra fresh workers that only set up; set-up is their median
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "extract_jobs_per_s": "jobs/s",
    "job_s.geomean": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith("rss_hwm_delta_mb"):
        return "MB"
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    if name.endswith("gemm_flop"):
        return "flop"
    if name.endswith("gflop_per_s"):
        return "GFLOP/s"
    if name.endswith("kept_ratio") or name == "trace_overhead_frac":
        return "ratio"
    return "count"


def spawn(args, extra, deadline) -> tuple:
    """Start a fresh worker; returns (its result, seconds from start to ready)."""
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--scale", "toy" if args.toy else "full",
    ] + extra
    started = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - started),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - started


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0, help="seconds of jobs per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="toy input sizes, for selftest.py")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "bsgx" / "__init__.py").is_file():
        print(f"run.py: no bsgx sources under {ROOT / 'src'}; run from a bsgx checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}"

    try:
        setups = []
        warmups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe, setup_s = spawn(args, ["--setup-only"], deadline)
                setups.append(setup_s)
                warmups.append(probe["warmup"])
        res, setup_s = spawn(args, [], deadline)
        setups.append(setup_s)
        warmups.append(res["warmup"])
        traced_jobs = []
        if args.trace:
            traced, _ = spawn(args, ["--traced-jobs", str(len(res["jobs"]))], deadline)
            warmups.append(traced["warmup"])
            traced_jobs = traced["jobs"]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    jobs = res["jobs"]
    for plain, replayed in zip(jobs, traced_jobs):
        if "digest" in replayed and replayed["digest"] != plain.get("digest"):
            replayed["failed"].append("traced report bytes differ from the untraced run's")
    ops = warmups + jobs + traced_jobs
    failures = [(op["label"], op["failed"]) for op in ops if op["failed"]]
    timed = [j for j in jobs if "job_s" in j]
    if not timed:  # every job raised: no metric, but the failures still count
        metrics, units = {}, {}
    elif args.trace:
        metrics = dict(traced["layers"])
        metrics["trace_overhead_frac"] = (
            sum(j.get("job_s", 0.0) for j in traced_jobs) / sum(j["job_s"] for j in timed) - 1.0
        )
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "extract_jobs_per_s": len(timed) / sum(j["extract_s"] for j in timed),
            # a geometric mean, not a median: a certify run mixes jobs of
            # 0.2 s to 4 s, and its median falls between two job sizes; over
            # ten seeds the median spread 0.28 where the geometric mean spread 0.15
            "job_s.geomean": math.exp(statistics.fmean(math.log(j["job_s"]) for j in timed)),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END_UNITS

    for label, reasons in failures:
        print(f"FAILED {label}: {'; '.join(reasons)}")
    print(f"machine {json.dumps(res['machine'], sort_keys=True)}")
    print(f"generation_s {res['gen_s']:.4f} (input generation, outside every metric)")
    print(f"jobs {len(jobs)} (closed loop, one caller, threads=1), setup samples {len(setups)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"ops_failed_frac {len(failures) / len(ops):.6g} ({len(failures)} failed / {len(ops)} attempted)")

    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "machine": res["machine"], "setup_s_samples": setups, "jobs": jobs,
                   "traced_jobs": traced_jobs, "generation_s": res["gen_s"]}, fh, indent=1)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
