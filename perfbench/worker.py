"""One benchmark worker process: set up, run a closed loop of jobs, report.

run.py starts this file in a fresh interpreter, so that set-up time (import
bsgx with numpy and OpenBLAS, then one untimed warm-up job) and peak RSS
belong to a process that did nothing else.  It prints one JSON line.

A job is parse_set -> bsg.extract -> ExtractionReport.to_json bytes and, on
workloads that verify, verify_report_dict on those bytes.  One caller runs
jobs back to back (a closed loop) at the library default threads=1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bsgx.bsg as bsg  # noqa: E402  (set-up time includes importing bsgx)
from bsgx._codec import build_codec  # noqa: E402
from bsgx.groups import parse_set  # noqa: E402
from bsgx.oracle import verify_report_dict  # noqa: E402

from tracing import REP, NullTracer, Tracer, rss_hwm_mb  # noqa: E402
from workloads import WORKLOADS, Job, job_stream  # noqa: E402

DIGESTS = HERE / "digests.json"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def run_job(job: Job, tracer):
    """Run one job; returns the parsed set, report bytes, verdict and timings."""
    t0 = time.perf_counter()
    with tracer.span("groups.parse_set"):
        a_set = parse_set(job.aset)
    with tracer.span("bsg.extract"):
        report = bsg.extract(a_set, bsg.Params(eps=job.eps))
    with tracer.span("bsg.to_json"):
        out = report.to_json().encode("utf-8")
    t1 = time.perf_counter()
    verdict = None
    if job.verify:
        with tracer.span("oracle.verify_report_dict"):
            verdict = verify_report_dict(a_set, json.loads(out))
    t2 = time.perf_counter()
    return a_set, out, verdict, t1 - t0, t2 - t0


def assess(job: Job, a_set, out: bytes, verdict, pinned) -> list:
    """Every reason the job's output is wrong; empty when it is correct.

    pinned=None skips the digest comparison (used only while pinning).
    """
    reasons = []
    try:
        report = json.loads(out)
        checks = report["checks"]
        case = report["case"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report unreadable: {exc}"]
    if not checks or not all(c.get("pass") is True for c in checks):
        reasons.append("a report check does not pass")
    if pinned is not None:
        digest = hashlib.sha256(out).hexdigest()
        if pinned.get(job.label) != digest:
            reasons.append(f"sha256 {digest} differs from the pinned {pinned.get(job.label)}")
    if case != job.case:
        reasons.append(f"branch {case}, expected {job.case}")
    if (build_codec(a_set) is not None) != job.codec:
        reasons.append(f"codec path {'dict' if job.codec else 'codec'}, expected the other")
    if job.verify and (verdict is None or not verdict.ok):
        reasons.append("verify_report_dict not ok")
    return reasons


def execute(job: Job, tracer, pinned) -> dict:
    """Run and assess one job; an exception counts as a failed job."""
    try:
        a_set, out, verdict, extract_s, job_s = run_job(job, tracer)
    except Exception:  # a job boundary: record the failure and go on
        traceback.print_exc(file=sys.stderr)
        return {"label": job.label, "failed": ["exception, traceback on stderr"]}
    return {
        "label": job.label,
        "extract_s": extract_s,
        "job_s": job_s,
        "digest": hashlib.sha256(out).hexdigest(),
        "failed": assess(job, a_set, out, verdict, pinned),
    }


def load_pinned() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // (1 << 20),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "threads": 1,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--scale", choices=("full", "toy"), required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--traced-jobs", type=int, help="replay this many jobs with spans on")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    pinned = load_pinned()

    # untimed warm-up: the workload's first toy job, as a CLI user pays one job;
    # set-up ends at "ready", which leaves out the warm-up's input generation
    t = time.perf_counter()
    warm_job = next(job_stream(wl, 0, "toy"))
    warm_gen_s = time.perf_counter() - t
    warm = execute(warm_job, NullTracer(), pinned)
    ready = time.monotonic() - warm_gen_s
    if args.setup_only:
        print(json.dumps({"ready": ready, "warmup": warm}))
        return 0

    # a traced replay runs in a fresh process of its own, so that its spans
    # see the RSS high-water mark rise as the untraced run's did
    tracer = Tracer() if args.traced_jobs else NullTracer()
    stream = job_stream(wl, args.seed, args.scale)
    records = []
    gen_s = 0.0
    # the loop's clock counts generation and failed jobs too, so that a run
    # of failing jobs still ends after its seconds
    started = time.perf_counter()
    with tracer.installed():
        while (
            len(records) < args.traced_jobs
            if args.traced_jobs
            else time.perf_counter() - started < args.seconds or len(records) % wl.block
        ):
            t = time.perf_counter()
            job = next(stream)
            gen_s += time.perf_counter() - t
            tracer.job = len(records)
            records.append(execute(job, tracer, pinned))
            records[-1]["rss_hwm_mb"] = rss_hwm_mb()
            if args.traced_jobs and "digest" in records[-1]:
                flags = {s.attrs["dict"] for s in tracer.spans if s.job == tracer.job and s.name == REP}
                if flags != {not job.codec}:
                    records[-1]["failed"].append(f"traced RepTable.codec-is-None flags {sorted(flags)}")

    result = {
        "ready": ready,
        "warmup": warm,
        "gen_s": gen_s,
        # after the first block, which every run completes: a fixed mix of
        # jobs, so the figure does not depend on how many blocks a run fits
        "peak_rss_mb": records[wl.block - 1]["rss_hwm_mb"],
        "jobs": records,
        "machine": machine(),
    }
    if args.traced_jobs:
        result["layers"] = tracer.layer_metrics(len(records))
        tracer.write(HERE / "out" / f"spans-{args.workload}-seed{args.seed}-{args.scale}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
