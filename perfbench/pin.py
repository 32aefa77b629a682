"""Regenerate digests.json, the SHA-256 of every report the benchmark can produce.

    python3 perfbench/pin.py

Run from the root of a checkout.  Every (workload, scale, slot, variant)
instance is extracted once, and the file is rewritten from their digests.
Nothing is written unless every report's own checks pass and every job takes
the branch and counting path its workload expects.  Report bytes are meant to stay fixed across refactors, so a changed
digest is a finding to explain, not a file to refresh.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import time

from worker import DIGESTS, assess, run_job  # first: puts the checkout's src on sys.path
from tracing import NullTracer
from workloads import SCALES, VARIANTS, WORKLOADS, instance


def main() -> int:
    digests = {}
    bad = 0
    for wl in WORKLOADS.values():
        for scale in SCALES:
            for slot in range(wl.slots):
                for variant in range(VARIANTS):
                    for job in instance(wl, slot, variant, scale):
                        # the oracle is not needed to pin bytes; the benchmark runs it
                        job = dataclasses.replace(job, verify=False)
                        a_set, out, _, extract_s, _ = run_job(job, NullTracer())
                        reasons = assess(job, a_set, out, None, None)
                        digest = hashlib.sha256(out).hexdigest()
                        if digests.setdefault(job.label, digest) != digest:
                            reasons.append("label reused for different bytes")
                        bad += bool(reasons)
                        print(f"{wl.name} {scale} {slot} {variant} {extract_s:.3f}s "
                              f"n={json.loads(out)['input']['n']} {job.label} {'; '.join(reasons)}", flush=True)
    if bad:
        print(f"pin.py: {bad} jobs failed; {DIGESTS.name} left unchanged", file=sys.stderr)
        return 1
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    t0 = time.perf_counter()
    code = main()
    print(f"pin.py: {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    sys.exit(code)
