"""Spans around the calls into each bsgx layer, recorded from outside.

The traced run replaces, in the benchmark's worker process only, the module
attributes through which bsgx.bsg.extract reaches each layer.  Each call
records a span (name, start, end, parent span, job id, sizes, and the
process's RSS high-water mark before and after).  Spans stay in memory and
are written once, when the run ends.  The library itself is not modified.
"""

from __future__ import annotations

import contextlib
import functools
import json
import resource
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

import bsgx.bsg as bsg
from bsgx.relation_lemma import Relation

REP = "additive_stats.rep_table"
RECOUNT = "bsg.recount"  # a rep_table span whose parent is extract_p or extract_q


def rss_hwm_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    job: int
    start: float
    hwm_before_mb: float
    end: float = 0.0
    hwm_after_mb: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: the same job code runs with no span bookkeeping."""

    job = -1

    def span(self, name: str):
        return contextlib.nullcontext()

    def installed(self):
        return contextlib.nullcontext(self)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self.job = -1

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        if name == REP and parent is not None and parent.name in ("bsg.extract_p", "bsg.extract_q"):
            name = RECOUNT
        s = Span(
            id=len(self.spans),
            name=name,
            parent=parent.id if parent else None,
            job=self.job,
            start=time.perf_counter(),
            hwm_before_mb=rss_hwm_mb(),
        )
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.hwm_after_mb = rss_hwm_mb()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable, describe: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                s.attrs.update(describe(args, out))
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer entry points that bsg.extract calls, then restore them."""
        patches = {
            "rep_table": (REP, lambda a, out: {"diff_size": len(out), "dict": out.codec is None}),
            "partition_pq": ("bsg.partition_pq", lambda a, out: {"q_size": out.q_size}),
            "extract_p": ("bsg.extract_p", lambda a, out: {"n": len(a[0]), "p_size": len(a[1].p_items)}),
            "extract_q": ("bsg.extract_q", lambda a, out: {}),
            "select_index_set": (
                "numeric_lemma.select_index_set",
                lambda a, out: {"weights": len(a[0]), "scan_steps": out.chosen_i - out.window_lo + 1},
            ),
            "extract_tv": (
                "relation_lemma.extract_tv",
                lambda a, out: {"n": len(a[0].base), "a_star": len(out.a_star), "a_prime": len(out.a_prime)},
            ),
        }
        saved = {attr: getattr(bsg, attr) for attr in patches}
        saved_rel = Relation.__dict__["from_difference_set"]
        relation_build = self._wrap(
            "relation_lemma.from_difference_set",
            saved_rel.__func__,
            lambda a, out: {"q_prime_size": len(a[2])},
        )
        try:
            for attr, (name, describe) in patches.items():
                setattr(bsg, attr, self._wrap(name, saved[attr], describe))
            Relation.from_difference_set = classmethod(relation_build)
            yield self
        finally:
            for attr, fn in saved.items():
                setattr(bsg, attr, fn)
            Relation.from_difference_set = saved_rel

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")

    def layer_metrics(self, jobs: int) -> Dict[str, float]:
        """Per-layer figures: seconds are per job, sizes are means per call."""
        child_s: Dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] = child_s.get(s.parent, 0.0) + s.duration
        by_name: Dict[str, List[Span]] = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)

        def spans(name):
            return by_name.get(name, [])

        def total_s(name, self_only=False):
            return sum(s.duration - (child_s.get(s.id, 0.0) if self_only else 0.0) for s in spans(name))

        def mean_attr(name, key):
            vals = [s.attrs[key] for s in spans(name) if key in s.attrs]
            return sum(vals) / len(vals) if vals else 0.0

        def hwm_delta(name):
            return sum(s.hwm_after_mb - s.hwm_before_mb for s in spans(name))

        def rate(flop, seconds):
            return flop / seconds / 1e9 if seconds > 0 else 0.0

        # flop counts are computed from sizes, not measured; a span whose call
        # raised has no sizes
        p_spans = [s.attrs for s in spans("bsg.extract_p") if s.attrs]
        tv_spans = [s.attrs for s in spans("relation_lemma.extract_tv") if s.attrs]
        p_flop = [2 * a["p_size"] * a["n"] ** 2 for a in p_spans]
        tv_flop = [4 * a["n"] ** 3 + 2 * a["a_star"] ** 2 * a["n"] for a in tv_spans]
        tv_star = sum(a["a_star"] for a in tv_spans)
        tv_kept = sum(a["a_prime"] for a in tv_spans)
        per_job = 1.0 / jobs
        return {
            "groups.parse_set.s": total_s("groups.parse_set") * per_job,
            "additive_stats.rep_table.s": total_s(REP) * per_job,
            "additive_stats.rep_table.diff_size": mean_attr(REP, "diff_size"),
            "additive_stats.rep_table.dict_jobs": sum(1 for s in spans(REP) if s.attrs.get("dict")),
            "bsg.partition_pq.self_s": total_s("bsg.partition_pq", True) * per_job,
            "bsg.partition_pq.q_size": mean_attr("bsg.partition_pq", "q_size"),
            "bsg.extract_p.self_s": total_s("bsg.extract_p", True) * per_job,
            "bsg.extract_p.gemm_flop": sum(p_flop) / len(p_flop) if p_flop else 0.0,
            "bsg.extract_p.gflop_per_s": rate(sum(p_flop), total_s("bsg.extract_p", True)),
            "bsg.extract_q.self_s": total_s("bsg.extract_q", True) * per_job,
            "numeric_lemma.select_index_set.s": total_s("numeric_lemma.select_index_set") * per_job,
            "numeric_lemma.select_index_set.weights": mean_attr("numeric_lemma.select_index_set", "weights"),
            "numeric_lemma.select_index_set.scan_steps": mean_attr("numeric_lemma.select_index_set", "scan_steps"),
            "relation_lemma.from_difference_set.s": total_s("relation_lemma.from_difference_set") * per_job,
            "relation_lemma.from_difference_set.q_prime_size": mean_attr("relation_lemma.from_difference_set", "q_prime_size"),
            "relation_lemma.extract_tv.s": total_s("relation_lemma.extract_tv") * per_job,
            "relation_lemma.extract_tv.gemm_flop": sum(tv_flop) / len(tv_flop) if tv_flop else 0.0,
            "relation_lemma.extract_tv.gflop_per_s": rate(sum(tv_flop), total_s("relation_lemma.extract_tv")),
            "relation_lemma.extract_tv.kept_ratio": tv_kept / tv_star if tv_star else 0.0,
            "bsg.recount.s": total_s(RECOUNT) * per_job,
            "bsg.recount.diff_size": mean_attr(RECOUNT, "diff_size"),
            "bsg.to_json.s": total_s("bsg.to_json") * per_job,
            "oracle.verify_report_dict.s": total_s("oracle.verify_report_dict") * per_job,
            "additive_stats.rep_table.rss_hwm_delta_mb": hwm_delta(REP),
            "bsg.extract_p.rss_hwm_delta_mb": hwm_delta("bsg.extract_p"),
            "relation_lemma.from_difference_set.rss_hwm_delta_mb": hwm_delta("relation_lemma.from_difference_set"),
            "relation_lemma.extract_tv.rss_hwm_delta_mb": hwm_delta("relation_lemma.extract_tv"),
            "oracle.verify_report_dict.rss_hwm_delta_mb": hwm_delta("oracle.verify_report_dict"),
        }
