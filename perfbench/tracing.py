"""Outside-in tracing: wrappers around the public functions of each layer.

A wrapper is installed on the defining module, on every slflab module that
imported the name directly (`from .sim import simulate`), and on the class
for methods. Spans (name, start, end, parent) are kept in memory; self time
is a span's duration minus the time its child spans cover. Exact counts are
read from what the traced functions return.

Not traced: `policies` (no workload calls it; only tests do) and `cli` (an
argparse and file-writing front end in which no workload spends time).
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# layer -> (defining module, traced names); metric names are "<module>.<name>"
LAYERS = {
    "core": ("core", ("parse_instance", "Instance.__hash__")),
    "sim_query": (
        "sim",
        (
            "Schedule.elapsed_at",
            "state_at",
            "touched_jobs",
            "Schedule.active_count",
            "Schedule.boundaries",
        ),
    ),
    "sim_build": ("sim", ("simulate",)),
    "certifier": (
        "certifier",
        (
            "create_valid_assignment",
            "verify_certificate",
            "compute_work_split",
            "update_valid_assignment",
            "check_t_equivalence",
        ),
    ),
    "assignment": (
        "assignment",
        (
            "canonical_from_marginals",
            "greedy_matching",
            "split",
            "prefix_expansion",
            "union",
            "graph",
        ),
    ),
    "metrics": ("metrics", ("total_flow_time",)),
    "adversary": ("adversary", ("exp_simultaneous_sample",)),
    "reduction": (
        "reduction",
        ("reduction_check", "known_work_intervals", "setfi_vs_setf"),
    ),
}

CERTIFIER_CASES = (
    "identity",
    "idle",
    "known-run",
    "move",
    "fast-forward-knowledge",
    "fast-forward-last-touch",
)

SIM_COUNTS = ("segments", "rate_entries", "events", "max_den_bits")

COUNTING = "trace.counting"  # span around reading counts, kept out of its parent's self time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    # -- spans ----------------------------------------------------------------

    def begin(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def end(self, idx: int, label: str, start: float) -> None:
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[idx] = (label, start, perf_counter(), parent)

    def span(self, label: str, fn, *args, **kwargs):
        idx = self.begin()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx, label, start)

    def wrap(self, label: str, fn, on_return=None):
        def traced(*args, **kwargs):
            idx = self.begin()
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx, label, start)
            if on_return is not None:
                self.span(COUNTING, on_return, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- counts -----------------------------------------------------------------

    def count_schedule(self, sched) -> None:
        c = self.counts
        c["sim.segments"] += len(sched.segments)
        c["sim.rate_entries"] += sum(len(seg.rates) for seg in sched.segments)
        c["sim.events"] += len(sched.events)
        bits = max(
            (
                x.denominator.bit_length()
                for seg in sched.segments
                for x in (seg.start, seg.end, *seg.rates.values())
            ),
            default=0,
        )
        bits = max([bits, *(x.denominator.bit_length() for x in sched.completions.values())])
        c["sim.max_den_bits"] = max(c["sim.max_den_bits"], bits)

    def count_certificate(self, cert) -> None:
        for rec in cert.transcript:
            self.counts[f"certifier.iter.{rec.case}"] += 1

    # -- installation -------------------------------------------------------------

    def install(self, slf) -> None:
        """Wrap every traced name; `slf` holds the imported slflab modules."""
        hooks = {
            "simulate": self.count_schedule,
            "create_valid_assignment": self.count_certificate,
        }
        for mod_name, names in LAYERS.values():
            module = getattr(slf, mod_name)
            for name in names:
                label = f"{mod_name}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self.wrap(label, cls.__dict__[meth]))
                    continue
                orig = getattr(module, name)
                wrapped = self.wrap(label, orig, hooks.get(name))
                for other in list(sys.modules.values()):
                    if (
                        getattr(other, "__name__", "").startswith("slflab")
                        and getattr(other, name, None) is orig
                    ):
                        setattr(other, name, wrapped)

    # -- results ------------------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Calls and self time per label."""
        child = [0.0] * len(self.spans)
        for label, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (label, start, end, _) in enumerate(self.spans):
            calls[label] += 1
            self_s[label] += end - start - child[i]
        return calls, self_s

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write("name,start,end,parent\n")
            for label, start, end, parent in self.spans:
                out.write(f"{label},{start:.9f},{end:.9f},{parent}\n")
