"""Spans around calls into the boxball modules, recorded from outside the package.

`Tracer.install` replaces every name a caller resolves for each target (the
defining module's attribute, every `from .x import f` copy in the other
boxball modules, or a class attribute for methods) with a timing wrapper,
and `Tracer.restore` puts the originals back.  Spans (name, start, end,
parent, case) are kept in memory and written out once, at the end.

A layer's self time is its span durations minus the part covered by its
direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


def _len_arg0(args) -> int:
    return len(args[0])


def _bounds_boxes(args) -> int:
    # counts_from_runs(starts, lengths, bounds): bounds has one entry per box plus one
    return len(args[2]) - 1


def _euler_step_boxes(args) -> int:
    # the sweep runs over the window extended by the total ball count
    counts = args[0].counts
    return len(counts) + int(counts.sum())


@dataclass(frozen=True)
class Target:
    """One traced name.

    metric: `<module>.<function>` prefix of the reported metrics.
    module, attr: where the original lives; `Class.method` for methods.
    boxes: exact work count taken from the call's arguments, if reported.
    marks_case: entering this span starts a new case id.
    """

    metric: str
    module: str
    attr: str
    boxes: Optional[Callable] = None
    marks_case: bool = False


_KERNELS = (
    Target("kernels.carrier_sweep", "boxball._kernels", "carrier_sweep", _len_arg0),
    Target("kernels.ball_queue_sweep", "boxball._kernels", "ball_queue_sweep", _len_arg0),
    Target("kernels.expand_sweep", "boxball._kernels", "expand_sweep", _len_arg0),
    Target("kernels.counts_from_runs", "boxball._kernels", "counts_from_runs", _bounds_boxes),
    Target("kernels.run_scan", "boxball._kernels", "run_scan", _len_arg0),
    Target("kernels.free_flow_sweep", "boxball._kernels", "free_flow_sweep", _len_arg0),
)

TARGETS: Tuple[Target, ...] = _KERNELS + (
    Target("euler.euler_step", "boxball.euler", "euler_step", _euler_step_boxes),
    Target("euler.carrier_oracle_step", "boxball.euler", "carrier_oracle_step"),
    Target("euler.umkdv_residual", "boxball.euler", "umkdv_residual"),
    Target("euler.same_occupancy", "boxball.euler", "same_occupancy"),
    Target("expansion.expand", "boxball.expansion", "expand"),
    Target("expansion.bits_from_positions", "boxball.expansion", "bits_from_positions"),
    Target("expansion.counts_from_positions", "boxball.expansion", "counts_from_positions"),
    Target("expansion.extract_blocks", "boxball.expansion", "extract_blocks"),
    Target("toda.enutoda_step", "boxball.toda", "enutoda_step"),
    Target("toda.from_euler", "boxball.toda", "from_euler"),
    Target("toda.to_euler", "boxball.toda", "to_euler"),
    Target("geometry.geometry", "boxball.geometry", "geometry"),
    Target("geometry.caps_view", "boxball.geometry", "SegmentGeometry.caps_view"),
    Target("geometry.segment_to_box", "boxball.geometry", "SegmentGeometry.segment_to_box"),
    Target("solutions.verify_euler_solution", "boxball.solutions", "verify_euler_solution",
           marks_case=True),
    Target("solutions.verify_tau_solution", "boxball.solutions", "verify_tau_solution",
           marks_case=True),
    Target("solutions.euler_nsoliton", "boxball.solutions", "euler_nsoliton"),
    Target("solutions.tau_toda_state", "boxball.solutions", "tau_toda_state"),
    Target("cli.main", "boxball.cli", "main", marks_case=True),
    Target("cli.simulate", "boxball.cli", "cmd_simulate"),
    Target("config.euler_state_json", "boxball.config", "euler_state_json"),
    Target("config.euler_trace_json", "boxball.config", "euler_trace_json"),
    Target("config.toda_state_json", "boxball.config", "toda_state_json"),
    Target("config.toda_trace_json", "boxball.config", "toda_trace_json"),
    Target("difftest.run_difftest", "boxball.difftest", "run_difftest"),
    Target("difftest.random_case", "boxball.difftest", "random_case", marks_case=True),
)


def _per_layer() -> Tuple[Tuple[str, str], ...]:
    out = []
    for t in TARGETS:
        out += [(f"{t.metric}.calls", "count"), (f"{t.metric}.self_s", "s")]
        if t.boxes is not None:
            out.append((f"{t.metric}.boxes", "count"))
        if t.metric.startswith("kernels."):
            out.append((f"{t.metric}.ns_per_box", "ns"))
    out += [
        ("toda.degenerate", "count"),
        ("cli.bytes_out", "bytes"),
        ("trace.untraced_s", "s"),
        ("trace.overhead", "ratio"),
    ]
    return tuple(out)


# (metric, unit) reported by a traced run, in a fixed order.
PER_LAYER = _per_layer()


def _resolve(modules: Dict[str, object], target: Target):
    """(owner, attribute name, original) or None when the name does not exist."""
    mod = modules.get(target.module)
    if mod is None:
        return None
    owner = mod
    parts = target.attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    orig = getattr(owner, parts[-1], None)
    if orig is None:
        return None
    return owner, parts[-1], orig


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.names: List[str] = [t.metric for t in TARGETS]
        self.span_name: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.case: List[int] = []
        self.boxes: Dict[str, int] = {}
        self.degenerate = 0
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._case_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        self.missing = []
        modules = {k: v for k, v in sys.modules.items() if k == "boxball" or k.startswith("boxball.")}
        for name_id, target in enumerate(TARGETS):
            found = _resolve(modules, target)
            if found is None:
                self.missing.append(target.metric)
                continue
            owner, attr, orig = found
            wrapper = self._wrap(target, name_id, orig)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made meanwhile (the benchmark's own output checks) are not traced."""
        self.restore()
        try:
            yield
        finally:
            self.install()

    def _wrap(self, target: Target, name_id: int, fn):
        boxes_fn = target.boxes
        metric = target.metric
        counts_degenerate = metric == "toda.enutoda_step"
        marks_case = target.marks_case
        stack = self._stack
        span_name, start, end, parent, case = (
            self.span_name, self.start, self.end, self.parent, self.case,
        )
        boxes = self.boxes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if boxes_fn is not None:
                boxes[metric] = boxes.get(metric, 0) + boxes_fn(args)
            if marks_case:
                self._case_id += 1
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            case.append(self._case_id)
            end.append(0.0)
            stack.append(idx)
            start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if counts_degenerate and type(exc).__name__ == "DegenerateState":
                    self.degenerate += 1
                raise
            finally:
                end[idx] = time.perf_counter()
                stack.pop()

        return wrapper

    # -- results --------------------------------------------------------

    def top_level_seconds(self) -> float:
        return sum(
            e - s for s, e, p in zip(self.start, self.end, self.parent) if p == -1
        )

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """{metric prefix: (calls, self seconds)}."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Dict[str, int] = {}
        self_s: Dict[str, float] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (self.end[i] - self.start[i]) - child[i]
        return {k: (calls[k], self_s[k]) for k in calls}

    def metrics(self, wall_s: float, untraced_rate: float, traced_rate: float,
                bytes_out: int) -> Dict[str, float]:
        """Every PER_LAYER metric; layers this workload never calls read 0."""
        totals = self.layer_totals()
        out: Dict[str, float] = {}
        for name, _unit in PER_LAYER:
            prefix, _, kind = name.rpartition(".")
            calls, self_s = totals.get(prefix, (0, 0.0))
            if kind == "calls":
                out[name] = calls
            elif kind == "self_s":
                out[name] = self_s
            elif kind == "boxes":
                out[name] = self.boxes.get(prefix, 0)
            elif kind == "ns_per_box":
                boxes = self.boxes.get(prefix, 0)
                out[name] = self_s * 1e9 / boxes if boxes else 0.0
        out["toda.degenerate"] = self.degenerate
        out["cli.bytes_out"] = bytes_out
        out["trace.untraced_s"] = wall_s - self.top_level_seconds()
        out["trace.overhead"] = untraced_rate / traced_rate if traced_rate > 0 else 0.0
        return out

    def write(self, path: str) -> None:
        """Spans as {"names": [...], "spans": [[name, start, end, parent, case], ...]}."""
        t0 = self.start[0] if self.start else 0.0
        spans = [
            [self.span_name[i], round(self.start[i] - t0, 9), round(self.end[i] - t0, 9),
             self.parent[i], self.case[i]]
            for i in range(len(self.start))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": spans}, fh, separators=(",", ":"))
