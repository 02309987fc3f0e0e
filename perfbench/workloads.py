"""The benchmark's workloads: seeded inputs, the timed library call, and the
output check of each chunk.

A run is a sequence of chunks, and a chunk is a list of items, each one
library call.  Chunk c's inputs depend only on (stream, seed, c), where
stream 0 holds the ordinary seeds and stream 1 the held-out ones, so a run
is reproducible and no two chunks of a run share inputs (which would warm
the library's caches).  Only `call`, one item, is timed.

Each workload reads the boxball modules through the namespace it was given
and looks functions up at call time, so the names the tracer patches are
the names called.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, List, Optional

import numpy as np

SHOWCASE = Path(__file__).resolve().parent / "showcase.json"


def load_library() -> SimpleNamespace:
    """Import the boxball modules afresh (dropping any loaded copy), so each
    call pays the package's full import cost."""
    for name in [k for k in sys.modules if k == "boxball" or k.startswith("boxball.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{
            mod: importlib.import_module(f"boxball.{mod}")
            for mod in ("cli", "config", "difftest", "geometry", "solutions", "xint")
        }
    )


def _boxes(start: int, counts) -> dict:
    """Nonzero counts by absolute box, so moving the window changes nothing."""
    return {str(start + i): int(c) for i, c in enumerate(counts) if c}


def digest(canonical: Any) -> str:
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """Checked result of one chunk.

    steps, classes: per item, its steps (the unit of steps_per_s) and its
    class (items of one class cost about the same);
    attempted/failed: operations (difftest cases, simulate steps,
    closed-form parameter sets);
    canonical: the JSON value whose digest is pinned.
    """

    steps: List[int]
    classes: List[str]
    attempted: int
    failed: int
    canonical: Any
    bytes_out: int = 0


class DifftestCapacity:
    """run_difftest with the criterion-3 bounds; an item is CASES cases."""

    name = "difftest_capacity"
    seeded = True
    CASES = 25
    TRACE_CHUNKS = 8

    def __init__(self, bb: SimpleNamespace, seed: int, stream: int):
        self.bb = bb
        self.seed = seed
        self.stream = stream
        self.bounds = bb.difftest.DiffBounds(
            window=32, max_delta=5, steps=20, include_toda=True
        )
        # taken before any tracing, so the output check is not traced
        self._random_case = bb.difftest.random_case
        self._euler_step = bb.difftest.euler_step

    def inputs(self, chunk: int) -> List[int]:
        seq = np.random.SeedSequence([self.stream, self.seed, chunk])
        return [int(seq.generate_state(1)[0])]

    def ops(self, items) -> int:
        return self.CASES * len(items)

    def call(self, lib_seed: int):
        return self.bb.difftest.run_difftest(self.CASES, lib_seed, self.bounds)

    def final_states(self, lib_seed: int) -> list:
        """Each case's Euler state after its last step, as {absolute box:
        count}.  The report alone carries no state, so a wrong evolution
        that all three routes share would still match its pin."""
        finals = []
        for i in range(self.CASES):
            rng = np.random.default_rng([lib_seed, i])
            state, schedule = self._random_case(rng, self.bounds)
            for _ in range(self.bounds.steps):
                state, _trace = self._euler_step(state, schedule)
            finals.append(_boxes(state.window_start, state.counts))
        return finals

    def check(self, items, reports) -> Outcome:
        (lib_seed,), (report,) = items, reports
        failed = len({f.case for f in report.failures})
        if report.cases != self.CASES:
            failed = self.CASES
        canonical = report.to_json_dict()
        canonical["final_states"] = self.final_states(lib_seed)
        return Outcome(
            steps=[report.steps_checked],
            classes=["cases"],
            attempted=self.CASES,
            failed=failed,
            canonical=canonical,
        )

    @staticmethod
    def corrupt(canonical):
        # one ball of the first case ends one box further on
        boxes = canonical["final_states"][0]
        box = max(boxes, key=int)
        boxes[str(int(box) + 1)] = boxes.get(str(int(box) + 1), 0) + 1
        boxes[box] -= 1


class _Sink:
    """Stand-in for stdout: keeps the byte count, the record count, the
    number of records with a mismatch verdict, and the last record."""

    def __init__(self):
        self.bytes = 0
        self.records = 0
        self.mismatches = 0
        self.last = ""

    def write(self, text: str) -> int:
        # one write per record; the verdict is the last key of a sorted record
        self.bytes += len(text)
        self.records += 1
        if '"mismatch"' in text[-32:]:
            self.mismatches += 1
        self.last = text
        return len(text)

    def flush(self) -> None:
        pass


class SimulateLong:
    """`boxball simulate` on the showcase configuration (both pictures,
    JSON records), in-process.  The input does not depend on the seed."""

    name = "simulate_long"
    seeded = False
    STEPS = 500
    TRACE_CHUNKS = 1

    def __init__(self, bb: SimpleNamespace, seed: int, stream: int):
        self.bb = bb
        self.seed = seed
        self.stream = stream
        cfg = bb.config.parse_config(str(SHOWCASE))
        if cfg.representation != "both":
            raise ValueError("the showcase run must check both pictures")
        self.argv = [
            "simulate", "--config", str(SHOWCASE),
            "--steps", str(self.STEPS), "--render", "json",
        ]

    def inputs(self, chunk: int) -> List[List[str]]:
        return [self.argv]

    def ops(self, items) -> int:
        return self.STEPS

    def call(self, argv):
        sink = _Sink()
        real = sys.stdout
        sys.stdout = sink
        try:
            rc = self.bb.cli.main(argv)
        finally:
            sys.stdout = real
        return rc, sink

    def check(self, items, raws) -> Outcome:
        ((rc, sink),) = raws
        failed = sink.mismatches
        canonical = None
        try:
            rec = json.loads(sink.last)
            euler, toda = rec["euler"], rec["toda"]
            start = euler["window_start"]
            canonical = {
                "t": rec["t"],
                "boxes": _boxes(start, euler["counts"]),
                "toda": {"Q": toda["Q"], "E": toda["E"], "X0": toda["X0"]},
            }
        except (ValueError, KeyError, TypeError):
            failed = self.STEPS
        if sink.records != self.STEPS or (rc != 0 and failed == 0):
            failed = self.STEPS
        return Outcome(
            steps=[self.STEPS],
            classes=["run"],
            attempted=self.STEPS,
            failed=failed,
            canonical=canonical,
            bytes_out=sink.bytes,
        )

    @staticmethod
    def corrupt(canonical):
        canonical["toda"]["X0"] += 1


class ClosedForm:
    """verify_euler_solution for N = 1..10 and verify_tau_solution for
    N = 1..8, one parameter set of each N per chunk."""

    name = "closed_form"
    seeded = True
    EULER_N = range(1, 11)
    TAU_N = range(1, 9)
    MAX_P = 12
    TRACE_CHUNKS = 1

    def __init__(self, bb: SimpleNamespace, seed: int, stream: int):
        self.bb = bb
        self.seed = seed
        self.stream = stream
        # taken before any tracing, so the output check is not traced
        self._euler_fields = bb.solutions.euler_nsoliton
        self._tau_state = bb.solutions.tau_toda_state

    def _euler(self, rng, n: int):
        # criterion-7 generator, with enough distinct speeds for N = 10
        g, x = self.bb.geometry, self.bb.xint
        p = tuple(int(v) for v in rng.choice(np.arange(1, self.MAX_P + 1), size=n, replace=False))
        xi = tuple(int(v) for v in rng.integers(-15, 16, size=n))
        caps = tuple(int(v) for v in rng.integers(1, 5, size=10))
        profile = g.CapacityProfile(capacities=caps, default_capacity=int(rng.integers(1, 5)))
        entries = {
            t: (x.POS_INF if rng.random() < 0.25 else x.XInt(int(rng.integers(1, 11))))
            for t in range(1, 12)
        }
        params = self.bb.solutions.EulerSolitonParams(
            P=p, Xi=xi, profile=profile, schedule=g.CarrierSchedule(entries=entries)
        )
        # the criterion-7 span of the fastest speeds allowed, not of p: every
        # chunk then evaluates the same window sizes, so its cost does not
        # depend on the seed (the checks are pointwise, any window is valid)
        fastest = range(self.MAX_P - n + 1, self.MAX_P + 1)
        span = 16 + 4 * sum(fastest) + 12 * self.MAX_P + 10
        return ("euler", params, (-span, span, 0, 10))

    def _tau(self, rng, n: int):
        # criterion-8 generator
        g, x = self.bb.geometry, self.bb.xint
        p = tuple(sorted(int(v) for v in rng.choice(np.arange(1, 11), size=n, replace=False)))
        w = tuple(int(v) for v in rng.integers(-10, 11, size=n))
        delta = int(rng.integers(1, 5))
        entries = {
            t: (x.POS_INF if rng.random() < 0.25 else x.XInt(delta + int(rng.integers(0, 7))))
            for t in range(1, 17)
        }
        params = self.bb.solutions.TauParams(
            P=p, W=w, Delta=delta, schedule=g.CarrierSchedule(entries=entries)
        )
        return ("tau", params, (0, 15))

    def inputs(self, chunk: int):
        rng = np.random.default_rng([self.stream, self.seed, chunk])
        return [self._euler(rng, n) for n in self.EULER_N] + [
            self._tau(rng, n) for n in self.TAU_N
        ]

    def ops(self, items) -> int:
        return len(items)

    def call(self, item):
        kind, params, ranges = item
        sol = self.bb.solutions
        verify = sol.verify_euler_solution if kind == "euler" else sol.verify_tau_solution
        return verify(params, *ranges)

    def check(self, items, reports) -> Outcome:
        canonical = []
        failed = 0
        for (kind, params, ranges), rep in zip(items, reports):
            failed += not rep.ok
            entry = {"kind": kind, "residuals": rep.residuals}
            # zero residuals only say the slices obey the update rules, which
            # a wrong soliton (or an empty field) does too: pin the last slice
            if kind == "tau":
                st = self._tau_state(params, ranges[-1])
                entry.update(
                    boundary_failures=rep.boundary_failures,
                    min_q=rep.min_q,
                    min_interior_e=rep.min_interior_e,
                    Q=list(st.Q),
                    E=list(st.E),
                )
            else:
                f = self._euler_fields(params, *ranges[:2], ranges[-1])
                entry.update(
                    n_start=f.n_start,
                    U=f.U.tolist(),
                    Ubar=f.Ubar.tolist(),
                    Zbar=f.Zbar.tolist(),
                )
            canonical.append(entry)
        return Outcome(
            # verified transitions t -> t+1 for t in [t_lo, t_hi)
            steps=[ranges[-1] - ranges[-2] for _, _, ranges in items],
            classes=[f"{kind}{params.N}" for kind, params, _ in items],
            attempted=len(items),
            failed=failed,
            canonical=canonical,
        )

    @staticmethod
    def corrupt(canonical):
        # a field the residuals cannot see: the last slice of the N = 1 soliton
        canonical[0]["U"][0] += 1


WORKLOADS = {w.name: w for w in (DifftestCapacity, SimulateLong, ClosedForm)}


def pinned_digest(reference: dict, workload, chunk: int) -> Optional[str]:
    """The reference digest for this chunk, or None when none is pinned.

    Seeded workloads are pinned for the reference seed's first chunks;
    simulate_long's single input is pinned for every chunk and seed."""
    pins = reference.get("workloads", {}).get(workload.name, [])
    if not workload.seeded:
        return pins[0] if pins else None
    if workload.stream != 0 or workload.seed != reference.get("seed") or chunk >= len(pins):
        return None
    return pins[chunk]
