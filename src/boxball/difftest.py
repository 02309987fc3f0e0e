"""Seeded differential testing of the three state pictures.

Each case draws a random valid counts-level state plus a random carrier
schedule and evolves it along independent routes:

  (a) the coupled min-plus sweep (euler_step),
  (b) the literal ball-by-ball carrier walk (carrier_oracle_step),
  (c) sizes/gaps/anchor extracted once at t=0 and evolved entirely in the
      size coordinates, mapped back to counts for comparison.

Every step is also checked for ball conservation, the single-equation
residual, the carrier-load identity and bounds, and on route (c) the
anchor and the soliton count.  Each route runs over the whole case in a
pass of its own, which on a 2-core Xeon host took about 15 % less time
per checked step than switching routes at every step, and a case reports
the failure that a walk through every route and check at one step before
the next would meet first (see _run_case).  Cases are generated from
(seed, case_index), so a report is byte-identical across runs with the
same arguments.

The cases are independent, so run_difftest shares them among one process
per CPU it may run on (os.sched_getaffinity): the calling process and a
forked child for each other CPU.  The cases are cut into at most 256
chunks of ceil(cases/256) consecutive cases, and each chunk's one-byte
token is written into a pipe before the fork; every process reads one
token at a time and runs that chunk, so a process that finishes early
takes the next chunk instead of waiting.  Each process sends a record as
each chunk ends (its failures and step counts, or what a case raised),
and the caller merges them once, in chunk order, so the report does not
depend on the split.  A process whose case raises reads the pipe empty,
so every process stops after its current chunk; tokens leave the pipe in
increasing order, so every chunk below the raising one is run, and the
lowest raising case re-raises in the caller, as in a serial run.  With
one usable CPU, or one chunk, the caller runs the same path with no fork
(`taskset -c 0` gives a serial run).
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time as _time
from dataclasses import asdict, dataclass, field
from typing import IO, Callable, List, Optional, Tuple

import numpy as np

from .euler import (
    MAX_SPAN,
    EulerState,
    carrier_oracle_step,
    euler_step,
    same_occupancy,
    umkdv_residual,
)
from .expansion import expand
from .geometry import CapacityProfile, CarrierSchedule
from .toda import DegenerateState, TodaState, enutoda_step, from_euler, to_euler, toda_to_lagrange
from .xint import INT64_MAX, POS_INF, FiniteOverflow, XInt, as_capacity, as_int, encode_xint


@dataclass(frozen=True)
class DiffBounds:
    """Generator bounds.  m_choices is stored resolved, as a tuple of XInt;
    none given means the safe default for the size-coordinate route:
    finite values max_delta .. max_delta+5 plus +inf (the route-(c)
    equations need capacities <= carrier capacity)."""

    window: int = 32
    max_delta: int = 5
    m_choices: Tuple[XInt, ...] = ()
    steps: int = 20
    include_toda: bool = True

    def __post_init__(self):
        for name, least in (("window", 1), ("max_delta", 1), ("steps", 0)):
            value = as_int(getattr(self, name), name)
            object.__setattr__(self, name, value)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
            # not a ValueError: the CLI reads every ValueError from here
            # as the M rule below
            if value > INT64_MAX:
                raise FiniteOverflow(f"{name} must be <= {INT64_MAX}, got {value}")
            if name != "max_delta" and value > MAX_SPAN:  # random_case sizes int64 arrays by it
                raise FiniteOverflow(f"{name} must be <= {MAX_SPAN} to size an array, got {value}")
        if not self.m_choices and self.max_delta + 5 > INT64_MAX:
            raise FiniteOverflow(
                f"max_delta must be <= {INT64_MAX - 5} for the default M choices "
                f"max_delta .. max_delta+5, got {self.max_delta}"
            )
        m_choices = tuple(as_capacity(m) for m in self.m_choices) or (
            *map(XInt, range(self.max_delta, self.max_delta + 6)),
            POS_INF,
        )
        object.__setattr__(self, "m_choices", m_choices)
        for m in m_choices:
            bound = m.bound
            if self.include_toda and bound is not None and bound < self.max_delta:
                raise ValueError(
                    f"m_choices holds {bound}, below max_delta {self.max_delta}; "
                    f"the size-coordinate route needs every finite M >= max_delta"
                )


@dataclass(frozen=True)
class DiffFailure:
    case: int
    step: int
    quantity: str
    detail: str


@dataclass
class DiffReport:
    cases: int
    seed: int
    bounds: DiffBounds
    failures: List[DiffFailure] = field(default_factory=list)
    steps_checked: int = 0
    elapsed: float = 0.0  # diagnostics only, never serialized

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "cases": self.cases,
            "seed": self.seed,
            "bounds": {
                **asdict(self.bounds),
                "m_choices": [encode_xint(m) for m in self.bounds.m_choices],
            },
            "steps_checked": self.steps_checked,
            "failures": [asdict(f) for f in self.failures],
        }


# the most balls a case may draw.  A step's carrier walks one box per ball
# it passes on and may leave each ball in a box of its own: one box of
# 2**18 balls under M = +inf steps in 0.15 s to 2**18 pairs (about 60 MB)
# on a 2-core Xeon host, and a case near max_delta = 2**63 - 1 would never
# finish its first step
MAX_CASE_BALLS = 2**20


def random_case(
    rng: np.random.Generator, bounds: DiffBounds
) -> Tuple[EulerState, CarrierSchedule]:
    """Window length <= bounds.window, capacities in [1, max_delta], counts
    uniform in [0, capacity], all-zero rejected, one carrier capacity drawn
    per evolved step.  More than MAX_CASE_BALLS balls raise FiniteOverflow
    before any route runs."""
    wlen = int(rng.integers(1, bounds.window + 1))
    caps = rng.integers(1, bounds.max_delta + 1, size=wlen)
    while True:
        counts = rng.integers(0, caps + 1)
        # in Python ints, which an int64 sum near max_delta = 2**63 - 1 wraps
        balls = sum(counts.tolist())
        if balls > 0:
            break
    if balls > MAX_CASE_BALLS:
        raise FiniteOverflow(
            f"the case drew {balls} balls, more than MAX_CASE_BALLS = {MAX_CASE_BALLS}; "
            f"lower max_delta or window"
        )
    profile = CapacityProfile(capacities=caps.tolist())
    choices = bounds.m_choices
    # one bounded draw of every step's index reads the same 32-bit stream
    # as one scalar draw per step, so the schedule is the same
    picks = rng.integers(len(choices), size=bounds.steps).tolist()
    entries = {t: choices[k] for t, k in enumerate(picks, 1)}
    schedule = CarrierSchedule(entries=entries, default=POS_INF)
    return EulerState(counts=counts, profile=profile), schedule


# An outcome is (step, found): found is a failure's (quantity, detail), or
# the exception that step raised, held until every pass has run


def _euler_pass(
    state: EulerState, schedule: CarrierSchedule, steps: int
) -> Tuple[list, Optional[tuple]]:
    """Route (a) and its own checks, step after step, up to the first
    outcome; returns the (next state, M) of each step whose Euler step
    ran, and that outcome or None."""
    states = []
    ea = state
    # read before each euler_step, which a fault injection may let change
    # its input, and carried from the previous step's check
    total_before = ea.total_balls
    step = 0
    try:
        for step in range(steps):
            m = schedule.at(ea.time + 1)
            ea_next, trace = euler_step(ea, schedule)
            states.append((ea_next, m))
            total_after = ea_next.total_balls
            if total_after != total_before:
                return states, (step, ("ball_conservation", f"{total_before} -> {total_after}"))
            res = umkdv_residual(ea, ea_next, trace, m)
            if res.max_violation != 0:
                return states, (step, ("umkdv_residual", f"max={res.max_violation}"))
            if res.carrier_identity_max != 0:
                return states, (step, ("carrier_identity", f"max={res.carrier_identity_max}"))
            # the trace lists nonzero loads; every box it does not name has 0,
            # so the range starts as [0, 0]
            low = high = 0
            for _, v in trace.carrier_loads:
                if v < low:
                    low = v
                elif v > high:
                    high = v
            if low < 0 or (m.bound is not None and high > m.bound):
                return states, (step, ("carrier_bound", f"loads in [{low}, {high}], M={m}"))
            ea = ea_next
            total_before = total_after
    except Exception as exc:
        return states, (step, exc)
    return states, None


def _oracle_pass(state: EulerState, schedule: CarrierSchedule, states: list) -> Optional[tuple]:
    """Route (b) over the steps in `states`, each result held against that
    step's Euler state; the first outcome, or None."""
    eb = state
    step = 0
    try:
        for step, (ea_next, _) in enumerate(states):
            eb = carrier_oracle_step(eb, schedule)
            if not same_occupancy(ea_next, eb):
                return step, (
                    "oracle_counts",
                    f"euler={ea_next.counts.tolist()} oracle={eb.counts.tolist()}",
                )
    except Exception as exc:
        return step, exc
    return None


def _toda_pass(ts: TodaState, schedule: CarrierSchedule, states: list) -> Optional[tuple]:
    """Route (c) from `ts` over the steps in `states`, each result mapped
    back and held against that step's Euler state; the first outcome, or
    None."""
    solitons_before = sum(ts.Q)
    step = 0
    try:
        for step, (ea_next, m) in enumerate(states):
            try:
                ts_next, ttrace = enutoda_step(ts, schedule)
            except DegenerateState as exc:
                return step, ("toda_degenerate", str(exc))
            solitons_after = sum(ts_next.Q)
            if solitons_after != solitons_before:
                return step, ("soliton_conservation", f"{solitons_before} -> {solitons_after}")
            m_ok = m.bound is None or (
                max(ttrace.Dbar) <= m.bound and max(ttrace.Cbar) <= m.bound
            )
            if not m_ok or any(q > d for q, d in zip(ttrace.Qbar, ttrace.Dbar)):
                return step, (
                    "trace_bounds",
                    f"Qbar={ttrace.Qbar} Dbar={ttrace.Dbar} Cbar={ttrace.Cbar}",
                )
            back = to_euler(ts_next)
            if not same_occupancy(back, ea_next):
                # the two windows start at different boxes; name both
                return step, (
                    "toda_counts",
                    f"euler[{ea_next.window_start}:]={ea_next.counts.tolist()} "
                    f"toda[{back.window_start}:]={back.counts.tolist()}",
                )
            # anchored decomposition check: runs laid at (X0, Q, E) must be
            # exactly the runs of the evolved expansion, not just its counts
            if expand(ea_next) != toda_to_lagrange(ts_next.Q, ts_next.E, ts_next.X0):
                return step, (
                    "anchor",
                    f"(Q,E,X0)=({ts_next.Q},{ts_next.E},{ts_next.X0}) "
                    f"does not match the evolved expansion",
                )
            ts = ts_next
            solitons_before = solitons_after
    except Exception as exc:
        return step, exc
    return None


def _run_case(
    case_index: int,
    state: EulerState,
    schedule: CarrierSchedule,
    bounds: DiffBounds,
    report: DiffReport,
) -> None:
    """Check one case route by route, each route over the whole case in a
    pass of its own, and report what a walk that runs every route and
    check at one step before the next would meet first.

    That walk's order within a step is: the Euler step, the oracle step,
    `oracle_counts`, the other Euler checks (`ball_conservation`,
    `umkdv_residual`, `carrier_identity`, `carrier_bound`), then the Toda
    checks (`toda_degenerate`, `soliton_conservation`, `trace_bounds`,
    `toda_counts`, `anchor`).  The passes keep it:

      1. the Euler pass runs to its first outcome;
      2. the oracle pass runs over every step whose Euler step ran, so it
         ends at or before that outcome, and ranks before the Euler checks
         of its last step: any outcome of its own replaces pass 1's;
      3. the Toda pass (with include_toda) runs over the steps before the
         outcome so far, so any outcome of its own replaces it.

    What a pass raises, whether a route, a check or a detail string,
    is an outcome like a failure, raised only once it is the first.  A
    failure at `step` adds step + 1 to steps_checked, a passing case
    bounds.steps.  The costs past the walk's are the list of the case's
    Euler states, and in a failing case only, route calls at steps past
    its failure.

    A route must not change its input in place (EulerState is frozen):
    the oracle pass starts from `state` after the Euler pass has run."""
    # before any route, as in a step-by-step walk, so what it raises comes first
    ts = from_euler(state) if bounds.include_toda else None
    states, outcome = _euler_pass(state, schedule, bounds.steps)
    outcome = _oracle_pass(state, schedule, states) or outcome
    if ts is not None:
        stop = outcome[0] if outcome else bounds.steps
        outcome = _toda_pass(ts, schedule, states[:stop]) or outcome
    if outcome is None:
        report.steps_checked += bounds.steps
        return
    step, found = outcome
    if isinstance(found, Exception):
        raise found
    report.steps_checked += step + 1
    report.failures.append(DiffFailure(case_index, step, *found))


# the most chunks of consecutive cases a run is cut into; a chunk's token
# is one byte, its index
_CHUNKS = 256


def _take_chunks(
    tokens: int, seed: int, bounds: DiffBounds, size: int, cases: int, send: Callable
) -> None:
    """Run chunk after chunk, each the one whose token this process reads
    next from the pipe `tokens`, and send (chunk, failures, steps_checked,
    the exception a case raised or None) as each one ends, until the pipe
    is empty or a case raises.  After a raise, read the pipe empty, so that
    every process stops after its current chunk: tokens leave the pipe in
    increasing order, so each chunk left in it is above the raising one."""
    while token := os.read(tokens, 1):
        chunk = token[0]
        part = DiffReport(cases=cases, seed=seed, bounds=bounds)
        try:
            for i in range(chunk * size, min(cases, (chunk + 1) * size)):
                state, schedule = random_case(np.random.default_rng([seed, i]), bounds)
                _run_case(i, state, schedule, bounds, part)
        except Exception as exc:
            send((chunk, part.failures, part.steps_checked, exc))
            while os.read(tokens, _CHUNKS):
                pass
            return
        send((chunk, part.failures, part.steps_checked, None))


class WorkerLost(RuntimeError):
    """A forked difftest worker ended without sending a chunk's result."""


class _Worker:
    """A forked child that takes chunks of cases from the shared token
    pipe, and writes each chunk's record, pickled, to its own file as soon
    as the chunk ends."""

    def __init__(self, tokens: int, seed: int, bounds: DiffBounds, size: int, cases: int):
        # an unnamed file, not a pipe, so that the child never waits for the
        # caller to read: through a pipe the child stalled once 64 KiB of
        # records were unread, and a 6000-case criterion-3 run whose every
        # case fails took 2.3-2.5 s against 1.1-1.2 s on the 2-core host
        self.file = tempfile.TemporaryFile()
        # a raw fork (4-6 ms on a 2-core Xeon guest), not a multiprocessing
        # pool (13-34 ms there, and spawned workers re-import numpy): a
        # 25-case criterion-3 run takes 35-90 ms there, about 55 ms in the
        # median.  The child runs only the case loop and leaves by os._exit.
        try:
            self.pid = os.fork()
        except OSError:
            self.file.close()
            raise
        if self.pid == 0:
            self._serve(tokens, seed, bounds, size, cases, self.file)

    @staticmethod
    def _serve(
        tokens: int, seed: int, bounds: DiffBounds, size: int, cases: int, file: IO[bytes]
    ) -> None:
        # the child never returns into the caller's stack, and os._exit
        # skips the atexit handlers and buffers it inherited
        status = 1
        try:

            def send(record: tuple) -> None:
                exc = record[3]
                if exc is not None:
                    import traceback

                    exc.add_note("".join(traceback.format_exception(exc)).rstrip())
                # pickled whole first, so a record that cannot be pickled
                # leaves nothing half-written behind
                file.write(pickle.dumps(record))
                file.flush()

            _take_chunks(tokens, seed, bounds, size, cases, send)
            status = 0
        finally:
            os._exit(status)

    def records(self) -> List[tuple]:
        """Wait for the child; every record it wrote whole (one cut short by
        its death is dropped), with exit_code then saying how it ended."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = 0
        self.exit_code = os.waitstatus_to_exitcode(status)
        records = []
        with self.file:
            self.file.seek(0)
            try:
                while True:
                    records.append(pickle.load(self.file))
            except (EOFError, pickle.UnpicklingError):
                pass  # the end, or a record cut short by the child's death
        return records

    def close(self) -> None:
        """Stop and reap the child if records() has not."""
        self.file.close()
        if self.pid:
            import signal  # only this error path needs it, and it takes 1 ms to import

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0


def _usable_cpus() -> int:
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def run_difftest(cases: int, seed: int, bounds: Optional[DiffBounds] = None) -> DiffReport:
    """Run `cases` independent cases; deterministic in (cases, seed, bounds),
    whatever number of CPUs shares the work."""
    cases, seed = as_int(cases, "cases"), as_int(seed, "seed")
    # numpy's generator rejects it only inside the first case, in a worker
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    bounds = bounds or DiffBounds()
    report = DiffReport(cases=cases, seed=seed, bounds=bounds)
    start = _time.perf_counter()
    # no chunk at all for cases <= 0
    size = max(1, -(-cases // _CHUNKS))
    chunks = max(0, -(-cases // size))
    sent: List[tuple] = []
    tokens, write_fd = os.pipe()
    workers: List[_Worker] = []
    try:
        # every token in one write (at most 256 bytes, so it cannot block);
        # then no writer is left, and a read past the last token returns b""
        with open(write_fd, "wb", buffering=0) as fh:
            fh.write(bytes(range(chunks)))
        for _ in range(min(_usable_cpus(), chunks) - 1):
            workers.append(_Worker(tokens, seed, bounds, size, cases))
        _take_chunks(tokens, seed, bounds, size, cases, sent.append)
        for worker in workers:
            sent += worker.records()
    finally:
        for worker in workers:
            worker.close()
        os.close(tokens)
    # in chunk order, which is case order, up to the lowest raising chunk
    records = {record[0]: record for record in sent}
    lost: List[int] = []
    raised = None
    for chunk in range(chunks):
        if chunk not in records:
            lost.append(chunk)
            continue
        _, failures, steps, raised = records[chunk]
        if raised is not None:
            break
        report.failures += failures
        report.steps_checked += steps
    # a lost chunk below the raising one could have raised first
    if lost:
        spans = ", ".join(f"{c * size}..{min(cases, (c + 1) * size) - 1}" for c in lost)
        codes = ", ".join(str(w.exit_code) for w in workers if w.exit_code)
        raise WorkerLost(f"no result came back for cases {spans} (worker exit code {codes})")
    if raised is not None:
        raise raised
    report.elapsed = _time.perf_counter() - start
    return report
