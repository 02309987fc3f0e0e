"""End-to-end and per-layer benchmark of the boxball package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seconds S] [--out FILE]   # every workload, once
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-reference

One workload, --trace 0: set the library up SETUP_REPS times (fresh import,
input generation, config parsing) and report the median as setup_s, then run
chunks for --seconds and report steps_per_s from the median item times, and
the process's peak RSS.  Both times are scaled to the reference host speed
that hostprobe.py measures around them.  --trace 1 instead runs the
workload's fixed trace unit twice, once plain and once with every layer
traced, and reports the per-layer metrics.  The last stdout line is the JSON
result {"correct", "attempted", "failed", "metrics"}; earlier lines are for
people.

Without --workload every workload runs in its own process and a table
follows.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TRACE_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(SRC))

import hostprobe  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Outcome, digest, load_library, pinned_digest  # noqa: E402

SETUP_REPS = 15
PINNED_CHUNKS = 32
HELD_OUT_STREAM = 1

# (name, unit) of the end-to-end metrics; fail ratio is the result's failed/attempted
END_TO_END = (("steps_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def environment() -> dict:
    """What the numbers were measured on."""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    kernels = sys.modules.get("boxball._kernels")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_jit": bool(getattr(kernels, "NUMBA_ENABLED", False)),
        "BBS_NUMBA": os.environ.get("BBS_NUMBA"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model or platform.machine(),
    }


class SpeedTracker:
    """Host speed around each timed item: the reference probe time over the
    mean of the probes just before and just after the item."""

    def __init__(self):
        self.last = hostprobe.probe()
        self.spent = self.last

    def after_item(self) -> float:
        now = hostprobe.probe()
        self.spent += now
        speed = hostprobe.REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return speed


def run_chunk(wl, chunk: int, items, reference: dict, tracker=None, corrupt=False,
              tracer=None):
    """Time each item of a chunk, then check the chunk, untraced.

    Returns (samples, Outcome, digest matched its pin or nothing is pinned);
    a sample is (class, steps, seconds, seconds at the reference host speed),
    and an exception leaves no samples and fails every operation."""
    raws, secs, speeds = [], [], []
    try:
        for item in items:
            t0 = time.perf_counter()
            raws.append(wl.call(item))
            secs.append(time.perf_counter() - t0)
            speeds.append(tracker.after_item() if tracker else 1.0)
        with tracer.paused() if tracer else contextlib.nullcontext():
            out = wl.check(items, raws)
    except Exception:
        traceback.print_exc()
        n = wl.ops(items)
        return [], Outcome([], [], n, n, None), True
    samples = list(zip(out.classes, out.steps, secs, (t * v for t, v in zip(secs, speeds))))
    if out.canonical is None:
        return samples, out, True
    if corrupt:
        wl.corrupt(out.canonical)
    want = pinned_digest(reference, wl, chunk)
    return samples, out, want is None or digest(out.canonical) == want


class Tally:
    """Operations attempted and failed over a run; one pinned-digest
    mismatch fails every operation of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.pin_ok = True

    def add(self, out: Outcome, pin_ok: bool) -> None:
        self.attempted += out.attempted
        self.failed += out.failed
        self.pin_ok = self.pin_ok and pin_ok

    @property
    def failed_total(self) -> int:
        return self.failed if self.pin_ok else self.attempted


def set_up(name: str, seed: int, stream: int, reps: int):
    """Import, construct the workload and make chunk 0's inputs, `reps`
    times; returns (workload, chunk-0 inputs, seconds per rep at the
    reference host speed)."""
    times = []
    tracker = SpeedTracker()
    for _ in range(reps):
        t0 = time.perf_counter()
        bb = load_library()
        wl = WORKLOADS[name](bb, seed, stream)
        first = wl.inputs(0)
        secs = time.perf_counter() - t0
        times.append(secs * tracker.after_item())
    lib = Path(bb.cli.__file__).resolve()
    if SRC not in lib.parents:
        raise ImportError(f"boxball was imported from {lib}, not from {SRC}")
    return wl, first, times


def measure(wl, first, seconds: float, reference: dict):
    """Run chunks until `seconds` have passed: (samples, tally, chunks)."""
    tally = Tally()
    samples = []
    tracker = SpeedTracker()
    start = time.perf_counter()
    chunk, items = 0, first
    while True:
        got, out, pin_ok = run_chunk(wl, chunk, items, reference, tracker)
        tally.add(out, pin_ok)
        samples += got
        chunk += 1
        if time.perf_counter() - start >= seconds:
            return samples, tally, chunk
        items = wl.inputs(chunk)


def round_rate(samples, col: int = 3) -> float:
    """Steps per second of one round, one item of each class, with every
    class at the median of its item times (column `col` of a sample)."""
    times, steps = {}, {}
    for smp in samples:
        times.setdefault(smp[0], []).append(smp[col])
        steps.setdefault(smp[0], []).append(smp[1])
    total = sum(statistics.median(t) for t in times.values())
    return sum(statistics.median(n) for n in steps.values()) / total if total > 0 else 0.0


def reset_caches() -> None:
    """Empty the library's lazily filled caches, as in a fresh process."""
    for name, mod in list(sys.modules.items()):
        if name == "boxball" or name.startswith("boxball."):
            for value in list(vars(mod).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def trace_pass(wl, inputs, reference: dict, tally: Tally, tracer=None):
    """One pass over the trace unit: (steps, seconds in calls at the
    reference host speed, wall seconds outside the probes, bytes out)."""
    reset_caches()
    if tracer is not None:
        tracer.install()
    steps = 0
    busy = 0.0
    bytes_out = 0
    t0 = time.perf_counter()
    tracker = SpeedTracker()
    try:
        for chunk, items in enumerate(inputs):
            samples, out, pin_ok = run_chunk(wl, chunk, items, reference, tracker,
                                             tracer=tracer)
            tally.add(out, pin_ok)
            steps += sum(out.steps)
            busy += sum(smp[3] for smp in samples)
            bytes_out += out.bytes_out
    finally:
        wall = time.perf_counter() - t0 - tracker.spent
        if tracer is not None:
            tracer.restore()
    return steps, busy, wall, bytes_out


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def run_one(args) -> int:
    stream = HELD_OUT_STREAM if args.held_out else 0
    try:
        reference = load_reference()
        wl, first, setup_times = set_up(
            args.workload, args.seed, stream, 1 if args.trace else SETUP_REPS
        )
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    env = environment()
    print(f"workload {args.workload} seed {args.seed}"
          f"{' (held-out)' if args.held_out else ''} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    tally = Tally()
    if args.trace:
        inputs = [first] + [wl.inputs(c) for c in range(1, wl.TRACE_CHUNKS)]
        steps, busy, _wall, _ = trace_pass(wl, inputs, reference, tally)
        untraced_rate = steps / busy if busy > 0 else 0.0
        tracer = tracing.Tracer()
        steps, busy, wall, bytes_out = trace_pass(wl, inputs, reference, tally, tracer)
        traced_rate = steps / busy if busy > 0 else 0.0
        if tracer.missing:
            print("not found, reads 0: " + ", ".join(tracer.missing), file=sys.stderr)
        metrics = tracer.metrics(wall, untraced_rate, traced_rate, bytes_out)
        units = dict(tracing.PER_LAYER)
        TRACE_DIR.mkdir(exist_ok=True)
        spans = TRACE_DIR / f"spans-{args.workload}-{args.seed}.json"
        tracer.write(str(spans))
        print(f"spans: {spans} ({len(tracer.start)} spans); "
              f"steps_per_s {untraced_rate:.1f} untraced, {traced_rate:.1f} traced")
    else:
        samples, tally, chunks = measure(wl, first, args.seconds, reference)
        metrics = {
            "steps_per_s": round_rate(samples),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        print(f"{chunks} chunks, {len(samples)} timed items; "
              f"unscaled steps_per_s {round_rate(samples, 2):.6g}")

    failed = tally.failed_total
    if not tally.pin_ok:
        print("output does not match the pinned reference: every operation counts as failed")
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:42s} {shown} {units[name]}")
    print(f"{'fail_ratio':42s} {failed / max(tally.attempted, 1):.6g} "
          f"({failed} of {tally.attempted} failed)")
    result = {
        "correct": failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "held_out": args.held_out,
                  "trace": args.trace, "seconds": args.seconds, "env": env, "result": result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload once, in its own process, then a table."""
    rows = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.held_out:
            cmd.append("--held-out")
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        status |= not rows[name]["correct"]
    print(f"{'workload':20s} " + " ".join(f"{n + ' [' + u + ']':>18s}" for n, u in END_TO_END)
          + f" {'fail_ratio':>10s}")
    for name, result in rows.items():
        values = [result["metrics"][n]["value"] for n, _ in END_TO_END]
        print(f"{name:20s} " + " ".join(f"{v:18.6g}" for v in values)
              + f" {result['failed'] / max(result['attempted'], 1):10.4g}")
    return status


def self_test() -> int:
    """Pinned outputs match, a corrupted output fails every operation of its
    run, and the metric names agree with BENCHMARK.json."""
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != dict(END_TO_END):
        problems.append(f"end_to_end in BENCHMARK.json {declared} != {dict(END_TO_END)}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != dict(tracing.PER_LAYER):
        problems.append("per_layer in BENCHMARK.json differs from tracing.PER_LAYER")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from workloads.WORKLOADS")
    reference = load_reference()
    for name in WORKLOADS:
        wl, first, _ = set_up(name, reference["seed"], 0, 1)
        if pinned_digest(reference, wl, 0) is None:
            problems.append(f"{name}: no pinned digest")
        for corrupt in (False, True):
            tally = Tally()
            _, out, pin_ok = run_chunk(wl, 0, first, reference, corrupt=corrupt)
            tally.add(out, pin_ok)
            ratio = tally.failed_total / tally.attempted
            print(f"{name:20s} corrupted={corrupt!s:5s} fail_ratio={ratio}")
            if ratio != (1.0 if corrupt else 0.0):
                problems.append(f"{name}: fail_ratio {ratio} with corrupted={corrupt}")
    for p in problems:
        print("FAIL " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def write_reference(seed: int = 0) -> int:
    """Pin the digests of the first PINNED_CHUNKS chunks of `seed` (one for
    the seed-independent simulate_long); refuses output that fails a check."""
    pins = {}
    for name in WORKLOADS:
        wl, first, _ = set_up(name, seed, 0, 1)
        pins[name] = []
        items = first
        for chunk in range(PINNED_CHUNKS if wl.seeded else 1):
            if chunk:
                items = wl.inputs(chunk)
            samples, out, _ = run_chunk(wl, chunk, items, {})
            if out.failed or out.canonical is None:
                print(f"{name} chunk {chunk}: {out.failed} of {out.attempted} failed; not pinned")
                return 1
            pins[name].append(digest(out.canonical))
            print(f"{name} chunk {chunk}: {pins[name][-1][:16]} "
                  f"({sum(smp[2] for smp in samples):.2f} s)")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "workloads": pins}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true",
                    help="draw inputs from the held-out seed stream, for re-checking a claim")
    ap.add_argument("--out", help="append each run's record (with its environment) to this JSON-lines file")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-reference", action="store_true",
                    help=f"re-pin the digests of the first {PINNED_CHUNKS} chunks of seed 0")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.self_test:
        return self_test()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
