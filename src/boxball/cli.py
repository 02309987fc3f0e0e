"""Command-line driver: simulate | difftest | solution.

stdout carries records (line-delimited JSON or ASCII rows); stderr carries
diagnostics.  Exit code 0 iff every requested check passed, 2 for bad
configuration or arguments, 1 also when the stdout reader goes away before
the run ends.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import (
    ConfigError,
    TodaText,
    dump,
    euler_state_json,
    euler_trace_json,
    n_range_fits,
    parse_capacities,
    parse_config,
    parse_range,
    parse_solution_file,
    toda_state_json,
    toda_trace_json,
)
from .difftest import DiffBounds, run_difftest
from .euler import euler_step, first_difference, same_occupancy
from .render import render_counts
from .solutions import euler_slices, tau_states, verify_euler_solution, verify_tau_solution
from .toda import CapacityViolation, DegenerateState, enutoda_step, to_euler
from .xint import FiniteOverflow


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")


def _diag(line: str) -> None:
    sys.stderr.write(line + "\n")


# the steps each pass runs before the next pass starts; a block holds at
# most this many states and traces, so memory follows the balls, not --steps
_BLOCK = 50


def cmd_simulate(args) -> int:
    """Run the configured steps and write one record per step.

    The steps run in blocks of _BLOCK, each in three passes:

      1. the Euler pass runs euler_step over the block;
      2. the Toda pass runs enutoda_step over the steps whose Euler step
         ran and, with both pictures, checks each one: to_euler and
         same_occupancy, and first_difference at the run's first mismatch;
      3. the record pass writes the records of those steps in order.

    The run keeps one TodaText, made here, so a JSON record renders a Toda
    field again only when its tuple changed since the record before.

    Whatever a route or check raises (an Exception) is held, and a later
    pass runs only over the steps before the one that raised, so at one
    step an Euler raise comes before a Toda one.  The record pass writes every
    record before that step, then raises it.  stdout, stderr and the exit
    code are thus those of a walk that runs the routes, the check and the
    record of one step before the next, byte for byte."""
    cfg = parse_config(args.config)
    if args.steps is not None and args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    steps = args.steps if args.steps is not None else cfg.steps
    render = args.render if args.render is not None else cfg.render
    schedule = cfg.schedule
    euler, toda = cfg.euler, cfg.toda
    both = euler is not None and toda is not None
    toda_text = TodaText()
    if render == "ascii":
        # rows start at the initial state's first box, not at box 0, so a
        # state far to the right draws no long run of leading dots; t is
        # padded to the width of the last t, so every row's cells line up
        first = euler if euler is not None else to_euler(toda)
        origin = first.window_start
        width = max(3, len(str(first.time + steps)))

    divergence = None  # stderr line naming the first mismatch
    for begin in range(0, steps, _BLOCK):
        stop = min(_BLOCK, steps - begin)
        held = None  # what a route or check of the block raised
        # the (state, trace) of each step the Euler and the Toda pass ran,
        # made here so the last block's are freed before this one runs
        eulers, todas, verdicts = [], [], []
        if euler is not None:
            try:
                for _ in range(stop):
                    euler, etrace = euler_step(euler, schedule)
                    eulers.append((euler, etrace))
            except Exception as exc:
                held = exc
                stop = len(eulers)
        if toda is not None:
            try:
                for i in range(stop):
                    toda, ttrace = enutoda_step(toda, schedule)
                    todas.append((toda, ttrace))
                    if both:
                        state = eulers[i][0]
                        from_toda = to_euler(toda)
                        verdict = "equal" if same_occupancy(state, from_toda) else "mismatch"
                        verdicts.append(verdict)
                        if verdict == "mismatch" and divergence is None:
                            box, in_euler, in_toda = first_difference(state, from_toda)
                            divergence = (
                                f"simulate: representations diverged at t={toda.time}: "
                                f"box {box} holds {in_euler} (euler) vs {in_toda} (toda); "
                                f"toda (Q, E, X0) = ({list(toda.Q)}, {list(toda.E)}, {toda.X0})"
                            )
            except Exception as exc:
                held = exc
                stop = i
        if render != "none":
            for i in range(stop):
                if euler is not None:
                    state, etrace = eulers[i]
                    t = state.time
                if toda is not None:
                    ts, ttrace = todas[i]
                    t = ts.time
                verdict = verdicts[i] if both else None
                if render == "json":
                    # the keys in sorted order; the profile and schedule do
                    # not change along a run, so only the first record
                    # carries them
                    first_record = begin + i == 0
                    fields = []
                    if euler is not None:
                        text = euler_state_json(state, schedule if first_record else None)
                        fields.append(f'"euler":{text}')
                    fields.append(f'"t":{t}')
                    if toda is not None:
                        text = toda_state_json(ts, profile=first_record, last=toda_text)
                        fields.append(f'"toda":{text}')
                        fields.append(f'"toda_trace":{toda_trace_json(ttrace, last=toda_text)}')
                    if euler is not None:
                        fields.append(f'"trace":{euler_trace_json(etrace)}')
                    if verdict is not None:
                        fields.append(f'"verdict":"{verdict}"')
                    _emit(f"{{{','.join(fields)}}}")
                else:
                    shown = state if euler is not None else to_euler(ts)
                    line = f"t={t:>{width}} {render_counts(shown, origin)}"
                    if verdict is not None:
                        line += f"  [{verdict}]"
                    _emit(line)
        if held is not None:
            raise held
    if divergence is not None:
        _diag(divergence)
        return 1
    return 0


def cmd_difftest(args) -> int:
    for flag, value, least in (
        ("--cases", args.cases, 1),
        ("--steps", args.steps, 1),
        ("--window", args.window, 1),
        ("--max-delta", args.max_delta, 1),
        ("--seed", args.seed, 0),
    ):
        if value < least:
            raise ConfigError(f"{flag} must be >= {least}, got {value}")
    m_choices = parse_capacities(args.m_choices, "--m-choices") if args.m_choices else ()
    try:
        bounds = DiffBounds(
            window=args.window,
            max_delta=args.max_delta,
            m_choices=m_choices,
            steps=args.steps,
            include_toda=not args.euler_only,
        )
    except ValueError as exc:  # flags and choices are checked above: the M rule
        raise ConfigError(f"--m-choices below --max-delta needs --euler-only: {exc}") from None
    report = run_difftest(args.cases, args.seed, bounds)
    _emit(dump(report.to_json_dict()))
    _diag(
        f"difftest: {report.cases} cases, {report.steps_checked} steps, "
        f"{len(report.failures)} failures, {report.elapsed:.2f}s"
    )
    return 0 if report.ok else 1


def cmd_solution(args) -> int:
    spec = parse_solution_file(args.params, args.type)
    params = spec.params
    t_lo, t_hi = parse_range(args.t_range or ("0:10" if args.type == "euler" else "0:15"), "--t-range")
    if args.type == "euler":
        n_range = parse_range(args.n_range, "--n-range") if args.n_range else spec.n_range
        if n_range is None:
            raise ConfigError("need --n-range or params.n_range for the counts-level solution")
        lo, hi = n_range
        fits = n_range_fits("--n-range" if args.n_range else "params.n_range", lo, hi)
        if not args.verify:
            with fits:
                for sl in euler_slices(params, lo, hi, t_lo, t_hi):
                    _emit(
                        dump(
                            {
                                "t": sl.time,
                                "n_start": sl.n_start,
                                "U": sl.U.tolist(),
                                "Ubar": sl.Ubar.tolist(),
                                "Zbar": sl.Zbar.tolist(),
                            }
                        )
                    )
            return 0
        with fits:
            report = verify_euler_solution(params, lo, hi, t_lo, t_hi)
        extra = {"n_range": [lo, hi]}
    elif not args.verify:
        fields = ("Q", "E", "Qbar", "Ebar", "Cbar", "Dbar")
        for ts in tau_states(params, t_lo, t_hi):
            _emit(dump({"t": ts.time, **{name: list(getattr(ts, name)) for name in fields}}))
        return 0
    else:
        try:
            report = verify_tau_solution(params, t_lo, t_hi)
        except ValueError as exc:  # the schedule drops below Delta in the range
            raise ConfigError(str(exc)) from exc
        extra = {"min_q": report.min_q, "min_interior_e": report.min_interior_e}
    _emit(
        dump(
            {
                "type": args.type,
                "residuals": report.residuals,
                "max_residual": report.max_residual,
                "ok": report.ok,
                "t_range": [t_lo, t_hi],
                **extra,
            }
        )
    )
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxball",
        description="Box-ball system with box and carrier capacities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a configured simulation")
    p_sim.add_argument("--config", required=True, help="JSON run configuration")
    p_sim.add_argument("--steps", type=int, default=None, help="override config steps")
    p_sim.add_argument(
        "--render", choices=["ascii", "json", "none"], default=None,
        help="override config render mode",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_diff = sub.add_parser("difftest", help="seeded differential test of all pictures")
    p_diff.add_argument("--cases", type=int, required=True)
    p_diff.add_argument("--seed", type=int, default=0)
    p_diff.add_argument("--steps", type=int, default=20)
    p_diff.add_argument("--window", type=int, default=32)
    p_diff.add_argument("--max-delta", type=int, default=5)
    p_diff.add_argument(
        "--m-choices", default=None,
        help="comma list of carrier capacities, e.g. 5,6,inf "
        "(default: max-delta..max-delta+5 and inf)",
    )
    p_diff.add_argument(
        "--euler-only", action="store_true",
        help="skip the size-coordinate route (allows capacities above M)",
    )
    p_diff.set_defaults(func=cmd_difftest)

    p_sol = sub.add_parser("solution", help="evaluate or verify a closed-form solution")
    p_sol.add_argument("--params", required=True, help="JSON parameter file")
    p_sol.add_argument("--type", choices=["euler", "tau"], required=True)
    p_sol.add_argument("--verify", action="store_true",
                       help="check the update rules instead of printing slices")
    p_sol.add_argument(
        "--t-range", default=None,
        help="A:B (default 0:10 / 0:15); write a negative A as --t-range=-3:4",
    )
    p_sol.add_argument(
        "--n-range", default=None,
        help="A:B box window (euler type); write a negative A as --n-range=-20:40",
    )
    p_sol.set_defaults(func=cmd_solution)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _diag(f"error: {exc}")
        return 2
    except FiniteOverflow as exc:
        _diag(f"error: {type(exc).__name__}: {exc}")
        return 2
    except (CapacityViolation, DegenerateState) as exc:
        _diag(f"error: {type(exc).__name__}: {exc}")
        return 1
    except BrokenPipeError:
        # the reader closed stdout: the run is cut short, and the
        # interpreter's final flush goes to devnull instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
