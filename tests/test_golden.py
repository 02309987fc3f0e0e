"""Golden digests of full outputs, pinned from the dense-sweep kernels.

A kernel rewrite must reproduce these bit for bit; re-pin only when an
output is meant to change, and say why.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from boxball import euler_step, expand
from boxball.cli import main
from boxball.difftest import DiffBounds, random_case

SHOWCASE = Path(__file__).resolve().parents[1] / "configs" / "showcase.json"


def test_showcase_simulate_json_digest(capsys):
    assert main(["simulate", "--config", str(SHOWCASE), "--steps", "500", "--render", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cd536d7658289fa0d1d462efd482c32390a41b2006c88833c8204cedf6e51fc4"
    )


def test_euler_step_and_expansion_digest():
    # 200 criterion-3 cases, 20 steps each: every step's counts, trace
    # arrays and window start, and the expansion bits of every state
    bounds = DiffBounds(window=32, max_delta=5, steps=20)
    digest = hashlib.sha256()

    def pin(*arrays):
        digest.update(json.dumps([np.asarray(a).tolist() for a in arrays]).encode())

    for i in range(200):
        state, schedule = random_case(np.random.default_rng([0, i]), bounds)
        pin(expand(state).bits)
        for _ in range(bounds.steps):
            state, trace = euler_step(state, schedule)
            pin(
                [state.window_start],
                state.counts,
                trace.limited_counts,
                trace.carrier_loads,
                trace.removed,
                expand(state).bits,
            )
    assert digest.hexdigest() == "82ba3e0847978d445d0a30ee2350bd023a938f42fce0044b2f129b7076f2faaa"
