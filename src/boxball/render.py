"""ASCII rendering: one character per box from an origin box ('.' when
empty)."""

from __future__ import annotations

from .euler import EulerState


def render_counts(state: EulerState, origin: int = 0) -> str:
    """One character per box from box `origin` (at most the state's
    window_start), so rows of windows that start at different boxes line
    up."""
    out = ["." * (state.window_start - origin)]
    box = state.window_start
    for n, u in state.occupied:
        # capacities of 10 or more are legal, digits are not
        out.append(f"{'.' * (n - box)}{u if u < 10 else f'[{u}]'}")
        box = n + 1
    out.append("." * (state.window_end - box))
    return "".join(out)
