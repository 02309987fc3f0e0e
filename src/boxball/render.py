"""ASCII rendering: one character per box from an origin box ('.' when
empty)."""

from __future__ import annotations

from .euler import EulerState


def render_counts(state: EulerState, origin: int = 0) -> str:
    """One character per box from box `origin` (at most the state's
    window_start), so rows of windows that start at different boxes line
    up."""
    out = ["."] * (state.window_start - origin)
    for c in state.counts:
        c = int(c)
        if c == 0:
            out.append(".")
        elif c < 10:
            out.append(str(c))
        else:
            out.append(f"[{c}]")  # capacities this large are legal, digits are not
    return "".join(out)
