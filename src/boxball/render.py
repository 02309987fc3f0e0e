"""ASCII rendering: one character per box from an origin box ('.' when
empty), and segment sequences with '|' separators at box boundaries."""

from __future__ import annotations

from .euler import EulerState
from .expansion import BinarySeq


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


def render_bits(seq: BinarySeq) -> str:
    profile = seq.profile
    box = profile.segment_to_box(seq.segment_start) if len(seq.bits) else 0
    next_boundary = profile.boundary(box + 1)
    out = []
    for i, b in enumerate(seq.bits):
        seg = seq.segment_start + i
        if seg == next_boundary:
            out.append("|")
            box += 1
            next_boundary = profile.boundary(box + 1)
        out.append(str(int(b)))
    return "".join(out)


def render_ascii(obj) -> str:
    """Box-count states render as digit rows, segment sequences as bit rows
    with box separators."""
    if isinstance(obj, EulerState):
        return render_counts(obj)
    if isinstance(obj, BinarySeq):
        return render_bits(obj)
    raise TypeError(f"cannot render {type(obj).__name__}")
