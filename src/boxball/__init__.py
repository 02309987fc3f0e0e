"""Box-ball system with per-box capacities and a time-dependent carrier.

Exact integer (min-plus) simulation in three equivalent pictures -- ball
counts per box, soliton sizes/gaps, start positions -- connected by the
expansion map, plus closed-form soliton solutions with residual verifiers
and a seeded differential test harness.
"""

from .euler import (
    EulerState,
    EulerStepTrace,
    ResidualReport,
    WindowOverflow,
    carrier_oracle_step,
    euler_step,
    first_difference,
    same_occupancy,
    umkdv_residual,
)
from .expansion import expand
from .geometry import CapacityProfile, CarrierSchedule
from .solutions import (
    EulerSolitonParams,
    TauParams,
    euler_nsoliton,
    euler_slices,
    tau_states,
    tau_toda_state,
    verify_euler_solution,
    verify_tau_solution,
)
from .toda import (
    CapacityViolation,
    DegenerateState,
    EmptySequence,
    InconsistentPositions,
    TodaState,
    TodaStepTrace,
    enutoda_step,
    from_euler,
    lagrange_to_toda,
    to_euler,
    toda_to_lagrange,
)
from .xint import POS_INF, FiniteOverflow, XInt

__version__ = "0.1.0"

__all__ = [
    "CapacityProfile",
    "CapacityViolation",
    "CarrierSchedule",
    "DegenerateState",
    "EmptySequence",
    "EulerSolitonParams",
    "EulerState",
    "EulerStepTrace",
    "FiniteOverflow",
    "InconsistentPositions",
    "POS_INF",
    "ResidualReport",
    "TauParams",
    "TodaState",
    "TodaStepTrace",
    "WindowOverflow",
    "XInt",
    "carrier_oracle_step",
    "enutoda_step",
    "euler_nsoliton",
    "euler_slices",
    "euler_step",
    "expand",
    "first_difference",
    "from_euler",
    "lagrange_to_toda",
    "same_occupancy",
    "tau_states",
    "tau_toda_state",
    "to_euler",
    "toda_to_lagrange",
    "umkdv_residual",
    "verify_euler_solution",
    "verify_tau_solution",
]
