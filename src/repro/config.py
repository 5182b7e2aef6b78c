"""Flow configuration.

One :class:`FlowConfig` object carries the values a run of the
Selective-MT flow sets (:func:`repro.experiments.table1_config` pins
the Table 1 ones).  Everything else (assignment rounds, CTS/MTE
buffering, hold fixing) is the default of the component that uses it.
"""

from __future__ import annotations

import dataclasses
import enum
import math

from repro.compute import BACKENDS, default_backend
from repro.errors import ConfigError
from repro.placement.floorplan import MIN_UTILIZATION
from repro.vgnd.bounce import SIMULTANEITY_EXPONENT, SIMULTANEITY_FLOOR


class Technique(enum.Enum):
    """The three techniques Table 1 compares."""

    DUAL_VTH = "dual_vth"
    CONVENTIONAL_SMT = "conventional_smt"
    IMPROVED_SMT = "improved_smt"


@dataclasses.dataclass
class FlowConfig:
    """Knobs for the RTL-to-layout Selective-MT flow."""

    # Timing: the clock period is the all-low-Vth critical delay times
    # (1 + timing_margin).  Small margins force many MT-cells (a
    # timing-tight design like the paper's circuit A); larger margins
    # let more cells become high-Vth (circuit B).
    timing_margin: float = 0.15
    clock_period_ns: float | None = None   # overrides margin when set

    # Placement.
    utilization: float = 0.7
    aspect_ratio: float = 1.0
    placement_seed: int = 1
    placer_iterations: int = 24

    # Numeric compute backend for the batch engines (Monte-Carlo
    # samples, signoff corners, standby scenarios, policy candidates)
    # and leakage sums: "python" (scalar reference) or "numpy"
    # (vectorized array kernels; equivalent to 1e-9 rel, falls back to
    # scalar when numpy is not installed).  Design STA is the scalar
    # timing session on both.  Default honors REPRO_COMPUTE_BACKEND.
    compute_backend: str = dataclasses.field(default_factory=default_backend)

    # Vth assignment: it runs against a slightly tightened period so that
    # pre-route estimation error, holder loading and CTS skew cannot
    # break post-route timing closure.
    assignment_guardband: float = 0.04

    # Virtual-ground optimizer (§3 constraints).  Matches the bounce
    # assumed when the MT library was characterized.
    bounce_limit_fraction: float = 0.04    # of Vdd
    max_rail_length_um: float = 400.0
    max_cells_per_switch: int = 64

    # Simultaneity model of the VGND cluster current (overrides the
    # repro.vgnd.bounce defaults): the fraction of summed member peak
    # current flowing at once is max(n^-exponent, floor).
    simultaneity_exponent: float = SIMULTANEITY_EXPONENT
    simultaneity_floor: float = SIMULTANEITY_FLOOR

    def __post_init__(self):
        check_fields(self, _CHECKS)

    def bounce_limit_v(self, vdd: float) -> float:
        return self.bounce_limit_fraction * vdd


def _number(valid):
    """A predicate: a number, not a bool, for which ``valid`` holds."""
    return lambda value: isinstance(value, (int, float)) \
        and not isinstance(value, bool) and valid(value)


def _integer(valid):
    """A predicate: an int, not a bool, for which ``valid`` holds."""
    return lambda value: isinstance(value, int) \
        and not isinstance(value, bool) and valid(value)


def _optional(valid):
    """A predicate: ``None``, or a value for which ``valid`` holds."""
    return lambda value: value is None or valid(value)


def check_fields(obj, checks) -> None:
    """Raise :class:`ConfigError` for the first field of the dataclass
    ``obj``, in declaration order, whose value fails its entry in
    ``checks`` (field -> (predicate, what a valid value is))."""
    for field in dataclasses.fields(obj):
        if field.name in checks:
            valid, expected = checks[field.name]
            value = getattr(obj, field.name)
            if not valid(value):
                raise ConfigError(field.name,
                                  f"must be {expected}, got {value!r}")


#: field -> (predicate, what a valid value is) for every FlowConfig
#: field.
_CHECKS = {
    "timing_margin": (_number(lambda v: 0.0 <= v < math.inf),
                      "a finite number >= 0"),
    "clock_period_ns": (_optional(_number(lambda v: 0.0 < v < math.inf)),
                        "null or a finite number > 0"),
    "utilization": (_number(lambda v: MIN_UTILIZATION <= v <= 1.0),
                    f"in [{MIN_UTILIZATION}, 1]"),
    "aspect_ratio": (_number(lambda v: 0.0 < v < math.inf),
                     "a finite number > 0"),
    "placement_seed": (_integer(lambda v: True), "an int"),
    "placer_iterations": (_integer(lambda v: v >= 0), "an int >= 0"),
    "compute_backend": (lambda value: value in BACKENDS,
                        f"one of {BACKENDS}"),
    "assignment_guardband": (_number(lambda v: 0.0 <= v < 1.0),
                             "in [0, 1)"),
    "bounce_limit_fraction": (_number(lambda v: 0.0 < v < 0.5),
                              "in (0, 0.5)"),
    "max_rail_length_um": (_number(lambda v: 0.0 < v < math.inf),
                           "a finite number > 0"),
    "max_cells_per_switch": (_integer(lambda v: v >= 1), "an int >= 1"),
    "simultaneity_exponent": (_number(lambda v: 0.0 <= v <= 1.0),
                              "in [0, 1]"),
    "simultaneity_floor": (_number(lambda v: 0.0 < v <= 1.0),
                           "in (0, 1]"),
}
