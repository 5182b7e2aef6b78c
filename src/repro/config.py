"""Flow configuration.

One :class:`FlowConfig` object parameterizes every stage of the
Selective-MT flow; defaults match the DESIGN.md experiment setup.
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

    # Numeric compute backend for every STA / leakage / Monte-Carlo
    # hot path: "python" (scalar reference) or "numpy" (vectorized
    # array kernels; equivalent to 1e-9 rel, falls back to scalar when
    # numpy is not installed).  Default honors REPRO_COMPUTE_BACKEND.
    compute_backend: str = dataclasses.field(default_factory=default_backend)

    # Vth assignment.
    assignment_rounds: int = 4
    # The assignment runs against a slightly tightened period so that
    # pre-route estimation error, holder loading and CTS skew cannot
    # break post-route timing closure.
    assignment_guardband: float = 0.04

    # Virtual-ground optimizer (§3 constraints).  Matches the bounce
    # assumed when the MT library was characterized.
    bounce_limit_fraction: float = 0.04    # of Vdd
    max_rail_length_um: float = 400.0
    max_cells_per_switch: int = 64

    # MTE buffering.
    mte_fanout_limit: int = 16
    mte_buffer_cell: str = "BUF_X8_HVT"

    # CTS.
    cts_fanout_limit: int = 8
    cts_buffer_cell: str = "BUF_X4_HVT"

    # ECO.
    hold_fix_buffer_cell: str = "BUF_X1_HVT"
    max_hold_fix_passes: int = 3

    # Simultaneity model of the VGND cluster current (overrides the
    # repro.vgnd.bounce defaults): the fraction of summed member peak
    # current flowing at once is max(n^-exponent, floor).
    simultaneity_exponent: float = SIMULTANEITY_EXPONENT
    simultaneity_floor: float = SIMULTANEITY_FLOOR

    def __post_init__(self):
        if not _is_number(self.timing_margin) \
                or not 0.0 <= self.timing_margin < math.inf:
            raise ConfigError(
                "timing_margin",
                f"must be a finite number >= 0, got {self.timing_margin!r}")
        if self.clock_period_ns is not None and self.clock_period_ns <= 0:
            raise ConfigError(
                "clock_period_ns",
                f"must be positive, got {self.clock_period_ns!r}")
        if not _is_number(self.utilization) \
                or not MIN_UTILIZATION <= self.utilization <= 1.0:
            raise ConfigError(
                "utilization",
                f"must be in [{MIN_UTILIZATION}, 1], "
                f"got {self.utilization!r}")
        if not _is_number(self.aspect_ratio) \
                or not 0.0 < self.aspect_ratio < math.inf:
            raise ConfigError(
                "aspect_ratio",
                f"must be a finite number > 0, got {self.aspect_ratio!r}")
        if not isinstance(self.placer_iterations, int) \
                or isinstance(self.placer_iterations, bool) \
                or self.placer_iterations < 0:
            raise ConfigError(
                "placer_iterations",
                f"must be an int >= 0, got {self.placer_iterations!r}")
        if not _is_number(self.assignment_guardband) \
                or not 0.0 <= self.assignment_guardband < 1.0:
            raise ConfigError(
                "assignment_guardband",
                f"must be in [0, 1), got {self.assignment_guardband!r}")
        if not 0.0 < self.bounce_limit_fraction < 0.5:
            raise ConfigError(
                "bounce_limit_fraction",
                f"must be in (0, 0.5), got {self.bounce_limit_fraction!r}")
        if self.compute_backend not in BACKENDS:
            raise ConfigError(
                "compute_backend",
                f"unknown backend {self.compute_backend!r}; "
                f"known: {BACKENDS}")
        if not 0.0 <= self.simultaneity_exponent <= 1.0:
            raise ConfigError(
                "simultaneity_exponent",
                f"must be in [0, 1], got {self.simultaneity_exponent!r}")
        if not 0.0 < self.simultaneity_floor <= 1.0:
            raise ConfigError(
                "simultaneity_floor",
                f"must be in (0, 1], got {self.simultaneity_floor!r}")

    def bounce_limit_v(self, vdd: float) -> float:
        return self.bounce_limit_fraction * vdd


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)
