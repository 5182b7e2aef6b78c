"""Power-mode scenarios: when does the design actually get to sleep?

A :class:`PowerModeScenario` is the workload side of the standby
question: how long the design computes (ACTIVE), how long it idles
between bursts, and how those idle intervals are distributed.  The
power-management controller the scenario models is the standard
three-state machine:

    ACTIVE --(burst ends)--> STANDBY --(sleep entry)--> SLEEP
    SLEEP --(wake request)--> STANDBY --(VGND settled)--> ACTIVE

STANDBY is the shallow state (clocks gated, switches still on) the
design crosses while the VGND rails charge or discharge; its duration
is the transient latency computed by
:mod:`repro.standby.transient` / :mod:`repro.standby.schedule`.

**Distributions are deterministic quantile grids.**  Instead of
sampling, an idle-interval distribution is represented by a small
fixed set of ``(duration, weight)`` points (exact for fixed intervals,
mid-quantile discretization for exponential ones, explicit points for
empirical trace-derived workloads — see :mod:`repro.policy.traces`).
That keeps the scenario engine's big batched computation pure
arithmetic — which is what makes the numpy and scalar backends
bit-identical.
"""

from __future__ import annotations

import dataclasses
import enum
import math

from repro.config import _integer, _number, check_fields
from repro.errors import ConfigError, StandbyError

#: Recognized idle-interval distributions.
DISTRIBUTIONS = ("fixed", "exponential", "empirical")

#: Relative slack allowed when empirical point weights are checked to
#: sum to one (they come from ``count / total`` divisions).
_WEIGHT_TOL = 1e-9


_positive = _number(lambda v: 0.0 < v < math.inf)


def _pairs(points) -> bool:
    """A sequence of (duration, weight) pairs of finite numbers > 0."""
    return isinstance(points, (tuple, list)) and all(
        isinstance(point, (tuple, list)) and len(point) == 2
        and _positive(point[0]) and _positive(point[1])
        for point in points)


def _json_number(value):
    """A JSON number as a float (an int too large for one reads as
    inf); anything else, a bool included, unconverted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    try:
        return float(value)
    except OverflowError:
        return math.inf


def points_from_json(points):
    """``points`` as JSON carries them: lists of pairs become tuples
    and numbers floats, while a string, a bool or a malformed pair
    passes through unconverted for the ``points`` check to reject."""
    if not isinstance(points, (list, tuple)):
        return points
    return tuple(tuple(map(_json_number, point))
                 if isinstance(point, (list, tuple)) else point
                 for point in points)


#: field -> (predicate, what a valid value is) for every
#: PowerModeScenario field.  Finite durations keep the savings kernel's
#: two bodies alike and the policy sweep's threshold ranks exact.
_CHECKS = {
    "name": (lambda value: isinstance(value, str) and bool(value),
             "a non-empty str"),
    "active_ns": (_positive, "a finite number > 0"),
    "idle_ns": (_positive, "a finite number > 0"),
    "distribution": (lambda value: value in DISTRIBUTIONS,
                     f"one of {DISTRIBUTIONS}"),
    "quantile_points": (_integer(lambda v: v >= 1), "an int >= 1"),
    "horizon_ns": (_positive, "a finite number > 0"),
    "points": (_pairs, "(duration, weight) pairs of finite numbers > 0"),
}


class PowerMode(enum.Enum):
    """The three controller states of the scenario state machine."""

    ACTIVE = "active"
    STANDBY = "standby"   # transitioning: clocks gated, rails moving
    SLEEP = "sleep"


@dataclasses.dataclass(frozen=True)
class PowerModeScenario:
    """One workload's duty-cycle and idle-interval description.

    ``active_ns`` / ``idle_ns`` are the (mean) burst and idle interval
    lengths; ``horizon_ns`` is the accounting window the engine
    projects savings over (default one second).
    """

    name: str
    active_ns: float
    idle_ns: float
    distribution: str = "fixed"
    quantile_points: int = 16
    horizon_ns: float = 1e9
    #: ``empirical`` only: the explicit (duration, weight) quantile
    #: grid, typically reduced from an idle-interval trace by
    #: :func:`repro.policy.traces.trace_scenario`.  Must be empty for
    #: the analytic distributions.
    points: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        check_fields(self, _CHECKS)
        if self.distribution == "empirical":
            self._check_points()
        elif self.points:
            raise ConfigError(
                "points",
                f"only the 'empirical' distribution carries explicit "
                f"points, got {len(self.points)} for "
                f"{self.distribution!r}")

    def _check_points(self):
        if not self.points:
            raise ConfigError(
                "points", "the 'empirical' distribution needs at "
                          "least one (duration, weight) point")
        total = 0.0
        for _duration, weight in self.points:
            total += weight
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ConfigError(
                "points", f"weights must sum to 1, got {total!r}")

    # --- duty accounting -----------------------------------------------------

    @property
    def duty_cycle(self) -> float:
        """Fraction of time the design is actively computing."""
        return self.active_ns / (self.active_ns + self.idle_ns)

    @property
    def sleep_events(self) -> float:
        """Idle intervals (= sleep opportunities) over the horizon."""
        return self.horizon_ns / (self.active_ns + self.idle_ns)

    def idle_points(self) -> tuple[tuple[float, float], ...]:
        """The idle-interval distribution as (duration, weight) points.

        ``fixed``: one point carrying all the weight.  ``exponential``
        with mean ``idle_ns``: mid-quantile durations
        ``-mean * ln(1 - (q + 0.5)/n)``, each weighted ``1/n`` —
        deterministic, and exact in the limit of many points.
        ``empirical``: the explicit trace-derived grid, verbatim.
        """
        if self.distribution == "fixed":
            return ((self.idle_ns, 1.0),)
        if self.distribution == "empirical":
            return self.points
        n = self.quantile_points
        weight = 1.0 / n
        return tuple(
            (-self.idle_ns * math.log(1.0 - (q + 0.5) / n), weight)
            for q in range(n))

    # --- the state machine ---------------------------------------------------

    def mode_at(self, t_ns: float, sleep_latency_ns: float,
                wake_latency_ns: float) -> PowerMode:
        """Controller state at time ``t`` for a fixed-interval cycle.

        One period is ``active -> standby (entry) -> sleep -> standby
        (wake) -> active``; when the idle interval is shorter than the
        combined transition latency the controller never reaches SLEEP
        and the whole idle interval is spent in STANDBY.
        """
        period = self.active_ns + self.idle_ns
        phase = t_ns % period if period > 0.0 else 0.0
        if phase < self.active_ns:
            return PowerMode.ACTIVE
        idle_phase = phase - self.active_ns
        overhead = sleep_latency_ns + wake_latency_ns
        if self.idle_ns <= overhead:
            return PowerMode.STANDBY
        if idle_phase < sleep_latency_ns:
            return PowerMode.STANDBY
        if idle_phase < self.idle_ns - wake_latency_ns:
            return PowerMode.SLEEP
        return PowerMode.STANDBY


def standard_scenarios() -> dict[str, PowerModeScenario]:
    """The built-in scenario set, name-keyed (insertion = report order).

    Spans the regimes that matter for break-even analysis: idle
    intervals from far below any plausible break-even time up to
    deeply idle, both fixed and exponentially distributed.
    """
    scenarios = [
        # Back-to-back bursts: idling 500 ns at a time, sleeping can
        # never amortize the transition energy.
        PowerModeScenario(name="always_on", active_ns=2_000.0,
                          idle_ns=500.0),
        # A streaming pipeline with short deterministic gaps.
        PowerModeScenario(name="streaming", active_ns=20_000.0,
                          idle_ns=50_000.0),
        # A 60 Hz frame renderer: compute 2 ms, idle the rest.
        PowerModeScenario(name="periodic_frame",
                          active_ns=2_000_000.0,
                          idle_ns=14_600_000.0),
        # Interactive device: bursty exponential idle, 100 us mean.
        PowerModeScenario(name="interactive", active_ns=50_000.0,
                          idle_ns=100_000.0,
                          distribution="exponential"),
        # Event-driven sensor hub: long exponential idle, 10 ms mean.
        PowerModeScenario(name="bursty", active_ns=100_000.0,
                          idle_ns=10_000_000.0,
                          distribution="exponential"),
        # Mostly asleep: 1 ms of work every 100 ms.
        PowerModeScenario(name="mostly_idle", active_ns=1_000_000.0,
                          idle_ns=99_000_000.0),
    ]
    return {scenario.name: scenario for scenario in scenarios}


def resolve_scenario(name: str) -> PowerModeScenario:
    """Look up a built-in scenario by name."""
    scenarios = standard_scenarios()
    try:
        return scenarios[name]
    except KeyError:
        raise StandbyError(
            f"unknown power-mode scenario {name!r}; known: "
            f"{', '.join(sorted(scenarios))}") from None
