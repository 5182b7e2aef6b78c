"""The sleep-threshold policy model.

A *policy* decides when a power domain enters SLEEP: only when the
predicted idle interval is at least its threshold ``T``.  Against the
quantile-grid workload model this evaluates in closed form — no
simulation.  For a domain with leakage savings ``dP`` (nW), transition
overhead ``oh`` (ns) and cycle energy ``E`` (pJ), an idle interval of
duration ``d`` contributes

    dP * (d - oh) * 1e-6 - E     if d >= T, else 0      [pJ]

summed over the grid's (duration, weight) points.  The clairvoyant
per-cluster policy the standby engine reports is the special case
``T = break-even``; a real controller must commit to one threshold per
domain, which is exactly the candidate space the optimizer sweeps.

The break-even time itself is the closed form from the engine
(:func:`repro.standby.engine.break_even_ns`, re-exported here):

    T_be = oh + E / (dP * 1e-6)

and candidate thresholds are generated as a deterministic log-spaced
factor grid around it (:func:`threshold_factors`), so the sweep
brackets too-eager and too-lazy policies on both sides.
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import ConfigError
from repro.standby.engine import break_even_ns  # noqa: F401

#: The factor-grid bracket around the break-even threshold.
FACTOR_LO = 0.25
FACTOR_HI = 8.0


@dataclasses.dataclass(frozen=True)
class SleepPolicy:
    """One candidate policy: a domain plan and per-domain thresholds.

    ``plan`` indexes the optimizer's evaluated
    :class:`~repro.policy.domains.DomainPlan` list; ``thresholds_ns``
    has one entry per domain of that plan — ``inf`` keeps the domain
    awake unconditionally.
    """

    plan: int
    thresholds_ns: tuple[float, ...]

    def __post_init__(self):
        if self.plan < 0:
            raise ConfigError(
                "plan", f"must be non-negative, got {self.plan!r}")
        if not self.thresholds_ns:
            raise ConfigError(
                "thresholds_ns", "policy needs at least one threshold")
        for value in self.thresholds_ns:
            if not value > 0.0:   # rejects NaN and non-positive
                raise ConfigError(
                    "thresholds_ns",
                    f"thresholds must be positive, got {value!r}")

    @property
    def sleeping_domains(self) -> int:
        """Domains this policy ever puts to sleep."""
        return sum(1 for t in self.thresholds_ns if math.isfinite(t))


def threshold_factors(count: int, lo: float = FACTOR_LO,
                      hi: float = FACTOR_HI) -> tuple[float, ...]:
    """A deterministic log-spaced factor grid over ``[lo, hi]``.

    Computed scalar-side once per sweep (transcendentals never enter
    the batched kernel, keeping the backends bit-identical).
    """
    if count < 1:
        raise ConfigError(
            "count", f"needs at least one factor, got {count!r}")
    if not 0.0 < lo <= hi:
        raise ConfigError(
            "lo", f"need 0 < lo <= hi, got ({lo!r}, {hi!r})")
    if count == 1:
        return (math.sqrt(lo * hi),)
    ratio = hi / lo
    return tuple(lo * ratio ** (i / (count - 1)) for i in range(count))
