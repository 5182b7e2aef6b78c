"""Idle-interval traces: empirical workloads for the scenario engine.

Real power management is driven by measured idle-interval traces, not
hand-written duty cycles.  This module ingests such traces in two
formats and reduces them to the deterministic ``(duration, weight)``
quantile grids :class:`~repro.standby.scenario.PowerModeScenario`
already speaks — so a trace flows through the batched scenario kernel
unchanged, on either compute backend.

**Formats.**  The line format is one idle interval (ns) per line, with
``#`` comments and blank lines ignored.  The compact JSON format is an
object ``{"name": ..., "active_ns": ..., "intervals_ns": [...]}``
whose entries are either plain durations or ``[duration, count]``
run-length pairs (the compact part).

**Reduction.**  :func:`quantile_grid` sorts the intervals and splits
them into (up to) ``n`` contiguous, equally-populated buckets; each
bucket contributes one point at its mean duration, weighted by its
population.  The reduction is deterministic, insensitive to the input
order, and preserves the trace's total idle time to float rounding —
properties the hypothesis suite in ``tests/policy`` pins down.

**Confidence.**  :func:`bootstrap_grids` resamples the trace with a
seeded :class:`random.Random` and re-reduces each resample, giving a
deterministic family of grids; :func:`confidence_band` collapses them
into per-quantile (low, high) duration bands.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import random

from repro.errors import ConfigError
from repro.standby.scenario import PowerModeScenario

#: Default number of quantile-grid points a trace is reduced to.
DEFAULT_QUANTILE_POINTS = 16


@dataclasses.dataclass(frozen=True)
class IdleTrace:
    """One measured idle-interval trace.

    ``active_ns`` is the mean active burst between idles when the
    trace carries it (the JSON format does); 0.0 means unknown — the
    consumer must supply one when building a scenario.
    """

    name: str
    intervals_ns: tuple[float, ...]
    active_ns: float = 0.0

    def __post_init__(self):
        if not self.name:
            raise ConfigError("name", "trace needs a non-empty name")
        if not self.intervals_ns:
            raise ConfigError(
                "intervals_ns", "trace carries no idle intervals")
        for value in self.intervals_ns:
            if not value > 0.0:
                raise ConfigError(
                    "intervals_ns",
                    f"idle intervals must be positive, got {value!r}")
        if self.active_ns < 0.0:
            raise ConfigError(
                "active_ns",
                f"must be non-negative, got {self.active_ns!r}")

    @property
    def total_idle_ns(self) -> float:
        return sum(self.intervals_ns)

    @property
    def mean_idle_ns(self) -> float:
        return self.total_idle_ns / len(self.intervals_ns)


# --- parsing -----------------------------------------------------------------


def parse_trace(text: str, name: str = "trace") -> IdleTrace:
    """Parse a trace from either supported format (auto-detected)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(stripped, name)
    return _parse_lines(text, name)


def load_trace(path: str | pathlib.Path) -> IdleTrace:
    """Read a trace file; the default name is the file stem."""
    path = pathlib.Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(
            "trace_file", f"cannot read {str(path)!r}: {exc}") from exc
    return parse_trace(text, name=path.stem)


def _parse_lines(text: str, name: str) -> IdleTrace:
    intervals: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            intervals.append(float(line))
        except ValueError:
            raise ConfigError(
                "trace_file",
                f"line {lineno}: expected one idle interval (ns), "
                f"got {line!r}") from None
    return IdleTrace(name=name, intervals_ns=tuple(intervals))


def _parse_json(text: str, name: str) -> IdleTrace:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "trace_file", f"invalid trace JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(
            "trace_file",
            f"trace JSON must be an object, got "
            f"{type(payload).__name__}")
    entries = payload.get("intervals_ns")
    if not isinstance(entries, list):
        raise ConfigError(
            "trace_file", "trace JSON needs an 'intervals_ns' list")
    intervals: list[float] = []
    for entry in entries:
        if _is_number(entry):
            intervals.append(float(entry))
        elif isinstance(entry, list) and len(entry) == 2 \
                and _is_number(entry[0]):
            duration, count = entry
            if not isinstance(count, int) or count < 1:
                raise ConfigError(
                    "trace_file",
                    f"run-length count must be a positive int, "
                    f"got {count!r}")
            intervals.extend([float(duration)] * count)
        else:
            raise ConfigError(
                "trace_file",
                f"intervals are durations or [duration, count] "
                f"pairs, got {entry!r}")
    active_ns = payload.get("active_ns", 0.0)
    if not _is_number(active_ns):
        raise ConfigError(
            "trace_file", f"active_ns must be a number, got {active_ns!r}")
    return IdleTrace(
        name=str(payload.get("name", name)) or name,
        intervals_ns=tuple(intervals),
        active_ns=float(active_ns))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# --- reduction ---------------------------------------------------------------


def quantile_grid(intervals_ns,
                  points: int = DEFAULT_QUANTILE_POINTS
                  ) -> tuple[tuple[float, float], ...]:
    """Reduce intervals to a deterministic (duration, weight) grid.

    The sorted intervals are split into up to ``points`` contiguous
    buckets of (near-)equal population; each bucket becomes one point
    at its mean duration, weighted ``population / total``.  Sorting
    first makes the grid order-insensitive; bucket means make the
    weighted grid mean equal the trace mean (so total idle time over
    any horizon is preserved to float rounding).
    """
    if points < 1:
        raise ConfigError(
            "points", f"needs at least one, got {points!r}")
    ordered = sorted(intervals_ns)
    total = len(ordered)
    if total == 0:
        raise ConfigError("intervals_ns", "no intervals to reduce")
    buckets = min(points, total)
    grid: list[tuple[float, float]] = []
    for b in range(buckets):
        start = (b * total) // buckets
        stop = ((b + 1) * total) // buckets
        acc = 0.0
        for index in range(start, stop):
            acc += ordered[index]
        count = stop - start
        # Clamp: the rounded mean of equal values can land just below
        # them, which would let the quantiles descend.
        mean = min(max(acc / count, ordered[start]), ordered[stop - 1])
        grid.append((mean, count / total))
    return tuple(grid)


def trace_scenario(trace: IdleTrace, active_ns: float | None = None,
                   quantile_points: int = DEFAULT_QUANTILE_POINTS,
                   horizon_ns: float = 1e9,
                   name: str | None = None) -> PowerModeScenario:
    """Build an ``empirical`` scenario from a trace.

    ``active_ns`` falls back to the trace's own value; one of the two
    must be positive (the duty cycle needs an active burst length).
    ``idle_ns`` is the grid's weighted mean, so the scenario's
    sleep-event count matches the trace's idle/active cadence.
    """
    active = trace.active_ns if active_ns is None else active_ns
    if active <= 0.0:
        raise ConfigError(
            "active_ns",
            f"trace {trace.name!r} carries no active burst length; "
            f"pass active_ns explicitly")
    grid = quantile_grid(trace.intervals_ns, quantile_points)
    mean = 0.0
    for duration, weight in grid:
        mean += duration * weight
    return PowerModeScenario(
        name=name or trace.name,
        active_ns=active,
        idle_ns=mean,
        distribution="empirical",
        quantile_points=len(grid),
        horizon_ns=horizon_ns,
        points=grid)


# --- bootstrap confidence ----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ConfidenceBand:
    """Per-quantile duration band from seeded bootstrap resampling."""

    resamples: int
    seed: int
    confidence: float
    #: The point-estimate grid of the trace itself.
    grid: tuple[tuple[float, float], ...]
    low_ns: tuple[float, ...]      # per grid point
    high_ns: tuple[float, ...]


def bootstrap_grids(trace: IdleTrace, resamples: int = 32,
                    seed: int = 1,
                    quantile_points: int = DEFAULT_QUANTILE_POINTS
                    ) -> list[tuple[tuple[float, float], ...]]:
    """Seeded bootstrap: resample-with-replacement, re-reduce.

    Draws come from the *sorted* intervals, so the family of grids —
    like the point estimate — does not depend on the trace's input
    order.  Resamples keep the original population, so every grid has
    the same number of points as the point estimate.
    """
    if resamples < 1:
        raise ConfigError(
            "resamples", f"needs at least one, got {resamples!r}")
    ordered = sorted(trace.intervals_ns)
    total = len(ordered)
    rng = random.Random(seed)
    grids = []
    for _ in range(resamples):
        sample = [ordered[rng.randrange(total)] for _ in range(total)]
        grids.append(quantile_grid(sample, quantile_points))
    return grids


def confidence_band(trace: IdleTrace, resamples: int = 32,
                    seed: int = 1,
                    quantile_points: int = DEFAULT_QUANTILE_POINTS,
                    confidence: float = 0.9) -> ConfidenceBand:
    """Bootstrap (low, high) duration bands around the quantile grid."""
    if not 0.0 < confidence < 1.0:
        raise ConfigError(
            "confidence",
            f"must be in (0, 1), got {confidence!r}")
    grid = quantile_grid(trace.intervals_ns, quantile_points)
    grids = bootstrap_grids(trace, resamples, seed,
                            quantile_points=len(grid))
    alpha = (1.0 - confidence) / 2.0
    lo_index = int(alpha * (resamples - 1))
    hi_index = (resamples - 1) - lo_index
    low: list[float] = []
    high: list[float] = []
    for p in range(len(grid)):
        durations = sorted(g[p][0] for g in grids)
        low.append(durations[lo_index])
        high.append(durations[hi_index])
    return ConfidenceBand(
        resamples=resamples, seed=seed, confidence=confidence,
        grid=grid, low_ns=tuple(low), high_ns=tuple(high))
