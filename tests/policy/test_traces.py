"""Trace ingestion: parsing, quantile-grid reduction, bootstrap.

The hypothesis block pins the reduction's contract: deterministic,
insensitive to input order, and total-idle-time preserving — the
properties that let an empirical scenario ride the batched kernel
without any per-backend trace handling.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.policy.traces import (
    IdleTrace,
    bootstrap_grids,
    confidence_band,
    load_trace,
    parse_trace,
    quantile_grid,
    trace_scenario,
)

INTERVALS = st.lists(
    st.floats(min_value=1.0, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=200)


# --- quantile-grid properties (hypothesis) -----------------------------------


@given(INTERVALS, st.integers(min_value=1, max_value=32))
@settings(max_examples=200, deadline=None)
def test_grid_deterministic_and_order_insensitive(intervals, points):
    grid = quantile_grid(intervals, points)
    assert grid == quantile_grid(intervals, points)
    assert grid == quantile_grid(list(reversed(intervals)), points)
    assert grid == quantile_grid(sorted(intervals), points)


@given(INTERVALS, st.integers(min_value=1, max_value=32))
@settings(max_examples=200, deadline=None)
def test_grid_preserves_total_idle_time(intervals, points):
    grid = quantile_grid(intervals, points)
    # Weighted grid mean * population == sum of intervals: the trace's
    # total idle time survives the reduction to float rounding.
    total = sum(d * w for d, w in grid) * len(intervals)
    assert math.isclose(total, sum(intervals),
                        rel_tol=1e-9, abs_tol=1e-9)


@given(INTERVALS, st.integers(min_value=1, max_value=32))
@settings(max_examples=200, deadline=None)
def test_grid_shape_invariants(intervals, points):
    grid = quantile_grid(intervals, points)
    assert len(grid) == min(points, len(intervals))
    assert math.isclose(sum(w for _, w in grid), 1.0, rel_tol=1e-9)
    durations = [d for d, _ in grid]
    assert durations == sorted(durations)  # quantiles ascend
    assert all(w > 0.0 for _, w in grid)


def test_grid_bucket_of_equal_values_does_not_round_below_them():
    # The last bucket holds three equal values whose float sum,
    # divided by three, rounds one ulp below them: unclamped, the last
    # quantile descended below the middle one.
    value = 349525.9223764794
    grid = quantile_grid([1.0, 1.0] + [value] * 5, 3)
    durations = [d for d, _ in grid]
    assert durations == sorted(durations)
    assert durations[-1] == value


def test_grid_rejects_empty_and_bad_points():
    with pytest.raises(ConfigError):
        quantile_grid([])
    with pytest.raises(ConfigError):
        quantile_grid([1.0], points=0)


# --- parsing -----------------------------------------------------------------


def test_line_format_with_comments_and_blanks():
    trace = parse_trace("# header\n100\n\n 200 # inline\n300\n",
                        name="t")
    assert trace.intervals_ns == (100.0, 200.0, 300.0)
    assert trace.name == "t"
    assert trace.active_ns == 0.0


def test_line_format_error_names_the_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_trace("100\n200\nnot-a-number\n")


def test_json_format_with_run_length_pairs():
    trace = parse_trace(
        '{"name": "hot", "active_ns": 50.0,'
        ' "intervals_ns": [100.0, [250.0, 3], 400.0]}')
    assert trace.name == "hot"
    assert trace.active_ns == 50.0
    assert trace.intervals_ns == (100.0, 250.0, 250.0, 250.0, 400.0)


def test_json_format_rejects_bad_entries():
    with pytest.raises(ConfigError, match="run-length count"):
        parse_trace('{"intervals_ns": [[100.0, 0]]}')
    with pytest.raises(ConfigError, match="pairs"):
        parse_trace('{"intervals_ns": [[100.0, 2, 3]]}')
    with pytest.raises(ConfigError, match="intervals_ns"):
        parse_trace('{"name": "empty"}')
    with pytest.raises(ConfigError, match="invalid trace JSON"):
        parse_trace("{not json")


def test_load_trace_uses_file_stem(tmp_path):
    path = tmp_path / "bursty.trace"
    path.write_text("10\n20\n30\n", encoding="utf-8")
    trace = load_trace(path)
    assert trace.name == "bursty"
    assert trace.intervals_ns == (10.0, 20.0, 30.0)
    with pytest.raises(ConfigError, match="cannot read"):
        load_trace(tmp_path / "missing.trace")


def test_trace_validation():
    with pytest.raises(ConfigError):
        IdleTrace(name="t", intervals_ns=())
    with pytest.raises(ConfigError):
        IdleTrace(name="t", intervals_ns=(0.0,))
    with pytest.raises(ConfigError):
        IdleTrace(name="t", intervals_ns=(1.0,), active_ns=-1.0)


# --- scenario bridge ---------------------------------------------------------


def test_trace_scenario_is_empirical():
    trace = IdleTrace(name="t", intervals_ns=tuple(
        float(v) for v in range(100, 200)), active_ns=50.0)
    scenario = trace_scenario(trace, quantile_points=8)
    assert scenario.distribution == "empirical"
    assert scenario.idle_points() == scenario.points
    assert len(scenario.points) == 8
    assert math.isclose(scenario.idle_ns, trace.mean_idle_ns,
                        rel_tol=1e-9)
    assert scenario.active_ns == 50.0


def test_trace_scenario_needs_an_active_burst():
    trace = IdleTrace(name="t", intervals_ns=(100.0, 200.0))
    with pytest.raises(ConfigError, match="active"):
        trace_scenario(trace)
    scenario = trace_scenario(trace, active_ns=25.0)
    assert scenario.active_ns == 25.0


# --- bootstrap ---------------------------------------------------------------


def test_bootstrap_is_seeded_and_order_insensitive():
    intervals = tuple(float(v) for v in range(50, 150))
    trace = IdleTrace(name="t", intervals_ns=intervals)
    shuffled = IdleTrace(
        name="t", intervals_ns=tuple(reversed(intervals)))
    grids = bootstrap_grids(trace, resamples=16, seed=7)
    assert grids == bootstrap_grids(trace, resamples=16, seed=7)
    assert grids == bootstrap_grids(shuffled, resamples=16, seed=7)
    assert grids != bootstrap_grids(trace, resamples=16, seed=8)
    assert all(len(g) == len(grids[0]) for g in grids)


def test_confidence_band_brackets_per_point():
    trace = IdleTrace(name="t", intervals_ns=tuple(
        float(v) for v in range(10, 300, 7)))
    band = confidence_band(trace, resamples=32, seed=3,
                           quantile_points=8)
    assert len(band.low_ns) == len(band.grid)
    assert len(band.high_ns) == len(band.grid)
    for low, high in zip(band.low_ns, band.high_ns):
        assert low <= high
    with pytest.raises(ConfigError):
        confidence_band(trace, confidence=1.5)
