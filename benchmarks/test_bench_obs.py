"""Observability overhead: the disabled fast path must stay free.

Records ``BENCH_obs.json`` (see ``recorder.json_path``):

* ``span_site`` — nanoseconds per *disabled* span site (the shared
  null object plus the kwargs dict the call site builds), measured
  over a tight loop;
* ``sta_10k`` — one full STA propagation on a generated 10k-instance
  circuit, tracing disabled vs enabled, plus the span count an
  enabled run produces.

Asserted bar (the tentpole's acceptance criterion): the estimated
disabled-tracing overhead — spans per STA run x disabled site cost,
over the run's wall-clock — stays **under 2 %**.  The enabled run
gets a loose sanity factor only; recording a handful of spans is not
the hot path, the disabled default is.
"""

from __future__ import annotations

import time

import pytest

from recorder import json_path, record

from repro.benchcircuits.generator import GeneratorConfig, generate_circuit
from repro.liberty.library import VARIANT_LVT
from repro.netlist.techmap import technology_map
from repro.obs import spans
from repro.timing.constraints import Constraints
from repro.timing.session import TimingSession

SIZE = 10_000
CLOCK_PERIOD_NS = 6.0
SITE_ITERS = 100_000
ROUNDS = 3
OVERHEAD_BUDGET = 0.02


@pytest.fixture(autouse=True)
def clean_tracer():
    spans.reset()
    spans.disable()
    yield
    spans.reset()
    spans.disable()


@pytest.fixture(scope="module")
def netlist(library):
    config = GeneratorConfig(
        n_gates=SIZE, n_inputs=64, n_outputs=32, n_ffs=32,
        depth=max(12, SIZE // 400), seed=3)
    built = generate_circuit(f"obsbench{SIZE}", config)
    technology_map(built, library, VARIANT_LVT)
    return built


def _full_sta_seconds(session: TimingSession, round_index: int) -> float:
    """One full propagation, forced by dirtying every derate (the
    per-round epsilon keeps consecutive rounds from hitting the
    clean-session cache)."""
    epsilon = 1e-9 * (round_index + 1)
    session.set_derates({name: 1.0 + epsilon for name in
                         session.netlist.instances})
    started = time.perf_counter()
    session.report()
    return time.perf_counter() - started


def _disabled_site_ns() -> float:
    """Cost of one instrumented call site with tracing off."""
    assert not spans.is_enabled()
    started = time.perf_counter()
    for _ in range(SITE_ITERS):
        with spans.span("bench.site", instances=SIZE):
            pass
    return (time.perf_counter() - started) / SITE_ITERS * 1e9


def test_bench_disabled_overhead_under_two_percent(netlist, library):
    session = TimingSession(netlist, library,
                            Constraints(clock_period=CLOCK_PERIOD_NS))
    session.report()   # build once: steady state

    disabled_s = min(_full_sta_seconds(session, index)
                     for index in range(ROUNDS))

    spans.enable()
    enabled_s = min(_full_sta_seconds(session, ROUNDS + index)
                    for index in range(ROUNDS))
    spans_per_run = sum(1 for root in spans.take_records()
                        for _ in root.walk()) / ROUNDS
    spans.disable()

    site_ns = _disabled_site_ns()
    overhead = (spans_per_run * site_ns * 1e-9) / disabled_s

    record("span_site", {
        "disabled_ns_per_site": round(site_ns, 1),
        "iters": SITE_ITERS,
    }, path=json_path("obs"))
    record("sta_10k", {
        "instances": len(netlist.instances),
        "disabled_full_s": round(disabled_s, 4),
        "enabled_full_s": round(enabled_s, 4),
        "spans_per_run": round(spans_per_run, 1),
        "disabled_overhead_pct": round(100 * overhead, 4),
        "enabled_ratio": round(enabled_s / disabled_s, 3),
    }, path=json_path("obs"))

    assert spans_per_run >= 1, "enabled run recorded no spans"
    assert overhead < OVERHEAD_BUDGET, \
        f"disabled tracing overhead {100 * overhead:.3f}% >= " \
        f"{100 * OVERHEAD_BUDGET:.0f}% on the {SIZE}-instance STA bench"
    # Recording a handful of spans must not distort the run either.
    assert enabled_s < disabled_s * 2.0
