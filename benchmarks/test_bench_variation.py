"""Variation-engine throughput benchmarks.

Two hot paths of the new subsystem, with wall-clocks and work counts
landing in ``BENCH_variation.json`` (via :mod:`recorder`) so the
performance trajectory is machine-readable across PRs:

* corner-library derivation over the full 27-corner grid (the setup
  cost of a production signoff sweep);
* Monte-Carlo sampling throughput, leakage-only and with per-sample
  incremental STA.

Assertions pin qualitative shape (monotone corner orderings, sampling
determinism).  The one wall-clock gate is the batched signoff's 4x
floor, a same-process ratio read as the median of alternating pairs —
CI runners are too noisy for absolute timing gates.
"""

import statistics
import time

from repro.benchcircuits.suite import load_circuit
from repro.liberty.library import VARIANT_LVT
from repro.liberty.synth import build_default_library
from repro.netlist.techmap import technology_map
from repro.timing.constraints import Constraints
from repro.timing.sta import TimingAnalyzer
from repro.variation.corners import derive_corner_library, standard_corners
from repro.variation.montecarlo import McConfig, MonteCarloEngine, summarize

from conftest import run_once
from recorder import record

CIRCUIT = "c432"
MC_SAMPLES = 200
MC_TIMING_SAMPLES = 12
#: Timed loop/batched signoff pairs; the floor reads their median ratio.
SIGNOFF_REPEATS = 3


def _mapped(library):
    netlist = load_circuit(CIRCUIT)
    technology_map(netlist, library, VARIANT_LVT)
    probe = TimingAnalyzer(netlist, library,
                           Constraints(clock_period=1000.0)).run()
    period = (1000.0 - probe.wns) * 1.15
    return netlist, Constraints(clock_period=period)


def test_bench_corner_grid(benchmark, library):
    """Derive + leakage-evaluate the full 27-corner grid."""
    corners = standard_corners(library.tech)

    def grid():
        from repro.power.leakage import LeakageAnalyzer

        netlist, _ = _mapped(library)
        started = time.perf_counter()
        leakage = {}
        for name, corner in corners.items():
            corner_library = derive_corner_library(library, corner)
            leakage[name] = LeakageAnalyzer(
                netlist, corner_library).standby_leakage().total_nw
        return leakage, time.perf_counter() - started

    leakage, elapsed = run_once(benchmark, grid)

    # Physical orderings across the grid (fixed VDD/temp slices).
    vdd = library.tech.vdd
    assert leakage[f"ss_{vdd:.2f}v_125c"] < leakage[f"tt_{vdd:.2f}v_125c"] \
        < leakage[f"ff_{vdd:.2f}v_125c"]
    assert leakage[f"tt_{vdd:.2f}v_m40c"] < leakage[f"tt_{vdd:.2f}v_25c"] \
        < leakage[f"tt_{vdd:.2f}v_125c"]

    metrics = {
        "circuit": CIRCUIT,
        "corners": len(corners),
        "grid_s": round(elapsed, 4),
        "corners_per_s": round(len(corners) / max(elapsed, 1e-9), 2),
    }
    benchmark.extra_info.update(metrics)
    record("corner_grid", metrics)
    print(f"\n{len(corners)} corners derived+evaluated in {elapsed:.3f}s")


def test_bench_batched_signoff(benchmark, library):
    """Corner-batched signoff vs the sequential loop on the full grid.

    The batched floor IS asserted: the median wall-clock *ratio* of
    :data:`SIGNOFF_REPEATS` loop/batched pairs timed in alternating arm
    order, in one process, so shared-runner noise largely cancels.
    Every batched run is cold (it builds its own array view).
    """
    import pytest

    pytest.importorskip("numpy")

    from repro.config import FlowConfig, Technique
    from repro.core.flow import SelectiveMtFlow
    from repro.variation.corners import derive_corner_library_cached
    from repro.variation.signoff import (
        evaluate_corners,
        evaluate_corners_batched,
    )

    corners = standard_corners(library.tech)
    names = tuple(corners)

    def signoff_both():
        result = SelectiveMtFlow(
            load_circuit(CIRCUIT), library, Technique.IMPROVED_SMT,
            FlowConfig(timing_margin=0.10)).run()

        # Library derivation is timed apart: the corner memo pays it
        # once per process, whichever evaluation strategy follows.
        started = time.perf_counter()
        for corner in corners.values():
            derive_corner_library_cached(library, corner)
        derive_s = time.perf_counter() - started

        kwargs = dict(
            parasitics=result.parasitics, network=result.network,
            clock_arrivals=(result.cts.clock_arrivals
                            if result.cts else None),
            compute_backend="numpy")
        # The loop pays one nominal lowering PER corner, a batched
        # signoff one in all.
        arms = {
            "loop": lambda: evaluate_corners(
                result.netlist, library, names, result.constraints,
                **kwargs),
            "batched": lambda: evaluate_corners_batched(
                result.netlist, library, names, result.constraints,
                **kwargs),
        }
        outcomes, seconds = {}, {"loop": [], "batched": []}
        for repeat in range(SIGNOFF_REPEATS):
            order = ("loop", "batched") if repeat % 2 == 0 \
                else ("batched", "loop")
            for arm in order:
                started = time.perf_counter()
                outcomes[arm] = arms[arm]()
                seconds[arm].append(time.perf_counter() - started)
        return outcomes["loop"], outcomes["batched"], derive_s, seconds

    loop, batched, derive_s, seconds = run_once(benchmark, signoff_both)

    # Per-corner bit-identity: the batched pass is an evaluation
    # strategy, not an approximation.
    for name in names:
        assert batched[name].wns == loop[name].wns
        assert batched[name].hold_wns == loop[name].hold_wns
        assert batched[name].leakage_nw == loop[name].leakage_nw

    speedups = [loop_s / max(cold_s, 1e-9) for loop_s, cold_s
                in zip(seconds["loop"], seconds["batched"])]
    speedup = statistics.median(speedups)
    loop_s = statistics.median(seconds["loop"])
    cold_s = statistics.median(seconds["batched"])
    metrics = {
        "circuit": CIRCUIT,
        "corners": len(names),
        "derive_s": round(derive_s, 4),
        "loop_s": round(loop_s, 4),
        "loop_s_repeats": [round(each, 4) for each in seconds["loop"]],
        "loop_corners_per_s": round(len(names) / max(loop_s, 1e-9), 2),
        "batched_cold_s": round(cold_s, 4),
        "batched_cold_s_repeats": [round(each, 4)
                                   for each in seconds["batched"]],
        "batched_corners_per_s": round(
            len(names) / max(cold_s, 1e-9), 2),
        "batched_speedup": round(speedup, 2),
        "batched_speedups": [round(each, 2) for each in speedups],
    }
    benchmark.extra_info.update(metrics)
    record("batched_signoff", metrics)
    print(f"\n{len(names)} corners: loop {loop_s:.3f}s vs batched "
          f"{cold_s:.3f}s ({speedup:.1f}x, pairs {speedups})")

    # Floor: one stacked array pass must beat K sequential STAs by 4x
    # (the trajectory target is 10x over the PR-5 loop baseline).
    assert speedup >= 4.0, \
        f"batched signoff {speedup:.1f}x < 4x (pairs: {speedups})"


def test_bench_montecarlo_throughput(benchmark, library):
    """Leakage-only and timing-enabled sampling rates."""
    netlist, constraints = _mapped(library)

    def sample_all():
        leak_engine = MonteCarloEngine(
            netlist, library, config=McConfig(samples=MC_SAMPLES, seed=7,
                                              timing=False))
        started = time.perf_counter()
        leak_samples = leak_engine.run()
        leak_elapsed = time.perf_counter() - started

        sta_engine = MonteCarloEngine(
            netlist, library,
            config=McConfig(samples=MC_TIMING_SAMPLES, seed=7, timing=True),
            constraints=constraints)
        started = time.perf_counter()
        sta_samples = sta_engine.run()
        sta_elapsed = time.perf_counter() - started
        return leak_samples, leak_elapsed, sta_samples, sta_elapsed, \
            sta_engine.session_stats

    leak_samples, leak_elapsed, sta_samples, sta_elapsed, sta_stats = \
        run_once(benchmark, sample_all)

    # Determinism: re-evaluating a sample reproduces it exactly.
    redo = MonteCarloEngine(
        netlist, library,
        config=McConfig(samples=MC_SAMPLES, seed=7, timing=False))
    assert redo.sample(5).leakage_nw == leak_samples[5].leakage_nw

    stats = summarize(leak_samples)
    # Log-normal shape: the mean sits above the median.
    assert stats.mean_nw > stats.p50_nw

    metrics = {
        "circuit": CIRCUIT,
        "leakage_samples": MC_SAMPLES,
        "leakage_s": round(leak_elapsed, 4),
        "leakage_samples_per_s": round(
            MC_SAMPLES / max(leak_elapsed, 1e-9), 1),
        "sta_samples": MC_TIMING_SAMPLES,
        "sta_s": round(sta_elapsed, 4),
        "sta_samples_per_s": round(
            MC_TIMING_SAMPLES / max(sta_elapsed, 1e-9), 2),
        "sta_full_runs": sta_stats.full_runs,
        "sta_incremental_runs": sta_stats.incremental_runs,
        "mean_nw": round(stats.mean_nw, 4),
        "p50_nw": round(stats.p50_nw, 4),
        "p99_nw": round(stats.p99_nw, 4),
    }
    benchmark.extra_info.update(metrics)
    record("montecarlo", metrics)
    print(f"\nleakage-only: {MC_SAMPLES} samples in {leak_elapsed:.3f}s; "
          f"with STA: {MC_TIMING_SAMPLES} samples in {sta_elapsed:.3f}s")
