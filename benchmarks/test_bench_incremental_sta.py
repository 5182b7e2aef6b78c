"""Incremental vs full STA on circuit A.

The Fig. 4 flow is STA-in-the-loop everywhere (assignment bisection,
setup/hold ECO), so timing analysis dominates Table 1 wall-clock.
This bench pins the TimingSession's two claims on the paper's
timing-tight circuit:

* the *assignment loop* (bisection over full-circuit swaps) gets
  cached structures + exact-cutoff passes: fewer full re-propagations and
  lower wall-clock than a fresh ``TimingAnalyzer`` per probe (the
  reference arm, :class:`FreshAnalyzerSession`), with a bit-identical
  assignment;
* the *ECO pattern* (small edit, re-probe) is where incremental STA
  shines: single-swap probes re-evaluate only what the swap changed.

Wall-clocks and propagation counts land in the bench JSON via
``extra_info`` so the speedup shows up in the ``BENCH_*.json``
trajectory.
"""

import statistics
import time

from repro.benchcircuits.suite import load_circuit
from repro.core.dual_vth import DualVthAssigner
from repro.liberty.library import VARIANT_HVT, VARIANT_LVT
from repro.netlist.techmap import technology_map
from repro.timing.constraints import Constraints
from repro.timing.session import TimingSession
from repro.timing.sta import TimingAnalyzer

from conftest import run_once
from recorder import record

CIRCUIT = "circuitA"
MARGIN = 0.09          # Table 1's circuit-A margin (timing-tight)
ECO_PROBES = 24
#: Assignment-loop (fresh analyzer, session) pairs; the arm that runs
#: first alternates, and the wall-clock floor reads the median ratio.
ASSIGNMENT_REPEATS = 3


class FreshAnalyzerSession(TimingSession):
    """Reference arm: every probe — full report or the bisection's
    ``wns()`` — is a from-scratch ``TimingAnalyzer`` run on the current
    netlist.  Edits still go through the session's edit API; its
    propagation state is never consulted."""

    def report(self):
        return TimingAnalyzer(
            self.netlist, self.library, self.constraints,
            parasitics=self.net_model.parasitics, derates=self.derates,
            clock_arrivals=self.clock_arrivals).run()

    def wns(self):
        return self.report().wns


def _prepared(library):
    netlist = load_circuit(CIRCUIT)
    technology_map(netlist, library, VARIANT_LVT)
    probe = TimingAnalyzer(netlist, library,
                           Constraints(clock_period=1000.0)).run()
    period = (1000.0 - probe.wns) * (1.0 + MARGIN)
    return netlist, Constraints(clock_period=period)


def _assignment_comparison(library, session_first: bool = False):
    full_netlist, constraints = _prepared(library)
    session_netlist = full_netlist.clone()
    sessions = {
        "full": FreshAnalyzerSession(full_netlist, library, constraints),
        "incremental": TimingSession(session_netlist, library, constraints),
    }
    order = ["full", "incremental"]
    if session_first:
        order.reverse()
    results, elapsed = {}, {}
    for arm in order:
        started = time.perf_counter()
        results[arm] = DualVthAssigner(sessions[arm]).run()
        elapsed[arm] = time.perf_counter() - started

    return {
        "full": results["full"],
        "incremental": results["incremental"],
        "session": sessions["incremental"],
        "full_s": elapsed["full"],
        "session_s": elapsed["incremental"],
        "netlists": (full_netlist, session_netlist),
        "constraints": constraints,
    }


def _eco_probe_comparison(library, netlist, constraints):
    """Single-swap / re-probe loops: fresh analyzer vs session."""
    candidates = []
    for inst in netlist.instances.values():
        cell = library.cells.get(inst.cell_name)
        if cell is None or cell.is_sequential:
            continue
        if cell.variant == VARIANT_LVT \
                and library.has_variant(cell, VARIANT_HVT):
            candidates.append(inst)
        if len(candidates) >= ECO_PROBES:
            break

    session = TimingSession(netlist, library, constraints)
    session.report()
    started = time.perf_counter()
    for inst in candidates:
        session.swap_variant(inst, VARIANT_HVT)
        session.report()
    session_elapsed = time.perf_counter() - started
    last_session_wns = session.report().wns

    for inst in candidates:      # restore
        session.swap_variant(inst, VARIANT_LVT)

    from repro.netlist.transform import swap_variant

    TimingAnalyzer(netlist, library, constraints).run()
    started = time.perf_counter()
    for inst in candidates:
        swap_variant(netlist, inst, library, VARIANT_HVT)
        last_full_wns = TimingAnalyzer(netlist, library, constraints).run().wns
    full_elapsed = time.perf_counter() - started
    for inst in candidates:
        swap_variant(netlist, inst, library, VARIANT_LVT)

    assert last_session_wns == last_full_wns
    return {
        "probes": len(candidates),
        "session_s": session_elapsed,
        "full_s": full_elapsed,
        "stats": session.stats,
    }


def test_bench_incremental_sta(benchmark, library):
    outcomes = run_once(benchmark, lambda: [
        _assignment_comparison(library, session_first=repeat % 2 == 1)
        for repeat in range(ASSIGNMENT_REPEATS)])

    for outcome in outcomes:
        full = outcome["full"]
        incremental = outcome["incremental"]
        stats = outcome["session"].stats

        # Same answer, by construction (the property tests pin
        # exactness; this pins it at assignment-loop scale).
        assert sorted(full.slow_instances) \
            == sorted(incremental.slow_instances)
        assert full.final_report.wns == incremental.final_report.wns

        # Fewer full re-propagations than the one-analyzer-per-probe
        # seed behavior (each of its sta_runs was a from-scratch
        # propagation).
        assert stats.full_runs < full.sta_runs
        assert stats.cached_reports + stats.incremental_runs > 0

    # The work counters are deterministic, so the last pair's (still
    # bound from the loop) stand for every pair.
    eco = _eco_probe_comparison(library, outcome["netlists"][1],
                                outcome["constraints"])

    speedups = [each["full_s"] / max(each["session_s"], 1e-9)
                for each in outcomes]
    speedup_assignment = statistics.median(speedups)
    full_s = statistics.median(each["full_s"] for each in outcomes)
    session_s = statistics.median(each["session_s"] for each in outcomes)
    speedup_eco = eco["full_s"] / max(eco["session_s"], 1e-9)
    metrics = {
        "circuit": CIRCUIT,
        "assignment_full_s": round(full_s, 4),
        "assignment_session_s": round(session_s, 4),
        "assignment_speedup": round(speedup_assignment, 3),
        "assignment_speedups": [round(each, 3) for each in speedups],
        "assignment_sta_runs": full.sta_runs,
        "session_full_runs": stats.full_runs,
        "session_incremental_runs": stats.incremental_runs,
        "session_cached_reports": stats.cached_reports,
        "forward_instances_saved": stats.forward_instances_saved,
        "eco_probes": eco["probes"],
        "eco_full_s": round(eco["full_s"], 4),
        "eco_session_s": round(eco["session_s"], 4),
        "eco_speedup": round(speedup_eco, 3),
        "eco_incremental_runs": eco["stats"].incremental_runs,
    }
    benchmark.extra_info.update(metrics)
    record("incremental_sta", metrics)
    print()
    print(f"assignment (median of {len(outcomes)}): full {full_s:.3f}s "
          f"vs session {session_s:.3f}s ({speedup_assignment:.2f}x; "
          f"each {', '.join(f'{each:.2f}x' for each in speedups)}); "
          f"{full.sta_runs} STA probes -> {stats.full_runs} full + "
          f"{stats.incremental_runs} incremental + "
          f"{stats.cached_reports} cached")
    print(f"eco probes: full {eco['full_s']:.3f}s vs "
          f"session {eco['session_s']:.3f}s ({speedup_eco:.2f}x over "
          f"{eco['probes']} single-swap probes)")

    # Gate on deterministic work counts, not absolute wall-clock: this
    # bench runs inside the tier-1 job, and timing assertions would
    # turn shared-runner noise into spurious CI failures.  The
    # wall-clock trajectory lives in the bench JSON via extra_info.
    assert eco["stats"].incremental_runs > 0
    assert eco["stats"].forward_instances_saved > 0

    # Floor for the assignment loop: the session must not run SLOWER
    # than one fresh analyzer per probe (a 0.992x regression shipped
    # once when over-threshold probes paid a full cone walk before
    # falling back; the budgeted BFS early-exit keeps that walk
    # bounded).  A same-process wall-clock *ratio* is asserted — both
    # numerator and denominator see the same runner load, so noise
    # largely cancels; the fix measures ~1.15x locally.  One pair read
    # as low as 0.91x on a loaded host, so the floor reads the median
    # of ASSIGNMENT_REPEATS pairs with alternating arm order.
    assert speedup_assignment >= 1.0, \
        f"assignment session {speedup_assignment:.3f}x slower than " \
        f"fresh analyzers (pairs: {speedups})"
