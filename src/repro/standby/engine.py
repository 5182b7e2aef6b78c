"""The batched power-mode scenario engine.

For every requested PVT corner the engine characterizes the VGND
network (:class:`~repro.standby.transient.TransientSolver`), builds
the staged wake-up schedule
(:class:`~repro.standby.schedule.RushScheduler`), and then evaluates
every power-mode scenario against every cluster:

    net savings per idle interval
        = sum over clusters k of
            max(0, dP_k * (T - overhead_k) * 1e-6 - E_k)   [pJ]

where ``dP_k`` is the cluster's leakage saved while asleep (nW),
``overhead_k`` its sleep-entry latency plus its *scheduled* wake
settle (ns), ``E_k`` its per-cycle transition energy (pJ), and ``T``
an idle-interval duration from the scenario's quantile grid
(nW x ns = 1e-6 pJ).  The max(0, .) is the per-cluster sleep policy:
a cluster that cannot pay for its transition over an interval simply
keeps its switch on.

**One kernel.**  :func:`savings` evaluates this formula for every
``(policy x corner x quantile-point)`` cell, with the sleep rule as
an argument: ``max(0, .)`` here and for the policy optimizer's
clairvoyant oracle, a per-cluster threshold gate for the optimizer's
candidate sweep (:mod:`repro.policy.optimize`, which also reuses this
engine's validation, corner prologue and scenario reduction).

**Backend contract.**  The scalar reference and the numpy body
perform *the same IEEE operations in the same order* — all
transcendentals are evaluated scalar-side (transients, quantile
grids), the batch is pure multiply/subtract/select, and cluster
accumulation is an ordered left-to-right reduction on both paths — so
``StandbyResult`` numbers are bit-identical across backends (enforced
by ``tests/standby`` and the golden fixtures).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Mapping, Sequence

from repro.compute import resolve_backend
from repro.config import Technique
from repro.errors import StandbyError
from repro.liberty.library import Library
from repro.netlist.core import Netlist
from repro.obs.spans import span
from repro.standby.scenario import PowerModeScenario
from repro.standby.schedule import (
    RushScheduler,
    WakeupSchedule,
    default_rush_budget_ma,
)
from repro.standby.transient import (
    DEFAULT_SETTLE_FRACTION,
    ClusterTransient,
    TransientSolver,
)
from repro.vgnd.network import VgndNetwork

#: nW x ns -> pJ.
_NW_NS_TO_PJ = 1e-6

#: The corner every default analysis runs at.
NOMINAL_CORNER = "tt_nom"


@dataclasses.dataclass(frozen=True)
class ScenarioOutcome:
    """One (scenario, corner) cell of the analysis grid."""

    scenario: str
    corner: str
    sleep_events: float            # idle intervals over the horizon
    savings_per_event_pj: float    # expected net savings per interval
    net_savings_pj: float          # over the scenario horizon
    savings_fraction: float        # of the always-on leakage energy
    break_even_ns: float           # network-level break-even interval
    worthwhile: bool               # net savings > 0


@dataclasses.dataclass(frozen=True)
class StandbyCornerRow:
    """The corner-dependent transition numbers (wake latency & co)."""

    corner: str
    wake_latency_ns: float         # staged-schedule makespan
    serial_wake_latency_ns: float  # daisy-chain reference
    sleep_latency_ns: float        # slowest cluster's entry
    peak_rush_ma: float
    rush_budget_ma: float
    bins: int
    cycle_energy_pj: float         # one full sleep/wake cycle
    sleep_leakage_nw: float
    active_leakage_nw: float
    break_even_ns: float


@dataclasses.dataclass(frozen=True)
class StandbyResult:
    """The full standby-transition signoff of one design."""

    circuit: str
    technique: Technique
    compute_backend: str
    clusters: int
    settle_fraction: float
    scenarios: tuple[str, ...]
    corners: tuple[str, ...]
    #: Transients and schedule of the FIRST configured corner (the
    #: convenience properties below read the same row; per-corner
    #: numbers live in corner_rows).
    transients: tuple[ClusterTransient, ...]
    schedule: WakeupSchedule
    corner_rows: tuple[StandbyCornerRow, ...]
    outcomes: tuple[ScenarioOutcome, ...]      # scenario-major order

    @property
    def wake_latency_ns(self) -> float:
        """Staged wake latency at the first configured corner."""
        return self.corner_rows[0].wake_latency_ns

    @property
    def peak_rush_ma(self) -> float:
        """Peak aggregate rush at the first configured corner."""
        return self.corner_rows[0].peak_rush_ma

    @property
    def break_even_ns(self) -> float:
        """Break-even idle interval at the first configured corner."""
        return self.corner_rows[0].break_even_ns

    def corner_row(self, corner: str) -> StandbyCornerRow:
        for row in self.corner_rows:
            if row.corner == corner:
                return row
        raise KeyError(f"no standby corner row for {corner!r}")

    def outcome(self, scenario: str, corner: str) -> ScenarioOutcome:
        for outcome in self.outcomes:
            if outcome.scenario == scenario and outcome.corner == corner:
                return outcome
        raise KeyError(f"no outcome for ({scenario!r}, {corner!r})")


# --- the savings kernel ------------------------------------------------------


def break_even_ns(dp_nw: float, overhead_ns: float,
                  energy_pj: float) -> float:
    """The idle duration at which sleeping becomes net-positive."""
    if dp_nw <= 0.0:
        return math.inf
    return overhead_ns + energy_pj / (dp_nw * _NW_NS_TO_PJ)


def savings(durations: Sequence[float],
            dp_nw: Sequence[Sequence[float]],
            energy_pj: Sequence[Sequence[float]],
            overhead_ns: Sequence[Sequence[Sequence[float]]],
            plan_of: Sequence[int] | None = None,
            thresholds: Sequence[Sequence[float]] | None = None,
            backend: str = "python") -> list[list[list[float]]]:
    """Net savings per (policy, corner, idle-interval point) [pJ].

    ``dp_nw``/``energy_pj`` are (corners x clusters) tables and
    ``overhead_ns`` a (plans x corners x clusters) table; policy ``i``
    charges the overheads of plan ``plan_of[i]`` (default: one policy
    per plan).  Cluster ``k`` contributes
    ``dp * (T - oh) * 1e-6 - E`` to a point of duration ``T``, selected
    by the sleep rule:

    * ``thresholds=None`` — ``max(value, 0)``: the cluster sleeps
      exactly when the interval pays (the standby engine and the
      clairvoyant oracle);
    * a (policies x clusters) threshold grid — ``value`` when
      ``T >= threshold``, else 0 (a committed sleep policy).

    Both bodies perform the same IEEE operations in the same order:
    the policy and corner axes only widen each numpy op, and clusters
    accumulate left to right on both, so the result is bit-identical
    across backends.
    """
    if plan_of is None:
        plan_of = range(len(overhead_ns))
    if backend == "numpy":
        return _savings_numpy(durations, dp_nw, energy_pj, overhead_ns,
                              plan_of, thresholds)
    return _savings_python(durations, dp_nw, energy_pj, overhead_ns,
                           plan_of, thresholds)


def _savings_python(durations, dp_nw, energy_pj, overhead_ns, plan_of,
                    thresholds) -> list[list[list[float]]]:
    # A skipped point keeps ``a`` where the numpy body adds 0.0; that
    # is bitwise the same because ``acc`` starts at +0.0 and a sum is
    # -0.0 only when both addends are.
    out: list[list[list[float]]] = []
    for i, plan in enumerate(plan_of):
        rows: list[list[float]] = []
        for dp_c, e_c, oh_c in zip(dp_nw, energy_pj, overhead_ns[plan]):
            acc = [0.0] * len(durations)
            for k, dp in enumerate(dp_c):
                oh = oh_c[k]
                energy = e_c[k]
                if thresholds is None:
                    acc = [a + value if (value := dp * (duration - oh)
                                         * _NW_NS_TO_PJ - energy) > 0.0
                           else a
                           for a, duration in zip(acc, durations)]
                else:
                    threshold = thresholds[i][k]
                    acc = [a + (dp * (duration - oh) * _NW_NS_TO_PJ
                                - energy)
                           if duration >= threshold else a
                           for a, duration in zip(acc, durations)]
            rows.append(acc)
        out.append(rows)
    return out


def _savings_numpy(durations, dp_nw, energy_pj, overhead_ns, plan_of,
                   thresholds) -> list[list[list[float]]]:
    import numpy as np

    d = np.asarray(durations, dtype=float)[None, None, :]       # (1, 1, N)
    dp = np.asarray(dp_nw, dtype=float)                         # (C, K)
    energy = np.asarray(energy_pj, dtype=float)                 # (C, K)
    oh = np.asarray(overhead_ns, dtype=float)[
        np.asarray(plan_of, dtype=int)]                         # (P, C, K)
    acc = np.zeros(oh.shape[:2] + d.shape[2:], dtype=float)    # (P, C, N)
    grid = None if thresholds is None \
        else np.asarray(thresholds, dtype=float)                # (P, K)
    zero = np.float64(0.0)
    for k in range(dp.shape[1]):
        value = dp[None, :, k, None] * (d - oh[:, :, k, None]) \
            * np.float64(_NW_NS_TO_PJ) - energy[None, :, k, None]
        if grid is None:
            acc = acc + np.maximum(value, zero)
        else:
            acc = acc + np.where(d >= grid[:, k, None, None], value, zero)
    return acc.tolist()


class StandbyEngine:
    """Runs the standby-transition analysis for one finished design."""

    def __init__(self, netlist: Netlist, library: Library,
                 network: VgndNetwork,
                 scenarios: Sequence[PowerModeScenario],
                 corners: Sequence[str] = (NOMINAL_CORNER,),
                 settle_fraction: float = DEFAULT_SETTLE_FRACTION,
                 rush_budget_ma: float | None = None,
                 parasitics: Mapping[str, Any] | None = None,
                 compute_backend: str | None = None,
                 circuit: str | None = None,
                 technique: Technique = Technique.IMPROVED_SMT):
        if not network.clusters:
            raise StandbyError(
                "the design has no VGND clusters; standby and "
                "sleep-policy analysis need the improved-SMT switch "
                "structure")
        if not scenarios:
            raise StandbyError("no power-mode scenarios given")
        self.netlist = netlist
        self.library = library
        self.network = network
        self.scenarios = list(scenarios)
        self.corners = tuple(corners) or (NOMINAL_CORNER,)
        self.settle_fraction = settle_fraction
        self.rush_budget_ma = rush_budget_ma
        self.parasitics = parasitics
        self.compute_backend = resolve_backend(compute_backend)
        self.circuit = circuit or netlist.name
        self.technique = Technique(technique)

    # --- public -------------------------------------------------------------

    def run(self) -> StandbyResult:
        with span("standby.run", corners=len(self.corners),
                  scenarios=len(self.scenarios),
                  clusters=len(self.network.clusters)):
            return self._run_impl()

    def _run_impl(self) -> StandbyResult:
        points, spans = self._scenario_grid()
        # Per-corner scalar work (transients, scheduling) runs first;
        # the break-even sweep itself is deferred so every corner's
        # quantile grid rides ONE kernel call.
        corner_transients, budgets = self._corner_prologue()
        schedules = [RushScheduler(transients, budget).schedule()
                     for transients, budget in zip(corner_transients,
                                                   budgets)]
        corner_rows = [
            self._corner_row(corner_name, transients, schedule)
            for corner_name, transients, schedule
            in zip(self.corners, corner_transients, schedules)]
        dp_nw, energy_pj = self._cluster_tables(corner_transients)
        # Each cluster sleeps on its own: entry is its own sleep
        # latency, wake its scheduled settle in the network schedule.
        overhead_ns = []
        for transients, schedule in zip(corner_transients, schedules):
            settles = {event.cluster_index: event.settle_ns
                       for event in schedule.events}
            overhead_ns.append([tr.sleep_latency_ns
                                + settles[tr.cluster_index]
                                for tr in transients])
        accs = savings([duration for duration, _w in points], dp_nw,
                       energy_pj, [overhead_ns],
                       backend=self.compute_backend)[0]

        grid: dict[tuple[str, str], ScenarioOutcome] = {}
        for corner_name, row, acc in zip(self.corners, corner_rows,
                                         accs):
            for scenario, (per_event, net) in zip(
                    self.scenarios,
                    self._scenario_nets(acc, points, spans)):
                active_energy = row.active_leakage_nw \
                    * scenario.horizon_ns * _NW_NS_TO_PJ
                grid[(scenario.name, corner_name)] = ScenarioOutcome(
                    scenario=scenario.name,
                    corner=corner_name,
                    sleep_events=scenario.sleep_events,
                    savings_per_event_pj=per_event,
                    net_savings_pj=net,
                    savings_fraction=net / active_energy
                    if active_energy > 0.0 else 0.0,
                    break_even_ns=row.break_even_ns,
                    worthwhile=net > 0.0)

        outcomes = tuple(grid[(scenario.name, corner_name)]
                         for scenario in self.scenarios
                         for corner_name in self.corners)
        return StandbyResult(
            circuit=self.circuit,
            technique=self.technique,
            compute_backend=self.compute_backend,
            clusters=len(self.network.clusters),
            settle_fraction=self.settle_fraction,
            scenarios=tuple(s.name for s in self.scenarios),
            corners=self.corners,
            transients=tuple(corner_transients[0]),
            schedule=schedules[0],
            corner_rows=tuple(corner_rows),
            outcomes=outcomes)

    # --- shared with the policy optimizer -----------------------------------

    def _scenario_grid(self) -> tuple[list[tuple[float, float]],
                                      list[tuple[int, int]]]:
        """Every scenario's (duration, weight) quantile points, flat,
        plus each scenario's ``(start, stop)`` slice of them.  The
        grids are corner-independent, so they are built once."""
        points: list[tuple[float, float]] = []
        spans: list[tuple[int, int]] = []
        for scenario in self.scenarios:
            start = len(points)
            points.extend(scenario.idle_points())
            spans.append((start, len(points)))
        return points, spans

    def _corner_prologue(self) -> tuple[list[list[ClusterTransient]],
                                        list[float]]:
        """Per configured corner: the cluster transients, and the rush
        budget they are scheduled under."""
        from repro.variation.corners import (
            derive_corner_library_cached,
            resolve_corner,
        )

        corner_transients: list[list[ClusterTransient]] = []
        budgets: list[float] = []
        for corner_name in self.corners:
            corner = resolve_corner(corner_name, self.library.tech)
            transients = TransientSolver(
                self.network, self.netlist,
                derive_corner_library_cached(self.library, corner),
                settle_fraction=self.settle_fraction,
                parasitics=self.parasitics).solve()
            budget = self.rush_budget_ma
            if budget is None:
                budget = default_rush_budget_ma(transients)
            corner_transients.append(list(transients))
            budgets.append(budget)
        return corner_transients, budgets

    @staticmethod
    def _cluster_tables(corner_transients: list[list[ClusterTransient]]
                        ) -> tuple[list[list[float]], list[list[float]]]:
        """The kernel's (corners x clusters) savings and energy tables."""
        dp_nw = [[tr.leakage_savings_nw for tr in transients]
                 for transients in corner_transients]
        energy_pj = [[tr.energy_per_cycle_pj for tr in transients]
                     for transients in corner_transients]
        return dp_nw, energy_pj

    def _scenario_nets(self, acc: Sequence[float],
                       points: Sequence[tuple[float, float]],
                       spans: Sequence[tuple[int, int]]
                       ) -> list[tuple[float, float]]:
        """Per scenario: (expected savings per idle interval, net
        savings over the horizon) from one row of kernel output."""
        nets = []
        for scenario, (start, stop) in zip(self.scenarios, spans):
            per_event = 0.0
            for p in range(start, stop):
                per_event += points[p][1] * acc[p]
            nets.append((per_event, scenario.sleep_events * per_event))
        return nets

    # --- internals -----------------------------------------------------------

    @staticmethod
    def _corner_row(corner_name: str,
                    transients: Sequence[ClusterTransient],
                    schedule: WakeupSchedule) -> StandbyCornerRow:
        cycle_energy = 0.0
        sleep_leak = 0.0
        active_leak = 0.0
        sleep_latency = 0.0
        for transient in transients:
            cycle_energy += transient.energy_per_cycle_pj
            sleep_leak += transient.sleep_leakage_nw
            active_leak += transient.active_leakage_nw
            sleep_latency = max(sleep_latency,
                                transient.sleep_latency_ns)
        return StandbyCornerRow(
            corner=corner_name,
            wake_latency_ns=schedule.total_latency_ns,
            serial_wake_latency_ns=schedule.serial_latency_ns,
            sleep_latency_ns=sleep_latency,
            peak_rush_ma=schedule.peak_aggregate_ma,
            rush_budget_ma=schedule.budget_ma,
            bins=schedule.bins,
            cycle_energy_pj=cycle_energy,
            sleep_leakage_nw=sleep_leak,
            active_leakage_nw=active_leak,
            break_even_ns=break_even_ns(
                active_leak - sleep_leak,
                sleep_latency + schedule.total_latency_ns,
                cycle_energy))
