"""The batched sleep-policy optimizer.

Sweeps thousands of candidate (domain plan, per-domain threshold)
policies against every workload scenario and PVT corner in **one**
``policies x clusters x corners`` array pass, then reduces the sweep
to the Pareto front of (net savings, worst wake latency, peak rush).

**Candidate space.**  For each domain plan (deterministic balanced
partitions from :func:`repro.policy.domains.plan_partitions`) the
per-domain break-even times anchor a log-spaced factor grid
(:func:`repro.policy.model.threshold_factors`): one *global* sweep
(every domain shares a factor) plus one *leave-awake* sweep per domain
(that domain pinned to ``inf``).  Quotas are rounded up, so the total
candidate count is always at least the requested number.

**Backend contract.**  Exactly the standby engine's, because the
sweep runs through its kernel (:func:`repro.standby.engine.savings`,
with a per-cluster threshold gate as the select).  All
transcendentals (transients, schedules, break-even anchors, factor
grids) are evaluated scalar-side, so a policy's per-point savings —
and everything aggregated from them in shared Python — are
bit-identical across backends (``tests/policy`` and
``benchmarks/test_bench_policy.py`` both assert full-result
equality).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Mapping, Sequence

from repro.config import Technique
from repro.errors import StandbyError
from repro.liberty.library import Library
from repro.netlist.core import Netlist
from repro.obs.metrics import REGISTRY
from repro.obs.spans import span
from repro.policy.domains import DomainPlan, characterize_plan, plan_partitions
from repro.policy.model import SleepPolicy, threshold_factors
from repro.standby.engine import NOMINAL_CORNER, StandbyEngine, savings
from repro.standby.scenario import PowerModeScenario
from repro.vgnd.network import VgndNetwork


@dataclasses.dataclass(frozen=True)
class PolicyPoint:
    """One Pareto-optimal policy."""

    policy_id: int                    # candidate index in sweep order
    plan: str                         # domain-plan name
    domains: tuple[tuple[int, ...], ...]   # member clusters per domain
    thresholds_ns: tuple[float, ...]  # per domain; inf = never sleep
    net_savings_pj: float             # worst corner, all scenarios
    worst_wake_latency_ns: float      # slowest sleeping domain, any corner
    peak_rush_ma: float               # worst sleeping-domain schedule peak
    sleeping_domains: int


@dataclasses.dataclass(frozen=True)
class PolicyResult:
    """The full policy-optimization verdict for one design."""

    circuit: str
    technique: Technique
    compute_backend: str
    clusters: int
    settle_fraction: float
    scenarios: tuple[str, ...]
    corners: tuple[str, ...]
    candidates: int                   # evaluated (>= requested)
    plans: tuple[str, ...]
    rush_budget_ma: float             # first configured corner's budget
    #: Clairvoyant per-cluster upper bound: every cluster its own
    #: domain, threshold exactly at break-even, worst corner.
    oracle_net_savings_pj: float
    pareto: tuple[PolicyPoint, ...]   # (-net, wake, rush) order

    @property
    def best(self) -> PolicyPoint:
        """The highest-savings Pareto point."""
        return self.pareto[0]

    def point(self, policy_id: int) -> PolicyPoint:
        for point in self.pareto:
            if point.policy_id == policy_id:
                return point
        raise KeyError(f"no Pareto point for policy {policy_id}")

    def render(self) -> str:
        lines = [
            f"policy sweep: {self.candidates} candidates, "
            f"{self.clusters} clusters, plans "
            f"{', '.join(self.plans)}; corners "
            f"{', '.join(self.corners)}",
            f"oracle (clairvoyant per-cluster) net savings: "
            f"{self.oracle_net_savings_pj:.1f} pJ",
            f"{'id':>6} {'plan':<12} {'sleeping':>8} "
            f"{'net_pJ':>14} {'wake_ns':>10} {'rush_mA':>9}",
        ]
        for point in self.pareto:
            lines.append(
                f"{point.policy_id:>6} {point.plan:<12} "
                f"{point.sleeping_domains:>8} "
                f"{point.net_savings_pj:>14.1f} "
                f"{point.worst_wake_latency_ns:>10.3f} "
                f"{point.peak_rush_ma:>9.3f}")
        return "\n".join(lines)


class PolicyOptimizer(StandbyEngine):
    """Sweeps candidate sleep policies for one finished design.

    Validation, the per-corner transient prologue, the corner-library
    lookup and the per-scenario reduction are the standby engine's;
    the sweep and the oracle run through its :func:`savings` kernel.
    """

    def __init__(self, netlist: Netlist, library: Library,
                 network: VgndNetwork,
                 scenarios: Sequence[PowerModeScenario],
                 corners: Sequence[str] = (NOMINAL_CORNER,),
                 candidates: int = 1024,
                 max_domains: int = 4,
                 settle_fraction: float = 0.05,
                 rush_budget_ma: float | None = None,
                 parasitics: Mapping[str, Any] | None = None,
                 compute_backend: str | None = None,
                 corner_libraries: Mapping[str, Library] | None = None,
                 circuit: str | None = None,
                 technique: Technique = Technique.IMPROVED_SMT):
        super().__init__(
            netlist, library, network, scenarios, corners=corners,
            settle_fraction=settle_fraction,
            rush_budget_ma=rush_budget_ma, parasitics=parasitics,
            compute_backend=compute_backend,
            corner_libraries=corner_libraries, circuit=circuit,
            technique=technique)
        if candidates < 1:
            raise StandbyError(
                f"candidate budget must be positive, got {candidates!r}")
        self.candidates = int(candidates)
        self.max_domains = int(max_domains)

    # --- public -------------------------------------------------------------

    def run(self) -> PolicyResult:
        with span("policy.optimize", corners=len(self.corners),
                  scenarios=len(self.scenarios),
                  clusters=len(self.network.clusters),
                  candidates=self.candidates):
            result = self._run_impl()
        REGISTRY.inc("policy.sweeps")
        REGISTRY.inc("policy.candidates", result.candidates)
        REGISTRY.observe("policy.pareto_points", len(result.pareto))
        return result

    def _run_impl(self) -> PolicyResult:
        points, spans = self._scenario_grid()
        durations = [duration for duration, _w in points]
        corner_transients, budgets = self._corner_prologue()
        partitions = plan_partitions(corner_transients[0],
                                     self.max_domains)
        # plans_by_corner[c][j], oh_plan indexed (j, c, k).
        plans_by_corner: list[list[DomainPlan]] = []
        oh_plan: list[list[list[float]]] = \
            [[] for _ in partitions]
        for transients, budget in zip(corner_transients, budgets):
            row: list[DomainPlan] = []
            for j, partition in enumerate(partitions):
                plan, overheads = characterize_plan(
                    partition, transients, budget)
                row.append(plan)
                oh_plan[j].append(overheads)
            plans_by_corner.append(row)
        dp_nw, energy_pj = self._cluster_tables(corner_transients)

        policies = self._candidates(plans_by_corner[0])
        order = [tr.cluster_index for tr in corner_transients[0]]
        thresholds = [
            self._cluster_thresholds(policy, partitions, order)
            for policy in policies]
        accs = savings(durations, dp_nw, energy_pj, oh_plan,
                       plan_of=[policy.plan for policy in policies],
                       thresholds=thresholds,
                       backend=self.compute_backend)

        nets = [[self._horizon_net(acc, points, spans) for acc in rows]
                for rows in accs]
        pareto = self._pareto(policies, nets, plans_by_corner)
        # The clairvoyant oracle: every cluster its own domain (entry
        # is its own sleep latency, settle its own wake latency), and
        # it sleeps exactly when an interval pays — no candidate under
        # any plan can beat it.  Always scalar-side: a tiny sweep.
        oracle_oh = [[tr.sleep_latency_ns + tr.wake_latency_ns
                      for tr in transients]
                     for transients in corner_transients]
        oracle = math.inf
        for acc in savings(durations, dp_nw, energy_pj, [oracle_oh])[0]:
            oracle = min(oracle, self._horizon_net(acc, points, spans))
        return PolicyResult(
            circuit=self.circuit,
            technique=self.technique,
            compute_backend=self.compute_backend,
            clusters=len(self.network.clusters),
            settle_fraction=self.settle_fraction,
            scenarios=tuple(s.name for s in self.scenarios),
            corners=self.corners,
            candidates=len(policies),
            plans=tuple(plan.name for plan in plans_by_corner[0]),
            rush_budget_ma=budgets[0],
            oracle_net_savings_pj=oracle,
            pareto=pareto)

    # --- internals -----------------------------------------------------------

    def _candidates(self, plans: Sequence[DomainPlan]
                    ) -> list[SleepPolicy]:
        """The deterministic candidate list (>= the requested count).

        Per plan: a global factor sweep over the domain break-even
        anchors, plus one leave-awake sweep per domain.  Quotas round
        up, so len(result) >= self.candidates always.
        """
        quota = -(-self.candidates // len(plans))     # ceil
        policies: list[SleepPolicy] = []
        for j, plan in enumerate(plans):
            anchors = [domain.break_even_ns for domain in plan.domains]
            ndom = len(anchors)
            per_axis = -(-quota // (ndom + 1))        # ceil
            factors = threshold_factors(per_axis)
            for factor in factors:
                policies.append(SleepPolicy(
                    plan=j,
                    thresholds_ns=tuple(factor * anchor
                                        for anchor in anchors)))
            for awake in range(ndom):
                for factor in factors:
                    thresholds = [factor * anchor for anchor in anchors]
                    thresholds[awake] = math.inf
                    policies.append(SleepPolicy(
                        plan=j, thresholds_ns=tuple(thresholds)))
        return policies

    def _cluster_thresholds(self, policy: SleepPolicy, partitions,
                            order: Sequence[int]) -> list[float]:
        """Expand per-domain thresholds to the cluster axis."""
        partition = partitions[policy.plan]
        by_cluster: dict[int, float] = {}
        for members, threshold in zip(partition, policy.thresholds_ns):
            for index in members:
                by_cluster[index] = threshold
        return [by_cluster[index] for index in order]

    def _horizon_net(self, acc, points, spans) -> float:
        """One (policy, corner) row's net savings over every scenario."""
        net = 0.0
        for _per_event, scenario_net in self._scenario_nets(acc, points,
                                                            spans):
            net += scenario_net
        return net

    def _pareto(self, policies: Sequence[SleepPolicy],
                nets: Sequence[Sequence[float]],
                plans_by_corner) -> tuple[PolicyPoint, ...]:
        """Dominance-filter the sweep, deterministically ordered."""
        rows: list[tuple[int, float, float, float]] = []
        for i, policy in enumerate(policies):
            net = min(nets[i])
            wake = 0.0
            rush = 0.0
            for c in range(len(self.corners)):
                plan = plans_by_corner[c][policy.plan]
                for domain, threshold in zip(plan.domains,
                                             policy.thresholds_ns):
                    if math.isfinite(threshold):
                        wake = max(wake, domain.wake_latency_ns)
                        rush = max(rush, domain.peak_rush_ma)
            rows.append((i, net, wake, rush))

        # Exact-duplicate metric triples keep the lowest candidate id.
        seen: set[tuple[float, float, float]] = set()
        unique: list[tuple[int, float, float, float]] = []
        for row in rows:
            key = (row[1], row[2], row[3])
            if key in seen:
                continue
            seen.add(key)
            unique.append(row)

        front: list[tuple[int, float, float, float]] = []
        for row in unique:
            _, net, wake, rush = row
            dominated = False
            for _, net2, wake2, rush2 in unique:
                if net2 >= net and wake2 <= wake and rush2 <= rush \
                        and (net2 > net or wake2 < wake
                             or rush2 < rush):
                    dominated = True
                    break
            if not dominated:
                front.append(row)
        front.sort(key=lambda row: (-row[1], row[2], row[3], row[0]))

        first_plans = plans_by_corner[0]
        points = []
        for i, net, wake, rush in front:
            policy = policies[i]
            plan = first_plans[policy.plan]
            points.append(PolicyPoint(
                policy_id=i,
                plan=plan.name,
                domains=tuple(domain.clusters
                              for domain in plan.domains),
                thresholds_ns=policy.thresholds_ns,
                net_savings_pj=net,
                worst_wake_latency_ns=wake,
                peak_rush_ma=rush,
                sleeping_domains=policy.sleeping_domains))
        return tuple(points)
