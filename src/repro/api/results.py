"""Typed result objects returned by the :class:`~repro.api.Design` facade.

Every result is a frozen, JSON-safe dataclass registered in the schema
registry, so ``schemas.to_dict(result)`` / ``schemas.from_dict(payload)``
round-trip exactly (enforced by :func:`repro.api.schemas.check_round_trip`
on every CLI ``--json`` emission and every job-service result).

Results are deliberately slim — numbers, names and nested registered
types only, never live engine objects — so the same value crosses
process and HTTP boundaries unchanged.  The heavyweight artifacts (a
full :class:`~repro.core.flow.FlowResult`) stay cached inside the
:class:`~repro.api.Workspace` and are reachable via
``Design.flow_result()`` for in-process consumers (rendering, export).
"""

from __future__ import annotations

import dataclasses

from repro.api import schemas
from repro.api.requests import TECHNIQUE
from repro.config import Technique
from repro.core.compare import ComparisonRow
from repro.obs import MetricsSnapshot, SpanNode, TraceResult
from repro.policy.domains import DomainPlan, PowerDomain
from repro.policy.optimize import PolicyPoint, PolicyResult
from repro.standby.engine import (
    ScenarioOutcome,
    StandbyCornerRow,
    StandbyResult,
)
from repro.standby.scenario import PowerModeScenario, points_from_json
from repro.standby.schedule import WakeupEvent, WakeupSchedule
from repro.standby.transient import ClusterTransient
from repro.variation.montecarlo import McSample, McStatistics


@dataclasses.dataclass(frozen=True)
class AnalyzeResult:
    """Baseline STA + leakage of the design as loaded (no flow)."""

    circuit: str
    fingerprint: str
    variant: str
    instances: int
    clock_period_ns: float
    wns: float
    hold_wns: float
    leakage_nw: float
    leakage_by_category: dict[str, float]
    compute_backend: str


@dataclasses.dataclass(frozen=True)
class OptimizeResult:
    """One technique's finished flow, Table 1 columns included."""

    circuit: str
    fingerprint: str
    technique: Technique
    area_um2: float
    leakage_nw: float
    wns: float
    hold_wns: float
    mt_cells: int
    switches: int
    holders: int
    stages: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class SignoffCornerRow:
    """One corner's numbers for a signed-off design."""

    corner: str
    leakage_nw: float
    wns: float
    hold_wns: float


@dataclasses.dataclass(frozen=True)
class SignoffResult:
    """Multi-corner signoff of one technique's finished design."""

    circuit: str
    technique: Technique
    corners: tuple[str, ...]
    area_um2: float
    nominal_leakage_nw: float
    nominal_wns: float
    rows: tuple[SignoffCornerRow, ...]

    def row(self, corner: str) -> SignoffCornerRow:
        for row in self.rows:
            if row.corner == corner:
                return row
        raise KeyError(f"no signoff row for corner {corner!r}")


@dataclasses.dataclass(frozen=True)
class MonteCarloResult:
    """Monte-Carlo study of one technique's finished design."""

    circuit: str
    technique: Technique
    corner: str | None
    samples: int
    seed: int
    area_um2: float
    nominal_leakage_nw: float
    nominal_wns: float | None
    statistics: McStatistics
    #: Per-die samples in index order (sample ``k`` is a pure function
    #: of ``(seed, k)``, so this tuple is fan-out independent).  Kept
    #: for in-process consumers only: excluded from serialization (a
    #: 10k-sample study would bloat every report/HTTP response with
    #: data the statistics already summarize) and from equality, so
    #: payloads stay slim and still round-trip.
    sample_values: tuple[McSample, ...] = dataclasses.field(
        default=(), compare=False)


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """Technique comparison rows across one or more circuits."""

    rows: tuple[ComparisonRow, ...]

    def row(self, circuit: str, technique: Technique) -> ComparisonRow:
        for row in self.rows:
            if row.circuit == circuit and row.technique == technique:
                return row
        raise KeyError(f"no row for ({circuit!r}, {technique})")

    def circuits(self) -> tuple[str, ...]:
        seen: list[str] = []
        for row in self.rows:
            if row.circuit not in seen:
                seen.append(row.circuit)
        return tuple(seen)

    def render(self) -> str:
        lines = [f"{'circuit':<10} {'technique':<18} {'area%':>8} "
                 f"{'leak%':>8} {'MT':>5} {'SW':>4} {'HOLD':>5}"]
        for row in self.rows:
            lines.append(
                f"{row.circuit:<10} {row.technique.value:<18} "
                f"{row.area_pct:8.2f} {row.leakage_pct:8.2f} "
                f"{row.mt_cells:5d} {row.switches:4d} {row.holders:5d}")
        return "\n".join(lines)


schemas.dataclass_schema("analyze_result", 1, AnalyzeResult,
                         wns=schemas.FLOAT, hold_wns=schemas.FLOAT)
schemas.dataclass_schema("optimize_result", 1, OptimizeResult,
                         technique=TECHNIQUE, stages=schemas.TUPLE,
                         wns=schemas.FLOAT, hold_wns=schemas.FLOAT)
schemas.dataclass_schema("signoff_corner_row", 1, SignoffCornerRow,
                         wns=schemas.FLOAT, hold_wns=schemas.FLOAT)
schemas.dataclass_schema("signoff_result", 1, SignoffResult,
                         technique=TECHNIQUE, corners=schemas.TUPLE,
                         nominal_wns=schemas.FLOAT,
                         rows=schemas.seq(schemas.NESTED))
schemas.dataclass_schema("montecarlo_result", 1, MonteCarloResult,
                         exclude=("sample_values",),
                         technique=TECHNIQUE, statistics=schemas.NESTED,
                         nominal_wns=schemas.opt(schemas.FLOAT))
schemas.dataclass_schema("sweep_row", 1, ComparisonRow,
                         technique=TECHNIQUE)
schemas.dataclass_schema("sweep_result", 1, SweepResult,
                         rows=schemas.seq(schemas.NESTED))

schemas.dataclass_schema("mc_statistics", 1, McStatistics,
                         mean_wns=schemas.opt(schemas.FLOAT),
                         std_wns=schemas.opt(schemas.FLOAT),
                         worst_wns=schemas.opt(schemas.FLOAT))

# --- standby-transition payloads (repro.standby) ----------------------------
# Registered here — not in repro.standby — so the engine stays free of
# api imports.

schemas.dataclass_schema("cluster_transient", 1, ClusterTransient,
                         tau_sleep_ns=schemas.FLOAT,
                         sleep_latency_ns=schemas.FLOAT)
schemas.dataclass_schema("wakeup_event", 1, WakeupEvent)
schemas.dataclass_schema("wakeup_schedule", 1, WakeupSchedule,
                         events=schemas.seq(schemas.NESTED))
# (duration, weight) / member-group grids: tuples of tuples <-> lists
# of lists.
_POINT_GRID = (lambda pts: [list(p) for p in pts], points_from_json)
_CLUSTER_GROUPS = (lambda gs: [list(g) for g in gs],
                   lambda gs: tuple(tuple(int(i) for i in g) for g in gs))

schemas.dataclass_schema("standby_scenario", 1, PowerModeScenario,
                         points=_POINT_GRID)
schemas.dataclass_schema("scenario_outcome", 1, ScenarioOutcome,
                         break_even_ns=schemas.FLOAT)
schemas.dataclass_schema("standby_corner_row", 1, StandbyCornerRow,
                         break_even_ns=schemas.FLOAT)
schemas.dataclass_schema("standby_result", 1, StandbyResult,
                         technique=TECHNIQUE,
                         scenarios=schemas.TUPLE,
                         corners=schemas.TUPLE,
                         transients=schemas.seq(schemas.NESTED),
                         schedule=schemas.NESTED,
                         corner_rows=schemas.seq(schemas.NESTED),
                         outcomes=schemas.seq(schemas.NESTED))

# --- sleep-policy payloads (repro.policy) -----------------------------------
# Same pattern: registered here so the optimizer stays api-free.

schemas.dataclass_schema("power_domain", 1, PowerDomain,
                         clusters=schemas.TUPLE,
                         break_even_ns=schemas.FLOAT)
schemas.dataclass_schema("domain_plan", 1, DomainPlan,
                         domains=schemas.seq(schemas.NESTED))
schemas.dataclass_schema("policy_point", 1, PolicyPoint,
                         domains=_CLUSTER_GROUPS,
                         thresholds_ns=schemas.seq(schemas.FLOAT))
schemas.dataclass_schema("policy_result", 1, PolicyResult,
                         technique=TECHNIQUE,
                         scenarios=schemas.TUPLE,
                         corners=schemas.TUPLE,
                         plans=schemas.TUPLE,
                         pareto=schemas.seq(schemas.NESTED))

# --- observability payloads (repro.obs) -------------------------------------
# Registered here — not in repro.obs — so the observability package
# stays importable from the hot layers (core, timing, compute) without
# dragging the api package in; same pattern as the standby types above.

schemas.dataclass_schema("span_node", 1, SpanNode,
                         children=schemas.seq(schemas.NESTED))
schemas.dataclass_schema("trace_result", 1, TraceResult,
                         spans=schemas.seq(schemas.NESTED))
schemas.dataclass_schema("metrics_snapshot", 1, MetricsSnapshot)
