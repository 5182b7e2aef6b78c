"""The :class:`Workspace`/:class:`Design` facade — the public API.

One :class:`Workspace` owns every piece of expensive compiled state:

* the synthesized multi-Vth :class:`~repro.liberty.library.Library`
  (built at most once per workspace);
* corner-derived libraries, keyed by corner name;
* loaded netlists keyed by circuit name, each stamped with a
  **content fingerprint** (a SHA-256 over ports, instances and
  connectivity) — every per-design cache below is keyed by that
  fingerprint plus the request, never by the circuit's display name;
* per-design state: baseline :class:`~repro.timing.session.TimingSession`
  substrates, finished :class:`~repro.core.flow.FlowResult` objects and
  the typed results derived from them.

:meth:`Workspace.design` hands out :class:`Design` facades exposing
the whole capability surface — :meth:`Design.analyze`,
:meth:`Design.optimize`, :meth:`Design.signoff`,
:meth:`Design.montecarlo`, :meth:`Design.sweep` — each taking a typed
frozen request (:mod:`repro.api.requests`) and returning a typed,
schema-registered result (:mod:`repro.api.results`).  Repeated calls
with an equal request are served from cache; the warm hit path is what
the persistent job service rides (see :mod:`repro.api.service`) and
what ``benchmarks/test_bench_api.py`` pins at >= 3x over a cold
workspace.

The grid studies in :mod:`repro.api.studies` run on a workspace, so
their numbers are the facade's.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import threading

from repro.api import schemas
from repro.api.requests import (
    AnalyzeRequest,
    DEFAULT_TECHNIQUES,
    MonteCarloRequest,
    OptimizeRequest,
    PolicyRequest,
    SignoffRequest,
    StandbyRequest,
    SweepRequest,
)
from repro.api.results import (
    AnalyzeResult,
    MonteCarloResult,
    OptimizeResult,
    SignoffCornerRow,
    SignoffResult,
    SweepResult,
    SweepRow,
)
from repro.policy.optimize import PolicyOptimizer, PolicyResult
from repro.standby.engine import StandbyResult
from repro.benchcircuits.suite import load_circuit
from repro.config import FlowConfig, Technique
from repro.core.compare import count_cell_kinds
from repro.core.flow import FlowResult, SelectiveMtFlow
from repro.errors import ConfigError, FlowError
from repro.liberty.library import (
    Library,
    VARIANT_HVT,
    VARIANT_LVT,
)
from repro.liberty.synth import build_default_library
from repro.netlist.core import Netlist
from repro.netlist.fingerprint import netlist_fingerprint
from repro.netlist.techmap import technology_map
from repro.obs.spans import span
from repro.power.leakage import LeakageAnalyzer
from repro.timing.constraints import Constraints
from repro.timing.session import TimingSession
from repro.timing.sta import TimingAnalyzer


def config_key(config: FlowConfig) -> str:
    """Canonical cache key for a flow configuration."""
    payload = schemas.to_dict(config)
    return json.dumps(payload, sort_keys=True)


class CacheStats:
    """Hit/miss counters for every workspace cache, by cache name.

    Self-locking: workers holding different per-design locks (and the
    service's health endpoint) touch these dicts concurrently.
    """

    def __init__(self):
        self.hits: dict[str, int] = {}
        self.misses: dict[str, int] = {}
        self._lock = threading.Lock()

    def hit(self, cache: str):
        with self._lock:
            self.hits[cache] = self.hits.get(cache, 0) + 1

    def miss(self, cache: str):
        with self._lock:
            self.misses[cache] = self.misses.get(cache, 0) + 1

    def as_dict(self) -> dict[str, dict[str, int]]:
        with self._lock:
            caches = sorted(set(self.hits) | set(self.misses))
            return {cache: {"hits": self.hits.get(cache, 0),
                            "misses": self.misses.get(cache, 0)}
                    for cache in caches}

    def tree(self) -> dict[str, dict[str, float]]:
        """The unified-stats shape: per cache, hits/misses/hit_rate.

        This is the form :meth:`Workspace.stats_tree` (and through it
        ``/v1/metrics``) reports; :meth:`as_dict` stays as the
        compatibility shape ``/v1/health`` has always served.
        """
        tree: dict[str, dict[str, float]] = {}
        for cache, counts in self.as_dict().items():
            total = counts["hits"] + counts["misses"]
            tree[cache] = {
                "hits": counts["hits"],
                "misses": counts["misses"],
                "hit_rate": counts["hits"] / total if total else 0.0,
            }
        return tree


@dataclasses.dataclass
class _Baseline:
    """Compiled analyze substrate for one (design, variant)."""

    netlist: Netlist
    constraints: Constraints
    session: TimingSession
    leakage_nw: float
    leakage_by_category: dict[str, float]


class Workspace:
    """Caches compiled libraries, netlists and per-design state.

    ``jobs`` is the default process-pool width handed to the grid
    studies (sweep / Monte-Carlo chunking); results are identical for
    any value, so it is purely a throughput knob.
    """

    def __init__(self, library: Library | None = None,
                 config: FlowConfig | None = None, jobs: int = 1):
        self._library = library
        self.config = config or FlowConfig()
        self.jobs = max(1, int(jobs))
        self.stats = CacheStats()
        #: Guards the workspace-level caches; designs carry their own
        #: lock, so jobs on *different* designs run concurrently while
        #: same-design state (one mutable TimingSession, one flow
        #: cache) is serialized.
        self._lock = threading.RLock()
        self._corner_libraries: dict[str, Library] = {}
        self._netlists: dict[str, Netlist] = {}
        self._fingerprints: dict[str, str] = {}
        self._designs: dict[tuple[str, str], Design] = {}
        #: Names registered via :meth:`adopt` whose content workers
        #: cannot reproduce with ``load_circuit(name)`` — grid jobs
        #: must ship the object for these.
        self._adopted: set[str] = set()
        #: Fingerprints of netlists as loaded from the registry, per
        #: name (lets :meth:`adopt` recognize registry-identical
        #: content and keep the cheap by-name worker loading).
        self._registry_fingerprints: dict[str, str] = {}

    # --- compiled-library state --------------------------------------------

    @property
    def library(self) -> Library:
        with self._lock:
            if self._library is None:
                self.stats.miss("library")
                self._library = build_default_library()
            else:
                self.stats.hit("library")
            return self._library

    def peek_library(self) -> Library | None:
        """The caller-supplied (or already built) library, without
        triggering a build.  The sharded service tier uses this to
        ship a custom library to its worker processes while letting
        default-library shards build their own deterministically."""
        with self._lock:
            return self._library

    def corner_library(self, corner_name: str) -> Library:
        """Corner-derived library, derived at most once per corner."""
        with self._lock:
            if corner_name in self._corner_libraries:
                self.stats.hit("corner_library")
                return self._corner_libraries[corner_name]
            self.stats.miss("corner_library")
            from repro.variation.corners import \
                derive_corner_library_cached, resolve_corner

            library = self.library
            corner = resolve_corner(corner_name, library.tech)
            derived = derive_corner_library_cached(library, corner)
            self._corner_libraries[corner_name] = derived
            return derived

    # --- netlists -----------------------------------------------------------

    def netlist(self, circuit: str) -> Netlist:
        """Load (once) and cache a circuit by registry name.

        Callers must treat the returned netlist as immutable; every
        flow/analyze path clones before mutating.
        """
        with self._lock:
            if circuit in self._netlists:
                self.stats.hit("netlist")
                return self._netlists[circuit]
            self.stats.miss("netlist")
            netlist = load_circuit(circuit)
            self._netlists[circuit] = netlist
            fingerprint = netlist_fingerprint(netlist)
            self._fingerprints[circuit] = fingerprint
            self._registry_fingerprints[circuit] = fingerprint
            return netlist

    def fingerprint(self, circuit: str) -> str:
        with self._lock:
            self.netlist(circuit)
            return self._fingerprints[circuit]

    def adopt(self, netlist: Netlist, name: str | None = None,
              config: FlowConfig | None = None) -> "Design":
        """A :class:`Design` over a caller-supplied (ad-hoc) netlist.

        Registers the netlist under ``name`` (default: its own name);
        per-design state is still keyed by content fingerprint, so an
        adopted netlist and a registry circuit with identical content
        share caches.
        """
        with self._lock:
            name = name or netlist.name
            fingerprint = netlist_fingerprint(netlist)
            self._netlists[name] = netlist
            self._fingerprints[name] = fingerprint
            # Only content that workers cannot reproduce by loading
            # the registry name needs shipping; a registry-identical
            # adoption keeps the cheap by-name grid path.
            if fingerprint != self._registry_fingerprints.get(name):
                self._adopted.add(name)
            else:
                self._adopted.discard(name)
            return self.design(name, config)

    # --- designs ------------------------------------------------------------

    def design(self, circuit: str,
               config: FlowConfig | None = None) -> "Design":
        """The :class:`Design` facade for one circuit + configuration.

        Designs are cached by (netlist fingerprint, config), so two
        handles to the same content share all compiled state.
        """
        with self._lock:
            config = config or self.config
            key = (self.fingerprint(circuit), config_key(config))
            if key in self._designs:
                self.stats.hit("design")
                return self._designs[key]
            self.stats.miss("design")
            design = Design(self, circuit, config)
            self._designs[key] = design
            return design

    # --- workspace-level studies -------------------------------------------

    def sweep(self, circuits, techniques=None,
              config: FlowConfig | None = None,
              jobs: int | None = None) -> SweepResult:
        """Technique comparison across circuits (the Table 1 grid).

        With ``jobs > 1`` the whole ``circuits x techniques`` grid is
        fanned through **one** process pool (like the legacy
        ``run_sweep``), so worker utilization scales with the full
        grid, not per-circuit; serial runs route through each design's
        flow cache.  Rows are bit-identical either way.
        """
        circuits = list(circuits)
        techniques = tuple(techniques or DEFAULT_TECHNIQUES)
        jobs = self.jobs if jobs is None else max(1, int(jobs))
        if jobs > 1:
            from repro.runner import (
                ExperimentRunner,
                FlowJob,
                comparison_from_outcomes,
            )

            grid_config = config or self.config
            flow_jobs = [
                FlowJob(circuit=circuit, technique=technique,
                        config=grid_config,
                        netlist=(self.netlist(circuit)
                                 if circuit in self._adopted else None))
                for circuit in circuits for technique in techniques]
            outcomes = ExperimentRunner(
                jobs=jobs, library=self.library).run(flow_jobs)
            rows: list[SweepRow] = []
            per_circuit = len(techniques)
            for index, circuit in enumerate(circuits):
                chunk = outcomes[index * per_circuit:
                                 (index + 1) * per_circuit]
                comparison = comparison_from_outcomes(circuit, chunk)
                rows.extend(_to_sweep_rows(circuit, comparison.rows))
            return SweepResult(rows=tuple(rows))
        request = SweepRequest(techniques=techniques)
        rows = []
        for circuit in circuits:
            design = self.design(circuit, config)
            rows.extend(design.sweep(request, jobs=1).rows)
        return SweepResult(rows=tuple(rows))

    def standby(self, circuit: str,
                request: "StandbyRequest | None" = None,
                config: FlowConfig | None = None,
                **kwargs) -> "StandbyResult":
        """Standby-transition study of one circuit (facade shortcut).

        Equivalent to ``workspace.design(circuit).standby(...)`` — the
        cached flow result, corner libraries and compiled library are
        all reused.
        """
        return self.design(circuit, config).standby(request, **kwargs)

    def policy(self, circuit: str,
               request: "PolicyRequest | None" = None,
               config: FlowConfig | None = None,
               **kwargs) -> "PolicyResult":
        """Sleep-policy sweep of one circuit (facade shortcut).

        Equivalent to ``workspace.design(circuit).policy(...)`` — the
        cached flow result, corner libraries and compiled library are
        all reused.
        """
        return self.design(circuit, config).policy(request, **kwargs)

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Compatibility view: the flat dict ``/v1/health`` has always
        served (workspace caches by name, plus the process-wide
        ``lowering`` and ``corner_memo`` counter dicts in their native
        shapes).  New consumers should prefer :meth:`stats_tree`."""
        stats = self.stats.as_dict()
        tree = self.stats_tree()
        # The persistent lowering cache and the corner-library memo
        # keep process-wide counters (they outlive any one workspace);
        # fold them in so the service health endpoint reports them.
        if tree["lowering"]:
            stats["lowering"] = tree["lowering"]
        stats["corner_memo"] = tree["corner_memo"]
        return stats

    def stats_tree(self) -> dict[str, dict]:
        """One coherent stats tree across every cache layer.

        ``workspace`` holds this workspace's hit/miss/hit_rate per
        cache (:meth:`CacheStats.tree`); ``corner_memo`` and
        ``lowering`` are the process-wide counter dicts (``lowering``
        is empty on scalar-only installs).  This is the shape
        ``/v1/metrics`` reports under ``caches``.
        """
        try:
            from repro.compute.lowercache import stats as lower_stats

            lowering = lower_stats()
        except ImportError:  # pragma: no cover - python-only installs
            lowering = {}
        from repro.variation.corners import corner_memo_stats

        return {
            "workspace": self.stats.tree(),
            "corner_memo": corner_memo_stats(),
            "lowering": lowering,
        }


def _locked(method):
    """Serialize a :class:`Design` method on the per-design lock."""
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)
    return wrapper


def _to_sweep_rows(circuit: str, comparison_rows) -> list[SweepRow]:
    """ComparisonRow values -> typed SweepRow values, relabeled."""
    return [SweepRow(circuit=circuit,
                     technique=row.technique,
                     area_um2=row.area_um2,
                     leakage_nw=row.leakage_nw,
                     area_pct=row.area_pct,
                     leakage_pct=row.leakage_pct,
                     mt_cells=row.mt_cells,
                     switches=row.switches,
                     holders=row.holders)
            for row in comparison_rows]


class Design:
    """Facade over one (netlist, configuration) pair.

    Obtained from :meth:`Workspace.design`; every method is cached on
    its typed request, so repeated calls are warm.  Methods are
    serialized by a per-design lock (the baseline timing session and
    the flow cache are shared mutable state); jobs against different
    designs run concurrently.
    """

    def __init__(self, workspace: Workspace, circuit: str,
                 config: FlowConfig):
        self.workspace = workspace
        self.circuit = circuit
        self.config = config
        self._lock = threading.RLock()
        self._baselines: dict[AnalyzeRequest, _Baseline] = {}
        self._analyses: dict[AnalyzeRequest, AnalyzeResult] = {}
        self._flows: dict[Technique, FlowResult] = {}
        self._optimizations: dict[Technique, OptimizeResult] = {}
        self._signoffs: dict[SignoffRequest, SignoffResult] = {}
        self._montecarlos: dict[MonteCarloRequest, MonteCarloResult] = {}
        self._sweeps: dict[tuple[SweepRequest, int], SweepResult] = {}
        self._standbys: dict[StandbyRequest, StandbyResult] = {}
        self._policies: dict[PolicyRequest, PolicyResult] = {}

    @classmethod
    def load(cls, circuit: str, config: FlowConfig | None = None,
             workspace: Workspace | None = None) -> "Design":
        """Standalone loader: ``Design.load("c432")``.

        Creates (or reuses) a workspace under the hood; prefer an
        explicit long-lived :class:`Workspace` when handling more than
        one design.
        """
        workspace = workspace or Workspace()
        return workspace.design(circuit, config)

    @property
    def library(self) -> Library:
        return self.workspace.library

    @property
    def netlist(self) -> Netlist:
        return self.workspace.netlist(self.circuit)

    @property
    def fingerprint(self) -> str:
        return self.workspace.fingerprint(self.circuit)

    def _stats(self) -> CacheStats:
        return self.workspace.stats

    # --- analyze ------------------------------------------------------------

    @_locked
    def _baseline(self, request: AnalyzeRequest) -> _Baseline:
        if request in self._baselines:
            self._stats().hit("baseline")
            return self._baselines[request]
        self._stats().miss("baseline")
        library = self.library
        netlist = self.netlist.clone()
        variant = VARIANT_LVT if request.variant == "lvt" else VARIANT_HVT
        technology_map(netlist, library, variant)
        if self.config.clock_period_ns is not None:
            constraints = Constraints(
                clock_period=self.config.clock_period_ns)
        else:
            # Mirrors the derive_constraints stage: clock period is the
            # critical delay times (1 + margin) — here on the unplaced
            # mapped netlist (no parasitics), since analyze() probes
            # the design before any physical flow exists.
            probe = Constraints(clock_period=1000.0)
            report = TimingAnalyzer(
                netlist, library, probe,
                compute_backend=self.config.compute_backend).run()
            min_period = 1000.0 - report.wns
            if min_period <= 0:
                raise FlowError(
                    "could not derive a positive minimum period")
            constraints = Constraints(
                clock_period=min_period
                * (1.0 + self.config.timing_margin))
        session = TimingSession(
            netlist, library, constraints,
            compute_backend=self.config.compute_backend)
        breakdown = LeakageAnalyzer(
            netlist, library,
            compute_backend=self.config.compute_backend).standby_leakage()
        baseline = _Baseline(
            netlist=netlist, constraints=constraints, session=session,
            leakage_nw=breakdown.total_nw,
            leakage_by_category=breakdown.category_values())
        self._baselines[request] = baseline
        return baseline

    @staticmethod
    def _request_or_kwargs(request, kwargs: dict):
        """A method takes EITHER a request object OR field kwargs."""
        supplied = {key: value for key, value in kwargs.items()
                    if value is not None}
        if request is not None and supplied:
            raise ConfigError(
                "request",
                f"pass either a request object or field keyword "
                f"arguments, not both (got request plus "
                f"{sorted(supplied)})")
        return supplied

    @_locked
    def analyze(self, request: AnalyzeRequest | None = None, *,
                variant: str | None = None) -> AnalyzeResult:
        """Baseline STA + leakage of the design as loaded (no flow)."""
        supplied = self._request_or_kwargs(request, {"variant": variant})
        request = request or AnalyzeRequest(**supplied)
        if request in self._analyses:
            self._stats().hit("analyze")
            return self._analyses[request]
        self._stats().miss("analyze")
        baseline = self._baseline(request)
        report = baseline.session.report()
        result = AnalyzeResult(
            circuit=self.circuit,
            fingerprint=self.fingerprint,
            variant=request.variant,
            instances=len(baseline.netlist.instances),
            clock_period_ns=baseline.constraints.clock_period,
            wns=report.wns,
            hold_wns=report.hold_wns,
            leakage_nw=baseline.leakage_nw,
            leakage_by_category=dict(baseline.leakage_by_category),
            compute_backend=baseline.session.compute_backend)
        self._analyses[request] = result
        return result

    # --- optimize -----------------------------------------------------------

    @_locked
    def flow_result(self,
                    technique: Technique = Technique.IMPROVED_SMT
                    ) -> FlowResult:
        """The cached full :class:`FlowResult` for one technique.

        This is the in-process escape hatch for consumers that need
        the heavyweight artifacts (stage reports, VGND network, design
        export); the typed surface is :meth:`optimize`.
        """
        technique = Technique(technique)
        if technique in self._flows:
            self._stats().hit("flow")
            return self._flows[technique]
        self._stats().miss("flow")
        with span("api.flow", circuit=self.circuit,
                  technique=technique.value):
            flow = SelectiveMtFlow(self.netlist, self.library, technique,
                                   self.config)
            result = flow.run()
        self._flows[technique] = result
        return result

    @_locked
    def optimize(self, request: OptimizeRequest | None = None, *,
                 technique: Technique | str | None = None
                 ) -> OptimizeResult:
        """Run one technique end to end (cached per technique)."""
        self._request_or_kwargs(request, {"technique": technique})
        request = request or OptimizeRequest(
            technique=Technique(technique) if technique is not None
            else Technique.IMPROVED_SMT)
        if request.technique in self._optimizations:
            self._stats().hit("optimize")
            return self._optimizations[request.technique]
        self._stats().miss("optimize")
        result = self.flow_result(request.technique)
        mt, switches, holders = count_cell_kinds(result.netlist,
                                                 self.library)
        optimized = OptimizeResult(
            circuit=self.circuit,
            fingerprint=self.fingerprint,
            technique=request.technique,
            area_um2=result.total_area,
            leakage_nw=result.leakage_nw,
            wns=result.timing.wns,
            hold_wns=result.timing.hold_wns,
            mt_cells=mt, switches=switches, holders=holders,
            stages=tuple(stage.name for stage in result.stages))
        self._optimizations[request.technique] = optimized
        return optimized

    # --- signoff ------------------------------------------------------------

    @_locked
    def signoff(self, request: SignoffRequest | None = None, *,
                technique: Technique | str | None = None,
                corners=None) -> SignoffResult:
        """Multi-corner signoff of one technique's finished design.

        The flow result is reused from the optimize cache; each corner
        is then one leakage pass plus one STA against the (cached)
        corner-derived library — identical numbers to the flow's
        ``corner_signoff`` stage.
        """
        self._request_or_kwargs(request,
                                {"technique": technique,
                                 "corners": corners})
        request = request or SignoffRequest(
            technique=Technique(technique) if technique is not None
            else Technique.IMPROVED_SMT,
            corners=tuple(corners) if corners is not None else ())
        if request in self._signoffs:
            self._stats().hit("signoff")
            return self._signoffs[request]
        self._stats().miss("signoff")
        from repro.variation.corners import default_signoff_corners
        from repro.variation.signoff import evaluate_corners_batched

        library = self.library
        corner_names = request.corners or \
            default_signoff_corners(library.tech)
        flow = self.flow_result(request.technique)
        clock_arrivals = flow.cts.clock_arrivals if flow.cts else None
        corner_libraries = {name: self.workspace.corner_library(name)
                            for name in corner_names}
        results = evaluate_corners_batched(
            flow.netlist, library, corner_names, flow.constraints,
            parasitics=flow.parasitics, network=flow.network,
            clock_arrivals=clock_arrivals,
            compute_backend=self.config.compute_backend,
            corner_libraries=corner_libraries)
        rows = tuple(
            SignoffCornerRow(corner=name, leakage_nw=res.leakage_nw,
                             wns=res.wns, hold_wns=res.hold_wns)
            for name, res in results.items())
        result = SignoffResult(
            circuit=self.circuit,
            technique=request.technique,
            corners=tuple(corner_names),
            area_um2=flow.total_area,
            nominal_leakage_nw=flow.leakage_nw,
            nominal_wns=flow.timing.wns,
            rows=rows)
        self._signoffs[request] = result
        return result

    # --- standby ------------------------------------------------------------

    def _scenario_objects(self, request):
        """Resolve a request's named + payload scenarios (in order).

        Built-in names default in only when the request carries
        neither names nor payloads — a payload-only request means
        exactly those workloads.
        """
        from repro.standby.scenario import (
            resolve_scenario,
            standard_scenarios,
        )

        names = request.scenarios
        if not names and not request.scenario_payloads:
            names = tuple(standard_scenarios())
        return [resolve_scenario(name) for name in names] \
            + list(request.scenario_payloads)

    @_locked
    def standby(self, request: StandbyRequest | None = None, *,
                technique: Technique | str | None = None,
                scenarios=None, scenario_payloads=None, corners=None,
                rush_budget_ma: float | None = None,
                settle_fraction: float | None = None) -> StandbyResult:
        """Standby-transition study of one technique's finished design.

        The flow result comes from the optimize cache; corner-derived
        libraries come from the workspace corner-library cache; the
        post-route parasitics the flow extracted refine the VGND rail
        capacitances.  Only the improved technique builds the
        shared-switch network this analysis characterizes — the others
        raise :class:`~repro.errors.FlowError`.

        Field defaults come from the design's :class:`FlowConfig`
        (``standby_scenarios``, ``standby_rush_budget_ma``,
        ``standby_settle_fraction``, ``signoff_corners``) with the
        same fallbacks as the flow's ``standby_signoff`` stage (all
        built-in scenarios, the default signoff corner set), so for
        any configuration with ``standby_scenarios`` set the facade
        answer equals — and is simply reused from — the stage's
        ``FlowResult.standby``.  An explicit request object is taken
        verbatim.
        """
        self._request_or_kwargs(request, {
            "technique": technique, "scenarios": scenarios,
            "scenario_payloads": scenario_payloads,
            "corners": corners, "rush_budget_ma": rush_budget_ma,
            "settle_fraction": settle_fraction})
        request = request or StandbyRequest(
            technique=Technique(technique) if technique is not None
            else Technique.IMPROVED_SMT,
            scenarios=tuple(scenarios) if scenarios is not None
            else self.config.standby_scenarios,
            scenario_payloads=tuple(scenario_payloads)
            if scenario_payloads is not None else (),
            corners=tuple(corners) if corners is not None
            else self.config.signoff_corners,
            rush_budget_ma=rush_budget_ma
            if rush_budget_ma is not None
            else self.config.standby_rush_budget_ma,
            settle_fraction=settle_fraction
            if settle_fraction is not None
            else self.config.standby_settle_fraction)
        if request in self._standbys:
            self._stats().hit("standby")
            return self._standbys[request]
        self._stats().miss("standby")
        from repro.standby.engine import StandbyEngine
        from repro.variation.corners import default_signoff_corners

        library = self.library
        flow = self.flow_result(request.technique)
        if flow.network is None or not flow.network.clusters:
            raise FlowError(
                f"technique {request.technique.value!r} builds no "
                f"shared-switch VGND network; standby-transition "
                f"analysis needs improved_smt")
        scenario_objs = self._scenario_objects(request)
        scenario_names = tuple(s.name for s in scenario_objs)
        corner_names = request.corners \
            or default_signoff_corners(library.tech)
        # The standby_signoff stage may have computed exactly this
        # analysis during the flow run — reuse it instead of running
        # the engine a second time.
        stage_result = flow.standby
        if stage_result is not None \
                and stage_result.circuit == self.circuit \
                and stage_result.scenarios == tuple(scenario_names) \
                and stage_result.corners == tuple(corner_names) \
                and stage_result.settle_fraction \
                == request.settle_fraction \
                and request.rush_budget_ma \
                == self.config.standby_rush_budget_ma:
            self._standbys[request] = stage_result
            return stage_result
        corner_libraries = {name: self.workspace.corner_library(name)
                            for name in corner_names}
        engine = StandbyEngine(
            flow.netlist, library, flow.network, scenario_objs,
            corners=tuple(corner_names),
            settle_fraction=request.settle_fraction,
            rush_budget_ma=request.rush_budget_ma,
            parasitics=flow.parasitics,
            compute_backend=self.config.compute_backend,
            corner_libraries=corner_libraries,
            circuit=self.circuit, technique=request.technique)
        result = engine.run()
        self._standbys[request] = result
        return result

    # --- sleep policy -------------------------------------------------------

    @_locked
    def policy(self, request: PolicyRequest | None = None, *,
               technique: Technique | str | None = None,
               scenarios=None, scenario_payloads=None, corners=None,
               candidates: int | None = None,
               max_domains: int | None = None,
               rush_budget_ma: float | None = None,
               settle_fraction: float | None = None) -> PolicyResult:
        """Sleep-policy sweep of one technique's finished design.

        Sweeps at least ``candidates`` (domain plan, threshold)
        policies through the batched scenario kernel and returns the
        Pareto front of (net savings, worst wake latency, peak rush).
        Scenario, corner and cache semantics match :meth:`standby`:
        flow result from the optimize cache, corner libraries from the
        workspace cache, defaults from the design's
        :class:`FlowConfig` (``policy_candidates`` falls back to 1024
        when the config leaves the stage off), and when the flow's
        ``policy_signoff`` stage already ran exactly this sweep its
        result is reused.
        """
        self._request_or_kwargs(request, {
            "technique": technique, "scenarios": scenarios,
            "scenario_payloads": scenario_payloads,
            "corners": corners, "candidates": candidates,
            "max_domains": max_domains,
            "rush_budget_ma": rush_budget_ma,
            "settle_fraction": settle_fraction})
        request = request or PolicyRequest(
            technique=Technique(technique) if technique is not None
            else Technique.IMPROVED_SMT,
            scenarios=tuple(scenarios) if scenarios is not None
            else self.config.standby_scenarios,
            scenario_payloads=tuple(scenario_payloads)
            if scenario_payloads is not None else (),
            corners=tuple(corners) if corners is not None
            else self.config.signoff_corners,
            candidates=candidates if candidates is not None
            else (self.config.policy_candidates or 1024),
            max_domains=max_domains if max_domains is not None
            else self.config.policy_max_domains,
            rush_budget_ma=rush_budget_ma
            if rush_budget_ma is not None
            else self.config.standby_rush_budget_ma,
            settle_fraction=settle_fraction
            if settle_fraction is not None
            else self.config.standby_settle_fraction)
        if request in self._policies:
            self._stats().hit("policy")
            return self._policies[request]
        self._stats().miss("policy")
        from repro.variation.corners import default_signoff_corners

        library = self.library
        flow = self.flow_result(request.technique)
        if flow.network is None or not flow.network.clusters:
            raise FlowError(
                f"technique {request.technique.value!r} builds no "
                f"shared-switch VGND network; sleep-policy "
                f"optimization needs improved_smt")
        scenario_objs = self._scenario_objects(request)
        scenario_names = tuple(s.name for s in scenario_objs)
        corner_names = request.corners \
            or default_signoff_corners(library.tech)
        # The policy_signoff stage may have swept exactly this space
        # during the flow run — reuse it instead of sweeping again.
        stage_result = flow.policy
        if stage_result is not None \
                and stage_result.circuit == self.circuit \
                and stage_result.scenarios == scenario_names \
                and stage_result.corners == tuple(corner_names) \
                and stage_result.settle_fraction \
                == request.settle_fraction \
                and request.candidates \
                == self.config.policy_candidates \
                and request.max_domains \
                == self.config.policy_max_domains \
                and request.rush_budget_ma \
                == self.config.standby_rush_budget_ma:
            self._policies[request] = stage_result
            return stage_result
        corner_libraries = {name: self.workspace.corner_library(name)
                            for name in corner_names}
        optimizer = PolicyOptimizer(
            flow.netlist, library, flow.network, scenario_objs,
            corners=tuple(corner_names),
            candidates=request.candidates,
            max_domains=request.max_domains,
            settle_fraction=request.settle_fraction,
            rush_budget_ma=request.rush_budget_ma,
            parasitics=flow.parasitics,
            compute_backend=self.config.compute_backend,
            corner_libraries=corner_libraries,
            circuit=self.circuit, technique=request.technique)
        result = optimizer.run()
        self._policies[request] = result
        return result

    # --- Monte-Carlo --------------------------------------------------------

    @_locked
    def montecarlo(self, request: MonteCarloRequest | None = None,
                   jobs: int | None = None,
                   **kwargs) -> MonteCarloResult:
        """Monte-Carlo Vth-variation study of one technique's design.

        ``jobs > 1`` chunks the sample grid over the process-pool
        runner; sample ``k`` is a pure function of ``(seed, k)``, so
        the statistics are identical for any fan-out.  The serial path
        reuses the cached flow result and evaluates in-process.
        """
        self._request_or_kwargs(request, kwargs)
        request = request or MonteCarloRequest(**kwargs)
        jobs = self.workspace.jobs if jobs is None else max(1, int(jobs))
        if request in self._montecarlos:
            self._stats().hit("montecarlo")
            return self._montecarlos[request]
        self._stats().miss("montecarlo")
        from repro.variation.jobs import build_engine
        from repro.variation.montecarlo import McConfig, summarize

        mc = McConfig(samples=request.samples, seed=request.seed,
                      sigma_global_v=request.sigma_global_v,
                      sigma_local_v=request.sigma_local_v,
                      timing=request.timing,
                      leakage_budget_nw=request.leakage_budget_nw)
        if jobs == 1:
            flow = self.flow_result(request.technique)
            area_um2 = flow.total_area
            engine = build_engine(
                flow, self.library, mc, request.corner,
                compute_backend=self.config.compute_backend)
            samples = engine.run(start=0, count=request.samples)
            nominal_leakage = engine.nominal_leakage_nw
            nominal_wns = engine.nominal_wns
        else:
            from repro.runner import ExperimentRunner
            from repro.variation.jobs import McJob, run_mc_job

            chunks = min(jobs, request.samples)
            bounds = [(i * request.samples // chunks,
                       (i + 1) * request.samples // chunks)
                      for i in range(chunks)]
            shipped = self.netlist \
                if self.circuit in self.workspace._adopted else None
            grid = [McJob(circuit=self.circuit,
                          technique=request.technique,
                          config=self.config, mc=mc, corner=request.corner,
                          start=start, count=stop - start,
                          netlist=shipped)
                    for (start, stop) in bounds]
            outcomes = ExperimentRunner(
                jobs=jobs, library=self.library).map(run_mc_job, grid)
            failed = [o for o in outcomes if not o.ok]
            if failed:
                raise FlowError(
                    f"{len(failed)} Monte-Carlo job(s) failed "
                    f"({failed[0].circuit}/"
                    f"{failed[0].technique.value}):\n{failed[0].error}")
            # The chunk outcomes already carry the flow-level numbers;
            # re-running the flow here just to read them would cost one
            # full serial flow before any worker output is used.
            samples = [s for outcome in outcomes for s in outcome.samples]
            nominal_leakage = outcomes[0].nominal_leakage_nw
            nominal_wns = outcomes[0].nominal_wns
            area_um2 = outcomes[0].area_um2
        budget = mc.leakage_budget_nw
        if budget is None:
            budget = mc.budget_factor * nominal_leakage
        result = MonteCarloResult(
            circuit=self.circuit,
            technique=request.technique,
            corner=request.corner,
            samples=request.samples,
            seed=request.seed,
            area_um2=area_um2,
            nominal_leakage_nw=nominal_leakage,
            nominal_wns=nominal_wns,
            statistics=summarize(samples, leakage_budget_nw=budget),
            sample_values=tuple(samples))
        self._montecarlos[request] = result
        return result

    # --- sweep --------------------------------------------------------------

    @_locked
    def sweep(self, request: SweepRequest | None = None, *,
              techniques=None, jobs: int | None = None) -> SweepResult:
        """Compare techniques on this design (one Table 1 row group)."""
        self._request_or_kwargs(request, {"techniques": techniques})
        if request is None:
            request = SweepRequest(
                techniques=tuple(techniques or DEFAULT_TECHNIQUES))
        jobs = self.workspace.jobs if jobs is None else max(1, int(jobs))
        key = (request, jobs if jobs > 1 else 1)
        if key in self._sweeps:
            self._stats().hit("sweep")
            return self._sweeps[key]
        self._stats().miss("sweep")
        rows = tuple(self._sweep_rows(request.techniques, jobs))
        result = SweepResult(rows=rows)
        self._sweeps[key] = result
        return result

    def _sweep_rows(self, techniques: tuple[Technique, ...],
                    jobs: int) -> list[SweepRow]:
        if jobs > 1:
            from repro.runner import (
                ExperimentRunner,
                FlowJob,
                comparison_from_outcomes,
            )

            # Registry circuits load by name inside each worker (cheap,
            # avoids pickling a deep netlist graph); only adopted
            # ad-hoc netlists must ship the object itself.
            shipped = self.netlist \
                if self.circuit in self.workspace._adopted else None
            flow_jobs = [FlowJob(circuit=self.circuit, technique=technique,
                                 config=self.config, netlist=shipped)
                         for technique in techniques]
            outcomes = ExperimentRunner(
                jobs=jobs, library=self.library).run(flow_jobs)
            comparison = comparison_from_outcomes(self.circuit, outcomes)
            rows = comparison.rows
        else:
            # Serial: every technique's flow lands in (or comes from)
            # the optimize cache; the normalization mirrors
            # studies.technique_comparison() exactly.
            results = {technique: self.flow_result(technique)
                       for technique in techniques}
            baseline = results.get(Technique.DUAL_VTH)
            if baseline is None and techniques:
                baseline = results[techniques[0]]
            base_area = baseline.total_area if baseline else 1.0
            base_leak = baseline.leakage_nw if baseline else 1.0
            rows = []
            from repro.core.compare import ComparisonRow

            for technique in techniques:
                result = results[technique]
                mt, switches, holders = count_cell_kinds(
                    result.netlist, self.library)
                rows.append(ComparisonRow(
                    circuit=self.circuit,
                    technique=technique,
                    area_um2=result.total_area,
                    leakage_nw=result.leakage_nw,
                    area_pct=100.0 * result.total_area / base_area,
                    leakage_pct=100.0 * result.leakage_nw / base_leak,
                    mt_cells=mt, switches=switches, holders=holders))
        return _to_sweep_rows(self.circuit, rows)
