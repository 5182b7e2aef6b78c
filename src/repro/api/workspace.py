"""The :class:`Workspace`/:class:`Design` facade — the public API.

One :class:`Workspace` owns every piece of expensive compiled state:

* the synthesized multi-Vth :class:`~repro.liberty.library.Library`
  (built at most once per workspace);
* loaded netlists keyed by circuit name, each stamped with a
  **content fingerprint** (a SHA-256 over ports, instances and
  connectivity) — every cache below is keyed by that fingerprint,
  never by the circuit's display name;
* per-netlist state that no timing margin enters: the placed all-LVT
  prefix every flow forks, one per (fingerprint, placement fields),
  and :meth:`Design.analyze`'s mapped netlist, one per (fingerprint,
  variant, compute backend), each with its critical delay — so a
  netlist at several margins is placed, mapped and probed once;
* per-design state: finished :class:`~repro.core.flow.FlowResult`
  objects and the typed results derived from them, keyed by the
  request.

:meth:`Workspace.design` hands out :class:`Design` facades exposing
the whole capability surface — :meth:`Design.analyze`,
:meth:`Design.optimize`, :meth:`Design.signoff`,
:meth:`Design.standby`, :meth:`Design.policy`,
:meth:`Design.montecarlo`, :meth:`Design.sweep` — each taking a typed
frozen request (:mod:`repro.api.requests`) and returning a typed,
schema-registered result (:mod:`repro.api.results`).  Signoff,
standby and policy run only here, on the cached flow result; no flow
stage computes them.  Repeated calls
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
from typing import Sequence

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
    _technique,
)
from repro.api.results import (
    AnalyzeResult,
    MonteCarloResult,
    OptimizeResult,
    SignoffCornerRow,
    SignoffResult,
    SweepResult,
)
from repro.api.shards import FacadeJob, execute_kind, run_facade_job
from repro.policy.optimize import PolicyOptimizer, PolicyResult
from repro.standby.engine import StandbyResult
from repro.benchcircuits.suite import load_circuit
from repro.compute import resolve_backend
from repro.config import FlowConfig, Technique
from repro.core.compare import (
    ComparisonRow,
    TechniqueComparison,
    count_cell_kinds,
)
from repro.core.flow import FlowResult, SelectiveMtFlow, shared_prefix
from repro.core.stages import (
    SHARED_STAGES,
    FlowContext,
    StageStep,
    derive_clock_constraints,
    run_stages,
)
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
from repro.runner import ExperimentRunner
from repro.timing.session import TimingSession


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
        self._netlists: dict[str, Netlist] = {}
        self._fingerprints: dict[str, str] = {}
        self._designs: dict[tuple[str, str], Design] = {}
        #: Per placed netlist, its context after
        #: :data:`~repro.core.stages.SHARED_STAGES` (see
        #: :meth:`_placed_prefix`).
        self._placed: dict[tuple, FlowContext] = {}
        #: ``(design, context)``: the most recent Selective-MT design's
        #: context after its MT assignment (see :meth:`_flow_prefix`).
        self._mt_prefix: tuple[Design, FlowContext] | None = None
        #: Per (fingerprint, variant, resolved compute backend),
        #: :meth:`Design.analyze`'s mapped unplaced netlist (see
        #: :meth:`_mapped`).
        self._mapped_netlists: dict[tuple[str, str, str], FlowContext] = {}

    # --- compiled-library state --------------------------------------------

    @property
    def library(self) -> Library:
        with self._lock:
            if self._library is not None:
                self.stats.hit("library")
            return self._built_library()

    def _built_library(self) -> Library:
        """The library, built (one ``library`` miss) on first use; a read
        of the built library is no lookup, so it counts nothing."""
        with self._lock:
            if self._library is None:
                self.stats.miss("library")
                self._library = build_default_library()
            return self._library

    def peek_library(self) -> Library | None:
        """The caller-supplied (or already built) library, without
        triggering a build.  The sharded service tier uses this to
        ship a custom library to its worker processes while letting
        default-library shards build their own deterministically."""
        with self._lock:
            return self._library

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
            self._fingerprints[circuit] = netlist_fingerprint(netlist)
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
            return self.design(name, config)

    # --- designs ------------------------------------------------------------

    def design(self, circuit: str,
               config: FlowConfig | None = None) -> "Design":
        """The :class:`Design` facade for one circuit + configuration.

        Designs are cached by (netlist fingerprint, config), so two
        handles to the same content share all compiled state.  A design
        keeps the netlist it was created for, whatever is registered
        under ``circuit`` later.
        """
        with self._lock:
            config = config or self.config
            fingerprint = self.fingerprint(circuit)
            key = (fingerprint, config_key(config))
            if key in self._designs:
                self.stats.hit("design")
                return self._designs[key]
            self.stats.miss("design")
            design = Design(self, circuit, config,
                            self._netlists[circuit], fingerprint)
            self._designs[key] = design
            return design

    def _flow_prefix(self, design: "Design",
                     steps: tuple[StageStep, ...]) -> FlowContext:
        """The :func:`~repro.core.flow.shared_prefix` of ``design``
        after the shared ``steps``.

        After :data:`SHARED_STAGES` it is the design's placed entry
        (:meth:`_placed_prefix`, counted as ``prefix``).  After the MT
        assignment it is one slot (``mt_prefix``) holding the most
        recent design's context: every serial caller runs a design's
        techniques back to back, while an assignment kept per design
        would hold every MT netlist alive for nothing where no design
        runs a second technique (the service mix).  The slot is built
        on a fork of the placed entry, so a design runs each shared
        step once.  Built outside the lock; designs serialize their
        own flows.
        """
        if steps == SHARED_STAGES:
            return self._placed_prefix(design)
        with self._lock:
            slot = self._mt_prefix
            if slot is not None and slot[0] is design:
                self.stats.hit("mt_prefix")
                return slot[1]
        self.stats.miss("mt_prefix")
        base = self._placed_prefix(design)
        prefix = run_stages(base.fork(base.technique),
                            steps[len(SHARED_STAGES):])
        with self._lock:
            self._mt_prefix = (design, prefix)
        return prefix

    def _placed_prefix(self, design: "Design") -> FlowContext:
        """``design``'s context after :data:`SHARED_STAGES`.

        One entry per placed netlist: physical synthesis and pre-route
        estimation read only the netlist and the four placement fields
        of the config, and the critical delay no margin, so every
        design of a netlist that places alike gets the same entry with
        its own config and
        :class:`~repro.timing.constraints.Constraints` swapped in, and
        on a hit no stage step runs.  The entry keeps its critical
        delay, probed for the first design that derives its period.
        Entries are built outside the lock (a concurrent duplicate
        build gives the same answer) and never evicted: the workspace
        keeps every loaded netlist and every design's flows anyway.
        """
        config = design.config
        key = (design.fingerprint, config.utilization, config.aspect_ratio,
               config.placer_iterations, config.placement_seed)
        with self._lock:
            placed = self._placed.get(key)
        if placed is None:
            self.stats.miss("prefix")
            placed = shared_prefix(design.netlist, design.library, config,
                                   SHARED_STAGES)
            with self._lock:
                self._placed.setdefault(key, placed)
            return placed
        self.stats.hit("prefix")
        return dataclasses.replace(
            placed, config=config,
            constraints=derive_clock_constraints(config,
                                                 placed.critical_delay))

    def _mapped(self, design: "Design", variant: str) -> FlowContext:
        """:meth:`Design.analyze`'s entry for ``design``'s netlist
        mapped to ``variant``: the unplaced mapped netlist, its standby
        leakage and its critical delay (probed on first need).

        One entry per (fingerprint, variant, resolved compute backend),
        counted as ``mapped``, so a further margin runs only its own
        report.  Built outside the lock and never evicted, like
        :meth:`_placed_prefix`'s entries.
        """
        backend = resolve_backend(design.config.compute_backend)
        key = (design.fingerprint, variant, backend)
        with self._lock:
            entry = self._mapped_netlists.get(key)
        if entry is not None:
            self.stats.hit("mapped")
            return entry
        self.stats.miss("mapped")
        library = design.library
        entry = FlowContext.create(design.netlist, library,
                                   config=design.config)
        entry.netlist = design.netlist.clone()
        technology_map(entry.netlist, library,
                       VARIANT_LVT if variant == "lvt" else VARIANT_HVT)
        entry.leakage = LeakageAnalyzer(
            entry.netlist, library,
            compute_backend=backend).standby_leakage()
        with self._lock:
            self._mapped_netlists.setdefault(key, entry)
        return entry

    # --- workspace-level studies -------------------------------------------

    def sweep(self, circuits, techniques=None,
              config: FlowConfig | None = None,
              jobs: int | None = None) -> SweepResult:
        """Technique comparison across circuits (the Table 1 grid).

        One :func:`sweep_grid` over the circuits' designs: with
        ``jobs > 1`` the whole ``circuits x techniques`` grid goes
        through one process pool, serial runs read each design's flow
        cache.  Rows are bit-identical either way.
        """
        techniques = tuple(techniques or DEFAULT_TECHNIQUES)
        jobs = self.jobs if jobs is None else max(1, int(jobs))
        designs = [self.design(circuit, config) for circuit in circuits]
        return SweepResult(rows=tuple(
            row for comparison in sweep_grid(designs, techniques, jobs)
            for row in comparison.rows))

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Compatibility view: the flat dict ``/v1/health`` has always
        served (workspace caches by name, plus the process-wide
        ``corner_memo`` counter dict in its native shape).  New
        consumers should prefer :meth:`stats_tree`."""
        stats = self.stats.as_dict()
        # The corner-library memo keeps process-wide counters (it
        # outlives any one workspace); fold them in so the service
        # health endpoint reports them.
        stats["corner_memo"] = self.stats_tree()["corner_memo"]
        return stats

    def stats_tree(self) -> dict[str, dict]:
        """One coherent stats tree across every cache layer.

        ``workspace`` holds this workspace's hit/miss/hit_rate per
        cache (:meth:`CacheStats.tree`); ``corner_memo`` is the
        process-wide counter dict.  This is the shape ``/v1/metrics``
        reports under ``caches``.
        """
        from repro.variation.corners import corner_memo_stats

        return {
            "workspace": self.stats.tree(),
            "corner_memo": corner_memo_stats(),
        }


def _locked(method):
    """Serialize a :class:`Design` method on the per-design lock."""
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)
    return wrapper


def facade_grid(cells: Sequence[tuple["Design", str, object]],
                jobs: int) -> list:
    """Run ``(design, kind, request)`` cells; results in cell order.

    The one grid over the facade.  Serially each cell is one
    :func:`~repro.api.shards.execute_kind` call on its design, so it
    reads and fills the design's caches.  With ``jobs > 1`` every cell
    becomes a :class:`~repro.api.shards.FacadeJob` carrying its
    design's netlist on the :class:`ExperimentRunner` pool, whose
    workers adopt it in a fresh workspace per job; the payloads decode
    to the very results the serial path returns, so a grid is
    bit-identical for any ``jobs``.
    A failing cell raises its own exception either way.
    """
    cells = list(cells)
    if jobs <= 1 or len(cells) <= 1:
        return [execute_kind(design, kind, request)
                for design, kind, request in cells]
    payloads = ExperimentRunner(
        jobs=jobs, library=cells[0][0].library).map(run_facade_job, [
            FacadeJob(kind=kind, circuit=design.circuit,
                      request_payload=schemas.to_dict(request),
                      config_payload=schemas.to_dict(design.config),
                      netlist=design.netlist)
            for design, kind, request in cells])
    return [schemas.from_dict(payload) for payload in payloads]


def comparison_from_results(circuit: str,
                            results: Sequence[OptimizeResult]
                            ) -> TechniqueComparison:
    """Normalize one circuit's optimize results to the Dual-Vth baseline.

    The only normalization of a technique grid.  The heavyweight
    per-technique ``results`` dict stays empty, since the results may
    have crossed a process boundary.
    """
    # Dual-Vth is the reference when present, else the first requested
    # technique normalizes to 100 %.
    baseline = next((r for r in results
                     if r.technique == Technique.DUAL_VTH), None)
    if baseline is None and results:
        baseline = results[0]
    base_area = baseline.area_um2 if baseline else 1.0
    base_leak = baseline.leakage_nw if baseline else 1.0
    rows = [
        ComparisonRow(
            circuit=circuit,
            technique=result.technique,
            area_um2=result.area_um2,
            leakage_nw=result.leakage_nw,
            area_pct=100.0 * result.area_um2 / base_area,
            leakage_pct=100.0 * result.leakage_nw / base_leak,
            mt_cells=result.mt_cells,
            switches=result.switches,
            holders=result.holders)
        for result in results
    ]
    return TechniqueComparison(circuit=circuit, rows=rows, results={})


def sweep_grid(designs: Sequence["Design"],
               techniques: tuple[Technique, ...],
               jobs: int) -> list[TechniqueComparison]:
    """Every technique on every design, normalized to Dual-Vth.

    The one technique-comparison grid: one ``optimize`` cell per
    (design, technique) through :func:`facade_grid`, then
    :func:`comparison_from_results` per design, in input order.
    """
    results = facade_grid(
        [(design, "optimize", OptimizeRequest(technique=technique))
         for design in designs for technique in techniques], jobs)
    per_design = len(techniques)
    return [comparison_from_results(
                design.circuit,
                results[index * per_design:(index + 1) * per_design])
            for index, design in enumerate(designs)]


class Design:
    """Facade over one (netlist, configuration) pair.

    Obtained from :meth:`Workspace.design`; every method is cached on
    its typed request, so repeated calls are warm.  Methods are
    serialized by a per-design lock (the flow and result caches are
    shared mutable state); jobs against different designs run
    concurrently.
    """

    def __init__(self, workspace: Workspace, circuit: str,
                 config: FlowConfig, netlist: Netlist, fingerprint: str):
        self.workspace = workspace
        self.circuit = circuit
        self.config = config
        #: The netlist this design was created for (treat as
        #: immutable) and its content fingerprint, the key of every
        #: per-design cache.
        self.netlist = netlist
        self.fingerprint = fingerprint
        self._lock = threading.RLock()
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

    # A design exists only within its workspace, so this reads the
    # workspace's library without counting a cache lookup.

    @property
    def library(self) -> Library:
        return self.workspace._built_library()

    def _stats(self) -> CacheStats:
        return self.workspace.stats

    # --- analyze ------------------------------------------------------------

    @staticmethod
    def _request(request, cls, **fields):
        """The request object, or a ``cls`` built from the non-``None``
        keyword fields (the dataclass defaults fill the rest) — never
        both."""
        supplied = {key: value for key, value in fields.items()
                    if value is not None}
        if request is not None and supplied:
            raise ConfigError(
                "request",
                f"pass either a request object or field keyword "
                f"arguments, not both (got request plus "
                f"{sorted(supplied)})")
        return request if request is not None else cls(**supplied)

    @_locked
    def analyze(self, request: AnalyzeRequest | None = None, *,
                variant: str | None = None) -> AnalyzeResult:
        """Baseline STA + leakage of the design as loaded (no flow)."""
        request = self._request(request, AnalyzeRequest, variant=variant)
        if request in self._analyses:
            self._stats().hit("analyze")
            return self._analyses[request]
        self._stats().miss("analyze")
        # The derive_constraints stage's rule, on the unplaced mapped
        # netlist (no parasitics): analyze() probes the design before
        # any physical flow exists.
        mapped = self.workspace._mapped(self, request.variant)
        constraints = derive_clock_constraints(self.config,
                                               mapped.critical_delay)
        report = TimingSession(mapped.netlist, self.library,
                               constraints).report()
        breakdown = mapped.leakage
        result = AnalyzeResult(
            circuit=self.circuit,
            fingerprint=self.fingerprint,
            variant=request.variant,
            instances=len(mapped.netlist.instances),
            clock_period_ns=constraints.clock_period,
            wns=report.wns,
            hold_wns=report.hold_wns,
            leakage_nw=breakdown.total_nw,
            leakage_by_category=breakdown.category_values(),
            compute_backend=resolve_backend(self.config.compute_backend))
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
        export); the typed surface is :meth:`optimize`.  The
        :class:`~repro.core.flow.SelectiveMtFlow` run forks the
        design's cached context after the technique's shared steps
        (see :meth:`Workspace._flow_prefix`).
        """
        technique = _technique("technique", technique)
        if technique in self._flows:
            self._stats().hit("flow")
            return self._flows[technique]
        self._stats().miss("flow")
        with span("api.flow", circuit=self.circuit,
                  technique=technique.value):
            flow = SelectiveMtFlow(self.netlist, self.library, technique,
                                   self.config)
            result = flow.run(
                prefix=lambda steps: self.workspace._flow_prefix(self, steps))
        self._flows[technique] = result
        return result

    @_locked
    def optimize(self, request: OptimizeRequest | None = None, *,
                 technique: Technique | str | None = None
                 ) -> OptimizeResult:
        """Run one technique end to end (cached per technique)."""
        request = self._request(request, OptimizeRequest,
                                technique=technique)
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

        The one corner-signoff path: the flow result is reused from
        the optimize cache; each corner is then one leakage pass plus
        one STA against the corner-derived library from the
        process-wide derivation memo.  Empty ``corners`` means the
        technology's default signoff set.
        """
        request = self._request(request, SignoffRequest,
                                technique=technique, corners=corners)
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
        results = evaluate_corners_batched(
            flow.netlist, library, corner_names, flow.constraints,
            parasitics=flow.parasitics, network=flow.network,
            clock_arrivals=clock_arrivals,
            compute_backend=self.config.compute_backend)
        rows = tuple(
            SignoffCornerRow(corner=name, leakage_nw=res.leakage_nw,
                             wns=res.wns, hold_wns=res.hold_wns)
            for name, res in results.items())
        result = SignoffResult(
            circuit=self.circuit,
            technique=request.technique,
            corners=corner_names,
            area_um2=flow.total_area,
            nominal_leakage_nw=flow.leakage_nw,
            nominal_wns=flow.timing.wns,
            rows=rows)
        self._signoffs[request] = result
        return result

    # --- standby and sleep policy ------------------------------------------

    def _sleep_inputs(self, request, analysis: str):
        """The standby/policy prologue: the library, the technique's
        flow result (which must carry a shared-switch VGND network),
        the request's scenarios and its corners.

        Built-in scenario names default in only when the request
        carries neither names nor payloads — a payload-only request
        means exactly those workloads.  Empty ``corners`` means the
        technology's default signoff set.
        """
        from repro.standby.scenario import (
            resolve_scenario,
            standard_scenarios,
        )
        from repro.variation.corners import default_signoff_corners

        library = self.library
        flow = self.flow_result(request.technique)
        if flow.network is None or not flow.network.clusters:
            raise FlowError(
                f"technique {request.technique.value!r} builds no "
                f"shared-switch VGND network; {analysis} needs "
                f"improved_smt")
        names = request.scenarios
        if not names and not request.scenario_payloads:
            names = tuple(standard_scenarios())
        scenarios = [resolve_scenario(name) for name in names] \
            + list(request.scenario_payloads)
        corners = request.corners or default_signoff_corners(library.tech)
        return library, flow, scenarios, corners

    @_locked
    def standby(self, request: StandbyRequest | None = None, *,
                technique: Technique | str | None = None,
                scenarios=None, scenario_payloads=None, corners=None,
                rush_budget_ma: float | None = None,
                settle_fraction: float | None = None) -> StandbyResult:
        """Standby-transition study of one technique's finished design.

        The one standby path: the flow result comes from the optimize
        cache; corner-derived libraries come from the process-wide
        derivation memo; the post-route parasitics the flow extracted
        refine the VGND rail capacitances.  Only the improved
        technique builds the shared-switch network this analysis
        characterizes — the others raise
        :class:`~repro.errors.FlowError`.  Empty ``scenarios`` means
        every built-in scenario, empty ``corners`` the default signoff
        set.
        """
        request = self._request(
            request, StandbyRequest, technique=technique,
            scenarios=scenarios, scenario_payloads=scenario_payloads,
            corners=corners, rush_budget_ma=rush_budget_ma,
            settle_fraction=settle_fraction)
        if request in self._standbys:
            self._stats().hit("standby")
            return self._standbys[request]
        self._stats().miss("standby")
        from repro.standby.engine import StandbyEngine

        library, flow, scenario_objs, corner_names = self._sleep_inputs(
            request, "standby-transition analysis")
        engine = StandbyEngine(
            flow.netlist, library, flow.network, scenario_objs,
            corners=corner_names,
            settle_fraction=request.settle_fraction,
            rush_budget_ma=request.rush_budget_ma,
            parasitics=flow.parasitics,
            compute_backend=self.config.compute_backend,
            circuit=self.circuit, technique=request.technique)
        result = engine.run()
        self._standbys[request] = result
        return result

    @_locked
    def policy(self, request: PolicyRequest | None = None, *,
               technique: Technique | str | None = None,
               scenarios=None, scenario_payloads=None, corners=None,
               candidates: int | None = None,
               max_domains: int | None = None,
               rush_budget_ma: float | None = None,
               settle_fraction: float | None = None) -> PolicyResult:
        """Sleep-policy sweep of one technique's finished design.

        The one policy path: sweeps at least ``candidates`` (domain
        plan, threshold) policies through the batched scenario kernel
        and returns the Pareto front of (net savings, worst wake
        latency, peak rush).  Flow result, scenarios, corners and
        caching work as in :meth:`standby`.
        """
        request = self._request(
            request, PolicyRequest, technique=technique,
            scenarios=scenarios, scenario_payloads=scenario_payloads,
            corners=corners, candidates=candidates,
            max_domains=max_domains, rush_budget_ma=rush_budget_ma,
            settle_fraction=settle_fraction)
        if request in self._policies:
            self._stats().hit("policy")
            return self._policies[request]
        self._stats().miss("policy")
        library, flow, scenario_objs, corner_names = self._sleep_inputs(
            request, "sleep-policy optimization")
        optimizer = PolicyOptimizer(
            flow.netlist, library, flow.network, scenario_objs,
            corners=corner_names,
            candidates=request.candidates,
            max_domains=request.max_domains,
            settle_fraction=request.settle_fraction,
            rush_budget_ma=request.rush_budget_ma,
            parasitics=flow.parasitics,
            compute_backend=self.config.compute_backend,
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

        The cached flow result is chunked into ``min(jobs, samples)``
        sample chunks (:class:`~repro.variation.jobs.McJob`) on the
        process-pool runner, which runs a single chunk in process; a
        pooled chunk ships the finished design, so no worker runs a
        flow.  Sample ``k`` is a pure function of ``(seed, k)``, so the
        statistics are identical for any fan-out.
        """
        request = self._request(request, MonteCarloRequest, **kwargs)
        jobs = self.workspace.jobs if jobs is None else max(1, int(jobs))
        if request in self._montecarlos:
            self._stats().hit("montecarlo")
            return self._montecarlos[request]
        self._stats().miss("montecarlo")
        from repro.variation.jobs import McJob, run_mc_job
        from repro.variation.montecarlo import (
            BUDGET_FACTOR,
            McConfig,
            summarize,
        )

        mc = McConfig(samples=request.samples, seed=request.seed,
                      sigma_global_v=request.sigma_global_v,
                      sigma_local_v=request.sigma_local_v,
                      timing=request.timing,
                      leakage_budget_nw=request.leakage_budget_nw)
        flow = self.flow_result(request.technique)
        chunks = min(jobs, request.samples)
        bounds = [i * request.samples // chunks for i in range(chunks + 1)]
        outcomes = ExperimentRunner(jobs=jobs, library=self.library).map(
            run_mc_job,
            [McJob(flow, mc, request.corner, self.config.compute_backend,
                   start=start, count=stop - start)
             for start, stop in zip(bounds, bounds[1:])])
        samples = [s for outcome in outcomes for s in outcome.samples]
        nominal_leakage = outcomes[0].nominal_leakage_nw
        budget = mc.leakage_budget_nw
        if budget is None:
            budget = BUDGET_FACTOR * nominal_leakage
        result = MonteCarloResult(
            circuit=self.circuit,
            technique=request.technique,
            corner=request.corner,
            samples=request.samples,
            seed=request.seed,
            area_um2=flow.total_area,
            nominal_leakage_nw=nominal_leakage,
            nominal_wns=outcomes[0].nominal_wns,
            statistics=summarize(samples, leakage_budget_nw=budget),
            sample_values=tuple(samples))
        self._montecarlos[request] = result
        return result

    # --- sweep --------------------------------------------------------------

    @_locked
    def sweep(self, request: SweepRequest | None = None, *,
              techniques=None, jobs: int | None = None) -> SweepResult:
        """Compare techniques on this design (one Table 1 row group)."""
        request = self._request(request, SweepRequest,
                                techniques=techniques)
        jobs = self.workspace.jobs if jobs is None else max(1, int(jobs))
        key = (request, jobs)
        if key in self._sweeps:
            self._stats().hit("sweep")
            return self._sweeps[key]
        self._stats().miss("sweep")
        (comparison,) = sweep_grid([self], request.techniques, jobs)
        result = SweepResult(rows=tuple(comparison.rows))
        self._sweeps[key] = result
        return result
