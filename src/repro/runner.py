"""Parallel experiment runner.

The paper's evaluation — and the cluster-substrate literature it sits
in — is a grid of (circuit x technique) flow runs.  Each run is
independent and CPU-bound, so :class:`ExperimentRunner` fans
:class:`FlowJob` items out over a process pool while guaranteeing:

* **deterministic results** — every job carries its own seed (the
  placement seed, the flow's only randomness), so a job's outcome is a
  pure function of the job, independent of scheduling or worker count;
* **deterministic ordering** — outcomes are returned in submission
  order regardless of completion order;
* **identical serial/parallel numbers** — ``jobs=1`` executes in
  process through the very same job function, so ``--jobs N`` can be
  raised or lowered without perturbing a single digit (pinned by
  ``tests/test_determinism.py``).

A library passed to the runner is installed in every worker via the
pool initializer (fork or spawn alike); otherwise workers build the
deterministic default library once per process.
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

from repro.benchcircuits.suite import load_circuit
from repro.config import FlowConfig, Technique
from repro.core.compare import (
    ComparisonRow,
    TechniqueComparison,
    count_cell_kinds,
)
from repro.core.flow import SelectiveMtFlow
from repro.errors import FlowError
from repro.liberty.library import Library
from repro.liberty.synth import build_default_library
from repro.netlist.core import Netlist
from repro.obs import spans as obs_spans

ALL_TECHNIQUES = (Technique.DUAL_VTH, Technique.CONVENTIONAL_SMT,
                  Technique.IMPROVED_SMT)


@dataclasses.dataclass(frozen=True)
class FlowJob:
    """One flow run: a circuit, a technique, a config, a seed."""

    circuit: str
    technique: Technique
    config: FlowConfig = dataclasses.field(default_factory=FlowConfig)
    #: Placement seed override; ``None`` keeps the config's seed.
    seed: int | None = None
    #: In-memory netlist override (pickled to workers); ``circuit``
    #: then only labels the outcome.
    netlist: Netlist | None = None

    def resolved_config(self) -> FlowConfig:
        if self.seed is None:
            return self.config
        return dataclasses.replace(self.config, placement_seed=self.seed)


@dataclasses.dataclass
class JobOutcome:
    """Slim, picklable result of one :class:`FlowJob`."""

    circuit: str
    technique: Technique
    area_um2: float
    leakage_nw: float
    wns: float
    hold_wns: float
    mt_cells: int
    switches: int
    holders: int
    elapsed_s: float
    error: str | None = None
    #: The compute backend the job actually ran on (after the graceful
    #: numpy-missing fallback in the worker process).
    compute_backend: str = "python"
    #: Finished span trees recorded while the job ran (tracing only).
    #: Spans are collected per process, so a pool worker's trees ride
    #: home on the outcome; :class:`ExperimentRunner` grafts them into
    #: the parent trace and clears the field.
    spans: tuple = dataclasses.field(default=(), repr=False,
                                     compare=False)

    @property
    def ok(self) -> bool:
        return self.error is None


_PROCESS_LIBRARY: Library | None = None


def _process_library() -> Library:
    """Per-process default library (deterministic, built at most once)."""
    global _PROCESS_LIBRARY
    if _PROCESS_LIBRARY is None:
        _PROCESS_LIBRARY = build_default_library()
    return _PROCESS_LIBRARY


def _worker_init(library: Library | None, tracing: bool = False):
    """Pool initializer: install the caller's library in the worker.

    Runs once per worker process under both fork and spawn start
    methods, so a caller-supplied (possibly custom) library reaches
    every job and serial/parallel runs stay bit-identical.  When the
    parent traces, the worker traces too (its finished spans ship back
    with each result).
    """
    global _PROCESS_LIBRARY
    _PROCESS_LIBRARY = library
    obs_spans.enable(tracing)


def run_flow_job(job: FlowJob, library: Library | None = None) -> JobOutcome:
    """Execute one job; never raises (errors land in the outcome)."""
    from repro.compute import resolve_backend

    started = time.perf_counter()
    library = library or _process_library()
    backend = "python"
    try:
        config = job.resolved_config()
        backend = resolve_backend(config.compute_backend)
        netlist = job.netlist if job.netlist is not None \
            else load_circuit(job.circuit)
        with obs_spans.span("runner.flow_job", circuit=job.circuit,
                            technique=job.technique.value) as sp:
            flow = SelectiveMtFlow(netlist, library, job.technique,
                                   config)
            result = flow.run()
            sp.set(backend=backend)
        mt, switches, holders = count_cell_kinds(result.netlist, library)
        outcome = JobOutcome(
            circuit=job.circuit,
            technique=job.technique,
            area_um2=result.total_area,
            leakage_nw=result.leakage_nw,
            wns=result.timing.wns,
            hold_wns=result.timing.hold_wns,
            mt_cells=mt, switches=switches, holders=holders,
            elapsed_s=time.perf_counter() - started,
            compute_backend=backend)
    except Exception:
        outcome = JobOutcome(
            circuit=job.circuit, technique=job.technique,
            area_um2=0.0, leakage_nw=0.0, wns=0.0, hold_wns=0.0,
            mt_cells=0, switches=0, holders=0,
            elapsed_s=time.perf_counter() - started,
            error=traceback.format_exc(),
            compute_backend=backend)
    if obs_spans.is_enabled():
        # Stash any finished root spans on the outcome so they survive
        # the pool's pickle boundary; the runner adopts them back into
        # the live trace (serial and pooled runs end up identical).
        outcome.spans = tuple(obs_spans.take_records())
    return outcome


def _map_call(fn, item):
    """Pool-side trampoline: hand the worker's library to the job fn.

    Ships the worker's finished span trees (if tracing) alongside the
    result, so generic mapped functions — corner signoff, Monte-Carlo
    chunks — propagate their spans without knowing about tracing.
    """
    result = fn(item, _process_library())
    return result, obs_spans.take_records()


class ExperimentRunner:
    """Fans jobs out across processes, results in submission order.

    :meth:`run` executes flow jobs; :meth:`map` is the generic
    substrate underneath it, used by the variation engine to fan out
    corner-signoff and Monte-Carlo-chunk jobs with the same
    determinism guarantees (per-job purity, submission-order results,
    serial ≡ parallel).
    """

    def __init__(self, jobs: int = 1, library: Library | None = None):
        self.jobs = max(1, int(jobs))
        self.library = library

    def map(self, fn, items: Sequence) -> list:
        """Apply ``fn(item, library)`` to every item, optionally pooled.

        ``fn`` must be a picklable top-level function whose result is a
        pure function of ``(item, library)``; the runner then
        guarantees identical results for any ``jobs`` setting.
        """
        items = list(items)
        if self.jobs == 1 or len(items) <= 1:
            library = self.library if self.library is not None \
                else _process_library()
            results = [fn(item, library) for item in items]
            self._graft_result_spans(results)
            return results
        workers = min(self.jobs, len(items))
        with ProcessPoolExecutor(
                max_workers=workers, initializer=_worker_init,
                initargs=(self.library, obs_spans.is_enabled())) as pool:
            futures = [pool.submit(_map_call, fn, item) for item in items]
            results = []
            for future in futures:
                result, worker_spans = future.result()
                obs_spans.adopt(worker_spans)
                results.append(result)
        self._graft_result_spans(results)
        return results

    @staticmethod
    def _graft_result_spans(results):
        """Adopt spans riding on outcomes (see JobOutcome.spans)."""
        for result in results:
            records = getattr(result, "spans", None)
            if records:
                obs_spans.adopt(records)
                result.spans = ()

    def run(self, flow_jobs: Sequence[FlowJob]) -> list[JobOutcome]:
        return self.map(run_flow_job, flow_jobs)


def comparison_from_outcomes(circuit: str,
                             outcomes: Sequence[JobOutcome]
                             ) -> TechniqueComparison:
    """Normalize one circuit's outcomes to the Dual-Vth baseline.

    Produces the same rows (same float operations) as
    :func:`repro.api.studies.technique_comparison`; the heavyweight
    per-technique ``results`` dict stays empty because outcomes cross a
    process boundary.
    """
    failed = [o for o in outcomes if not o.ok]
    if failed:
        first = failed[0]
        raise FlowError(
            f"{len(failed)} flow job(s) failed on circuit {circuit!r} "
            f"({first.technique.value}):\n{first.error}")
    # Mirror technique_comparison(): Dual-Vth is the reference when
    # present, else the first requested technique normalizes to 100 %.
    baseline = next((o for o in outcomes
                     if o.technique == Technique.DUAL_VTH), None)
    if baseline is None and outcomes:
        baseline = outcomes[0]
    base_area = baseline.area_um2 if baseline else 1.0
    base_leak = baseline.leakage_nw if baseline else 1.0
    rows = [
        ComparisonRow(
            circuit=circuit,
            technique=outcome.technique,
            area_um2=outcome.area_um2,
            leakage_nw=outcome.leakage_nw,
            area_pct=100.0 * outcome.area_um2 / base_area,
            leakage_pct=100.0 * outcome.leakage_nw / base_leak,
            mt_cells=outcome.mt_cells,
            switches=outcome.switches,
            holders=outcome.holders)
        for outcome in outcomes
    ]
    return TechniqueComparison(circuit=circuit, rows=rows, results={})


def run_sweep(circuits: Sequence[str],
              config: FlowConfig | None = None,
              techniques: Sequence[Technique] = ALL_TECHNIQUES,
              jobs: int = 1,
              seed: int | None = None,
              library: Library | None = None
              ) -> list[TechniqueComparison]:
    """Compare techniques across circuits, optionally in parallel.

    The work grid is ``circuits x techniques``; results come back as
    one :class:`TechniqueComparison` per circuit, in input order.
    """
    config = config or FlowConfig()
    flow_jobs = [FlowJob(circuit=circuit, technique=technique,
                         config=config, seed=seed)
                 for circuit in circuits for technique in techniques]
    outcomes = ExperimentRunner(jobs=jobs, library=library).run(flow_jobs)
    per_circuit = len(techniques)
    comparisons = []
    for index, circuit in enumerate(circuits):
        chunk = outcomes[index * per_circuit:(index + 1) * per_circuit]
        comparisons.append(comparison_from_outcomes(circuit, chunk))
    return comparisons


SWEEP_HEADER = (f"{'circuit':<10} {'technique':<18} {'area%':>8} "
                f"{'leak%':>8} {'MT':>5} {'SW':>4} {'HOLD':>5}")


def render_sweep_row(circuit: str, row: ComparisonRow) -> str:
    return (f"{circuit:<10} {row.technique.value:<18} "
            f"{row.area_pct:8.2f} {row.leakage_pct:8.2f} "
            f"{row.mt_cells:5d} {row.switches:4d} {row.holders:5d}")


def render_sweep(comparisons: Sequence[TechniqueComparison]) -> str:
    """The ISCAS-sweep table: Table 1's format across circuits."""
    lines = [SWEEP_HEADER]
    for comparison in comparisons:
        for row in comparison.rows:
            lines.append(render_sweep_row(comparison.circuit, row))
    return "\n".join(lines)
