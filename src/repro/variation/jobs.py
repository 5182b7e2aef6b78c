"""Picklable variation jobs for the parallel experiment runner.

Two job shapes ride :meth:`repro.runner.ExperimentRunner.map`:

* :class:`CornerJob` — one (circuit, technique) flow run followed by
  corner signoff over a corner-name list (via the flow's
  ``corner_signoff`` stage), returning slim per-corner rows;
* :class:`McJob` — one flow run followed by Monte-Carlo samples
  ``start .. start + count - 1``.  Because sample ``k`` is a pure
  function of ``(seed, k)``, a sample grid can be chunked across any
  number of jobs and merged in submission order without changing a
  digit.

Both inherit the runner's determinism contract: the placement seed
rides in each job's config, so outcomes are pure functions of the job
and independent of scheduling or worker count.
"""

from __future__ import annotations

import dataclasses
import time
import traceback

from repro.benchcircuits.suite import load_circuit
from repro.config import FlowConfig, Technique
from repro.core.flow import FlowResult, SelectiveMtFlow
from repro.liberty.library import Library
from repro.netlist.core import Netlist
from repro.variation.corners import (
    derive_corner_library_cached,
    resolve_corner,
)
from repro.variation.montecarlo import McConfig, McSample, MonteCarloEngine


@dataclasses.dataclass(frozen=True)
class CornerJob:
    """One circuit x technique flow plus multi-corner signoff."""

    circuit: str
    technique: Technique
    config: FlowConfig = dataclasses.field(default_factory=FlowConfig)
    corners: tuple[str, ...] = ()

    def resolved_config(self) -> FlowConfig:
        return dataclasses.replace(self.config,
                                   signoff_corners=tuple(self.corners))


@dataclasses.dataclass
class CornerRow:
    """One corner's signoff numbers (slim, picklable)."""

    corner: str
    leakage_nw: float
    wns: float
    hold_wns: float


@dataclasses.dataclass
class CornerOutcome:
    """Result of one :class:`CornerJob`."""

    circuit: str
    technique: Technique
    area_um2: float
    nominal_leakage_nw: float
    nominal_wns: float
    rows: list[CornerRow]
    #: Wall-clock, not part of the result's identity (so serial and
    #: parallel runs of the same grid compare equal).
    elapsed_s: float = dataclasses.field(compare=False, default=0.0)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def row(self, corner: str) -> CornerRow:
        for row in self.rows:
            if row.corner == corner:
                return row
        raise KeyError(f"no signoff row for corner {corner!r}")


def run_corner_job(job: CornerJob, library: Library) -> CornerOutcome:
    """Execute one corner job; never raises (errors land in the outcome)."""
    started = time.perf_counter()
    try:
        netlist = load_circuit(job.circuit)
        flow = SelectiveMtFlow(netlist, library, job.technique,
                               job.resolved_config())
        result = flow.run()
        rows = [CornerRow(corner=name, leakage_nw=res.leakage_nw,
                          wns=res.wns, hold_wns=res.hold_wns)
                for name, res in result.corners.items()]
        return CornerOutcome(
            circuit=job.circuit,
            technique=job.technique,
            area_um2=result.total_area,
            nominal_leakage_nw=result.leakage_nw,
            nominal_wns=result.timing.wns,
            rows=rows,
            elapsed_s=time.perf_counter() - started)
    except Exception:
        return CornerOutcome(
            circuit=job.circuit, technique=job.technique, area_um2=0.0,
            nominal_leakage_nw=0.0, nominal_wns=0.0, rows=[],
            elapsed_s=time.perf_counter() - started,
            error=traceback.format_exc())


@dataclasses.dataclass(frozen=True)
class McJob:
    """One flow run plus a contiguous chunk of Monte-Carlo samples."""

    circuit: str
    technique: Technique
    config: FlowConfig = dataclasses.field(default_factory=FlowConfig)
    mc: McConfig = dataclasses.field(default_factory=McConfig)
    #: Evaluate samples around this corner instead of nominal.
    corner: str | None = None
    start: int = 0
    count: int = 0
    #: In-memory netlist override (pickled to workers) for circuits
    #: that are not loadable by registry name (adopted ad-hoc
    #: designs); ``circuit`` then only labels the outcome.
    netlist: Netlist | None = None


@dataclasses.dataclass
class McChunkOutcome:
    """Result of one :class:`McJob`."""

    circuit: str
    technique: Technique
    corner: str | None
    start: int
    nominal_leakage_nw: float
    nominal_wns: float | None
    area_um2: float
    samples: list[McSample]
    elapsed_s: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def build_engine(result: FlowResult, library: Library, mc: McConfig,
                 corner_name: str | None = None,
                 compute_backend: str | None = None) -> MonteCarloEngine:
    """A Monte-Carlo engine over a finished flow result.

    With a corner name, the evaluation library (and the bounce derates
    that feed the session) are corner-derived — samples then describe
    variation *around that corner*.
    """
    eval_library = library
    if corner_name is not None:
        corner = resolve_corner(corner_name, library.tech)
        eval_library = derive_corner_library_cached(library, corner)
    derates = None
    if result.network is not None:
        derates = result.network.derates(result.netlist, eval_library)
    clock_arrivals = result.cts.clock_arrivals if result.cts else None
    return MonteCarloEngine(
        result.netlist, eval_library, config=mc,
        constraints=result.constraints, parasitics=result.parasitics,
        derates=derates, clock_arrivals=clock_arrivals,
        compute_backend=compute_backend)


def run_mc_job(job: McJob, library: Library) -> McChunkOutcome:
    """Execute one Monte-Carlo chunk; never raises."""
    started = time.perf_counter()
    try:
        netlist = job.netlist if job.netlist is not None \
            else load_circuit(job.circuit)
        flow = SelectiveMtFlow(netlist, library, job.technique, job.config)
        result = flow.run()
        engine = build_engine(result, library, job.mc, job.corner,
                              compute_backend=job.config.compute_backend)
        count = job.count or job.mc.samples
        samples = engine.run(start=job.start, count=count)
        return McChunkOutcome(
            circuit=job.circuit,
            technique=job.technique,
            corner=job.corner,
            start=job.start,
            nominal_leakage_nw=engine.nominal_leakage_nw,
            nominal_wns=engine.nominal_wns,
            area_um2=result.total_area,
            samples=samples,
            elapsed_s=time.perf_counter() - started)
    except Exception:
        return McChunkOutcome(
            circuit=job.circuit, technique=job.technique, corner=job.corner,
            start=job.start, nominal_leakage_nw=0.0, nominal_wns=None,
            area_um2=0.0, samples=[],
            elapsed_s=time.perf_counter() - started,
            error=traceback.format_exc())
