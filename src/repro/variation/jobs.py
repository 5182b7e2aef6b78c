"""The Monte-Carlo chunk job for the parallel experiment runner.

Every other piece of cross-process work is one facade call
(:class:`repro.api.shards.FacadeJob`; the corner study, for one, is a
grid of ``Design.signoff`` cells).  A sample chunk is not a facade
request, so it keeps its own job: :class:`McJob` is one flow run
followed by Monte-Carlo samples ``start .. start + count - 1``, run by
:func:`run_mc_job` on :meth:`repro.runner.ExperimentRunner.map`.
Because sample ``k`` is a pure function of ``(seed, k)``, a sample grid
can be chunked across any number of jobs and merged in submission
order without changing a digit.

It inherits the runner's determinism contract: the placement seed
rides in each job's config, so outcomes are pure functions of the job
and independent of scheduling or worker count.
"""

from __future__ import annotations

import dataclasses

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
    """Execute one Monte-Carlo chunk (errors raise, pooled or not)."""
    netlist = job.netlist if job.netlist is not None \
        else load_circuit(job.circuit)
    result = SelectiveMtFlow(netlist, library, job.technique,
                             job.config).run()
    engine = build_engine(result, library, job.mc, job.corner,
                          compute_backend=job.config.compute_backend)
    samples = engine.run(start=job.start, count=job.count or job.mc.samples)
    return McChunkOutcome(
        circuit=job.circuit,
        technique=job.technique,
        corner=job.corner,
        start=job.start,
        nominal_leakage_nw=engine.nominal_leakage_nw,
        nominal_wns=engine.nominal_wns,
        area_um2=result.total_area,
        samples=samples)
