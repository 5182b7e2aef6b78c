"""The Monte-Carlo chunk job for the parallel experiment runner.

Every other piece of cross-process work is one facade call
(:class:`repro.api.shards.FacadeJob`; the corner study, for one, is a
grid of ``Design.signoff`` cells).  A sample chunk is not a facade
request, so it keeps its own job: :class:`McJob` is a finished design
(the caller's :class:`~repro.core.flow.FlowResult`, pickled along when
pooled) plus Monte-Carlo samples ``start .. start + count - 1``, run by
:func:`run_mc_job` on :meth:`repro.runner.ExperimentRunner.map`.  No
flow runs in a chunk: it builds the engine and samples.  Because
sample ``k`` is a pure function of ``(seed, k)``, a sample grid can be
chunked across any number of jobs and merged in submission order
without changing a digit.
"""

from __future__ import annotations

import dataclasses

from repro.core.flow import FlowResult
from repro.liberty.library import Library
from repro.variation.corners import (
    derive_corner_library_cached,
    resolve_corner,
)
from repro.variation.montecarlo import McConfig, McSample, MonteCarloEngine


@dataclasses.dataclass(frozen=True)
class McJob:
    """A finished design plus a contiguous chunk of Monte-Carlo samples."""

    result: FlowResult
    mc: McConfig
    #: Evaluate samples around this corner instead of nominal.
    corner: str | None
    compute_backend: str | None
    start: int
    count: int


@dataclasses.dataclass
class McChunkOutcome:
    """Result of one :class:`McJob`."""

    nominal_leakage_nw: float
    nominal_wns: float | None
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
    """Sample one chunk of the job's design (errors raise, pooled or
    not)."""
    engine = build_engine(job.result, library, job.mc, job.corner,
                          compute_backend=job.compute_backend)
    samples = engine.run(start=job.start, count=job.count)
    return McChunkOutcome(nominal_leakage_nw=engine.nominal_leakage_nw,
                          nominal_wns=engine.nominal_wns,
                          samples=samples)
