"""Parallel experiment runner: the one process pool.

The paper's evaluation — and the cluster-substrate literature it sits
in — is a grid of independent, CPU-bound runs.
:meth:`ExperimentRunner.map` fans ``fn(item, library)`` out over a
process pool while guaranteeing:

* **deterministic results** — every item carries what it depends on
  (a facade job its config with the placement seed, the flow's only
  randomness; a Monte-Carlo chunk its finished design), so a result
  is a pure function of the item, independent of scheduling or
  worker count;
* **deterministic ordering** — results are returned in submission
  order regardless of completion order;
* **identical serial/parallel numbers** — ``jobs=1`` executes in
  process through the very same function, so ``--jobs N`` can be
  raised or lowered without perturbing a single digit (pinned by
  ``tests/test_determinism.py``).

Every pooled submission — here and in the service's shard workers
(:mod:`repro.api.shards`) — is :func:`_map_call`, whose envelope
carries the worker's finished spans home with its result.  The work
itself is one facade call (:class:`repro.api.shards.FacadeJob`, fanned
out by :func:`repro.api.workspace.facade_grid` with its design's
netlist) or one Monte-Carlo chunk (:class:`repro.variation.jobs.McJob`,
with the finished flow result it samples).

A library passed to the runner is installed in every worker via the
pool initializer (fork or spawn alike); otherwise workers build the
deterministic default library once per process.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

from repro.liberty.library import Library
from repro.liberty.synth import build_default_library
from repro.obs import spans as obs_spans

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
    with each result).  A forked worker first drops the spans it
    inherited — the parent's finished roots and the frames it had
    open — so it ships back only what its jobs record.
    """
    global _PROCESS_LIBRARY
    _PROCESS_LIBRARY = library
    obs_spans.reset()
    obs_spans.enable(tracing)


def _map_call(fn, item):
    """Pool-side trampoline: hand the worker's library to the job fn.

    Returns the envelope ``(result, spans)``: the worker's finished
    span trees (if tracing) ride home with the result, so mapped
    functions propagate their spans without knowing about tracing.  A
    failing job's spans are drained too, so they never ride along with
    the next job's result on a long-lived worker.
    """
    try:
        result = fn(item, _process_library())
    finally:
        records = obs_spans.take_records()
    return result, records


class ExperimentRunner:
    """Fans jobs out across processes, results in submission order."""

    def __init__(self, jobs: int = 1, library: Library | None = None):
        self.jobs = max(1, int(jobs))
        self.library = library

    def map(self, fn, items: Sequence) -> list:
        """Apply ``fn(item, library)`` to every item, optionally pooled.

        ``fn`` must be a picklable top-level function whose result is a
        pure function of ``(item, library)``; the runner then
        guarantees identical results for any ``jobs`` setting.  An
        exception raised by ``fn`` reaches the caller as itself, pooled
        or not.
        """
        items = list(items)
        if self.jobs == 1 or len(items) <= 1:
            library = self.library if self.library is not None \
                else _process_library()
            return [fn(item, library) for item in items]
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
        return results
