"""The one cross-process job, and the sharded execution tier.

A :class:`FacadeJob` is one facade call — a job kind, a circuit and
schema payload dicts for the request and the flow configuration —
and the only work besides Monte-Carlo chunks that crosses a process
boundary.  A worker decodes the payloads, gets the
:class:`~repro.api.Design` from a :class:`~repro.api.Workspace`
(``adopt()`` of the job's netlist when it carries one, else the
registry circuit by name), runs :func:`execute_kind` and returns the
round-trip-checked result payload.  Two callers submit it, both
through the runner's :func:`~repro.runner._map_call`, so the worker's
spans come home in the same envelope as its result:

* pooled grids (:func:`repro.api.workspace.facade_grid`) run
  :func:`run_facade_job`, which adopts the cell's netlist in a fresh
  workspace per job, so a cell depends only on its job;
* :class:`ShardPool` runs each service job, which carries no netlist,
  on the warm workspace of its design's shard process.

One warm in-process workspace caps the service's throughput at one
GIL.  The shard tier runs jobs in worker *processes* instead — but
not an anonymous pool: workers are **sharded by the design's SHA-256
content fingerprint**
(:func:`repro.netlist.fingerprint.netlist_fingerprint`).  Every job
for a given design lands on the same shard process, so each shard
keeps its own warm workspace (compiled library, flow results, timing
sessions) and same-design jobs stay cache-local,
while jobs for *different* designs run truly in parallel on different
processes.  Each shard is a single-worker :class:`ProcessPoolExecutor`
(spawned lazily); its payloads are the same durable-serializable
envelopes the HTTP layer speaks, so a shard worker and the in-process
tier produce byte-identical response bodies.

Crash containment: a shard worker that dies mid-job (OOM-killed,
segfault) breaks only its own executor.  :meth:`ShardPool.run` turns
the break into a :class:`ShardError` naming the shard — the job lands
``failed`` with a useful error instead of hanging ``running`` — and
rebuilds the shard's executor so the next job for those designs gets
a fresh warm worker.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.api import schemas
from repro.api.requests import JOB_KINDS
from repro.errors import ReproError, ServiceError
from repro.netlist.core import Netlist
from repro.obs import spans as obs_spans
from repro.runner import _map_call, _process_library, _worker_init


class ShardError(ReproError):
    """A shard worker process died while running a job."""


@dataclasses.dataclass(frozen=True)
class FacadeJob:
    """One facade call, in the payload form that crosses processes."""

    kind: str
    circuit: str
    #: Schema payload of the typed request; None means facade defaults.
    request_payload: dict | None
    config_payload: dict
    #: The design's netlist, pickled along by a pooled grid cell;
    #: ``circuit`` then only names the design.  ``None`` (a shard job)
    #: loads the registry circuit ``circuit``.
    netlist: Netlist | None = None


def shard_index(fingerprint: str, shards: int) -> int:
    """Stable shard routing: leading fingerprint bits mod shard count."""
    return int(fingerprint[:16], 16) % max(1, int(shards))


def execute_kind(design, kind: str, request):
    """Dispatch one job kind onto the :class:`~repro.api.Design` method
    of that name."""
    if kind not in JOB_KINDS:
        raise ServiceError(f"unhandled job kind {kind!r}")
    return getattr(design, kind)(request)


def _execute_job(job: FacadeJob, workspace) -> dict:
    """Payload dicts in, round-trip-checked result payload out."""
    config = schemas.from_dict(job.config_payload)
    request = None if job.request_payload is None \
        else schemas.from_dict(job.request_payload)
    if job.netlist is None:
        design = workspace.design(job.circuit, config)
    else:
        design = workspace.adopt(job.netlist, name=job.circuit,
                                 config=config)
    return schemas.check_round_trip(execute_kind(design, job.kind, request))


def run_facade_job(job: FacadeJob, library) -> dict:
    """Grid worker: run one job on a fresh workspace over ``library``."""
    from repro.api.workspace import Workspace

    return _execute_job(job, Workspace(library=library))


#: Per-shard-process warm workspace (set by the executor initializer).
_WORKSPACE = None


def _shard_init(library, tracing: bool, jobs: int):
    """Executor initializer: the pool worker's setup plus one warm
    workspace, built over the process library so a shard builds the
    default library at most once."""
    global _WORKSPACE
    from repro.api.workspace import Workspace

    _worker_init(library, tracing)
    _WORKSPACE = Workspace(library=_process_library(), jobs=jobs)


def _run_on_shard(job: FacadeJob, library) -> dict:
    """Shard worker: run one job on the shard's warm workspace."""
    return _execute_job(job, _WORKSPACE)


class ShardPool:
    """N single-worker executors, routed by design fingerprint."""

    def __init__(self, shards: int, library=None, jobs: int = 1):
        self.shards = max(1, int(shards))
        self._library = library
        self._jobs = max(1, int(jobs))
        self._lock = threading.Lock()
        self._executors: list[ProcessPoolExecutor | None] = \
            [None] * self.shards
        self._closed = False

    def shard_for(self, fingerprint: str) -> int:
        return shard_index(fingerprint, self.shards)

    def _executor(self, index: int) -> ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise ShardError("shard pool is closed")
            executor = self._executors[index]
            if executor is None:
                executor = ProcessPoolExecutor(
                    max_workers=1, initializer=_shard_init,
                    initargs=(self._library, obs_spans.is_enabled(),
                              self._jobs))
                self._executors[index] = executor
            return executor

    def run(self, kind: str, circuit: str, fingerprint: str,
            request_payload: dict | None, config_payload: dict) -> dict:
        """Execute one job on its design's shard; blocks until done.

        The worker's spans are grafted under the caller's open span.
        Exceptions raised by the job inside the worker propagate
        unchanged; a *dead worker process* becomes a
        :class:`ShardError` and the shard's executor is rebuilt.
        """
        index = self.shard_for(fingerprint)
        executor = self._executor(index)
        future = executor.submit(
            _map_call, _run_on_shard,
            FacadeJob(kind, circuit, request_payload, config_payload))
        try:
            payload, worker_spans = future.result()
        except BrokenProcessPool as exc:
            self._rebuild(index, executor)
            raise ShardError(
                f"shard {index} worker process died while running "
                f"{kind} on {circuit!r} (killed or crashed); the shard "
                f"has been restarted — resubmit the job") from exc
        obs_spans.adopt(worker_spans)
        return payload

    def _rebuild(self, index: int, broken: ProcessPoolExecutor):
        with self._lock:
            if self._executors[index] is broken:
                self._executors[index] = None
        broken.shutdown(wait=False)

    def worker_pids(self) -> dict[int, list[int]]:
        """Live worker pids per shard (spawned shards only; tests)."""
        with self._lock:
            executors = list(self._executors)
        pids: dict[int, list[int]] = {}
        for index, executor in enumerate(executors):
            processes = getattr(executor, "_processes", None) or {}
            if processes:
                pids[index] = list(processes)
        return pids

    def close(self):
        with self._lock:
            self._closed = True
            executors, self._executors = \
                self._executors, [None] * self.shards
        for executor in executors:
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
