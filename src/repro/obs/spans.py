"""Hierarchical spans: nested, attributed wall-clock measurements.

A *span* is one timed region of the flow — a pipeline stage, an STA
propagation, a Monte-Carlo chunk — opened as a context manager::

    from repro.obs import span

    with span("sta.full_run", instances=10_000) as sp:
        ...
        sp.set(backend="numpy")        # attributes set mid-span

Spans nest: a span opened while another is live on the same thread
becomes its child, so one flow run produces one tree whose shape is a
deterministic function of the work performed (timestamps vary, the
tree does not — pinned by ``tests/obs/test_spans.py``).

Collection is **disabled by default** and the disabled path is a
no-op: :func:`span` returns a shared null object whose enter/exit do
nothing, so instrumented hot code pays one truthiness check per span
site (benchmarked in ``benchmarks/test_bench_obs.py``, asserted < 2 %
on the 10k-instance STA bench).  :func:`timed_span` is the variant
for call sites that need the elapsed wall-clock *regardless* of
tracing (e.g. :func:`~repro.core.stages.run_stages`, whose
``StageReport.elapsed_s`` it feeds): it always performs the same
``perf_counter`` pair the hand-rolled timing code used, and records a
span only when tracing is enabled.

Thread/process model:

* each thread keeps its own open-span stack (``threading.local``), so
  service worker threads trace concurrently without interleaving;
* completed *root* spans land in a process-wide list guarded by a
  lock; :func:`take_records` drains it;
* child processes (the :class:`~repro.runner.ExperimentRunner` pool
  and the service's shard workers) trace independently and ship their
  finished roots back to the parent in the runner's
  :func:`~repro.runner._map_call` envelope; the parent grafts them
  with :func:`adopt` — under the currently
  open span when there is one, else as new roots.  Timestamps are
  ``time.perf_counter`` values and therefore process-local; exported
  traces keep per-process tracks (``pid``/``tid``) instead of
  pretending the clocks align.

Enable with :func:`enable` / the CLI ``--trace`` flag / the
``REPRO_TRACE`` environment variable (any value other than
``"" / 0 / off / none / disabled`` enables tracing at import).
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from typing import Any

_FALSY = {"", "0", "off", "none", "disabled"}

ENV_VAR = "REPRO_TRACE"

#: Safety cap on retained finished root spans; beyond it new roots are
#: dropped (counted in :func:`dropped_roots`) so an always-on tracer
#: cannot grow without bound.
MAX_ROOTS = 50_000

#: Attribute values that serialize as-is; anything else is repr()'d.
_SCALARS = (str, int, float, bool, type(None))


@dataclasses.dataclass
class SpanRecord:
    """One completed span (picklable, ships across the process pool)."""

    name: str
    start_s: float        # time.perf_counter() at entry (process epoch)
    duration_s: float
    pid: int
    tid: int
    attributes: dict[str, Any] = dataclasses.field(default_factory=dict)
    children: list["SpanRecord"] = dataclasses.field(default_factory=list)

    def shape(self):
        """The timestamp-free tree: (name, attributes, child shapes).

        Two runs of the same work produce equal shapes — the
        determinism contract tests assert on.
        """
        return (self.name, tuple(sorted(self.attributes.items())),
                tuple(child.shape() for child in self.children))

    def walk(self):
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()


class _Tracer:
    """Process-wide collection state."""

    def __init__(self):
        self.enabled = False
        self._lock = threading.Lock()
        self._roots: list[SpanRecord] = []
        self._dropped = 0
        self._local = threading.local()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def finish(self, record: SpanRecord):
        stack = self.stack()
        if stack:
            stack[-1].children.append(record)
            return
        with self._lock:
            if len(self._roots) >= MAX_ROOTS:
                self._dropped += 1
            else:
                self._roots.append(record)

    def adopt(self, records):
        records = [r for r in records if isinstance(r, SpanRecord)]
        if not records:
            return
        stack = self.stack()
        if stack:
            stack[-1].children.extend(records)
            return
        with self._lock:
            room = MAX_ROOTS - len(self._roots)
            self._roots.extend(records[:max(room, 0)])
            self._dropped += max(len(records) - room, 0)

    def take(self) -> list[SpanRecord]:
        with self._lock:
            records, self._roots = self._roots, []
            return records

    def reset(self):
        with self._lock:
            self._roots = []
            self._dropped = 0
        self._local = threading.local()


_TRACER = _Tracer()


class _NullSpan:
    """Shared no-op span: the disabled fast path."""

    __slots__ = ()
    elapsed_s = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attributes):
        pass


_NULL = _NullSpan()


class _TimedSpan:
    """Measures wall-clock; records a span only when asked to."""

    __slots__ = ("name", "attributes", "_record", "_children",
                 "_t0", "elapsed_s")

    def __init__(self, name: str, attributes: dict, record: bool):
        self.name = name
        self.attributes = attributes
        self._record = record
        self._children: list[SpanRecord] = []
        self.elapsed_s = 0.0

    def set(self, **attributes):
        """Attach attributes mid-span (values must be JSON scalars;
        anything else is repr()'d at export time)."""
        self.attributes.update(attributes)

    def __enter__(self):
        if self._record:
            _TRACER.stack().append(_OpenFrame(self))
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        self.elapsed_s = t1 - self._t0
        if self._record:
            frame = _TRACER.stack().pop()
            record = SpanRecord(
                name=self.name, start_s=self._t0,
                duration_s=self.elapsed_s,
                pid=os.getpid(), tid=threading.get_ident(),
                attributes=dict(self.attributes),
                children=frame.children)
            _TRACER.finish(record)
        return False


class _OpenFrame:
    """A live span on the thread stack, accumulating child records."""

    __slots__ = ("span", "children")

    def __init__(self, span: _TimedSpan):
        self.span = span
        self.children: list[SpanRecord] = []


# _OpenFrame needs to look like a record sink for _Tracer.finish/adopt.
# (finish/adopt append to stack[-1].children, which both SpanRecord and
# _OpenFrame expose.)


def span(name: str, **attributes):
    """A recorded span when tracing is enabled, else a shared no-op."""
    if not _TRACER.enabled:
        return _NULL
    return _TimedSpan(name, attributes, record=True)


def timed_span(name: str, **attributes):
    """A span that always measures ``elapsed_s``.

    When tracing is disabled this is exactly the ``perf_counter``
    enter/exit pair the call site would otherwise hand-roll; when
    enabled it additionally records the span.
    """
    return _TimedSpan(name, attributes, record=_TRACER.enabled)


def enable(on: bool = True):
    """Turn span collection on (or off; off keeps collected records)."""
    _TRACER.enabled = bool(on)


def disable():
    enable(False)


def is_enabled() -> bool:
    return _TRACER.enabled


def take_records() -> list[SpanRecord]:
    """Drain (and return) the finished root spans collected so far."""
    return _TRACER.take()


def adopt(records):
    """Graft finished spans (e.g. shipped from a pool worker) into the
    current trace: under the open span if one is live on this thread,
    else as new roots.  No-op when tracing is disabled."""
    if _TRACER.enabled:
        _TRACER.adopt(records)


def dropped_roots() -> int:
    """Roots dropped by the :data:`MAX_ROOTS` safety cap."""
    return _TRACER._dropped


def reset():
    """Clear all collected spans and the dropped counter (tests)."""
    _TRACER.reset()


def _env_enabled() -> bool:
    return os.environ.get(ENV_VAR, "").strip().lower() not in _FALSY


if _env_enabled():  # pragma: no cover - exercised via subprocess in CI
    enable()
