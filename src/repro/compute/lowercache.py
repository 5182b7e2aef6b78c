"""Persistent on-disk cache of lowered :class:`NetlistArrayView` state.

Lowering a netlist into the compute backend's flat arrays (CSR arc
streams, stacked LUT tables, coefficient vectors) costs more than the
kernels it feeds on small-to-mid designs — ``BENCH_compute.json``
showed the numpy backend's *cold* STA up to 9x slower than scalar at
50k instances purely from lowering.  This module makes lowering pay
once per (design, library, constraints) content: the built arrays are
serialized to a versioned ``.npz`` under a cache directory and
rehydrated on the next cold start, including across processes (warm
service restarts skip lowering entirely).

Cache key — SHA-256 over:

* the netlist fingerprint (:func:`repro.netlist.fingerprint.netlist_fingerprint`),
* the library/technology content digest (:meth:`Library.content_digest`),
* every :class:`~repro.timing.constraints.Constraints` field,
* the parasitics content (per-net caps and sink delays),
* the clock-arrival map,
* :data:`FORMAT_VERSION` (a format bump changes every key, so stale
  entries simply miss and age out).

Robustness contract:

* loads are corruption-safe — any unreadable / truncated / mismatched
  file counts a miss, is deleted, and lowering proceeds fresh; a file
  gone at open time (never stored, or evicted by another process) is
  a plain miss;
* stores are atomic (temp file + ``os.replace``) so a crashed writer
  can never publish a partial entry;
* the directory is capped at :data:`DEFAULT_MAX_ENTRIES` entries
  (override with ``REPRO_LOWER_CACHE_MAX``), evicting oldest-mtime
  first; hits refresh mtime, making eviction LRU-ish.

Enable by pointing the ``REPRO_LOWER_CACHE`` environment variable at
a directory (created on demand).  Unset / empty / ``0`` / ``off``
disables caching entirely.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.compute.view import NetlistArrayView
from repro.netlist.fingerprint import netlist_fingerprint

#: Serialized-state layout version; bump when export_state() changes.
FORMAT_VERSION = 1

ENV_VAR = "REPRO_LOWER_CACHE"
ENV_MAX_ENTRIES = "REPRO_LOWER_CACHE_MAX"
DEFAULT_MAX_ENTRIES = 64

_DISABLED_VALUES = {"", "0", "off", "none", "disabled"}

_lock = threading.Lock()
_counters = {"hits": 0, "misses": 0, "stores": 0,
             "evictions": 0, "errors": 0}


def _bump(name: str, amount: int = 1):
    with _lock:
        _counters[name] += amount


def stats() -> dict[str, int]:
    """Process-wide cache counters (hits/misses/stores/evictions/errors)."""
    with _lock:
        return dict(_counters)


def reset_stats():
    with _lock:
        for name in _counters:
            _counters[name] = 0


def cache_dir() -> Path | None:
    """The configured cache directory, or None when caching is off."""
    raw = os.environ.get(ENV_VAR, "")
    if raw.strip().lower() in _DISABLED_VALUES:
        return None
    return Path(raw)


def max_entries() -> int:
    raw = os.environ.get(ENV_MAX_ENTRIES, "")
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_MAX_ENTRIES
    return max(value, 1)


def view_key(netlist, library, constraints, parasitics=None,
             clock_arrivals=None) -> str:
    """Content key of one lowering; equal key => identical arrays."""
    digest = hashlib.sha256()

    def put(text: str):
        digest.update(text.encode("utf-8"))
        digest.update(b"\n")

    put(f"format {FORMAT_VERSION}")
    put(f"netlist {netlist_fingerprint(netlist)}")
    put(f"library {library.content_digest()}")
    for field in sorted(constraints.__dataclass_fields__):
        value = getattr(constraints, field)
        if isinstance(value, dict):
            value = sorted(value.items())
        put(f"constraint {field} {value!r}")
    if parasitics:
        for name in sorted(parasitics):
            para = parasitics[name]
            put(f"net {name} {para.total_cap_pf!r}")
            for sink in sorted(para.sink_delays):
                put(f"sink {sink} {para.sink_delays[sink]!r}")
    if clock_arrivals:
        for name in sorted(clock_arrivals):
            put(f"clk {name} {clock_arrivals[name]!r}")
    return digest.hexdigest()


def _entry_path(directory: Path, key: str) -> Path:
    return directory / f"lower-{key}.npz"


def store_view(view: NetlistArrayView, key: str,
               directory: Path | None = None) -> bool:
    """Serialize a built view under ``key``; False on any I/O failure."""
    if directory is None:
        directory = cache_dir()
    if directory is None:
        return False
    tmp_path = None
    try:
        directory.mkdir(parents=True, exist_ok=True)
        state = view.export_state()
        state["format_version"] = np.int64(FORMAT_VERSION)
        state["key"] = np.array(key)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(handle, **state)
        os.replace(tmp_path, _entry_path(directory, key))
        tmp_path = None
        _bump("stores")
        _evict(directory)
        return True
    except OSError:
        _bump("errors")
        if tmp_path is not None:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
        return False


def load_view(key: str, netlist, library, constraints, net_model,
              clock_arrivals=None,
              directory: Path | None = None) -> NetlistArrayView | None:
    """Rehydrate the view stored under ``key``; None on miss/corruption."""
    if directory is None:
        directory = cache_dir()
    if directory is None:
        return None
    path = _entry_path(directory, key)
    try:
        with np.load(path, allow_pickle=False) as data:
            if int(data["format_version"]) != FORMAT_VERSION:
                raise ValueError("format version mismatch")
            if str(data["key"]) != key:
                raise ValueError("key mismatch")
            state = {name: data[name] for name in data.files}
        view = NetlistArrayView.from_state(
            state, netlist, library, constraints, net_model,
            clock_arrivals)
    except FileNotFoundError:
        # Never stored, or another process evicted it just now.
        _bump("misses")
        return None
    except Exception:
        # Truncated, corrupt, stale-format or plain unreadable: treat
        # as a miss and drop the entry so it cannot poison reloads.
        _bump("errors")
        _bump("misses")
        try:
            path.unlink()
        except OSError:
            pass
        return None
    try:
        os.utime(path)
    except OSError:
        pass
    _bump("hits")
    return view


def cached_view(netlist, library, constraints, net_model,
                clock_arrivals=None) -> NetlistArrayView:
    """A lowered view: from the on-disk cache when enabled, else fresh.

    On a miss the fresh lowering is built eagerly and stored back, so
    the *next* process (or session) cold-starts from disk.  With
    caching disabled this is exactly ``NetlistArrayView(...)`` —
    lazily built, zero overhead.
    """
    directory = cache_dir()
    if directory is None:
        return NetlistArrayView(netlist, library, constraints,
                                net_model, clock_arrivals)
    parasitics = getattr(net_model, "parasitics", None)
    key = view_key(netlist, library, constraints, parasitics,
                   clock_arrivals)
    view = load_view(key, netlist, library, constraints, net_model,
                     clock_arrivals, directory)
    if view is not None:
        return view
    view = NetlistArrayView(netlist, library, constraints, net_model,
                            clock_arrivals)
    view.ensure()
    store_view(view, key, directory)
    return view


def _evict(directory: Path):
    """Drop oldest-mtime entries beyond the configured cap."""
    try:
        entries = sorted(directory.glob("lower-*.npz"),
                         key=lambda p: p.stat().st_mtime)
    except OSError:
        return
    excess = len(entries) - max_entries()
    for path in entries[:max(excess, 0)]:
        try:
            path.unlink()
            _bump("evictions")
        except OSError:
            pass
