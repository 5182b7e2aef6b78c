"""Persistent on-disk store of finished job-service result payloads.

The job service's warm path is the :class:`~repro.api.Workspace`
cache — but that dies with the process.  Every service result is
already durable-serializable (it went through
``schemas.check_round_trip`` before landing on the job), so this
module persists the *payload dict* itself: a restarted service (or a
second process pointed at the same directory) answers a previously
computed request straight from disk without recompiling anything.

Store key — SHA-256 over:

* :data:`FORMAT_VERSION` (a bump changes every key, so stale entries
  simply miss and age out);
* the job kind;
* the netlist **content fingerprint**
  (:func:`repro.netlist.fingerprint.netlist_fingerprint`), never the
  display name — renamed-but-identical designs share entries;
* the canonical JSON of the request payload (which carries the
  request's ``schema`` name and ``schema_version``, so a request
  schema bump re-keys), or ``null`` for facade-default requests;
* the canonical JSON of the :class:`~repro.config.FlowConfig`
  overrides (the config digest).

Robustness contract:

* loads are corruption-safe — any unreadable / truncated / mismatched
  entry counts a miss **and an error**, is unlinked, and the job
  simply executes; an entry gone at open time (never stored, or
  evicted by another process) is a plain miss;
* stores are atomic (temp file + ``os.replace``), so a crashed writer
  can never publish a partial entry;
* the directory is capped at :data:`DEFAULT_MAX_ENTRIES` entries
  (override with ``REPRO_RESULT_STORE_MAX``), evicting oldest-mtime
  first; hits refresh mtime, making eviction LRU-ish.

Enable via ``repro-smt serve --result-store DIR`` (or the
``REPRO_RESULT_STORE`` environment variable).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from pathlib import Path

#: On-disk entry layout version; bump when the envelope shape changes.
FORMAT_VERSION = 1

ENV_VAR = "REPRO_RESULT_STORE"
ENV_MAX_ENTRIES = "REPRO_RESULT_STORE_MAX"
DEFAULT_MAX_ENTRIES = 256


def canonical_json(payload) -> str:
    """Deterministic JSON text: the serialization half of every key."""
    return json.dumps(payload, sort_keys=True, allow_nan=False)


def work_key(kind: str, fingerprint: str, request_payload: dict | None,
             config_payload: dict) -> str:
    """Content key of one unit of service work.

    Equal key => the computation is identical, so it doubles as both
    the result-store key and the in-flight coalescing key.
    """
    digest = hashlib.sha256()
    for part in (f"format {FORMAT_VERSION}",
                 f"kind {kind}",
                 f"netlist {fingerprint}",
                 f"request {canonical_json(request_payload)}",
                 f"config {canonical_json(config_payload)}"):
        digest.update(part.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def default_directory() -> Path | None:
    """The ``REPRO_RESULT_STORE`` directory, or None when unset."""
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw or raw.lower() in ("0", "off", "none", "disabled"):
        return None
    return Path(raw)


def _env_max_entries() -> int:
    try:
        return max(1, int(os.environ.get(ENV_MAX_ENTRIES, "")))
    except ValueError:
        return DEFAULT_MAX_ENTRIES


class ResultStore:
    """One result-store directory with self-locking hit/miss counters."""

    def __init__(self, directory: str | Path,
                 max_entries: int | None = None):
        self.directory = Path(directory)
        self.max_entries = _env_max_entries() if max_entries is None \
            else max(1, int(max_entries))
        self._lock = threading.Lock()
        self._counters = {"hits": 0, "misses": 0, "stores": 0,
                          "evictions": 0, "errors": 0}

    def _bump(self, name: str, amount: int = 1):
        with self._lock:
            self._counters[name] += amount

    def stats(self) -> dict[str, int]:
        """Counters (hits/misses/stores/evictions/errors); a metrics
        source for the :data:`repro.obs.REGISTRY`."""
        with self._lock:
            return dict(self._counters)

    def _entry_path(self, key: str) -> Path:
        return self.directory / f"result-{key}.json"

    # --- the contract -------------------------------------------------------

    def load(self, key: str) -> dict | None:
        """The stored payload under ``key``; None on miss/corruption."""
        path = self._entry_path(key)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            if entry.get("format_version") != FORMAT_VERSION:
                raise ValueError("format version mismatch")
            if entry.get("key") != key:
                raise ValueError("key mismatch")
            payload = entry["payload"]
            if not isinstance(payload, dict):
                raise ValueError("payload is not an object")
        except FileNotFoundError:
            # Never stored, or another process evicted it just now.
            self._bump("misses")
            return None
        except Exception:
            # Truncated, corrupt, stale-format or plain unreadable:
            # count a miss, drop the entry so it cannot poison reloads.
            self._bump("errors")
            self._bump("misses")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            os.utime(path)  # LRU-ish: a hit refreshes eviction age
        except OSError:
            pass
        self._bump("hits")
        return payload

    def store(self, key: str, payload: dict) -> bool:
        """Atomically persist ``payload``; False on any I/O failure."""
        tmp_path = None
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            body = canonical_json({"format_version": FORMAT_VERSION,
                                   "key": key, "payload": payload})
            fd, tmp_path = tempfile.mkstemp(dir=self.directory,
                                            suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(body)
            os.replace(tmp_path, self._entry_path(key))
            tmp_path = None
            self._bump("stores")
            self._evict()
            return True
        except (OSError, ValueError):
            self._bump("errors")
            if tmp_path is not None:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
            return False

    def _evict(self):
        """Drop oldest-mtime entries beyond the configured cap."""
        try:
            entries = sorted(self.directory.glob("result-*.json"),
                             key=lambda p: p.stat().st_mtime)
        except OSError:
            return
        for path in entries[:max(len(entries) - self.max_entries, 0)]:
            try:
                path.unlink()
                self._bump("evictions")
            except OSError:
                pass
