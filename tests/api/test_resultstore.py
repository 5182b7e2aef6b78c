"""The persistent result store: keys, robustness contract, eviction."""

import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.api.resultstore import (
    FORMAT_VERSION,
    ResultStore,
    work_key,
)

PAYLOAD = {"schema": "optimize_result", "schema_version": 1,
           "leakage_nw": 12.5, "circuit": "c432"}
FP = "a" * 64
CONFIG = {"schema": "flow_config", "timing_margin": 0.12}
REQUEST = {"schema": "optimize_request", "technique": "improved_smt"}


def _key(**overrides):
    kwargs = dict(kind="optimize", fingerprint=FP,
                  request_payload=REQUEST, config_payload=CONFIG)
    kwargs.update(overrides)
    return work_key(kwargs["kind"], kwargs["fingerprint"],
                    kwargs["request_payload"], kwargs["config_payload"])


# --- keys -------------------------------------------------------------------


def test_key_is_content_addressed_and_sensitive():
    base = _key()
    assert base == _key()  # deterministic
    assert base != _key(kind="signoff")
    assert base != _key(fingerprint="b" * 64)
    assert base != _key(request_payload=None)
    assert base != _key(request_payload={**REQUEST,
                                         "technique": "dual_vth"})
    assert base != _key(config_payload={**CONFIG, "timing_margin": 0.2})


def test_key_ignores_dict_ordering():
    shuffled = dict(reversed(list(REQUEST.items())))
    assert _key() == _key(request_payload=shuffled)


# --- round trip -------------------------------------------------------------


def test_store_load_round_trip(tmp_path):
    store = ResultStore(tmp_path)
    key = _key()
    assert store.load(key) is None  # cold: a miss
    assert store.store(key, PAYLOAD)
    assert store.load(key) == PAYLOAD
    assert store.stats() == {"hits": 1, "misses": 1, "stores": 1,
                             "evictions": 0, "errors": 0}


def test_second_store_instance_reads_the_first_ones_entries(tmp_path):
    ResultStore(tmp_path).store(_key(), PAYLOAD)
    fresh = ResultStore(tmp_path)  # a restarted service
    assert fresh.load(_key()) == PAYLOAD
    assert fresh.stats()["hits"] == 1


# --- corruption safety ------------------------------------------------------


def test_corrupt_entry_is_a_miss_and_is_unlinked(tmp_path):
    store = ResultStore(tmp_path)
    key = _key()
    store.store(key, PAYLOAD)
    path = store._entry_path(key)
    path.write_text("{truncated", encoding="utf-8")
    assert store.load(key) is None
    assert not path.exists()
    stats = store.stats()
    assert stats["errors"] == 1 and stats["misses"] == 1


def test_format_version_mismatch_is_a_miss(tmp_path):
    store = ResultStore(tmp_path)
    key = _key()
    store.store(key, PAYLOAD)
    path = store._entry_path(key)
    entry = json.loads(path.read_text(encoding="utf-8"))
    entry["format_version"] = FORMAT_VERSION + 1
    path.write_text(json.dumps(entry), encoding="utf-8")
    assert store.load(key) is None
    assert not path.exists()


def test_key_mismatch_is_a_miss(tmp_path):
    store = ResultStore(tmp_path)
    key, other = _key(), _key(kind="signoff")
    store.store(key, PAYLOAD)
    os.replace(store._entry_path(key), store._entry_path(other))
    assert store.load(other) is None


def test_non_object_payload_is_a_miss(tmp_path):
    store = ResultStore(tmp_path)
    key = _key()
    path = store._entry_path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"format_version": FORMAT_VERSION,
                                "key": key, "payload": [1, 2]}),
                    encoding="utf-8")
    assert store.load(key) is None


def test_store_failure_is_counted_not_raised(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory", encoding="utf-8")
    store = ResultStore(target)
    assert store.store(_key(), PAYLOAD) is False
    assert store.stats()["errors"] == 1


def test_no_temp_files_left_behind(tmp_path):
    store = ResultStore(tmp_path)
    store.store(_key(), PAYLOAD)
    assert not list(tmp_path.glob("*.tmp"))


# --- eviction ---------------------------------------------------------------


def test_eviction_drops_oldest_mtime_first(tmp_path):
    store = ResultStore(tmp_path, max_entries=2)
    keys = [_key(fingerprint=c * 64) for c in "abc"]
    for index, key in enumerate(keys):
        store.store(key, PAYLOAD)
        # Backdate each entry well into the past, oldest first, so the
        # eviction order is unambiguous regardless of fs timestamp
        # resolution.
        mtime = time.time() - 100 + index
        os.utime(store._entry_path(key), (mtime, mtime))
        store._evict()
    assert store.stats()["evictions"] == 1
    assert store.load(keys[0]) is None  # the oldest went
    assert store.load(keys[1]) == PAYLOAD
    assert store.load(keys[2]) == PAYLOAD


def test_hit_refreshes_mtime_so_hot_entries_survive(tmp_path):
    store = ResultStore(tmp_path, max_entries=2)
    old, hot, new = (_key(fingerprint=c * 64) for c in "abc")
    now = time.time()
    store.store(hot, PAYLOAD)
    os.utime(store._entry_path(hot), (now - 100, now - 100))
    store.store(old, PAYLOAD)
    os.utime(store._entry_path(old), (now - 50, now - 50))
    assert store.load(hot) == PAYLOAD  # refreshes its age
    store.store(new, PAYLOAD)  # evicts one: must be `old`, not `hot`
    assert store.load(old) is None
    assert store.load(hot) == PAYLOAD


# --- concurrency ------------------------------------------------------------


def test_entry_evicted_while_loading_is_a_plain_miss(tmp_path, monkeypatch):
    """Another process evicting the entry between lookup and read is an
    ordinary miss, never a corruption error."""
    store = ResultStore(tmp_path)
    key = _key()
    store.store(key, PAYLOAD)
    path = store._entry_path(key)
    real_read_text = Path.read_text

    def evicted_then_read(self, *args, **kwargs):
        if self == path:
            self.unlink()  # the concurrent eviction
        return real_read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", evicted_then_read)
    assert store.load(key) is None
    assert store.stats() == {"hits": 0, "misses": 1, "stores": 1,
                             "evictions": 0, "errors": 0}


def _payload(index: int) -> dict:
    # Large enough that reads and writes overlap with other processes.
    return {**PAYLOAD, "index": index, "blob": f"{index}" * 20_000}


def _hammer(args):
    """One process: random stores and loads on a two-entry store."""
    directory, seed = args
    store = ResultStore(directory, max_entries=2)
    keys = [_key(fingerprint=f"{index:064x}") for index in range(6)]
    rng = random.Random(seed)
    wrong = 0
    for _ in range(400):
        index = rng.randrange(len(keys))
        if rng.random() < 0.5:
            store.store(keys[index], _payload(index))
        else:
            loaded = store.load(keys[index])
            wrong += loaded is not None and loaded != _payload(index)
    return wrong, store.stats()


def test_concurrent_writers_and_loaders_never_see_errors(tmp_path):
    context = multiprocessing.get_context("spawn")
    with context.Pool(3) as pool:
        outcomes = pool.map_async(
            _hammer, [(tmp_path, seed) for seed in range(3)]).get(
                timeout=120)
    for wrong, stats in outcomes:
        assert wrong == 0  # every load is a miss or the exact payload
        assert stats["errors"] == 0, stats
    assert sum(stats["evictions"] for _, stats in outcomes) > 0
    assert len(list(tmp_path.glob("result-*.json"))) <= 2


_KILLED_WRITER = """
import os, sys, time
from repro.api.resultstore import ResultStore

real_fdopen = os.fdopen


class HalfWriter:
    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.handle.__exit__(*exc)

    def write(self, text):
        self.handle.write(text[:len(text) // 2])
        self.handle.flush()
        print("mid-write", flush=True)
        time.sleep(60)


os.fdopen = lambda fd, *args, **kwargs: HalfWriter(
    real_fdopen(fd, *args, **kwargs))
ResultStore(sys.argv[1]).store(sys.argv[2], {"blob": "x" * 20000})
"""


def test_writer_killed_mid_store_publishes_nothing(tmp_path):
    key = _key()
    src = os.path.dirname(os.path.dirname(repro.__file__))
    writer = subprocess.Popen(
        [sys.executable, "-c", _KILLED_WRITER, str(tmp_path), key],
        stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src})
    try:
        assert writer.stdout.readline().strip() == "mid-write"
        os.kill(writer.pid, signal.SIGKILL)
        assert writer.wait(timeout=30) == -signal.SIGKILL
    finally:
        if writer.poll() is None:
            writer.kill()
            writer.wait()
        writer.stdout.close()
    # The half-written temp file is there, but no entry was published.
    assert list(tmp_path.glob("*.tmp"))
    assert not list(tmp_path.glob("result-*.json"))
    store = ResultStore(tmp_path)
    assert store.load(key) is None
    assert store.stats()["misses"] == 1 and store.stats()["errors"] == 0
