"""Persistent lowering cache: round-trip, versioning, corruption, eviction.

The contract of :mod:`repro.compute.lowercache`: a rehydrated
:class:`NetlistArrayView` is indistinguishable from a freshly lowered
one (identical arrays, identical kernel outputs), and NOTHING that can
happen to the cache directory — truncation, garbage bytes, format
bumps, key collisions, deletion — can ever corrupt a result: every bad
entry degrades to a miss plus a fresh lowering.
"""

from __future__ import annotations

import os

import pytest

np = pytest.importorskip("numpy")

from repro.compute import lowercache
from repro.compute.kernels import backward, forward
from repro.compute.view import NetlistArrayView
from repro.timing.constraints import Constraints
from repro.timing.delay import NetModel


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv(lowercache.ENV_VAR, str(tmp_path))
    lowercache.reset_stats()
    return tmp_path


@pytest.fixture()
def lowered(library, s27):
    """A built view over the sequential s27 (FF endpoints, clocks)."""
    constraints = Constraints(clock_period=2000.0)
    net_model = NetModel(s27, library, constraints)
    view = NetlistArrayView(s27, library, constraints, net_model)
    view.ensure()
    return s27, constraints, net_model, view


def assert_same_kernels(view_a, view_b):
    derates = np.ones((2, len(view_a.inst_names)))
    derates[1] *= 1.05
    fwd_a, fwd_b = forward(view_a, derates), forward(view_b, derates)
    for slot in ("arr_rise", "arr_fall", "min_rise", "min_fall",
                 "slew_rise", "slew_fall"):
        a, b = getattr(fwd_a, slot), getattr(fwd_b, slot)
        assert np.array_equal(a, b), slot
    req_rise_a, req_fall_a = backward(view_a, fwd_a, derates)
    req_rise_b, req_fall_b = backward(view_b, fwd_b, derates)
    assert np.array_equal(req_rise_a, req_rise_b)
    assert np.array_equal(req_fall_a, req_fall_b)


class TestRoundTrip:
    def test_state_round_trips_exactly(self, lowered):
        netlist, constraints, net_model, view = lowered
        state = view.export_state()
        clone = NetlistArrayView.from_state(
            dict(state), netlist, view.library, constraints, net_model)
        assert list(clone.node_names) == list(view.node_names)
        assert list(clone.inst_names) == list(view.inst_names)
        assert len(clone.luts) == len(view.luts)
        assert np.array_equal(clone.luts.scale_classes(),
                              view.luts.scale_classes())
        assert_same_kernels(view, clone)

    def test_store_then_load_hits(self, cache_env, lowered, library):
        netlist, constraints, net_model, view = lowered
        key = lowercache.view_key(netlist, library, constraints)
        assert lowercache.store_view(view, key)
        loaded = lowercache.load_view(key, netlist, library,
                                      constraints, net_model)
        assert loaded is not None
        assert lowercache.stats()["hits"] == 1
        assert_same_kernels(view, loaded)

    def test_cached_view_cold_then_warm(self, cache_env, lowered,
                                        library):
        netlist, constraints, net_model, _view = lowered
        first = lowercache.cached_view(netlist, library, constraints,
                                       net_model)
        second = lowercache.cached_view(netlist, library, constraints,
                                        net_model)
        stats = lowercache.stats()
        assert stats["misses"] == 1 and stats["stores"] == 1
        assert stats["hits"] == 1 and stats["errors"] == 0
        assert_same_kernels(first, second)

    def test_disabled_means_plain_view(self, monkeypatch, lowered,
                                       library):
        netlist, constraints, net_model, _view = lowered
        for off in ("", "0", "off", "NONE", "Disabled"):
            monkeypatch.setenv(lowercache.ENV_VAR, off)
            assert lowercache.cache_dir() is None
        lowercache.reset_stats()
        view = lowercache.cached_view(netlist, library, constraints,
                                      net_model)
        assert isinstance(view, NetlistArrayView)
        assert lowercache.stats() == {"hits": 0, "misses": 0,
                                      "stores": 0, "evictions": 0,
                                      "errors": 0}

    def test_loaded_view_rejects_structural_reuse(self, cache_env,
                                                  lowered, library):
        """A rehydrated view is frozen: table registration raises."""
        from repro.errors import TimingError

        netlist, constraints, net_model, view = lowered
        key = lowercache.view_key(netlist, library, constraints)
        lowercache.store_view(view, key)
        loaded = lowercache.load_view(key, netlist, library,
                                      constraints, net_model)
        with pytest.raises(TimingError):
            loaded.luts.register(object())


class TestInvalidation:
    def test_format_version_bump_invalidates(self, cache_env, lowered,
                                             library, monkeypatch):
        netlist, constraints, net_model, view = lowered
        key = lowercache.view_key(netlist, library, constraints)
        lowercache.store_view(view, key)
        monkeypatch.setattr(lowercache, "FORMAT_VERSION",
                            lowercache.FORMAT_VERSION + 1)
        # Same key string, newer reader: the entry must not load.
        assert lowercache.load_view(key, netlist, library, constraints,
                                    net_model) is None
        assert lowercache.stats()["errors"] == 1
        # The poisoned entry was dropped on the spot.
        assert not list(cache_env.glob("lower-*.npz"))

    def test_key_changes_with_content(self, lowered, library):
        netlist, constraints, _net_model, _view = lowered
        base = lowercache.view_key(netlist, library, constraints)
        assert lowercache.view_key(
            netlist, library,
            Constraints(clock_period=1999.0)) != base
        assert lowercache.view_key(
            netlist, library, constraints,
            clock_arrivals={"ff1": 10.0}) != base
        # Stable across calls.
        assert lowercache.view_key(netlist, library, constraints) == base

    def test_fingerprint_mismatch_misses(self, cache_env, lowered,
                                         library):
        """A different netlist computes a different key => plain miss."""
        netlist, constraints, net_model, view = lowered
        lowercache.store_view(
            view, lowercache.view_key(netlist, library, constraints))
        edited = netlist.clone("edited")
        edited.add_input("spare")
        other_key = lowercache.view_key(edited, library, constraints)
        assert other_key != lowercache.view_key(netlist, library,
                                                constraints)
        assert lowercache.load_view(other_key, edited, library,
                                    constraints, net_model) is None
        assert lowercache.stats()["misses"] == 1
        assert lowercache.stats()["errors"] == 0

    def test_truncated_file_falls_back_cleanly(self, cache_env, lowered,
                                               library):
        netlist, constraints, net_model, view = lowered
        key = lowercache.view_key(netlist, library, constraints)
        lowercache.store_view(view, key)
        path = next(cache_env.glob("lower-*.npz"))
        path.write_bytes(path.read_bytes()[:128])
        assert lowercache.load_view(key, netlist, library, constraints,
                                    net_model) is None
        assert not path.exists()
        stats = lowercache.stats()
        assert stats["errors"] == 1 and stats["misses"] == 1
        # cached_view recovers end-to-end: rebuild + restore.
        fresh = lowercache.cached_view(netlist, library, constraints,
                                       net_model)
        assert_same_kernels(view, fresh)

    def test_garbage_bytes_fall_back_cleanly(self, cache_env, lowered,
                                             library):
        netlist, constraints, net_model, view = lowered
        key = lowercache.view_key(netlist, library, constraints)
        path = lowercache._entry_path(cache_env, key)
        path.write_bytes(b"this is not an npz archive")
        assert lowercache.load_view(key, netlist, library, constraints,
                                    net_model) is None
        assert not path.exists()


    def test_entry_evicted_while_loading_is_a_plain_miss(
            self, cache_env, lowered, library, monkeypatch):
        """Another process evicting the entry between lookup and read
        is an ordinary miss, never a corruption error."""
        netlist, constraints, net_model, view = lowered
        key = lowercache.view_key(netlist, library, constraints)
        lowercache.store_view(view, key)
        path = lowercache._entry_path(cache_env, key)
        real_load = np.load

        def evicted_then_load(file, *args, **kwargs):
            path.unlink()  # the concurrent eviction
            return real_load(file, *args, **kwargs)

        monkeypatch.setattr(lowercache.np, "load", evicted_then_load)
        assert lowercache.load_view(key, netlist, library, constraints,
                                    net_model) is None
        stats = lowercache.stats()
        assert stats["misses"] == 1 and stats["errors"] == 0


class TestEviction:
    def test_cap_evicts_oldest_first(self, cache_env, lowered, library,
                                     monkeypatch):
        monkeypatch.setenv(lowercache.ENV_MAX_ENTRIES, "3")
        netlist, constraints, net_model, view = lowered
        keys = [f"{'%064x' % k}" for k in range(5)]
        for index, key in enumerate(keys):
            lowercache.store_view(view, key)
            # Deterministic mtime order without sleeping.
            os.utime(lowercache._entry_path(cache_env, key),
                     (1_000_000 + index, 1_000_000 + index))
            lowercache._evict(cache_env)
        remaining = {p.name for p in cache_env.glob("lower-*.npz")}
        assert remaining == {f"lower-{k}.npz" for k in keys[-3:]}
        assert lowercache.stats()["evictions"] == 2

    def test_hit_refreshes_mtime(self, cache_env, lowered, library):
        netlist, constraints, net_model, view = lowered
        key = lowercache.view_key(netlist, library, constraints)
        lowercache.store_view(view, key)
        path = lowercache._entry_path(cache_env, key)
        os.utime(path, (1_000_000, 1_000_000))
        before = path.stat().st_mtime
        assert lowercache.load_view(key, netlist, library, constraints,
                                    net_model) is not None
        assert path.stat().st_mtime > before
