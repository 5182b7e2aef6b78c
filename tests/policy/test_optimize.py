"""The batched optimizer: bit-identity, Pareto invariants, the oracle."""

from __future__ import annotations

import dataclasses
import itertools
import math
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StandbyError
from repro.obs import disable, enable, reset, take_records
from repro.policy.domains import characterize_plan, plan_partitions
from repro.policy.optimize import PolicyOptimizer
from repro.standby.engine import savings
from repro.standby.scenario import resolve_scenario

CORNERS = ("tt_nom", "ss_1.08v_125c")


def _optimizer(policy_design, library, backend, candidates=120,
               **kwargs):
    netlist, network = policy_design
    scenarios = [resolve_scenario("mostly_idle"),
                 resolve_scenario("bursty")]
    return PolicyOptimizer(
        netlist, library, network, scenarios, corners=CORNERS,
        candidates=candidates, compute_backend=backend, **kwargs)


@pytest.fixture(scope="module")
def scalar_result(policy_design, library):
    return _optimizer(policy_design, library, "python").run()


def test_numpy_path_is_bit_identical(policy_design, library,
                                     scalar_result):
    pytest.importorskip("numpy")
    numpy_result = _optimizer(policy_design, library, "numpy").run()
    assert numpy_result.compute_backend == "numpy"
    assert dataclasses.replace(numpy_result,
                               compute_backend="python") \
        == scalar_result


def test_sweep_is_deterministic(policy_design, library, scalar_result):
    again = _optimizer(policy_design, library, "python").run()
    assert again == scalar_result


def test_candidate_quota_is_a_floor(scalar_result):
    assert scalar_result.candidates >= 120
    # All four plan families of the >=4-cluster fixture are swept.
    assert "unified" in scalar_result.plans
    assert "per-cluster" in scalar_result.plans


def test_pareto_front_invariants(scalar_result):
    front = scalar_result.pareto
    assert front  # never empty: some candidate survives
    for point in front:
        assert point.net_savings_pj \
            <= scalar_result.oracle_net_savings_pj + 1e-9
        assert len(point.thresholds_ns) == len(point.domains)
        assert point.sleeping_domains == sum(
            1 for t in point.thresholds_ns if math.isfinite(t))
    # No point dominates another (dominance = >= on savings, <= on
    # wake and rush, strict somewhere).
    for a in front:
        for b in front:
            if a is b:
                continue
            dominates = (
                a.net_savings_pj >= b.net_savings_pj
                and a.worst_wake_latency_ns <= b.worst_wake_latency_ns
                and a.peak_rush_ma <= b.peak_rush_ma
                and (a.net_savings_pj > b.net_savings_pj
                     or a.worst_wake_latency_ns
                     < b.worst_wake_latency_ns
                     or a.peak_rush_ma < b.peak_rush_ma))
            assert not dominates
    # Deterministic ordering: savings-first, then wake, rush, id.
    keys = [(-p.net_savings_pj, p.worst_wake_latency_ns,
             p.peak_rush_ma, p.policy_id) for p in front]
    assert keys == sorted(keys)
    assert scalar_result.best is front[0]


def test_all_awake_policy_is_the_origin(scalar_result):
    # The sweep always contains a never-sleep candidate; if it made
    # the front it sits at exactly (0, 0, 0).
    for point in scalar_result.pareto:
        if point.sleeping_domains == 0:
            assert point.net_savings_pj == 0.0
            assert point.worst_wake_latency_ns == 0.0
            assert point.peak_rush_ma == 0.0


def test_point_lookup(scalar_result):
    first = scalar_result.pareto[0]
    assert scalar_result.point(first.policy_id) is first
    with pytest.raises(KeyError):
        scalar_result.point(-1)


def test_result_round_trips(scalar_result):
    from repro.api import schemas

    payload = schemas.check_round_trip(scalar_result)
    assert payload["schema"] == "policy_result"


def test_rejects_bad_inputs(policy_design, library):
    netlist, network = policy_design
    with pytest.raises(StandbyError):
        PolicyOptimizer(netlist, library, network, [])
    with pytest.raises(StandbyError):
        _optimizer(policy_design, library, "python", candidates=0)


# --- the rank-keyed sweep ----------------------------------------------------


def _unkeyed_pareto(optimizer):
    """The sweep without rank keys: every candidate through
    ``savings()``, then ``_horizon_net``, then ``_pareto``."""
    points, spans = optimizer._scenario_grid()
    durations = [duration for duration, _w in points]
    corner_transients, budgets = optimizer._corner_prologue()
    partitions = plan_partitions(corner_transients[0],
                                 optimizer.max_domains)
    plans_by_corner = []
    oh_plan = [[] for _ in partitions]
    for transients, budget in zip(corner_transients, budgets):
        row = []
        for j, partition in enumerate(partitions):
            plan, overheads = characterize_plan(partition, transients,
                                                budget)
            row.append(plan)
            oh_plan[j].append(overheads)
        plans_by_corner.append(row)
    dp_nw, energy_pj = optimizer._cluster_tables(corner_transients)
    policies = optimizer._candidates(plans_by_corner[0])
    order = [tr.cluster_index for tr in corner_transients[0]]
    accs = savings(durations, dp_nw, energy_pj, oh_plan,
                   plan_of=[policy.plan for policy in policies],
                   thresholds=[optimizer._cluster_thresholds(
                       policy, partitions, order) for policy in policies],
                   backend=optimizer.compute_backend)
    nets = [[optimizer._horizon_net(acc, points, spans) for acc in rows]
            for rows in accs]
    return len(policies), optimizer._pareto(policies, nets,
                                            plans_by_corner)


def _backend(name):
    if name == "numpy":
        pytest.importorskip("numpy")
    return name


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_keyed_sweep_equals_the_unkeyed_sweep(policy_design, library,
                                              backend):
    optimizer = _optimizer(policy_design, library, _backend(backend))
    result = optimizer.run()
    assert (result.candidates, result.pareto) == _unkeyed_pareto(optimizer)


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_keyed_sweep_equals_the_unkeyed_sweep_on_many_clusters(
        many_cluster_design, library, backend):
    netlist, network = many_cluster_design
    assert len(network.clusters) >= 20
    optimizer = PolicyOptimizer(
        netlist, library, network,
        [resolve_scenario(name)
         for name in ("mostly_idle", "bursty", "interactive")],
        corners=("tt_nom", "ff_1.32v_125c", "ss_1.08v_125c"),
        candidates=1_000, compute_backend=_backend(backend))
    result = optimizer.run()
    assert (result.candidates, result.pareto) == _unkeyed_pareto(optimizer)


def test_sweep_runs_fewer_rows_than_candidates(policy_design, library):
    reset()
    enable()
    try:
        result = _optimizer(policy_design, library, "python").run()
        (record,) = [record for root in take_records()
                     for record in root.walk()
                     if record.name == "policy.optimize"]
    finally:
        disable()
        reset()
    assert record.attributes["candidates"] == 120
    assert 0 < record.attributes["distinct"] < result.candidates


_POOL = st.lists(st.floats(1.0, 1e6), min_size=1, max_size=5, unique=True)


@pytest.mark.parametrize("backend", ["python", "numpy"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_equal_rank_keys_give_equal_rows(backend, data):
    """Thresholds with one rank among the sorted durations gate every
    point alike, ties and exact duration values included."""
    backend = _backend(backend)
    pool = data.draw(_POOL)
    durations = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                   max_size=8))
    clusters = data.draw(st.integers(1, 3))
    threshold = st.one_of(st.sampled_from(pool + [math.inf]),
                          st.floats(0.5, 2e6))
    grid = data.draw(st.lists(
        st.lists(threshold, min_size=clusters, max_size=clusters),
        min_size=2, max_size=12))
    table = st.lists(st.lists(st.floats(1e-3, 1e3), min_size=clusters,
                              max_size=clusters), min_size=2, max_size=2)
    dp_nw, energy_pj, overheads = (data.draw(table) for _ in range(3))
    rows = savings(durations, dp_nw, energy_pj, [overheads],
                   plan_of=[0] * len(grid), thresholds=grid,
                   backend=backend)
    ranked = sorted(durations)
    keys = [tuple(bisect_left(ranked, t) for t in row) for row in grid]
    for i, j in itertools.combinations(range(len(grid)), 2):
        if keys[i] == keys[j]:
            assert rows[i] == rows[j]
