"""The batched optimizer: bit-identity, Pareto invariants, the oracle."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.errors import StandbyError
from repro.policy.optimize import PolicyOptimizer
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
