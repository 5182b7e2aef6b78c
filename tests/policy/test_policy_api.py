"""Facade and service integration of the policy engine."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import PolicyRequest, StandbyRequest, Workspace, schemas
from repro.config import FlowConfig
from repro.errors import ConfigError, FlowError
from repro.policy.traces import IdleTrace, trace_scenario

SMALL_CLUSTERS = dict(max_cells_per_switch=4, max_rail_length_um=120.0)


@pytest.fixture(scope="module")
def workspace():
    return Workspace(config=FlowConfig(**SMALL_CLUSTERS))


def _trace_payload(name="measured"):
    trace = IdleTrace(
        name=name, active_ns=300.0,
        intervals_ns=tuple(float(v) for v in range(100, 6000, 120)))
    return trace_scenario(trace, quantile_points=8)


def test_facade_policy_is_cached(workspace):
    request = PolicyRequest(scenarios=("mostly_idle",),
                            corners=("tt_nom",), candidates=48)
    first = workspace.design("c432").policy(request)
    assert first.candidates >= 48
    before = dict(workspace.stats.as_dict()["policy"])
    again = workspace.design("c432").policy(request)
    assert again is first
    after = workspace.stats.as_dict()["policy"]
    assert after["hits"] == before["hits"] + 1


def test_policy_with_trace_payloads(workspace):
    request = PolicyRequest(scenario_payloads=(_trace_payload(),),
                            corners=("tt_nom",), candidates=32)
    result = workspace.design("c432").policy(request)
    # Payload-only requests sweep exactly the given workloads.
    assert result.scenarios == ("measured",)
    schemas.check_round_trip(result)


def test_standby_accepts_scenario_payloads(workspace):
    payload = _trace_payload("trace_idle")
    request = StandbyRequest(scenarios=("mostly_idle",),
                             scenario_payloads=(payload,),
                             corners=("tt_nom",))
    result = workspace.design("c432").standby(request)
    assert result.scenarios == ("mostly_idle", "trace_idle")
    assert {o.scenario for o in result.outcomes} \
        == {"mostly_idle", "trace_idle"}
    schemas.check_round_trip(result)


def test_duplicate_payload_names_rejected():
    payload = _trace_payload("mostly_idle")
    with pytest.raises(ConfigError, match="duplicate"):
        StandbyRequest(scenarios=("mostly_idle",),
                       scenario_payloads=(payload,))
    with pytest.raises(ConfigError, match="duplicate"):
        PolicyRequest(scenario_payloads=(_trace_payload("x"),
                                         _trace_payload("x")))
    with pytest.raises(ConfigError, match="PowerModeScenario"):
        StandbyRequest(scenario_payloads=("mostly_idle",))


def test_policy_needs_the_switch_network(workspace):
    from repro.config import Technique

    with pytest.raises(FlowError, match="improved_smt"):
        workspace.design("c432").policy(PolicyRequest(
            technique=Technique.DUAL_VTH, corners=("tt_nom",),
            candidates=8))


def test_requests_round_trip_and_service_kind():
    from repro.api.service import JOB_KINDS

    assert JOB_KINDS["policy"] is PolicyRequest
    request = PolicyRequest(
        scenarios=("bursty",), scenario_payloads=(_trace_payload(),),
        corners=("tt_nom",), candidates=64, max_domains=3)
    payload = schemas.check_round_trip(request)
    assert payload["schema"] == "policy_request"
    rebuilt = schemas.from_dict(payload)
    assert rebuilt == request


def test_execute_kind_dispatches_policy(workspace):
    from repro.api.shards import execute_kind

    design = workspace.design("c432")
    request = PolicyRequest(scenarios=("mostly_idle",),
                            corners=("tt_nom",), candidates=48)
    result = execute_kind(design, "policy", request)
    assert result is workspace.design("c432").policy(request)


def test_policy_request_validation():
    with pytest.raises(ConfigError):
        PolicyRequest(candidates=0)
    with pytest.raises(ConfigError):
        PolicyRequest(max_domains=0)
    with pytest.raises(ConfigError):
        PolicyRequest(rush_budget_ma=-1.0)
    with pytest.raises(ConfigError):
        PolicyRequest(settle_fraction=0.9)
    with pytest.raises(ConfigError):
        PolicyRequest(scenarios=("",))


def test_empirical_scenario_schema_round_trips():
    scenario = _trace_payload()
    payload = schemas.check_round_trip(scenario)
    assert payload["schema"] == "standby_scenario"
    assert payload["distribution"] == "empirical"
    rebuilt = schemas.from_dict(payload)
    assert rebuilt.points == scenario.points


def test_empirical_scenario_validation():
    from repro.standby.scenario import PowerModeScenario

    with pytest.raises(ConfigError, match="points"):
        PowerModeScenario(name="e", active_ns=1.0, idle_ns=2.0,
                          distribution="empirical")
    with pytest.raises(ConfigError, match="points"):
        PowerModeScenario(name="f", active_ns=1.0, idle_ns=2.0,
                          distribution="fixed",
                          points=((2.0, 1.0),))
    with pytest.raises(ConfigError, match="weights"):
        PowerModeScenario(name="e", active_ns=1.0, idle_ns=2.0,
                          distribution="empirical",
                          points=((2.0, 0.4), (3.0, 0.4)))


def test_backends_agree_through_the_facade():
    pytest.importorskip("numpy")
    request = PolicyRequest(scenarios=("mostly_idle", "bursty"),
                            corners=("tt_nom", "ss_1.08v_125c"),
                            candidates=64)
    results = {}
    for backend in ("python", "numpy"):
        workspace = Workspace(config=FlowConfig(
            compute_backend=backend, **SMALL_CLUSTERS))
        results[backend] = workspace.design("c432").policy(request)
    assert dataclasses.replace(results["numpy"],
                               compute_backend="python") \
        == results["python"]
