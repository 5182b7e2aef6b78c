"""Scenario engine: backend equivalence, monotonicity, integration."""

import dataclasses
import math
import time

import pytest

from repro.api import schemas
from repro.config import FlowConfig, Technique
from repro.errors import ConfigError, FlowError, StandbyError
from repro.standby.engine import (
    ScenarioOutcome,
    StandbyEngine,
    StandbyResult,
)
from repro.standby.scenario import (
    PowerMode,
    PowerModeScenario,
    resolve_scenario,
    standard_scenarios,
)


def fixed_scenario(name: str, idle_ns: float,
                   active_ns: float = 1_000.0) -> PowerModeScenario:
    return PowerModeScenario(name=name, active_ns=active_ns,
                             idle_ns=idle_ns)


class TestScenarios:
    def test_standard_set_resolves(self):
        for name in standard_scenarios():
            assert resolve_scenario(name).name == name

    def test_unknown_scenario(self):
        with pytest.raises(StandbyError):
            resolve_scenario("overclocked")

    def test_validation_names_the_field(self):
        with pytest.raises(ConfigError) as excinfo:
            PowerModeScenario(name="x", active_ns=1.0, idle_ns=-1.0)
        assert excinfo.value.field == "idle_ns"
        with pytest.raises(ConfigError) as excinfo:
            PowerModeScenario(name="x", active_ns=1.0, idle_ns=1.0,
                              distribution="uniform")
        assert excinfo.value.field == "distribution"

    def test_exponential_points_preserve_weight_and_mean(self):
        scenario = PowerModeScenario(
            name="x", active_ns=1.0, idle_ns=1000.0,
            distribution="exponential", quantile_points=512)
        points = scenario.idle_points()
        assert sum(w for _t, w in points) == pytest.approx(1.0)
        mean = sum(t * w for t, w in points)
        # Mid-quantile discretization slightly under-weights the tail.
        assert mean == pytest.approx(1000.0, rel=0.05)

    def test_state_machine_cycle(self):
        scenario = fixed_scenario("x", idle_ns=100.0, active_ns=50.0)
        mode = scenario.mode_at
        assert mode(10.0, 5.0, 5.0) is PowerMode.ACTIVE
        assert mode(52.0, 5.0, 5.0) is PowerMode.STANDBY   # entering
        assert mode(100.0, 5.0, 5.0) is PowerMode.SLEEP
        assert mode(148.0, 5.0, 5.0) is PowerMode.STANDBY  # waking
        assert mode(151.0, 5.0, 5.0) is PowerMode.ACTIVE   # next period
        # Idle shorter than the transition overhead: never sleeps.
        short = fixed_scenario("y", idle_ns=8.0, active_ns=50.0)
        assert short.mode_at(55.0, 5.0, 5.0) is PowerMode.STANDBY


@pytest.fixture(scope="module")
def engine_inputs(standby_design, library):
    netlist, network = standby_design
    return netlist, network, library


def run_engine(engine_inputs, scenarios, backend="python", **kwargs):
    netlist, network, library = engine_inputs
    return StandbyEngine(netlist, library, network, scenarios,
                         compute_backend=backend, **kwargs).run()


class TestEngine:
    def test_savings_monotone_in_fixed_idle_length(self, engine_inputs):
        """Longer idle intervals can never reduce net savings."""
        scenarios = [fixed_scenario(f"s{i}", idle_ns=10.0 ** i)
                     for i in range(2, 9)]
        result = run_engine(engine_inputs, scenarios)
        per_event = [result.outcome(s.name, "tt_nom").savings_per_event_pj
                     for s in scenarios]
        assert all(b >= a for a, b in zip(per_event, per_event[1:]))
        assert per_event[0] == 0.0        # way below break-even
        assert per_event[-1] > 0.0        # deeply idle always pays

    def test_savings_monotone_in_exponential_mean(self, engine_inputs):
        scenarios = [
            PowerModeScenario(name=f"e{i}", active_ns=1_000.0,
                              idle_ns=10.0 ** i,
                              distribution="exponential")
            for i in range(2, 9)]
        result = run_engine(engine_inputs, scenarios)
        per_event = [result.outcome(s.name, "tt_nom").savings_per_event_pj
                     for s in scenarios]
        assert all(b >= a for a, b in zip(per_event, per_event[1:]))

    def test_break_even_separates_worthwhile_scenarios(self,
                                                       engine_inputs):
        result = run_engine(engine_inputs,
                            list(standard_scenarios().values()))
        break_even = result.break_even_ns
        assert 0.0 < break_even < math.inf
        for outcome in result.outcomes:
            scenario = resolve_scenario(outcome.scenario)
            if scenario.distribution != "fixed":
                continue
            if scenario.idle_ns > break_even:
                assert outcome.worthwhile
            if scenario.idle_ns < 0.5 * break_even:
                assert not outcome.worthwhile

    def test_backends_bit_identical(self, engine_inputs):
        """The acceptance gate: same digits from both backends."""
        scenarios = list(standard_scenarios().values()) + [
            fixed_scenario(f"grid{i}", idle_ns=1_000.0 * (i + 1))
            for i in range(20)]
        corners = ("tt_nom", "ss_1.08v_125c", "ff_1.32v_125c")
        python = run_engine(engine_inputs, scenarios, "python",
                            corners=corners)
        vectorized = run_engine(engine_inputs, scenarios, "numpy",
                                corners=corners)
        relabeled = dataclasses.replace(vectorized,
                                        compute_backend="python")
        assert relabeled == python  # bitwise: dataclass float equality

    def test_corner_dependence(self, engine_inputs):
        """Hot/slow silicon leaks more, so it breaks even sooner."""
        result = run_engine(
            engine_inputs, [fixed_scenario("x", idle_ns=1e6)],
            corners=("tt_nom", "ss_1.08v_125c"))
        nominal = result.corner_row("tt_nom")
        hot = result.corner_row("ss_1.08v_125c")
        assert hot.break_even_ns < nominal.break_even_ns
        assert hot.wake_latency_ns != nominal.wake_latency_ns

    def test_requires_clusters_and_scenarios(self, engine_inputs):
        netlist, network, library = engine_inputs
        from repro.vgnd.network import VgndNetwork

        with pytest.raises(StandbyError):
            StandbyEngine(netlist, library, VgndNetwork(),
                          [fixed_scenario("x", 1.0)])
        with pytest.raises(StandbyError):
            StandbyEngine(netlist, library, network, [])

    def test_result_round_trips_through_registry(self, engine_inputs):
        result = run_engine(engine_inputs,
                            [fixed_scenario("x", idle_ns=1e6)])
        payload = schemas.check_round_trip(result)
        assert payload["schema"] == "standby_result"
        assert payload["schema_version"] == 1

    def test_infinite_break_even_survives_the_codec(self):
        outcome = ScenarioOutcome(
            scenario="x", corner="tt_nom", sleep_events=1.0,
            savings_per_event_pj=0.0, net_savings_pj=0.0,
            savings_fraction=0.0, break_even_ns=math.inf,
            worthwhile=False)
        payload = schemas.check_round_trip(outcome)
        assert payload["break_even_ns"] == "inf"
        assert schemas.from_dict(payload).break_even_ns == math.inf


class TestFlowAndFacade:
    def test_flow_stage_populates_result(self, library):
        """Design.standby on the finished improved-SMT flow keeps the
        requested scenario order and defaults to the signoff corners."""
        from repro.api import Workspace
        from repro.variation.corners import default_signoff_corners

        design = Workspace(library=library,
                           config=FlowConfig(timing_margin=0.2)) \
            .design("c17")
        standby = design.standby(scenarios=("mostly_idle", "always_on"))
        assert isinstance(standby, StandbyResult)
        assert standby.scenarios == ("mostly_idle", "always_on")
        assert standby.corners == default_signoff_corners(library.tech)

    def test_design_standby_caches_on_request(self):
        from repro.api import StandbyRequest, Workspace

        workspace = Workspace(config=FlowConfig(timing_margin=0.2))
        design = workspace.design("c17")
        request = StandbyRequest(scenarios=("mostly_idle",),
                                 corners=("tt_nom",))
        first = design.standby(request)
        started = time.perf_counter()
        second = design.standby(request)
        assert time.perf_counter() - started < 0.1  # cache hit
        assert second is first
        stats = workspace.cache_stats()["standby"]
        assert stats == {"hits": 1, "misses": 1}
        # kwargs path builds the same request.
        assert design.standby(scenarios=("mostly_idle",),
                              corners=("tt_nom",)) is first

    def test_design_standby_defaults_and_rejection(self):
        from repro.api import StandbyRequest, Workspace
        from repro.variation.corners import default_signoff_corners

        workspace = Workspace(config=FlowConfig(timing_margin=0.2))
        design = workspace.design("c17")
        result = design.standby(StandbyRequest(
            scenarios=("mostly_idle",)))
        assert result.corners == default_signoff_corners(
            workspace.library.tech)
        with pytest.raises(FlowError):
            design.standby(technique=Technique.DUAL_VTH,
                           scenarios=("mostly_idle",))
        with pytest.raises(ConfigError):
            design.standby(StandbyRequest(scenarios=("mostly_idle",)),
                           corners=("tt_nom",))  # request + kwargs

    def test_request_validation(self):
        from repro.api import StandbyRequest

        with pytest.raises(ConfigError):
            StandbyRequest(scenarios=("",))
        with pytest.raises(ConfigError):
            StandbyRequest(rush_budget_ma=0.0)
        with pytest.raises(ConfigError):
            StandbyRequest(settle_fraction=0.9)

    def test_service_runs_standby_jobs(self):
        from repro.api import JobService, StandbyRequest

        service = JobService().start()
        try:
            status = service.submit({
                "kind": "standby", "circuit": "c17",
                "request": schemas.to_dict(StandbyRequest(
                    scenarios=("mostly_idle",), corners=("tt_nom",))),
                "config": {"timing_margin": 0.2},
            })
            deadline = time.monotonic() + 120.0
            while service.status(status.job_id).status in ("queued",
                                                           "running"):
                assert time.monotonic() < deadline
                time.sleep(0.02)
            final = service.status(status.job_id)
            assert final.status == "done", final.error
            result = schemas.from_dict(service.result(status.job_id))
            assert isinstance(result, StandbyResult)
            assert result.scenarios == ("mostly_idle",)
        finally:
            service.close()
