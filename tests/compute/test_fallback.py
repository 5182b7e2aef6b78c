"""Backend resolution and the graceful scalar fallback.

``numpy`` is an optional extra (``pip install .[fast]``): requesting
it on a machine without the dependency must quietly degrade to the
scalar reference implementation at every entry point, never error.
"""

from __future__ import annotations

import pytest

import repro.compute as compute
from repro.config import FlowConfig
from repro.errors import FlowError
from repro.power.leakage import LeakageAnalyzer
from repro.timing.constraints import Constraints
from repro.variation.montecarlo import McConfig, MonteCarloEngine


@pytest.fixture()
def no_numpy(monkeypatch):
    """Simulate an environment without the optional numpy extra."""
    monkeypatch.setattr(compute, "numpy_available", lambda: False)


def test_resolve_backend_validates():
    assert compute.resolve_backend("python") == "python"
    with pytest.raises(FlowError):
        compute.resolve_backend("fortran")


def test_resolve_backend_falls_back(no_numpy):
    assert compute.resolve_backend("numpy") == "python"


def test_default_backend_env(monkeypatch):
    monkeypatch.delenv(compute.BACKEND_ENV_VAR, raising=False)
    assert compute.default_backend() == "python"
    monkeypatch.setenv(compute.BACKEND_ENV_VAR, "numpy")
    assert compute.default_backend() == compute.resolve_backend("numpy")
    monkeypatch.setenv(compute.BACKEND_ENV_VAR, "weird")
    with pytest.raises(FlowError):
        compute.default_backend()


def test_default_backend_env_without_numpy(no_numpy, monkeypatch):
    monkeypatch.setenv(compute.BACKEND_ENV_VAR, "numpy")
    assert compute.default_backend() == "python"


def test_flow_config_validates_backend():
    assert FlowConfig(compute_backend="numpy").compute_backend == "numpy"
    with pytest.raises(FlowError):
        FlowConfig(compute_backend="cuda")


def test_leakage_falls_back_to_scalar(no_numpy, c17, library):
    analyzer = LeakageAnalyzer(c17, library, compute_backend="numpy")
    assert analyzer.compute_backend == "python"
    reference = LeakageAnalyzer(c17, library, compute_backend="python")
    assert analyzer.standby_leakage().total_nw \
        == reference.standby_leakage().total_nw


def test_montecarlo_falls_back_to_scalar(no_numpy, c17, library):
    mc = McConfig(samples=4, seed=1, timing=True)
    constraints = Constraints(clock_period=2.0)
    engine = MonteCarloEngine(c17, library, mc, constraints=constraints,
                              compute_backend="numpy")
    assert engine.compute_backend == "python"
    assert engine._session is not None and engine._view is None
    reference = MonteCarloEngine(c17, library, mc, constraints=constraints,
                                 compute_backend="python")
    for a, b in zip(engine.run(), reference.run()):
        assert a.leakage_nw == b.leakage_nw and a.wns == b.wns


def test_analyze_reports_the_resolved_backend(no_numpy, library):
    from repro.api import Workspace

    design = Workspace(library=library,
                       config=FlowConfig(compute_backend="numpy")
                       ).design("c17")
    assert design.analyze().compute_backend == "python"


def test_cli_backend_flag(capsys):
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["flow", "--circuit", "c17", "--backend", "numpy"])
    assert args.backend == "numpy"
    args = build_parser().parse_args(["flow", "--circuit", "c17"])
    assert args.backend is None
