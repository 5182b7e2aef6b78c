"""Pooled Monte-Carlo chunks sample the parent's finished design, so
pooled and serial results are identical on both backends, at nominal
and around a corner."""

import pytest

from repro.api import Workspace
from repro.config import FlowConfig, Technique


@pytest.mark.parametrize("backend", ("python", "numpy"))
def test_pooled_montecarlo_equals_serial(library, backend):
    if backend == "numpy":
        pytest.importorskip("numpy")
    config = FlowConfig(timing_margin=0.12, compute_backend=backend)
    serial, pooled = (Workspace(library=library, config=config)
                      .design("c432") for _ in range(2))
    for corner in (None, "ss_1.08v_125c"):
        expected, got = (
            design.montecarlo(technique=Technique.IMPROVED_SMT,
                              samples=8, seed=3, corner=corner, jobs=jobs)
            for design, jobs in ((serial, 1), (pooled, 2)))
        assert got == expected, corner
        assert got.statistics == expected.statistics, corner
        assert got.sample_values == expected.sample_values, corner
        assert len(got.sample_values) == 8
