"""Monte-Carlo engine: determinism, distribution shape, technique gap."""

import pytest

from repro.benchcircuits.suite import load_circuit
from repro.config import FlowConfig, Technique
from repro.core.flow import SelectiveMtFlow
from repro.errors import FlowError
from repro.variation.jobs import build_engine
from repro.variation.montecarlo import (
    McConfig,
    McSample,
    MonteCarloEngine,
    percentile,
    summarize,
)


@pytest.fixture(scope="module")
def c432_results(library):
    """Dual-Vth and improved-SMT flows on c432 (shared across tests)."""
    config = FlowConfig(timing_margin=0.10)
    return {
        technique: SelectiveMtFlow(load_circuit("c432"), library,
                                   technique, config).run()
        for technique in (Technique.DUAL_VTH, Technique.IMPROVED_SMT)
    }


class TestDeterminism:
    def test_same_seed_reproduces_samples(self, library, c17):
        config = McConfig(samples=8, seed=11, timing=False)
        first = MonteCarloEngine(c17, library, config=config).run()
        second = MonteCarloEngine(c17, library, config=config).run()
        assert [(s.leakage_nw, s.global_dvth_v) for s in first] \
            == [(s.leakage_nw, s.global_dvth_v) for s in second]

    def test_chunking_does_not_change_samples(self, library, c17):
        config = McConfig(samples=9, seed=2, timing=False)
        whole = MonteCarloEngine(c17, library, config=config).run()
        engine = MonteCarloEngine(c17, library, config=config)
        chunked = engine.run(0, 3) + engine.run(3, 3) + engine.run(6, 3)
        assert [s.leakage_nw for s in whole] \
            == [s.leakage_nw for s in chunked]

    def test_different_seeds_differ(self, library, c17):
        a = MonteCarloEngine(c17, library,
                             config=McConfig(samples=4, seed=1,
                                             timing=False)).run()
        b = MonteCarloEngine(c17, library,
                             config=McConfig(samples=4, seed=2,
                                             timing=False)).run()
        assert [s.leakage_nw for s in a] != [s.leakage_nw for s in b]

    def test_study_independent_of_jobs(self, library):
        """montecarlo_study(jobs=1) == montecarlo_study(jobs=3),
        exactly."""
        from repro.api import Workspace, schemas
        from repro.api.studies import montecarlo_study

        kwargs = dict(circuit="c17", samples=6, seed=5, timing=True,
                      techniques=(Technique.DUAL_VTH,),
                      config=FlowConfig(timing_margin=0.2))
        serial = montecarlo_study(Workspace(library=library), jobs=1,
                                  **kwargs)
        parallel = montecarlo_study(Workspace(library=library), jobs=3,
                                    **kwargs)
        assert schemas.to_dict(serial) == schemas.to_dict(parallel)


class TestDistribution:
    def test_lognormal_shape(self, library, c17):
        config = McConfig(samples=120, seed=3, timing=False,
                          sigma_global_v=0.04)
        samples = MonteCarloEngine(c17, library, config=config).run()
        stats = summarize(samples)
        assert stats.min_nw > 0.0
        # Exponential Vth->leakage mapping skews right: mean > median.
        assert stats.mean_nw > stats.p50_nw
        assert stats.p50_nw < stats.p95_nw < stats.p99_nw <= stats.max_nw

    def test_zero_sigma_collapses_to_nominal(self, library, c17):
        config = McConfig(samples=3, seed=1, timing=False,
                          sigma_global_v=0.0, sigma_local_v=0.0)
        engine = MonteCarloEngine(c17, library, config=config)
        for sample in engine.run():
            assert sample.leakage_nw == pytest.approx(
                engine.nominal_leakage_nw, rel=1e-12)

    def test_timing_samples_track_global_shift(self, library, c432_results):
        """Slow samples (positive global dVth) have worse WNS."""
        result = c432_results[Technique.DUAL_VTH]
        engine = build_engine(result, library,
                              McConfig(samples=16, seed=9, timing=True))
        samples = engine.run()
        slow = [s for s in samples if s.global_dvth_v > 0.02]
        fast = [s for s in samples if s.global_dvth_v < -0.02]
        assert slow and fast
        assert max(s.wns for s in slow) < min(s.wns for s in fast)


class TestStatistics:
    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == pytest.approx(2.5)
        assert percentile([7.0], 0.95) == 7.0
        with pytest.raises(FlowError):
            percentile([], 0.5)

    def test_yields(self):
        samples = [McSample(index=i, global_dvth_v=0.0,
                            leakage_nw=float(i + 1),
                            wns=0.1 - 0.05 * i) for i in range(4)]
        stats = summarize(samples, leakage_budget_nw=2.5)
        assert stats.leakage_yield == pytest.approx(0.5)
        assert stats.timing_yield == pytest.approx(0.75)  # wns: .1,.05,0,-.05
        assert stats.worst_wns == pytest.approx(-0.05)

    def test_summarize_rejects_empty(self):
        with pytest.raises(FlowError):
            summarize([])

    def test_config_validation(self):
        with pytest.raises(FlowError):
            McConfig(samples=0)
        with pytest.raises(FlowError):
            McConfig(sigma_global_v=-0.1)

    def test_timing_needs_constraints(self, library, c17):
        with pytest.raises(FlowError, match="constraints"):
            MonteCarloEngine(c17, library,
                             config=McConfig(samples=1, timing=True))


class TestTechniqueRobustness:
    """The paper-level claim under variation: the improved technique
    is better in mean *and* spread, at nominal and at every corner."""

    CORNERS = (None, "tt_nom", "ff_1.32v_125c", "ss_1.08v_125c")

    def test_improved_beats_dual_vth_across_corners(self, library,
                                                    c432_results):
        mc = McConfig(samples=40, seed=17, timing=False)
        for corner in self.CORNERS:
            stats = {}
            for technique, result in c432_results.items():
                engine = build_engine(result, library, mc,
                                      corner_name=corner)
                stats[technique] = summarize(engine.run())
            dual = stats[Technique.DUAL_VTH]
            improved = stats[Technique.IMPROVED_SMT]
            assert improved.mean_nw < dual.mean_nw, corner
            assert improved.std_nw < dual.std_nw, corner
