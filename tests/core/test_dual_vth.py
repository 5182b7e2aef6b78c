"""Slack-driven Vth assignment."""

import pytest

from repro.core.dual_vth import DualVthAssigner
from repro.errors import FlowError
from repro.liberty.library import VARIANT_HVT, VARIANT_LVT, VARIANT_MT
from repro.netlist.techmap import technology_map
from repro.sim.equivalence import check_equivalence
from repro.timing.constraints import Constraints
from repro.timing.session import TimingSession
from repro.timing.sta import TimingAnalyzer


def min_period(netlist, library):
    probe = Constraints(clock_period=1000.0)
    report = TimingAnalyzer(netlist, library, probe).run()
    return 1000.0 - report.wns


@pytest.fixture()
def c880(library):
    from repro.benchcircuits.suite import load_circuit

    netlist = load_circuit("c880")
    technology_map(netlist, library)
    return netlist


def test_loose_period_converts_everything(library, c17):
    cons = Constraints(clock_period=min_period(c17, library) * 3.0)
    result = DualVthAssigner(TimingSession(c17, library, cons)).run()
    assert result.fast_count == 0
    assert result.slow_count == 6
    assert result.final_report.setup_met


def test_tight_period_keeps_everything_fast(library, c17):
    cons = Constraints(clock_period=min_period(c17, library) * 1.0001)
    result = DualVthAssigner(TimingSession(c17, library, cons)).run()
    assert result.final_report.setup_met
    # Nearly no conversion budget: most cells stay fast.
    assert result.fast_count >= 4


def test_infeasible_period_raises(library, c17):
    cons = Constraints(clock_period=min_period(c17, library) * 0.5)
    with pytest.raises(FlowError):
        DualVthAssigner(TimingSession(c17, library, cons)).run()


def test_intermediate_period_partial_conversion(library, c880):
    cons = Constraints(clock_period=min_period(c880, library) * 1.10)
    result = DualVthAssigner(TimingSession(c880, library, cons)).run()
    assert result.final_report.setup_met
    assert 0 < result.fast_count < len(c880.instances)
    assert 0.0 < result.fast_fraction < 1.0


def test_more_margin_means_fewer_fast_cells(library, c880):
    base = min_period(c880, library)
    tight = DualVthAssigner(TimingSession(
        c880.clone(), library, Constraints(clock_period=base * 1.05))).run()
    loose = DualVthAssigner(TimingSession(
        c880.clone(), library, Constraints(clock_period=base * 1.5))).run()
    assert loose.fast_count <= tight.fast_count


def test_function_preserved(library, c880):
    golden = c880.clone("golden")
    cons = Constraints(clock_period=min_period(c880, library) * 1.15)
    DualVthAssigner(TimingSession(c880, library, cons)).run()
    assert check_equivalence(golden, c880, library).equivalent


def test_mt_as_fast_class(library, c880):
    cons = Constraints(clock_period=min_period(c880, library) * 1.15)
    result = DualVthAssigner(TimingSession(c880, library, cons),
                             fast_variant=VARIANT_MT,
                             slow_variant=VARIANT_HVT).run()
    assert result.final_report.setup_met
    for name in result.fast_instances:
        cell = library.cell(c880.instances[name].cell_name)
        assert cell.variant == VARIANT_MT


def test_sequential_cells_untouched_by_default(library, s27):
    from repro.netlist.transform import swap_variant

    # FFs mapped HVT by techmap stay HVT even though LVT DFFs exist.
    cons = Constraints(clock_period=min_period(s27, library) * 1.2)
    DualVthAssigner(TimingSession(s27, library, cons)).run()
    for inst in s27.instances.values():
        if inst.cell_name.startswith("DFF"):
            assert inst.cell_name.endswith("_HVT")


def test_sta_run_budget(library, c880):
    cons = Constraints(clock_period=min_period(c880, library) * 1.2)
    result = DualVthAssigner(TimingSession(c880, library, cons),
                             rounds=4).run()
    # Bisection keeps the STA count logarithmic-ish, not linear.
    assert result.sta_runs < 80


def test_prepare_forces_fast(library, c880):
    from repro.netlist.transform import swap_variant

    for inst in c880.instances.values():
        cell = library.cell(inst.cell_name)
        if library.has_variant(cell, VARIANT_HVT) and not cell.is_sequential:
            swap_variant(c880, inst, library, VARIANT_HVT)
    cons = Constraints(clock_period=min_period(c880, library) * 5)
    assigner = DualVthAssigner(TimingSession(c880, library, cons))
    assigner.prepare()
    variants = {library.cell(i.cell_name).variant
                for i in c880.instances.values()
                if not library.cell(i.cell_name).is_sequential}
    assert variants == {VARIANT_LVT}


class _RevertWholeTrial(DualVthAssigner):
    """The bisection before delta probes: a failed probe reverts its
    whole trial, and the next probe swaps a sub-range of it again."""

    def _bisect_prefix(self, candidates):
        low, high, first_probe = 0, len(candidates), True
        while low < high:
            mid = high if first_probe else (low + high + 1) // 2
            first_probe = False
            trial = candidates[low:mid]
            self._swap(trial, self.slow_variant)
            if self._wns() >= 0.0:
                low = mid
            else:
                self._swap(trial, self.fast_variant)
                high = mid - 1
        return low


def _recorded_run(assigner_cls, netlist, library, constraints):
    """Run ``assigner_cls`` and record, at every ``wns()`` probe, the
    slow instances of the netlist and the slow prefix length of the
    round's candidates; also count the session's variant swaps."""
    session = TimingSession(netlist, library, constraints)
    probes, rounds, swaps = [], [], [0]
    swap = session.swap_variant

    def counted(inst, variant):
        swaps[0] += 1
        return swap(inst, variant)

    session.swap_variant = counted

    class Recording(assigner_cls):
        def _bisect_prefix(self, candidates):
            rounds.append((candidates, []))
            return super()._bisect_prefix(candidates)

        def _wns(self):
            candidates, answers = rounds[-1]
            slow = [library.cell(inst.cell_name).variant == VARIANT_HVT
                    for inst in candidates]
            prefix = slow.index(False) if False in slow else len(slow)
            assert not any(slow[prefix:]), "slow set is not a prefix"
            wns = super()._wns()
            answers.append((prefix, wns))
            probes.append(sorted(
                name for name, inst in netlist.instances.items()
                if library.cell(inst.cell_name).variant == VARIANT_HVT))
            return wns

    result = Recording(session).run()
    return result, probes, rounds, swaps[0]


def test_delta_probes_see_the_bisection_prefix(library, c880):
    """Each probe swaps only the difference from the previous probe's
    state, yet sees exactly the prefix the bisection asks for; the run
    ends where swapping whole trials ends, with fewer swaps."""
    constraints = Constraints(clock_period=min_period(c880, library) * 1.10)
    reference = _recorded_run(_RevertWholeTrial, c880.clone(), library,
                              constraints)
    result, probes, rounds, swaps = _recorded_run(
        DualVthAssigner, c880, library, constraints)

    for candidates, answers in rounds:
        low, high, first_probe = 0, len(candidates), True
        for prefix, wns in answers:
            mid = high if first_probe else (low + high + 1) // 2
            first_probe = False
            assert prefix == mid
            low, high = (mid, high) if wns >= 0.0 else (low, mid - 1)
        assert low == high
    ref_result, ref_probes, ref_rounds, ref_swaps = reference
    assert probes == ref_probes
    assert [answers for _, answers in rounds] \
        == [answers for _, answers in ref_rounds]
    assert any(wns < 0.0 for _, answers in rounds for _, wns in answers)
    assert result.fast_instances == ref_result.fast_instances
    assert result.slow_instances == ref_result.slow_instances
    assert result.final_report.wns == ref_result.final_report.wns
    assert result.sta_runs == ref_result.sta_runs
    assert swaps < ref_swaps
