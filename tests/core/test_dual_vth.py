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
    whole trial, and the next probe swaps a sub-range of it again; and
    every round, not only the first, opens with the all-candidates
    probe."""

    def _bisect_prefix(self, candidates, optimistic):
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
        def _bisect_prefix(self, candidates, optimistic):
            rounds.append((candidates, []))
            return super()._bisect_prefix(candidates, optimistic)

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
    state, yet sees exactly the prefix the bisection asks for.  Only the
    first round opens with the all-candidates probe: a later round's
    all-candidates state is the first round's failed one again, so the
    probes are the reference's without its repeats.  The run ends where
    swapping whole trials in every round ends, with fewer swaps and one
    STA probe fewer per later round."""
    constraints = Constraints(clock_period=min_period(c880, library) * 1.10)
    reference = _recorded_run(_RevertWholeTrial, c880.clone(), library,
                              constraints)
    result, probes, rounds, swaps = _recorded_run(
        DualVthAssigner, c880, library, constraints)

    for index, (candidates, answers) in enumerate(rounds):
        first_probe = index == 0
        low = 0
        high = len(candidates) if first_probe else len(candidates) - 1
        for prefix, wns in answers:
            mid = high if first_probe else (low + high + 1) // 2
            first_probe = False
            assert prefix == mid
            low, high = (mid, high) if wns >= 0.0 else (low, mid - 1)
        assert low == high
    ref_result, ref_probes, ref_rounds, ref_swaps = reference
    assert len(rounds) == len(ref_rounds) > 1
    unique = []
    for slow in ref_probes:
        if slow not in unique:
            unique.append(slow)
    assert len(unique) < len(ref_probes)
    assert probes == unique
    # What the reference repeats is each later round's opening probe,
    # the first round's failed all-candidates state.
    assert [answers for _, answers in rounds] \
        == [ref_rounds[0][1]] + [answers[1:] for _, answers in ref_rounds[1:]]
    for candidates, answers in ref_rounds[1:]:
        assert answers[0] == (len(candidates), ref_rounds[0][1][0][1])
    assert ref_rounds[0][1][0][1] < 0.0
    assert result.fast_instances == ref_result.fast_instances
    assert result.slow_instances == ref_result.slow_instances
    assert result.final_report.wns == ref_result.final_report.wns
    assert result.sta_runs == ref_result.sta_runs - (len(rounds) - 1)
    assert swaps < ref_swaps


def _slow_sets_per_run(monkeypatch):
    """Patch :class:`DualVthAssigner` to record, per assigner, the slow
    instances its netlist holds at every ``wns()`` probe."""
    seen = {}
    wns = DualVthAssigner._wns

    def recording(self):
        seen.setdefault(self, []).append(frozenset(
            name for name, inst in self.netlist.instances.items()
            if inst.cell_name in self.library
            and self.library.cell(inst.cell_name).variant
            == self.slow_variant))
        return wns(self)

    monkeypatch.setattr(DualVthAssigner, "_wns", recording)
    return seen


def test_no_probe_repeats_a_slow_set(library, c880, monkeypatch):
    """No two bisection probes of one assignment see the same slow set
    (so the same netlist and WNS): on c880 at a 10 % margin, and in the
    Dual-Vth and MT assignments of circuitB's Table 1 flow."""
    from repro.benchcircuits.suite import load_circuit
    from repro.config import Technique
    from repro.core.stages import (
        SHARED_STAGES,
        FlowContext,
        run_stages,
        stage_dual_vth_assignment,
        stage_mt_assignment,
    )
    from repro.experiments import table1_config

    seen = _slow_sets_per_run(monkeypatch)
    constraints = Constraints(clock_period=min_period(c880, library) * 1.10)
    DualVthAssigner(TimingSession(c880, library, constraints)).run()
    prefix = run_stages(FlowContext.create(
        load_circuit("circuitB"), library, config=table1_config("B")),
        SHARED_STAGES)
    for technique, step in ((Technique.DUAL_VTH, stage_dual_vth_assignment),
                            (Technique.IMPROVED_SMT, stage_mt_assignment)):
        run_stages(prefix.fork(technique), (step,))
    assert len(seen) == 3
    for probes in seen.values():
        assert len(probes) > 1
        assert len(set(probes)) == len(probes)
