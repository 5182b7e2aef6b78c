"""Reproducibility: every pipeline stage is deterministic.

A reproduction package must produce identical numbers on every run;
these tests run the same seeded configuration twice and require
bit-identical outcomes.
"""

import pytest

from repro.config import FlowConfig, Technique
from repro.core.flow import SelectiveMtFlow


def test_circuit_generation_deterministic():
    from repro.benchcircuits.suite import load_circuit

    a1 = load_circuit("circuitA")
    a2 = load_circuit("circuitA")
    conns1 = sorted((i.name, p.name, p.net.name)
                    for i in a1.instances.values()
                    for p in i.pins.values() if p.net)
    conns2 = sorted((i.name, p.name, p.net.name)
                    for i in a2.instances.values()
                    for p in i.pins.values() if p.net)
    assert conns1 == conns2


def test_library_deterministic():
    from repro.device.process import Technology
    from repro.liberty.synth import LibraryBuilder
    from repro.liberty.writer import write_liberty

    first = write_liberty(LibraryBuilder(Technology()).build())
    second = write_liberty(LibraryBuilder(Technology()).build())
    assert first == second


def test_full_flow_deterministic(library):
    from repro.benchcircuits.suite import load_circuit

    netlist = load_circuit("c432")
    config = FlowConfig(timing_margin=0.10, placement_seed=7)

    def run():
        result = SelectiveMtFlow(netlist, library,
                                 Technique.IMPROVED_SMT, config).run()
        return (result.leakage_nw, result.total_area, result.timing.wns,
                sorted((i.name, i.cell_name)
                       for i in result.netlist.instances.values()))

    first = run()
    second = run()
    assert first[0] == pytest.approx(second[0], rel=1e-12)
    assert first[1] == pytest.approx(second[1], rel=1e-12)
    assert first[2] == pytest.approx(second[2], rel=1e-12)
    assert first[3] == second[3]


def test_sweep_parallel_matches_serial(library):
    """`repro sweep --jobs 4` and `--jobs 1` yield identical rows."""
    from repro.runner import run_sweep

    config = FlowConfig(timing_margin=0.2, placement_seed=5)
    serial = run_sweep(["c17"], config=config, jobs=1, library=library)
    parallel = run_sweep(["c17"], config=config, jobs=4, library=library)
    assert len(serial) == len(parallel) == 1
    assert serial[0].circuit == parallel[0].circuit
    assert serial[0].rows == parallel[0].rows  # dataclass equality: exact


def test_sweep_rows_match_in_process_compare(library):
    """The runner's slim path reproduces the in-process comparison
    exactly."""
    from repro.api.studies import technique_comparison
    from repro.benchcircuits.suite import load_circuit
    from repro.runner import run_sweep

    config = FlowConfig(timing_margin=0.2, placement_seed=3)
    netlist = load_circuit("c17")
    direct = technique_comparison(netlist, library, config,
                                  circuit_name="c17")
    swept = run_sweep(["c17"], config=config, jobs=1, library=library)[0]
    assert direct.rows == swept.rows


def test_per_job_seed_overrides_config(library):
    from repro.runner import FlowJob, run_flow_job

    config = FlowConfig(timing_margin=0.2, placement_seed=1)
    job = FlowJob(circuit="c17", technique=Technique.DUAL_VTH,
                  config=config, seed=9)
    assert job.resolved_config().placement_seed == 9
    outcome = run_flow_job(job, library=library)
    assert outcome.ok
    repeat = run_flow_job(job, library=library)
    assert outcome.area_um2 == repeat.area_um2
    assert outcome.leakage_nw == repeat.leakage_nw


def test_corner_signoff_parallel_matches_serial(library):
    """`repro-smt corners --jobs N` is bit-identical for any N."""
    from repro.api import Workspace, schemas
    from repro.api.studies import corner_signoff_study

    kwargs = dict(circuits=("c17",),
                  corners=("tt_nom", "ff_1.32v_125c"),
                  config=FlowConfig(timing_margin=0.2))
    serial = corner_signoff_study(Workspace(library=library), jobs=1,
                                  **kwargs)
    parallel = corner_signoff_study(Workspace(library=library), jobs=3,
                                    **kwargs)
    assert schemas.to_dict(serial) == schemas.to_dict(parallel)
    # Results are keyed by the caller's circuit names.
    outcome = serial.outcome("c17", Technique.IMPROVED_SMT)
    assert outcome.row("tt_nom").leakage_nw == outcome.nominal_leakage_nw


def test_flow_does_not_mutate_source(library):
    from repro.benchcircuits.suite import load_circuit

    netlist = load_circuit("c17")
    before = sorted(i.cell_name for i in netlist.instances.values())
    SelectiveMtFlow(netlist, library, Technique.IMPROVED_SMT,
                    FlowConfig(timing_margin=0.2)).run()
    after = sorted(i.cell_name for i in netlist.instances.values())
    assert before == after  # the flow clones; generic gates untouched
