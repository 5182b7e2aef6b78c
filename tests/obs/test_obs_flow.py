"""Tracing across the real flow: stage coverage, pool propagation."""

import os

from repro.api import Workspace
from repro.config import FlowConfig, Technique
from repro.core.stages import PIPELINES
from repro.obs import TraceResult, enable, span, take_records
from repro.runner import ExperimentRunner, FlowJob

CONFIG = FlowConfig(timing_margin=0.2)


def test_flow_trace_covers_every_pipeline_stage(library):
    enable()
    technique = Technique.IMPROVED_SMT
    Workspace(library=library, config=CONFIG) \
        .design("c17").flow_result(technique)
    trace = TraceResult.from_records(take_records())
    names = trace.span_names()
    assert "api.flow" in names
    assert "flow.run" in names
    for key in PIPELINES[technique]:
        assert f"stage.{key}" in names, f"stage {key} left untraced"
    # Nesting: the stages sit under flow.run, not as stray roots.
    roots = [node.name for node in trace.spans]
    assert all(not name.startswith("stage.") for name in roots)
    # The STA engine traced its runs somewhere inside the flow.
    assert "sta.full_run" in names


def test_stage_report_timings_unchanged_by_tracing(library):
    """StageReport.elapsed_s comes from the same perf_counter pair
    whether or not spans are recorded."""
    baseline = Workspace(library=library, config=CONFIG) \
        .design("c17").flow_result(Technique.DUAL_VTH)
    enable()
    traced = Workspace(library=library, config=CONFIG) \
        .design("c17").flow_result(Technique.DUAL_VTH)
    take_records()
    assert [report.name for report in traced.stages] == \
        [report.name for report in baseline.stages]
    assert all(report.elapsed_s >= 0.0 for report in traced.stages)
    # The numbers themselves stay bit-identical run to run.
    assert traced.leakage_nw == baseline.leakage_nw
    assert traced.total_area == baseline.total_area


def test_pool_ships_worker_spans_back_to_the_parent(library):
    enable()
    runner = ExperimentRunner(jobs=2, library=library)
    jobs = [FlowJob(circuit=circuit, technique=Technique.DUAL_VTH,
                    config=CONFIG)
            for circuit in ("c17", "s27")]
    outcomes = runner.run(jobs)
    assert all(outcome.ok for outcome in outcomes)
    # The spans crossed the process boundary and were re-adopted here.
    records = take_records()
    flow_jobs = [record for root in records for record in root.walk()
                 if record.name == "runner.flow_job"]
    assert len(flow_jobs) >= 2
    assert {record.attributes["circuit"] for record in flow_jobs} == \
        {"c17", "s27"}
    # At least one was measured in a pool worker, not this process.
    assert any(record.pid != os.getpid() for record in flow_jobs)
    # And the flow itself traced inside the job span, worker-side.
    assert any(child.name == "flow.run"
               for record in flow_jobs
               for child in record.children)


def test_serial_runner_traces_identically_shaped_jobs(library):
    enable()
    runner = ExperimentRunner(jobs=1, library=library)
    job = FlowJob(circuit="c17", technique=Technique.DUAL_VTH,
                  config=CONFIG)
    assert runner.run([job])[0].ok
    records = take_records()
    names = [record.name for root in records
             for record in root.walk()]
    assert "runner.flow_job" in names
    assert "flow.run" in names


def _run_between_spans(library, jobs, circuits):
    """Root spans after a runner ran inside ``outer``, once ``earlier``
    had already finished."""
    enable()
    with span("earlier"):
        pass
    with span("outer"):
        ExperimentRunner(jobs=jobs, library=library).run(
            [FlowJob(circuit=circuit, technique=Technique.DUAL_VTH,
                     config=CONFIG) for circuit in circuits])
    return take_records()


def test_serial_runner_leaves_other_spans_where_they_are(library):
    roots = _run_between_spans(library, 1, ["c17"])
    assert [root.name for root in roots] == ["earlier", "outer"]
    assert [child.name for child in roots[1].children] == \
        ["runner.flow_job"]


def test_forked_pool_workers_ship_only_their_own_spans(library):
    roots = _run_between_spans(library, 2, ["c17", "s27"])
    assert [root.name for root in roots] == ["earlier", "outer"]
    jobs = roots[1].children
    assert [child.name for child in jobs] == ["runner.flow_job"] * 2
    assert all(job.pid != os.getpid() for job in jobs)


def test_sta_escalation_is_a_span_attribute(library):
    """A cone pass over its budget escalates to a full run; the
    ``escalated`` attribute counts exactly those, so the count no
    longer has to be read off span nesting."""
    enable()
    Workspace(library=library, config=FlowConfig(timing_margin=0.12)) \
        .design("c432").flow_result(Technique.IMPROVED_SMT)
    full_runs, escalated, nested, arrivals_only = 0, 0, 0, set()

    def visit(record, in_incremental):
        nonlocal full_runs, escalated, nested
        if record.name in ("sta.full_run", "sta.incremental"):
            arrivals_only.add((record.name,
                               record.attributes["arrivals_only"]))
        if record.name == "sta.full_run":
            full_runs += 1
            escalated += record.attributes["escalated"]
            nested += in_incremental
        for child in record.children:
            visit(child, in_incremental or record.name == "sta.incremental")

    for root in take_records():
        visit(root, False)
    assert 0 < escalated < full_runs
    assert escalated == nested
    # The bisection probes ran arrivals-only passes of both kinds.
    assert ("sta.incremental", True) in arrivals_only
    assert ("sta.full_run", True) in arrivals_only
