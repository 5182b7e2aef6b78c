"""Tracing across the real flow: stage coverage, pool and shard
propagation."""

import os
import time

from repro.api import Workspace, schemas
from repro.api.requests import OptimizeRequest
from repro.api.shards import FacadeJob, run_facade_job
from repro.config import FlowConfig, Technique
from repro.core.stages import (
    PIPELINES,
    SHARED_STAGES,
    stage_key,
    stage_mt_assignment,
)
from repro.obs import TraceResult, enable, span, take_records
from repro.runner import ExperimentRunner

CONFIG = FlowConfig(timing_margin=0.2)


def _optimize_job(circuit):
    """A Dual-Vth optimize facade job on ``circuit``."""
    return FacadeJob(
        kind="optimize", circuit=circuit,
        request_payload=schemas.to_dict(
            OptimizeRequest(technique=Technique.DUAL_VTH)),
        config_payload=schemas.to_dict(CONFIG))


def test_flow_trace_covers_every_pipeline_stage(library):
    enable()
    technique = Technique.IMPROVED_SMT
    Workspace(library=library, config=CONFIG) \
        .design("c17").flow_result(technique)
    trace = TraceResult.from_records(take_records())
    names = trace.span_names()
    assert "api.flow" in names
    assert "flow.run" in names
    for key in map(stage_key, PIPELINES[technique]):
        assert f"stage.{key}" in names, f"stage {key} left untraced"
    # Nesting: the stages sit under flow.run, not as stray roots.
    roots = [node.name for node in trace.spans]
    assert all(not name.startswith("stage.") for name in roots)
    # The STA engine traced its runs somewhere inside the flow.
    assert "sta.full_run" in names

    # Three techniques on one design fork one shared prefix: its stages
    # run once, inside the first flow's span.  The two Selective-MT
    # techniques also share their MT assignment: it runs once, inside
    # the conventional flow's span, so the improved flow's span holds
    # no assignment.  Every other stage sits in the flow.run span of
    # its own technique, and nowhere else.
    design = Workspace(library=library, config=CONFIG).design("c17")
    for technique in Technique:
        design.flow_result(technique)
    records = [record for root in take_records() for record in root.walk()]
    flows = [record for record in records if record.name == "flow.run"]
    assert [flow.attributes["technique"] for flow in flows] == \
        [technique.value for technique in Technique]
    dual, conventional, improved = (PIPELINES[technique]
                                    for technique in Technique)
    expected = [dual, conventional[len(SHARED_STAGES):],
                improved[len(SHARED_STAGES) + 1:]]
    assert improved[len(SHARED_STAGES)] is stage_mt_assignment
    for flow, steps in zip(flows, expected):
        assert [child.name for child in flow.children
                if child.name.startswith("stage.")] == \
            [f"stage.{stage_key(step)}" for step in steps]
    assert sum(record.name.startswith("stage.") for record in records) \
        == sum(map(len, expected))


def test_selective_mt_techniques_share_one_mt_assignment(library):
    """On one design, the conventional and improved flows run one MT
    assignment between them, in either order, and both read its
    result: the same fast set, STA statistics and report details."""
    for order in ((Technique.CONVENTIONAL_SMT, Technique.IMPROVED_SMT),
                  (Technique.IMPROVED_SMT, Technique.CONVENTIONAL_SMT)):
        enable()
        design = Workspace(library=library, config=CONFIG).design("c432")
        first, second = (design.flow_result(technique)
                         for technique in order)
        records = [record for root in take_records()
                   for record in root.walk()]
        assignments = [record for record in records
                       if record.name == "stage.mt_assignment"]
        assert len(assignments) == 1, order
        assert first.assignment.fast_instances
        assert first.assignment.fast_instances == \
            second.assignment.fast_instances
        assert first.sta_stats["vth_assignment"] == \
            second.sta_stats["vth_assignment"]
        assert first.stage("vth_assignment").details == \
            second.stage("vth_assignment").details
        assert first.netlist is not second.netlist


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
    payloads = runner.map(run_facade_job,
                          [_optimize_job(circuit)
                           for circuit in ("c17", "s27")])
    assert [payload["circuit"] for payload in payloads] == ["c17", "s27"]
    # The spans crossed the process boundary and were re-adopted here.
    records = take_records()
    flows = [record for root in records for record in root.walk()
             if record.name == "api.flow"]
    assert len(flows) >= 2
    assert {record.attributes["circuit"] for record in flows} == \
        {"c17", "s27"}
    # At least one was measured in a pool worker, not this process.
    assert any(record.pid != os.getpid() for record in flows)
    # And the flow itself traced inside the job span, worker-side.
    assert any(child.name == "flow.run"
               for record in flows
               for child in record.children)


def test_pooled_montecarlo_runs_no_flow_in_a_worker(library):
    """A pooled Monte-Carlo study ships each finished design to its
    sample chunks: the three flows (one shared prefix, one shared MT
    assignment) run once, in this process, and the workers only
    sample."""
    from repro.api.studies import montecarlo_study

    enable()
    montecarlo_study(Workspace(library=library), circuit="s344",
                     samples=8, config=FlowConfig(timing_margin=0.12),
                     jobs=2)
    records = [record for root in take_records() for record in root.walk()]

    def spans_named(name):
        return [record for record in records if record.name == name]

    flows = spans_named("flow.run")
    assert len(flows) == 3
    assert all(flow.pid == os.getpid() for flow in flows)
    for key in map(stage_key, SHARED_STAGES):
        assert len(spans_named(f"stage.{key}")) == 1, key
    assert len(spans_named("stage.mt_assignment")) == 1
    chunks = spans_named("mc.chunk")
    assert len(chunks) == 6
    assert all(chunk.pid != os.getpid() for chunk in chunks)


def test_serial_runner_traces_identically_shaped_jobs(library):
    enable()
    runner = ExperimentRunner(jobs=1, library=library)
    (payload,) = runner.map(run_facade_job, [_optimize_job("c17")])
    assert payload["schema"] == "optimize_result"
    records = take_records()
    names = [record.name for root in records
             for record in root.walk()]
    assert "api.flow" in names
    assert "flow.run" in names


def _run_between_spans(library, jobs, circuits):
    """Root spans after a runner ran inside ``outer``, once ``earlier``
    had already finished."""
    enable()
    with span("earlier"):
        pass
    with span("outer"):
        ExperimentRunner(jobs=jobs, library=library).map(
            run_facade_job,
            [_optimize_job(circuit) for circuit in circuits])
    return take_records()


def test_serial_runner_leaves_other_spans_where_they_are(library):
    roots = _run_between_spans(library, 1, ["c17"])
    assert [root.name for root in roots] == ["earlier", "outer"]
    assert [child.name for child in roots[1].children] == ["api.flow"]


def test_forked_pool_workers_ship_only_their_own_spans(library):
    roots = _run_between_spans(library, 2, ["c17", "s27"])
    assert [root.name for root in roots] == ["earlier", "outer"]
    jobs = roots[1].children
    assert [child.name for child in jobs] == ["api.flow"] * 2
    assert all(job.pid != os.getpid() for job in jobs)


def _run_on_one_shard(library, body, jobs=1):
    """Run one job on a single-shard service; returns (payload, the
    shard worker's pid)."""
    from repro.api.service import JobService

    service = JobService(workspace=Workspace(library=library), jobs=jobs,
                         shards=1).start()
    try:
        job = service.submit(body)
        deadline = time.monotonic() + 120
        while service.status(job.job_id).status in ("queued", "running"):
            assert time.monotonic() < deadline, "job did not finish"
            time.sleep(0.01)
        assert service.status(job.job_id).status == "done"
        (shard_pid,) = service._pool.worker_pids()[0]
        return service.result(job.job_id), shard_pid
    finally:
        service.close()


def _service_job_span():
    (service_job,) = [record for root in take_records()
                      for record in root.walk()
                      if record.name == "service.job"]
    assert service_job.pid == os.getpid()
    return service_job


def test_shard_worker_spans_land_under_the_service_job(library):
    """A sharded service job ships the worker's flow spans home in the
    runner's envelope, grafted under the job's ``service.job`` span."""
    enable()
    _payload, shard_pid = _run_on_one_shard(
        library, {"kind": "optimize", "circuit": "c17",
                  "config": {"timing_margin": 0.2}})
    flows = [child for child in _service_job_span().children
             if child.name == "api.flow"]
    assert len(flows) == 1
    assert flows[0].pid == shard_pid != os.getpid()
    assert [child.name for child in flows[0].children] == ["flow.run"]
    assert all(record.pid == shard_pid for record in flows[0].walk())


def test_shard_sweep_fans_out_to_grid_workers(library):
    """A shard honours the service's ``jobs``: its sweep forks grid
    workers (fresh workspaces), whose spans ride both envelopes home,
    and the rows equal the in-process tier's."""
    enable()
    payload, shard_pid = _run_on_one_shard(
        library, {"kind": "sweep", "circuit": "c17",
                  "config": {"timing_margin": 0.2}}, jobs=2)
    flows = [child for child in _service_job_span().children
             if child.name == "api.flow"]
    assert len(flows) == 3
    assert not {flow.pid for flow in flows} & {shard_pid, os.getpid()}
    local = Workspace(library=library, config=CONFIG).design("c17").sweep()
    assert payload == schemas.check_round_trip(local)


def test_sta_escalation_is_a_span_attribute(library):
    """A full run is ``escalated`` exactly when the dirt alone exceeded
    ``full_threshold`` (0.5) of the combinational instances; every
    other full run is a session's cold start, which counts no dirt.
    The cutoff pass never escalates part-way, so no full run sits
    inside an ``sta.incremental`` span, and each of those spans says
    how many instances it re-evaluated."""
    enable()
    Workspace(library=library, config=FlowConfig(timing_margin=0.12)) \
        .design("c432").flow_result(Technique.IMPROVED_SMT)
    full_runs, incremental = [], []

    def visit(record, in_incremental):
        if record.name == "sta.full_run":
            assert not in_incremental, "a full run nested in a cutoff pass"
            full_runs.append(record.attributes)
        elif record.name == "sta.incremental":
            incremental.append(record.attributes)
        for child in record.children:
            visit(child, in_incremental or record.name == "sta.incremental")

    for root in take_records():
        visit(root, False)
    for attributes in full_runs:
        dirt = attributes["dirty_comb"] + attributes["dirty_seq"]
        assert attributes["escalated"] == \
            (dirt > 0.5 * attributes["instances"]), attributes
    escalated = [each for each in full_runs if each["escalated"]]
    assert 0 < len(escalated) < len(full_runs)
    assert all(0 <= each["evaluated"] for each in incremental)
    assert sum(each["evaluated"] for each in incremental) > 0
    # The bisection probes ran arrivals-only passes of both kinds.
    kinds = {(name, each["arrivals_only"])
             for name, spans in (("sta.full_run", full_runs),
                                 ("sta.incremental", incremental))
             for each in spans}
    assert ("sta.incremental", True) in kinds
    assert ("sta.full_run", True) in kinds
