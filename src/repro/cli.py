"""Command-line interface — a thin client of :mod:`repro.api`.

Every subcommand builds one :class:`~repro.api.Workspace` and drives
the facade; ``--json`` outputs all come from the schema registry
(stamped with ``schema``/``schema_version`` and checked to round-trip
through ``from_dict(to_dict(x)) == x`` before they are written).

Examples::

    repro-smt list
    repro-smt flow --circuit c880 --technique improved_smt
    repro-smt compare --circuit circuitA --margin 0.12
    repro-smt corners --circuits c432 --corners tt_nom,ss_1.08v_125c
    repro-smt serve --port 8731
    repro-smt library --out my.lib
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from repro.api import Workspace, schemas
from repro.api.resultstore import default_directory
from repro.benchcircuits.suite import available_circuits
from repro.config import FlowConfig, Technique
from repro.errors import ConfigError, ReproError
from repro.liberty.writer import write_liberty
from repro.obs import (
    configure_logging,
    enable as enable_tracing,
    take_records,
    write_chrome_trace,
)
from repro.power.report import render_leakage_table
from repro import units


def _add_obs_options(parser: argparse.ArgumentParser):
    """Observability knobs shared by every heavy subcommand."""
    parser.add_argument(
        "--trace", metavar="PATH",
        help="record hierarchical spans and write a Chrome "
             "trace-event JSON file here (loadable in Perfetto / "
             "chrome://tracing); also honors $REPRO_TRACE=1")
    parser.add_argument(
        "--log-level", default=None,
        help="level for the `repro` logger hierarchy "
             "(DEBUG/INFO/WARNING/...; default: $REPRO_LOG_LEVEL, "
             "else logging stays silent)")


def _add_config_options(parser: argparse.ArgumentParser):
    """The FlowConfig knobs every flow-running subcommand shares.  An
    unset flag leaves its FlowConfig default."""
    _add_obs_options(parser)
    parser.add_argument("--margin", type=float,
                        help="timing margin over the all-LVT critical delay")
    parser.add_argument("--bounce", type=float,
                        help="VGND bounce limit as a fraction of Vdd")
    parser.add_argument("--max-cells", type=int,
                        help="EM cap: MT-cells per switch")
    parser.add_argument("--max-rail", type=float,
                        help="VGND rail length cap (um)")
    parser.add_argument("--seed", type=int, help="placement seed")
    parser.add_argument(
        "--backend", choices=["python", "numpy"],
        help="numeric compute backend for Monte-Carlo, corner, standby "
             "and policy batches and leakage sums; design STA is scalar "
             "either way (default: $REPRO_COMPUTE_BACKEND or python; "
             "numpy falls back to python when the optional dependency "
             "is missing)")


def _add_flow_options(parser: argparse.ArgumentParser):
    parser.add_argument("--circuit", required=True,
                        help="circuit name (see `list`)")
    _add_config_options(parser)


def _config_from(args) -> FlowConfig:
    """The FlowConfig the config flags set; unset flags take the
    FlowConfig defaults (constructor kwargs, so they are validated)."""
    fields = dict(
        timing_margin=args.margin,
        bounce_limit_fraction=args.bounce,
        max_cells_per_switch=args.max_cells,
        max_rail_length_um=args.max_rail,
        placement_seed=args.seed,
        compute_backend=args.backend)
    return FlowConfig(**{field: value for field, value in fields.items()
                         if value is not None})


def _workspace(args, jobs: int | None = None) -> Workspace:
    return Workspace(config=_config_from(args),
                     jobs=jobs if jobs is not None
                     else getattr(args, "jobs", 1))


def _emit_json(result, path: str | None):
    """Write a registered result as JSON (round-trip checked)."""
    if not path:
        return
    payload = schemas.check_round_trip(result)
    with open(path, "w", encoding="utf-8") as handle:
        # allow_nan=False: non-finite floats are string-encoded by the
        # schema layer, so reports stay strict JSON.
        json.dump(payload, handle, indent=2, sort_keys=True,
                  allow_nan=False)
    print(f"wrote JSON report to {path}")


def cmd_list(_args) -> int:
    for name in available_circuits():
        print(name)
    return 0


def cmd_flow(args) -> int:
    _check_names("circuit", (args.circuit,), available_circuits())
    workspace = _workspace(args)
    design = workspace.design(args.circuit)
    technique = Technique(args.technique)
    result = design.flow_result(technique)
    library = workspace.library
    print(result.render_stages())
    print()
    print(render_leakage_table(result.leakage))
    print()
    print(f"total area      : {units.pretty_area(result.total_area)}")
    print(f"final timing    : {result.timing.summary()}")
    if result.network is not None:
        from repro.vgnd.report import render_network_table

        print()
        print(render_network_table(result.network, library))
    if args.export:
        from repro.core.artifacts import export_design, verify_export

        manifest = export_design(result, library, args.export)
        problems = verify_export(manifest, library)
        status = "verified clean" if not problems else \
            f"PROBLEMS: {problems}"
        print(f"\nexported design database to {args.export} ({status})")
    if args.json:
        _emit_json(design.optimize(technique=technique), args.json)
    return 0


def cmd_stats(args) -> int:
    from repro.netlist.stats import design_stats
    from repro.netlist.techmap import technology_map

    _check_names("circuit", (args.circuit,), available_circuits())
    workspace = Workspace()
    library = workspace.library
    netlist = workspace.netlist(args.circuit).clone()
    technology_map(netlist, library)
    print(design_stats(netlist, library).render())
    return 0


def cmd_compare(args) -> int:
    _check_names("circuit", (args.circuit,), available_circuits())
    design = _workspace(args).design(args.circuit)
    result = design.sweep(jobs=args.jobs)
    print(result.render())
    _emit_json(result, args.json)
    return 0


def cmd_sweep(args) -> int:
    circuits = _parse_circuits(args.circuits)
    techniques = _parse_techniques(args.techniques)
    workspace = _workspace(args)
    result = workspace.sweep(circuits, techniques=techniques,
                             jobs=args.jobs)
    print(result.render())
    _emit_json(result, args.json)
    return 0


def _split_names(text: str | None) -> tuple[str, ...]:
    return tuple(name.strip() for name in
                 (text or "").split(",") if name.strip())


def _check_names(kind: str, names, known):
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ConfigError(kind, f"unknown {kind}(s) {unknown}; "
                                f"known: {', '.join(sorted(known))}")


def _parse_circuits(text: str) -> tuple[str, ...]:
    """Comma-separated, registry-checked circuit list."""
    circuits = _split_names(text)
    if not circuits:
        raise ConfigError("circuits", "no circuits given")
    _check_names("circuit", circuits, available_circuits())
    return circuits


def _parse_techniques(text: str | None):
    """Comma-separated technique list; ``None`` means "all"."""
    if text is None:
        return None
    names = _split_names(text)
    if not names:
        raise ConfigError("techniques", "no techniques given")
    try:
        return tuple(Technique(name) for name in names)
    except ValueError:
        valid = ", ".join(t.value for t in Technique)
        raise ConfigError(
            "techniques",
            f"unknown technique in {text!r}; valid: {valid}") from None


def cmd_corners(args) -> int:
    from repro.api.studies import corner_signoff_study
    from repro.variation.corners import (
        default_signoff_corners,
        standard_corners,
    )

    workspace = _workspace(args)
    library = workspace.library
    circuits = _parse_circuits(args.circuits)
    techniques = _parse_techniques(args.techniques)
    if args.all_corners:
        corners = tuple(standard_corners(library.tech))
    elif args.corners:
        corners = _split_names(args.corners)
    else:
        corners = default_signoff_corners(library.tech)
    _check_names("corner", corners, standard_corners(library.tech))
    result = corner_signoff_study(
        workspace, circuits=circuits, techniques=techniques,
        corners=corners, config=_config_from(args), jobs=args.jobs)
    print(result.render())
    _emit_json(result, args.json)
    return 0


def cmd_montecarlo(args) -> int:
    from repro.api.studies import montecarlo_study
    from repro.variation.corners import standard_corners

    _check_names("circuit", (args.circuit,), available_circuits())
    workspace = _workspace(args)
    library = workspace.library
    if args.corner:
        _check_names("corner", (args.corner,),
                     standard_corners(library.tech))
    techniques = _parse_techniques(args.techniques)
    study = montecarlo_study(
        workspace, circuit=args.circuit, techniques=techniques,
        samples=args.samples, seed=args.mc_seed,
        sigma_global_v=args.sigma_global, sigma_local_v=args.sigma_local,
        timing=not args.no_timing, corner=args.corner,
        leakage_budget_nw=args.leakage_budget,
        config=_config_from(args), jobs=args.jobs)
    print(study.render())
    _emit_json(study, args.json)
    return 0


def _load_scenario_payload(path: str):
    """Read one user-defined power-mode scenario from a JSON file.

    Accepts either a schema-stamped ``standby_scenario`` payload
    (``schemas.to_dict`` output) or a plain constructor-kwargs object
    (``{"name": ..., "active_ns": ..., ...}``).
    """
    from repro.standby.scenario import PowerModeScenario, points_from_json

    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ConfigError(
            "scenario_file", f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "scenario_file", f"invalid JSON in {path!r}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(
            "scenario_file",
            f"{path!r} must hold a JSON object, got "
            f"{type(payload).__name__}")
    if "schema" in payload:
        scenario = schemas.from_dict(payload)
        if not isinstance(scenario, PowerModeScenario):
            raise ConfigError(
                "scenario_file",
                f"{path!r} holds a {payload['schema']!r} payload, "
                f"not a standby_scenario")
        return scenario
    try:
        if "points" in payload:
            payload = dict(payload,
                           points=points_from_json(payload["points"]))
        return PowerModeScenario(**payload)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            "scenario_file", f"bad scenario in {path!r}: {exc}") from exc


def _read_scenario_file(path: str):
    """:func:`_load_scenario_payload`, with a scenario field's error
    also naming the file it came from."""
    try:
        return _load_scenario_payload(path)
    except ConfigError as exc:
        if exc.field == "scenario_file":
            raise
        raise ConfigError(
            "scenario_file", f"bad scenario in {path!r}: {exc}") from exc


def cmd_standby(args) -> int:
    from repro.standby.scenario import standard_scenarios
    from repro.variation.corners import standard_corners
    from repro.vgnd.report import render_standby_table

    _check_names("circuit", (args.circuit,), available_circuits())
    workspace = _workspace(args)
    library = workspace.library
    scenarios = _split_names(args.scenarios)
    _check_names("scenario", scenarios, standard_scenarios())
    corners = _split_names(args.corners)
    _check_names("corner", corners, standard_corners(library.tech))
    payloads = tuple(_read_scenario_file(path)
                     for path in (args.scenario_file or ()))
    result = workspace.design(args.circuit).standby(
        technique=args.technique,
        scenarios=scenarios, scenario_payloads=payloads,
        corners=corners,
        rush_budget_ma=args.rush_budget,
        settle_fraction=args.settle_fraction)
    print(render_standby_table(result))
    _emit_json(result, args.json)
    return 0


def cmd_policy(args) -> int:
    from repro.policy.traces import load_trace, trace_scenario
    from repro.standby.scenario import standard_scenarios
    from repro.variation.corners import standard_corners

    _check_names("circuit", (args.circuit,), available_circuits())
    workspace = _workspace(args)
    library = workspace.library
    scenarios = _split_names(args.scenarios)
    _check_names("scenario", scenarios, standard_scenarios())
    corners = _split_names(args.corners)
    _check_names("corner", corners, standard_corners(library.tech))
    payloads = tuple(
        trace_scenario(load_trace(path), active_ns=args.active_ns,
                       quantile_points=args.quantile_points)
        for path in (args.trace_file or ()))
    result = workspace.design(args.circuit).policy(
        technique=args.technique,
        scenarios=scenarios, scenario_payloads=payloads,
        corners=corners, candidates=args.candidates,
        max_domains=args.max_domains,
        rush_budget_ma=args.rush_budget,
        settle_fraction=args.settle_fraction)
    print(result.render())
    _emit_json(result, args.json)
    return 0


def cmd_library(args) -> int:
    library = Workspace().library
    text = write_liberty(library)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(library)} cells to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_serve(args) -> int:
    from repro.api.service import serve

    server = serve(host=args.host, port=args.port, jobs=args.jobs,
                   workers=args.workers, retain=args.retain,
                   shards=args.shards, queue_limit=args.queue_limit,
                   result_store=args.result_store,
                   verbose=args.verbose)
    tier = f"shards={args.shards}" if args.shards else \
        f"workers={args.workers}"
    print(f"repro-smt job service listening on {server.address} "
          f"({tier}, pool jobs={args.jobs}, "
          f"queue_limit={args.queue_limit or 'unbounded'}, "
          f"result_store={args.result_store or 'off'})",
          flush=True)
    # SIGTERM (how process managers stop a service) takes the Ctrl-C
    # path, so the finally below also runs and closes the shard pool.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.shutdown()
        server.service.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-smt",
        description="Selective Multi-Threshold CMOS design flow "
                    "(DATE 2005 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available circuits") \
        .set_defaults(func=cmd_list)

    flow_parser = sub.add_parser("flow", help="run one technique")
    _add_flow_options(flow_parser)
    flow_parser.add_argument(
        "--technique", default="improved_smt",
        choices=[t.value for t in Technique])
    flow_parser.add_argument(
        "--export", metavar="DIR",
        help="write the design database (.v/.def/.spef/.sdc/.lib) here")
    flow_parser.add_argument(
        "--json", metavar="PATH",
        help="also write the optimize result as JSON")
    flow_parser.set_defaults(func=cmd_flow)

    stats_parser = sub.add_parser("stats",
                                  help="print design statistics")
    stats_parser.add_argument("--circuit", required=True)
    stats_parser.set_defaults(func=cmd_stats)

    compare_parser = sub.add_parser(
        "compare", help="run all three techniques (Table 1 format)")
    _add_flow_options(compare_parser)
    compare_parser.add_argument(
        "--jobs", type=int, default=1,
        help="process-pool width (1 = in-process)")
    compare_parser.add_argument(
        "--json", metavar="PATH",
        help="also write the comparison as JSON")
    compare_parser.set_defaults(func=cmd_compare)

    sweep_parser = sub.add_parser(
        "sweep", help="compare techniques across many circuits, "
                      "optionally over a process pool")
    sweep_parser.add_argument(
        "--circuits", required=True,
        help="comma-separated circuit names (see `list`)")
    sweep_parser.add_argument(
        "--techniques", default=None,
        help="comma-separated subset of "
             + ",".join(t.value for t in Technique))
    sweep_parser.add_argument(
        "--jobs", type=int, default=1,
        help="process-pool width (1 = in-process; results are "
             "identical either way)")
    sweep_parser.add_argument(
        "--json", metavar="PATH", help="also write the sweep as JSON")
    _add_config_options(sweep_parser)
    sweep_parser.set_defaults(func=cmd_sweep)

    corners_parser = sub.add_parser(
        "corners", help="PVT corner signoff across circuits and "
                        "techniques (variation engine)")
    corners_parser.add_argument(
        "--circuits", required=True,
        help="comma-separated circuit names (see `list`)")
    corners_parser.add_argument(
        "--techniques", default=None,
        help="comma-separated subset of "
             + ",".join(t.value for t in Technique))
    corners_parser.add_argument(
        "--corners", default=None,
        help="comma-separated corner names (default: tt_nom + worst "
             "leakage + worst timing)")
    corners_parser.add_argument(
        "--all-corners", action="store_true",
        help="sign off the full 27-corner SSxVDDxT grid")
    corners_parser.add_argument(
        "--jobs", type=int, default=1,
        help="process-pool width (results identical for any N)")
    corners_parser.add_argument(
        "--json", metavar="PATH", help="also write the report as JSON")
    _add_config_options(corners_parser)
    corners_parser.set_defaults(func=cmd_corners)

    mc_parser = sub.add_parser(
        "montecarlo", help="Monte-Carlo Vth-variation study "
                           "(log-normal leakage statistics + yield)")
    mc_parser.add_argument("--circuit", required=True,
                           help="circuit name (see `list`)")
    mc_parser.add_argument(
        "--techniques", default=None,
        help="comma-separated subset of "
             + ",".join(t.value for t in Technique))
    mc_parser.add_argument("--samples", type=int,
                           help="Monte-Carlo sample count")
    mc_parser.add_argument("--mc-seed", type=int,
                           help="sampling seed (sample k is a pure "
                                "function of (seed, k))")
    mc_parser.add_argument("--sigma-global", type=float,
                           help="die-to-die Vth sigma (V)")
    mc_parser.add_argument("--sigma-local", type=float,
                           help="per-instance Vth sigma (V)")
    mc_parser.add_argument("--no-timing", action="store_true",
                           help="skip per-sample STA (leakage only)")
    mc_parser.add_argument("--corner", default=None,
                           help="evaluate samples around this PVT corner")
    mc_parser.add_argument("--leakage-budget", type=float, default=None,
                           help="leakage yield budget in nW (default: "
                                "2x each technique's nominal)")
    mc_parser.add_argument(
        "--jobs", type=int, default=1,
        help="process-pool width (statistics identical for any N)")
    mc_parser.add_argument(
        "--json", metavar="PATH", help="also write the report as JSON")
    _add_config_options(mc_parser)
    mc_parser.set_defaults(func=cmd_montecarlo)

    standby_parser = sub.add_parser(
        "standby", help="standby-transition signoff: wake-up "
                        "transients, staged rush-current schedule and "
                        "power-mode break-even analysis")
    standby_parser.add_argument("--circuit", required=True,
                                help="circuit name (see `list`)")
    standby_parser.add_argument(
        "--technique", default="improved_smt",
        choices=[t.value for t in Technique],
        help="only improved_smt builds the shared-switch network")
    standby_parser.add_argument(
        "--scenarios", default=None,
        help="comma-separated power-mode scenario names "
             "(default: every built-in scenario)")
    standby_parser.add_argument(
        "--corners", default=None,
        help="comma-separated PVT corner names (default: nominal + "
             "worst leakage + worst timing)")
    standby_parser.add_argument(
        "--rush-budget", type=float, default=None,
        help="aggregate wake-up rush-current budget in mA (default: "
             "half the simultaneous-enable rush)")
    standby_parser.add_argument(
        "--settle-fraction", type=float,
        help="VGND settle threshold as a fraction of Vdd")
    standby_parser.add_argument(
        "--scenario-file", action="append", metavar="PATH",
        help="JSON file with one user-defined power-mode scenario "
             "(schema-stamped standby_scenario payload or plain "
             "constructor kwargs); repeatable")
    standby_parser.add_argument(
        "--json", metavar="PATH",
        help="also write the standby result as JSON")
    _add_config_options(standby_parser)
    standby_parser.set_defaults(func=cmd_standby)

    policy_parser = sub.add_parser(
        "policy", help="sleep-policy sweep: thousands of candidate "
                       "threshold/power-domain policies batched "
                       "through the scenario engine, reduced to the "
                       "Pareto front of (net savings, wake latency, "
                       "peak rush)")
    policy_parser.add_argument("--circuit", required=True,
                               help="circuit name (see `list`)")
    policy_parser.add_argument(
        "--technique", default="improved_smt",
        choices=[t.value for t in Technique],
        help="only improved_smt builds the shared-switch network")
    policy_parser.add_argument(
        "--scenarios", default=None,
        help="comma-separated built-in power-mode scenario names "
             "(default: every built-in scenario unless trace files "
             "are given)")
    policy_parser.add_argument(
        "--trace-file", action="append", metavar="PATH",
        help="idle-interval trace (one interval in ns per line, or "
             "the compact JSON format) reduced to an empirical "
             "workload scenario; repeatable")
    policy_parser.add_argument(
        "--active-ns", type=float, default=None,
        help="active burst length between idle intervals for trace "
             "workloads (default: the trace's own value)")
    policy_parser.add_argument(
        "--quantile-points", type=int, default=16,
        help="quantile-grid points a trace is reduced to")
    policy_parser.add_argument(
        "--corners", default=None,
        help="comma-separated PVT corner names (default: nominal + "
             "worst leakage + worst timing)")
    policy_parser.add_argument(
        "--candidates", type=int,
        help="minimum number of candidate policies swept")
    policy_parser.add_argument(
        "--max-domains", type=int,
        help="largest hierarchical power-domain count per plan "
             "(the per-cluster plan is always swept too)")
    policy_parser.add_argument(
        "--rush-budget", type=float, default=None,
        help="aggregate wake-up rush-current budget in mA (default: "
             "half the simultaneous-enable rush)")
    policy_parser.add_argument(
        "--settle-fraction", type=float,
        help="VGND settle threshold as a fraction of Vdd")
    policy_parser.add_argument(
        "--json", metavar="PATH",
        help="also write the Pareto front as JSON")
    _add_config_options(policy_parser)
    policy_parser.set_defaults(func=cmd_policy)

    library_parser = sub.add_parser(
        "library", help="emit the synthesized multi-Vth library")
    library_parser.add_argument("--out", help="output .lib path")
    library_parser.set_defaults(func=cmd_library)

    serve_parser = sub.add_parser(
        "serve", help="persistent job-service mode: submit / status / "
                      "result / cancel over HTTP+JSON, one warm "
                      "Workspace behind every request")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address")
    serve_parser.add_argument("--port", type=int, default=8731,
                              help="TCP port (0 = ephemeral)")
    serve_parser.add_argument(
        "--jobs", type=int, default=1,
        help="process-pool width for grid fan-out inside jobs")
    serve_parser.add_argument(
        "--workers", type=int, default=1,
        help="worker threads draining the job queue")
    serve_parser.add_argument(
        "--retain", type=int, default=None,
        help="finished job records kept before the oldest are "
             "evicted (default 1000)")
    serve_parser.add_argument(
        "--shards", type=int, default=0,
        help="worker *processes* sharded by design fingerprint "
             "(0 = in-process worker threads); same-design jobs stay "
             "cache-local, different designs run truly in parallel")
    serve_parser.add_argument(
        "--queue-limit", type=int, default=None,
        help="max queued jobs before submissions are rejected with "
             "HTTP 429 + Retry-After (default: unbounded)")
    serve_parser.add_argument(
        "--result-store", metavar="DIR",
        default=default_directory(),
        help="persist finished result payloads here so warm hits "
             "survive restarts (default: $REPRO_RESULT_STORE; unset, "
             "0, off, none or disabled mean no store)")
    serve_parser.add_argument("--verbose", action="store_true",
                              help="log every HTTP request")
    _add_obs_options(serve_parser)
    serve_parser.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        configure_logging(getattr(args, "log_level", None))
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    trace_path = getattr(args, "trace", None)
    if trace_path:
        enable_tracing()
    try:
        return args.func(args)
    except ReproError as error:
        print(error, file=sys.stderr)
        return 2
    finally:
        if trace_path:
            out = write_chrome_trace(trace_path, take_records())
            print(f"wrote Chrome trace to {out}")


if __name__ == "__main__":
    raise SystemExit(main())
