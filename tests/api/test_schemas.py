"""The serialization registry: round-trips, versioning, dispatch."""

import dataclasses
import json

import pytest

import repro.api  # noqa: F401 — loads every registration
from repro.api import schemas
from repro.api.requests import (
    AnalyzeRequest,
    MonteCarloRequest,
    OptimizeRequest,
    SignoffRequest,
    SweepRequest,
)
from repro.config import FlowConfig, Technique
from repro.errors import SchemaError


def test_every_request_round_trips():
    requests = [
        AnalyzeRequest(variant="hvt"),
        OptimizeRequest(technique=Technique.DUAL_VTH),
        SignoffRequest(technique=Technique.IMPROVED_SMT,
                       corners=("tt_nom", "ss_1.08v_125c")),
        MonteCarloRequest(samples=16, seed=3, corner="tt_nom",
                          leakage_budget_nw=12.5),
        SweepRequest(techniques=(Technique.DUAL_VTH,
                                 Technique.IMPROVED_SMT)),
    ]
    for request in requests:
        payload = schemas.check_round_trip(request)
        assert payload[schemas.SCHEMA_KEY].endswith("_request")
        assert payload[schemas.VERSION_KEY] == 1
        # Payloads survive an actual JSON hop, not just a dict copy.
        rebuilt = schemas.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt == request


def test_flow_config_round_trips_through_json():
    config = FlowConfig(timing_margin=0.123456789, placement_seed=7)
    payload = schemas.check_round_trip(config)
    rebuilt = schemas.from_dict(json.loads(json.dumps(payload)))
    assert rebuilt == config


def test_from_dict_rejects_unknown_schema():
    with pytest.raises(SchemaError, match="unknown schema"):
        schemas.from_dict({"schema": "nope", "schema_version": 1})


def test_from_dict_rejects_missing_schema_key():
    with pytest.raises(SchemaError, match="no 'schema' field"):
        schemas.from_dict({"x": 1})


def test_from_dict_rejects_non_dict():
    with pytest.raises(SchemaError, match="must be a dict"):
        schemas.from_dict([1, 2, 3])


def test_from_dict_rejects_newer_version():
    payload = schemas.to_dict(AnalyzeRequest())
    payload[schemas.VERSION_KEY] = 999
    with pytest.raises(SchemaError, match="newer"):
        schemas.from_dict(payload)


def test_from_dict_rejects_missing_required_field():
    from repro.core.compare import ComparisonRow

    payload = schemas.to_dict(ComparisonRow(
        circuit="c17", technique=Technique.DUAL_VTH, area_um2=1.0,
        leakage_nw=1.0, area_pct=100.0, leakage_pct=100.0,
        mt_cells=0, switches=0, holders=0))
    del payload["circuit"]
    with pytest.raises(SchemaError, match="missing field 'circuit'"):
        schemas.from_dict(payload)


def test_missing_optional_field_falls_back_to_default():
    """Additive optional fields must not invalidate older payloads."""
    payload = schemas.to_dict(MonteCarloRequest(samples=8))
    del payload["leakage_budget_nw"]
    del payload["technique"]
    rebuilt = schemas.from_dict(payload)
    assert rebuilt.samples == 8
    assert rebuilt.leakage_budget_nw is None
    assert rebuilt.technique == Technique.IMPROVED_SMT


def test_removed_field_in_older_payload_is_ignored():
    """A flow_config written while FlowConfig still had
    ``incremental_sta``, the in-flow signoff fields or the component
    knobs decodes to the same configuration, and so do version-1 and
    version-2 payloads carrying all of them."""
    removed = {"incremental_sta": False,
               "signoff_corners": ["tt_nom", "ff_1.32v_125c"],
               "standby_scenarios": ["mostly_idle"],
               "standby_rush_budget_ma": 5.0,
               "standby_settle_fraction": 0.08,
               "policy_candidates": 24,
               "policy_max_domains": 2,
               "assignment_rounds": 4,
               "mte_fanout_limit": 16,
               "mte_buffer_cell": "BUF_X8_HVT",
               "cts_fanout_limit": 8,
               "cts_buffer_cell": "BUF_X4_HVT",
               "hold_fix_buffer_cell": "BUF_X1_HVT",
               "max_hold_fix_passes": 3}
    expected = FlowConfig(timing_margin=0.12)
    payload = schemas.to_dict(expected)
    assert payload[schemas.VERSION_KEY] == 3
    for key, value in removed.items():
        assert schemas.from_dict({**payload, key: value}) == expected
    for version in (1, 2):
        older = {**payload, **removed, schemas.VERSION_KEY: version}
        assert schemas.from_dict(older) == expected


def test_unregistered_type_is_an_error():
    class Stray:
        pass

    with pytest.raises(SchemaError, match="no registered schema"):
        schemas.to_dict(Stray())


def test_duplicate_registration_is_an_error():
    with pytest.raises(SchemaError, match="registered twice"):
        schemas.register("analyze_request", 1, object,
                         lambda o: {}, lambda p: object())


def test_check_round_trip_catches_lossy_codecs():
    @dataclasses.dataclass(frozen=True)
    class Lossy:
        value: int

    schemas.register("test_lossy", 1, Lossy,
                     lambda obj: {"value": 0},  # drops the value
                     lambda payload: Lossy(value=payload["value"]))
    try:
        assert schemas.check_round_trip(Lossy(value=0))  # faithful here
        with pytest.raises(SchemaError, match="does not round-trip"):
            schemas.check_round_trip(Lossy(value=7))
    finally:
        schemas._BY_NAME.pop("test_lossy")
        schemas._BY_TYPE.pop(Lossy)


def test_non_finite_floats_stay_strict_json():
    from repro.api.results import SignoffCornerRow

    row = SignoffCornerRow(corner="tt_nom", leakage_nw=1.0,
                           wns=0.25, hold_wns=float("inf"))
    payload = schemas.check_round_trip(row)
    assert payload["hold_wns"] == "inf"
    # Strict JSON: no Infinity literal anywhere in the document.
    text = json.dumps(payload, allow_nan=False)
    rebuilt = schemas.from_dict(json.loads(text))
    assert rebuilt.hold_wns == float("inf")
    assert rebuilt == row


def test_nan_fields_pass_the_round_trip_gate():
    from repro.api.results import SignoffCornerRow

    row = SignoffCornerRow(corner="tt_nom", leakage_nw=1.0,
                           wns=float("nan"), hold_wns=0.0)
    payload = schemas.check_round_trip(row)  # NaN == NaN structurally
    assert payload["wns"] == "nan"
    import math

    assert math.isnan(schemas.from_dict(payload).wns)


def test_legacy_corner_result_payload_shape(library):
    """CornerResult keeps its historical flattened keys + the stamp."""
    from repro.timing.constraints import Constraints
    from repro.variation.corners import resolve_corner
    from repro.variation.signoff import evaluate_corner

    from repro.benchcircuits.suite import load_circuit
    from repro.netlist.techmap import technology_map

    netlist = load_circuit("c17")
    technology_map(netlist, library)
    corner = resolve_corner("ff_1.32v_125c", library.tech)
    result = evaluate_corner(netlist, library, corner,
                             Constraints(clock_period=5.0))
    payload = schemas.to_dict(result)
    assert payload["corner"] == "ff_1.32v_125c"
    assert payload["process"] == "ff"
    assert payload[schemas.SCHEMA_KEY] == "corner_result"
    assert payload[schemas.VERSION_KEY] == 1
    assert schemas.from_dict(json.loads(json.dumps(payload))) == result


def test_leakage_breakdown_round_trips(library, c17):
    from repro.power.leakage import LeakageAnalyzer

    breakdown = LeakageAnalyzer(c17, library).standby_leakage()
    payload = schemas.check_round_trip(breakdown)
    assert payload[schemas.SCHEMA_KEY] == "leakage_breakdown"
    assert set(payload["shares_pct"]) == set(breakdown.CATEGORIES)
    assert len(payload["per_instance"]) == breakdown.instance_count


def test_export_manifest_round_trips(tmp_path):
    from repro.core.artifacts import ExportManifest

    manifest = ExportManifest(directory=str(tmp_path), design="d",
                              technique="improved_smt",
                              files={"verilog": "d.v"})
    payload = schemas.check_round_trip(manifest)
    assert payload[schemas.SCHEMA_KEY] == "export_manifest"
