"""Schema registrations for the study and flow-artifact result types.

:class:`~repro.experiments.CornerSignoffResult`,
:class:`~repro.experiments.MonteCarloStudy`,
:class:`~repro.variation.signoff.CornerResult`,
:class:`~repro.power.leakage.LeakageBreakdown` and
:class:`~repro.core.artifacts.ExportManifest` keep the payload keys
their consumers parse, plus the ``schema``/``schema_version`` stamp
and a faithful decoder, so all of them satisfy the
``from_dict(to_dict(x)) == x`` contract.

Import order note: this module imports those modules, never the
reverse — code below :mod:`repro.api` that serializes one of them
imports :mod:`repro.api.schemas` lazily, at call time.
"""

from __future__ import annotations

from repro.api import schemas
from repro.api import results as _results  # noqa: F401  (registers
#                                           mc_statistics, nested below)
from repro.config import FlowConfig, Technique
from repro.core.artifacts import ExportManifest
from repro.experiments import (
    CornerSignoffResult,
    McTechniqueResult,
    MonteCarloStudy,
)
from repro.power.leakage import LeakageBreakdown
from repro.variation.corners import PvtCorner
from repro.variation.jobs import CornerOutcome, CornerRow
from repro.variation.montecarlo import McSample
from repro.variation.signoff import CornerResult

schemas.dataclass_schema("flow_config", 1, FlowConfig,
                         signoff_corners=schemas.TUPLE,
                         standby_scenarios=schemas.TUPLE)

schemas.dataclass_schema("export_manifest", 1, ExportManifest)

schemas.dataclass_schema("mc_sample", 1, McSample,
                         wns=schemas.opt(schemas.FLOAT))

_ENC_F, _DEC_F = schemas.FLOAT


def _encode_leakage(breakdown: LeakageBreakdown) -> dict:
    # The historical self-describing shape (totals + per-category
    # shares) plus ``per_instance`` so the payload decodes faithfully.
    return {
        "total_nw": breakdown.total_nw,
        **breakdown.category_values(),
        "instance_count": breakdown.instance_count,
        "shares_pct": breakdown.shares_pct(),
        "per_instance": dict(breakdown.per_instance),
    }


def _decode_leakage(payload: dict) -> LeakageBreakdown:
    return LeakageBreakdown(
        total_nw=payload["total_nw"],
        instance_count=payload["instance_count"],
        per_instance=dict(payload.get("per_instance", {})),
        **{category: payload[category]
           for category in LeakageBreakdown.CATEGORIES})


schemas.register("leakage_breakdown", 1, LeakageBreakdown,
                 _encode_leakage, _decode_leakage)


def _encode_corner_result(result: CornerResult) -> dict:
    corner = result.corner
    return {
        # Flattened corner identity (historical shape) ...
        "corner": corner.name,
        "process": corner.process,
        "vdd": corner.vdd,
        "temperature_c": corner.temperature_c,
        # ... plus the exact stored Kelvin so decoding is bit-faithful.
        "temperature_k": corner.temperature_k,
        "leakage_nw": result.leakage_nw,
        "wns": _ENC_F(result.wns),
        "hold_wns": _ENC_F(result.hold_wns),
        "delay_scale_low": result.delay_scale_low,
        "delay_scale_high": result.delay_scale_high,
        "leakage_scale_low": result.leakage_scale_low,
        "leakage_scale_high": result.leakage_scale_high,
        "leakage": (schemas.to_dict(result.leakage)
                    if result.leakage is not None else None),
    }


def _decode_corner_result(payload: dict) -> CornerResult:
    corner = PvtCorner(name=payload["corner"], process=payload["process"],
                       vdd=payload["vdd"],
                       temperature_k=payload["temperature_k"])
    leakage = payload.get("leakage")
    return CornerResult(
        corner=corner,
        leakage_nw=payload["leakage_nw"],
        wns=_DEC_F(payload["wns"]),
        hold_wns=_DEC_F(payload["hold_wns"]),
        delay_scale_low=payload["delay_scale_low"],
        delay_scale_high=payload["delay_scale_high"],
        leakage_scale_low=payload["leakage_scale_low"],
        leakage_scale_high=payload["leakage_scale_high"],
        leakage=schemas.from_dict(leakage) if leakage is not None else None)


schemas.register("corner_result", 1, CornerResult,
                 _encode_corner_result, _decode_corner_result)


def _encode_corner_signoff(result: CornerSignoffResult) -> dict:
    return {
        "corners": list(result.corners),
        "results": [
            {
                "circuit": circuit,
                "technique": technique.value,
                "area_um2": outcome.area_um2,
                "nominal_leakage_nw": outcome.nominal_leakage_nw,
                "nominal_wns": _ENC_F(outcome.nominal_wns),
                "corners": [
                    {"corner": row.corner, "leakage_nw": row.leakage_nw,
                     "wns": _ENC_F(row.wns),
                     "hold_wns": _ENC_F(row.hold_wns)}
                    for row in outcome.rows
                ],
                "error": outcome.error,
            }
            for (circuit, technique), outcome in result.outcomes.items()
        ],
    }


def _decode_corner_signoff(payload: dict) -> CornerSignoffResult:
    outcomes = {}
    for entry in payload["results"]:
        technique = Technique(entry["technique"])
        outcomes[(entry["circuit"], technique)] = CornerOutcome(
            circuit=entry["circuit"],
            technique=technique,
            area_um2=entry["area_um2"],
            nominal_leakage_nw=entry["nominal_leakage_nw"],
            nominal_wns=_DEC_F(entry["nominal_wns"]),
            rows=[CornerRow(corner=row["corner"],
                            leakage_nw=row["leakage_nw"],
                            wns=_DEC_F(row["wns"]),
                            hold_wns=_DEC_F(row["hold_wns"]))
                  for row in entry["corners"]],
            error=entry["error"])
    return CornerSignoffResult(corners=tuple(payload["corners"]),
                               outcomes=outcomes)


schemas.register("corner_signoff_report", 1, CornerSignoffResult,
                 _encode_corner_signoff, _decode_corner_signoff)


def _encode_mc_study(study: MonteCarloStudy) -> dict:
    return {
        "circuit": study.circuit,
        "samples": study.samples,
        "seed": study.seed,
        "corner": study.corner,
        "results": {
            technique.value: {
                "nominal_leakage_nw": res.nominal_leakage_nw,
                "nominal_wns": (None if res.nominal_wns is None
                                else _ENC_F(res.nominal_wns)),
                "area_um2": res.area_um2,
                "statistics": schemas.to_dict(res.statistics),
                # Per-die samples stay in-process (McTechniqueResult
                # excludes them from equality): a 10k-sample study
                # would bloat the report for data the statistics
                # already summarize.
            }
            for technique, res in study.results.items()
        },
    }


def _decode_mc_study(payload: dict) -> MonteCarloStudy:
    results = {}
    for name, entry in payload["results"].items():
        nominal_wns = entry["nominal_wns"]
        results[Technique(name)] = McTechniqueResult(
            nominal_leakage_nw=entry["nominal_leakage_nw"],
            nominal_wns=(None if nominal_wns is None
                         else _DEC_F(nominal_wns)),
            area_um2=entry["area_um2"],
            statistics=schemas.from_dict(entry["statistics"]),
            samples=[schemas.from_dict(s)
                     for s in entry.get("sample_values", [])])
        # (sample_values is accepted for forward compatibility but no
        # longer emitted.)
    return MonteCarloStudy(circuit=payload["circuit"],
                           samples=payload["samples"],
                           seed=payload["seed"],
                           corner=payload["corner"],
                           results=results)


schemas.register("montecarlo_study", 1, MonteCarloStudy,
                 _encode_mc_study, _decode_mc_study)
