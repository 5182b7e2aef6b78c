"""Design-database export.

After a flow completes, a downstream team needs the full hand-off
package, not a Python object: gate-level Verilog, DEF placement, SPEF
parasitics, SDC constraints, the `.lib` the design was mapped against,
and human-readable reports.  :func:`export_design` writes all of them
plus a manifest, and :func:`verify_export` re-parses every machine-
readable artifact to prove the package is self-consistent.
"""

from __future__ import annotations

import dataclasses
import json
import os

from repro.core.flow import FlowResult
from repro.liberty.library import Library
from repro.liberty.parser import parse_liberty
from repro.liberty.library import library_from_ast
from repro.liberty.writer import write_liberty
from repro.netlist.verilog_io import parse_verilog, write_verilog
from repro.placement.defio import placement_from_def, write_def
from repro.power.report import render_leakage_table
from repro.routing.spef import parse_spef, write_spef
from repro.timing.sdc import parse_sdc, write_sdc


@dataclasses.dataclass
class ExportManifest:
    """What was written where."""

    directory: str
    design: str
    technique: str
    files: dict[str, str]

    def path(self, kind: str) -> str:
        return self.files[kind]


def export_design(result: FlowResult, library: Library,
                  directory: str) -> ExportManifest:
    """Write the complete hand-off package for a finished flow."""
    os.makedirs(directory, exist_ok=True)
    design = result.netlist.name
    files: dict[str, str] = {}

    def emit(kind: str, filename: str, text: str):
        path = os.path.join(directory, filename)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        files[kind] = path

    emit("verilog", f"{design}.v", write_verilog(result.netlist))
    emit("def", f"{design}.def", write_def(result.netlist,
                                           result.placement))
    emit("spef", f"{design}.spef",
         write_spef(result.parasitics, design_name=design))
    emit("sdc", f"{design}.sdc", write_sdc(result.constraints))
    emit("liberty", f"{library.name}.lib", write_liberty(library))

    report_lines = [
        f"Design   : {design}",
        f"Technique: {result.technique.value}",
        "",
        result.render_stages(),
        "",
        render_leakage_table(result.leakage),
        "",
        f"Total cell area: {result.total_area:.2f} um^2",
        f"Final timing   : {result.timing.summary()}",
    ]
    if result.network is not None:
        summary = result.network.summary()
        report_lines.append(
            f"VGND network   : {summary['clusters']:.0f} clusters, worst "
            f"bounce {summary['worst_bounce_v'] * 1e3:.1f} mV")
    emit("report", f"{design}_report.txt", "\n".join(report_lines) + "\n")

    manifest = ExportManifest(
        directory=directory, design=design,
        technique=result.technique.value, files=files)
    with open(os.path.join(directory, "manifest.json"), "w",
              encoding="utf-8") as handle:
        from repro.api import schemas  # lazy: the api imports core

        json.dump(schemas.to_dict(manifest), handle, indent=2)
    return manifest


def verify_export(manifest: ExportManifest, library: Library) -> list[str]:
    """Re-parse every machine-readable artifact; returns problems."""
    problems: list[str] = []
    try:
        netlist = parse_verilog(
            open(manifest.path("verilog"), encoding="utf-8").read(),
            library=library)
        if not netlist.instances:
            problems.append("verilog: no instances")
    except Exception as exc:  # pragma: no cover - diagnostic path
        problems.append(f"verilog: {exc}")
        netlist = None

    try:
        if netlist is not None:
            placement_from_def(
                open(manifest.path("def"), encoding="utf-8").read(),
                netlist, library.tech)
    except Exception as exc:
        problems.append(f"def: {exc}")

    try:
        parasitics = parse_spef(
            open(manifest.path("spef"), encoding="utf-8").read())
        if not parasitics:
            problems.append("spef: empty")
    except Exception as exc:  # pragma: no cover
        problems.append(f"spef: {exc}")

    try:
        parse_sdc(open(manifest.path("sdc"), encoding="utf-8").read())
    except Exception as exc:  # pragma: no cover
        problems.append(f"sdc: {exc}")

    try:
        text = open(manifest.path("liberty"), encoding="utf-8").read()
        copy = library_from_ast(parse_liberty(text), tech=library.tech)
        if set(copy.cells) != set(library.cells):
            problems.append("liberty: cell set mismatch")
    except Exception as exc:  # pragma: no cover
        problems.append(f"liberty: {exc}")
    return problems
