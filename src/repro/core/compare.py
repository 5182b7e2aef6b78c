"""Three-technique comparison rows (the Table 1 format).

:func:`repro.api.studies.technique_comparison` runs Dual-Vth,
conventional Selective-MT and improved Selective-MT on the same
circuit with identical constraints and reports area/leakage
normalized to the Dual-Vth baseline in these types — the exact format
of Table 1.
"""

from __future__ import annotations

import dataclasses

from repro.config import Technique
from repro.core.flow import FlowResult
from repro.liberty.library import Library
from repro.netlist.core import Netlist


@dataclasses.dataclass
class ComparisonRow:
    """Normalized area/leakage of one technique on one circuit."""

    circuit: str
    technique: Technique
    area_um2: float
    leakage_nw: float
    area_pct: float
    leakage_pct: float
    mt_cells: int = 0
    switches: int = 0
    holders: int = 0


@dataclasses.dataclass
class TechniqueComparison:
    """All three techniques on one circuit."""

    circuit: str
    rows: list[ComparisonRow]
    results: dict[Technique, FlowResult]

    def row(self, technique: Technique) -> ComparisonRow:
        for row in self.rows:
            if row.technique == technique:
                return row
        raise KeyError(f"no row for {technique}")

    def render(self) -> str:
        lines = [
            f"Circuit {self.circuit}",
            f"{'Technique':<18} {'Area':>10} {'Leakage':>10} "
            f"{'MT':>6} {'SW':>5} {'HOLD':>5}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.technique.value:<18} {row.area_pct:9.2f}% "
                f"{row.leakage_pct:9.2f}% {row.mt_cells:6d} "
                f"{row.switches:5d} {row.holders:5d}")
        return "\n".join(lines)


def count_cell_kinds(netlist: Netlist,
                     library: Library) -> tuple[int, int, int]:
    """(MT cells, switches, holders) in a netlist — the Table 1 columns."""
    mt = switches = holders = 0
    for inst in netlist.instances.values():
        if inst.cell_name not in library:
            continue
        cell = library.cell(inst.cell_name)
        if cell.is_mt:
            mt += 1
        elif cell.is_switch:
            switches += 1
        elif cell.is_holder:
            holders += 1
    return mt, switches, holders
