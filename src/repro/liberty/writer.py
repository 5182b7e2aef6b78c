"""Serialize a :class:`~repro.liberty.library.Library` to ``.lib`` text.

The output is standard Liberty (groups, simple/complex attributes, NLDM
``values`` tables) plus ``repro_*`` vendor attributes carrying the
Selective-MT classification, so a write/parse round trip reconstructs an
identical typed library.
"""

from __future__ import annotations

import io

from repro.liberty.library import (
    CellDef,
    CellKind,
    Library,
    Lut,
    PinDef,
    PinDirection,
    TimingArc,
)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


class _Emitter:
    def __init__(self):
        self.out = io.StringIO()
        self.depth = 0

    def line(self, text: str = ""):
        self.out.write("  " * self.depth + text + "\n")

    def open_group(self, keyword: str, *args: str):
        arg_text = ", ".join(args)
        self.line(f"{keyword} ({arg_text}) {{")
        self.depth += 1

    def close_group(self):
        self.depth -= 1
        self.line("}")

    def attr(self, name: str, value, quote: bool = False):
        rendered = _format_value(value)
        if quote or (isinstance(value, str)
                     and any(c in value for c in " ()*+!^'|&")):
            rendered = f'"{rendered}"'
        self.line(f"{name} : {rendered};")

    def complex_attr(self, name: str, values):
        rendered = ", ".join(f'"{v}"' if isinstance(v, str)
                             else _format_value(v) for v in values)
        self.line(f"{name} ({rendered});")

    def text(self) -> str:
        return self.out.getvalue()


def _write_lut(emitter: _Emitter, keyword: str, lut: Lut):
    emitter.open_group(keyword, "lut_template")
    emitter.complex_attr("index_1", [" ".join(f"{v:.6g}" for v in lut.index_1)])
    emitter.complex_attr("index_2", [" ".join(f"{v:.6g}" for v in lut.index_2)])
    rows = [", ".join(f"{v:.6g}" for v in row) for row in lut.values]
    emitter.complex_attr("values", rows)
    emitter.close_group()


def _write_arc(emitter: _Emitter, arc: TimingArc):
    emitter.open_group("timing")
    emitter.attr("related_pin", arc.related_pin, quote=True)
    emitter.attr("timing_sense", arc.timing_sense)
    emitter.attr("timing_type", arc.timing_type)
    for table_name in ("cell_rise", "cell_fall", "rise_transition",
                       "fall_transition", "rise_constraint",
                       "fall_constraint"):
        lut = getattr(arc, table_name)
        if lut is not None:
            _write_lut(emitter, table_name, lut)
    emitter.close_group()


def _write_pin(emitter: _Emitter, pin: PinDef):
    emitter.open_group("pin", pin.name)
    emitter.attr("direction", pin.direction.value)
    emitter.attr("capacitance", pin.capacitance)
    if pin.is_clock:
        emitter.attr("clock", True)
    if pin.max_capacitance is not None:
        emitter.attr("max_capacitance", pin.max_capacitance)
    if pin.function is not None:
        emitter.attr("function", pin.function, quote=True)
    for arc in pin.timing_arcs:
        _write_arc(emitter, arc)
    emitter.close_group()


def _write_cell(emitter: _Emitter, cell: CellDef):
    emitter.open_group("cell", cell.name)
    emitter.attr("area", cell.area)
    emitter.attr("cell_leakage_power", cell.default_leakage_nw)
    if cell.footprint:
        emitter.attr("cell_footprint", cell.footprint, quote=True)
    # Reproduction-specific classification (round-trips the typed model).
    emitter.attr("repro_base", cell.base_name)
    emitter.attr("repro_variant", cell.variant)
    emitter.attr("repro_vth", cell.vth_class.value)
    emitter.attr("repro_kind", cell.kind.value)
    if cell.has_vgnd_port:
        emitter.attr("repro_has_vgnd", True)
    if cell.switch_width_um:
        emitter.attr("repro_switch_width", cell.switch_width_um)
    if cell.switching_current_ma:
        emitter.attr("repro_switching_current", cell.switching_current_ma)
    for state in cell.leakage_states:
        emitter.open_group("leakage_power")
        if state.when is not None:
            emitter.attr("when", state.when, quote=True)
        emitter.attr("value", state.value_nw)
        emitter.close_group()
    if cell.kind == CellKind.SEQUENTIAL and cell.ff_next_state:
        emitter.open_group("ff", "IQ", "IQN")
        emitter.attr("next_state", cell.ff_next_state, quote=True)
        emitter.attr("clocked_on", cell.ff_clocked_on or "CK", quote=True)
        emitter.close_group()
    for pin in cell.pins.values():
        _write_pin(emitter, pin)
    emitter.close_group()


def write_liberty(library: Library) -> str:
    """Render the library to Liberty source text."""
    emitter = _Emitter()
    emitter.open_group("library", library.name)
    emitter.attr("delay_model", "table_lookup")
    emitter.attr("time_unit", "1ns", quote=True)
    emitter.attr("voltage_unit", "1V", quote=True)
    emitter.attr("current_unit", "1mA", quote=True)
    emitter.attr("leakage_power_unit", "1nW", quote=True)
    emitter.attr("capacitive_load_unit_value", 1)
    emitter.attr("capacitive_load_unit_name", "pf")
    if library.mt_assumed_bounce_v is not None:
        emitter.attr("repro_mt_assumed_bounce_v",
                     library.mt_assumed_bounce_v)
    for cell in sorted(library.cells.values(), key=lambda c: c.name):
        _write_cell(emitter, cell)
    emitter.close_group()
    return emitter.text()
