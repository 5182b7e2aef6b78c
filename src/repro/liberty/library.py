"""Typed in-memory Liberty library model.

This is the object model the rest of the system works with: the AST from
:mod:`repro.liberty.parser` is only a serialization layer.  Key classes:

* :class:`Lut` — an NLDM lookup table with bilinear interpolation and
  linear extrapolation (input slew x output load).
* :class:`TimingArc` — one input-to-output delay arc of a cell, and
  :class:`DelayArc`, the form both STA engines read
  (:meth:`Library.delay_arcs`, compiled once per library).
* :class:`LeakageState` — a ``leakage_power`` entry, optionally guarded
  by a ``when`` condition for state-dependent leakage.
* :class:`PinDef`, :class:`CellDef`, :class:`Library`.

Cells carry reproduction-specific classification used by the
Selective-MT flow (``variant``, ``base_name``, ``vth_class``, MT flags,
switch width); these, and the library's characterized VGND bounce
(``mt_assumed_bounce_v``), round-trip through ``.lib`` files via
``repro_*`` vendor attributes.
"""

from __future__ import annotations

import dataclasses
import enum
from bisect import bisect_left
from typing import Iterable, Mapping, NamedTuple, Sequence

from repro.errors import LibertyError
from repro.liberty.function import BooleanFunction, LogicValue, X


class PinDirection(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"
    INOUT = "inout"
    INTERNAL = "internal"


class VthClass(enum.Enum):
    LOW = "low"
    HIGH = "high"


class CellKind(enum.Enum):
    LOGIC = "logic"
    SEQUENTIAL = "sequential"
    BUFFER = "buffer"
    SWITCH = "switch"
    HOLDER = "holder"


#: Variant tags used throughout the Selective-MT flow.
VARIANT_LVT = "LVT"    # low-Vth cell
VARIANT_HVT = "HVT"    # high-Vth cell
VARIANT_MT = "MT"      # MT-cell without VGND port (Fig.4 intermediate)
VARIANT_MTV = "MTV"    # MT-cell with VGND port (Fig.1(b))
VARIANT_CMT = "CMT"    # conventional MT-cell, embedded switch (Fig.1(a))

ALL_VARIANTS = (VARIANT_LVT, VARIANT_HVT, VARIANT_MT, VARIANT_MTV, VARIANT_CMT)


class Lut:
    """A 2-D NLDM lookup table.

    ``index_1`` is input transition time (ns), ``index_2`` output load
    capacitance (pF).  Either axis may be singleton.  Lookup performs
    bilinear interpolation, extending the boundary gradients linearly
    outside the characterized window (matching commercial STA behavior).

    Lookups read the table's *located form* (:meth:`located`), built on
    first use: each axis with its segment spans precomputed, and per
    segment ``(i, j)`` the row ``(v[i][j], v[i][j+1] - v[i][j],
    v[i+1][j], v[i+1][j+1] - v[i+1][j])`` — the subtractions the
    bilinear step would otherwise repeat on every lookup.
    """

    __slots__ = ("index_1", "index_2", "values", "_located")

    def __init__(self, index_1: Sequence[float], index_2: Sequence[float],
                 values: Sequence[Sequence[float]]):
        if not index_1 or not index_2:
            raise LibertyError("LUT axes must be non-empty")
        if len(values) != len(index_1):
            raise LibertyError(
                f"LUT has {len(values)} rows but index_1 has "
                f"{len(index_1)} entries")
        for row in values:
            if len(row) != len(index_2):
                raise LibertyError(
                    f"LUT row width {len(row)} does not match index_2 "
                    f"length {len(index_2)}")
        if list(index_1) != sorted(index_1) or list(index_2) != sorted(index_2):
            raise LibertyError("LUT axes must be ascending")
        self.index_1 = tuple(float(v) for v in index_1)
        self.index_2 = tuple(float(v) for v in index_2)
        self.values = tuple(tuple(float(v) for v in row) for row in values)
        self._located: LocatedLut | None = None

    @classmethod
    def constant(cls, value: float) -> "Lut":
        """A degenerate 1x1 table returning ``value`` everywhere."""
        return cls((0.0,), (0.0,), ((value,),))

    def located(self, axes: dict | None = None) -> "LocatedLut":
        """``(axis_1, axis_2, rows)``: the table in located form.

        Each axis is ``(points, spans, last)`` with ``spans[i] =
        points[i + 1] - points[i]``; ``rows[i][j]`` is segment ``(i,
        j)``'s row (see the class docstring), or ``rows`` is None when
        an axis is singleton.  Built once; ``axes`` interns the axes
        (equal points, one axis object) across the tables that share
        them.
        """
        form = self._located
        if form is None:
            values = self.values
            rows = None
            if len(self.index_1) > 1 and len(self.index_2) > 1:
                rows = tuple(
                    tuple((top[j], top[j + 1] - top[j],
                           below[j], below[j + 1] - below[j])
                          for j in range(len(top) - 1))
                    for top, below in zip(values, values[1:]))
            form = self._located = (_located_axis(self.index_1, axes),
                                    _located_axis(self.index_2, axes),
                                    rows)
        return form

    def lookup(self, slew: float, load: float) -> float:
        """Interpolated table value at (slew, load)."""
        axis_1, axis_2, rows = self._located or self.located()
        i, fi = locate(axis_1, slew)
        j, fj = locate(axis_2, load)
        if rows is None:
            return _interpolate_singleton(self.values, i, fi, j, fj)
        return segment_value(rows[i][j], fi, fj)

    def lookup_pair(self, other: "Lut | None", slew: float,
                    load: float) -> tuple[float, float]:
        """``(self.lookup(slew, load), other.lookup(slew, load))``.

        Tables with the same axes (a delay table and its transition
        table, a rise and a fall delay) share one location; a missing
        ``other`` reads 0.0.
        """
        if other is None:
            return self.lookup(slew, load), 0.0
        if other.index_1 != self.index_1 or other.index_2 != self.index_2:
            return self.lookup(slew, load), other.lookup(slew, load)
        axis_1, axis_2, rows = self._located or self.located()
        i, fi = locate(axis_1, slew)
        j, fj = locate(axis_2, load)
        if rows is None:
            return (_interpolate_singleton(self.values, i, fi, j, fj),
                    _interpolate_singleton(other.values, i, fi, j, fj))
        other_rows = (other._located or other.located())[2]
        return (segment_value(rows[i][j], fi, fj),
                segment_value(other_rows[i][j], fi, fj))

    def scaled(self, factor: float) -> "Lut":
        """A copy with every value multiplied by ``factor``."""
        return Lut(self.index_1, self.index_2,
                   [[v * factor for v in row] for row in self.values])

    def max_value(self) -> float:
        return max(max(row) for row in self.values)

    def __repr__(self):
        return (f"Lut({len(self.index_1)}x{len(self.index_2)}, "
                f"max={self.max_value():.4g})")


#: An axis in located form: ``(points, spans, last)``.
LocatedAxis = tuple[tuple[float, ...], tuple[float, ...], int]
#: A table in located form: ``(axis_1, axis_2, rows)`` (:meth:`Lut.located`).
LocatedLut = tuple[LocatedAxis, LocatedAxis, tuple | None]


def _located_axis(points: tuple[float, ...],
                  axes: dict | None) -> LocatedAxis:
    axis = axes.get(points) if axes is not None else None
    if axis is None:
        axis = (points,
                tuple(points[i + 1] - points[i]
                      for i in range(len(points) - 1)),
                len(points) - 1)
        if axes is not None:
            axes[points] = axis
    return axis


def locate(axis: LocatedAxis, x: float) -> tuple[int, float]:
    """Segment index and interpolation fraction of ``x`` on ``axis``.

    The segment ``[points[i], points[i + 1]]`` is the first whose upper
    end is at least ``x``, clamped to the two end segments, so the
    fraction may fall outside [0, 1] to extrapolate linearly.  A
    singleton axis is segment 0 at fraction 0.0.
    """
    points, spans, last = axis
    if last == 0:
        return 0, 0.0
    i = bisect_left(points, x, 1, last) - 1
    span = spans[i]
    if span <= 0.0:
        return i, 0.0
    return i, (x - points[i]) / span


def segment_value(row: tuple[float, float, float, float], fi: float,
                  fj: float) -> float:
    """Bilinear interpolation inside one located segment row.

    The one home of the bilinear step; the STA session inlines these
    three lines in its arc fold.
    """
    top, dtop, bottom, dbottom = row
    top = top + fj * dtop
    return top + fi * (bottom + fj * dbottom - top)


def _interpolate_singleton(values: tuple[tuple[float, ...], ...], i: int,
                           fi: float, j: int, fj: float) -> float:
    """Linear interpolation along the non-singleton axis of a table
    with a singleton axis (at a located position)."""
    row = values[i]
    if len(values) == 1:
        if len(row) == 1:
            return row[0]
        return row[j] + fj * (row[j + 1] - row[j])
    return row[0] + fi * (values[i + 1][0] - row[0])


@dataclasses.dataclass
class TimingArc:
    """One timing arc from ``related_pin`` to the owning output pin."""

    related_pin: str
    timing_sense: str = "positive_unate"
    timing_type: str = "combinational"
    cell_rise: Lut | None = None
    cell_fall: Lut | None = None
    rise_transition: Lut | None = None
    fall_transition: Lut | None = None
    rise_constraint: Lut | None = None
    fall_constraint: Lut | None = None

    def is_constraint(self) -> bool:
        """True for setup/hold checks rather than delay arcs."""
        return self.timing_type.startswith(("setup", "hold", "recovery",
                                            "removal"))

    def delay(self, slew: float, load: float) -> tuple[float, float]:
        """(rise, fall) delay at the given input slew / output load."""
        return _lookup_both(self.cell_rise, self.cell_fall, slew, load)

    def output_slew(self, slew: float, load: float) -> tuple[float, float]:
        """(rise, fall) output transition time."""
        return _lookup_both(self.rise_transition, self.fall_transition,
                            slew, load)

    def constraint(self, slew: float, clock_slew: float = 0.0) -> float:
        """Worst setup/hold constraint value (max of rise/fall tables)."""
        worst = 0.0
        for lut in (self.rise_constraint, self.fall_constraint):
            if lut is not None:
                worst = max(worst, lut.lookup(slew, clock_slew))
        return worst


#: Timing-sense codes of a delay arc, as both STA engines read them.
SENSE_POSITIVE = 0
SENSE_NEGATIVE = 1
SENSE_NON_UNATE = 2

_SENSE_CODE = {
    "positive_unate": SENSE_POSITIVE,
    "negative_unate": SENSE_NEGATIVE,
}

#: Forward contributions of a delay arc by sense, in the order both
#: engines fold them, as (target edge, source edge) with 0 = rise and
#: 1 = fall: a positive arc maps rise to rise and fall to fall, a
#: negative one crosses them, a non-unate one drives both targets from
#: both edges.
_FORWARD_EDGES = {
    SENSE_POSITIVE: ((0, 0), (1, 1)),
    SENSE_NEGATIVE: ((0, 1), (1, 0)),
    SENSE_NON_UNATE: ((0, 0), (1, 0), (0, 1), (1, 1)),
}


class DelayArc(NamedTuple):
    """One delay arc, compiled for both STA engines."""

    arc: TimingArc
    sense: int
    #: ``(target edge, source edge, delay table, slew table, delay
    #: rows, slew rows)`` per forward contribution, in fold order; a
    #: target edge without a delay table contributes nothing and is
    #: left out.  The rows are the tables' located rows
    #: (:meth:`Lut.located`; slew rows None without a slew table), or
    #: both None when :attr:`axes` is None.
    forward: tuple[tuple[int, int, Lut, Lut | None,
                         tuple | None, tuple | None], ...]
    #: ``(axis_1, axis_2)``, the located axes every table of
    #: :attr:`forward` shares, so one location per input slew and one
    #: per output load serves them all; None when an axis is singleton
    #: or the tables' axes differ (each contribution then looks its
    #: pair up with :meth:`Lut.lookup_pair`).
    axes: tuple[LocatedAxis, LocatedAxis] | None

    @classmethod
    def compile(cls, arc: TimingArc, axes: dict | None = None) -> "DelayArc":
        sense = _SENSE_CODE.get(arc.timing_sense, SENSE_NON_UNATE)
        tables = ((arc.cell_rise, arc.rise_transition),
                  (arc.cell_fall, arc.fall_transition))
        pairs = [(target, edge) + tables[target]
                 for target, edge in _FORWARD_EDGES[sense]
                 if tables[target][0] is not None]
        forms = [lut.located(axes) for pair in pairs for lut in pair[2:]
                 if lut is not None]
        shared = None
        if forms and all(form[2] is not None and form[:2] == forms[0][:2]
                         for form in forms):
            shared = forms[0][:2]

        def rows(lut: Lut | None):
            return None if shared is None or lut is None else lut.located()[2]

        return cls(arc, sense, tuple(
            (target, edge, delay, slew, rows(delay), rows(slew))
            for target, edge, delay, slew in pairs), shared)


def _lookup_both(rise: Lut | None, fall: Lut | None, slew: float,
                 load: float) -> tuple[float, float]:
    """(rise, fall) table values; a missing table reads 0.0."""
    if rise is None:
        return 0.0, (fall.lookup(slew, load) if fall is not None else 0.0)
    return rise.lookup_pair(fall, slew, load)


@dataclasses.dataclass
class LeakageState:
    """A ``leakage_power`` group: value (nW) plus optional ``when`` guard."""

    value_nw: float
    when: str | None = None
    when_fn: BooleanFunction | None = None

    def __post_init__(self):
        if self.when is not None and self.when_fn is None:
            self.when_fn = BooleanFunction(self.when)

    def matches(self, env: Mapping[str, LogicValue]) -> bool:
        """True when the guard evaluates to 1 under ``env``."""
        if self.when_fn is None:
            return True
        try:
            return self.when_fn.evaluate(env) == 1
        except KeyError:
            return False


@dataclasses.dataclass
class PinDef:
    """A library cell pin."""

    name: str
    direction: PinDirection
    capacitance: float = 0.0
    function: str | None = None
    max_capacitance: float | None = None
    is_clock: bool = False
    timing_arcs: list[TimingArc] = dataclasses.field(default_factory=list)
    _parsed_function: BooleanFunction | None = dataclasses.field(
        default=None, repr=False, compare=False)

    @property
    def logic_function(self) -> BooleanFunction | None:
        """Parsed boolean function for output pins (cached)."""
        if self.function is None:
            return None
        if self._parsed_function is None:
            self._parsed_function = BooleanFunction(self.function)
        return self._parsed_function

    def arc_from(self, related_pin: str) -> TimingArc | None:
        """The delay arc triggered by ``related_pin``, if any."""
        for arc in self.timing_arcs:
            if arc.related_pin == related_pin and not arc.is_constraint():
                return arc
        return None


@dataclasses.dataclass
class CellDef:
    """A library cell with reproduction-specific classification."""

    name: str
    area: float = 0.0
    pins: dict[str, PinDef] = dataclasses.field(default_factory=dict)
    leakage_states: list[LeakageState] = dataclasses.field(default_factory=list)
    default_leakage_nw: float = 0.0

    # Classification used by the Selective-MT flow.
    base_name: str = ""
    variant: str = VARIANT_LVT
    vth_class: VthClass = VthClass.LOW
    kind: CellKind = CellKind.LOGIC
    has_vgnd_port: bool = False
    switch_width_um: float = 0.0     # for SWITCH cells / embedded CMT switch
    switching_current_ma: float = 0.0  # avg VGND current while switching
    footprint: str = ""

    # Sequential metadata (Liberty ff group).
    ff_next_state: str | None = None
    ff_clocked_on: str | None = None

    def __post_init__(self):
        if not self.base_name:
            self.base_name = self.name

    # --- pin queries ----------------------------------------------------

    def pin(self, name: str) -> PinDef:
        try:
            return self.pins[name]
        except KeyError:
            raise LibertyError(f"cell {self.name} has no pin {name!r}") from None

    def input_pins(self) -> list[PinDef]:
        return [p for p in self.pins.values()
                if p.direction == PinDirection.INPUT]

    def output_pins(self) -> list[PinDef]:
        return [p for p in self.pins.values()
                if p.direction == PinDirection.OUTPUT]

    def single_output(self) -> PinDef:
        outputs = self.output_pins()
        if len(outputs) != 1:
            raise LibertyError(
                f"cell {self.name} has {len(outputs)} outputs, expected 1")
        return outputs[0]

    def data_input_names(self) -> list[str]:
        """Input pins excluding clock and control (MTE) pins."""
        return [p.name for p in self.input_pins()
                if not p.is_clock and p.name != "MTE"]

    # --- classification -----------------------------------------------------

    @property
    def is_sequential(self) -> bool:
        return self.kind == CellKind.SEQUENTIAL

    @property
    def is_switch(self) -> bool:
        return self.kind == CellKind.SWITCH

    @property
    def is_holder(self) -> bool:
        return self.kind == CellKind.HOLDER

    @property
    def is_mt(self) -> bool:
        """True for any MT-cell variant (MT, MTV or conventional)."""
        return self.variant in (VARIANT_MT, VARIANT_MTV, VARIANT_CMT)

    @property
    def is_improved_mt(self) -> bool:
        """MT-cell of the improved style (external switch)."""
        return self.variant in (VARIANT_MT, VARIANT_MTV)

    @property
    def is_conventional_mt(self) -> bool:
        return self.variant == VARIANT_CMT

    # --- leakage ---------------------------------------------------------------

    def leakage_nw(self, env: Mapping[str, LogicValue] | None = None) -> float:
        """Standby leakage in nW; state-dependent when ``env`` is given.

        With no environment (or no matching ``when`` state) the default
        (state-averaged) leakage is returned.
        """
        if env is not None:
            for state in self.leakage_states:
                if state.when_fn is not None and state.matches(env):
                    return state.value_nw
        return self.default_leakage_nw

    def worst_leakage_nw(self) -> float:
        """Maximum leakage across all characterized states."""
        values = [s.value_nw for s in self.leakage_states]
        values.append(self.default_leakage_nw)
        return max(values)

    def evaluate(self, env: Mapping[str, LogicValue]) -> dict[str, LogicValue]:
        """Evaluate all output functions under an input environment."""
        result: dict[str, LogicValue] = {}
        for pin in self.output_pins():
            fn = pin.logic_function
            result[pin.name] = fn.evaluate(env) if fn is not None else X
        return result


class Library:
    """A named collection of cells with variant lookup support."""

    def __init__(self, name: str, tech=None):
        self.name = name
        self.tech = tech
        #: VGND bounce (V) assumed when MT tables were characterized.
        self.mt_assumed_bounce_v: float | None = None
        self._cells: dict[str, CellDef] = {}
        self._variant_index: dict[tuple[str, str], str] = {}
        self._content_digest: str | None = None
        self._delay_arcs: dict[str, dict[str, dict[str, DelayArc]]] | None \
            = None

    # --- container protocol -----------------------------------------------

    def __contains__(self, cell_name: str) -> bool:
        return cell_name in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self):
        return iter(self._cells.values())

    @property
    def cells(self) -> dict[str, CellDef]:
        return self._cells

    # --- access ------------------------------------------------------------

    def add_cell(self, cell: CellDef) -> CellDef:
        if cell.name in self._cells:
            raise LibertyError(f"duplicate cell {cell.name!r} in library "
                               f"{self.name!r}")
        self._cells[cell.name] = cell
        self._variant_index[(cell.base_name, cell.variant)] = cell.name
        self._content_digest = None
        self._delay_arcs = None
        return cell

    def cell(self, name: str) -> CellDef:
        try:
            return self._cells[name]
        except KeyError:
            raise LibertyError(
                f"library {self.name!r} has no cell {name!r}") from None

    def delay_arcs(self) -> dict[str, dict[str, dict[str, DelayArc]]]:
        """Cell name -> pin name -> related pin -> compiled delay arc.

        Each entry holds the arc :meth:`PinDef.arc_from` returns, so the
        STA engines look an arc up in a dict instead of searching a
        pin's arcs at every instance visit.  Every pin of every cell has
        an entry, empty when no delay arc ends there.  Built once per
        library (every session and array view shares it); ``add_cell``
        invalidates it.  Compiling builds the delay and slew tables'
        located forms, with one axis object per distinct axis.
        """
        if self._delay_arcs is None:
            axes: dict = {}
            self._delay_arcs = {
                name: {pin_name: _compile_delay_arcs(pin, axes)
                       for pin_name, pin in cell.pins.items()}
                for name, cell in self._cells.items()}
        return self._delay_arcs

    def variant_of(self, cell: CellDef | str, variant: str) -> CellDef:
        """The sibling of ``cell`` with the requested variant tag."""
        if isinstance(cell, str):
            cell = self.cell(cell)
        key = (cell.base_name, variant)
        if key not in self._variant_index:
            raise LibertyError(
                f"no {variant} variant of base cell {cell.base_name!r}")
        return self._cells[self._variant_index[key]]

    def has_variant(self, cell: CellDef | str, variant: str) -> bool:
        if isinstance(cell, str):
            cell = self.cell(cell)
        return (cell.base_name, variant) in self._variant_index

    def cells_of_kind(self, kind: CellKind) -> list[CellDef]:
        return [c for c in self._cells.values() if c.kind == kind]

    def switch_cells(self) -> list[CellDef]:
        """Discrete sleep-switch cells, ascending by width."""
        switches = self.cells_of_kind(CellKind.SWITCH)
        switches.sort(key=lambda c: c.switch_width_um)
        return switches

    def buffers(self) -> list[CellDef]:
        """Buffer cells ascending by drive (area as proxy)."""
        bufs = [c for c in self.cells_of_kind(CellKind.BUFFER)
                if c.base_name.startswith("BUF")]
        bufs.sort(key=lambda c: c.area)
        return bufs

    # --- content identity ---------------------------------------------------

    def content_digest(self) -> str:
        """SHA-256 of the library's timing/leakage content.

        Covers everything the compute-backend lowering and the corner
        derivation read: technology constants, per-cell LUTs, pin
        capacitances, leakage numbers and classification fields — so
        it keys the corner-library memo.  Memoized; ``add_cell``
        invalidates (cells themselves are treated as immutable once
        added, which every producer in this codebase honors — corner
        derivation builds fresh cells).
        """
        if self._content_digest is None:
            self._content_digest = self._compute_content_digest()
        return self._content_digest

    def _compute_content_digest(self) -> str:
        import hashlib

        digest = hashlib.sha256()

        def put(text: str):
            digest.update(text.encode("utf-8"))
            digest.update(b"\n")

        put(f"library {self.name}")
        put(f"bounce {self.mt_assumed_bounce_v!r}")
        if self.tech is not None:
            for key, value in sorted(
                    dataclasses.asdict(self.tech).items()):
                put(f"tech {key} {value!r}")

        def put_lut(tag: str, lut: Lut | None):
            if lut is None:
                return
            put(f"{tag} {lut.index_1!r} {lut.index_2!r} {lut.values!r}")

        for name in sorted(self._cells):
            cell = self._cells[name]
            put(f"cell {name} {cell.area!r} {cell.vth_class.value} "
                f"{cell.kind.value} {cell.variant} {cell.base_name} "
                f"{cell.default_leakage_nw!r} "
                f"{cell.switching_current_ma!r} "
                f"{cell.switch_width_um!r} {cell.has_vgnd_port} "
                f"{cell.footprint!r} {cell.ff_next_state!r} "
                f"{cell.ff_clocked_on!r}")
            for state in cell.leakage_states:
                put(f"leak {state.value_nw!r} {state.when!r}")
            for pin_name in sorted(cell.pins):
                pin = cell.pins[pin_name]
                put(f"pin {pin_name} {pin.direction} "
                    f"{pin.capacitance!r} {pin.max_capacitance!r} "
                    f"{pin.is_clock}")
                for arc in pin.timing_arcs:
                    put(f"arc {arc.related_pin} {arc.timing_sense} "
                        f"{arc.timing_type}")
                    put_lut("cr", arc.cell_rise)
                    put_lut("cf", arc.cell_fall)
                    put_lut("rt", arc.rise_transition)
                    put_lut("ft", arc.fall_transition)
                    put_lut("rc", arc.rise_constraint)
                    put_lut("fc", arc.fall_constraint)
        return digest.hexdigest()


def _compile_delay_arcs(pin: PinDef, axes: dict) -> dict[str, DelayArc]:
    """Related pin -> compiled delay arc ending at ``pin``: the first
    one per related pin, as :meth:`PinDef.arc_from` picks it."""
    arcs: dict[str, DelayArc] = {}
    for arc in pin.timing_arcs:
        if not arc.is_constraint() and arc.related_pin not in arcs:
            arcs[arc.related_pin] = DelayArc.compile(arc, axes)
    return arcs


def library_from_ast(root, tech=None) -> Library:
    """Build a typed :class:`Library` from a parsed Liberty AST."""
    from repro.liberty.ast import Group

    if not isinstance(root, Group) or root.keyword != "library":
        raise LibertyError("top-level group must be 'library'")
    library = Library(root.name or "unnamed", tech=tech)
    bounce = root.get("repro_mt_assumed_bounce_v")
    if bounce is not None:
        if isinstance(bounce, bool) or not isinstance(bounce, (int, float)):
            raise LibertyError(
                f"repro_mt_assumed_bounce_v must be a number, got "
                f"{bounce!r}")
        library.mt_assumed_bounce_v = float(bounce)
    for cell_group in root.find_groups("cell"):
        library.add_cell(_cell_from_ast(cell_group))
    return library


def _lut_from_ast(group) -> Lut:
    index_1 = _parse_axis(group.get_complex("index_1"))
    index_2 = _parse_axis(group.get_complex("index_2"))
    raw_values = group.get_complex("values") or []
    rows = [_split_floats(str(row)) for row in raw_values]
    if index_1 is None and index_2 is None and len(rows) == 1 \
            and len(rows[0]) == 1:
        return Lut.constant(rows[0][0])
    if index_1 is None:
        index_1 = [0.0] if len(rows) == 1 else list(range(len(rows)))
    if index_2 is None:
        width = len(rows[0]) if rows else 1
        index_2 = [0.0] if width == 1 else list(range(width))
    return Lut(index_1, index_2, rows)


def _parse_axis(values) -> list[float] | None:
    if not values:
        return None
    if len(values) == 1 and isinstance(values[0], str):
        return _split_floats(values[0])
    return [float(v) for v in values]


def _split_floats(text: str) -> list[float]:
    parts = text.replace(",", " ").split()
    return [float(p) for p in parts]


def _arc_from_ast(group) -> TimingArc:
    arc = TimingArc(
        related_pin=str(group.get("related_pin", "")),
        timing_sense=str(group.get("timing_sense", "positive_unate")),
        timing_type=str(group.get("timing_type", "combinational")),
    )
    for table_name in ("cell_rise", "cell_fall", "rise_transition",
                       "fall_transition", "rise_constraint",
                       "fall_constraint"):
        table_group = group.find_group(table_name)
        if table_group is not None:
            setattr(arc, table_name, _lut_from_ast(table_group))
    return arc


def _pin_from_ast(group) -> PinDef:
    direction = PinDirection(str(group.get("direction", "input")))
    pin = PinDef(
        name=str(group.name),
        direction=direction,
        capacitance=float(group.get("capacitance", 0.0) or 0.0),
        function=(str(group.get("function"))
                  if group.get("function") is not None else None),
        is_clock=bool(group.get("clock", False)),
    )
    max_cap = group.get("max_capacitance")
    if max_cap is not None:
        pin.max_capacitance = float(max_cap)
    for timing_group in group.find_groups("timing"):
        pin.timing_arcs.append(_arc_from_ast(timing_group))
    return pin


def _cell_from_ast(group) -> CellDef:
    cell = CellDef(name=str(group.name), area=float(group.get("area", 0.0)))
    # Reproduction classification attributes.
    cell.base_name = str(group.get("repro_base", cell.name))
    cell.variant = str(group.get("repro_variant", VARIANT_LVT))
    cell.vth_class = VthClass(str(group.get("repro_vth", "low")))
    cell.kind = CellKind(str(group.get("repro_kind", "logic")))
    cell.has_vgnd_port = bool(group.get("repro_has_vgnd", False))
    cell.switch_width_um = float(group.get("repro_switch_width", 0.0) or 0.0)
    cell.switching_current_ma = float(
        group.get("repro_switching_current", 0.0) or 0.0)
    cell.footprint = str(group.get("cell_footprint", "") or "")
    # Leakage.
    default_leak = group.get("cell_leakage_power")
    if default_leak is not None:
        cell.default_leakage_nw = float(default_leak)
    for leak_group in group.find_groups("leakage_power"):
        when = leak_group.get("when")
        cell.leakage_states.append(LeakageState(
            value_nw=float(leak_group.get("value", 0.0)),
            when=str(when) if when is not None else None))
    # Sequential metadata.
    ff_group = group.find_group("ff")
    if ff_group is not None:
        cell.kind = CellKind.SEQUENTIAL
        next_state = ff_group.get("next_state")
        clocked_on = ff_group.get("clocked_on")
        cell.ff_next_state = str(next_state) if next_state is not None else None
        cell.ff_clocked_on = str(clocked_on) if clocked_on is not None else None
    # Pins.
    for pin_group in group.find_groups("pin"):
        pin = _pin_from_ast(pin_group)
        cell.pins[pin.name] = pin
    return cell
