"""Named PVT corners and corner-library derivation.

A :class:`PvtCorner` is (process letter, supply, temperature); the
standard signoff grid is SS/TT/FF x Vdd +/-10 % x {-40, 25, 125} C —
27 corners — plus ``tt_nom``, the technology's own nominal point.

:func:`derive_corner_library` maps a nominal
:class:`~repro.liberty.library.Library` to a *new* library whose
timing tables and leakage numbers are scaled per Vth class by the
:mod:`repro.variation.scaling` laws.  The contract:

* the nominal library is **never mutated** — every cell, pin, arc and
  LUT in the derived library is a fresh object;
* the ``tt_nom`` corner derives a library that is numerically
  **bit-identical** to the nominal one (all scale factors are exactly
  1.0), so nominal signoff reproduces single-point results digit for
  digit;
* MT / switch / holder cells scale their *standby leakage* with the
  high-Vth law (their standby path is the high-Vth sleep switch) while
  their *delay* follows their own Vth class.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict

from repro.device.process import DEFAULT_TECHNOLOGY, Technology
from repro.errors import FlowError
from repro.liberty.library import (
    CellDef,
    CellKind,
    LeakageState,
    Library,
    PinDef,
    TimingArc,
    VthClass,
)
from repro.variation.scaling import (
    OperatingPoint,
    delay_factor,
    drive_current_factor,
    effective_vth,
    leakage_factor,
)

#: Global Vth shift (volts) of the SS / TT / FF process letters.
PROCESS_VTH_SHIFT_V = {"ss": +0.045, "tt": 0.0, "ff": -0.045}

#: The standard signoff grid axes.
SUPPLY_SCALES = (0.9, 1.0, 1.1)
TEMPERATURES_C = (-40.0, 25.0, 125.0)

KELVIN_OFFSET = 273.15


@dataclasses.dataclass(frozen=True)
class PvtCorner:
    """One named process/voltage/temperature corner."""

    name: str
    process: str            # "ss" | "tt" | "ff"
    vdd: float              # volts
    temperature_k: float    # kelvin

    def __post_init__(self):
        if self.process not in PROCESS_VTH_SHIFT_V:
            raise FlowError(
                f"unknown process letter {self.process!r}; "
                f"known: {sorted(PROCESS_VTH_SHIFT_V)}")

    @property
    def vth_shift_v(self) -> float:
        return PROCESS_VTH_SHIFT_V[self.process]

    @property
    def temperature_c(self) -> float:
        return self.temperature_k - KELVIN_OFFSET

    def operating_point(self) -> OperatingPoint:
        return OperatingPoint(vdd=self.vdd,
                              temperature_k=self.temperature_k,
                              vth_shift_v=self.vth_shift_v)

    def describe(self) -> str:
        return (f"{self.process.upper()} {self.vdd:.2f}V "
                f"{self.temperature_c:+.0f}C")


def _temp_label(celsius: float) -> str:
    """CLI-safe temperature tag: -40 -> ``m40c``, 125 -> ``125c``."""
    rounded = int(round(celsius))
    return f"m{-rounded}c" if rounded < 0 else f"{rounded}c"


def corner_name(process: str, vdd: float, celsius: float) -> str:
    return f"{process}_{vdd:.2f}v_{_temp_label(celsius)}"


def nominal_corner(tech: Technology) -> PvtCorner:
    """The TT corner at the technology's exact nominal point.

    Every scale factor evaluates to exactly 1.0 here, which is what
    guarantees nominal signoff is bit-identical to the single-point
    flow.
    """
    return PvtCorner(name="tt_nom", process="tt", vdd=tech.vdd,
                     temperature_k=tech.temperature_k)


def standard_corners(tech: Technology) -> dict[str, PvtCorner]:
    """``tt_nom`` plus the full 27-corner signoff grid, name-keyed."""
    corners: dict[str, PvtCorner] = {}
    nominal = nominal_corner(tech)
    corners[nominal.name] = nominal
    for process in ("ss", "tt", "ff"):
        for scale in SUPPLY_SCALES:
            vdd = tech.vdd * scale
            for celsius in TEMPERATURES_C:
                name = corner_name(process, vdd, celsius)
                corners[name] = PvtCorner(
                    name=name, process=process, vdd=vdd,
                    temperature_k=celsius + KELVIN_OFFSET)
    return corners


def default_signoff_corners(tech: Technology) -> tuple[str, ...]:
    """Compact default signoff set for a technology: nominal, the
    worst-leakage corner (fast, hot, high supply) and the worst-timing
    corner (slow, hot, low supply)."""
    hot = TEMPERATURES_C[-1]
    return ("tt_nom",
            corner_name("ff", tech.vdd * SUPPLY_SCALES[-1], hot),
            corner_name("ss", tech.vdd * SUPPLY_SCALES[0], hot))


#: The default set for the default technology (vdd = 1.2 V).
DEFAULT_SIGNOFF_CORNERS = default_signoff_corners(DEFAULT_TECHNOLOGY)


def resolve_corner(name: str, tech: Technology) -> PvtCorner:
    """Look up a corner by name in the standard grid."""
    corners = standard_corners(tech)
    try:
        return corners[name]
    except KeyError:
        raise FlowError(
            f"unknown corner {name!r}; known: {sorted(corners)}") from None


@dataclasses.dataclass(frozen=True)
class CornerScales:
    """The four per-Vth-class multipliers one corner reduces to."""

    corner: PvtCorner
    delay_low: float
    delay_high: float
    leakage_low: float
    leakage_high: float
    current_low: float
    current_high: float
    vth_low_eff: float
    vth_high_eff: float


def corner_scales(tech: Technology, corner: PvtCorner) -> CornerScales:
    """Evaluate the scaling laws for both Vth classes at one corner."""
    point = corner.operating_point()
    return CornerScales(
        corner=corner,
        delay_low=delay_factor(tech, tech.vth_low, point),
        delay_high=delay_factor(tech, tech.vth_high, point),
        leakage_low=leakage_factor(tech, tech.vth_low, point),
        leakage_high=leakage_factor(tech, tech.vth_high, point),
        current_low=drive_current_factor(tech, tech.vth_low, point),
        current_high=drive_current_factor(tech, tech.vth_high, point),
        vth_low_eff=effective_vth(tech, tech.vth_low, point),
        vth_high_eff=effective_vth(tech, tech.vth_high, point))


def _scaled_lut(lut, factor: float):
    if lut is None:
        return None
    return lut.scaled(factor)


def _scaled_arc(arc: TimingArc, factor: float) -> TimingArc:
    return TimingArc(
        related_pin=arc.related_pin,
        timing_sense=arc.timing_sense,
        timing_type=arc.timing_type,
        cell_rise=_scaled_lut(arc.cell_rise, factor),
        cell_fall=_scaled_lut(arc.cell_fall, factor),
        rise_transition=_scaled_lut(arc.rise_transition, factor),
        fall_transition=_scaled_lut(arc.fall_transition, factor),
        rise_constraint=_scaled_lut(arc.rise_constraint, factor),
        fall_constraint=_scaled_lut(arc.fall_constraint, factor))


def _scaled_pin(pin: PinDef, factor: float) -> PinDef:
    return PinDef(
        name=pin.name,
        direction=pin.direction,
        capacitance=pin.capacitance,
        function=pin.function,
        max_capacitance=pin.max_capacitance,
        is_clock=pin.is_clock,
        timing_arcs=[_scaled_arc(arc, factor) for arc in pin.timing_arcs])


def leakage_class_is_high(cell: CellDef) -> bool:
    """True when the cell's *standby* leakage path is high-Vth.

    HVT logic leaks through its own high-Vth stacks; MT-cells (both
    styles), discrete switches and holders all leak through a high-Vth
    sleep-switch / keeper device in standby, so their leakage tracks
    the high-Vth law even though MT logic delay is low-Vth class.
    """
    return (cell.vth_class == VthClass.HIGH
            or cell.is_mt
            or cell.kind in (CellKind.SWITCH, CellKind.HOLDER))


def _scaled_cell(cell: CellDef, scales: CornerScales) -> CellDef:
    delay_f = (scales.delay_high if cell.vth_class == VthClass.HIGH
               else scales.delay_low)
    leak_f = (scales.leakage_high if leakage_class_is_high(cell)
              else scales.leakage_low)
    current_f = (scales.current_high if cell.vth_class == VthClass.HIGH
                 else scales.current_low)
    scaled = CellDef(
        name=cell.name,
        area=cell.area,
        pins={name: _scaled_pin(pin, delay_f)
              for name, pin in cell.pins.items()},
        leakage_states=[LeakageState(value_nw=state.value_nw * leak_f,
                                     when=state.when)
                        for state in cell.leakage_states],
        default_leakage_nw=cell.default_leakage_nw * leak_f,
        base_name=cell.base_name,
        variant=cell.variant,
        vth_class=cell.vth_class,
        kind=cell.kind,
        has_vgnd_port=cell.has_vgnd_port,
        switch_width_um=cell.switch_width_um,
        switching_current_ma=cell.switching_current_ma * current_f,
        footprint=cell.footprint,
        ff_next_state=cell.ff_next_state,
        ff_clocked_on=cell.ff_clocked_on)
    return scaled


def derive_corner_library(library: Library, corner: PvtCorner) -> Library:
    """A new library re-characterized at ``corner``.

    The nominal library is left untouched; the derived one carries a
    corner-adjusted :class:`Technology` (supply, temperature, shifted
    thresholds) so downstream consumers (bounce limits, device models)
    see consistent corner physics.
    """
    tech = library.tech
    if tech is None:
        raise FlowError("cannot derive a corner library without a "
                        "technology")
    scales = corner_scales(tech, corner)
    corner_tech = tech.with_updates(
        name=f"{tech.name}@{corner.name}",
        vdd=corner.vdd,
        temperature_k=corner.temperature_k,
        vth_low=tech.vth_low + corner.vth_shift_v,
        vth_high=tech.vth_high + corner.vth_shift_v)
    derived = Library(f"{library.name}@{corner.name}", tech=corner_tech)
    if library.mt_assumed_bounce_v is not None:
        derived.mt_assumed_bounce_v = \
            library.mt_assumed_bounce_v * (corner.vdd / tech.vdd)
    for cell in library:
        derived.add_cell(_scaled_cell(cell, scales))
    return derived


# --- memoized derivation ---------------------------------------------------

#: Bounded process-wide memo of derived corner libraries, keyed by the
#: nominal library's content digest plus the full corner identity.
_CORNER_MEMO_MAX = 64
_corner_memo: "OrderedDict[tuple, Library]" = OrderedDict()
_corner_memo_lock = threading.Lock()
_corner_memo_counters = {"hits": 0, "misses": 0, "evictions": 0}


def derive_corner_library_cached(library: Library,
                                 corner: PvtCorner) -> Library:
    """Memoized :func:`derive_corner_library`.

    The one way code outside this module gets a corner library.
    Derivation is a pure function of (library content, corner), so a
    process-wide LRU of ``_CORNER_MEMO_MAX`` (64) entries keyed by
    ``(library.content_digest(), corner)`` lets every consumer —
    corner signoff (facade, runner jobs), the standby engine and the
    policy sweep — share one derivation per corner;
    an evicted entry only costs a re-derivation.  The returned library
    is shared: callers must treat it as immutable (they all do — a
    derived library is only ever read).
    """
    key = (library.content_digest(), corner.name, corner.process,
           corner.vdd, corner.temperature_k)
    with _corner_memo_lock:
        found = _corner_memo.get(key)
        if found is not None:
            _corner_memo.move_to_end(key)
            _corner_memo_counters["hits"] += 1
            return found
        _corner_memo_counters["misses"] += 1
    derived = derive_corner_library(library, corner)
    with _corner_memo_lock:
        _corner_memo[key] = derived
        while len(_corner_memo) > _CORNER_MEMO_MAX:
            _corner_memo.popitem(last=False)
            _corner_memo_counters["evictions"] += 1
    return derived


def corner_memo_stats() -> dict[str, int]:
    """Hit/miss/eviction counters of the corner-derivation memo."""
    with _corner_memo_lock:
        return dict(_corner_memo_counters)


def reset_corner_memo():
    """Clear the memo and its counters (test isolation)."""
    with _corner_memo_lock:
        _corner_memo.clear()
        for name in _corner_memo_counters:
            _corner_memo_counters[name] = 0
