"""Sleep-switch transistor family.

The improved Selective-MT methodology inserts discrete high-Vth NMOS
switch cells between the VGND rail of an MT-cell cluster and true ground.
Real libraries offer a geometric family of footprint-compatible switch
cells; :class:`SwitchFamily` models that: a sorted list of
:class:`SwitchCellSpec` entries, each with a width, on-resistance,
standby leakage, area and electromigration current limit.

The conventional Selective-MT technique embeds a (conservatively sized)
switch inside every MT-cell; :func:`embedded_switch_width` computes that
per-cell width so the area/leakage overhead of the conventional approach
is derived from the same physics as the improved one.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Sequence

from repro.device.mosfet import MosfetModel
from repro.device.process import Technology


@dataclasses.dataclass(frozen=True)
class SwitchCellSpec:
    """One discrete sleep-switch cell.

    Attributes
    ----------
    name:
        Library cell name, e.g. ``"SWITCH_X8"``.
    width_um:
        Total NMOS width of the switch transistor.
    on_resistance_kohm:
        Linear-region resistance when MTE is high.
    leakage_nw:
        Standby (MTE low) subthreshold leakage power.
    area_um2:
        Layout area.
    em_limit_ma:
        Maximum sustained current before electromigration risk.
    """

    name: str
    width_um: float
    on_resistance_kohm: float
    leakage_nw: float
    area_um2: float
    em_limit_ma: float


class SwitchFamily:
    """The available discrete switch sizes in ascending width order."""

    #: Default geometric family of drive multipliers.
    DEFAULT_MULTIPLIERS: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128)

    #: Width of the X1 switch in um.
    BASE_WIDTH_UM = 2.0

    def __init__(self, tech: Technology,
                 multipliers: Sequence[int] | None = None,
                 base_width_um: float | None = None):
        self.tech = tech
        self._model = MosfetModel(tech, tech.vth_high, "nmos")
        multipliers = (tuple(self.DEFAULT_MULTIPLIERS) if multipliers is None
                       else tuple(multipliers))
        if not multipliers or sorted(multipliers) != list(multipliers):
            raise ValueError("multipliers must be a non-empty ascending sequence")
        base = base_width_um if base_width_um is not None else self.BASE_WIDTH_UM
        if base <= 0:
            raise ValueError(f"base width must be positive, got {base}")
        self._specs = [self._make_spec(m, base) for m in multipliers]

    def _make_spec(self, multiplier: int, base_width: float) -> SwitchCellSpec:
        width = base_width * multiplier
        return SwitchCellSpec(
            name=f"SWITCH_X{multiplier}",
            width_um=width,
            on_resistance_kohm=self._model.on_resistance(width),
            leakage_nw=self._model.leakage_power(width),
            area_um2=self.tech.area_per_um_width * width,
            em_limit_ma=self.tech.em_current_per_um * width,
        )

    def __iter__(self) -> Iterator[SwitchCellSpec]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)


def embedded_switch_width(tech: Technology, switching_current_ma: float,
                          bounce_limit_v: float,
                          min_width_um: float = 2.0) -> float:
    """Per-cell embedded switch width for the *conventional* MT-cell.

    The embedded high-Vth switch is sized so the cell's own switching
    current develops no more than the designer's bounce budget across
    it — the same budget the improved technique's shared switches obey,
    making the two structures directly comparable.

    The per-cell granularity is exactly the overhead the improved
    technique removes: each cell is sized for *its own* full current
    (no simultaneity averaging across cells), and no cell can go below
    the manufacturable minimum width.
    """
    if switching_current_ma < 0:
        raise ValueError("switching current must be non-negative")
    if bounce_limit_v <= 0:
        raise ValueError("bounce limit must be positive")
    if min_width_um <= 0:
        raise ValueError("minimum width must be positive")
    overdrive = tech.overdrive(tech.vth_high)
    # Ron = 1/(k_lin*W*od) and I*Ron <= bounce  =>  W >= I/(k_lin*od*bounce)
    width = switching_current_ma / (tech.k_lin * overdrive * bounce_limit_v)
    return max(width, min_width_um)
