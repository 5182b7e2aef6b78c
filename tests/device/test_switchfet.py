"""Sleep-switch family and embedded switch sizing."""

import pytest
from hypothesis import given, strategies as st

from repro.device.process import Technology
from repro.device.switchfet import (
    SwitchFamily,
    embedded_switch_width,
)


@pytest.fixture(scope="module")
def tech():
    return Technology()


@pytest.fixture(scope="module")
def family(tech):
    return SwitchFamily(tech)


def test_family_ascending_by_width(family):
    widths = [spec.width_um for spec in family]
    assert widths == sorted(widths)
    assert len(widths) == len(set(widths))


def test_ron_descends_with_width(family):
    rons = [spec.on_resistance_kohm for spec in family]
    assert rons == sorted(rons, reverse=True)


def test_leakage_and_area_ascend_with_width(family):
    leaks = [spec.leakage_nw for spec in family]
    areas = [spec.area_um2 for spec in family]
    assert leaks == sorted(leaks)
    assert areas == sorted(areas)


def test_em_limit_proportional_to_width(family, tech):
    for spec in family:
        assert spec.em_limit_ma == pytest.approx(
            tech.em_current_per_um * spec.width_um)


def test_custom_multipliers_must_ascend(tech):
    with pytest.raises(ValueError):
        SwitchFamily(tech, multipliers=(4, 2, 1))
    with pytest.raises(ValueError):
        SwitchFamily(tech, multipliers=())


def test_embedded_width_has_minimum(tech):
    assert embedded_switch_width(tech, 0.0, 0.06) == pytest.approx(2.0)


def test_embedded_width_scales_with_current(tech):
    w1 = embedded_switch_width(tech, 0.5, 0.06)
    w2 = embedded_switch_width(tech, 1.0, 0.06)
    assert w2 == pytest.approx(2.0 * w1)


def test_embedded_width_holds_bounce_budget(tech):
    """The sized switch keeps I*Ron at or below the budget."""
    from repro.device.mosfet import MosfetModel
    current = 0.8
    bounce = 0.05
    width = embedded_switch_width(tech, current, bounce)
    model = MosfetModel(tech, tech.vth_high, "nmos")
    assert current * model.on_resistance(width) <= bounce * 1.0001


def test_embedded_width_validation(tech):
    with pytest.raises(ValueError):
        embedded_switch_width(tech, -1.0, 0.06)
    with pytest.raises(ValueError):
        embedded_switch_width(tech, 1.0, 0.0)
    with pytest.raises(ValueError):
        embedded_switch_width(tech, 1.0, 0.06, min_width_um=0.0)


@given(current=st.floats(min_value=0.01, max_value=5.0),
       bounce=st.floats(min_value=0.01, max_value=0.2))
def test_property_embedded_width_meets_budget(current, bounce):
    from repro.device.mosfet import MosfetModel
    tech = Technology()
    width = embedded_switch_width(tech, current, bounce)
    model = MosfetModel(tech, tech.vth_high, "nmos")
    assert current * model.on_resistance(width) <= bounce * 1.01
