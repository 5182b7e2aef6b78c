"""Liberty write -> parse -> rebuild round trip."""

import pytest

from repro.liberty.library import library_from_ast
from repro.liberty.parser import parse_liberty
from repro.liberty.writer import write_liberty


@pytest.fixture(scope="module")
def round_tripped(library):
    text = write_liberty(library)
    ast = parse_liberty(text)
    return library_from_ast(ast, tech=library.tech)


def test_same_cell_set(library, round_tripped):
    assert set(round_tripped.cells) == set(library.cells)


def test_areas_preserved(library, round_tripped):
    for name, cell in library.cells.items():
        assert round_tripped.cell(name).area == pytest.approx(
            cell.area, rel=1e-4)


def test_leakage_preserved(library, round_tripped):
    for name, cell in library.cells.items():
        assert round_tripped.cell(name).default_leakage_nw == pytest.approx(
            cell.default_leakage_nw, rel=1e-4)


def test_classification_preserved(library, round_tripped):
    for name, cell in library.cells.items():
        copy = round_tripped.cell(name)
        assert copy.variant == cell.variant
        assert copy.base_name == cell.base_name
        assert copy.kind == cell.kind
        assert copy.vth_class == cell.vth_class
        assert copy.has_vgnd_port == cell.has_vgnd_port
        assert copy.switch_width_um == pytest.approx(
            cell.switch_width_um, rel=1e-4)
        assert copy.switching_current_ma == pytest.approx(
            cell.switching_current_ma, rel=1e-4)


def test_pins_preserved(library, round_tripped):
    for name, cell in library.cells.items():
        copy = round_tripped.cell(name)
        assert set(copy.pins) == set(cell.pins)
        for pin_name, pin in cell.pins.items():
            copy_pin = copy.pins[pin_name]
            assert copy_pin.direction == pin.direction
            assert copy_pin.capacitance == pytest.approx(
                pin.capacitance, rel=1e-4)


def test_functions_preserved(library, round_tripped):
    for name, cell in library.cells.items():
        for pin_name, pin in cell.pins.items():
            if pin.logic_function is None:
                continue
            copy_fn = round_tripped.cell(name).pins[pin_name].logic_function
            if pin.function == "IQ":
                continue  # sequential internal state, not comparable
            assert copy_fn == pin.logic_function


def test_timing_tables_preserved(library, round_tripped):
    cell = library.cell("NAND2_X1_LVT")
    copy = round_tripped.cell("NAND2_X1_LVT")
    arc = cell.single_output().arc_from("A")
    copy_arc = copy.single_output().arc_from("A")
    for slew in (0.01, 0.05, 0.2):
        for load in (0.001, 0.004, 0.02):
            assert copy_arc.delay(slew, load)[0] == pytest.approx(
                arc.delay(slew, load)[0], rel=1e-4)
            assert copy_arc.output_slew(slew, load)[1] == pytest.approx(
                arc.output_slew(slew, load)[1], rel=1e-4)


def test_leakage_states_preserved(library, round_tripped):
    cell = library.cell("NOR2_X1_HVT")
    copy = round_tripped.cell("NOR2_X1_HVT")
    assert len(copy.leakage_states) == len(cell.leakage_states)
    for env in ({"A": 0, "B": 0}, {"A": 1, "B": 0}, {"A": 1, "B": 1}):
        assert copy.leakage_nw(env) == pytest.approx(
            cell.leakage_nw(env), rel=1e-4)


def test_sequential_metadata_preserved(library, round_tripped):
    copy = round_tripped.cell("DFF_X1_LVT")
    assert copy.is_sequential
    assert copy.ff_next_state == "D"
    assert copy.ff_clocked_on == "CK"
    assert copy.pins["CK"].is_clock


def test_assumed_bounce_preserved(library, round_tripped):
    assert library.mt_assumed_bounce_v is not None
    assert round_tripped.mt_assumed_bounce_v == library.mt_assumed_bounce_v


def test_non_numeric_assumed_bounce_rejected():
    from repro.errors import LibertyError

    ast = parse_liberty(
        "library (x) { repro_mt_assumed_bounce_v : lots; }")
    with pytest.raises(LibertyError, match="repro_mt_assumed_bounce_v"):
        library_from_ast(ast)


def test_double_round_trip_stable(library):
    text1 = write_liberty(library)
    lib2 = library_from_ast(parse_liberty(text1), tech=library.tech)
    text2 = write_liberty(lib2)
    assert text1 == text2
