"""Typed library model: LUTs, cells, variants, leakage states."""

import random
from bisect import bisect_left

import pytest
from hypothesis import given, strategies as st

from repro.errors import LibertyError
from repro.liberty.library import (
    CellDef,
    CellKind,
    DelayArc,
    LeakageState,
    Library,
    Lut,
    PinDef,
    PinDirection,
    TimingArc,
    VARIANT_CMT,
    VARIANT_HVT,
    VARIANT_LVT,
    VARIANT_MT,
    VARIANT_MTV,
    locate,
    segment_value,
)


class TestLut:
    def test_constant(self):
        lut = Lut.constant(0.42)
        assert lut.lookup(0.0, 0.0) == pytest.approx(0.42)
        assert lut.lookup(5.0, 5.0) == pytest.approx(0.42)

    def test_exact_grid_points(self):
        lut = Lut((0.0, 1.0), (0.0, 1.0),
                  ((0.0, 1.0), (2.0, 3.0)))
        assert lut.lookup(0.0, 0.0) == pytest.approx(0.0)
        assert lut.lookup(0.0, 1.0) == pytest.approx(1.0)
        assert lut.lookup(1.0, 0.0) == pytest.approx(2.0)
        assert lut.lookup(1.0, 1.0) == pytest.approx(3.0)

    def test_bilinear_interior(self):
        lut = Lut((0.0, 1.0), (0.0, 1.0),
                  ((0.0, 1.0), (2.0, 3.0)))
        assert lut.lookup(0.5, 0.5) == pytest.approx(1.5)

    def test_linear_extrapolation(self):
        lut = Lut((0.0, 1.0), (0.0, 1.0),
                  ((0.0, 1.0), (1.0, 2.0)))
        # Planar table: extrapolation continues the plane.
        assert lut.lookup(2.0, 0.0) == pytest.approx(2.0)
        assert lut.lookup(0.0, 2.0) == pytest.approx(2.0)
        assert lut.lookup(-1.0, 0.0) == pytest.approx(-1.0)

    def test_1d_tables(self):
        row = Lut((0.0,), (0.0, 1.0), ((1.0, 3.0),))
        assert row.lookup(99.0, 0.5) == pytest.approx(2.0)
        col = Lut((0.0, 1.0), (0.0,), ((1.0,), (3.0,)))
        assert col.lookup(0.5, 99.0) == pytest.approx(2.0)

    def test_scaled(self):
        lut = Lut.constant(2.0).scaled(1.5)
        assert lut.lookup(0, 0) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(LibertyError):
            Lut((1.0, 0.0), (0.0,), ((1.0,), (2.0,)))  # descending axis
        with pytest.raises(LibertyError):
            Lut((0.0,), (0.0,), ((1.0,), (2.0,)))      # row mismatch
        with pytest.raises(LibertyError):
            Lut((0.0,), (0.0, 1.0), ((1.0,),))         # width mismatch

    @given(slew=st.floats(min_value=0.0, max_value=0.5),
           load=st.floats(min_value=0.0, max_value=0.05))
    def test_property_monotone_table_monotone_lookup(self, slew, load):
        lut = Lut((0.0, 0.1, 0.3), (0.0, 0.01, 0.03),
                  ((0.0, 1.0, 2.0), (1.0, 2.0, 3.0), (2.0, 3.0, 4.0)))
        base = lut.lookup(slew, load)
        assert lut.lookup(slew + 0.01, load) >= base - 1e-12
        assert lut.lookup(slew, load + 0.001) >= base - 1e-12


def _reference_lookup(lut: Lut, slew: float, load: float) -> float:
    """Bilinear lookup in plain arithmetic on the raw table, as written
    before tables had a located form: the reference every located
    evaluation must equal exactly."""
    def position(axis, x):
        last = len(axis) - 1
        if last == 0:
            return 0, 0.0
        i = bisect_left(axis, x, 1, last) - 1
        span = axis[i + 1] - axis[i]
        return (i, 0.0) if span <= 0.0 else (i, (x - axis[i]) / span)

    i, fi = position(lut.index_1, slew)
    j, fj = position(lut.index_2, load)
    values = lut.values
    row = values[i]
    if len(values) == 1:
        return row[0] if len(row) == 1 \
            else row[j] + fj * (row[j + 1] - row[j])
    below = values[i + 1]
    if len(row) == 1:
        return row[0] + fi * (below[0] - row[0])
    top = row[j] + fj * (row[j + 1] - row[j])
    bottom = below[j] + fj * (below[j + 1] - below[j])
    return top + fi * (bottom - top)


def _random_table(rng, shape, axis_1=None, axis_2=None) -> Lut:
    rows, cols = shape
    axis_1 = axis_1 or sorted(rng.uniform(0.001, 0.5) for _ in range(rows))
    axis_2 = axis_2 or sorted(rng.uniform(0.0001, 0.05) for _ in range(cols))
    return Lut(axis_1, axis_2, [[rng.uniform(0.01, 2.0) for _ in range(cols)]
                                for _ in range(rows)])


def _probes(rng, lut: Lut) -> list[tuple[float, float]]:
    """On-grid, interior and extrapolated points (both sides, both
    axes) of ``lut``."""
    def points(axis):
        lo, hi = axis[0], axis[-1]
        return [*axis, rng.uniform(lo, hi), rng.uniform(lo, hi),
                lo - 0.3 * (hi - lo) - 0.01, hi + 0.7 * (hi - lo) + 0.01]

    return [(slew, load) for slew in points(lut.index_1)
            for load in points(lut.index_2)]


class TestLocatedForm:
    SHAPES = [(1, 1), (1, 4), (4, 1), (4, 4), (2, 5)]

    @pytest.mark.parametrize("shape", SHAPES,
                             ids=[f"{r}x{c}" for r, c in SHAPES])
    def test_lookups_equal_the_plain_arithmetic(self, shape):
        rng = random.Random(shape[0] * 10 + shape[1])
        for _ in range(10):
            lut = _random_table(rng, shape)
            twin = _random_table(rng, shape, lut.index_1, lut.index_2)
            for slew, load in _probes(rng, lut):
                expected = _reference_lookup(lut, slew, load)
                assert lut.lookup(slew, load) == expected
                assert lut.lookup_pair(twin, slew, load) == (
                    expected, _reference_lookup(twin, slew, load))

    @pytest.mark.parametrize("shape", SHAPES,
                             ids=[f"{r}x{c}" for r, c in SHAPES])
    def test_located_rows_equal_lookup(self, shape):
        """The session's step — locate each axis once, then
        ``segment_value`` on the segment row — is ``Lut.lookup``;
        a singleton axis has no rows (``lookup`` keeps its linear
        path)."""
        rng = random.Random(7 + shape[0] * 10 + shape[1])
        for _ in range(10):
            lut = _random_table(rng, shape)
            axis_1, axis_2, rows = lut.located()
            assert (rows is None) == (1 in shape)
            if rows is None:
                continue
            for slew, load in _probes(rng, lut):
                i, fi = locate(axis_1, slew)
                j, fj = locate(axis_2, load)
                assert segment_value(rows[i][j], fi, fj) \
                    == lut.lookup(slew, load)

    def test_compiled_arc_shares_one_location(self):
        """A delay table and the slew table on its axes compile to one
        ``axes`` pair (interned: equal axes are one object), and every
        forward contribution's rows evaluate to ``Lut.lookup``."""
        rng = random.Random(5)
        axis_1 = sorted(rng.uniform(0.001, 0.5) for _ in range(4))
        axis_2 = sorted(rng.uniform(0.0001, 0.05) for _ in range(4))
        tables = [_random_table(rng, (4, 4), axis_1, axis_2)
                  for _ in range(4)]
        arc = TimingArc("A", "negative_unate", cell_rise=tables[0],
                        cell_fall=tables[1], rise_transition=tables[2],
                        fall_transition=tables[3])
        axes: dict = {}
        compiled = DelayArc.compile(arc, axes)
        assert compiled.axes is not None
        assert len(axes) == 2
        slew_axis, load_axis = compiled.axes
        assert all(table.located()[0] is slew_axis
                   and table.located()[1] is load_axis for table in tables)
        for slew, load in _probes(rng, tables[0]):
            i, fi = locate(slew_axis, slew)
            j, fj = locate(load_axis, load)
            for _, _, delay_lut, slew_lut, delay_rows, slew_rows \
                    in compiled.forward:
                assert segment_value(delay_rows[i][j], fi, fj) \
                    == delay_lut.lookup(slew, load)
                assert segment_value(slew_rows[i][j], fi, fj) \
                    == slew_lut.lookup(slew, load)

    @pytest.mark.parametrize("shape", [(4, 4), (1, 4)])
    def test_mismatched_or_singleton_tables_take_the_pair_lookup(self, shape):
        """A slew table on other axes than its delay table, or a
        singleton axis, leaves the arc without ``axes`` or rows: each
        contribution looks its pair up with ``Lut.lookup_pair``, which
        still equals the plain arithmetic."""
        rng = random.Random(11)
        delay = _random_table(rng, shape)
        slew_table = _random_table(rng, shape, axis_1=delay.index_1)
        assert slew_table.index_2 != delay.index_2
        compiled = DelayArc.compile(
            TimingArc("A", cell_rise=delay, rise_transition=slew_table,
                      cell_fall=delay, fall_transition=delay), {})
        assert compiled.axes is None
        assert all(contribution[4:] == (None, None)
                   for contribution in compiled.forward)
        for slew, load in _probes(rng, delay):
            assert delay.lookup_pair(slew_table, slew, load) == (
                _reference_lookup(delay, slew, load),
                _reference_lookup(slew_table, slew, load))

    def test_default_library_arcs_are_all_located(self, library):
        """Every delay arc of the synthesized library shares one axis
        pair, so the session never takes the pair-lookup path there."""
        arcs = [compiled for pins in library.delay_arcs().values()
                for per_input in pins.values()
                for compiled in per_input.values()]
        assert arcs
        assert {id(axis) for compiled in arcs for axis in compiled.axes} \
            == {id(axis) for axis in arcs[0].axes}


class TestLeakageState:
    def test_unconditional_matches_everything(self):
        state = LeakageState(value_nw=1.0)
        assert state.matches({"A": 0})

    def test_when_guard(self):
        state = LeakageState(value_nw=1.0, when="A * !B")
        assert state.matches({"A": 1, "B": 0})
        assert not state.matches({"A": 1, "B": 1})

    def test_missing_pin_does_not_match(self):
        state = LeakageState(value_nw=1.0, when="A * B")
        assert not state.matches({"A": 1})


def _make_cell(name="NAND2_X1_LVT", base="NAND2_X1", variant=VARIANT_LVT):
    cell = CellDef(name=name, base_name=base, variant=variant, area=5.0)
    cell.pins["A"] = PinDef("A", PinDirection.INPUT, capacitance=0.002)
    cell.pins["B"] = PinDef("B", PinDirection.INPUT, capacitance=0.002)
    cell.pins["Z"] = PinDef("Z", PinDirection.OUTPUT, function="(A * B)'")
    return cell


class TestCellDef:
    def test_pin_queries(self):
        cell = _make_cell()
        assert [p.name for p in cell.input_pins()] == ["A", "B"]
        assert cell.single_output().name == "Z"
        with pytest.raises(LibertyError):
            cell.pin("missing")

    def test_evaluate(self):
        cell = _make_cell()
        assert cell.evaluate({"A": 1, "B": 1}) == {"Z": 0}
        assert cell.evaluate({"A": 0, "B": 1}) == {"Z": 1}

    def test_state_dependent_leakage(self):
        cell = _make_cell()
        cell.default_leakage_nw = 1.0
        cell.leakage_states = [
            LeakageState(value_nw=5.0, when="A * B"),
            LeakageState(value_nw=0.5, when="!A * !B"),
        ]
        assert cell.leakage_nw({"A": 1, "B": 1}) == pytest.approx(5.0)
        assert cell.leakage_nw({"A": 0, "B": 0}) == pytest.approx(0.5)
        assert cell.leakage_nw({"A": 1, "B": 0}) == pytest.approx(1.0)
        assert cell.leakage_nw() == pytest.approx(1.0)
        assert cell.worst_leakage_nw() == pytest.approx(5.0)

    def test_variant_flags(self):
        assert _make_cell(variant=VARIANT_MT).is_improved_mt
        assert _make_cell(variant=VARIANT_MTV).is_improved_mt
        assert _make_cell(variant=VARIANT_CMT).is_conventional_mt
        assert _make_cell(variant=VARIANT_CMT).is_mt
        assert not _make_cell(variant=VARIANT_HVT).is_mt


class TestLibrary:
    def test_add_and_lookup(self):
        library = Library("test")
        cell = library.add_cell(_make_cell())
        assert library.cell(cell.name) is cell
        assert cell.name in library
        assert len(library) == 1

    def test_duplicate_rejected(self):
        library = Library("test")
        library.add_cell(_make_cell())
        with pytest.raises(LibertyError):
            library.add_cell(_make_cell())

    def test_missing_cell(self):
        with pytest.raises(LibertyError):
            Library("test").cell("nope")

    def test_variant_navigation(self):
        library = Library("test")
        lvt = library.add_cell(_make_cell("NAND2_X1_LVT", variant=VARIANT_LVT))
        hvt = library.add_cell(_make_cell("NAND2_X1_HVT", variant=VARIANT_HVT))
        assert library.variant_of(lvt, VARIANT_HVT) is hvt
        assert library.variant_of("NAND2_X1_HVT", VARIANT_LVT) is lvt
        assert library.has_variant(lvt, VARIANT_HVT)
        assert not library.has_variant(lvt, VARIANT_CMT)
        with pytest.raises(LibertyError):
            library.variant_of(lvt, VARIANT_MTV)


class TestDefaultLibrary:
    def test_all_variants_present_for_combinational(self, library):
        for base in ("NAND2_X1", "NOR2_X1", "INV_X1", "XOR2_X1"):
            for variant in (VARIANT_LVT, VARIANT_HVT, VARIANT_MT,
                            VARIANT_MTV, VARIANT_CMT):
                assert f"{base}_{variant}" in library

    def test_sequential_has_no_mt_variant(self, library):
        assert "DFF_X1_LVT" in library
        assert "DFF_X1_HVT" in library
        assert "DFF_X1_MT" not in library

    def test_switch_cells_sorted(self, library):
        switches = library.switch_cells()
        assert len(switches) >= 6
        widths = [s.switch_width_um for s in switches]
        assert widths == sorted(widths)

    def test_holder_present(self, library):
        holder = library.cell("HOLDER_X1")
        assert holder.kind == CellKind.HOLDER
        assert holder.default_leakage_nw > 0

    def test_mtv_has_vgnd_pin(self, library):
        mtv = library.cell("NAND2_X1_MTV")
        assert mtv.has_vgnd_port
        assert "VGND" in mtv.pins
        mt = library.cell("NAND2_X1_MT")
        assert "VGND" not in mt.pins

    def test_cmt_has_mte_pin_and_bigger_area(self, library):
        cmt = library.cell("NAND2_X1_CMT")
        lvt = library.cell("NAND2_X1_LVT")
        assert "MTE" in cmt.pins
        assert cmt.area > 1.5 * lvt.area
        assert cmt.switch_width_um > 0

    def test_delay_ordering_lvt_mt_hvt(self, library):
        """The paper's premise: LVT < MT < HVT delay."""
        def worst_delay(cell_name):
            cell = library.cell(cell_name)
            arc = cell.single_output().arc_from("A")
            rise, fall = arc.delay(0.02, 0.004)
            return max(rise, fall)

        lvt = worst_delay("NAND2_X1_LVT")
        mtv = worst_delay("NAND2_X1_MTV")
        hvt = worst_delay("NAND2_X1_HVT")
        assert lvt < mtv < hvt

    def test_leakage_ordering(self, library):
        """Standby: MTV residual << HVT << LVT; CMT near HVT scale."""
        lvt = library.cell("NAND2_X1_LVT").default_leakage_nw
        hvt = library.cell("NAND2_X1_HVT").default_leakage_nw
        mtv = library.cell("NAND2_X1_MTV").default_leakage_nw
        assert lvt > 10 * hvt
        assert mtv < hvt

    def test_state_dependent_leakage_on_nand(self, library):
        cell = library.cell("NAND2_X1_LVT")
        assert len(cell.leakage_states) == 4
        # All-ones state leaks through parallel PMOS (worst for NAND).
        worst = cell.leakage_nw({"A": 1, "B": 1})
        best = cell.leakage_nw({"A": 0, "B": 0})
        assert worst > best
