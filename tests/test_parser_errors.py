"""Malformed SPEF and SDC input raises a typed ParseError with a line.

Each regression input below used to leak a raw ``ValueError`` or
``IndexError`` out of :func:`parse_spef` / :func:`parse_sdc`; the
property then mutates valid files and asserts that nothing but
:class:`~repro.errors.ParseError` escapes either parser.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParseError
from repro.routing.spef import parse_spef
from repro.timing.sdc import parse_sdc

SPEF = """*SPEF "IEEE 1481-1998"
*DESIGN c17
*T_UNIT 1 NS

*D_NET n42 0.00234
*PARAM
*LEN 12.5
*RTOT 0.104
*DELAY
1 g_55/A 0.00021
*END
"""

CLOCK = "create_clock -period 2.0 -name core [get_ports CLK]\n"

SDC = CLOCK + """set_input_transition 0.05 [all_inputs]
set_input_delay -clock core 0.1 [all_inputs]
set_output_delay 0.2 [get_ports Z]
set_load 0.004 [get_ports Z]
"""


@pytest.mark.parametrize("parser, text, line", [
    (parse_spef, "*D_NET n1 0input.5\n*END\n", 1),
    (parse_spef, "*D_NET n1 0.5\n*PARAM\n*LEN\n*END\n", 3),
    (parse_spef, "*D_NET n1 0.5\n*DELAY\n1 g_55/A fast\n*END\n", 3),
    (parse_sdc, CLOCK + 'set_load "0.004 [all_outputs]\n', 2),
    (parse_sdc, "create_clock -period\n2.0 [get_ports CLK]\n", 1),
    (parse_sdc, CLOCK + "set_load\n", 2),
    (parse_sdc, CLOCK + "set_input_transition abc\n", 2),
], ids=["spef-dnet-cap", "spef-len-missing", "spef-delay-value",
        "sdc-unbalanced-quote", "sdc-period-next-line", "sdc-bare-set-load",
        "sdc-input-transition"])
def test_malformed_input_raises_parse_error(parser, text, line):
    with pytest.raises(ParseError) as caught:
        parser(text)
    assert caught.value.line == line


PIECES = st.sampled_from([
    "*D_NET", "*PARAM", "*LEN", "*RTOT", "*DELAY", "*END", "create_clock",
    "-period", "-name", "-clock", "set_load", "set_input_transition",
    "set_input_delay", "[get_ports", "[all_inputs]", "[", "]", '"', "'",
    "\\", "#", "\n", " ", "0.5", "1e", "nan", "x"])

EDITS = st.lists(st.tuples(st.integers(min_value=0, max_value=400),
                           st.integers(min_value=0, max_value=12),
                           st.one_of(PIECES, st.text(max_size=3))),
                 min_size=1, max_size=6)


@settings(max_examples=400, deadline=None)
@given(target=st.sampled_from([(parse_spef, SPEF), (parse_sdc, SDC)]),
       edits=EDITS)
def test_property_only_parse_errors_escape(target, edits):
    parser, text = target
    for position, cut, piece in edits:
        position %= len(text) + 1
        text = text[:position] + piece + text[position + cut:]
    try:
        parser(text)
    except ParseError:
        pass
