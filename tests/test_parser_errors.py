"""Malformed input raises a typed error with a line.

Each regression input below used to leak a raw ``ValueError``,
``IndexError`` or ``NetlistError`` (or a ``ParseError`` without a
line) out of its parser; the property then mutates valid files and
asserts that nothing but each parser's one typed error escapes:
:class:`~repro.errors.ParseError` for SPEF, SDC, Liberty, Verilog,
``.bench`` and DEF, :class:`~repro.errors.ConfigError` for idle
traces, :class:`~repro.errors.ServiceError` (the service's 400) for
job submission bodies and status-route queries, any
:class:`~repro.errors.ReproError` for ``--scenario-file`` files.
"""

import functools
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.service import parse_submission, parse_wait
from repro.cli import _load_scenario_payload
from repro.errors import ConfigError, ParseError, ReproError, ServiceError
from repro.liberty.parser import parse_liberty
from repro.netlist.bench_io import parse_bench
from repro.netlist.verilog_io import parse_verilog
from repro.placement.defio import parse_def
from repro.policy.traces import parse_trace
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

LIBERTY = """library (demo) {
  time_unit : "1ns";
  cell (NAND2_X1) {
    area : 4.8;
    pin (A) { direction : input; capacitance : 0.0018; }
    pin (Z) {
      direction : output;
      function : "(A * B)'";
      timing () {
        related_pin : "A";
        cell_rise (tmpl) {
          index_1 ("0.01, 0.1");
          values ("0.02, 0.05");
        }
      }
    }
  }
}
"""

VERILOG = """module top (a, b, z);
  input a, b;
  output z;
  wire n1;
  NAND2 g1 (.A(a), .B(b), .Z(n1));
  INV g2 (.A(n1), .Z(z));
endmodule
"""

BENCH = """# c17-like
INPUT(1)
INPUT(2)
OUTPUT(22)
10 = NAND(1, 2)
22 = NOT(10)
"""

DEF = """VERSION 5.8 ;
DESIGN top ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 12000 9000 ) ;
COMPONENTS 2 ;
  - g1 NAND2_X1_LVT + PLACED ( 2400 4800 ) N ;
  - g2 INV_X1_LVT + PLACED ( 4800 4800 ) N ;
END COMPONENTS
PINS 1 ;
  - a + NET a + DIRECTION INPUT + PLACED ( 0 1200 ) N ;
END PINS
END DESIGN
"""

TRACE_LINES = """# idle intervals (ns)
120
95
4000
"""

TRACE_JSON = """{"name": "bursty", "active_ns": 400.0,
 "intervals_ns": [60.0, [120.0, 3], 9000]}
"""

#: Names every FlowConfig field, so mutations reach each one's checks.
SUBMISSION = """{"kind": "optimize", "circuit": "c17",
 "request": {"schema": "optimize_request", "schema_version": 1,
             "technique": "improved_smt"},
 "config": {"timing_margin": 0.2, "clock_period_ns": null,
            "utilization": 0.7, "aspect_ratio": 1.0,
            "placement_seed": 1, "placer_iterations": 24,
            "compute_backend": "python", "assignment_guardband": 0.04,
            "bounce_limit_fraction": 0.04, "max_rail_length_um": 400.0,
            "max_cells_per_switch": 64, "simultaneity_exponent": 0.5,
            "simultaneity_floor": 0.25}}
"""

SCENARIO = """{"name": "measured", "active_ns": 400.0, "idle_ns": 5000.0,
 "distribution": "empirical", "quantile_points": 4, "horizon_ns": 1e9,
 "points": [[1000.0, 0.5], [9000.0, 0.5]]}
"""


def parse_submission_body(text):
    """A service submit body as the server reads it: a body that is not
    JSON is its 400, anything else goes through ``parse_submission``."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"request body is not valid JSON: {exc}") \
            from exc
    return parse_submission(payload)


def load_scenario_file(text):
    """A ``--scenario-file`` as the CLI reads it, from a real file."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "scenario.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return _load_scenario_payload(path)


@pytest.mark.parametrize("parser, text, line", [
    (parse_spef, "*D_NET n1 0input.5\n*END\n", 1),
    (parse_spef, "*D_NET n1 0.5\n*PARAM\n*LEN\n*END\n", 3),
    (parse_spef, "*D_NET n1 0.5\n*DELAY\n1 g_55/A fast\n*END\n", 3),
    (parse_sdc, CLOCK + 'set_load "0.004 [all_outputs]\n', 2),
    (parse_sdc, "create_clock -period\n2.0 [get_ports CLK]\n", 1),
    (parse_sdc, CLOCK + "set_load\n", 2),
    (parse_sdc, CLOCK + "set_input_transition abc\n", 2),
    (parse_verilog, VERILOG.replace("INV g2", "INV g1"), 6),
    (parse_verilog, VERILOG.replace(".B(b)", ".A(b)"), 5),
    (parse_verilog, VERILOG.replace("(.A(n1)", "(n1"), 6),
    (parse_verilog,
     "/* two\n   lines */ module top (a);\n  input a a;\nendmodule\n", 3),
    (parse_verilog, VERILOG.replace("input a, b;", "input a, a;"), 2),
    (parse_bench, BENCH.replace("NOT(10)", "FOO(10)"), 6),
    (parse_bench, BENCH + "10 = NOR(1, 2)\n", 7),
], ids=["spef-dnet-cap", "spef-len-missing", "spef-delay-value",
        "sdc-unbalanced-quote", "sdc-period-next-line", "sdc-bare-set-load",
        "sdc-input-transition", "verilog-duplicate-instance",
        "verilog-pin-connected-twice", "verilog-positional-connection",
        "verilog-error-after-block-comment", "verilog-duplicate-port",
        "bench-unsupported-gate", "bench-signal-assigned-twice"])
def test_malformed_input_raises_parse_error(parser, text, line):
    with pytest.raises(ParseError) as caught:
        parser(text)
    assert caught.value.line == line


#: (field, value) pairs a scenario must reject by field name: non-finite
#: numbers, a fractional or boolean point count, an empty name.
BAD_SCENARIO_FIELDS = [
    ("name", ""),
    ("active_ns", math.nan),
    ("idle_ns", math.inf),
    ("horizon_ns", math.nan),
    ("quantile_points", 2.5),
    ("quantile_points", True),
    ("points", [[1000.0, math.nan], [9000.0, 0.5]]),
    ("points", [[math.inf, 0.5], [9000.0, 0.5]]),
    # These used to be coerced with float() before the check saw them
    # (the huge int raised a raw OverflowError).
    ("points", [["1000", 0.5], [9000.0, 0.5]]),
    ("points", [[1000.0, True]]),
    ("points", [[10 ** 400, 1.0]]),
]
BAD_SCENARIO_IDS = ["empty-name", "nan-active", "inf-idle", "nan-horizon",
                    "fractional-points", "bool-points", "nan-weight",
                    "inf-duration", "string-duration", "bool-weight",
                    "huge-int-duration"]


def bad_scenario(field, value):
    """The valid ``SCENARIO`` fields with one of them replaced."""
    return dict(json.loads(SCENARIO), **{field: value})


@pytest.mark.parametrize("field, value", BAD_SCENARIO_FIELDS,
                         ids=BAD_SCENARIO_IDS)
def test_scenario_file_rejects_bad_field(field, value):
    with pytest.raises(ConfigError) as caught:
        load_scenario_file(json.dumps(bad_scenario(field, value)))
    assert caught.value.field == field


@pytest.mark.parametrize("kind", ["standby", "policy"])
@pytest.mark.parametrize("field, value", BAD_SCENARIO_FIELDS,
                         ids=BAD_SCENARIO_IDS)
def test_submission_rejects_bad_scenario_field(kind, field, value):
    scenario = dict(bad_scenario(field, value), schema="standby_scenario",
                    schema_version=1)
    body = {"kind": kind, "circuit": "c17",
            "request": {"schema": f"{kind}_request", "schema_version": 1,
                        "scenario_payloads": [scenario]}}
    with pytest.raises(ServiceError, match=f"invalid {field}: "):
        parse_submission_body(json.dumps(body))


@pytest.mark.parametrize("query", [
    "wait=abc", "wait=nan", "wait=inf", "wait=-1", "wait=1e400", "wait=",
    "wait", "wait=1&wait=2", "wiat=1"],
    ids=["non-numeric", "nan", "inf", "negative", "overflow", "empty",
         "bare", "repeated", "unknown-key"])
def test_bad_wait_query_is_400_naming_wait(query):
    # Unchecked, inf raised a raw OverflowError in Event.wait (HTTP 500).
    with pytest.raises(ServiceError, match="'wait'") as caught:
        parse_wait(query)
    assert caught.value.status == 400


@pytest.mark.parametrize("query, seconds", [
    ("", None), ("wait=0", 0.0), ("wait=0.5", 0.5), ("wait=1e9", 1e9)])
def test_wait_query_is_a_finite_number_of_seconds(query, seconds):
    # The hold cap applies in JobService.wait, not here.
    assert parse_wait(query) == seconds


@pytest.mark.parametrize("text", [
    '{"intervals_ns": [["x", 2]]}',
    '{"intervals_ns": [1], "active_ns": "abc"}',
    '{"intervals_ns": [1], "active_ns": [1]}',
], ids=["trace-json-string-duration", "trace-json-string-active",
        "trace-json-list-active"])
def test_malformed_trace_raises_config_error(text):
    with pytest.raises(ConfigError):
        parse_trace(text)


PIECES = st.sampled_from([
    "*D_NET", "*PARAM", "*LEN", "*RTOT", "*DELAY", "*END", "create_clock",
    "-period", "-name", "-clock", "set_load", "set_input_transition",
    "set_input_delay", "[get_ports", "[all_inputs]", "[", "]", '"', "'",
    "\\", "#", "\n", " ", "0.5", "1e", "nan", "x", "module", "endmodule",
    "input", "output", "wire", ".", "(", ")", ";", ",", "=", ":", "{", "}",
    "/*", "*/", "//", "INPUT(", "OUTPUT(", "DFF", "NAND", "pin", "cell",
    "COMPONENTS", "END", "- ", "+ PLACED", "-1"])

EDITS = st.lists(st.tuples(st.integers(min_value=0, max_value=400),
                           st.integers(min_value=0, max_value=12),
                           st.one_of(PIECES, st.text(max_size=3))),
                 min_size=1, max_size=6)


#: (parser, valid seed text, the one error type it may raise).
TARGETS = [
    (parse_spef, SPEF, ParseError),
    (parse_sdc, SDC, ParseError),
    (parse_liberty, LIBERTY, ParseError),
    (parse_verilog, VERILOG, ParseError),
    (parse_bench, BENCH, ParseError),
    (functools.partial(parse_def, tech=None), DEF, ParseError),
    (parse_trace, TRACE_LINES, ConfigError),
    (parse_trace, TRACE_JSON, ConfigError),
    (parse_submission_body, SUBMISSION, ServiceError),
    (load_scenario_file, SCENARIO, ReproError),
    (parse_wait, "wait=0.5", ServiceError),
]


@settings(max_examples=400, deadline=None)
@given(target=st.sampled_from(TARGETS), edits=EDITS)
def test_property_only_parse_errors_escape(target, edits):
    parser, text, error = target
    for position, cut, piece in edits:
        position %= len(text) + 1
        text = text[:position] + piece + text[position + cut:]
    try:
        parser(text)
    except error:
        pass
