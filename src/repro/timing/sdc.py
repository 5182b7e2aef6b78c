"""SDC (Synopsys Design Constraints) subset reader/writer.

Supported commands — the set the flow itself needs::

    create_clock -period 2.0 -name core_clock [get_ports CLK]
    set_input_delay 0.1 [get_ports A]
    set_input_delay -clock core_clock 0.1 [all_inputs]
    set_output_delay 0.2 [get_ports Z]
    set_load 0.004 [get_ports Z]
    set_input_transition 0.05 [all_inputs]

Everything else raises :class:`~repro.errors.ParseError` (explicit is
better than silently ignoring constraints), as does malformed input;
each error carries the offending line number.
"""

from __future__ import annotations

import re
import shlex

from repro.errors import ParseError
from repro.timing.constraints import Constraints

_BRACKET_RE = re.compile(r"\[([^\]]*)\]")


def _number(token: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"expected a number, got {token!r}",
                         line=line_no) from None


def _value_after(tokens: list[str], i: int, line_no: int) -> str:
    """The value following ``tokens[i]`` on the same line."""
    if i + 1 >= len(tokens):
        raise ParseError(f"{tokens[i]} needs a value", line=line_no)
    return tokens[i + 1]


def _parse_target(tokens: list[str],
                  line_no: int) -> tuple[str, list[str]]:
    """Interpret a bracketed object query: returns (kind, names)."""
    text = " ".join(tokens)
    match = _BRACKET_RE.search(text)
    if match is None:
        raise ParseError(f"expected [get_ports ...] in: {text!r}",
                         line=line_no)
    inner = match.group(1).split()
    if not inner:
        raise ParseError(f"empty object query in: {text!r}", line=line_no)
    command = inner[0]
    if command == "get_ports":
        return "ports", inner[1:]
    if command == "all_inputs":
        return "all_inputs", []
    if command == "all_outputs":
        return "all_outputs", []
    raise ParseError(f"unsupported object query {command!r}",
                     line=line_no)


def parse_sdc(text: str, default_period: float = 10.0) -> Constraints:
    """Parse SDC text into a :class:`Constraints` object."""
    constraints = Constraints(clock_period=default_period)
    seen_clock = False

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        # shlex chokes on brackets; protect them.
        try:
            tokens = shlex.split(
                line.replace("[", " [ ").replace("]", " ] "))
        except ValueError as exc:     # e.g. an unbalanced quote
            raise ParseError(f"{exc} in SDC line: {line!r}",
                             line=line_no) from None
        # Re-join bracket groups.
        joined: list[str] = []
        depth = 0
        buffer: list[str] = []
        for token in tokens:
            if token == "[":
                depth += 1
                buffer.append(token)
            elif token == "]":
                depth -= 1
                buffer.append(token)
                if depth == 0:
                    joined.append(" ".join(buffer))
                    buffer = []
            elif depth > 0:
                buffer.append(token)
            else:
                joined.append(token)
        if depth != 0:
            raise ParseError(f"unbalanced brackets in SDC line: {line!r}",
                             line=line_no)
        tokens = joined
        command = tokens[0]

        if command == "create_clock":
            period = None
            port = "CLK"
            i = 1
            while i < len(tokens):
                if tokens[i] == "-period":
                    period = _number(_value_after(tokens, i, line_no),
                                     line_no)
                    i += 2
                elif tokens[i] == "-name":
                    i += 2
                elif tokens[i].startswith("["):
                    kind, names = _parse_target([tokens[i]], line_no)
                    if kind == "ports" and names:
                        port = names[0]
                    i += 1
                else:
                    raise ParseError(
                        f"unsupported create_clock argument {tokens[i]!r}",
                        line=line_no)
            if period is None:
                raise ParseError("create_clock requires -period",
                                 line=line_no)
            constraints.clock_period = period
            constraints.clock_port = port
            seen_clock = True
        elif command in ("set_input_delay", "set_output_delay"):
            value = None
            target = None
            i = 1
            while i < len(tokens):
                if tokens[i] == "-clock":
                    i += 2
                elif tokens[i].startswith("["):
                    target = _parse_target([tokens[i]], line_no)
                    i += 1
                else:
                    value = _number(tokens[i], line_no)
                    i += 1
            if value is None or target is None:
                raise ParseError(f"malformed {command}: {line!r}",
                                 line=line_no)
            kind, names = target
            if command == "set_input_delay":
                if kind == "all_inputs":
                    constraints.input_delay = value
                else:
                    for name in names:
                        constraints.input_delays[name] = value
            else:
                if kind == "all_outputs":
                    constraints.output_delay = value
                else:
                    for name in names:
                        constraints.output_delays[name] = value
        elif command == "set_load":
            value = _number(_value_after(tokens, 0, line_no), line_no)
            kind, names = _parse_target(tokens[2:], line_no)
            if kind == "all_outputs":
                constraints.output_load = value
            else:
                for name in names:
                    constraints.output_loads[name] = value
        elif command == "set_input_transition":
            constraints.input_slew = _number(
                _value_after(tokens, 0, line_no), line_no)
        else:
            raise ParseError(f"unsupported SDC command {command!r}",
                             line=line_no)

    if not seen_clock:
        raise ParseError("SDC file defines no clock (create_clock missing)")
    return constraints


def write_sdc(constraints: Constraints) -> str:
    """Render constraints back to SDC text."""
    lines = [
        f"create_clock -period {constraints.clock_period:.6g} -name clk "
        f"[get_ports {constraints.clock_port}]",
        f"set_input_transition {constraints.input_slew:.6g} [all_inputs]",
    ]
    if constraints.input_delay:
        lines.append(f"set_input_delay {constraints.input_delay:.6g} "
                     f"[all_inputs]")
    if constraints.output_delay:
        lines.append(f"set_output_delay {constraints.output_delay:.6g} "
                     f"[all_outputs]")
    if constraints.output_load:
        lines.append(f"set_load {constraints.output_load:.6g} [all_outputs]")
    for port, value in sorted(constraints.input_delays.items()):
        lines.append(f"set_input_delay {value:.6g} [get_ports {port}]")
    for port, value in sorted(constraints.output_delays.items()):
        lines.append(f"set_output_delay {value:.6g} [get_ports {port}]")
    for port, value in sorted(constraints.output_loads.items()):
        lines.append(f"set_load {value:.6g} [get_ports {port}]")
    return "\n".join(lines) + "\n"
