"""Structural Verilog subset reader and writer.

Supports the flat gate-level style every EDA tool exchanges::

    module c17 (N1, N2, N22);
      input N1, N2;
      output N22;
      wire n10;
      NAND2_X1_LVT g_10 (.A(N1), .B(N2), .Z(n10));
      ...
    endmodule

Restrictions (documented, validated): one module per file, named port
connections only, scalar nets (no buses), no behavioral constructs.
These match what the flow itself emits, so write/parse round trips.
"""

from __future__ import annotations

import re

from repro.errors import LibertyError, NetlistError, ParseError
from repro.liberty.library import Library, PinDirection as LibPinDirection
from repro.netlist.core import Netlist, PinDirection, PortDirection

#: A comment (skipped) or one token (group 1).
_TOKEN_RE = re.compile(
    r"//[^\n]*|/\*.*?\*/|([A-Za-z_][A-Za-z0-9_$]*|[();.,#]|\S)",
    re.DOTALL)


def _tokenize(text: str) -> tuple[list[str], list[int]]:
    """Tokens, comments skipped, and the line each token starts on."""
    tokens: list[str] = []
    lines: list[int] = []
    line, scanned = 1, 0
    for match in _TOKEN_RE.finditer(text):
        token = match.group(1)
        if token is None:
            continue
        line += text.count("\n", scanned, match.start())
        scanned = match.start()
        tokens.append(token)
        lines.append(line)
    return tokens, lines


class _VerilogParser:
    def __init__(self, tokens: list[str], lines: list[int],
                 library: Library | None, filename: str | None):
        self.tokens = tokens
        self.lines = lines
        self.pos = 0
        self.library = library
        self.filename = filename

    def error(self, message: str, line: int | None = None) -> ParseError:
        """A ParseError at ``line`` (default: the last token read)."""
        if line is None:
            line = self.lines[max(self.pos - 1, 0)]
        return ParseError(message, filename=self.filename, line=line)

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> str:
        if self.pos >= len(self.tokens):
            raise self.error("unexpected end of file")
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, token: str):
        found = self.advance()
        if found != token:
            raise self.error(f"expected {token!r}, found {found!r}")

    def parse_identifier_list(self, terminator: str) -> list[str]:
        names = []
        while True:
            token = self.advance()
            if token == terminator:
                return names
            if token == ",":
                continue
            names.append(token)

    def parse(self) -> Netlist:
        self.expect("module")
        module_name = self.advance()
        netlist = Netlist(module_name)
        self.expect("(")
        port_order = self.parse_identifier_list(")")
        self.expect(";")

        declared: dict[str, str] = {}
        while True:
            token = self.peek()
            if token is None:
                raise self.error("missing endmodule")
            if token == "endmodule":
                self.advance()
                break
            if token in ("input", "output", "wire"):
                self.advance()
                line = self.lines[self.pos - 1]
                names = self.parse_identifier_list(";")
                for name in names:
                    if token == "wire":
                        netlist.get_or_create_net(name)
                    else:
                        declared[name] = token
                # Create ports as soon as their direction is known.
                try:
                    for name in names:
                        if token == "input":
                            netlist.add_input(name)
                        elif token == "output":
                            netlist.add_output(name)
                except NetlistError as exc:
                    raise self.error(str(exc), line) from exc
                continue
            self.parse_instance(netlist)

        missing = [p for p in port_order if p not in netlist.ports]
        if missing:
            raise self.error(
                f"ports {missing} listed in header but never declared "
                f"input/output")
        return netlist

    def parse_instance(self, netlist: Netlist):
        cell_name = self.advance()
        line = self.lines[self.pos - 1]
        inst_name = self.advance()
        self.expect("(")
        connections: list[tuple[str, str]] = []
        while True:
            token = self.advance()
            if token == ")":
                break
            if token == ",":
                continue
            if token != ".":
                raise self.error(
                    f"only named connections supported; found {token!r} in "
                    f"instance {inst_name}")
            pin_name = self.advance()
            self.expect("(")
            net_name = self.advance()
            self.expect(")")
            connections.append((pin_name, net_name))
        self.expect(";")

        try:
            inst = netlist.add_instance(inst_name, cell_name)
            for pin_name, net_name in connections:
                direction = self._pin_direction(cell_name, pin_name,
                                                inst_name)
                keeper = direction == PinDirection.INOUT and pin_name == "Z"
                if keeper:
                    # Output holders attach weakly to an already-driven
                    # net.
                    netlist.connect(inst, pin_name, net_name,
                                    PinDirection.INOUT, keeper=True)
                else:
                    netlist.connect(inst, pin_name, net_name, direction)
        except (NetlistError, LibertyError) as exc:
            raise self.error(str(exc), line) from exc

    def _pin_direction(self, cell_name: str, pin_name: str,
                       inst_name: str) -> PinDirection:
        if self.library is not None and cell_name in self.library:
            lib_pin = self.library.cell(cell_name).pin(pin_name)
            return PinDirection(lib_pin.direction.value) \
                if lib_pin.direction != LibPinDirection.INTERNAL \
                else PinDirection.INPUT
        # Heuristic for unbound netlists: Z/Q/VGND drive, the rest sink.
        if pin_name in ("Z", "Q", "Y"):
            return PinDirection.OUTPUT
        if pin_name == "VGND":
            return PinDirection.INOUT
        return PinDirection.INPUT


def parse_verilog(text: str, library: Library | None = None,
                  filename: str | None = None) -> Netlist:
    """Parse structural Verilog into a netlist.

    When ``library`` is given, pin directions come from the library;
    otherwise a naming heuristic (Z/Q/Y outputs) is used.
    """
    tokens, lines = _tokenize(text)
    if not tokens:
        raise ParseError("empty verilog source", filename=filename)
    return _VerilogParser(tokens, lines, library, filename).parse()


def write_verilog(netlist: Netlist) -> str:
    """Serialize a netlist to structural Verilog."""
    lines: list[str] = []
    port_names = list(netlist.ports)
    lines.append(f"module {netlist.name} ({', '.join(port_names)});")
    inputs = [p.name for p in netlist.input_ports()]
    outputs = [p.name for p in netlist.output_ports()]
    if inputs:
        lines.append(f"  input {', '.join(inputs)};")
    if outputs:
        lines.append(f"  output {', '.join(outputs)};")
    port_nets = {p.net.name for p in netlist.ports.values()
                 if p.net is not None}
    wires = [name for name in netlist.nets if name not in port_nets]
    if wires:
        lines.append(f"  wire {', '.join(wires)};")
    for inst in netlist.instances.values():
        conns = ", ".join(
            f".{pin.name}({pin.net.name})"
            for pin in inst.pins.values() if pin.net is not None)
        lines.append(f"  {inst.cell_name} {inst.name} ({conns});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
