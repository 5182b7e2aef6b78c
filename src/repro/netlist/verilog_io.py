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

from repro.errors import ParseError
from repro.liberty.library import Library, PinDirection as LibPinDirection
from repro.netlist.core import Netlist, PinDirection, PortDirection

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*|[();.,#]|\S")


def _tokenize(text: str) -> list[str]:
    # Strip comments first.
    text = re.sub(r"//[^\n]*", " ", text)
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    return _TOKEN_RE.findall(text)


class _VerilogParser:
    def __init__(self, tokens: list[str], library: Library | None,
                 filename: str | None):
        self.tokens = tokens
        self.pos = 0
        self.library = library
        self.filename = filename

    def error(self, message: str) -> ParseError:
        return ParseError(message, filename=self.filename)

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
                names = self.parse_identifier_list(";")
                for name in names:
                    if token == "wire":
                        netlist.get_or_create_net(name)
                    else:
                        declared[name] = token
                # Create ports as soon as their direction is known.
                for name in names:
                    if token == "input":
                        netlist.add_input(name)
                    elif token == "output":
                        netlist.add_output(name)
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

        inst = netlist.add_instance(inst_name, cell_name)
        for pin_name, net_name in connections:
            direction = self._pin_direction(cell_name, pin_name, inst_name)
            keeper = direction == PinDirection.INOUT and pin_name == "Z"
            if keeper:
                # Output holders attach weakly to an already-driven net.
                netlist.connect(inst, pin_name, net_name,
                                PinDirection.INOUT, keeper=True)
            else:
                netlist.connect(inst, pin_name, net_name, direction)

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
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty verilog source", filename=filename)
    return _VerilogParser(tokens, library, filename).parse()


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
