"""ISCAS-85/89 ``.bench`` format reader and writer.

The ``.bench`` format used by the ISCAS benchmark suites::

    # c17
    INPUT(1)
    INPUT(2)
    OUTPUT(22)
    10 = NAND(1, 3)
    22 = NAND(10, 16)
    G7 = DFF(G6)          # sequential (ISCAS-89)

The parser produces a netlist of *generic* gates — cell names such as
``NAND3``, ``INV``, ``DFF`` with pins ``A, B, C, ... -> Z`` (``D, CK ->
Q`` for flip-flops).  Binding to a concrete library (including
decomposing gates wider than the library supports) is done later by
:func:`repro.netlist.techmap.technology_map`.
"""

from __future__ import annotations

import re

from repro.errors import NetlistError, ParseError
from repro.netlist.core import Netlist, PinDirection

#: .bench gate keyword -> generic base name (arity appended for n-ary).
_GATE_MAP = {
    "AND": "AND",
    "NAND": "NAND",
    "OR": "OR",
    "NOR": "NOR",
    "XOR": "XOR",
    "XNOR": "XNOR",
    "NOT": "INV",
    "INV": "INV",
    "BUF": "BUF",
    "BUFF": "BUF",
    "DFF": "DFF",
}

_ASSIGN_RE = re.compile(
    r"^\s*([^=\s]+)\s*=\s*([A-Za-z]+)\s*\(([^)]*)\)\s*$")
_IO_RE = re.compile(r"^\s*(INPUT|OUTPUT)\s*\(([^)]*)\)\s*$", re.IGNORECASE)

#: Pin names for generic combinational gate inputs.
INPUT_PIN_NAMES = tuple("ABCDEFGHIJKLMNOP")


def sanitize_name(raw: str) -> str:
    """Make a .bench signal name a safe identifier.

    Purely numeric ISCAS names (c17's "22") get the conventional "N"
    prefix so they are valid Verilog identifiers.
    """
    name = re.sub(r"[^A-Za-z0-9_]", "_", raw.strip())
    if name and name[0].isdigit():
        name = f"N{name}"
    return name


def generic_gate_name(keyword: str, arity: int) -> str:
    """Generic cell name for a .bench gate (e.g. NAND/3 -> ``NAND3``)."""
    keyword = keyword.upper()
    if keyword not in _GATE_MAP:
        raise ParseError(f"unsupported .bench gate type {keyword!r}")
    base = _GATE_MAP[keyword]
    if base in ("INV", "BUF", "DFF"):
        return base
    return f"{base}{arity}"


def parse_bench(text: str, name: str = "bench",
                filename: str | None = None) -> Netlist:
    """Parse ``.bench`` source text into a generic-gate netlist."""
    netlist = Netlist(name)
    assignments: list[tuple[int, str, str, list[str]]] = []
    outputs: list[str] = []

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        io_match = _IO_RE.match(line)
        if io_match:
            direction, signal = io_match.groups()
            signal = sanitize_name(signal)
            if direction.upper() == "INPUT":
                try:
                    netlist.add_input(signal)
                except NetlistError as exc:
                    raise ParseError(str(exc), filename=filename,
                                     line=line_no) from exc
            else:
                outputs.append(signal)
            continue
        assign_match = _ASSIGN_RE.match(line)
        if assign_match:
            target, gate, operand_text = assign_match.groups()
            operands = [sanitize_name(op) for op in operand_text.split(",")
                        if op.strip()]
            if not operands:
                raise ParseError(f"gate with no operands: {line!r}",
                                 filename=filename, line=line_no)
            if gate.upper() not in _GATE_MAP:
                raise ParseError(f"unsupported .bench gate type {gate!r}",
                                 filename=filename, line=line_no)
            assignments.append((line_no, sanitize_name(target),
                                gate.upper(), operands))
            continue
        raise ParseError(f"unrecognized .bench line: {raw_line!r}",
                         filename=filename, line=line_no)

    for line_no, target, gate, operands in assignments:
        try:
            _add_gate(netlist, target, gate, operands)
        except (NetlistError, ParseError) as exc:
            raise ParseError(str(exc), filename=filename,
                             line=line_no) from exc

    for signal in outputs:
        _attach_output(netlist, signal)
    return netlist


def _add_gate(netlist: Netlist, target: str, gate: str,
              operands: list[str]):
    """Instantiate one ``target = GATE(operands)`` assignment."""
    if gate in ("NOT", "INV", "BUF", "BUFF") and len(operands) != 1:
        raise ParseError(
            f"{gate} takes exactly one operand, got {len(operands)}")
    if gate == "DFF":
        if len(operands) != 1:
            raise ParseError("DFF takes exactly one operand")
        inst = netlist.add_instance(f"ff_{target}", "DFF")
        netlist.connect(inst, "D", operands[0], PinDirection.INPUT)
        netlist.connect(inst, "CK", _clock_net(netlist), PinDirection.INPUT)
        netlist.connect(inst, "Q", target, PinDirection.OUTPUT)
        return
    if len(operands) > len(INPUT_PIN_NAMES):
        raise ParseError(
            f"gate with {len(operands)} inputs exceeds supported arity")
    inst = netlist.add_instance(f"g_{target}",
                                generic_gate_name(gate, len(operands)))
    for pin_name, operand in zip(INPUT_PIN_NAMES, operands):
        netlist.connect(inst, pin_name, operand, PinDirection.INPUT)
    netlist.connect(inst, "Z", target, PinDirection.OUTPUT)


def _attach_output(netlist: Netlist, signal: str):
    """Declare ``signal`` as a primary output of the design."""
    from repro.netlist.core import Port, PortDirection

    if signal in netlist.ports:
        # An output that is also an input: mirror through an alias net.
        port = Port(f"{signal}_out", PortDirection.OUTPUT)
        netlist.ports[port.name] = port
        net = netlist.get_or_create_net(signal)
        port.net = net
        net.sink_ports.append(port)
        return
    port = Port(signal, PortDirection.OUTPUT)
    netlist.ports[signal] = port
    net = netlist.get_or_create_net(signal)
    port.net = net
    net.sink_ports.append(port)


def _clock_net(netlist: Netlist):
    """The global clock net, creating the CLK input on first use."""
    if "CLK" not in netlist.ports:
        netlist.add_input("CLK")
    return netlist.net("CLK")


def parse_bench_file(path: str, name: str | None = None) -> Netlist:
    """Parse a ``.bench`` file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if name is None:
        name = path.rsplit("/", 1)[-1].removesuffix(".bench")
    return parse_bench(text, name=name, filename=path)


_GENERIC_TO_BENCH = {
    "INV": "NOT",
    "BUF": "BUFF",
}


def write_bench(netlist: Netlist) -> str:
    """Serialize a *generic-gate* netlist back to ``.bench`` text.

    Only generic gates (as produced by :func:`parse_bench` or the
    circuit generators) are supported; library-bound netlists should be
    written as Verilog instead.
    """
    lines = [f"# {netlist.name}"]
    for port in netlist.input_ports():
        if port.name == "CLK":
            continue  # implicit in .bench
        lines.append(f"INPUT({port.name})")
    for port in netlist.output_ports():
        target = port.net.name if port.net is not None else port.name
        lines.append(f"OUTPUT({target})")
    for inst in netlist.instances.values():
        out_pin = inst.single_output()
        if out_pin.net is None:
            continue
        target = out_pin.net.name
        base = inst.cell_name.rstrip("0123456789")
        keyword = _GENERIC_TO_BENCH.get(base, base)
        if inst.cell_name == "DFF":
            d_net = inst.pin("D").net
            lines.append(f"{target} = DFF({d_net.name if d_net else '?'})")
            continue
        operands = []
        for pin in inst.input_pins():
            if pin.name == "CK" or pin.net is None:
                continue
            operands.append(pin.net.name)
        lines.append(f"{target} = {keyword}({', '.join(operands)})")
    return "\n".join(lines) + "\n"
