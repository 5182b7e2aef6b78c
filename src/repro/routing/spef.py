"""SPEF-subset writer and reader.

The paper's flow re-optimizes the switch structure "based on post-route
information (SPEF)"; we honour the interface by serializing extracted
parasitics to a SPEF-style exchange format and reading them back::

    *SPEF "IEEE 1481-1998"
    *DESIGN c880
    *T_UNIT 1 NS
    *C_UNIT 1 PF
    *R_UNIT 1 KOHM

    *D_NET n42 0.00234
    *CONN
    *I g_10/Z O
    *I g_55/A I
    *RES
    1 g_10/Z g_55/A 0.104
    *DELAY
    1 g_55/A 0.00021
    *END

(The *DELAY section is our extension carrying precomputed Elmore sink
delays, so a reader does not need the full RC network to use the data.)
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.routing.extract import NetParasitics


def write_spef(parasitics: dict[str, NetParasitics],
               design_name: str = "design") -> str:
    """Serialize parasitics to SPEF text."""
    lines = [
        '*SPEF "IEEE 1481-1998"',
        f"*DESIGN {design_name}",
        "*T_UNIT 1 NS",
        "*C_UNIT 1 PF",
        "*R_UNIT 1 KOHM",
        "",
    ]
    for name in sorted(parasitics):
        net = parasitics[name]
        lines.append(f"*D_NET {name} {net.total_cap_pf:.6g}")
        lines.append("*PARAM")
        lines.append(f"*LEN {net.length_um:.6g}")
        lines.append(f"*RTOT {net.total_res_kohm:.6g}")
        if net.sink_delays:
            lines.append("*DELAY")
            for index, (sink, delay) in enumerate(
                    sorted(net.sink_delays.items()), start=1):
                lines.append(f"{index} {sink} {delay:.6g}")
        lines.append("*END")
        lines.append("")
    return "\n".join(lines)


def _number(token: str, what: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"non-numeric {what}: {token!r}",
                         line=line_no) from None


def _param(line: str, line_no: int) -> float:
    """The value of a ``*PARAM`` entry such as ``*LEN 12.5``."""
    parts = line.split()
    if len(parts) < 2:
        raise ParseError(f"{parts[0]} needs a value", line=line_no)
    return _number(parts[1], parts[0], line_no)


def parse_spef(text: str) -> dict[str, NetParasitics]:
    """Parse SPEF text produced by :func:`write_spef`.

    Malformed input raises :class:`~repro.errors.ParseError` carrying
    the offending line number.
    """
    parasitics: dict[str, NetParasitics] = {}
    current: NetParasitics | None = None
    section = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("//"):
            continue
        if line.startswith("*D_NET"):
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(f"malformed *D_NET line: {line!r}",
                                 line=line_no)
            current = NetParasitics(
                net_name=parts[1],
                total_cap_pf=_number(parts[2], "*D_NET capacitance",
                                     line_no),
                total_res_kohm=0.0, length_um=0.0)
            section = None
            continue
        if line.startswith("*END"):
            if current is not None:
                parasitics[current.net_name] = current
            current = None
            section = None
            continue
        if line.startswith("*PARAM"):
            section = "param"
            continue
        if line.startswith("*DELAY"):
            section = "delay"
            continue
        if line.startswith("*LEN") and current is not None:
            current.length_um = _param(line, line_no)
            continue
        if line.startswith("*RTOT") and current is not None:
            current.total_res_kohm = _param(line, line_no)
            continue
        if line.startswith("*"):
            continue  # header / ignored sections
        if current is not None and section == "delay":
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(f"malformed delay entry: {line!r}",
                                 line=line_no)
            current.sink_delays[parts[1]] = _number(
                parts[2], "*DELAY value", line_no)
    return parasitics
