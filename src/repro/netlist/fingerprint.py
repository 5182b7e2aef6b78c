"""Content fingerprint of a netlist.

Lives at the netlist layer (not :mod:`repro.api`) so low-level
consumers can key per-design artifacts without importing the API
package.  :mod:`repro.api.workspace` re-exports it unchanged.
"""

from __future__ import annotations

import hashlib

from repro.netlist.core import Netlist


def netlist_fingerprint(netlist: Netlist) -> str:
    """Content hash of a netlist: ports, instances, connectivity.

    Independent of construction order (instances and pins are visited
    sorted) and of the netlist's display name, so the same circuit
    loaded twice — or under two aliases — shares every per-design
    cache.
    """
    # One joined buffer per netlist, not one hash update per line: on
    # 50k-instance designs the per-call overhead of ~200k tiny updates
    # is most of the fingerprint cost (the byte stream is unchanged).
    lines: list[str] = []
    for port in sorted(netlist.ports):
        direction = netlist.ports[port].direction
        lines.append(f"port {port} {direction.value}\n")
    for name in sorted(netlist.instances):
        inst = netlist.instances[name]
        lines.append(f"inst {name} {inst.cell_name}\n")
        for pin_name in sorted(inst.pins):
            pin = inst.pins[pin_name]
            net = pin.net.name if pin.net is not None else ""
            lines.append(f"pin {pin_name} {net}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()
