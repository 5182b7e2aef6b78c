"""Full-STA driver on the numpy backend.

:func:`run_full` performs one complete forward + backward propagation
through the array kernels and materializes the result in the scalar
engine's native shapes — a ``{net: NodeTiming}`` dict (in the exact
insertion order a scalar full run would produce) and the
``EndpointCheck`` list (same check order) — so
:class:`~repro.timing.session.TimingSession` can swap it in for its
scalar ``_full_run`` and every downstream consumer (the exact-cutoff
pass, path tracing, report rendering) keeps working
unchanged.  :func:`run_arrivals` is the forward half alone (required
times stay +inf), behind the session's arrivals-only ``wns()`` query.
"""

from __future__ import annotations

import numpy as np

from repro.compute.kernels import backward, forward
from repro.compute.view import NetlistArrayView
from repro.timing.sta import INF, EndpointCheck, NodeTiming


def run_arrivals(view: NetlistArrayView, derates) -> dict[str, NodeTiming]:
    """One forward propagation; returns the node dict, required +inf."""
    view.ensure()
    vec = view.derate_vector(derates)[None, :]
    return _materialize(view, forward(view, vec, track_winners=True))


def run_full(view: NetlistArrayView, derates
             ) -> tuple[dict[str, NodeTiming], list[EndpointCheck]]:
    """One full propagation; returns (node dict, endpoint checks)."""
    view.ensure()
    vec = view.derate_vector(derates)[None, :]
    fwd = forward(view, vec, track_winners=True)
    nodes = _materialize(view, fwd, backward(view, fwd, vec))
    return nodes, _endpoint_checks(view, nodes)


def _materialize(view: NetlistArrayView, fwd, required=None
                 ) -> dict[str, NodeTiming]:
    """Sample 0 of a forward state (and optionally its ``(req_rise,
    req_fall)``) as the scalar engine's node dict, in node order."""
    columns = [getattr(fwd, field)[0].tolist()
               for field in ("arr_rise", "arr_fall", "min_rise",
                             "min_fall", "slew_rise", "slew_fall")]
    if required is None:
        columns += [[INF] * len(view.node_names)] * 2
    else:
        columns += [req[0].tolist() for req in required]
    columns.append(_backrefs(view, fwd.win_rise, view.rise))
    columns.append(_backrefs(view, fwd.win_fall, view.fall))
    # NodeTiming's fields, positionally: arrivals, min arrivals, slews,
    # required times, backrefs.
    return dict(zip(view.node_names, map(NodeTiming, *columns)))


def _backrefs(view: NetlistArrayView, winners, stream) -> list:
    """Per node, ``(source net, instance)`` of its winning row of
    ``stream``, or None where no row won."""
    refs: list = [None] * len(winners)
    won = np.flatnonzero(winners >= 0)
    rows = winners[won]
    names, insts = view.node_names, view.inst_names
    for node, src, inst in zip(won.tolist(), stream.src[rows].tolist(),
                               stream.inst[rows].tolist()):
        refs[node] = (names[src], insts[inst])
    return refs


def _endpoint_checks(view: NetlistArrayView,
                     nodes: dict[str, NodeTiming]) -> list[EndpointCheck]:
    """Endpoint checks from materialized nodes, scalar arithmetic."""
    period = view.constraints.clock_period
    node_names = view.node_names
    checks: list[EndpointCheck] = []
    for k, port_name in enumerate(view.out_ep_names):
        entry = nodes[node_names[view.out_ep_node[k]]]
        wire = float(view.out_ep_wire[k])
        required = period - float(view.out_ep_delay[k]) - wire
        arrival = entry.arrival + wire
        checks.append(EndpointCheck(
            endpoint=port_name, kind="output",
            slack=required + wire - arrival,
            arrival=arrival, required=required + wire))
    for k, inst_name in enumerate(view.ff_ep_names):
        entry = nodes[node_names[view.ff_ep_node[k]]]
        wire = float(view.ff_ep_wire[k])
        capture = period + float(view.ff_ep_clk[k])
        setup = float(view.ff_ep_setup[k])
        hold = float(view.ff_ep_hold[k])
        arrival = entry.arrival + wire
        checks.append(EndpointCheck(
            endpoint=f"{inst_name}/D", kind="setup",
            slack=capture - setup - arrival,
            arrival=arrival, required=capture - setup))
        min_arrival = entry.min_arrival + wire
        hold_required = float(view.ff_ep_clk[k]) + hold
        checks.append(EndpointCheck(
            endpoint=f"{inst_name}/D", kind="hold",
            slack=min_arrival - hold_required,
            arrival=min_arrival, required=hold_required))
    return checks
