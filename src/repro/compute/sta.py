"""Full-STA driver on the numpy backend.

:func:`run_full` performs one complete forward + backward propagation
through the array kernels and materializes the result in the scalar
engine's native shapes — a ``{net: NodeTiming}`` dict (in the exact
insertion order a scalar full run would produce) and the
``EndpointCheck`` list (same check order) — so
:class:`~repro.timing.session.TimingSession` can swap it in for its
scalar ``_full_run`` and every downstream consumer (incremental
re-propagation, path tracing, report rendering) keeps working
unchanged.  :func:`run_arrivals` is the forward half alone (required
times stay +inf), behind the session's arrivals-only ``wns()`` query.
"""

from __future__ import annotations

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
    req_fall)``) as the scalar engine's node dict."""
    arr_rise = fwd.arr_rise[0].tolist()
    arr_fall = fwd.arr_fall[0].tolist()
    min_rise = fwd.min_rise[0].tolist()
    min_fall = fwd.min_fall[0].tolist()
    slew_rise = fwd.slew_rise[0].tolist()
    slew_fall = fwd.slew_fall[0].tolist()
    win_rise = fwd.win_rise.tolist()
    win_fall = fwd.win_fall.tolist()
    if required is None:
        req_rise = req_fall = [INF] * len(arr_rise)
    else:
        req_rise, req_fall = (req[0].tolist() for req in required)

    node_names = view.node_names
    inst_names = view.inst_names
    rise_src, rise_inst = view.rise.src, view.rise.inst
    fall_src, fall_inst = view.fall.src, view.fall.inst

    nodes: dict[str, NodeTiming] = {}
    for idx, name in enumerate(node_names):
        entry = NodeTiming(
            arr_rise=arr_rise[idx], arr_fall=arr_fall[idx],
            min_rise=min_rise[idx], min_fall=min_fall[idx],
            slew_rise=slew_rise[idx], slew_fall=slew_fall[idx],
            req_rise=req_rise[idx], req_fall=req_fall[idx])
        row = win_rise[idx]
        if row >= 0:
            entry.prev_rise = (node_names[rise_src[row]],
                               inst_names[rise_inst[row]])
        row = win_fall[idx]
        if row >= 0:
            entry.prev_fall = (node_names[fall_src[row]],
                               inst_names[fall_inst[row]])
        nodes[name] = entry
    return nodes


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
