"""Incremental static timing: build once, edit, re-evaluate what changed.

A :class:`TimingSession` owns the expensive STA substrate — the
topological order, the per-net load/wire model, the compiled delay
arcs and the node-timing store — and keeps it alive across netlist
edits.  Edits are reported through the session
(:meth:`TimingSession.swap_variant`, :meth:`set_derates`,
:meth:`insert_buffer`, or the generic ``touch_*`` hooks), which marks
the instances whose timing they touch dirty.

Both queries share one forward pass with an exact cutoff: it
re-evaluates the dirty instances, then — in the cached topological
order — only instances with an input net whose timing changed.  When
an output's recomputed node equals the stored one (arrivals, slews,
min arrivals, backrefs), the stored node stays, required times
included, and the wave stops there.

* :meth:`wns` (what feasibility probes read) answers ``report().wns``
  from arrivals alone and leaves required times stale;
* :meth:`report` then resets and re-accumulates required times over
  the transitive fan-in of every net whose timing changed and of every
  dirty instance's pins since the last report — or runs one backward
  sweep (``sta.required``) when that region exceeds ``full_threshold``
  of the combinational instances, or when a full arrivals-only pass
  left every required time stale.  Endpoint checks are always
  regenerated (they are cheap and keep the check list bit-identical
  to a from-scratch run).

A full propagation runs only on a cold (or invalidated) session, or
when the dirt alone exceeds ``full_threshold`` of the combinational
instances — an O(1) check that fires for whole-design re-derates and
for a bisection's all-candidates probe (arrivals only for
:meth:`wns`).  Both passes are scalar on every compute backend: the
session is the one engine for design STA, and the array kernels of
:mod:`repro.compute` serve only batch axes (Monte-Carlo samples,
corners).

Each instance evaluation reads a **plan** compiled once per
(instance, cell): per output net, the input nets in pin order with
their wire delays, backrefs and compiled arcs (:meth:`_plan`).  A
variant swap selects another cell's plan; :meth:`touch_instance` drops
the instance's plans and every structure rebuild drops them all.  The
forward fold evaluates the arcs' located tables
(:meth:`~repro.liberty.library.Lut.located`) at one load location per
output net and one slew location per input edge; the backward fold
reuses an arc's last ``(slew, load)`` lookup when both match exactly.
The endpoint rows (net and wire delay per output port and flip-flop D
pin) are resolved once per structure build.

**Exactness contract**: the report produced after any tracked edit
sequence is bit-identical (not approximately equal) to the report a
fresh :class:`~repro.timing.sta.TimingAnalyzer` would produce on the
same netlist (and :meth:`wns` its ``wns``), because per-node values
are pure functions of their fan-in evaluated by the same code in the
same arc order — so a node whose fan-in and instance did not change
cannot change, which is also why the cutoff is exact.  Plans, located
tables and the backward memo only reuse values computed from equal
operands by the same operations.
``tests/timing/test_session.py`` enforces this on randomized edit
sequences and interleaved queries.

**Invalidation contract**: a report's ``node_timing`` shares state
with the session; treat a report as stale once further edits have been
applied *and* either :meth:`report` or :meth:`wns` has run again.
Untracked netlist mutations require :meth:`touch_structural` (tracked
dirt, rebuilt order) or :meth:`invalidate` (conservative full
re-propagation).
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from heapq import heappop, heappush
from typing import Mapping

from repro.errors import TimingError
from repro.liberty.library import SENSE_NEGATIVE, SENSE_POSITIVE, Library
from repro.netlist import transform
from repro.netlist.core import Instance, Net, Netlist, Pin
from repro.obs.spans import span
from repro.timing.constraints import Constraints
from repro.timing.delay import NetModel
from repro.timing.sta import (
    EndpointCheck,
    INF,
    NodeTiming,
    TimingReport,
    cell_constraint_value,
    timing_roles,
)


@dataclasses.dataclass
class SessionStats:
    """Work counters: how much propagation the session actually did."""

    sta_calls: int = 0            # report() and wns() invocations
    cached_reports: int = 0       # served with zero propagation
    full_runs: int = 0            # full propagations (incl. arrivals-only)
    incremental_runs: int = 0     # exact-cutoff propagations
    required_sweeps: int = 0      # whole-design required-time sweeps
    structure_builds: int = 0     # topo order / membership rebuilds
    forward_instances: int = 0    # instances actually forward-evaluated
    forward_instances_saved: int = 0   # instances a cutoff pass skipped

    @property
    def propagations(self) -> int:
        return self.full_runs + self.incremental_runs

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)

    def merge(self, other: "SessionStats") -> "SessionStats":
        for field in dataclasses.fields(SessionStats):
            setattr(self, field.name,
                    getattr(self, field.name) + getattr(other, field.name))
        return self


class TimingSession:
    """Incremental STA over one (netlist, constraints, parasitics) set."""

    def __init__(self, netlist: Netlist, library: Library,
                 constraints: Constraints,
                 parasitics: Mapping[str, object] | None = None,
                 derates: Mapping[str, float] | None = None,
                 clock_arrivals: Mapping[str, float] | None = None,
                 net_model: NetModel | None = None,
                 full_threshold: float = 0.5):
        self.netlist = netlist
        self.library = library
        self.constraints = constraints
        self.net_model = net_model or NetModel(netlist, library, constraints,
                                               parasitics)
        self.derates = dict(derates or {})
        self.clock_arrivals = dict(clock_arrivals or {})
        self.full_threshold = full_threshold
        self._roles = timing_roles(library)
        self._arcs = library.delay_arcs()
        #: Instance name -> cell name -> evaluation plan (:meth:`_plan`).
        self._plans: dict[str, dict[str, tuple]] = {}
        #: Flip-flop cell name -> (setup, hold) at the input slew.
        self._ff_checks: dict[str, tuple[float, float]] = {}
        self.stats = SessionStats()
        self._order: list[Instance] | None = None
        self._pos: dict[str, int] = {}        # instance -> topo position
        self._seq: list[Instance] = []        # flip-flops, netlist order
        #: Endpoint rows, resolved per structure build: (port name, net
        #: name, wire delay) per output port, (flip-flop, D net name,
        #: wire delay) per flip-flop.
        self._port_endpoints: list[tuple[str, str, float]] = []
        self._ff_endpoints: list[tuple[Instance, str, float]] = []
        self._membership: set[str] = set()
        self._comb_count = 0
        self._nodes: dict[str, NodeTiming] = {}
        self._report: TimingReport | None = None
        self._wns: float | None = None
        #: Nets whose fan-in has stale required times since the last
        #: report (None: every required time is stale).
        self._stale: set[str] | None = set()
        self._dirty_comb: set[str] = set()
        self._dirty_seq: set[str] = set()
        self._structural = True
        self._full_needed = True

    # --- classification helpers (see timing_roles) ------------------------

    def _is_seq(self, inst: Instance) -> bool:
        return self._roles.get(inst.cell_name, False)

    def _derate(self, inst: Instance) -> float:
        return self.derates.get(inst.name, 1.0)

    def _clock_arrival(self, inst: Instance) -> float:
        return self.clock_arrivals.get(inst.name, 0.0)

    # --- edit API ----------------------------------------------------------

    def swap_variant(self, inst: Instance, variant: str) -> Instance:
        """Re-bind ``inst`` to a sibling variant and track the dirt."""
        before_cell = inst.cell_name
        before = {name: pin.net for name, pin in inst.pins.items()}
        transform.swap_variant(self.netlist, inst, self.library, variant)
        if inst.cell_name == before_cell:
            return inst
        # Every net connected before or after the swap, each once.
        nets: dict[str, Net] = {}
        for pin_name, net in before.items():
            if net is None:
                continue
            if pin_name not in inst.pins:
                # A connected pin vanished: the dependency graph changed.
                self._structural = True
            nets[net.name] = net
        for pin in inst.pins.values():
            if pin.net is not None:
                nets[pin.net.name] = pin.net
        for net in nets.values():
            self.touch_net(net)
        self._mark_instance(inst)
        return inst

    def insert_buffer(self, net: Net, buffer_cell: str,
                      sinks: list[Pin] | None = None,
                      name_prefix: str = "buf") -> Instance:
        """Insert a buffer (see :func:`repro.netlist.transform.insert_buffer`)
        and track the structural dirt."""
        moved = list(net.sinks) if sinks is None else list(sinks)
        buffer_inst = transform.insert_buffer(
            self.netlist, net, buffer_cell, sinks=sinks,
            name_prefix=name_prefix)
        self._structural = True
        self.touch_net(net)
        self._mark_instance(buffer_inst)
        for pin in moved:
            self._mark_instance(pin.instance)
        return buffer_inst

    def set_derates(self, derates: Mapping[str, float] | None):
        """Replace the derate map, dirtying only instances that changed."""
        new = dict(derates or {})
        changed = set(new) ^ set(self.derates)
        changed |= {name for name in new
                    if name in self.derates and new[name] != self.derates[name]}
        for name in changed:
            inst = self.netlist.instances.get(name)
            if inst is not None:
                self._mark_instance(inst)
        self.derates = new

    def set_derate(self, name: str, derate: float):
        if self.derates.get(name, 1.0) == derate:
            return
        self.derates[name] = derate
        inst = self.netlist.instances.get(name)
        if inst is not None:
            self._mark_instance(inst)

    def touch_instance(self, inst: Instance | str):
        """Mark an instance's timing arcs / derate as changed (its
        evaluation plans are rebuilt)."""
        if isinstance(inst, str):
            found = self.netlist.instances.get(inst)
            if found is None:
                return
            inst = found
        self._plans.pop(inst.name, None)
        self._mark_instance(inst)

    def touch_net(self, net: Net | str):
        """Mark a net's load as changed (sinks / keepers / pin caps)."""
        if isinstance(net, str):
            found = self.netlist.nets.get(net)
            if found is None:
                return
            net = found
        self.net_model.invalidate(net)
        if net.driver is not None:
            self._mark_instance(net.driver.instance)

    def touch_structural(self):
        """The netlist graph changed shape but the dirt is tracked.

        Rebuilds the topological order and node membership on the next
        :meth:`report`; propagation stays incremental.
        """
        self._structural = True

    def invalidate(self):
        """Untracked edits happened: rebuild and re-propagate everything."""
        self._structural = True
        self._full_needed = True
        self.net_model.invalidate()

    def _mark_instance(self, inst: Instance):
        if self._full_needed:
            return   # the next query propagates everything anyway
        role = self._roles.get(inst.cell_name)
        if role is True:
            self._dirty_seq.add(inst.name)
        elif role is False:
            self._dirty_comb.add(inst.name)

    # --- main entry -------------------------------------------------------

    @property
    def dirty(self) -> bool:
        return bool(self._dirty_comb or self._dirty_seq
                    or self._structural or self._full_needed)

    def report(self) -> TimingReport:
        """Current-design timing, re-evaluating only what changed."""
        self.stats.sta_calls += 1
        if self._report is not None and not self.dirty:
            self.stats.cached_reports += 1
            return self._report
        self._refresh_structure()
        report = self._propagate(arrivals_only=False)
        self._settle(report.wns, report)
        return report

    def wns(self) -> float:
        """Worst setup slack — exactly :meth:`report`'s ``wns`` — from
        arrivals alone, leaving required times stale until the next
        :meth:`report`."""
        self.stats.sta_calls += 1
        if self._wns is not None and not self.dirty:
            self.stats.cached_reports += 1
            return self._wns
        self._refresh_structure()
        self._propagate(arrivals_only=True)
        wns = self._summarize(self._endpoint_pass(self._nodes),
                              self._nodes).wns
        self._settle(wns, None)
        return wns

    def _refresh_structure(self):
        if self._structural or self._order is None:
            self._build_structure()

    def _settle(self, wns: float, report: TimingReport | None):
        """Arrivals are current; required times too iff ``report``."""
        self._dirty_comb.clear()
        self._dirty_seq.clear()
        self._full_needed = False
        self._wns = wns
        self._report = report
        if report is not None:
            self._stale = set()

    def _propagate(self, arrivals_only: bool) -> TimingReport | None:
        """Bring arrivals — and required times, returning the report,
        unless ``arrivals_only`` — up to date: a full run on a cold
        session or when the dirt alone is over budget, the exact-cutoff
        pass otherwise."""
        dirt = len(self._dirty_comb) + len(self._dirty_seq)
        if self._full_needed \
                or dirt > self.full_threshold * max(self._comb_count, 1):
            return self._full_run(arrivals_only,
                                  escalated=not self._full_needed)
        with span("sta.incremental", arrivals_only=arrivals_only,
                  dirty_comb=len(self._dirty_comb),
                  dirty_seq=len(self._dirty_seq)) as sp:
            evaluated = self._forward()
            sp.set(evaluated=evaluated)
            self.stats.incremental_runs += 1
            self.stats.forward_instances += evaluated
            self.stats.forward_instances_saved += \
                self._comb_count - evaluated
            return None if arrivals_only else self._backward()

    # --- structure --------------------------------------------------------

    def _build_structure(self):
        """(Re)build the topological order, the node-domain set and
        the endpoint rows; drop every evaluation plan."""
        self.stats.structure_builds += 1
        self._plans.clear()
        self._order = self.netlist.topological_order(self._is_seq)
        self._pos = {inst.name: index
                     for index, inst in enumerate(self._order)}
        membership: set[str] = set()
        seq: list[Instance] = []
        comb = 0
        for port in self.netlist.input_ports():
            if port.net is not None:
                membership.add(port.net.name)
        for inst in self.netlist.instances.values():
            role = self._roles.get(inst.cell_name)
            if role:
                seq.append(inst)
                q_pin = inst.pins.get("Q")
                if q_pin is not None and q_pin.net is not None:
                    membership.add(q_pin.net.name)
            elif role is False:
                comb += 1
                arcs = self._arcs[inst.cell_name]
                for out_pin in inst.output_pins():
                    if out_pin.net is not None and out_pin.name in arcs:
                        membership.add(out_pin.net.name)
        self._membership = membership
        self._seq = seq
        self._comb_count = comb
        self._structural = False
        net_model = self.net_model
        self._port_endpoints = [
            (port.name, port.net.name,
             net_model.wire_delay_to_port(port.net, port.name))
            for port in self.netlist.output_ports() if port.net is not None]
        self._ff_endpoints = []
        for inst in seq:
            d_pin = inst.pins.get("D")
            if d_pin is not None and d_pin.net is not None:
                self._ff_endpoints.append(
                    (inst, d_pin.net.name,
                     net_model.wire_delay(d_pin.net, d_pin)))
        # Nets that left the domain must not shadow a fresh run's absence,
        # and their readers lost a source; nets that joined it need their
        # state (re)computed.
        for name in list(self._nodes):
            if name not in membership:
                del self._nodes[name]
                net = self.netlist.nets.get(name)
                for sink in net.sinks if net is not None else ():
                    self._mark_instance(sink.instance)
        if not self._full_needed:
            for name in membership:
                if name not in self._nodes:
                    self._adopt_net(name)

    def _adopt_net(self, net_name: str):
        """A net joined the node domain mid-session: dirty its producer."""
        net = self.netlist.nets.get(net_name)
        if net is None:
            return
        if net.driver is not None:
            self._mark_instance(net.driver.instance)
            return
        if net.driver_port is not None:
            # A new primary input: seed its startpoint and re-evaluate
            # its combinational sinks.
            entry = NodeTiming()
            constraints = self.constraints
            delay = constraints.input_delay_for(net.driver_port.name)
            entry.arr_rise = entry.arr_fall = delay
            min_delay = max(delay, constraints.input_delay_min)
            entry.min_rise = entry.min_fall = min_delay
            entry.slew_rise = entry.slew_fall = constraints.input_slew
            self._nodes[net_name] = entry
            for sink in net.sinks:
                if not self._is_seq(sink.instance):
                    self._mark_instance(sink.instance)

    # --- full propagation -------------------------------------------------

    def _full_run(self, arrivals_only: bool,
                  escalated: bool) -> TimingReport | None:
        """Propagate the whole design (``escalated``: because the dirt
        was over budget).  ``arrivals_only`` leaves every required time
        at +inf, stale until the next report, and returns no report."""
        self.stats.full_runs += 1
        self.stats.forward_instances += self._comb_count
        if arrivals_only:
            self._stale = None
        with span("sta.full_run", instances=self._comb_count,
                  arrivals_only=arrivals_only, escalated=escalated,
                  dirty_comb=len(self._dirty_comb),
                  dirty_seq=len(self._dirty_seq)):
            nodes: dict[str, NodeTiming] = {}
            self._nodes = nodes
            self._startpoint_ports(nodes)
            for inst in self._seq:
                self._startpoint_ff(inst, nodes)
            roles = self._roles
            for inst in self._order:
                if roles.get(inst.cell_name) is False:
                    self._forward_instance(inst, nodes)
            return None if arrivals_only else self._backward_sweep(nodes)

    def _required_sweep(self) -> TimingReport:
        """Recompute every required time over the current arrivals."""
        self.stats.required_sweeps += 1
        with span("sta.required", instances=self._comb_count):
            for entry in self._nodes.values():
                entry.req_rise = entry.req_fall = INF
            return self._backward_sweep(self._nodes)

    def _backward_sweep(self, nodes: dict[str, NodeTiming]) -> TimingReport:
        """Endpoint checks, then required times over the whole order."""
        checks = self._endpoint_pass(nodes)
        roles = self._roles
        for inst in reversed(self._order):
            if roles.get(inst.cell_name) is False:
                self._backward_instance(inst, nodes, None)
        return self._summarize(checks, nodes)

    # --- exact-cutoff propagation -----------------------------------------

    def _forward(self) -> int:
        """Re-evaluate what the dirt can change; returns how many
        instances were evaluated.

        Dirty flip-flops re-launch, then the dirty combinational
        instances and every reader of a net whose timing changed are
        re-evaluated once each, in topological order.  An output whose
        recomputed node equals the stored one keeps the stored node and
        queues no reader.  Every changed net, and every pin net of a
        dirty instance, joins the nets whose fan-in the next report
        refreshes.
        """
        nodes, nets = self._nodes, self.netlist.nets
        instances, roles, pos = self.netlist.instances, self._roles, self._pos
        stale: set[str] = set()
        wave: list[tuple[int, str]] = []
        queued: set[str] = set()

        def absorb(fresh: dict[str, NodeTiming]):
            for name, entry in fresh.items():
                old = nodes.get(name)
                if old is not None and _same_arrivals(old, entry):
                    continue
                nodes[name] = entry
                stale.add(name)
                for sink in nets[name].sinks:
                    reader = sink.instance
                    if sink.name != "MTE" and reader.name not in queued \
                            and roles.get(reader.cell_name) is False:
                        queued.add(reader.name)
                        heappush(wave, (pos[reader.name], reader.name))

        for name in self._dirty_seq:
            inst = instances.get(name)
            if inst is None or not roles.get(inst.cell_name):
                continue
            d_pin = inst.pins.get("D")
            if d_pin is not None and d_pin.net is not None:
                stale.add(d_pin.net.name)
            fresh: dict[str, NodeTiming] = {}
            self._startpoint_ff(inst, fresh)
            absorb(fresh)
        for name in self._dirty_comb:
            inst = instances.get(name)
            if inst is None or roles.get(inst.cell_name) is not False:
                continue
            for pin in inst.pins.values():
                if pin.net is not None and pin.name != "MTE":
                    stale.add(pin.net.name)
            if name not in queued:
                queued.add(name)
                heappush(wave, (pos[name], name))
        evaluated = 0
        while wave:
            fresh = {}
            self._forward_instance(instances[heappop(wave)[1]], fresh)
            absorb(fresh)
            evaluated += 1
        if self._stale is not None:
            self._stale |= stale
        return evaluated

    def _backward(self) -> TimingReport:
        """Required times after a cutoff pass: reset and re-accumulate
        them over the fan-in of the stale nets, or one sweep when that
        region is over budget or every required time is stale."""
        region = None if self._stale is None else self._fan_in(self._stale)
        if region is None:
            return self._required_sweep()
        back_nets, readers = region
        nodes = self._nodes
        for name in back_nets:
            entry = nodes.get(name)
            if entry is not None:
                entry.req_rise = entry.req_fall = INF
        checks = self._endpoint_pass(nodes)
        instances, pos = self.netlist.instances, self._pos
        for name in sorted(readers, key=pos.__getitem__, reverse=True):
            self._backward_instance(instances[name], nodes, back_nets)
        return self._summarize(checks, nodes)

    def _fan_in(self, seeds: set[str]):
        """``(nets, readers)``: the transitive fan-in of ``seeds`` within
        the node domain, and every combinational instance reading one
        of those nets.  None once the readers exceed ``full_threshold``
        of the combinational instances; they only grow, so the walk
        stops there."""
        nets, roles, membership = \
            self.netlist.nets, self._roles, self._membership
        budget = self.full_threshold * max(self._comb_count, 1)
        back_nets: set[str] = set()
        readers: set[str] = set()
        stack = [name for name in seeds if name in membership]
        while stack:
            name = stack.pop()
            if name in back_nets:
                continue
            back_nets.add(name)
            net = nets.get(name)
            if net is None:
                continue
            for sink in net.sinks:
                if sink.name != "MTE" \
                        and roles.get(sink.instance.cell_name) is False:
                    readers.add(sink.instance.name)
            if len(readers) > budget:
                return None
            driver = net.driver
            if driver is None \
                    or roles.get(driver.instance.cell_name) is not False:
                continue
            for pin in driver.instance.input_pins():
                source = pin.net
                if source is not None and pin.name != "MTE" \
                        and source.name in membership \
                        and source.name not in back_nets:
                    stack.append(source.name)
        return back_nets, readers

    # --- propagation primitives (shared by full and cutoff passes) --------

    @staticmethod
    def _node(nodes: dict[str, NodeTiming], net: Net) -> NodeTiming:
        entry = nodes.get(net.name)
        if entry is None:
            entry = NodeTiming()
            nodes[net.name] = entry
        return entry

    def _startpoint_ports(self, nodes: dict[str, NodeTiming]):
        constraints = self.constraints
        for port in self.netlist.input_ports():
            if port.net is None:
                continue
            entry = self._node(nodes, port.net)
            delay = constraints.input_delay_for(port.name)
            entry.arr_rise = entry.arr_fall = delay
            min_delay = max(delay, constraints.input_delay_min)
            entry.min_rise = entry.min_fall = min_delay
            entry.slew_rise = entry.slew_fall = constraints.input_slew

    def _startpoint_ff(self, inst: Instance, nodes: dict[str, NodeTiming]):
        q_pin = inst.pins.get("Q")
        if q_pin is None or q_pin.net is None:
            return
        compiled = self._arcs[inst.cell_name].get("Q", {}).get("CK")
        if compiled is None:
            raise TimingError(
                f"flip-flop {inst.cell_name} lacks CK->Q arc")
        load = self.net_model.total_load(q_pin.net)
        clk_slew = self.constraints.input_slew
        derate = self._derate(inst)
        rise, fall = compiled.arc.delay(clk_slew, load)
        srise, sfall = compiled.arc.output_slew(clk_slew, load)
        launch = self._clock_arrival(inst)
        entry = self._node(nodes, q_pin.net)
        entry.arr_rise = launch + rise * derate
        entry.arr_fall = launch + fall * derate
        entry.min_rise = entry.arr_rise
        entry.min_fall = entry.arr_fall
        entry.slew_rise = srise
        entry.slew_fall = sfall

    def _plan(self, inst: Instance) -> tuple:
        """The evaluation plan of ``inst`` bound to its current cell.

        Per output net with delay arcs, ``(net name, net, rows)``; per
        input pin with an arc into that output, in pin order, a row
        ``[input net name, wire delay, backref, compiled arc, backward
        memo]``.  The memo is the last ``(slew, load, rise, fall)`` the
        arc's delays were looked up at.  Built on first use and kept
        until the instance is touched or the structure is rebuilt; a
        variant swap selects another cell's plan.
        """
        by_cell = self._plans.get(inst.name)
        if by_cell is None:
            by_cell = self._plans[inst.name] = {}
        plan = by_cell.get(inst.cell_name)
        if plan is not None:
            return plan
        arcs = self._arcs[inst.cell_name]
        wire_delay = self.net_model.wire_delay
        inputs = [(pin.name, pin.net.name, wire_delay(pin.net, pin),
                   (pin.net.name, inst.name))
                  for pin in inst.input_pins()
                  if pin.net is not None and pin.name != "MTE"]
        plan = []
        for out_pin in inst.output_pins():
            per_input = arcs.get(out_pin.name)
            if out_pin.net is None or per_input is None:
                continue
            rows = []
            for pin_name, net_name, wire, backref in inputs:
                compiled = per_input.get(pin_name)
                if compiled is not None:
                    rows.append([net_name, wire, backref, compiled, _NO_MEMO])
            plan.append((out_pin.net.name, out_pin.net, tuple(rows)))
        plan = by_cell[inst.cell_name] = tuple(plan)
        return plan

    def _forward_instance(self, inst: Instance, nodes: dict[str, NodeTiming]):
        """Fold every delay arc of ``inst`` into its output nodes in
        ``nodes``, reading source timing from the session's nodes.

        The fold is inline — per forward contribution of each compiled
        arc (:meth:`~repro.liberty.library.Library.delay_arcs`), in
        fold order — so the arithmetic, its operand order and the
        strict-greater winner rule are the array kernels' too.  An arc
        with located tables (``axes``) locates the output load once per
        output net and each input slew once per edge, then runs
        :func:`~repro.liberty.library.segment_value`'s step on the
        delay and slew rows: the operations ``Lut.lookup`` runs.
        """
        plan = self._plan(inst)
        derate = self.derates.get(inst.name, 1.0)
        sources, total_load = self._nodes, self.net_model.total_load
        for out_name, out_net, rows in plan:
            load = total_load(out_net)
            entry = nodes.get(out_name)
            if entry is None:
                entry = nodes[out_name] = NodeTiming()
            load_axis = None
            for in_name, wire, backref, compiled, _ in rows:
                src = sources.get(in_name)
                if src is None or (src.arr_rise == -INF
                                   and src.arr_fall == -INF):
                    continue
                axes = compiled.axes
                if axes is None:
                    i_rise = f_rise = i_fall = f_fall = 0
                else:
                    slew_axis, axis = axes
                    if axis is not load_axis:
                        load_axis = axis
                        points, spans, last = axis
                        j = bisect_left(points, load, 1, last) - 1
                        span = spans[j]
                        fj = 0.0 if span <= 0.0 \
                            else (load - points[j]) / span
                    points, spans, last = slew_axis
                    x = src.slew_rise
                    i_rise = bisect_left(points, x, 1, last) - 1
                    span = spans[i_rise]
                    f_rise = 0.0 if span <= 0.0 \
                        else (x - points[i_rise]) / span
                    x = src.slew_fall
                    i_fall = bisect_left(points, x, 1, last) - 1
                    span = spans[i_fall]
                    f_fall = 0.0 if span <= 0.0 \
                        else (x - points[i_fall]) / span
                for target, edge, delay_lut, slew_lut, delay_rows, \
                        slew_rows in compiled.forward:
                    if edge:
                        in_arr, in_min, i, fi = \
                            src.arr_fall, src.min_fall, i_fall, f_fall
                    else:
                        in_arr, in_min, i, fi = \
                            src.arr_rise, src.min_rise, i_rise, f_rise
                    if delay_rows is None:
                        delay, slew = delay_lut.lookup_pair(
                            slew_lut, src.slew_fall if edge
                            else src.slew_rise, load)
                    else:
                        top, dtop, bottom, dbottom = delay_rows[i][j]
                        top = top + fj * dtop
                        delay = top + fi * (bottom + fj * dbottom - top)
                        if slew_rows is None:
                            slew = 0.0
                        else:
                            top, dtop, bottom, dbottom = slew_rows[i][j]
                            top = top + fj * dtop
                            slew = top + fi * (bottom + fj * dbottom - top)
                    delay = delay * derate
                    arrival = in_arr + wire + delay
                    minimum = in_min + wire + delay
                    if target:
                        if arrival > entry.arr_fall:
                            entry.arr_fall = arrival
                            entry.slew_fall = slew
                            entry.prev_fall = backref
                        if minimum < entry.min_fall:
                            entry.min_fall = minimum
                    else:
                        if arrival > entry.arr_rise:
                            entry.arr_rise = arrival
                            entry.slew_rise = slew
                            entry.prev_rise = backref
                        if minimum < entry.min_rise:
                            entry.min_rise = minimum

    def _endpoint_pass(self, nodes: dict[str, NodeTiming]
                       ) -> list[EndpointCheck]:
        """Endpoint checks + required-time seeding (idempotent re-apply)."""
        constraints = self.constraints
        period = constraints.clock_period
        checks: list[EndpointCheck] = []

        for port_name, net_name, wire in self._port_endpoints:
            entry = nodes.get(net_name)
            if entry is None:
                continue
            required = period - constraints.output_delay_for(port_name) - wire
            entry.req_rise = min(entry.req_rise, required)
            entry.req_fall = min(entry.req_fall, required)
            arrival = entry.arrival + wire
            checks.append(EndpointCheck(
                endpoint=port_name, kind="output",
                slack=required + wire - arrival,
                arrival=arrival, required=required + wire))

        for inst, net_name, wire in self._ff_endpoints:
            entry = nodes.get(net_name)
            if entry is None:
                continue
            capture = period + self._clock_arrival(inst)
            setup, hold = self._ff_constraints(inst.cell_name)
            required = capture - setup - wire
            entry.req_rise = min(entry.req_rise, required)
            entry.req_fall = min(entry.req_fall, required)
            arrival = entry.arrival + wire
            checks.append(EndpointCheck(
                endpoint=f"{inst.name}/D", kind="setup",
                slack=capture - setup - arrival,
                arrival=arrival, required=capture - setup))
            min_arrival = entry.min_arrival + wire
            hold_required = self._clock_arrival(inst) + hold
            checks.append(EndpointCheck(
                endpoint=f"{inst.name}/D", kind="hold",
                slack=min_arrival - hold_required,
                arrival=min_arrival, required=hold_required))
        return checks

    def _backward_instance(self, inst: Instance,
                           nodes: dict[str, NodeTiming],
                           restrict: set[str] | None):
        plan = self._plan(inst)
        derate = self.derates.get(inst.name, 1.0)
        total_load = self.net_model.total_load
        for out_name, out_net, rows in plan:
            out_entry = nodes.get(out_name)
            if out_entry is None:
                continue
            load = total_load(out_net)
            for row in rows:
                in_name, wire, _, compiled, memo = row
                src = nodes.get(in_name)
                if src is None \
                        or (restrict is not None and in_name not in restrict):
                    continue
                slew = max(src.slew_rise, src.slew_fall)
                if memo[0] == slew and memo[1] == load:
                    rise_d, fall_d = memo[2], memo[3]
                else:
                    rise_d, fall_d = compiled.arc.delay(slew, load)
                    row[4] = (slew, load, rise_d, fall_d)
                rise_d = rise_d * derate + wire
                fall_d = fall_d * derate + wire
                if compiled.sense == SENSE_POSITIVE:
                    src.req_rise = min(src.req_rise,
                                       out_entry.req_rise - rise_d)
                    src.req_fall = min(src.req_fall,
                                       out_entry.req_fall - fall_d)
                elif compiled.sense == SENSE_NEGATIVE:
                    src.req_rise = min(src.req_rise,
                                       out_entry.req_fall - fall_d)
                    src.req_fall = min(src.req_fall,
                                       out_entry.req_rise - rise_d)
                else:
                    worst_d = max(rise_d, fall_d)
                    worst_req = min(out_entry.req_rise, out_entry.req_fall)
                    src.req_rise = min(src.req_rise, worst_req - worst_d)
                    src.req_fall = min(src.req_fall, worst_req - worst_d)

    def _summarize(self, checks: list[EndpointCheck],
                   nodes: dict[str, NodeTiming]) -> TimingReport:
        setup_checks = [c for c in checks if c.kind in ("output", "setup")]
        hold_checks = [c for c in checks if c.kind == "hold"]
        wns = min((c.slack for c in setup_checks), default=INF)
        tns = sum(min(c.slack, 0.0) for c in setup_checks)
        hold_wns = min((c.slack for c in hold_checks), default=INF)
        hold_tns = sum(min(c.slack, 0.0) for c in hold_checks)
        critical = None
        if setup_checks:
            critical = min(setup_checks, key=lambda c: c.slack).endpoint
        return TimingReport(
            clock_period=self.constraints.clock_period,
            wns=wns, tns=tns,
            hold_wns=hold_wns, hold_tns=hold_tns,
            endpoint_checks=checks, node_timing=nodes,
            critical_endpoint=critical)

    def _ff_constraints(self, cell_name: str) -> tuple[float, float]:
        """(setup, hold) of a flip-flop cell, looked up once per cell."""
        found = self._ff_checks.get(cell_name)
        if found is None:
            cell = self.library.cell(cell_name)
            slew = self.constraints.input_slew
            found = self._ff_checks[cell_name] = (
                cell_constraint_value(cell, "setup", slew),
                cell_constraint_value(cell, "hold", slew))
        return found


#: A backward memo that matches no lookup (NaN equals nothing).
_NO_MEMO = (float("nan"), float("nan"), 0.0, 0.0)


def _same_arrivals(a: NodeTiming, b: NodeTiming) -> bool:
    """Equal forward timing: every field but the required times."""
    return (a.arr_rise == b.arr_rise and a.arr_fall == b.arr_fall
            and a.min_rise == b.min_rise and a.min_fall == b.min_fall
            and a.slew_rise == b.slew_rise and a.slew_fall == b.slew_fall
            and a.prev_rise == b.prev_rise and a.prev_fall == b.prev_fall)
