"""Incremental static timing: build once, edit, re-propagate cones.

A :class:`TimingSession` owns the expensive STA substrate — the
topological order, the per-net load/wire model and the node-timing
store — and keeps it alive across netlist edits.  Edits are reported
through the session (:meth:`TimingSession.swap_variant`,
:meth:`set_derates`, :meth:`insert_buffer`, or the generic ``touch_*``
hooks); :meth:`report` then re-propagates only the affected region:

* **forward** (arrivals, slews, hold arrivals): the combinational
  fan-out cone of every dirty instance is reset and re-evaluated in the
  cached topological order;
* **backward** (required times): the transitive fan-in of the changed
  region is reset and re-accumulated, reading cached values at the
  clean frontier;
* endpoint checks are always regenerated (they are cheap and make the
  report's check list bit-identical to a from-scratch run).

:meth:`wns` (what feasibility probes read) answers ``report().wns``
from the forward cone alone and leaves required times stale; the next
:meth:`report` recomputes them in one backward sweep.  A forward cone
over ``full_threshold`` of the combinational instances — or, for a
report, cone plus backward region over twice that — escalates to a
full propagation over the cached structures (arrivals only for
:meth:`wns`): incremental STA must never be slower than the rebuild it
replaces.  With ``compute_backend="numpy"`` that full-propagation path
runs on the vectorized array kernels of :mod:`repro.compute` (the
scalar cone-limited path composes with it unchanged, reading the node
store the kernels materialize); see ARCHITECTURE.md "Compute
backends" for the equivalence and invalidation contracts.

**Exactness contract**: the report produced after any tracked edit
sequence is bit-identical (not approximately equal) to the report a
fresh :class:`~repro.timing.sta.TimingAnalyzer` would produce on the
same netlist (and :meth:`wns` its ``wns``), because per-node values
are pure functions of their fan-in evaluated by the same code in the
same arc order.  ``tests/timing/test_session.py`` enforces this on
randomized edit sequences and interleaved queries.

**Invalidation contract**: a report's ``node_timing`` shares state
with the session; treat a report as stale once further edits have been
applied *and* either :meth:`report` or :meth:`wns` has run again.
Untracked netlist mutations require :meth:`touch_structural` (tracked
dirt, rebuilt order) or :meth:`invalidate` (conservative full
re-propagation).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Mapping

from repro.errors import TimingError
from repro.liberty.library import Library, TimingArc
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
    incremental_runs: int = 0     # cone-limited propagations
    required_sweeps: int = 0      # whole-design required-time sweeps
    structure_builds: int = 0     # topo order / membership rebuilds
    forward_instances: int = 0    # instances actually forward-evaluated
    forward_instances_saved: int = 0   # clean instances skipped

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
                 full_threshold: float = 0.5,
                 compute_backend: str | None = None):
        from repro.compute import resolve_backend

        self.netlist = netlist
        self.library = library
        self.constraints = constraints
        self.net_model = net_model or NetModel(netlist, library, constraints,
                                               parasitics)
        self.derates = dict(derates or {})
        self.clock_arrivals = dict(clock_arrivals or {})
        self.full_threshold = full_threshold
        self._roles = timing_roles(library)
        #: Which engine runs full propagations ("python" | "numpy").
        #: Incremental cone re-propagation is always scalar; the numpy
        #: backend accelerates the full-run path (the expensive case:
        #: fresh analyses and whole-design derate updates).
        self.compute_backend = resolve_backend(compute_backend)
        self._view = None
        self.stats = SessionStats()
        self._order: list[Instance] | None = None
        self._membership: set[str] = set()
        self._comb_count = 0
        self._nodes: dict[str, NodeTiming] = {}
        self._report: TimingReport | None = None
        self._wns: float | None = None
        #: Arrivals are current but required times stale (since wns()).
        self._arrivals_only = False
        self._dirty_comb: set[str] = set()
        self._dirty_seq: set[str] = set()
        self._structural = True
        self._full_needed = True

    # --- classification helpers (see timing_roles) ------------------------

    def _is_seq(self, inst: Instance) -> bool:
        return self._roles.get(inst.cell_name, False)

    def _skip_cell(self, inst: Instance) -> bool:
        return inst.cell_name not in self._roles

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
        for pin_name, net in before.items():
            if net is None:
                continue
            if pin_name not in inst.pins:
                # A connected pin vanished: the dependency graph changed.
                self._structural = True
            self.touch_net(net)
        for pin in inst.pins.values():
            if pin.net is not None:
                self.touch_net(pin.net)
        self._mark_instance(inst)
        if self._view is not None:
            self._view.touch_instance(inst.name)
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
        """Mark an instance's timing arcs / derate as changed."""
        if isinstance(inst, str):
            found = self.netlist.instances.get(inst)
            if found is None:
                return
            inst = found
        self._mark_instance(inst)
        if self._view is not None:
            self._view.touch_instance(inst.name)

    def touch_net(self, net: Net | str):
        """Mark a net's load as changed (sinks / keepers / pin caps)."""
        if isinstance(net, str):
            found = self.netlist.nets.get(net)
            if found is None:
                return
            net = found
        self.net_model.invalidate(net)
        if self._view is not None:
            self._view.touch_net(net.name)
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
        """Current-design timing, re-propagating only what changed."""
        self.stats.sta_calls += 1
        if self._report is not None and not self.dirty:
            self.stats.cached_reports += 1
            return self._report
        self._refresh_structure()
        if self._full_needed:
            report = self._full_run()
        elif self._arrivals_only:
            # Required times went stale at the last wns(): forward the
            # new dirt like wns() does, then one backward sweep.
            self._propagate_arrivals()
            report = self._required_sweep()
        else:
            # An incremental pass that blows its cone budget escalates
            # to _full_run() internally; the trace shows that as an
            # sta.full_run span (escalated=True) nested under this one.
            with span("sta.incremental", arrivals_only=False,
                      dirty_comb=len(self._dirty_comb),
                      dirty_seq=len(self._dirty_seq)):
                report = self._incremental_run()
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
        self._propagate_arrivals()
        wns = self._summarize(self._endpoint_pass(self._nodes),
                              self._nodes).wns
        self._settle(wns, None)
        return wns

    def _refresh_structure(self):
        if self._structural and self._view is not None:
            self._view.touch_structural()
        if self._structural or self._order is None:
            self._build_structure()

    def _settle(self, wns: float, report: TimingReport | None):
        """Arrivals are current; required times too iff ``report``."""
        self._dirty_comb.clear()
        self._dirty_seq.clear()
        self._full_needed = False
        self._wns = wns
        self._report = report
        self._arrivals_only = report is None

    def _propagate_arrivals(self):
        """Re-evaluate the dirty forward cone, or every arrival when the
        cone is over budget; required times are left as they are."""
        if self._full_needed:
            self._full_run(arrivals_only=True)
            return
        if not (self._dirty_comb or self._dirty_seq):
            return
        with span("sta.incremental", arrivals_only=True,
                  dirty_comb=len(self._dirty_comb),
                  dirty_seq=len(self._dirty_seq)):
            walk = self._forward_cone()
            if walk is None:
                self._full_run(arrivals_only=True, escalated=True)
            else:
                self._forward_region(walk)

    # --- structure --------------------------------------------------------

    def _build_structure(self):
        """(Re)build the topological order and the node-domain set."""
        self.stats.structure_builds += 1
        self._order = self.netlist.topological_order(self._is_seq)
        if self._view is not None:
            self._view.use_order(self._order)
        membership: set[str] = set()
        comb = 0
        for port in self.netlist.input_ports():
            if port.net is not None:
                membership.add(port.net.name)
        for inst in self.netlist.instances.values():
            if self._is_seq(inst):
                q_pin = inst.pins.get("Q")
                if q_pin is not None and q_pin.net is not None:
                    membership.add(q_pin.net.name)
                continue
            if self._skip_cell(inst):
                continue
            comb += 1
            cell = self.library.cell(inst.cell_name)
            for out_pin in inst.output_pins():
                if out_pin.net is not None and out_pin.name in cell.pins:
                    membership.add(out_pin.net.name)
        self._membership = membership
        self._comb_count = comb
        self._structural = False
        # Nets that left the domain must not shadow a fresh run's absence;
        # nets that joined it need their state (re)computed.
        for name in list(self._nodes):
            if name not in membership:
                del self._nodes[name]
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

    def _ensure_view(self):
        """The numpy array view for this session (built lazily).

        Returns None — permanently downgrading to the scalar backend —
        if numpy turns out to be unusable at runtime.
        """
        if self._view is not None:
            return self._view
        try:
            from repro.compute.view import NetlistArrayView
        except ImportError:
            self.compute_backend = "python"
            return None
        self._view = NetlistArrayView(
            self.netlist, self.library, self.constraints, self.net_model,
            clock_arrivals=self.clock_arrivals)
        self._view.use_order(self._order)
        return self._view

    def _full_run(self, arrivals_only: bool = False,
                  escalated: bool = False) -> TimingReport | None:
        """Propagate the whole design.  ``arrivals_only`` leaves every
        required time at +inf and returns no report."""
        self.stats.full_runs += 1
        self.stats.forward_instances += self._comb_count
        with span("sta.full_run", instances=self._comb_count,
                  arrivals_only=arrivals_only, escalated=escalated) as sp:
            view = (self._ensure_view() if self.compute_backend == "numpy"
                    else None)
            sp.set(backend="python" if view is None else "numpy")
            if view is not None:
                from repro.compute.sta import run_arrivals, run_full

                if arrivals_only:
                    self._nodes = run_arrivals(view, self.derates)
                    return None
                self._nodes, checks = run_full(view, self.derates)
                return self._summarize(checks, self._nodes)
            nodes: dict[str, NodeTiming] = {}
            self._nodes = nodes
            self._startpoint_ports(nodes)
            for inst in self.netlist.instances.values():
                if self._is_seq(inst):
                    self._startpoint_ff(inst, nodes)
            for inst in self._order:
                if not (self._is_seq(inst) or self._skip_cell(inst)):
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
        for inst in reversed(self._order):
            if not (self._is_seq(inst) or self._skip_cell(inst)):
                self._backward_instance(inst, nodes, None)
        return self._summarize(checks, nodes)

    # --- incremental propagation ------------------------------------------

    def _forward_cone(self):
        """``(cone, reset_nets, dirty_ffs, seed_back)``: the combinational
        fan-out of every dirty instance and the nets it drives, the
        dirty flip-flops, and the nets a report's backward pass starts
        from.  None once the cone crosses ``full_threshold`` of the
        combinational instances; it only grows, so the BFS stops there.
        """
        netlist = self.netlist
        membership = self._membership
        budget = self.full_threshold * max(self._comb_count, 1)
        cone: set[str] = set()
        frontier: deque[Instance] = deque()
        reset_nets: set[str] = set()
        seed_back: set[str] = set()
        dirty_ffs: list[Instance] = []

        for name in self._dirty_comb:
            inst = netlist.instances.get(name)
            if inst is None or self._is_seq(inst) or self._skip_cell(inst):
                continue
            cone.add(name)
            frontier.append(inst)
            for in_pin in inst.input_pins():
                if in_pin.net is not None and in_pin.name != "MTE" \
                        and in_pin.net.name in membership:
                    seed_back.add(in_pin.net.name)

        if len(cone) > budget:
            return None

        for name in self._dirty_seq:
            inst = netlist.instances.get(name)
            if inst is None or not self._is_seq(inst):
                continue
            dirty_ffs.append(inst)
            q_pin = inst.pins.get("Q")
            if q_pin is not None and q_pin.net is not None \
                    and q_pin.net.name in membership \
                    and q_pin.net.name not in reset_nets:
                reset_nets.add(q_pin.net.name)
                for sink in q_pin.net.sinks:
                    target = sink.instance
                    if sink.name != "MTE" and target.name not in cone \
                            and not self._is_seq(target) \
                            and not self._skip_cell(target):
                        cone.add(target.name)
                        frontier.append(target)
            d_pin = inst.pins.get("D")
            if d_pin is not None and d_pin.net is not None \
                    and d_pin.net.name in membership:
                seed_back.add(d_pin.net.name)

        while frontier:
            if len(cone) > budget:
                return None
            inst = frontier.popleft()
            for out_pin in inst.output_pins():
                out_net = out_pin.net
                if out_net is None or out_net.name not in membership \
                        or out_net.name in reset_nets:
                    continue
                reset_nets.add(out_net.name)
                for sink in out_net.sinks:
                    target = sink.instance
                    if sink.name == "MTE" or target.name in cone:
                        continue
                    if self._is_seq(target) or self._skip_cell(target):
                        continue
                    cone.add(target.name)
                    frontier.append(target)

        if len(cone) > budget:
            return None
        return cone, reset_nets, dirty_ffs, seed_back

    def _forward_region(self, walk):
        """Reset and re-evaluate one forward cone in topological order."""
        cone, reset_nets, dirty_ffs, _ = walk
        self.stats.incremental_runs += 1
        self.stats.forward_instances += len(cone)
        self.stats.forward_instances_saved += self._comb_count - len(cone)
        nodes = self._nodes
        for net_name in reset_nets:
            nodes[net_name] = NodeTiming()
        for inst in dirty_ffs:
            self._startpoint_ff(inst, nodes)
        for inst in self._order:
            if inst.name in cone:
                self._forward_instance(inst, nodes)

    def _incremental_run(self) -> TimingReport:
        # 1. Forward cone: combinational fan-out of every dirty instance.
        walk = self._forward_cone()
        if walk is None:
            return self._full_run(escalated=True)
        cone, reset_nets, _, seed_back = walk

        # 2. Backward region: transitive fan-in of everything that changed.
        # Same early exit: cone and back_insts only grow, so crossing
        # the combined threshold mid-walk is final.
        netlist = self.netlist
        membership = self._membership
        back_budget = self.full_threshold * 2 * max(self._comb_count, 1)
        seed_back |= reset_nets
        back_nets: set[str] = set()
        back_insts: set[str] = set()
        stack = list(seed_back)
        while stack:
            if len(cone) + len(back_insts) > back_budget:
                return self._full_run(escalated=True)
            net_name = stack.pop()
            if net_name in back_nets:
                continue
            back_nets.add(net_name)
            net = netlist.nets.get(net_name)
            if net is None:
                continue
            for sink in net.sinks:
                target = sink.instance
                if sink.name != "MTE" and not self._is_seq(target) \
                        and not self._skip_cell(target):
                    back_insts.add(target.name)
            driver = net.driver
            if driver is None:
                continue
            driver_inst = driver.instance
            if self._is_seq(driver_inst) or self._skip_cell(driver_inst):
                continue
            for in_pin in driver_inst.input_pins():
                if in_pin.net is None or in_pin.name == "MTE":
                    continue
                if in_pin.net.name in membership \
                        and in_pin.net.name not in back_nets:
                    stack.append(in_pin.net.name)

        # A full run evaluates every combinational instance twice (one
        # forward, one backward sweep); incremental pays off while the
        # touched region stays below that, scaled by the threshold.
        if len(cone) + len(back_insts) > back_budget:
            return self._full_run(escalated=True)

        # 3. Reset and re-propagate.
        self._forward_region(walk)
        nodes = self._nodes
        for net_name in back_nets:
            entry = nodes.get(net_name)
            if entry is not None:
                entry.req_rise = INF
                entry.req_fall = INF
        checks = self._endpoint_pass(nodes)
        for inst in reversed(self._order):
            if inst.name in back_insts:
                self._backward_instance(inst, nodes, back_nets)
        return self._summarize(checks, nodes)

    # --- propagation primitives (shared by full and incremental) ----------

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
        cell = self.library.cell(inst.cell_name)
        arc = cell.pin("Q").arc_from("CK")
        if arc is None:
            raise TimingError(f"flip-flop {cell.name} lacks CK->Q arc")
        load = self.net_model.total_load(q_pin.net)
        clk_slew = self.constraints.input_slew
        derate = self._derate(inst)
        rise, fall = arc.delay(clk_slew, load)
        srise, sfall = arc.output_slew(clk_slew, load)
        launch = self._clock_arrival(inst)
        entry = self._node(nodes, q_pin.net)
        entry.arr_rise = launch + rise * derate
        entry.arr_fall = launch + fall * derate
        entry.min_rise = entry.arr_rise
        entry.min_fall = entry.arr_fall
        entry.slew_rise = srise
        entry.slew_fall = sfall

    def _forward_instance(self, inst: Instance, nodes: dict[str, NodeTiming]):
        cell = self.library.cell(inst.cell_name)
        derate = self._derate(inst)
        for out_pin in inst.output_pins():
            out_net = out_pin.net
            if out_net is None:
                continue
            lib_out = cell.pins.get(out_pin.name)
            if lib_out is None:
                continue
            load = self.net_model.total_load(out_net)
            entry = self._node(nodes, out_net)
            for in_pin in inst.input_pins():
                if in_pin.net is None or in_pin.name == "MTE":
                    continue
                arc = lib_out.arc_from(in_pin.name)
                if arc is None:
                    continue
                src = nodes.get(in_pin.net.name)
                if src is None or (src.arr_rise == -INF
                                   and src.arr_fall == -INF):
                    continue
                wire = self.net_model.wire_delay(in_pin.net, in_pin)
                self._propagate_arc(entry, src, arc, load, wire,
                                    derate, in_pin.net.name, inst.name)

    def _propagate_arc(self, entry: NodeTiming, src: NodeTiming,
                       arc: TimingArc, load: float, wire: float,
                       derate: float, src_net: str, inst_name: str):
        """Fold one arc's contribution into the output node timing."""
        backref = (src_net, inst_name)

        def consider(out_edge: str, in_arr: float, in_min: float,
                     in_slew: float, delay_lut, slew_lut):
            if delay_lut is None:
                return
            delay = delay_lut.lookup(in_slew, load) * derate
            slew = slew_lut.lookup(in_slew, load) if slew_lut else 0.0
            arrival = in_arr + wire + delay
            minimum = in_min + wire + delay
            if out_edge == "rise":
                if arrival > entry.arr_rise:
                    entry.arr_rise = arrival
                    entry.slew_rise = slew
                    entry.prev_rise = backref
                entry.min_rise = min(entry.min_rise, minimum)
            else:
                if arrival > entry.arr_fall:
                    entry.arr_fall = arrival
                    entry.slew_fall = slew
                    entry.prev_fall = backref
                entry.min_fall = min(entry.min_fall, minimum)

        if arc.timing_sense == "positive_unate":
            consider("rise", src.arr_rise, src.min_rise, src.slew_rise,
                     arc.cell_rise, arc.rise_transition)
            consider("fall", src.arr_fall, src.min_fall, src.slew_fall,
                     arc.cell_fall, arc.fall_transition)
        elif arc.timing_sense == "negative_unate":
            consider("rise", src.arr_fall, src.min_fall, src.slew_fall,
                     arc.cell_rise, arc.rise_transition)
            consider("fall", src.arr_rise, src.min_rise, src.slew_rise,
                     arc.cell_fall, arc.fall_transition)
        else:  # non_unate: either input edge can cause either output edge
            for in_arr, in_min, in_slew in (
                    (src.arr_rise, src.min_rise, src.slew_rise),
                    (src.arr_fall, src.min_fall, src.slew_fall)):
                consider("rise", in_arr, in_min, in_slew,
                         arc.cell_rise, arc.rise_transition)
                consider("fall", in_arr, in_min, in_slew,
                         arc.cell_fall, arc.fall_transition)

    def _endpoint_pass(self, nodes: dict[str, NodeTiming]
                       ) -> list[EndpointCheck]:
        """Endpoint checks + required-time seeding (idempotent re-apply)."""
        constraints = self.constraints
        period = constraints.clock_period
        checks: list[EndpointCheck] = []

        for port in self.netlist.output_ports():
            if port.net is None or port.net.name not in nodes:
                continue
            entry = nodes[port.net.name]
            wire = self.net_model.wire_delay_to_port(port.net, port.name)
            required = period - constraints.output_delay_for(port.name) - wire
            entry.req_rise = min(entry.req_rise, required)
            entry.req_fall = min(entry.req_fall, required)
            arrival = entry.arrival + wire
            checks.append(EndpointCheck(
                endpoint=port.name, kind="output",
                slack=required + wire - arrival,
                arrival=arrival, required=required + wire))

        for inst in self.netlist.instances.values():
            if not self._is_seq(inst):
                continue
            d_pin = inst.pins.get("D")
            if d_pin is None or d_pin.net is None \
                    or d_pin.net.name not in nodes:
                continue
            cell = self.library.cell(inst.cell_name)
            entry = nodes[d_pin.net.name]
            wire = self.net_model.wire_delay(d_pin.net, d_pin)
            capture = period + self._clock_arrival(inst)
            setup = self._constraint_value(cell, "setup")
            hold = self._constraint_value(cell, "hold")
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
        cell = self.library.cell(inst.cell_name)
        derate = self._derate(inst)
        for out_pin in inst.output_pins():
            out_net = out_pin.net
            if out_net is None or out_net.name not in nodes:
                continue
            lib_out = cell.pins.get(out_pin.name)
            if lib_out is None:
                continue
            out_entry = nodes[out_net.name]
            load = self.net_model.total_load(out_net)
            for in_pin in inst.input_pins():
                if in_pin.net is None or in_pin.name == "MTE":
                    continue
                arc = lib_out.arc_from(in_pin.name)
                if arc is None or in_pin.net.name not in nodes:
                    continue
                if restrict is not None \
                        and in_pin.net.name not in restrict:
                    continue
                src = nodes[in_pin.net.name]
                wire = self.net_model.wire_delay(in_pin.net, in_pin)
                slew = max(src.slew_rise, src.slew_fall)
                rise_d, fall_d = arc.delay(slew, load)
                rise_d = rise_d * derate + wire
                fall_d = fall_d * derate + wire
                if arc.timing_sense == "positive_unate":
                    src.req_rise = min(src.req_rise,
                                       out_entry.req_rise - rise_d)
                    src.req_fall = min(src.req_fall,
                                       out_entry.req_fall - fall_d)
                elif arc.timing_sense == "negative_unate":
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

    def _constraint_value(self, cell, which: str) -> float:
        return cell_constraint_value(cell, which, self.constraints.input_slew)
