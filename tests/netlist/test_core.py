"""Netlist data structure invariants."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import NetlistError, ValidationError
from repro.netlist.core import Netlist, PinDirection, PortDirection


def build_simple():
    nl = Netlist("simple")
    nl.add_input("a")
    nl.add_input("b")
    nl.add_output("y")
    g1 = nl.add_instance("g1", "NAND2_X1_LVT")
    nl.connect(g1, "A", "a", PinDirection.INPUT)
    nl.connect(g1, "B", "b", PinDirection.INPUT)
    nl.connect(g1, "Z", "y", PinDirection.OUTPUT)
    return nl


class TestConstruction:
    def test_ports_create_nets(self):
        nl = build_simple()
        assert nl.net("a").driver_port is nl.ports["a"]
        assert nl.ports["y"] in nl.net("y").sink_ports

    def test_duplicate_port_rejected(self):
        nl = build_simple()
        with pytest.raises(NetlistError):
            nl.add_input("a")

    def test_duplicate_instance_rejected(self):
        nl = build_simple()
        with pytest.raises(NetlistError):
            nl.add_instance("g1", "INV_X1_LVT")

    def test_single_driver_enforced(self):
        nl = build_simple()
        g2 = nl.add_instance("g2", "INV_X1_LVT")
        with pytest.raises(NetlistError):
            nl.connect(g2, "Z", "y", PinDirection.OUTPUT)

    def test_keeper_does_not_count_as_driver(self):
        nl = build_simple()
        holder = nl.add_instance("h1", "HOLDER_X1")
        pin = nl.connect(holder, "Z", "y", PinDirection.INOUT, keeper=True)
        assert pin in nl.net("y").keepers
        assert nl.net("y").driver.instance.name == "g1"

    def test_pin_reconnect_requires_disconnect(self):
        nl = build_simple()
        g1 = nl.instance("g1")
        with pytest.raises(NetlistError):
            nl.connect(g1, "A", "b", PinDirection.INPUT)
        nl.disconnect(g1.pin("A"))
        nl.connect(g1, "A", "b", PinDirection.INPUT)
        assert g1.pin("A").net.name == "b"

    def test_remove_instance_cleans_nets(self):
        nl = build_simple()
        nl.remove_instance("g1")
        assert "g1" not in nl.instances
        assert nl.net("y").driver is None
        assert not nl.net("a").sinks

    def test_unique_name(self):
        nl = build_simple()
        n1 = nl.unique_name("buf")
        nl.add_instance(n1, "BUF_X1_LVT")
        n2 = nl.unique_name("buf")
        assert n1 != n2


class TestQueries:
    def test_stats(self):
        stats = build_simple().stats()
        assert stats == {"instances": 1, "nets": 3, "inputs": 2,
                         "outputs": 1}

    def test_missing_lookups(self):
        nl = build_simple()
        with pytest.raises(NetlistError):
            nl.net("ghost")
        with pytest.raises(NetlistError):
            nl.instance("ghost")
        with pytest.raises(NetlistError):
            nl.instance("g1").pin("Q")


class TestTopology:
    def test_topological_order_simple_chain(self):
        nl = Netlist("chain")
        nl.add_input("a")
        prev = "a"
        for i in range(5):
            g = nl.add_instance(f"g{i}", "INV_X1_LVT")
            nl.connect(g, "A", prev, PinDirection.INPUT)
            prev = f"n{i}"
            nl.connect(g, "Z", prev, PinDirection.OUTPUT)
        order = [i.name for i in nl.topological_order()]
        assert order == [f"g{i}" for i in range(5)]

    def test_combinational_loop_detected(self):
        nl = Netlist("loop")
        g1 = nl.add_instance("g1", "INV_X1_LVT")
        g2 = nl.add_instance("g2", "INV_X1_LVT")
        nl.connect(g1, "A", "n2", PinDirection.INPUT)
        nl.connect(g1, "Z", "n1", PinDirection.OUTPUT)
        nl.connect(g2, "A", "n1", PinDirection.INPUT)
        nl.connect(g2, "Z", "n2", PinDirection.OUTPUT)
        with pytest.raises(ValidationError):
            nl.topological_order()

    def test_ff_breaks_loops(self):
        nl = Netlist("seq_loop")
        nl.add_input("CLK")
        ff = nl.add_instance("ff1", "DFF_X1_LVT")
        inv = nl.add_instance("g1", "INV_X1_LVT")
        nl.connect(ff, "D", "n1", PinDirection.INPUT)
        nl.connect(ff, "CK", "CLK", PinDirection.INPUT)
        nl.connect(ff, "Q", "q1", PinDirection.OUTPUT)
        nl.connect(inv, "A", "q1", PinDirection.INPUT)
        nl.connect(inv, "Z", "n1", PinDirection.OUTPUT)
        order = nl.topological_order()
        assert len(order) == 2

    def test_combinational_depth(self):
        nl = Netlist("depth")
        nl.add_input("a")
        prev = "a"
        for i in range(7):
            g = nl.add_instance(f"g{i}", "INV_X1_LVT")
            nl.connect(g, "A", prev, PinDirection.INPUT)
            prev = f"n{i}"
            nl.connect(g, "Z", prev, PinDirection.OUTPUT)
        assert nl.combinational_depth() == 7


class TestClone:
    def test_clone_is_deep(self):
        nl = build_simple()
        copy = nl.clone("copy")
        copy.remove_instance("g1")
        assert "g1" in nl.instances
        assert nl.net("y").driver is not None

    def test_clone_preserves_structure(self):
        nl = build_simple()
        copy = nl.clone()
        assert copy.stats() == nl.stats()
        assert copy.net("y").driver.instance.name == "g1"

    def test_clone_preserves_keepers(self):
        nl = build_simple()
        holder = nl.add_instance("h1", "HOLDER_X1")
        nl.connect(holder, "Z", "y", PinDirection.INOUT, keeper=True)
        copy = nl.clone()
        assert len(copy.net("y").keepers) == 1
        assert copy.net("y").driver.instance.name == "g1"


def _tables(netlist: Netlist):
    """Every name table of ``netlist``, in dict and pin-list order, and
    a check that each pin and port a net lists is the very object its
    instance (or the port table) holds."""
    def pin_key(pin):
        assert pin.instance is netlist.instances[pin.instance.name]
        assert pin is pin.instance.pins[pin.name]
        return pin.instance.name, pin.name

    def port_key(port):
        assert port is netlist.ports[port.name]
        return port.name

    def net_name(net):
        if net is None:
            return None
        assert net is netlist.nets[net.name]
        return net.name

    return {
        "name": netlist.name,
        "ports": [(port.name, port.direction, net_name(port.net))
                  for port in netlist.ports.values()],
        "instances": [(inst.name, inst.cell_name, inst.attributes)
                      for inst in netlist.instances.values()],
        "pins": [[(pin.name, pin.direction, net_name(pin.net))
                  for pin in inst.pins.values()]
                 for inst in netlist.instances.values()],
        "nets": [(net.name,
                  None if net.driver is None else pin_key(net.driver),
                  None if net.driver_port is None
                  else port_key(net.driver_port))
                 for net in netlist.nets.values()],
        "sinks": [[pin_key(pin) for pin in net.sinks]
                  for net in netlist.nets.values()],
        "sink_ports": [[port_key(port) for port in net.sink_ports]
                       for net in netlist.nets.values()],
        "keepers": [[pin_key(pin) for pin in net.keepers]
                    for net in netlist.nets.values()],
        "name_counter": netlist._name_counter,
    }


class TestPickle:
    """A netlist pickles as flat name tables, whatever its depth, and
    unpickles to exactly what :meth:`Netlist.copy` makes."""

    @staticmethod
    def assert_round_trip(netlist: Netlist):
        import pickle

        from repro.netlist.fingerprint import netlist_fingerprint

        back = pickle.loads(pickle.dumps(netlist))
        assert netlist_fingerprint(back) == netlist_fingerprint(netlist)
        assert _tables(back) == _tables(netlist.copy())

    def test_circuit_a_round_trips(self):
        """circuitA's pin/net graph is deeper than the interpreter's
        recursion limit, which the default pickle walks."""
        from repro.benchcircuits.suite import load_circuit

        self.assert_round_trip(load_circuit("circuitA"))

    def test_finished_flow_netlist_round_trips(self, library):
        """A finished improved-SMT netlist: placement attributes,
        output-holder keepers and a used name counter."""
        from repro.api import Workspace
        from repro.config import FlowConfig, Technique

        netlist = Workspace(library=library,
                            config=FlowConfig(timing_margin=0.2)) \
            .design("c432").flow_result(Technique.IMPROVED_SMT).netlist
        assert any(net.keepers for net in netlist.nets.values())
        assert netlist._name_counter > 0
        self.assert_round_trip(netlist)


@given(st.integers(min_value=1, max_value=40))
def test_property_chain_topo_order_length(n):
    nl = Netlist("chain")
    nl.add_input("a")
    prev = "a"
    for i in range(n):
        g = nl.add_instance(f"g{i}", "INV_X1_LVT")
        nl.connect(g, "A", prev, PinDirection.INPUT)
        prev = f"n{i}"
        nl.connect(g, "Z", prev, PinDirection.OUTPUT)
    assert len(nl.topological_order()) == n
    assert nl.combinational_depth() == n
