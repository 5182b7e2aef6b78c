"""repro — Area-efficient Selective Multi-Threshold CMOS methodology.

A from-scratch Python reproduction of Kitahara et al., "Area-efficient
Selective Multi-Threshold CMOS Design Methodology for Standby Leakage
Power Reduction" (DATE 2005), including every substrate the paper's
flow rides on: device models, a multi-Vth Liberty library, netlist
database, logic simulation, STA, placement, routing/extraction, CTS and
the virtual-ground (CoolPower-style) switch optimizer.

Quickstart (the :mod:`repro.api` facade caches all compiled state)::

    from repro.api import Workspace

    ws = Workspace()
    design = ws.design("c880")
    print(design.optimize(technique="improved_smt").leakage_nw)

or, driving the flow engine directly (every run builds the steps its
technique shares with another — the low-Vth prefix, and for the SMT
techniques the MT assignment — forks the context and runs the
technique's remaining stage steps; :mod:`repro.core.stages`)::

    from repro import (build_default_library, load_circuit,
                       SelectiveMtFlow, Technique)

    library = build_default_library()
    netlist = load_circuit("c880")
    flow = SelectiveMtFlow(netlist, library, Technique.IMPROVED_SMT)
    result = flow.run()
    print(result.render_stages())
    print(f"standby leakage: {result.leakage_nw:.1f} nW")
"""

from repro.benchcircuits.suite import available_circuits, load_circuit
from repro.config import FlowConfig, Technique
from repro.core.artifacts import export_design, verify_export
from repro.core.compare import TechniqueComparison
from repro.core.flow import FlowResult, SelectiveMtFlow
from repro.core.stages import FlowContext, StageReport
from repro.device.process import DEFAULT_TECHNOLOGY, Technology
from repro.errors import ReproError
from repro.experiments import table1_config
from repro.liberty.synth import LibraryBuilder, build_default_library
from repro.netlist.bench_io import parse_bench, parse_bench_file
from repro.netlist.core import Netlist
from repro.netlist.stats import design_stats
from repro.runner import ExperimentRunner
from repro.timing.constraints import Constraints
from repro.timing.session import TimingSession

__version__ = "1.0.0"

__all__ = [
    "available_circuits",
    "load_circuit",
    "FlowConfig",
    "Technique",
    "export_design",
    "verify_export",
    "TechniqueComparison",
    "FlowResult",
    "SelectiveMtFlow",
    "FlowContext",
    "StageReport",
    "ExperimentRunner",
    "TimingSession",
    "DEFAULT_TECHNOLOGY",
    "Technology",
    "ReproError",
    "table1_config",
    "LibraryBuilder",
    "build_default_library",
    "parse_bench",
    "parse_bench_file",
    "Netlist",
    "design_stats",
    "Constraints",
    "__version__",
]
