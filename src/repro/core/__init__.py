"""The paper's primary contribution: the Selective-MT methodology.

* :mod:`repro.core.dual_vth` — slack-driven Vth assignment (the
  Dual-Vth baseline [Wei, CICC'00] and the shared engine of both SMT
  techniques, which the paper says replace cells "by the method which
  is similar to the way of generating the Dual-Vth circuit").
* :mod:`repro.core.selective_mt` — the MT assignment both SMT
  techniques share, and the conventional Selective-MT construction
  (Fig. 2): per-cell embedded switches.
* :mod:`repro.core.improved_smt` — improved Selective-MT construction
  (Fig. 3): VGND-port MT-cells, shared switch transistors, selective
  output holders.
* :mod:`repro.core.output_holder` — the holder insertion rule.
* :mod:`repro.core.mte` — sleep-signal (MTE) buffer tree.
* :mod:`repro.core.eco` — hold-violation fixing ECO.
* :mod:`repro.core.flow` — the full Fig. 4 flow driver.
* :mod:`repro.core.compare` — the three-technique Table 1 harness.
"""

from repro.core.compare import ComparisonRow, TechniqueComparison
from repro.core.dual_vth import AssignmentResult, DualVthAssigner
from repro.core.flow import FlowResult, SelectiveMtFlow, StageReport
from repro.core.improved_smt import ImprovedSmtBuilder
from repro.core.output_holder import insert_output_holders, nets_needing_holders
from repro.core.selective_mt import ConventionalSmtBuilder

__all__ = [
    "ComparisonRow",
    "TechniqueComparison",
    "AssignmentResult",
    "DualVthAssigner",
    "FlowResult",
    "SelectiveMtFlow",
    "StageReport",
    "ImprovedSmtBuilder",
    "insert_output_holders",
    "nets_needing_holders",
    "ConventionalSmtBuilder",
]
