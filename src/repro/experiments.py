"""Pinned experiment definitions (the paper's evaluation).

Everything the benchmark harness needs to regenerate Table 1 lives
here: the per-circuit flow configurations (margins chosen so circuit A
is timing-tight and circuit B looser, as Table 1 implies) and the
paper's published numbers for comparison, plus the result types the
:mod:`repro.api.studies` grid studies return.
"""

from __future__ import annotations

import dataclasses

from repro.config import FlowConfig, Technique
from repro.core.compare import TechniqueComparison

#: Paper Table 1 values, percent of the Dual-Vth baseline.
PAPER_TABLE1 = {
    ("A", Technique.DUAL_VTH): {"area": 100.00, "leakage": 100.00},
    ("A", Technique.CONVENTIONAL_SMT): {"area": 164.84, "leakage": 14.58},
    ("A", Technique.IMPROVED_SMT): {"area": 133.18, "leakage": 9.42},
    ("B", Technique.DUAL_VTH): {"area": 100.00, "leakage": 100.00},
    ("B", Technique.CONVENTIONAL_SMT): {"area": 142.22, "leakage": 19.42},
    ("B", Technique.IMPROVED_SMT): {"area": 115.65, "leakage": 12.21},
}


def table1_config(circuit: str) -> FlowConfig:
    """The pinned flow configuration for a Table 1 circuit."""
    if circuit in ("A", "circuitA"):
        return FlowConfig(timing_margin=0.09, utilization=0.75)
    if circuit in ("B", "circuitB"):
        return FlowConfig(timing_margin=0.10, utilization=0.75)
    raise KeyError(f"no Table 1 config for circuit {circuit!r}")


@dataclasses.dataclass
class Table1Result:
    """Both circuits' comparisons plus the paper reference."""

    comparisons: dict[str, TechniqueComparison]

    def measured(self, circuit: str, technique: Technique,
                 metric: str) -> float:
        row = self.comparisons[circuit].row(technique)
        return row.area_pct if metric == "area" else row.leakage_pct

    def paper(self, circuit: str, technique: Technique,
              metric: str) -> float:
        return PAPER_TABLE1[(circuit, technique)][metric]

    def fidelity(self) -> dict[str, float]:
        """Mean |ours - paper| over the four SMT cells, in percentage
        points of the Dual-Vth baseline (``area_gap_pp``,
        ``leak_gap_pp``)."""
        cells = [key for key in PAPER_TABLE1
                 if key[1] != Technique.DUAL_VTH]

        def gap(metric: str) -> float:
            return sum(abs(self.measured(circuit, technique, metric)
                           - self.paper(circuit, technique, metric))
                       for circuit, technique in cells) / len(cells)

        return {"area_gap_pp": gap("area"), "leak_gap_pp": gap("leakage")}

    def render(self) -> str:
        lines = [
            "Table 1 reproduction (percent of Dual-Vth baseline)",
            f"{'Circuit':<8} {'Metric':<8} {'Technique':<18} "
            f"{'Paper':>8} {'Ours':>8}",
        ]
        for circuit in ("A", "B"):
            for metric in ("area", "leakage"):
                for technique in (Technique.DUAL_VTH,
                                  Technique.CONVENTIONAL_SMT,
                                  Technique.IMPROVED_SMT):
                    lines.append(
                        f"{circuit:<8} {metric:<8} {technique.value:<18} "
                        f"{self.paper(circuit, technique, metric):8.2f} "
                        f"{self.measured(circuit, technique, metric):8.2f}")
        return "\n".join(lines)


def _resolve_circuit(short: str) -> str:
    """Table 1 shorthand ("A"/"B") or any suite circuit name."""
    return f"circuit{short}" if short in ("A", "B") else short


def _circuit_config(short: str, config: FlowConfig | None) -> FlowConfig:
    if config is not None:
        return config
    try:
        return table1_config(short)
    except KeyError:
        return FlowConfig()


@dataclasses.dataclass
class CornerSignoffResult:
    """Corner signoff across a circuit x technique x corner grid."""

    corners: tuple[str, ...]
    #: (circuit, technique) -> the design's ``SignoffResult``, in
    #: submission order; ``circuit`` is the caller's name.
    outcomes: dict[tuple[str, "Technique"], "SignoffResult"]

    def outcome(self, circuit: str, technique: Technique) -> "SignoffResult":
        return self.outcomes[(circuit, technique)]

    def render(self) -> str:
        lines = [
            "Corner signoff (standby leakage nW / setup WNS ns)",
            f"{'Circuit':<10} {'Technique':<18} {'Corner':<16} "
            f"{'Leak(nW)':>12} {'xNominal':>9} {'WNS':>9}",
        ]
        for (circuit, technique), outcome in self.outcomes.items():
            base = outcome.nominal_leakage_nw or 1.0
            for row in outcome.rows:
                lines.append(
                    f"{circuit:<10} {technique.value:<18} {row.corner:<16} "
                    f"{row.leakage_nw:12.2f} {row.leakage_nw / base:9.2f} "
                    f"{row.wns:+9.4f}")
        return "\n".join(lines)


@dataclasses.dataclass
class MonteCarloStudy:
    """Per-technique Monte-Carlo statistics on one circuit."""

    circuit: str
    samples: int
    seed: int
    corner: str | None
    #: technique -> the design's ``MonteCarloResult``, in submission
    #: order.
    results: dict["Technique", "MonteCarloResult"]

    def result(self, technique: Technique) -> "MonteCarloResult":
        return self.results[technique]

    def render(self) -> str:
        where = f" @ {self.corner}" if self.corner else ""
        lines = [
            f"Monte-Carlo standby leakage on {self.circuit}{where} "
            f"({self.samples} samples, seed {self.seed})",
            f"{'Technique':<18} {'Nominal':>10} {'Mean':>10} {'Sigma':>10} "
            f"{'P95':>10} {'LeakYld':>8} {'TimYld':>7}",
        ]
        for technique, res in self.results.items():
            stats = res.statistics
            leak_yield = (f"{stats.leakage_yield:8.2f}"
                          if stats.leakage_yield is not None else "       -")
            timing_yield = (f"{stats.timing_yield:7.2f}"
                            if stats.timing_yield is not None else "      -")
            lines.append(
                f"{technique.value:<18} {res.nominal_leakage_nw:10.2f} "
                f"{stats.mean_nw:10.2f} {stats.std_nw:10.2f} "
                f"{stats.p95_nw:10.2f} {leak_yield} {timing_yield}")
        return "\n".join(lines)
