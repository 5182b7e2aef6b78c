"""Scratch calibration script: scan timing margins and report the
fast/slow fractions each produces (used to pick Table 1 experiment
margins; not part of the library).

Runs through the :mod:`repro.api` Workspace facade, so the library,
netlist and every per-(margin, technique) flow result are compiled
once and cached — rerunning a margin is free — and every margin forks
one placed prefix: the circuit is placed and its critical delay probed
once for the whole scan.

Usage::

    PYTHONPATH=src python scripts/scan_margins.py \
        [circuit] [margin,margin,...] [technique]
"""

import sys

from repro.api import Workspace
from repro.config import FlowConfig, Technique
from repro.errors import ReproError
from repro.obs import configure_logging, get_logger

#: Legacy aliases from the pre-facade script (fast-variant names).
TECHNIQUE_ALIASES = {
    "LVT": Technique.DUAL_VTH,
    "MT": Technique.IMPROVED_SMT,
    "CMT": Technique.CONVENTIONAL_SMT,
}

logger = get_logger("scripts.scan_margins")


def scan(circuit_name, margins, technique):
    workspace = Workspace()
    for margin in margins:
        # assignment_guardband mirrors the 2 % period tightening the
        # pre-facade script applied by hand.
        config = FlowConfig(timing_margin=margin,
                            assignment_guardband=0.02)
        design = workspace.design(circuit_name, config)
        try:
            result = design.flow_result(technique)
        except ReproError as exc:
            logger.warning("%s margin=%s technique=%s: INFEASIBLE (%s)",
                           circuit_name, margin, technique.value, exc)
            continue
        assignment = result.assignment
        total = assignment.fast_count + assignment.slow_count
        logger.info(
            "%s margin=%s technique=%s: fast=%d/%d (%.1f%%) wns=%+.4f",
            circuit_name, margin, technique.value,
            assignment.fast_count, total,
            100 * assignment.fast_fraction, result.timing.wns)


def parse_technique(text: str) -> Technique:
    if text in TECHNIQUE_ALIASES:
        return TECHNIQUE_ALIASES[text]
    return Technique(text)


if __name__ == "__main__":
    # Route through the repro logger; $REPRO_LOG_LEVEL overrides INFO.
    if not configure_logging():
        configure_logging("INFO", stream=sys.stdout)
    circuit = sys.argv[1] if len(sys.argv) > 1 else "circuitA"
    margins = [float(m) for m in sys.argv[2].split(",")] \
        if len(sys.argv) > 2 else [0.08, 0.10, 0.12, 0.15]
    technique = parse_technique(sys.argv[3]) if len(sys.argv) > 3 \
        else Technique.DUAL_VTH
    scan(circuit, margins, technique)
