"""Sweep the ISCAS-class suite through all three techniques.

For each circuit, prints area and standby leakage normalized to the
Dual-Vth baseline — Table 1's format extended across the benchmark
suite.  The sweep is one :meth:`repro.api.Workspace.sweep`, so
``--jobs N`` fans the circuit x technique grid out over N worker
processes with bit-identical numbers::

    python examples/iscas_sweep.py c432 c880 s1196 --jobs 4
"""

import argparse

from repro import FlowConfig
from repro.api import Workspace
from repro.config import Technique

DEFAULT_SWEEP = ("c432", "c880", "s298", "s344")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("circuits", nargs="*", default=list(DEFAULT_SWEEP),
                        help="circuit names (default: %(default)s)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="process-pool width (1 = in-process)")
    args = parser.parse_args()

    workspace = Workspace(config=FlowConfig(timing_margin=0.10),
                          jobs=args.jobs)
    result = workspace.sweep(args.circuits)

    header, *lines = result.render().splitlines()
    print(header)
    for circuit in result.circuits():
        for row, line in zip(result.rows, lines):
            if row.circuit == circuit:
                print(line)
        improved = result.row(circuit, Technique.IMPROVED_SMT)
        conventional = result.row(circuit, Technique.CONVENTIONAL_SMT)
        saving = conventional.area_pct - improved.area_pct
        print(f"{'':<10} improved saves {saving:.1f} area points and "
              f"{conventional.leakage_pct - improved.leakage_pct:.1f} "
              f"leakage points vs conventional\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
