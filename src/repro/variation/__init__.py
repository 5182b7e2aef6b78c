"""PVT-corner and Monte-Carlo variation engine.

Signoff-grade robustness analysis for the Selective-MT reproduction:

* :mod:`repro.variation.scaling` — physical scaling laws (alpha-power
  delay, exponential subthreshold leakage with DIBL and temperature);
* :mod:`repro.variation.corners` — named PVT corners and non-mutating
  corner-library derivation;
* :mod:`repro.variation.signoff` — multi-corner evaluation of a
  finished design (behind ``Design.signoff()``, the one signoff path);
* :mod:`repro.variation.montecarlo` — seeded per-instance Vth
  sampling, log-normal leakage statistics and yield;
* :mod:`repro.variation.jobs` — the picklable Monte-Carlo chunk job
  for the parallel experiment runner.
"""

from repro.variation.corners import (
    DEFAULT_SIGNOFF_CORNERS,
    PvtCorner,
    corner_scales,
    default_signoff_corners,
    derive_corner_library,
    nominal_corner,
    resolve_corner,
    standard_corners,
)
from repro.variation.montecarlo import (
    McConfig,
    McSample,
    McStatistics,
    MonteCarloEngine,
    summarize,
)
from repro.variation.scaling import (
    OperatingPoint,
    delay_factor,
    effective_vth,
    leakage_factor,
)
from repro.variation.signoff import (
    CornerResult,
    evaluate_corner,
    evaluate_corners,
)

__all__ = [
    "DEFAULT_SIGNOFF_CORNERS",
    "PvtCorner",
    "corner_scales",
    "default_signoff_corners",
    "derive_corner_library",
    "nominal_corner",
    "resolve_corner",
    "standard_corners",
    "McConfig",
    "McSample",
    "McStatistics",
    "MonteCarloEngine",
    "summarize",
    "OperatingPoint",
    "delay_factor",
    "effective_vth",
    "leakage_factor",
    "CornerResult",
    "evaluate_corner",
    "evaluate_corners",
]
