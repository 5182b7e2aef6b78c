"""Static timing analysis substrate.

* :mod:`repro.timing.constraints` — clock/IO constraints (SDC subset in
  :mod:`repro.timing.sdc`).
* :mod:`repro.timing.delay` — net load and wire-delay models backed by
  pre-route estimates or post-route extraction.
* :mod:`repro.timing.sta` — NLDM lookup-table STA: rise/fall arrival
  and slew propagation, required times, setup/hold checks, per-instance
  derating (used for actual-vs-assumed VGND bounce).
* :mod:`repro.timing.paths` — critical path extraction and reports.
* :mod:`repro.timing.session` — incremental STA: a
  :class:`~repro.timing.session.TimingSession` keeps the topological
  order, compiled delay arcs and net models alive across edits and
  re-evaluates only the instances whose timing can change.
"""

from repro.timing.constraints import Constraints
from repro.timing.delay import NetModel
from repro.timing.paths import Path, PathStep
from repro.timing.session import SessionStats, TimingSession
from repro.timing.sta import TimingAnalyzer, TimingReport

__all__ = [
    "Constraints",
    "NetModel",
    "Path",
    "PathStep",
    "SessionStats",
    "TimingSession",
    "TimingAnalyzer",
    "TimingReport",
]
