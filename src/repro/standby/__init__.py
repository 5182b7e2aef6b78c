"""Standby-transition engine: the last unmodeled MTCMOS phase.

The rest of the system answers *how much* standby leakage the
Selective-MT structure saves; this package answers *when sleeping
actually pays*:

* :mod:`repro.standby.transient` — analytic RC transients per
  :class:`~repro.vgnd.network.VgndCluster`: sleep-entry / wake-up
  waveforms, peak rush current, settle latency and energy per
  transition, all from the same switch Ron, rail parasitics and
  leakage models the sizing and bounce analyses use.
* :mod:`repro.standby.schedule` — a staged wake-up scheduler that
  orders and delays per-cluster MTE enables so the aggregate rush
  current stays under a di/dt budget while total wake latency stays
  provably no worse than a serial daisy-chain.
* :mod:`repro.standby.scenario` — power-mode scenarios (ACTIVE /
  STANDBY / SLEEP state machine, idle-interval distributions, duty
  cycles) expressed as deterministic quantile grids.
* :mod:`repro.standby.engine` — the batched scenario engine: computes
  break-even standby time and net energy savings per
  ``(scenario x cluster x corner)`` with a vectorized numpy path and a
  bit-identical scalar fallback.

The one way in is ``Design.standby()`` (:mod:`repro.api.workspace`),
which reads the finished flow result; the service's ``standby`` job
kind and the ``repro-smt standby`` CLI subcommand both call it.
"""

from repro.standby.engine import (
    ScenarioOutcome,
    StandbyCornerRow,
    StandbyEngine,
    StandbyResult,
)
from repro.standby.scenario import (
    PowerMode,
    PowerModeScenario,
    resolve_scenario,
    standard_scenarios,
)
from repro.standby.schedule import (
    RushScheduler,
    WakeupEvent,
    WakeupSchedule,
    aggregate_rush_ma,
    default_rush_budget_ma,
)
from repro.standby.transient import (
    ClusterTransient,
    TransientSolver,
    Waveform,
    sleep_waveform,
    wake_waveform,
)

__all__ = [
    "ClusterTransient",
    "PowerMode",
    "PowerModeScenario",
    "RushScheduler",
    "ScenarioOutcome",
    "StandbyCornerRow",
    "StandbyEngine",
    "StandbyResult",
    "TransientSolver",
    "Waveform",
    "WakeupEvent",
    "WakeupSchedule",
    "aggregate_rush_ma",
    "default_rush_budget_ma",
    "resolve_scenario",
    "sleep_waveform",
    "standard_scenarios",
    "wake_waveform",
]
