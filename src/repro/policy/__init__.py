"""`repro.policy` — trace-driven sleep-policy search.

The paper sizes and clusters sleep transistors but never asks *when*
entering SLEEP is worth it.  This package answers that question on top
of the standby-transition engine (:mod:`repro.standby`):

* :mod:`repro.policy.traces` — empirical idle-interval traces,
  reduced to the deterministic quantile grids the batched scenario
  kernel consumes unchanged (plus seeded bootstrap confidence bands);
* :mod:`repro.policy.model` — the sleep-threshold policy model (enter
  SLEEP only when the predicted idle interval is at least ``T``) and
  its closed-form evaluation against the break-even sweep;
* :mod:`repro.policy.domains` — hierarchical power domains: clusters
  grouped under a shared enable, wake latency and peak rush derived by
  the rush scheduler rather than summed;
* :mod:`repro.policy.optimize` — the batched optimizer: thousands of
  candidate (domain plan, thresholds) policies, evaluated as one
  ``rows x clusters x corners`` array pass over their distinct
  (plan, threshold-rank) rows with a bit-identical scalar fallback,
  reduced to the Pareto front of (net savings, worst wake latency,
  peak rush).
"""

from repro.policy.domains import DomainPlan, PowerDomain, plan_partitions
from repro.policy.model import SleepPolicy, break_even_ns, threshold_factors
from repro.policy.optimize import PolicyOptimizer, PolicyPoint, PolicyResult
from repro.policy.traces import (
    ConfidenceBand,
    IdleTrace,
    bootstrap_grids,
    confidence_band,
    load_trace,
    parse_trace,
    quantile_grid,
    trace_scenario,
)

__all__ = [
    "ConfidenceBand",
    "DomainPlan",
    "IdleTrace",
    "PolicyOptimizer",
    "PolicyPoint",
    "PolicyResult",
    "PowerDomain",
    "SleepPolicy",
    "bootstrap_grids",
    "break_even_ns",
    "confidence_band",
    "load_trace",
    "parse_trace",
    "plan_partitions",
    "quantile_grid",
    "threshold_factors",
    "trace_scenario",
]
