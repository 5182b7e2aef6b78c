"""Hierarchical power domains over the VGND cluster set.

A *domain* groups clusters under one shared sleep enable: the whole
group enters SLEEP together (entry completes when the slowest member
has) and wakes together through its own staged enable sequence.  The
wake latency and peak rush of a domain are therefore **scheduler
outputs**, not sums: the members' wake-up is routed through the same
:class:`~repro.standby.schedule.RushScheduler` the full-network
signoff uses, restricted to the domain's transients, under the same
di/dt budget.  Domains wake independently (each on its own wake
request), so a policy's worst wake latency is the slowest *domain*
makespan, and its peak rush the worst single-domain schedule peak.

Plans are deterministic balanced partitions of the cluster index
space (:func:`plan_partitions`): clusters are ordered by descending
wake latency so each domain groups similar-latency members — the
grouping that keeps a domain's scheduler-derived makespan close to
its slowest member — and split into 1, 2, ... ``max_domains`` groups,
plus the per-cluster plan (every cluster its own domain, the standby
engine's implicit model).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.errors import ConfigError
from repro.policy.model import break_even_ns
from repro.standby.schedule import RushScheduler
from repro.standby.transient import ClusterTransient


@dataclasses.dataclass(frozen=True)
class PowerDomain:
    """One characterized domain (at one PVT corner)."""

    name: str
    clusters: tuple[int, ...]          # member cluster indices
    wake_latency_ns: float             # scheduled makespan
    serial_wake_latency_ns: float      # daisy-chain reference
    sleep_latency_ns: float            # slowest member's entry
    peak_rush_ma: float                # scheduled peak, this domain
    bins: int
    leakage_savings_nw: float
    cycle_energy_pj: float
    break_even_ns: float


@dataclasses.dataclass(frozen=True)
class DomainPlan:
    """One domain grouping, characterized at one corner."""

    name: str
    domains: tuple[PowerDomain, ...]


def plan_partitions(transients: Sequence[ClusterTransient],
                    max_domains: int
                    ) -> list[tuple[tuple[int, ...], ...]]:
    """Deterministic candidate groupings of the cluster index space.

    Returns partitions as tuples of member-index tuples (members
    ascending within a domain).  Clusters are ranked by descending
    wake latency (ties by index) before being split into contiguous
    balanced groups, so a domain holds similar-latency members.
    """
    if max_domains < 1:
        raise ConfigError(
            "max_domains",
            f"needs at least one domain, got {max_domains!r}")
    indices = [tr.cluster_index for tr in sorted(
        transients,
        key=lambda tr: (-tr.wake_latency_ns, tr.cluster_index))]
    total = len(indices)
    if total == 0:
        raise ConfigError("transients", "no clusters to partition")
    counts = sorted({d for d in range(1, max_domains + 1)
                     if d <= total} | {total})
    partitions = []
    for domains in counts:
        groups = []
        for b in range(domains):
            start = (b * total) // domains
            stop = ((b + 1) * total) // domains
            groups.append(tuple(sorted(indices[start:stop])))
        partitions.append(tuple(groups))
    return partitions


def plan_name(partition: tuple[tuple[int, ...], ...],
              clusters: int) -> str:
    if len(partition) == 1:
        return "unified"
    if len(partition) == clusters:
        return "per-cluster"
    return f"domains-{len(partition)}"


def characterize_plan(partition: tuple[tuple[int, ...], ...],
                      transients: Sequence[ClusterTransient],
                      budget_ma: float
                      ) -> tuple[DomainPlan, list[float]]:
    """Characterize one partition against one corner's transients.

    Each domain's wake-up is scheduled by the rush scheduler over the
    member transients alone (domains wake independently), under the
    network-wide di/dt budget.  Besides the plan, returns each
    cluster's transition overhead (ns) in ``transients`` order: the
    domain's sleep-entry latency (the group gates as one unit, so
    entry completes with the slowest member) plus the member's own
    scheduled settle inside the domain's wake sequence.
    """
    by_index = {tr.cluster_index: tr for tr in transients}
    domains = []
    settle: dict[int, float] = {}
    entry: dict[int, float] = {}
    for position, members in enumerate(partition):
        group = [by_index[index] for index in members]
        schedule = RushScheduler(group, budget_ma).schedule()
        sleep_latency = max(tr.sleep_latency_ns for tr in group)
        savings = sum(tr.leakage_savings_nw for tr in group)
        energy = sum(tr.energy_per_cycle_pj for tr in group)
        overhead = sleep_latency + schedule.total_latency_ns
        for event in schedule.events:
            settle[event.cluster_index] = event.settle_ns
            entry[event.cluster_index] = sleep_latency
        domains.append(PowerDomain(
            name=f"d{position}",
            clusters=tuple(members),
            wake_latency_ns=schedule.total_latency_ns,
            serial_wake_latency_ns=schedule.serial_latency_ns,
            sleep_latency_ns=sleep_latency,
            peak_rush_ma=schedule.peak_aggregate_ma,
            bins=schedule.bins,
            leakage_savings_nw=savings,
            cycle_energy_pj=energy,
            break_even_ns=break_even_ns(savings, overhead, energy)))
    plan = DomainPlan(
        name=plan_name(partition, len(by_index)),
        domains=tuple(domains))
    overheads = [entry[tr.cluster_index] + settle[tr.cluster_index]
                 for tr in transients]
    return plan, overheads
