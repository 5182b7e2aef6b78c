"""Seeded Monte-Carlo Vth-variation analysis.

Per-sample model: one **global** Vth shift (die-to-die, shared by every
instance) plus an independent **local** mismatch per instance, both
Gaussian.  Each instance's standby leakage scales exponentially with
its Vth sample (so totals follow the classic log-normal shape) and its
delay scales by the alpha-power law, applied as per-instance STA
derates through one incremental
:class:`~repro.timing.session.TimingSession`.

Determinism contract (same as the experiment runner's):

* sample ``k`` of seed ``s`` is a pure function of ``(s, k)`` — the
  RNG is seeded from the string ``"{s}:{k}"`` (string seeding is
  deterministic, unaffected by hash randomization) and instances are
  visited in sorted-name order;
* results are therefore independent of how samples are chunked across
  worker processes (``jobs=N`` invariance), and the timing numbers are
  chunk-independent too because the shared session is bit-exact with
  respect to a fresh analyzer after any tracked edit sequence.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Mapping, Sequence

from repro.errors import ConfigError, FlowError
from repro.liberty.library import Library, VthClass
from repro.netlist.core import Netlist
from repro.obs.spans import span
from repro.power.leakage import LeakageAnalyzer
from repro.timing.constraints import Constraints
from repro.timing.session import TimingSession
from repro.variation.scaling import local_delay_factor, local_leakage_factor


@dataclasses.dataclass(frozen=True)
class McConfig:
    """Monte-Carlo sampling parameters."""

    samples: int = 64
    seed: int = 1
    #: Die-to-die (global) Vth sigma in volts.
    sigma_global_v: float = 0.03
    #: Within-die (local, per-instance) Vth sigma in volts.
    sigma_local_v: float = 0.015
    #: Evaluate per-sample WNS through an incremental timing session.
    timing: bool = True
    #: Leakage budget for yield; ``None`` derives one per study
    #: (``budget_factor`` x the design's nominal standby leakage).
    leakage_budget_nw: float | None = None
    budget_factor: float = 2.0

    def __post_init__(self):
        if self.samples < 1:
            raise ConfigError(
                "samples",
                f"Monte-Carlo needs at least one sample, got {self.samples}")
        if self.sigma_global_v < 0:
            raise ConfigError(
                "sigma_global_v",
                f"must be non-negative, got {self.sigma_global_v!r}")
        if self.sigma_local_v < 0:
            raise ConfigError(
                "sigma_local_v",
                f"must be non-negative, got {self.sigma_local_v!r}")


@dataclasses.dataclass(frozen=True)
class McSample:
    """One sampled die."""

    index: int
    global_dvth_v: float
    leakage_nw: float
    wns: float | None = None


@dataclasses.dataclass
class McStatistics:
    """Distribution summary of a sample set."""

    samples: int
    mean_nw: float
    std_nw: float
    min_nw: float
    max_nw: float
    p50_nw: float
    p95_nw: float
    p99_nw: float
    leakage_budget_nw: float | None = None
    leakage_yield: float | None = None
    mean_wns: float | None = None
    std_wns: float | None = None
    worst_wns: float | None = None
    timing_yield: float | None = None


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    if not sorted_values:
        raise FlowError("percentile of an empty sample set")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = fraction * (len(sorted_values) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(sorted_values) - 1)
    weight = position - low
    return sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight


def summarize(samples: Sequence[McSample],
              leakage_budget_nw: float | None = None) -> McStatistics:
    """Mean / sigma / percentiles / yields over a sample set.

    Only depends on the sample values, not their order or chunking.
    """
    if not samples:
        raise FlowError("cannot summarize zero Monte-Carlo samples")
    leak = sorted(s.leakage_nw for s in samples)
    n = len(leak)
    mean = sum(leak) / n
    variance = sum((v - mean) ** 2 for v in leak) / n
    stats = McStatistics(
        samples=n,
        mean_nw=mean,
        std_nw=math.sqrt(variance),
        min_nw=leak[0],
        max_nw=leak[-1],
        p50_nw=percentile(leak, 0.50),
        p95_nw=percentile(leak, 0.95),
        p99_nw=percentile(leak, 0.99))
    if leakage_budget_nw is not None:
        stats.leakage_budget_nw = leakage_budget_nw
        stats.leakage_yield = sum(
            1 for v in leak if v <= leakage_budget_nw) / n
    wns_values = [s.wns for s in samples if s.wns is not None]
    if wns_values:
        mean_wns = sum(wns_values) / len(wns_values)
        var_wns = sum((v - mean_wns) ** 2 for v in wns_values) \
            / len(wns_values)
        stats.mean_wns = mean_wns
        stats.std_wns = math.sqrt(var_wns)
        stats.worst_wns = min(wns_values)
        stats.timing_yield = sum(1 for v in wns_values if v >= 0.0) \
            / len(wns_values)
    return stats


class MonteCarloEngine:
    """Samples Vth variation over one finished design.

    The netlist is the *final* (post-flow) design; the library may be
    the nominal one or a corner-derived one, in which case the samples
    describe variation **around that corner**.
    """

    def __init__(self, netlist: Netlist, library: Library,
                 config: McConfig | None = None,
                 constraints: Constraints | None = None,
                 parasitics: Mapping[str, object] | None = None,
                 derates: Mapping[str, float] | None = None,
                 clock_arrivals: Mapping[str, float] | None = None,
                 compute_backend: str | None = None):
        from repro.compute import resolve_backend

        self.netlist = netlist
        self.library = library
        self.config = config or McConfig()
        self.compute_backend = resolve_backend(compute_backend)
        self.tech = library.tech
        if self.tech is None:
            raise FlowError("Monte-Carlo needs a library with a technology")
        self.constraints = constraints
        self.base_derates = dict(derates or {})
        # Per-instance standby leakage and timing sensitivity basis, in
        # sorted-name order so sampling is iteration-order independent.
        breakdown = LeakageAnalyzer(
            netlist, library,
            compute_backend=self.compute_backend).standby_leakage()
        self.nominal_leakage_nw = breakdown.total_nw
        self._basis = []
        for name in sorted(breakdown.per_instance):
            cell = library.cell(netlist.instances[name].cell_name)
            vth = (self.tech.vth_high if cell.vth_class == VthClass.HIGH
                   else self.tech.vth_low)
            self._basis.append((name, breakdown.per_instance[name], vth))
        self._session: TimingSession | None = None
        self._view = None
        self._arrays = None
        if self.config.timing and constraints is None:
            raise FlowError("timing-enabled Monte-Carlo needs constraints")
        if self.compute_backend == "numpy":
            self._init_numpy(parasitics, clock_arrivals)
        if self.config.timing and self.compute_backend == "python":
            self._session = TimingSession(
                netlist, library, constraints, parasitics=parasitics,
                derates=self.base_derates, clock_arrivals=clock_arrivals,
                compute_backend=self.compute_backend)
        self.nominal_wns: float | None = None
        if self._session is not None:
            self.nominal_wns = self._session.report().wns
        elif self._view is not None:
            from repro.compute.kernels import setup_wns

            base = self._arrays["base_derate"]
            self.nominal_wns = float(setup_wns(self._view, base[None, :])[0])

    def _init_numpy(self, parasitics, clock_arrivals):
        """Lower the sampling basis into arrays; build the STA view.

        Falls back to the scalar engine if numpy is unavailable (the
        resolve step normally catches this; an import race downgrades
        here too).
        """
        try:
            import numpy as np

            from repro.compute.view import NetlistArrayView
        except ImportError:
            self.compute_backend = "python"
            return
        self._arrays = {
            "base_nw": np.array([nw for _n, nw, _v in self._basis]),
            "vth": np.array([vth for _n, _nw, vth in self._basis]),
            "base_derate": np.array(
                [self.base_derates.get(name, 1.0)
                 for name, _nw, _v in self._basis]),
        }
        if self.config.timing:
            from repro.timing.delay import NetModel

            net_model = NetModel(self.netlist, self.library,
                                 self.constraints, parasitics)
            self._view = NetlistArrayView(
                self.netlist, self.library, self.constraints, net_model,
                clock_arrivals=clock_arrivals)

    @property
    def session_stats(self):
        return self._session.stats if self._session is not None else None

    def _rng(self, index: int) -> random.Random:
        return random.Random(f"{self.config.seed}:{index}")

    def sample(self, index: int) -> McSample:
        """Evaluate sampled die ``index`` (pure in (seed, index))."""
        if self.compute_backend == "numpy":
            return self._run_batch(index, 1)[0]
        rng = self._rng(index)
        global_dvth = rng.gauss(0.0, self.config.sigma_global_v)
        total_nw = 0.0
        derates: dict[str, float] = {}
        for name, base_nw, vth in self._basis:
            dvth = global_dvth + rng.gauss(0.0, self.config.sigma_local_v)
            total_nw += base_nw * local_leakage_factor(self.tech, dvth)
            if self._session is not None:
                factor = local_delay_factor(self.tech, vth, dvth)
                base = self.base_derates.get(name, 1.0)
                derates[name] = base * factor
        wns = None
        if self._session is not None:
            self._session.set_derates(derates)
            wns = self._session.report().wns
        return McSample(index=index, global_dvth_v=global_dvth,
                        leakage_nw=total_nw, wns=wns)

    def run(self, start: int = 0,
            count: int | None = None) -> list[McSample]:
        """Evaluate samples ``start .. start + count - 1`` in order."""
        if count is None:
            count = self.config.samples
        with span("mc.chunk", start=start, count=count,
                  backend=self.compute_backend):
            if self.compute_backend == "numpy":
                return self._run_batch(start, count)
            return [self.sample(index)
                    for index in range(start, start + count)]

    #: Memory bound for one batched tile: samples-per-tile is chosen so
    #: the (samples x instances) work arrays stay around this many
    #: elements, keeping peak memory flat in the requested sample count.
    _TILE_ELEMENTS = 2_000_000

    def _run_batch(self, start: int, count: int) -> list[McSample]:
        """Batched ``(samples x instances)`` array passes over the chunk.

        The Vth draws come from the *same* seeded scalar RNG as the
        reference path (sample ``k`` stays a pure function of
        ``(seed, k)`` on every backend); the per-instance exponential
        leakage scaling, the alpha-power delay derates and the
        per-sample STA all evaluate as batched array kernels.  The
        sample axis is tiled to ``_TILE_ELEMENTS`` so memory stays
        bounded for arbitrarily large chunks — per-sample purity makes
        tiling invisible in the results.
        """
        tile = max(1, self._TILE_ELEMENTS // max(len(self._basis), 1))
        if count > tile:
            samples: list[McSample] = []
            for tile_start in range(start, start + count, tile):
                tile_count = min(tile, start + count - tile_start)
                samples.extend(self._run_batch(tile_start, tile_count))
            return samples
        import numpy as np

        from repro.compute.kernels import (
            local_delay_factors,
            local_leakage_factors,
            setup_wns,
        )
        from repro.variation.scaling import OVERDRIVE_FLOOR

        n = len(self._basis)
        sigma_local = self.config.sigma_local_v
        dvth = np.empty((count, n))
        global_dvth = np.empty(count)
        for row, index in enumerate(range(start, start + count)):
            rng = self._rng(index)
            gauss = rng.gauss
            shift = gauss(0.0, self.config.sigma_global_v)
            global_dvth[row] = shift
            dvth[row] = [shift + gauss(0.0, sigma_local)
                         for _ in range(n)]
        factors = local_leakage_factors(dvth, self.tech.subthreshold_swing())
        leakage = (self._arrays["base_nw"] * factors).sum(axis=1)
        wns_values = None
        if self._view is not None:
            derates = self._arrays["base_derate"] * local_delay_factors(
                dvth, self._arrays["vth"], self.tech.vdd, self.tech.alpha,
                OVERDRIVE_FLOOR)
            wns_values = setup_wns(self._view, derates)
        return [
            McSample(
                index=start + row,
                global_dvth_v=float(global_dvth[row]),
                leakage_nw=float(leakage[row]),
                wns=(float(wns_values[row])
                     if wns_values is not None else None))
            for row in range(count)
        ]
