"""Typed request objects for the :class:`~repro.api.Workspace` facade.

Every :class:`~repro.api.Design` capability takes one frozen request
dataclass (hashable, so requests double as cache keys) and returns one
typed result from :mod:`repro.api.results`.  Requests are registered
in the schema registry, so a job-service submission body *is* a
request payload — the HTTP layer and the in-process facade speak the
same language.

Requests own their field types: technique names become
:class:`~repro.config.Technique` members and sequences become tuples,
so a keyword-built request equals (and hashes like) the typed one.
Every other field is checked by type and range from one table
(:data:`_CHECKS`), the way :class:`~repro.config.FlowConfig` checks
its own: a bad value raises :class:`~repro.errors.ConfigError` naming
the field (the service's 400).
"""

from __future__ import annotations

import dataclasses
import math

from repro.api import schemas
from repro.config import Technique, _integer, _number, _optional, check_fields
from repro.errors import ConfigError
from repro.policy.optimize import DEFAULT_CANDIDATES, DEFAULT_MAX_DOMAINS
from repro.standby.scenario import PowerModeScenario
from repro.standby.transient import DEFAULT_SETTLE_FRACTION
from repro.variation.montecarlo import McConfig


def _check_scenario_payloads(payloads, names) -> None:
    """Shared user-defined-scenario validation (standby + policy)."""
    seen: set[str] = set(names)
    for payload in payloads:
        if not isinstance(payload, PowerModeScenario):
            raise ConfigError(
                "scenario_payloads",
                f"entries must be PowerModeScenario, got {payload!r}")
        if payload.name in seen:
            raise ConfigError(
                "scenario_payloads",
                f"duplicate scenario name {payload.name!r}")
        seen.add(payload.name)


def _technique(field: str, value) -> Technique:
    try:
        return Technique(value)
    except ValueError:
        valid = ", ".join(t.value for t in Technique)
        raise ConfigError(
            field, f"unknown technique {value!r}; valid: {valid}") from None


def _own_types(request) -> None:
    """Coerce a request's technique names and sequences in place, then
    check every field :data:`_CHECKS` names."""
    for field in dataclasses.fields(request):
        value = getattr(request, field.name)
        if field.type.startswith("tuple["):
            try:
                value = tuple(value)
            except TypeError:
                raise ConfigError(
                    field.name,
                    f"must be a sequence, got {value!r}") from None
        if field.name == "technique":
            value = _technique(field.name, value)
        elif field.name == "techniques":
            value = tuple(_technique(field.name, v) for v in value)
        object.__setattr__(request, field.name, value)
    check_fields(request, _CHECKS)


#: Mapped-variant names accepted by :class:`AnalyzeRequest`.
ANALYZE_VARIANTS = ("lvt", "hvt")


def _name(value) -> bool:
    return isinstance(value, str) and bool(value)


_NAMES = (lambda value: all(map(_name, value)), "non-empty names")
_COUNT = (_integer(lambda v: v >= 1), "an int >= 1")
_SIGMA = (_number(lambda v: 0.0 <= v < math.inf), "a finite number >= 0")
_BUDGET = (_optional(_number(lambda v: 0.0 < v < math.inf)),
           "null or a finite number > 0")

#: field -> (predicate, what a valid value is) for the fields of every
#: request type, checked after technique and sequence coercion.
_CHECKS = {
    "variant": (lambda value: value in ANALYZE_VARIANTS,
                f"one of {ANALYZE_VARIANTS}"),
    "techniques": (bool, "at least one technique"),
    "scenarios": _NAMES,
    "corners": _NAMES,
    "corner": (_optional(_name), "null or a non-empty name"),
    "samples": _COUNT,
    "seed": (_integer(lambda v: True), "an int"),
    "sigma_global_v": _SIGMA,
    "sigma_local_v": _SIGMA,
    "timing": (lambda value: isinstance(value, bool), "true or false"),
    "leakage_budget_nw": _BUDGET,
    "rush_budget_ma": _BUDGET,
    "settle_fraction": (_number(lambda v: 0.0 < v < 0.5), "in (0, 0.5)"),
    "candidates": _COUNT,
    "max_domains": _COUNT,
}

#: Every technique, in Table 1 order (the enum declaration order).
DEFAULT_TECHNIQUES = tuple(Technique)

TECHNIQUE = (lambda t: t.value, Technique)


@dataclasses.dataclass(frozen=True)
class AnalyzeRequest:
    """Baseline analysis: STA + leakage of the design as loaded.

    The netlist is technology-mapped to one Vth class (no flow, no
    optimization) and analyzed against the config-derived clock — the
    "what am I starting from" probe that every optimization decision
    is normalized against.
    """

    variant: str = "lvt"

    def __post_init__(self):
        _own_types(self)


@dataclasses.dataclass(frozen=True)
class OptimizeRequest:
    """Run one of the paper's techniques end to end (the Fig. 4 flow)."""

    technique: Technique = Technique.IMPROVED_SMT

    def __post_init__(self):
        _own_types(self)


@dataclasses.dataclass(frozen=True)
class SignoffRequest:
    """Multi-corner signoff of one technique's finished design.

    An empty ``corners`` tuple means the technology's default signoff
    set (nominal + worst leakage + worst timing).
    """

    technique: Technique = Technique.IMPROVED_SMT
    corners: tuple[str, ...] = ()

    def __post_init__(self):
        _own_types(self)


@dataclasses.dataclass(frozen=True)
class MonteCarloRequest:
    """Monte-Carlo Vth-variation study of one technique's design.

    Mirrors :class:`~repro.variation.montecarlo.McConfig`; sample ``k``
    stays a pure function of ``(seed, k)``, so results are identical
    for any worker fan-out.
    """

    technique: Technique = Technique.IMPROVED_SMT
    samples: int = McConfig.samples
    seed: int = McConfig.seed
    sigma_global_v: float = McConfig.sigma_global_v
    sigma_local_v: float = McConfig.sigma_local_v
    timing: bool = McConfig.timing
    corner: str | None = None
    leakage_budget_nw: float | None = None

    def __post_init__(self):
        _own_types(self)


@dataclasses.dataclass(frozen=True)
class StandbyRequest:
    """Standby-transition study of one technique's finished design.

    Empty ``scenarios`` means every built-in power-mode scenario
    (:func:`repro.standby.scenario.standard_scenarios`); empty
    ``corners`` means the technology's default signoff set, so wake
    latency and rush current are checked where they are worst.
    ``rush_budget_ma=None`` derives the default di/dt budget.

    ``scenario_payloads`` carries fully user-defined scenarios (any
    distribution, including ``empirical`` quantile grids built from
    idle traces by :mod:`repro.policy.traces`); they are evaluated
    alongside the named ones, and names must not collide.
    """

    technique: Technique = Technique.IMPROVED_SMT
    scenarios: tuple[str, ...] = ()
    scenario_payloads: tuple[PowerModeScenario, ...] = ()
    corners: tuple[str, ...] = ()
    rush_budget_ma: float | None = None
    settle_fraction: float = DEFAULT_SETTLE_FRACTION

    def __post_init__(self):
        _own_types(self)
        _check_scenario_payloads(self.scenario_payloads, self.scenarios)


@dataclasses.dataclass(frozen=True)
class PolicyRequest:
    """Sleep-policy sweep of one technique's finished design.

    Sweeps at least ``candidates`` (domain plan, per-domain threshold)
    policies through the batched scenario engine and returns the
    Pareto front of (net savings, worst wake latency, peak rush).
    Scenario and corner semantics match :class:`StandbyRequest`
    (including user-defined ``scenario_payloads``); ``max_domains``
    bounds the hierarchical power-domain plans swept alongside the
    per-cluster plan.
    """

    technique: Technique = Technique.IMPROVED_SMT
    scenarios: tuple[str, ...] = ()
    scenario_payloads: tuple[PowerModeScenario, ...] = ()
    corners: tuple[str, ...] = ()
    candidates: int = DEFAULT_CANDIDATES
    max_domains: int = DEFAULT_MAX_DOMAINS
    rush_budget_ma: float | None = None
    settle_fraction: float = DEFAULT_SETTLE_FRACTION

    def __post_init__(self):
        _own_types(self)
        _check_scenario_payloads(self.scenario_payloads, self.scenarios)


@dataclasses.dataclass(frozen=True)
class SweepRequest:
    """Compare techniques on the design (one Table 1 row group)."""

    techniques: tuple[Technique, ...] = DEFAULT_TECHNIQUES

    def __post_init__(self):
        _own_types(self)


#: Job kind -> request dataclass.  Each kind names the
#: :class:`~repro.api.Design` method that serves it.
JOB_KINDS = {
    "analyze": AnalyzeRequest,
    "optimize": OptimizeRequest,
    "signoff": SignoffRequest,
    "montecarlo": MonteCarloRequest,
    "standby": StandbyRequest,
    "policy": PolicyRequest,
    "sweep": SweepRequest,
}


schemas.dataclass_schema("analyze_request", 1, AnalyzeRequest)
schemas.dataclass_schema("optimize_request", 1, OptimizeRequest,
                         technique=TECHNIQUE)
schemas.dataclass_schema("signoff_request", 1, SignoffRequest,
                         technique=TECHNIQUE, corners=schemas.TUPLE)
schemas.dataclass_schema("montecarlo_request", 1, MonteCarloRequest,
                         technique=TECHNIQUE)
schemas.dataclass_schema("standby_request", 1, StandbyRequest,
                         technique=TECHNIQUE, scenarios=schemas.TUPLE,
                         scenario_payloads=schemas.seq(schemas.NESTED),
                         corners=schemas.TUPLE)
schemas.dataclass_schema("policy_request", 1, PolicyRequest,
                         technique=TECHNIQUE, scenarios=schemas.TUPLE,
                         scenario_payloads=schemas.seq(schemas.NESTED),
                         corners=schemas.TUPLE)
schemas.dataclass_schema("sweep_request", 1, SweepRequest,
                         techniques=schemas.seq(TECHNIQUE))
