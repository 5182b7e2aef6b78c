"""`repro.api` — the unified public surface of the repro system.

Three layers, one import::

    from repro.api import Workspace

    ws = Workspace()
    design = ws.design("c432")
    print(design.optimize(technique="improved_smt").leakage_nw)

* :class:`Workspace` / :class:`Design` — the facade.  A workspace
  caches every piece of expensive compiled state (the synthesized
  library, corner-derived libraries, netlists keyed by content hash,
  flow results, incremental timing sessions); a design exposes the
  capability surface as typed methods: ``analyze()``, ``optimize()``,
  ``signoff()``, ``montecarlo()``, ``sweep()``.
* :mod:`repro.api.schemas` — one serialization registry.  Every
  request and result type round-trips through
  ``to_dict()``/``from_dict()`` with a ``schema_version`` stamp.
* :mod:`repro.api.service` — the persistent job-service mode
  (``repro-smt serve``): submit/status/result/cancel over stdlib
  HTTP + JSON, backed by one warm workspace so repeated requests hit
  the caches instead of cold-starting.

The paper's grid studies (Table 1, corner signoff, Monte-Carlo, the
three-technique comparison) live in :mod:`repro.api.studies`.
"""

from repro.api import schemas
from repro.api.requests import (
    AnalyzeRequest,
    MonteCarloRequest,
    OptimizeRequest,
    PolicyRequest,
    SignoffRequest,
    StandbyRequest,
    SweepRequest,
)
from repro.api.results import (
    AnalyzeResult,
    MonteCarloResult,
    OptimizeResult,
    SignoffCornerRow,
    SignoffResult,
    SweepResult,
)
from repro.api.workspace import Design, Workspace, netlist_fingerprint
from repro.policy.optimize import PolicyResult
from repro.standby.engine import StandbyResult
from repro.api import registry as _registry  # noqa: F401  (registers the
#                                             study payload schemas)
from repro.api import studies
from repro.api.client import ServiceClient
from repro.api.resultstore import ResultStore
from repro.api.service import JobService, ServiceServer, serve
from repro.api.shards import ShardPool

__all__ = [
    "AnalyzeRequest",
    "AnalyzeResult",
    "Design",
    "JobService",
    "MonteCarloRequest",
    "MonteCarloResult",
    "OptimizeRequest",
    "OptimizeResult",
    "PolicyRequest",
    "PolicyResult",
    "ResultStore",
    "ServiceClient",
    "ShardPool",
    "ServiceServer",
    "SignoffCornerRow",
    "SignoffRequest",
    "SignoffResult",
    "StandbyRequest",
    "StandbyResult",
    "SweepRequest",
    "SweepResult",
    "Workspace",
    "netlist_fingerprint",
    "schemas",
    "serve",
    "studies",
]
