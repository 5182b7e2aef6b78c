"""Vectorized array-compute backend for the batch axes and leakage sums.

Design STA has one engine on every backend: the scalar, incremental
:class:`~repro.timing.session.TimingSession`.  The computations that
carry a batch axis — Monte-Carlo samples, PVT corners, standby
scenarios, policy candidates — and the leakage sums keep **two
numerically equivalent implementations**:

* ``python`` — the reference scalar implementation: per-instance
  loops in :mod:`repro.power.leakage`, :mod:`repro.variation.montecarlo`
  (one incremental session across the samples) and the standby/policy
  savings kernel.  Always available, easy to audit, the ground truth
  the property suite compares against.
* ``numpy`` — a compiled array view of one finished design
  (:mod:`repro.compute.view` + :mod:`repro.compute.kernels`): the
  netlist is lowered once into stable index maps, CSR-style adjacency
  and gathered Liberty coefficient tables, and a batch of full-design
  propagations becomes a handful of levelized array passes.  A
  Monte-Carlo chunk evaluates as one ``(samples x instances)`` pass
  instead of ``k`` sequential re-propagations.

Backend selection is a plain string carried by
:class:`repro.config.FlowConfig` (``compute_backend``), the CLI
(``--backend``) and the batch engines' constructors.  ``numpy``
degrades gracefully: when the optional dependency is missing (install
with ``pip install .[fast]``), :func:`resolve_backend` silently falls
back to the scalar path, so the same scripts run everywhere.

Equivalence contract (enforced by
``tests/compute/test_backend_equivalence.py``): one forward-kernel
sample equals a scalar STA report node for node and endpoint slack for
slack (``==``); batched Monte-Carlo samples and total leakage agree
with the scalar loops to within 1e-9 relative.
"""

from __future__ import annotations

import os

from repro.errors import FlowError

#: The recognized compute backends.
BACKENDS = ("python", "numpy")

#: Environment override consulted by :func:`default_backend` — lets CI
#: run the whole test suite under either backend without code changes.
BACKEND_ENV_VAR = "REPRO_COMPUTE_BACKEND"


def numpy_available() -> bool:
    """True when the optional numpy dependency can be imported."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def resolve_backend(name: str | None) -> str:
    """Validate a backend name and apply the graceful scalar fallback.

    ``None`` resolves to :func:`default_backend`.  Requesting
    ``numpy`` without numpy installed is *not* an error — the scalar
    reference path is numerically equivalent, so we quietly use it.
    Unknown names raise :class:`~repro.errors.FlowError`.
    """
    if name is None:
        return default_backend()
    if name not in BACKENDS:
        raise FlowError(
            f"unknown compute backend {name!r}; known: {BACKENDS}")
    if name == "numpy" and not numpy_available():
        return "python"
    return name


def default_backend() -> str:
    """The session-wide default backend.

    Reads ``REPRO_COMPUTE_BACKEND`` (so a CI matrix job can flip every
    flow and batch engine at once) and falls back to ``python``.
    The value is resolved, so an unavailable numpy degrades to the
    scalar path here too.
    """
    name = os.environ.get(BACKEND_ENV_VAR, "").strip() or "python"
    if name not in BACKENDS:
        raise FlowError(
            f"{BACKEND_ENV_VAR}={name!r} is not a known backend; "
            f"known: {BACKENDS}")
    if name == "numpy" and not numpy_available():
        return "python"
    return name


__all__ = [
    "BACKENDS",
    "BACKEND_ENV_VAR",
    "default_backend",
    "numpy_available",
    "resolve_backend",
]
