"""Machine-readable benchmark trajectory.

Benchmarks call :func:`record` with a section name and a metrics dict;
everything accumulates into one JSON file per subsystem,
``benchmarks/BENCH_<name>.json`` (:func:`json_path`; the default is
``BENCH_variation.json``), so runs can be diffed instead of scraping
bench logs.  The files are run outputs, not tracked sources: CI
uploads them as artifacts, and ``perfbench/`` is the gated ledger.

Schema::

    {
      "schema": 1,
      "sections": {
        "<section>": {"<metric>": <number or string>, ...},
        ...
      }
    }

The file is read-modify-written per call, so sections recorded by
different test files in one run all land in the same JSON.  A call
replaces its whole section, so a metric a bench stops writing leaves
the file with its next run.
"""

from __future__ import annotations

import json
from pathlib import Path

SCHEMA_VERSION = 1


def json_path(name: str) -> Path:
    """The trajectory file of one subsystem: ``BENCH_<name>.json``."""
    return Path(__file__).resolve().parent / f"BENCH_{name}.json"


def record(section: str, metrics: dict, path: Path | None = None) -> Path:
    """Write one section's metrics into the bench JSON, replacing that
    section and keeping the others; returns the path."""
    path = path or json_path("variation")
    payload = {"schema": SCHEMA_VERSION, "sections": {}}
    if path.exists():
        try:
            existing = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(existing.get("sections"), dict):
                payload["sections"] = existing["sections"]
        except (json.JSONDecodeError, OSError):
            pass  # corrupt/unreadable trajectory: start fresh
    payload["sections"][section] = dict(metrics)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
