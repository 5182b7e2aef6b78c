"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so a
caller embedding the flow can catch one type.  Sub-hierarchies follow the
package layout: parsing, netlist consistency, timing, and the Selective-MT
flow itself each get a dedicated class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ParseError(ReproError):
    """A source file (Liberty, .bench, Verilog, SDC, SPEF) failed to parse.

    Carries optional location information for diagnostics.
    """

    def __init__(self, message: str, filename: str | None = None,
                 line: int | None = None, column: int | None = None):
        self.filename = filename
        self.line = line
        self.column = column
        location = ""
        if filename is not None:
            location = f"{filename}:"
        if line is not None:
            location += f"{line}:"
            if column is not None:
                location += f"{column}:"
        if location:
            message = f"{location} {message}"
        super().__init__(message)


class LibertyError(ParseError):
    """Structural problem in a Liberty library (missing cell, pin, table)."""


class NetlistError(ReproError):
    """Netlist construction or consistency violation."""


class ValidationError(NetlistError):
    """A netlist failed validation (floating nets, multiple drivers, ...)."""


class TimingError(ReproError):
    """Timing analysis failure (no constraints, combinational loop, ...)."""


class PowerError(ReproError):
    """Power/leakage analysis failure."""


class PlacementError(ReproError):
    """Placement failure (overflow, unlegalizable, ...)."""


class RoutingError(ReproError):
    """Routing estimation / extraction failure."""


class VgndError(ReproError):
    """Virtual-ground network construction or analysis failure."""


class SizingError(VgndError):
    """No switch size satisfies the voltage-bounce constraint."""


class StandbyError(VgndError):
    """Standby-transition analysis failure (unsized cluster, infeasible
    rush-current budget, unknown power-mode scenario)."""


class FlowError(ReproError):
    """Selective-MT flow orchestration failure."""


class ConfigError(FlowError):
    """A configuration dataclass rejected a field value.

    Subclasses :class:`FlowError` so existing ``except FlowError``
    call sites keep working; carries the offending field name so
    callers (and the job service's 400-equivalent payloads) can point
    at exactly what to fix.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        self.reason = message
        super().__init__(f"invalid {field}: {message}")

    def __reduce__(self):
        # Pickle (e.g. out of a pool worker) from the two constructor
        # arguments, not from the formatted ``args``.
        return type(self), (self.field, self.reason)


class SchemaError(ReproError):
    """A typed payload failed schema encoding, decoding or round-trip."""


class ServiceError(ReproError):
    """A job-service request was invalid or cannot be satisfied.

    ``status`` mirrors HTTP semantics: 400 malformed request, 404
    unknown job, 409 conflicting state (e.g. cancelling a finished
    job), 429 queue full (back-pressure).  ``retry_after`` is the
    optional hint (seconds) a 429 carries so clients know when to
    retry.
    """

    def __init__(self, message: str, status: int = 400,
                 retry_after: float | None = None):
        self.status = status
        self.retry_after = retry_after
        super().__init__(message)


class EquivalenceError(ReproError):
    """Two netlists expected to be equivalent are not."""
