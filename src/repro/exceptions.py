"""Exception hierarchy for the Contra reproduction.

Every error raised by this library derives from :class:`ContraError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ContraError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class PolicyError(ContraError):
    """A policy expression is malformed or uses an unsupported construct."""


class PolicyParseError(PolicyError):
    """The textual policy could not be parsed."""

    def __init__(self, message: str, position: int | None = None, text: str | None = None):
        self.position = position
        self.text = text
        if position is not None and text is not None:
            snippet = text[max(0, position - 20):position + 20]
            message = f"{message} (at offset {position}: ...{snippet!r}...)"
        super().__init__(message)


class PolicyAnalysisError(PolicyError):
    """Static analysis of the policy failed (e.g. non-monotonic policy)."""


class TopologyError(ContraError):
    """The topology description is invalid or inconsistent."""


class CompilationError(ContraError):
    """The compiler could not generate device programs for the policy/topology."""


class VerificationError(CompilationError):
    """A compiled artifact disagrees with its symbolic source of truth.

    Raised by the device-table cross-checker when a device's tag table or
    ``probe_transition`` entries disagree with the compiled policy.
    """


class SimulationError(ContraError):
    """The discrete-event simulator encountered an invalid state."""


class WorkloadError(ContraError):
    """A workload description or generator parameter is invalid."""


class ExperimentError(ContraError):
    """An experiment driver was configured inconsistently."""
