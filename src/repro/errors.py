"""Exception hierarchy for the reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class TopologyError(ReproError):
    """An AS graph is malformed or violates a structural assumption."""


class CyclicHierarchyError(TopologyError):
    """The customer-provider relationships contain a cycle.

    The paper (and Gao-Rexford safety) assumes the provider hierarchy is
    acyclic; topologies violating this are rejected at construction.
    """


class UnknownASError(TopologyError):
    """An operation referenced an AS that is not in the graph."""


class UnknownLinkError(TopologyError):
    """An operation referenced a link that is not in the graph."""


class SimulationError(ReproError):
    """The discrete-event engine was driven incorrectly."""


class ConvergenceError(SimulationError):
    """A protocol failed to converge within the configured horizon."""


class ConfigurationError(ReproError):
    """An experiment or generator was configured inconsistently."""


class ParseError(ReproError):
    """A serialized topology or routing table could not be parsed."""


class LedgerMergeError(ReproError):
    """Two ledgers cannot be merged safely.

    Raised when the inputs declare different ``LEDGER_SALT`` values or
    contain records of a different format version — merging them would
    produce a ledger whose keys silently mean different things.
    """


class ServiceError(ReproError):
    """The campaign service was driven incorrectly.

    Covers invalid lifecycle transitions (cancelling a finished
    campaign, fetching the result of one still running) and journal
    misuse; the HTTP layer maps these onto structured 4xx responses.
    """


class SpecValidationError(ServiceError):
    """A submitted campaign spec failed validation.

    ``details`` is a list of ``{"field": ..., "message": ...}`` dicts —
    one entry per offending field — which the service returns verbatim
    in the structured 400 response body.
    """

    def __init__(self, details) -> None:
        message = "; ".join(
            f"{d['field']}: {d['message']}" for d in details
        ) or "invalid campaign spec"
        super().__init__(message)
        self.details = list(details)
