"""Campaign-as-a-service: the long-lived experiment daemon.

`repro-stamp serve` wraps the supervised pool + result ledger behind a
small HTTP API (submit/status/result/cancel) with crash recovery via
an append-only journal, idempotent content-hash submission, bounded
admission, and graceful drain on SIGTERM.  See ``docs/service.md``.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "repro.service.app": (
            "CampaignHTTPServer",
            "CampaignService",
            "QueueFullError",
            "ResultNotReadyError",
            "ServiceConfig",
            "ShuttingDownError",
            "UnknownCampaignError",
            "build_result_document",
            "run_service",
        ),
        "repro.service.journal": ("CampaignJournal",),
        "repro.service.spec": ("CampaignSpec", "ServiceLimits"),
        "repro.service.state": (
            "CANCELLED",
            "Campaign",
            "DONE",
            "FAILED",
            "PARTIAL",
            "QUEUED",
            "RUNNING",
            "TERMINAL_STATES",
        ),
    },
)

__all__ = [
    "Campaign",
    "CampaignHTTPServer",
    "CampaignJournal",
    "CampaignService",
    "CampaignSpec",
    "QueueFullError",
    "ResultNotReadyError",
    "ServiceConfig",
    "ServiceLimits",
    "ShuttingDownError",
    "UnknownCampaignError",
    "build_result_document",
    "run_service",
    "QUEUED",
    "RUNNING",
    "DONE",
    "PARTIAL",
    "FAILED",
    "CANCELLED",
    "TERMINAL_STATES",
]
