"""Parallel, crash-tolerant scenario campaigns on one host.

The paper's claims are statistical: the membership protocol is only
trusted after *populations* of fault scenarios behave (Rapid's argument,
and Duarte et al.'s system-level diagnosis campaigns). This package is the
scaffold those campaigns run on:

* :class:`CampaignSpec` — a seeded population of randomized scenarios;
* :func:`run_scenario` — one scenario, one worker, one structured
  :class:`ScenarioResult`;
* :func:`run_campaign` — the driver: JSONL checkpointing/resume, retry
  bookkeeping and a completeness guarantee, in-process (``workers=0``)
  or in a process pool with per-scenario timeouts and crash retry
  (``workers >= 1``);
* :class:`CheckpointStore` / :class:`FingerprintStore` — JSONL result
  persistence and the model checker's explored-schedule memory;
* :class:`CampaignReport` — verdict counts and the latency distribution
  against the analytic bound.

CLI: ``python -m repro campaign --scenarios 30 --workers 4``.
"""

from repro.campaign.engine import (
    default_workers,
    load_checkpoint,
    run_campaign,
)
from repro.campaign.report import CampaignReport, percentile
from repro.campaign.spec import (
    VERDICT_BOOTSTRAP_FAILED,
    VERDICT_ERROR,
    VERDICT_OK,
    VERDICT_TIMEOUT,
    VERDICT_VIOLATION,
    VERDICT_WORKER_CRASH,
    VERDICTS,
    CampaignSpec,
    ScenarioResult,
)
from repro.campaign.store import (
    CheckpointStore,
    FingerprintStore,
    schedule_key,
)
from repro.campaign.worker import run_scenario

__all__ = [
    "CampaignSpec",
    "ScenarioResult",
    "CampaignReport",
    "CheckpointStore",
    "FingerprintStore",
    "run_campaign",
    "run_scenario",
    "load_checkpoint",
    "default_workers",
    "percentile",
    "schedule_key",
    "VERDICTS",
    "VERDICT_OK",
    "VERDICT_BOOTSTRAP_FAILED",
    "VERDICT_VIOLATION",
    "VERDICT_ERROR",
    "VERDICT_TIMEOUT",
    "VERDICT_WORKER_CRASH",
]
