"""``repro.runner`` — parallel, fault-tolerant, resumable campaigns.

The execution engine behind ``--jobs N``: experiments become
serializable :class:`JobSpec` jobs, the one :class:`WorkerPool`
(persistent, batched workers with a snapshot-cached lease path;
``ForkServerPool`` is another name for it) runs them with per-job
timeouts, crash isolation, bounded retry and an in-place degradation
ladder, :class:`SerialRunner` runs them in process as the reference, a
SQLite :class:`ResultStore` makes campaigns resumable (``--resume``),
and :class:`RunnerEvent` streams progress.
"""

from repro.runner.events import (
    ConsoleRenderer,
    EventRecorder,
    RunnerEvent,
)
from repro.runner.jobs import (
    BENCHMARK_CASE,
    CAMPAIGN_RUN,
    FUZZ_TRIAL,
    SELFTEST,
    TESTCASE,
    JobSpec,
    TransientJobError,
    execute_job,
    plan_benchmark,
    plan_campaign,
    plan_coverage_round,
    plan_fuzz,
    plan_testcases,
)
from repro.runner.pool import (
    CampaignFailed,
    CampaignInterrupted,
    ForkServerPool,
    RunnerOutcome,
    SerialRunner,
    WorkerPool,
    make_runner,
    run_jobs,
    seeded_backoff,
)
from repro.runner.forkserver import execute_job_cached, preferred_context
from repro.runner.store import (
    ResultStore,
    StoreBusy,
    StoreCorrupt,
    StoreSchemaMismatch,
    StoreSummary,
)

__all__ = [
    "BENCHMARK_CASE",
    "CAMPAIGN_RUN",
    "CampaignFailed",
    "CampaignInterrupted",
    "ConsoleRenderer",
    "EventRecorder",
    "FUZZ_TRIAL",
    "ForkServerPool",
    "JobSpec",
    "ResultStore",
    "RunnerEvent",
    "RunnerOutcome",
    "SELFTEST",
    "SerialRunner",
    "StoreBusy",
    "StoreCorrupt",
    "StoreSchemaMismatch",
    "StoreSummary",
    "TESTCASE",
    "TransientJobError",
    "WorkerPool",
    "execute_job",
    "execute_job_cached",
    "make_runner",
    "preferred_context",
    "plan_benchmark",
    "plan_campaign",
    "plan_coverage_round",
    "plan_fuzz",
    "plan_testcases",
    "run_jobs",
    "seeded_backoff",
]
