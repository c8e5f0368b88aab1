"""Pool campaigns, set-up probes and the in-process replay."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from kernel import HostClock, Segment
from outputs import payload_digest
from tracing import TimedResultStore, Tracer, instrument

from repro.runner import ForkServerPool, JobSpec, ResultStore

#: Workers per pool.  The benchmark refuses to run if this exceeds nproc.
WORKERS = 1
#: Set-up launches per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")


@dataclass
class PoolCampaign:
    """One ``ForkServerPool.run`` into a fresh store."""

    jobs: int
    #: Raw seconds of the ``run()`` call.
    latency_s: float
    #: Raw seconds from the ``run()`` call to the first job-finished
    #: event (traced campaigns only).
    first_done_s: Optional[float]
    digest: str
    failed: int
    store_bytes: int
    stats: Dict[str, int]
    commits_ms: List[float] = field(default_factory=list)


def run_pool_campaign(
    specs: Sequence[JobSpec], store_path: str, traced: bool, keep_store: bool = False
) -> PoolCampaign:
    first_done: List[float] = []

    def on_event(event) -> None:
        if event.kind == "job-finished" and not first_done:
            first_done.append(time.perf_counter())

    commits: List[float] = []
    pool = ForkServerPool(jobs=WORKERS, on_event=on_event if traced else None)
    store = TimedResultStore(store_path, commits) if traced else ResultStore(store_path)
    with store:
        store.register(specs)
        started = time.perf_counter()
        outcome = pool.run(specs, store=store)
        latency = time.perf_counter() - started
    if outcome.interrupted:
        # The pool's signal guard caught the signal: exit as it would have.
        signum = getattr(signal, outcome.interrupt_signal, None)
        raise SystemExit(128 + signum if signum else 1)
    size = os.path.getsize(store_path)
    if not keep_store:
        os.remove(store_path)
    return PoolCampaign(
        jobs=len(specs),
        latency_s=latency,
        first_done_s=(first_done[0] - started) if first_done else None,
        digest=payload_digest([s.job_id for s in specs], outcome.results),
        failed=len(specs) - len(outcome.results),
        store_bytes=size,
        stats=dict(pool.stats),
        commits_ms=commits,
    )


def probe_setup(src: str, workdir: str, spec: JobSpec, clock: HostClock, index: int) -> Segment:
    """Launch a fresh interpreter that runs ``spec`` on a fresh pool;
    the segment runs from launch to that job's completion."""
    store_path = os.path.join(workdir, f"probe-{index}.sqlite")
    clock.begin()
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, PROBE, src, store_path, spec.to_json()],
        capture_output=True, text=True, timeout=120,
    )
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or "first_done" not in report:
        raise RuntimeError(f"set-up probe failed: {proc.stdout}{proc.stderr}")
    segment = clock.end(f"setup-{index}", report["first_done"] - launched)
    os.remove(store_path)
    return segment


def reset_lease_cache() -> None:
    """Forget the in-process snapshot cache, as a fresh pool worker does."""
    from repro.runner import forkserver

    reset = getattr(forkserver, "_reset_worker_cache", None)
    if reset is not None:
        reset()


@dataclass
class Replay:
    """In-process replay of pool campaigns: lease -> body -> encode -> commit."""

    tracer: Tracer
    #: Per campaign: each job's raw in-process milliseconds, in order.
    job_ms: List[List[float]]
    payloads: Dict[str, object]


def replay_in_process(campaigns: Sequence[Sequence[JobSpec]], workdir: str, clock: HostClock) -> Replay:
    """Run each campaign's jobs through the worker's own job function,
    one fresh lease cache per campaign, with every layer call timed."""
    from repro.runner import execute_job_cached

    tracer = Tracer()
    store_path = os.path.join(workdir, "replay.sqlite")
    payloads: Dict[str, object] = {}
    with ResultStore(store_path) as store:
        store.register([spec for specs in campaigns for spec in specs])
        clock.begin()
        started = time.perf_counter()
        with instrument(tracer):
            for specs in campaigns:
                reset_lease_cache()
                for spec in specs:
                    tracer.job = spec.job_id
                    with tracer.span("runner.job"):
                        payload = execute_job_cached(spec)
                        with tracer.span("runner.store_commit"):
                            store.record_success(spec.job_id, payload, None)
                    payloads[spec.job_id] = payload
        clock.end("replay", time.perf_counter() - started)
    reset_lease_cache()
    os.remove(store_path)
    job_spans = iter(tracer.durations_ms("runner.job"))
    job_ms = [[next(job_spans) for _ in specs] for specs in campaigns]
    return Replay(tracer=tracer, job_ms=job_ms, payloads=payloads)
