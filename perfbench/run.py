"""The repository's end-to-end benchmark.

Runs one workload for ``--seconds`` seconds and prints, as the last line
of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced run.  Every timing is host-normalized (see
``kernel.py``).  A run record with the raw seconds, kernel readings and
host fingerprint lands in ``.perfbench/records/`` under the repository
root.  Usage, from the repository root::

    python3 perfbench/run.py --kernel-nominal-ms 3.0 \\
        --workload fuzz-warm --seed 1 --seconds 12 --trace 0

See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import sqlite3
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List

from kernel import HostClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("fuzz-warm", "campaign-cold", "service-mixed")

END_TO_END = {
    "jobs_per_s": "1/s",
    "campaign_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.restore_ms": "ms",
    "core.boot_ms": "ms",
    "core.capture_ms": "ms",
    "core.restore_per_boot": "ratio",
    "core.fuzz_body_ms": "ms",
    "core.cell_ms": "ms",
    "vulngen.synthetic_trial_ms": "ms",
    "core.lease_hit_ratio": "ratio",
    "runner.pool_start_ms": "ms",
    "runner.overhead_ms_per_job": "ms",
    "runner.store_commit_ms": "ms",
    "runner.store_bytes_per_job": "B",
    "runner.recycles_per_kjob": "1/kjob",
    "service.admit_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.run_ms": "ms",
    "service.overhead_ratio": "ratio",
    "service.status_ms": "ms",
    "service.journal_records_per_campaign": "count",
    "service.events_per_campaign": "count",
    "service.compact_s": "s",
    "trace.overhead_ms": "ms",
}


@dataclass
class Result:
    attempted: int
    failed: int
    end_to_end: Dict[str, float]
    #: Per-layer metrics; a layer the workload does not exercise reads 0.
    per_layer: Dict[str, float] = field(default_factory=lambda: dict.fromkeys(PER_LAYER, 0.0))
    failures: List[str] = field(default_factory=list)
    record: Dict[str, object] = field(default_factory=dict)


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: str
    clock: HostClock


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Largest RSS of this process or of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _command_output(command, cwd) -> str:
    try:
        proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return proc.stdout.strip() if proc.returncode == 0 else ""


def fingerprint(data_dir: str) -> Dict[str, object]:
    """The host and code a run record describes."""
    git_sha = ""
    if os.path.exists(os.path.join(ROOT, ".git")):
        git_sha = _command_output(["git", "rev-parse", "HEAD"], ROOT)
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "git_sha": git_sha or None,
        "data_dir": os.path.relpath(data_dir, ROOT),
        "data_dir_fs": _command_output(["stat", "-f", "-c", "%T", data_dir], ROOT) or None,
    }


# ----------------------------------------------------------------------
# fuzz-warm and campaign-cold: back-to-back pool campaigns
# ----------------------------------------------------------------------


def pool_workload(ctx: Context, specs) -> Result:
    import outputs
    import pools

    clock = ctx.clock
    setup = [
        pools.probe_setup(SRC, ctx.workdir, specs[0], clock, index)
        for index in range(pools.SETUP_SAMPLES)
    ]
    rows = []  # (segment, campaign, traced)
    store_path = os.path.join(ctx.workdir, "campaign.sqlite")
    deadline = time.monotonic() + ctx.seconds
    while len(rows) < (2 if ctx.trace else 1) or time.monotonic() < deadline:
        traced = ctx.trace and len(rows) % 2 == 1
        clock.begin()
        started = time.perf_counter()
        campaign = pools.run_pool_campaign(specs, store_path, traced)
        segment = clock.end(f"campaign-{len(rows)}", time.perf_counter() - started)
        rows.append((segment, campaign, traced))
    rss = peak_rss_mb()

    check = outputs.OutputCheck()
    job_ids = [spec.job_id for spec in specs]
    errors: Dict[str, str] = {}
    reference = outputs.payload_digest(job_ids, outputs.serial_reference(specs, errors))
    for job_id, error in errors.items():
        check.require(f"serial reference job {job_id} raised {error}", False)
    for index, (_segment, campaign, _traced) in enumerate(rows):
        check.equal(f"campaign {index} payload digest", campaign.digest, reference)
    replay = None
    if ctx.trace:
        replay = pools.replay_in_process([specs], ctx.workdir, clock)
        check.equal(
            "in-process replay payload digest",
            outputs.payload_digest(job_ids, replay.payloads),
            reference,
        )

    # Every reading is in now: the run's normalization factor is final.
    scale = clock.scale
    untraced = [c for _s, c, t in rows if not t]
    traced_runs = [c for _s, c, t in rows if t]
    result = Result(
        attempted=sum(c.jobs for _s, c, _t in rows),
        failed=sum(c.failed for _s, c, _t in rows),
        end_to_end={
            "jobs_per_s": sum(c.jobs for c in untraced)
            / clock.norm(sum(s.raw_s for s, _c, t in rows if not t)),
            "campaign_p50_ms": median(c.latency_s for c in untraced) * scale * 1000.0,
            "setup_s": median(s.raw_s for s in setup) * scale,
            "peak_rss_mb": rss,
        },
    )
    result.record["campaigns"] = [
        dict(latency_s=c.latency_s, jobs=c.jobs, failed=c.failed, traced=traced, stats=c.stats)
        for _s, c, traced in rows
    ]
    if replay is not None:
        layer = result.per_layer
        layer.update(core_layers(replay, scale))
        layer.update(pool_layers([c for _s, c, _t in rows], [rows[0][1]]))
        layer["runner.pool_start_ms"] = (
            median(c.first_done_s for c in traced_runs) * 1000.0 - replay.job_ms[0][0]
        ) * scale
        layer["runner.overhead_ms_per_job"] = (
            median(c.latency_s for c in untraced) * 1000.0 - sum(replay.job_ms[0])
        ) * scale / len(specs)
        layer["runner.store_commit_ms"] = median(ms for c in traced_runs for ms in c.commits_ms) * scale
        layer["trace.overhead_ms"] = (
            median(c.latency_s for c in traced_runs) - median(c.latency_s for c in untraced)
        ) * scale * 1000.0
        replay.tracer.write(os.path.join(ctx.workdir, "spans.jsonl"))
    result.failures = check.failures
    return result


def core_layers(replay, scale: float) -> Dict[str, float]:
    """Per-call medians of the simulator layers from the replay."""
    restore = replay.tracer.median_ms("core.restore") * scale
    boot = replay.tracer.median_ms("core.boot") * scale
    return {
        "core.restore_ms": restore,
        "core.boot_ms": boot,
        "core.capture_ms": replay.tracer.median_ms("core.capture") * scale,
        "core.restore_per_boot": restore / boot if boot else 0.0,
        "core.fuzz_body_ms": replay.tracer.median_ms("core.fuzz_body") * scale,
        "core.cell_ms": replay.tracer.median_ms("core.cell") * scale,
        "vulngen.synthetic_trial_ms": replay.tracer.median_ms("vulngen.synthetic_trial") * scale,
    }


def pool_layers(campaigns, first) -> Dict[str, float]:
    """Exact counts taken from the pools' own statistics and stores.

    Store bytes come from the ``first`` campaigns only, which every run
    of a seed holds, so the figure repeats exactly for that seed.
    """
    stats: Dict[str, int] = {}
    for campaign in campaigns:
        for key, value in campaign.stats.items():
            stats[key] = stats.get(key, 0) + value
    restores = stats.get("forkserver.restores", 0)
    leases = restores + stats.get("forkserver.captures", 0) + stats.get("forkserver.cold_boots", 0)
    jobs = sum(campaign.jobs for campaign in campaigns)
    return {
        "core.lease_hit_ratio": restores / leases if leases else 0.0,
        "runner.store_bytes_per_job": sum(c.store_bytes for c in first) / sum(c.jobs for c in first),
        "runner.recycles_per_kjob": stats.get("forkserver.workers.recycled", 0) * 1000.0 / jobs,
    }


# ----------------------------------------------------------------------
# service-mixed: repro serve over HTTP
# ----------------------------------------------------------------------


def service_workload(ctx: Context) -> Result:
    import outputs
    import pools
    import service
    from repro.service import compact

    clock = ctx.clock
    setup = []
    server = None
    for index in range(service.SETUP_SAMPLES):
        if server is not None:
            server.stop()
        data_dir = os.path.join(ctx.workdir, f"service-{index}")
        server, warmup, segment = service.setup_sample(SRC, data_dir, ctx.seed, index, clock)
        setup.append(segment)
    try:
        waves, subs = service.run_waves(server, ctx.seed, ctx.seconds, clock, 2 if ctx.trace else 1)
    finally:
        server.stop()
    rss = peak_rss_mb()
    compacted, compact_segment = service.timed_compaction(server.data_dir, clock)

    check = outputs.OutputCheck()
    for sub in subs:
        check.require(
            f"{sub.tenant} campaign {sub.campaign_id or sub.plan} ended "
            f"{sub.status}/{sub.state} with {sub.ok_jobs}/{sub.jobs} jobs",
            sub.done,
        )
    # The same jobs on a bare pool.  A traced run gives each campaign a
    # fresh pool, as the service does, for the per-campaign layers; an
    # untraced run needs only the compacted sha, which does not depend
    # on how the jobs are split into stores, so one pool runs them all.
    ran = [(service.plan_jobs(warmup.plan), False)] + [
        (service.plan_jobs(sub.plan), ctx.trace and sub.wave % 2 == 1)
        for sub in subs if sub.status == 202
    ]
    if not ctx.trace:
        unique = {spec.job_id: spec for specs, _traced in ran for spec in specs}
        ran = [(list(unique.values()), False)]
    ref_rows = []
    ref_paths = []
    clock.begin()
    started = time.perf_counter()
    for index, (specs, traced) in enumerate(ran):
        path = os.path.join(ctx.workdir, "reference", f"{index}.sqlite")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        campaign = pools.run_pool_campaign(specs, path, traced, keep_store=True)
        ref_rows.append((campaign, traced))
        ref_paths.append(path)
        check.equal(f"reference campaign {index} failed jobs", campaign.failed, 0)
    clock.end("reference", time.perf_counter() - started)
    reference = compact(ref_paths, os.path.join(ctx.workdir, "reference-compacted.sqlite"))
    check.equal("compacted store sha256", compacted.sha256, reference.sha256)

    replay = None
    served = [sub for sub in subs if sub.status == 202]
    if ctx.trace:
        replay = pools.replay_in_process(
            [service.plan_jobs(sub.plan) for sub in served], ctx.workdir, clock
        )

    # Every reading is in now: the run's normalization factor is final.
    scale = clock.scale
    result = Result(
        attempted=sum(sub.jobs for sub in subs),
        failed=sum(sub.jobs - sub.ok_jobs for sub in subs),
        end_to_end={
            "jobs_per_s": sum(sub.ok_jobs for sub in subs) / clock.norm(sum(w.raw_s for w in waves)),
            "campaign_p50_ms": median(s.finished - s.submitted for s in served) * scale * 1000.0,
            "setup_s": median(segment.raw_s for segment in setup) * scale,
            "peak_rss_mb": rss,
        },
    )
    result.record["campaigns"] = [
        {
            "tenant": sub.tenant, "wave": sub.wave, "status": sub.status,
            "state": sub.state, "jobs": sub.jobs, "ok": sub.ok_jobs,
            "latency_s": sub.finished - sub.submitted,
        }
        for sub in subs
    ]
    if replay is not None:
        measured = [c for c, _t in ref_rows[1:]]  # the warm-up campaign is set-up
        traced = [(i, c) for i, (c, t) in enumerate(ref_rows[1:]) if t]
        untraced = [c for c, t in ref_rows[1:] if not t]
        layer = result.per_layer
        layer.update(core_layers(replay, scale))
        layer.update(pool_layers(measured, [c for c, s in zip(measured, served) if s.wave == 0]))
        layer["runner.pool_start_ms"] = median(
            c.first_done_s * 1000.0 - replay.job_ms[i][0] for i, c in traced
        ) * scale
        layer["runner.overhead_ms_per_job"] = sum(
            c.latency_s * 1000.0 - sum(replay.job_ms[i]) for i, c in enumerate(measured)
        ) * scale / sum(c.jobs for c in measured)
        layer["runner.store_commit_ms"] = median(ms for _i, c in traced for ms in c.commits_ms) * scale
        layer["trace.overhead_ms"] = (
            median(c.latency_s for _i, c in traced) - median(c.latency_s for c in untraced)
        ) * scale * 1000.0

        def ms(values) -> float:
            return median(values) * scale * 1000.0

        layer["service.admit_ms"] = ms(s.admitted - s.submitted for s in served)
        layer["service.queue_wait_ms"] = ms(s.started - s.admitted for s in served)
        layer["service.run_ms"] = ms(s.finished - s.started for s in served)
        layer["service.status_ms"] = ms(t for s in served for t in s.status_calls_s)
        # Service latency without the queue wait (admit + run), over the
        # latency of ForkServerPool.run on the identical jobs.
        layer["service.overhead_ratio"] = sum(
            (s.admitted - s.submitted) + (s.finished - s.started) for s in served
        ) / sum(c.latency_s for c in measured)
        ids = [sub.campaign_id for sub in served]
        layer["service.journal_records_per_campaign"] = (
            service.count_journal_records(server.data_dir, ids) / len(served)
        )
        layer["service.events_per_campaign"] = service.count_events(server.data_dir, served) / len(served)
        layer["service.compact_s"] = clock.norm(compact_segment.raw_s)
        replay.tracer.write(os.path.join(ctx.workdir, "spans.jsonl"))
    result.failures = check.failures
    return result


# ----------------------------------------------------------------------


def run(ctx: Context) -> Result:
    import plans

    if ctx.workload == "fuzz-warm":
        return pool_workload(ctx, plans.fuzz_warm(ctx.seed))
    if ctx.workload == "campaign-cold":
        return pool_workload(ctx, plans.campaign_cold(ctx.seed))
    return service_workload(ctx)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kernel-nominal-ms", type=float, required=True,
                        help="nominal reference-kernel time that timings are scaled to")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so that ``finally`` blocks stop the
    # service subprocess and remove the work directory.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Pools fork their workers from this process.  Import what the CLI
    # imports, as ``repro campaign`` has, so that workers start warm.
    import repro.cli  # noqa: F401
    import pools
    import service

    needed = service.CONNECTIONS if args.workload == "service-mixed" else pools.WORKERS
    if needed > (os.cpu_count() or 1):
        print(f"perfbench: {args.workload} needs {needed} workers/connections, "
              f"nproc is {os.cpu_count()}", file=sys.stderr)
        return 2

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"{name}-{os.getpid()}")
    records = os.path.join(OUT, "records")
    os.makedirs(workdir)
    os.makedirs(records, exist_ok=True)
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace), workdir,
                  HostClock(args.kernel_nominal_ms))
    try:
        host = fingerprint(workdir)
        result = run(ctx)
        spans = os.path.join(workdir, "spans.jsonl")
        if os.path.exists(spans):
            shutil.move(spans, os.path.join(records, f"{name}.spans.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result.per_layer if ctx.trace else result.end_to_end
    units = PER_LAYER if ctx.trace else END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "kernel_nominal_ms": args.kernel_nominal_ms,
        "host": host, "end_to_end": result.end_to_end, "per_layer": result.per_layer,
        "attempted": result.attempted, "failed": result.failed,
        "output_failures": result.failures, "clock": ctx.clock.record(), **result.record,
    }
    with open(os.path.join(records, f"{name}.json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    for failure in result.failures:
        print(f"perfbench: output check failed: {failure}", file=sys.stderr)
    correct = not result.failures and result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
