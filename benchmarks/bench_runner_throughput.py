"""Extension experiment — campaign execution-engine scaling curve.

Runs the same §IV-C fuzz-trial job set through both execution engines
the repository ships — the serial in-process loop and the worker pool
(persistent, snapshot-cached workers) — across campaign sizes
(30 / 300 / 3000 jobs) and pool worker counts (1 / 2 / 4 / 8).
Because every trial derives a private RNG seed from the campaign root,
both engines must produce byte-identical payloads; the curve measures
pure execution-engine overhead.

What the curve shows:

* the pool beats serial even at 30 jobs (a forked worker inherits
  warm imports and trials restore a cached checkpoint instead of
  booting a testbed);
* how pool throughput scales in workers out to 3000 jobs, reported as
  jobs/sec/worker (rows with more workers than the host has cores are
  oversubscribed).

The archived artefact is JSON with a fixed schema and canonical key
order (``benchmarks/output/runner_throughput.json``); absolute rates
vary with the host, the schema and the parity verdicts must not.

Run directly for the full matrix (the CI artifact)::

    PYTHONPATH=src python benchmarks/bench_runner_throughput.py

or through pytest-benchmark for the reduced matrix::

    pytest benchmarks/bench_runner_throughput.py -s
"""

import json
import pathlib
import time

from repro.runner import SerialRunner, WorkerPool, plan_fuzz
from repro.runner.forkserver import preferred_context

ROOT_SEED = 20230701
VERSION = "4.13"
COMPONENTS = ["idt", "shared-pud", "m2p", "victim-pagetables", "victim-data"]
SIZES = (30, 300, 3000)
WORKER_COUNTS = (1, 2, 4, 8)
OUTPUT_PATH = pathlib.Path(__file__).parent / "output" / "runner_throughput.json"


def _specs(total):
    assert total % len(COMPONENTS) == 0
    return plan_fuzz(
        VERSION, COMPONENTS, total // len(COMPONENTS), ROOT_SEED
    )


def _measure(runner, specs):
    started = time.perf_counter()
    outcome = runner.run(specs)
    elapsed = time.perf_counter() - started
    assert not outcome.failures, outcome.failures
    payloads = [outcome.results[s.job_id] for s in specs]
    return elapsed, payloads


def _entry(mode, workers, specs, elapsed, parity, stats=None):
    total = len(specs)
    entry = {
        "mode": mode,
        "workers": workers,
        "jobs": total,
        "wall_s": round(elapsed, 3),
        "jobs_per_s": round(total / elapsed, 1),
        "jobs_per_s_per_worker": round(total / elapsed / max(workers, 1), 1),
        "parity": parity,
    }
    if stats is not None:
        entry["snapshot_restores"] = stats.get("forkserver.restores", 0)
        entry["cold_boots"] = (
            stats.get("forkserver.captures", 0)
            + stats.get("forkserver.cold_boots", 0)
        )
        entry["workers_recycled"] = stats.get(
            "forkserver.workers.recycled", 0
        )
    return entry


def build_curve(sizes=SIZES, worker_counts=WORKER_COUNTS):
    """The scaling matrix: serial baselines + the pool curve."""
    matrix = []
    reference = {}
    for total in sizes:
        specs = _specs(total)
        elapsed, payloads = _measure(SerialRunner(), specs)
        reference[total] = payloads
        matrix.append(_entry("serial", 1, specs, elapsed, parity=True))

    for total in sizes:
        specs = _specs(total)
        for workers in worker_counts:
            pool = WorkerPool(jobs=workers)
            elapsed, payloads = _measure(pool, specs)
            matrix.append(
                _entry("pool", workers, specs, elapsed,
                       parity=payloads == reference[total],
                       stats=pool.stats)
            )
    return {
        "campaign": {
            "version": VERSION,
            "components": COMPONENTS,
            "root_seed": ROOT_SEED,
        },
        "context": preferred_context(),
        "matrix": matrix,
    }


def render(curve):
    lines = [
        "campaign execution engines on Xen "
        f"{curve['campaign']['version']} fuzz trials "
        f"(start method: {curve['context']})",
        f"{'mode':<14}{'workers':<9}{'jobs':<7}{'wall (s)':<10}"
        f"{'jobs/s':<9}{'jobs/s/worker':<15}{'parity'}",
        "-" * 72,
    ]
    for row in curve["matrix"]:
        lines.append(
            f"{row['mode']:<14}{row['workers']:<9}{row['jobs']:<7}"
            f"{row['wall_s']:<10.3f}{row['jobs_per_s']:<9.1f}"
            f"{row['jobs_per_s_per_worker']:<15.1f}"
            f"{'ok' if row['parity'] else 'DIVERGED'}"
        )
    return "\n".join(lines)


def write_artifact(curve, path=OUTPUT_PATH):
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(curve, indent=2, sort_keys=True) + "\n")
    return path


def _rows(curve, mode, jobs=None):
    return [
        row for row in curve["matrix"]
        if row["mode"] == mode and (jobs is None or row["jobs"] == jobs)
    ]


def check_curve(curve):
    """The claims the artefact must support, host speed aside."""
    assert all(row["parity"] for row in curve["matrix"]), (
        "an execution engine diverged from the serial reference"
    )
    smallest = min(row["jobs"] for row in curve["matrix"])
    serial_small = _rows(curve, "serial", smallest)[0]
    pool_small = max(
        _rows(curve, "pool", smallest),
        key=lambda row: row["jobs_per_s"],
    )
    assert pool_small["jobs_per_s"] > serial_small["jobs_per_s"], (
        f"the pool ({pool_small['jobs_per_s']} jobs/s) must beat "
        f"serial ({serial_small['jobs_per_s']} jobs/s) on the "
        f"{smallest}-job campaign"
    )
    for row in _rows(curve, "pool"):
        if row["jobs"] >= 300:
            assert row["snapshot_restores"] > 0, (
                "the pool ran a large campaign without its cache"
            )


def test_runner_throughput(benchmark):
    """pytest-benchmark entry: reduced matrix, full parity checking."""
    from benchmarks.conftest import publish

    curve = benchmark.pedantic(
        build_curve,
        kwargs={"sizes": (30, 300), "worker_counts": (1, 4)},
        rounds=1,
        iterations=1,
    )
    check_curve(curve)
    publish("runner_throughput", render(curve))


def main():
    curve = build_curve()
    check_curve(curve)
    path = write_artifact(curve)
    print(render(curve))
    print(f"\nartifact: {path}")


if __name__ == "__main__":
    main()
