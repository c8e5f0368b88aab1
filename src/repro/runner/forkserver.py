"""Worker-side lease cache: snapshot-restored testbeds for pool workers.

Every :class:`~repro.runner.pool.WorkerPool` worker is persistent, so it
can keep a per-(version, topology) **snapshot cache**: the first trial
boots a testbed and captures a
:class:`~repro.core.checkpoint.TestbedCheckpoint`; every later trial
*restores* the checkpoint in place instead of rebuilding the machine.
What a restore costs against a cold boot is measured, not assumed: see
the ``core.restore_ms`` and ``core.boot_ms`` per-layer metrics of
``perfbench`` (``BENCHMARK.json``).

Every restore is **digest-verified** against the checkpoint's
``machine_digest``; a mismatch evicts the cache entry, cold-boots a
fresh testbed and queues a structured ``restore-diverged`` infra event.
The worker loop takes those events and the ``forkserver.*`` counters
(captures, restores, divergences, cold boots) after every trial and
ships them on that trial's one result frame; the parent sums the
counters into ``WorkerPool.stats`` — they describe execution machinery
and never enter a persisted payload.

Correctness invariant: serial == pool, cached or not, byte for byte,
over results, traces and metrics — enforced by the parity tests and the
chaos harness's snapshot-corruption and restore-wedge faults.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from repro.runner.jobs import FUZZ_TRIAL, JobSpec, execute_job


def preferred_context() -> str:
    """``fork`` where the platform supports it, else ``spawn``.

    Fork inherits the parent's warm imports, so a new worker is live
    almost at once; a ``spawn`` worker re-imports everything first.
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# Module-level state is deliberate: each worker is its own process, so
# these globals are per-worker.  ``execute_job_cached`` is a plain
# picklable function, which lets the chaos harness compose it under
# its own fault-injecting job_fn wrapper.


@dataclass
class _CacheEntry:
    bed: Any
    checkpoint: Any  # TestbedCheckpoint (imported lazily)


_CACHE: Dict[str, _CacheEntry] = {}
_CACHE_STATS: Dict[str, int] = {}
_INFRA: List[dict] = []
_RESTORE_CHAOS: Optional[Any] = None


def _stat(key: str, n: int = 1) -> None:
    _CACHE_STATS[key] = _CACHE_STATS.get(key, 0) + n


def _reset_worker_cache(restore_chaos: Optional[Any] = None) -> None:
    """Forget cached beds and counters in this process (a fresh worker,
    or a test) and install the worker's restore-fault hook, if any."""
    global _RESTORE_CHAOS
    _CACHE.clear()
    _CACHE_STATS.clear()
    _INFRA.clear()
    _RESTORE_CHAOS = restore_chaos


def take_infra_events() -> List[dict]:
    """The infra events queued since the last call, oldest first."""
    events = list(_INFRA)
    _INFRA.clear()
    return events


def take_counters() -> Dict[str, int]:
    """The ``forkserver.*`` counters accrued since the last call."""
    counters = dict(_CACHE_STATS)
    _CACHE_STATS.clear()
    return counters


def _lease_bed(campaign: Any, spec: JobSpec, attempt: int = 0) -> Any:
    """A testbed for one trial: restored from cache, or cold-booted.

    The restore path is digest-verified end to end: a cached snapshot
    whose restore does not reproduce the capture-time
    ``machine_digest`` is evicted, the divergence is recorded as a
    structured infra event, and the trial falls back to the exact
    cold-boot path a cache miss takes — so a rotten snapshot can cost
    throughput but never correctness.
    """
    from repro.core.checkpoint import CheckpointDiverged, TestbedCheckpoint

    # One warm bed per (version, topology): a cached snapshot of the
    # wrong scenario shape must never serve a trial.
    key = f"{spec.version}|{spec.topology}" if spec.topology else spec.version
    entry = _CACHE.get(key)
    if entry is not None:
        if _RESTORE_CHAOS is not None:
            _RESTORE_CHAOS.before_restore(entry, spec.job_id, attempt)
        try:
            entry.checkpoint.restore(entry.bed)
            _stat("forkserver.restores")
            return entry.bed
        except CheckpointDiverged as exc:
            del _CACHE[key]
            _stat("forkserver.restore.diverged")
            _stat("forkserver.cold_boots")
            _INFRA.append(
                {
                    "kind": "restore-diverged",
                    "version": key,
                    "expected": exc.expected,
                    "actual": exc.actual,
                }
            )
    bed = campaign.testbed_factory(campaign.version)
    _CACHE[key] = _CacheEntry(
        bed=bed, checkpoint=TestbedCheckpoint.capture(bed)
    )
    _stat("forkserver.captures")
    return bed


def execute_job_cached(spec: JobSpec, attempt: int = 0) -> Dict[str, object]:
    """``execute_job`` with snapshot-cached classic fuzz trials.

    Classic (non-synthetic) fuzz trials build their testbed through
    ``testbed_factory(version)``, so one warm bed per version serves
    every trial after an exact checkpoint restore.  Every other job
    kind runs cold through :func:`~repro.runner.jobs.execute_job` —
    those jobs still gain the pool's process reuse and batch IPC,
    just not the snapshot cache.
    """
    if spec.kind != FUZZ_TRIAL:
        return execute_job(spec, attempt)
    from repro.vulngen.corpus import is_synthetic_id

    if is_synthetic_id(spec.use_case):
        return execute_job(spec, attempt)
    from repro.core.fuzz import RandomErroneousStateCampaign
    from repro.xen.versions import version_by_name

    campaign = RandomErroneousStateCampaign(version_by_name(spec.version))
    bed = _lease_bed(campaign, spec, attempt)
    component = campaign.component_by_name(spec.use_case)
    seed = spec.seed if spec.seed is not None else 0
    result = campaign.run_trial_on(bed, component, seed)
    return asdict(result)
