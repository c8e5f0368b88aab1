"""Deterministic infrastructure fault injection for the campaign runner.

The runner promises that a campaign's durable results do not depend on
*how* it executed: serial, parallel, crashed-and-resumed — the final
store contents are identical.  This module turns that promise into a
checkable invariant by running campaigns under seeded infrastructure
faults:

* **worker kill** — the worker SIGKILLs itself mid-job (a simulated
  OOM kill or hypervisor panic taking the process down);
* **worker hang** — the job wedges until the pool's timeout fires;
* **message duplication** — a result is delivered twice (at-least-once
  queue semantics);
* **message delay** — a result is delivered late;
* **store tear** — the SQLite store file is truncated between
  episodes (a torn write at the worst moment), recovered from the
  last good copy;
* **interruption** — SIGINT/SIGTERM between episodes (exercised by
  the test-suite's subprocess driver rather than in-process, so the
  harness itself never races a stray signal);
* **snapshot corruption** — a cached
  :class:`~repro.core.checkpoint.TestbedCheckpoint`'s snapshot bytes
  are flipped before a restore, so the digest check must catch the
  rot and the trial must cold-boot to the identical result;
* **restore wedge** — a restore stalls until the pool's
  batch-progress timeout kills the worker.

One :class:`ChaosPool` — the one :class:`~repro.runner.pool.WorkerPool`
with its job function, result channel and restore path wrapped —
carries the whole fault set.

Every fault decision is a pure function of ``(seed, episode, job)`` —
no global RNG state — so a chaos run is exactly replayable.
:func:`run_chaos_campaign` drives episodes (run, maybe tear, resume)
until the store is complete, then asserts the invariant:
*serial == chaos-parallel*, byte for byte, through the same
from-store report rendering the real campaign artefacts use.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.runner.jobs import CAMPAIGN_RUN, FUZZ_TRIAL, JobSpec, execute_job
from repro.runner.pool import JobFn, SerialRunner, WorkerPool
from repro.runner.store import ResultStore, StoreCorrupt


def chaos_roll(seed: int, episode: int, salt: str, key: str) -> float:
    """A deterministic uniform draw in [0, 1) for one fault decision."""
    blob = f"{seed}:{episode}:{salt}:{key}".encode("ascii")
    digest = hashlib.sha1(blob).digest()
    return int.from_bytes(digest[:4], "big") / 2**32


@dataclass(frozen=True)
class ChaosPlan:
    """Seeded fault-injection configuration for one chaos campaign."""

    seed: int
    #: Probability a job's first attempt SIGKILLs its worker.
    kill_rate: float = 0.25
    #: Probability a job's first attempt hangs until the pool timeout.
    hang_rate: float = 0.1
    #: Probability a result message is delivered twice.
    dup_rate: float = 0.2
    #: Probability a result message is delayed before delivery.
    delay_rate: float = 0.2
    #: Probability the store file is torn between incomplete episodes.
    tear_rate: float = 0.4
    #: How long a hanging job sleeps (must exceed the pool timeout).
    hang_seconds: float = 30.0
    #: Upper bound on an injected message delay, seconds.
    max_delay: float = 0.05
    #: Probability a cached snapshot's bytes are corrupted before a
    #: restore (exercises digest verification and the cold-boot
    #: fallback).
    corrupt_rate: float = 0.25
    #: Probability a cached restore wedges until the batch-progress
    #: timeout fires.
    wedge_rate: float = 0.25

    def kills(self, episode: int, job_id: str) -> bool:
        return chaos_roll(self.seed, episode, "kill", job_id) < self.kill_rate

    def hangs(self, episode: int, job_id: str) -> bool:
        if self.kills(episode, job_id):
            return False  # the kill fires first; don't double-charge
        return chaos_roll(self.seed, episode, "hang", job_id) < self.hang_rate

    def duplicates(self, episode: int, job_id: str) -> bool:
        return chaos_roll(self.seed, episode, "dup", job_id) < self.dup_rate

    def delays(self, episode: int, job_id: str) -> float:
        """Injected delivery delay in seconds (0.0 = deliver on time)."""
        if chaos_roll(self.seed, episode, "delay", job_id) >= self.delay_rate:
            return 0.0
        return self.max_delay * chaos_roll(
            self.seed, episode, "delay-len", job_id
        )

    def tears(self, episode: int) -> bool:
        return chaos_roll(self.seed, episode, "tear", "store") < self.tear_rate

    def corrupts(self, episode: int, job_id: str) -> bool:
        return (
            chaos_roll(self.seed, episode, "corrupt", job_id)
            < self.corrupt_rate
        )

    def wedges(self, episode: int, job_id: str) -> bool:
        if self.corrupts(episode, job_id):
            return False  # the corruption fires first; don't double-charge
        return chaos_roll(self.seed, episode, "wedge", job_id) < self.wedge_rate


@dataclass
class ChaosJobFn:
    """Worker-side fault injector wrapping the real job function.

    A plain picklable dataclass wrapping whichever job function the
    pool's current rung runs (it crosses a ``spawn`` boundary where
    the platform has no ``fork``).  Faults fire only on attempt 0, so
    the runner's own retry machinery (not the harness) is what brings
    the job home.
    """

    plan: ChaosPlan
    episode: int = 1
    job_fn: JobFn = execute_job

    def __call__(self, spec: JobSpec, attempt: int) -> dict:
        if attempt == 0:
            if self.plan.kills(self.episode, spec.job_id):
                os.kill(os.getpid(), signal.SIGKILL)
            if self.plan.hangs(self.episode, spec.job_id):
                time.sleep(self.plan.hang_seconds)
        return self.job_fn(spec, attempt)


class ChaosOutbox:
    """Result-channel wrapper injecting delivery delays and duplicates.

    Wraps a worker's private result channel (see
    :class:`~repro.runner.pool.WorkerPool`'s per-worker transport).
    Delays are *time-only* — the message order within a worker's pipe
    is untouched, because the parent drops results whose job does not
    match the worker's current assignment (at-least-once delivery is
    safe; reordering across assignments is not a fault this transport
    can exhibit).  Duplicates exercise exactly that drop path.
    """

    def __init__(self, inner, plan: ChaosPlan, episode: int = 1):
        self._inner = inner
        self._plan = plan
        self._episode = episode

    def put(self, message) -> None:
        job_id = message[1]
        delay = self._plan.delays(self._episode, job_id)
        if delay:
            time.sleep(delay)
        self._inner.put(message)
        if self._plan.duplicates(self._episode, job_id):
            self._inner.put(message)


@dataclass
class RestoreChaos:
    """Worker-side snapshot-cache fault injector.

    A picklable dataclass handed to workers through
    :meth:`~repro.runner.pool.WorkerPool._restore_chaos`; it runs
    immediately before each cached checkpoint restore.  Faults fire on
    first attempts only, like :class:`ChaosJobFn`'s:

    * **corrupt** — flip one word of the cached snapshot's frame
      bytes.  The restore writes the rotten word into the machine, the
      digest check catches it, the entry is evicted and the trial
      cold-boots: the result must come out identical anyway.
    * **wedge** — stall the restore past the pool's batch-progress
      timeout; the worker is killed and the job retried elsewhere.
    """

    plan: ChaosPlan
    episode: int = 1

    def before_restore(self, entry, job_id: str, attempt: int) -> None:
        if attempt != 0:
            return
        if self.plan.corrupts(self.episode, job_id):
            frames = entry.checkpoint.snapshot._frames  # noqa: SLF001
            mfn = min(frames)
            word = int(
                chaos_roll(self.plan.seed, self.episode, "corrupt-word", job_id)
                * len(frames[mfn])
            )
            frames[mfn][word] ^= type(frames[mfn][word])(0x1)
        elif self.plan.wedges(self.episode, job_id):
            time.sleep(self.plan.hang_seconds)


class ChaosPool(WorkerPool):
    """The :class:`WorkerPool` under the full chaos fault set.

    Workers get killed and hung mid-batch through :class:`ChaosJobFn`
    (wrapping whichever job function the current rung runs), the
    transport duplicates and delays through :class:`ChaosOutbox`, and
    the snapshot cache misbehaves through :class:`RestoreChaos`.
    """

    def __init__(self, plan: ChaosPlan, episode: int = 1, **kwargs):
        super().__init__(**kwargs)
        self.plan = plan
        self.episode = episode

    def _wrap_job_fn(self, job_fn: JobFn) -> JobFn:
        return ChaosJobFn(plan=self.plan, episode=self.episode, job_fn=job_fn)

    def _wrap_outbox(self, channel):
        return ChaosOutbox(channel, self.plan, self.episode)

    def _restore_chaos(self):
        return RestoreChaos(plan=self.plan, episode=self.episode)


# ----------------------------------------------------------------------
# Store tear/restore helpers
# ----------------------------------------------------------------------


def tear_file(path: str, keep_fraction: float = 0.6) -> int:
    """Truncate a file to simulate a torn write; returns bytes dropped."""
    size = os.path.getsize(path)
    keep = max(1, int(size * keep_fraction))
    with open(path, "r+b") as handle:
        handle.truncate(keep)
    return size - keep


def _open_store_restoring(path: str, good_copy: str) -> tuple:
    """Open the store, falling back to the last good copy if torn.

    Returns ``(store, restored)`` — ``restored`` is True when the
    typed :class:`StoreCorrupt` fired and the good copy was used.
    """
    try:
        return ResultStore(path), False
    except StoreCorrupt:
        if not os.path.exists(good_copy):
            raise
        shutil.copyfile(good_copy, path)
        return ResultStore(path), True


# ----------------------------------------------------------------------
# The invariant driver
# ----------------------------------------------------------------------


@dataclass
class ChaosReport:
    """What one chaos campaign did, and whether the invariant held."""

    seed: int
    total_jobs: int
    episodes: int = 0
    #: Fault counters: kills scheduled, tears applied, tears recovered.
    faults: Dict[str, int] = field(default_factory=dict)
    #: Did the chaos store match the serial reference byte-for-byte
    #: (and, when traces were recorded, the trace artefacts too)?
    identical: bool = False
    serial_json: str = ""
    chaos_json: str = ""
    #: Trace files compared between the serial and chaos directories
    #: (0 when the campaign ran without ``trace_dir``).
    traces_compared: int = 0
    #: Human-readable descriptions of trace artefact divergences.
    trace_mismatches: List[str] = field(default_factory=list)

    def render(self) -> str:
        verdict = "IDENTICAL" if self.identical else "DIVERGED"
        fault_text = ", ".join(
            f"{name}={count}" for name, count in sorted(self.faults.items())
        ) or "none"
        line = (
            f"chaos seed {self.seed}: {self.total_jobs} jobs over "
            f"{self.episodes} episode(s), faults [{fault_text}] -> "
            f"store vs serial: {verdict}"
        )
        if self.traces_compared or self.trace_mismatches:
            trace_verdict = (
                "byte-identical"
                if not self.trace_mismatches
                else f"{len(self.trace_mismatches)} mismatch(es)"
            )
            line += (
                f"\nchaos seed {self.seed}: {self.traces_compared} trace "
                f"artefact(s) vs serial: {trace_verdict}"
            )
            for mismatch in self.trace_mismatches:
                line += f"\n  trace divergence: {mismatch}"
        return line


def _store_fingerprint(store: ResultStore, specs: Sequence[JobSpec]) -> str:
    """The comparable artefact for a completed store.

    Campaign stores compare through the exact JSON rendering the real
    ``--json`` artefact uses; mixed-kind job sets fall back to the
    ordered payload dump (same determinism, no report semantics).
    """
    if specs and all(spec.kind == CAMPAIGN_RUN for spec in specs):
        from repro.analysis.report import results_json_from_store

        return results_json_from_store(store)
    return json.dumps(
        [store.payload(spec.job_id) for spec in specs], indent=2
    )


def _compare_trace_dirs(serial_dir: str, chaos_dir: str) -> List[str]:
    """Byte-compare two trace directories; returns mismatch descriptions.

    Trace files carry no timestamps, pids or ordering artefacts, so a
    chaos run — workers killed mid-record, jobs retried, results
    duplicated — must leave *exactly* the bytes a serial run leaves.
    A torn trace from a SIGKILLed worker is overwritten whole by the
    retry (the writer opens ``"w"``), so survivors are never torn.
    """
    serial_files = sorted(os.listdir(serial_dir)) if os.path.isdir(serial_dir) else []
    chaos_files = sorted(os.listdir(chaos_dir)) if os.path.isdir(chaos_dir) else []
    mismatches = []
    for name in serial_files:
        if name not in chaos_files:
            mismatches.append(f"{name}: recorded serially but missing under chaos")
    for name in chaos_files:
        if name not in serial_files:
            mismatches.append(f"{name}: recorded under chaos but not serially")
    for name in serial_files:
        if name not in chaos_files:
            continue
        with open(os.path.join(serial_dir, name), "rb") as handle:
            serial_bytes = handle.read()
        with open(os.path.join(chaos_dir, name), "rb") as handle:
            chaos_bytes = handle.read()
        if serial_bytes != chaos_bytes:
            mismatches.append(
                f"{name}: differs ({len(serial_bytes)} vs {len(chaos_bytes)} bytes)"
            )
    return mismatches


def run_chaos_campaign(
    specs: Sequence[JobSpec],
    seed: int,
    store_path: str,
    jobs: int = 2,
    timeout: float = 10.0,
    plan: Optional[ChaosPlan] = None,
    max_episodes: int = 10,
    on_event: Optional[Callable] = None,
    trace_dir: Optional[str] = None,
) -> ChaosReport:
    """Run ``specs`` under seeded chaos and check the store invariant.

    The reference is a plain serial run of the same specs.  The chaos
    side runs episodes of a :class:`ChaosPool` against a durable store
    — each episode may kill workers, hang jobs, duplicate and delay
    messages, corrupt cached snapshots and wedge restores; between
    incomplete episodes the store file may be torn and is then
    restored from the last good copy — until every job is done.
    Faults fire on first attempts only and jobs run with no in-episode
    retries, so recovery always flows through the store's resume path,
    the property under test.  The pool must leave exactly the bytes
    the serial reference leaves, no matter how its cache misbehaved.

    With ``trace_dir`` the serial reference records under
    ``trace_dir/serial`` and the chaos side under ``trace_dir/chaos``;
    the directories must come out byte-identical (trace determinism
    under infrastructure faults), folded into ``report.identical``.
    """
    specs = list(specs)
    plan = plan or ChaosPlan(seed=seed, hang_seconds=max(timeout * 3, 1.0))
    report = ChaosReport(seed=seed, total_jobs=len(specs))

    serial_trace_dir = chaos_trace_dir = None
    serial_specs = specs
    if trace_dir is not None:
        serial_trace_dir = os.path.join(trace_dir, "serial")
        chaos_trace_dir = os.path.join(trace_dir, "chaos")
        os.makedirs(serial_trace_dir, exist_ok=True)
        os.makedirs(chaos_trace_dir, exist_ok=True)
        # trace_dir is excluded from job identity, so both variants
        # plan the same job_ids and resume against the same store.
        serial_specs = [replace(s, trace_dir=serial_trace_dir) for s in specs]
        specs = [replace(s, trace_dir=chaos_trace_dir) for s in specs]

    # Only classic fuzz trials lease a bed through checkpoint restore,
    # so only they can meet a snapshot corruption or a restore wedge.
    from repro.vulngen.corpus import is_synthetic_id

    restoring = [
        spec for spec in specs
        if spec.kind == FUZZ_TRIAL and not is_synthetic_id(spec.use_case)
    ]

    with ResultStore() as reference:
        serial = SerialRunner(retries=0)
        serial.run(serial_specs, store=reference)
        report.serial_json = _store_fingerprint(reference, serial_specs)

    good_copy = store_path + ".good"
    complete = False
    for episode in range(1, max_episodes + 1):
        report.episodes = episode
        store, restored = _open_store_restoring(store_path, good_copy)
        if restored:
            report.faults["tears-recovered"] = (
                report.faults.get("tears-recovered", 0) + 1
            )
        # Snapshot the (verified-healthy) store before the episode
        # misbehaves — this is the "known-good copy" a torn store is
        # restored from.
        shutil.copyfile(store_path, good_copy)
        pool = ChaosPool(
            plan=plan,
            episode=episode,
            jobs=jobs,
            timeout=timeout,
            retries=0,
            on_event=on_event,
        )
        try:
            pool.run(specs, store=store)
            for name, decide, exposed in (
                ("kills", plan.kills, specs),
                ("corrupts", plan.corrupts, restoring),
                ("wedges", plan.wedges, restoring),
            ):
                planned = sum(
                    1 for spec in exposed if decide(episode, spec.job_id)
                )
                report.faults[name] = report.faults.get(name, 0) + planned
            summary = store.summary()
            complete = summary.done == len(specs)
        finally:
            store.close()
        if complete:
            break
        if plan.tears(episode):
            tear_file(store_path)
            report.faults["tears"] = report.faults.get("tears", 0) + 1

    final, restored = _open_store_restoring(store_path, good_copy)
    if restored:
        report.faults["tears-recovered"] = (
            report.faults.get("tears-recovered", 0) + 1
        )
    try:
        if final.summary().done != len(specs):
            # A tear may have eaten completed episodes; one clean
            # (fault-free) pass over the restored store finishes the
            # stragglers through the ordinary resume path.
            SerialRunner(retries=2, on_event=on_event).run(specs, store=final)
        report.chaos_json = _store_fingerprint(final, specs)
    finally:
        final.close()
    if os.path.exists(good_copy):
        os.remove(good_copy)
    report.identical = report.chaos_json == report.serial_json
    if serial_trace_dir is not None and chaos_trace_dir is not None:
        report.trace_mismatches = _compare_trace_dirs(
            serial_trace_dir, chaos_trace_dir
        )
        report.traces_compared = len(os.listdir(serial_trace_dir))
        if report.trace_mismatches:
            report.identical = False
    return report


# ----------------------------------------------------------------------
# Service-level chaos: kill-and-restart the whole front-end
# ----------------------------------------------------------------------


@dataclass
class ServiceChaosReport:
    """One service lifetime under chaos, and whether the invariant held.

    The invariant is end-to-end: a service that was SIGKILLed
    mid-campaign, had its journal and a shard store torn, was
    restarted and drained must compact to the *byte-identical*
    aggregate store of an uninterrupted in-process run of the same
    plans — and the tenant that blew its quota must have been shed
    with 429 while the other tenants completed unimpeded.
    """

    seed: int
    total_jobs: int = 0
    #: Jobs observed complete when the SIGKILL landed.
    done_at_kill: int = 0
    faults: Dict[str, int] = field(default_factory=dict)
    identical: bool = False
    quota_shed: bool = False
    tenants_done: bool = False
    drained_cleanly: bool = False
    sha_reference: str = ""
    sha_chaos: str = ""

    @property
    def passed(self) -> bool:
        return (
            self.identical
            and self.quota_shed
            and self.tenants_done
            and self.drained_cleanly
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "total_jobs": self.total_jobs,
            "done_at_kill": self.done_at_kill,
            "faults": dict(sorted(self.faults.items())),
            "identical": self.identical,
            "quota_shed": self.quota_shed,
            "tenants_done": self.tenants_done,
            "drained_cleanly": self.drained_cleanly,
            "sha_reference": self.sha_reference,
            "sha_chaos": self.sha_chaos,
            "passed": self.passed,
        }

    def render(self) -> str:
        verdict = "PASSED" if self.passed else "FAILED"
        fault_text = ", ".join(
            f"{name}={count}" for name, count in sorted(self.faults.items())
        ) or "none"
        return (
            f"service chaos seed {self.seed}: {self.total_jobs} jobs, "
            f"killed at {self.done_at_kill} done, faults [{fault_text}]\n"
            f"  compaction: {'IDENTICAL' if self.identical else 'DIVERGED'} "
            f"(ref {self.sha_reference[:12]}, chaos {self.sha_chaos[:12]})\n"
            f"  quota shed 429: {self.quota_shed}, tenants done: "
            f"{self.tenants_done}, clean drain: {self.drained_cleanly} "
            f"-> {verdict}"
        )


#: The deterministic multi-tenant workload every service chaos seed
#: runs: big enough that a seeded kill lands mid-campaign, made only
#: of deterministic-payload jobs so compactions can be compared by
#: sha256.
def _service_chaos_plans() -> List[tuple]:
    return [
        (
            "alice",
            {
                "kind": "campaign",
                "use_cases": ["XSA-212-crash", "XSA-182-test"],
                "versions": ["4.6", "4.8", "4.13"],
                "modes": ["exploit", "injection"],
            },
        ),
        ("bob", {"kind": "fuzz", "version": "4.6", "runs": 30, "seed": 7}),
        ("charlie", {"kind": "testcase", "version": "4.13"}),
    ]


#: The over-quota probe: charlie's *second* plan, submitted while his
#: token bucket is empty — it must be shed with 429 and never run.
_OVER_QUOTA_PLAN = {"kind": "testcase", "version": "4.6"}


def _wait_ready(ready_file: str, process, timeout: float = 30.0):
    """Wait for the server's ready file; returns a ServiceClient."""
    from repro.service.client import ServiceClient

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(
                f"service exited early with code {process.returncode}"
            )
        if os.path.exists(ready_file):
            try:
                return ServiceClient.from_ready_file(ready_file, timeout=10.0)
            except (ValueError, KeyError):
                pass  # torn ready file mid-write; retry
        time.sleep(0.02)
    raise RuntimeError("service did not become ready in time")


def _spawn_service(data_dir: str, ready_file: str):
    import subprocess
    import sys

    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--data-dir", data_dir,
            "--ready-file", ready_file,
            "--quota-burst", "1",
            "--quota-rate", "0.02",
            "--max-active", "2",
            "--ack-every", "4",
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def run_service_chaos(
    seed: int, workdir: str, timeout: float = 240.0
) -> ServiceChaosReport:
    """One kill-and-restart chaos lifetime against a real subprocess.

    Reference and chaos run the same plans; the chaos side goes over
    HTTP against a ``repro serve`` subprocess that is SIGKILLed at a
    seeded completion fraction, has its journal (and possibly a shard
    store) torn, is restarted, re-submitted to (idempotently), drained
    with SIGTERM — and must compact byte-identically.
    """
    from repro.service import ServiceConfig, Supervisor, compact_data_dir
    from repro.service.quotas import QuotaConfig

    report = ServiceChaosReport(seed=seed)
    plans = _service_chaos_plans()

    # --- reference: uninterrupted, in-process, same plans -------------
    ref_dir = os.path.join(workdir, "reference")
    ref = Supervisor(
        ServiceConfig(
            data_dir=ref_dir, quota=QuotaConfig(rate=1000, burst=1000)
        )
    )
    try:
        for tenant, plan in plans:
            status, payload = ref.submit(dict(plan), tenant)
            assert status == 202, (status, payload)
            report.total_jobs += payload["total"]
        if not ref.run_until_idle(timeout):
            raise RuntimeError("reference supervisor did not finish")
    finally:
        ref.close()
    report.sha_reference = compact_data_dir(ref_dir).sha256

    # --- chaos: subprocess service, seeded kill + tears ---------------
    chaos_dir = os.path.join(workdir, "chaos")
    ready_file = os.path.join(workdir, "service-ready.json")
    process = _spawn_service(chaos_dir, ready_file)
    killed_mid_flight = False
    try:
        client = _wait_ready(ready_file, process)
        cids = []
        for tenant, plan in plans:
            status, payload = client.submit(dict(plan), tenant)
            assert status == 202, (status, payload)
            cids.append(payload["id"])
        # The over-quota probe: charlie's bucket (burst 1, refill
        # 0.02/s) is already empty.
        status, payload = client.submit(dict(_OVER_QUOTA_PLAN), "charlie")
        if status == 429:
            report.quota_shed = True
            report.faults["quota-429"] = 1

        # Client disconnect mid-stream: read a few SSE frames off the
        # first campaign, then drop the connection on the floor.
        frames = list(client.stream(cids[0], limit=3, timeout=10.0))
        if frames:
            report.faults["client-disconnect"] = 1

        # Seeded kill point: SIGKILL once this fraction of all jobs is
        # complete (always mid-flight: between 10% and 50%).
        fraction = 0.1 + 0.4 * chaos_roll(seed, 1, "svc", "killpoint")
        threshold = max(3, int(report.total_jobs * fraction))
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            statuses = [client.status(cid) for cid in cids]
            done = sum(s["ok"] + s["failed"] for s in statuses)
            if done >= threshold:
                killed_mid_flight = any(
                    s["state"] in ("queued", "running") for s in statuses
                )
                report.done_at_kill = done
                break
            time.sleep(0.01)
        process.kill()
        process.wait(timeout=30)
        report.faults["sigkill"] = 1

        # Tear durable state while the service is down.
        if chaos_roll(seed, 2, "svc", "journal-tear") < 0.5:
            journal_path = os.path.join(chaos_dir, "journal.jsonl")
            if os.path.exists(journal_path):
                tear_file(journal_path, keep_fraction=0.7)
                report.faults["journal-tear"] = 1
        if chaos_roll(seed, 3, "svc", "shard-tear") < 0.4:
            from repro.service.shards import iter_shards

            shard_list = iter_shards(chaos_dir)
            if shard_list:
                index = int(
                    chaos_roll(seed, 4, "svc", "shard-pick") * len(shard_list)
                )
                tear_file(shard_list[index][2], keep_fraction=0.5)
                report.faults["shard-tear"] = 1

        # Restart: the journal (+ registry safety net) must resume
        # every in-flight campaign; resubmission is idempotent cover
        # for submissions the tear may have eaten.
        os.remove(ready_file)
        process = _spawn_service(chaos_dir, ready_file)
        client = _wait_ready(ready_file, process)
        for tenant, plan in plans:
            status, payload = client.submit(dict(plan), tenant)
            assert status in (200, 202), (status, payload)
        states = [
            client.wait(cid, timeout=timeout)["state"] for cid in cids
        ]
        report.tenants_done = all(state == "done" for state in states)

        # Graceful drain: first SIGTERM must exit 0 on its own.
        process.send_signal(signal.SIGTERM)
        report.drained_cleanly = process.wait(timeout=60) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)

    report.sha_chaos = compact_data_dir(chaos_dir).sha256
    report.identical = report.sha_chaos == report.sha_reference
    if killed_mid_flight:
        report.faults["killed-mid-campaign"] = 1
    return report
