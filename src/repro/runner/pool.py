"""Fault-tolerant campaign execution: one worker pool and its serial twin.

:class:`WorkerPool` runs :class:`~repro.runner.jobs.JobSpec` lists on
persistent worker processes, started with the ``fork`` context where
the platform offers it (:func:`~repro.runner.forkserver.preferred_context`).
The parent owns all scheduling state and the result store.  Workers
take jobs in batches over private pipes and, by default, serve classic
fuzz trials from a digest-verified snapshot cache
(:func:`~repro.runner.forkserver.execute_job_cached`).  The pool buys
properties the serial campaign loop cannot offer:

* **timeout enforcement** — a batch member that makes no progress
  within its wall-clock budget gets its worker killed and replaced;
  only that member is charged, the unstarted tail is requeued;
* **crash isolation** — a worker dying mid-batch fails the member it
  was running; results it flushed before dying are harvested;
* **liveness detection** — each worker carries a heartbeat; a wedged
  process (stopped, deadlocked) is detected even though ``is_alive()``
  still says yes.  The heartbeat thread doubles as a parent-death
  watchdog, so no worker outlives a SIGKILLed parent;
* **bounded retry** — timeouts, crashes and
  :class:`~repro.runner.jobs.TransientJobError` failures are retried
  with capped, deterministically jittered exponential backoff;
* **poison quarantine** — a job that keeps killing its workers is
  quarantined instead of taking the pool down attempt after attempt;
* **circuit breaking, stepping down in place** — too many
  *consecutive* worker deaths (an environment-level problem, not a bad
  job) open the circuit.  The same run then steps down once, to fresh
  workers running one job at a time without the snapshot cache, with a
  fresh poison tracker and circuit; an open circuit on that bottom
  rung fails the remaining jobs;
* **recycling** — workers retire after ``recycle_after`` trials or
  unbounded RSS growth;
* **graceful interruption** — SIGINT/SIGTERM stop dispatch, flush the
  store, and leave it resumable instead of dying mid-write.

:class:`SerialRunner` is the in-process twin with identical store and
event semantics (minus timeout enforcement); ``--jobs 1`` uses it, so
serial and parallel campaigns share one persistence/resume story, and
it is the reference the byte-identity tests compare the pool against.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
import resource
import signal
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.probes.metrics import MetricsCollector
from repro.resilience.quarantine import CircuitBreaker, PoisonTracker
from repro.runner import events as ev
from repro.runner import forkserver
from repro.runner.backoff import seeded_backoff
from repro.runner.events import EventCallback, EventHub
from repro.runner.forkserver import execute_job_cached, preferred_context
from repro.runner.jobs import JobSpec, TransientJobError, execute_job
from repro.runner.store import ResultStore

__all__ = [
    "CampaignFailed",
    "CampaignInterrupted",
    "ForkServerPool",
    "RunnerOutcome",
    "SerialRunner",
    "WorkerPool",
    "make_runner",
    "run_jobs",
    "seeded_backoff",  # re-exported from repro.runner.backoff
]

#: Jobs shipped to a worker per dispatch.
DEFAULT_BATCH = 8
#: Trials a worker serves before it is recycled.
DEFAULT_RECYCLE_AFTER = 256
#: Peak-RSS growth over a worker's first batch (KiB) that triggers
#: recycling — a leaking worker is parked before it hurts the host.
DEFAULT_MAX_RSS_GROWTH_KB = 262144


class CampaignFailed(RuntimeError):
    """Raised by strict entry points when jobs exhausted their retries."""

    def __init__(self, failures: Dict[str, str]):
        self.failures = failures
        summary = "; ".join(
            f"{job_id}: {detail}" for job_id, detail in sorted(failures.items())
        )
        super().__init__(f"{len(failures)} job(s) failed: {summary}")


class CampaignInterrupted(RuntimeError):
    """The campaign was stopped by a signal; the store is resumable."""

    def __init__(self, signame: str = ""):
        self.signame = signame
        label = signame or "signal"
        super().__init__(
            f"campaign interrupted by {label}; completed work is in the "
            "store — re-run with --resume to finish the remaining jobs"
        )


@dataclass
class RunnerOutcome:
    """What a campaign execution produced."""

    #: job_id -> result payload, for every completed job.
    results: Dict[str, dict] = field(default_factory=dict)
    #: job_id -> failure detail, for jobs that exhausted retries.
    failures: Dict[str, str] = field(default_factory=dict)
    #: Jobs skipped because the store already had their results.
    skipped: Set[str] = field(default_factory=set)
    #: True when a SIGINT/SIGTERM stopped the campaign early; the
    #: store was flushed and the remaining jobs are resumable.
    interrupted: bool = False
    #: Name of the signal that interrupted the campaign ("" if none).
    interrupt_signal: str = ""

    def payloads_for(self, specs: Sequence[JobSpec]) -> List[dict]:
        """Results in plan order; raises if any job failed or is missing."""
        if self.interrupted:
            raise CampaignInterrupted(self.interrupt_signal)
        if self.failures:
            raise CampaignFailed(self.failures)
        return [self.results[spec.job_id] for spec in specs]


JobFn = Callable[[JobSpec, int], dict]


def _resume_into(
    outcome: RunnerOutcome, specs: List[JobSpec], store: Optional[ResultStore]
) -> List[JobSpec]:
    """Register jobs and load already-completed results; return the rest."""
    if store is None:
        return specs
    store.register(specs)
    done = store.completed_ids()
    remaining = []
    for spec in specs:
        if spec.job_id in done:
            payload = store.payload(spec.job_id)
            if payload is not None:
                outcome.results[spec.job_id] = payload
                outcome.skipped.add(spec.job_id)
                continue
        remaining.append(spec)
    return remaining


class _SignalGuard:
    """Convert SIGINT/SIGTERM into a flag the run loop polls.

    Installed only for the duration of a campaign (and only when we
    are the main thread — elsewhere the runner executes unguarded, as
    before).  The handler does nothing but record the signal, so no
    store write or queue operation is ever torn by an interrupt; the
    run loop notices the flag at the next scheduling round and shuts
    down cleanly.
    """

    def __init__(self, signals=(signal.SIGINT, signal.SIGTERM)):
        self.signals = signals
        self.fired: Optional[int] = None
        self._previous: Dict[int, Any] = {}

    def __enter__(self) -> "_SignalGuard":
        try:
            for sig in self.signals:
                self._previous[sig] = signal.signal(sig, self._handle)
        except ValueError:  # not the main thread: run unguarded
            self._restore()
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._previous:
            sig, handler = self._previous.popitem()
            signal.signal(sig, handler)

    def _handle(self, signum, frame) -> None:
        del frame
        self.fired = signum

    @property
    def tripped(self) -> bool:
        return self.fired is not None

    def describe(self) -> str:
        if self.fired is None:
            return ""
        return signal.Signals(self.fired).name


# ----------------------------------------------------------------------
# What every executor shares
# ----------------------------------------------------------------------


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_job(
    job_fn: JobFn, spec: JobSpec, attempt: int
) -> Tuple[str, Any, bool, float]:
    """Run one attempt of one job: ``(status, payload, retryable, wall)``.

    ``status`` is ``"done"`` with the job's payload, or ``"error"``
    with the typed failure detail as payload; only a
    :class:`~repro.runner.jobs.TransientJobError` is retryable.  A
    ``BaseException`` that is not an ``Exception`` propagates: the
    serial runner lets it end the campaign, a pool worker reports it.
    """
    started = time.perf_counter()
    try:
        payload = job_fn(spec, attempt)
    except Exception as exc:
        wall = time.perf_counter() - started
        return "error", _describe(exc), isinstance(exc, TransientJobError), wall
    return "done", payload, False, time.perf_counter() - started


class _Runner:
    """Run prologue, epilogue and per-job bookkeeping shared by the
    serial runner and the pool.

    :meth:`run` resumes from the store and reports skipped jobs, guards
    the campaign against signals, flushes the store on interruption
    and emits ``CAMPAIGN_FINISHED``; subclasses only implement
    :meth:`_execute` over the jobs still to do, running each attempt
    through :func:`run_job` and recording it with :meth:`_settle`.
    """

    retries: int
    backoff: float
    max_backoff: float
    on_event: Optional[EventCallback]
    _stop_requested: bool = False

    def request_stop(self) -> None:
        """Cooperative interruption from another thread.

        Signal handlers only reach the main thread; a runner executing
        inside a worker thread (the campaign service) is stopped with
        this instead.  Semantics match a SIGTERM: the store is flushed
        and the outcome is marked interrupted/resumable.  In-flight
        pool jobs are abandoned un-acked, so ``--resume`` re-runs them
        exactly.
        """
        self._stop_requested = True

    def run(
        self, specs: Sequence[JobSpec], store: Optional[ResultStore] = None
    ) -> RunnerOutcome:
        specs = list(specs)
        outcome = RunnerOutcome()
        hub = EventHub(total=len(specs), callback=self.on_event)
        remaining = _resume_into(outcome, specs, store)
        for spec in specs:  # plan order, not set order: deterministic events
            if spec.job_id in outcome.skipped:
                hub.emit(ev.JOB_SKIPPED, job_id=spec.job_id)
        self._outcome, self._store, self._hub = outcome, store, hub
        if remaining:
            # The guard goes up before the first worker exists, so an
            # interrupt during start-up is already a graceful shutdown.
            with _SignalGuard() as guard:

                def stopped() -> bool:
                    return guard.tripped or self._stop_requested

                self._execute(remaining, stopped)
                if stopped():
                    outcome.interrupted = True
                    outcome.interrupt_signal = (
                        guard.describe() or "stop-requested"
                    )
        if outcome.interrupted:
            if store is not None:
                store.flush()
            hub.emit(ev.CAMPAIGN_INTERRUPTED, detail=outcome.interrupt_signal)
        hub.emit(ev.CAMPAIGN_FINISHED)
        return outcome

    def _execute(
        self, remaining: List[JobSpec], stopped: Callable[[], bool]
    ) -> None:
        raise NotImplementedError

    # -- per-job bookkeeping (on the current run's outcome/store/hub) --

    def _fail(self, spec, attempt, detail, kind: str = ev.JOB_FAILED) -> None:
        self._outcome.failures[spec.job_id] = detail
        if self._store is not None:
            self._store.record_failure(spec.job_id, detail)
        self._hub.emit(
            kind, job_id=spec.job_id, label=spec.label, attempt=attempt,
            detail=detail,
        )

    def _settle(
        self, spec, attempt, status, payload, retryable, wall, worker: int = -1
    ) -> Optional[float]:
        """Record one attempt's :func:`run_job` outcome: the backoff
        before its retry, or None once the job is settled."""
        if status != "done":
            if self._store is not None:
                self._store.record_attempt(spec.job_id, attempt, "error", payload, wall)
            return self._retry_or_fail(spec, attempt, payload, retryable)
        self._outcome.results[spec.job_id] = payload
        if self._store is not None:
            self._store.record_attempt(spec.job_id, attempt, "done", "", wall)
            self._store.record_success(spec.job_id, payload, wall)
        self._hub.emit(
            ev.JOB_FINISHED, job_id=spec.job_id, label=spec.label,
            worker=worker, attempt=attempt,
        )
        return None

    def _retry_or_fail(
        self, spec, attempt, detail, retryable
    ) -> Optional[float]:
        """Charge a failed attempt: the backoff before its retry, or
        None once the job has failed for good."""
        if retryable and attempt < self.retries:
            delay = seeded_backoff(
                self.backoff, attempt + 1, spec.job_id, self.max_backoff
            )
            self._hub.emit(
                ev.JOB_RETRIED, job_id=spec.job_id, label=spec.label,
                attempt=attempt + 1, detail=detail, delay=delay,
            )
            return delay
        self._fail(spec, attempt, detail)
        return None


# ----------------------------------------------------------------------
# Serial execution (the --jobs 1 path)
# ----------------------------------------------------------------------


class SerialRunner(_Runner):
    """In-process executor with the pool's store/retry/event semantics."""

    def __init__(
        self,
        retries: int = 1,
        backoff: float = 0.0,
        max_backoff: float = 5.0,
        job_fn: JobFn = execute_job,
        on_event: Optional[EventCallback] = None,
    ):
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.job_fn = job_fn
        self.on_event = on_event

    def _execute(self, remaining, stopped) -> None:
        for spec in remaining:
            if stopped():
                break
            if self._store is not None:
                self._store.mark_running(spec.job_id)
            attempt = 0
            while not stopped():
                self._hub.emit(
                    ev.JOB_STARTED, job_id=spec.job_id, label=spec.label,
                    attempt=attempt,
                )
                delay = self._settle(
                    spec, attempt, *run_job(self.job_fn, spec, attempt)
                )
                if delay is None:
                    break
                attempt += 1
                if delay:
                    time.sleep(delay)


# ----------------------------------------------------------------------
# The worker pool
# ----------------------------------------------------------------------

#: Every started worker process, for the atexit orphan sweep.  The
#: pool reaps its own workers on every exit path; this is the backstop
#: that guarantees no child outlives the parent even if the pool's
#: teardown itself is interrupted.
_LIVE_WORKERS: "weakref.WeakSet" = weakref.WeakSet()

#: Liveness allowance for a worker that has not reported ready yet —
#: interpreter start-up on a loaded machine (a ``spawn`` start takes
#: seconds) must not read as a wedge, and killing a starting worker
#: for "no heartbeat" just restarts the same slow path.
_BOOT_GRACE = 30.0


def _reap_orphans() -> None:
    for process in list(_LIVE_WORKERS):
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)


atexit.register(_reap_orphans)


class _ResultChannel:
    """Worker-side sender over the worker's *private* result pipe.

    Results deliberately do not travel through a shared
    ``multiprocessing.Queue``: its feeder thread serialises writers
    with a cross-process lock, and a worker killed while its feeder
    holds that lock (a chaos SIGKILL, a timeout ``terminate()``)
    wedges every *other* worker's results forever — the pool then
    spins on workers it believes busy while they sit idle.  With one
    pipe per worker there is no shared lock and no feeder thread: a
    kill can at worst tear this worker's own frame, which the parent
    discards together with the worker.
    """

    def __init__(self, conn):
        self._conn = conn

    def put(self, message) -> None:
        payload = pickle.dumps(message)
        frame = len(payload).to_bytes(4, "big") + payload
        fd = self._conn.fileno()
        view = memoryview(frame)
        while view:
            view = view[os.write(fd, view):]


def _worker_main(
    worker_id: int,
    job_fn: JobFn,
    inbox: Any,
    outbox: Any,
    heartbeat: Any = None,
    beat_interval: float = 0.2,
    restore_chaos: Optional[Any] = None,
) -> None:
    """Persistent worker loop: take a batch, stream results, repeat.

    The worker sends one ``ready`` frame, then exactly one frame per
    batch member, in batch order: ``(worker, job_id, status, payload,
    retryable, wall, infra_events, counters, rss_kb)``.  The member's
    infra events and the ``forkserver.*`` counters it accrued ride on
    its own result, so nothing is left to send after a batch; peak RSS
    is read once per batch, on its last member (0 on the others).

    Signal discipline for persistent workers: SIGINT is ignored (a
    terminal Ctrl-C reaches the whole foreground process group; the
    parent's signal guard owns interruption policy, and a worker that
    dies mid-batch would just lose streamed work), and SIGTERM is
    reset to the default action (a fork-context child inherits the
    parent's no-op guard handler, which would make ``terminate()``
    useless).  The heartbeat thread doubles as a parent-death watchdog:
    if the parent vanishes without closing our inbox (SIGKILL), the
    reparented worker exits instead of surviving as an orphan.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # A fork-context child inherits the parent's module state — if the
    # parent process ever ran execute_job_cached itself, that includes
    # its snapshot cache and counters.  Start from a clean slate.
    forkserver._reset_worker_cache(restore_chaos)
    parent_pid = os.getppid()
    if heartbeat is not None:

        def _beat() -> None:
            while True:
                heartbeat.value = time.monotonic()
                if os.getppid() != parent_pid:
                    os._exit(0)  # parent died; do not outlive it
                time.sleep(beat_interval)

        threading.Thread(
            target=_beat, daemon=True, name="repro-heartbeat"
        ).start()
    try:
        # Start-up can dwarf a tight job budget on a loaded machine;
        # this tells the parent to start the clock now.
        outbox.put((worker_id, None, "ready", None, False, 0.0, [], {}, 0))
    except OSError:
        return
    while True:
        try:
            item = inbox.recv()
        except (EOFError, OSError):
            return  # the parent closed our inbox (or died): shut down
        if item is None:
            return
        for index, (spec_json, attempt) in enumerate(item, 1):
            spec = JobSpec.from_json(spec_json)
            try:
                status, payload, retryable, wall = run_job(job_fn, spec, attempt)
            except BaseException as exc:  # noqa: BLE001 - isolation boundary
                status, payload, retryable, wall = "error", _describe(exc), False, 0.0
            # Peak RSS only matters once the batch is over (recycling).
            rss_kb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                if index == len(item) else 0
            )
            try:
                outbox.put(
                    (
                        worker_id, spec.job_id, status, payload, retryable,
                        wall, forkserver.take_infra_events(),
                        forkserver.take_counters(), rss_kb,
                    )
                )
            except OSError:
                return  # the parent is gone; nobody is listening


@dataclass
class _Worker:
    """Parent-side handle for one worker process."""

    worker_id: int
    process: multiprocessing.process.BaseProcess
    inbox: Any  # Connection: parent sends a batch / None sentinel
    conn: Any = None  # Connection: parent end of the worker's result pipe
    heartbeat: Any = None  # multiprocessing.Value("d") the worker beats
    #: Start of the current batch member's wall-clock budget (the
    #: batch-progress clock), on the parent's monotonic clock.
    started_at: float = 0.0
    buffer: bytearray = field(default_factory=bytearray)
    eof: bool = False
    #: The worker finished start-up (sent its ready frame).  Job
    #: wall-clock budgets only run from that point.
    ready: bool = False
    #: The in-flight batch, as (spec, attempt) pairs; results stream
    #: back in batch order, so ``batch[acked]`` is always the member
    #: currently executing.
    batch: List[Tuple[JobSpec, int]] = field(default_factory=list)
    acked: int = 0
    #: Trials served over this worker's whole lifetime.
    served: int = 0
    #: Peak RSS (KiB) after the worker's first batch — the baseline
    #: RSS-growth recycling measures against.
    baseline_rss: int = 0

    @property
    def busy(self) -> bool:
        return self.acked < len(self.batch)

    def current(self) -> Tuple[JobSpec, int]:
        return self.batch[self.acked]

    def last_seen(self) -> float:
        """Most recent proof of life, on the parent's monotonic clock."""
        beat = self.heartbeat.value if self.heartbeat is not None else 0.0
        return max(beat, self.started_at)

    def take_messages(self) -> List[tuple]:
        """Complete frames parsed out of the receive buffer.

        A trailing partial frame (the worker was killed mid-write)
        simply stays in the buffer; it is discarded with the worker.
        """
        messages = []
        while len(self.buffer) >= 4:
            size = int.from_bytes(self.buffer[:4], "big")
            if len(self.buffer) - 4 < size:
                break
            payload = bytes(self.buffer[4:4 + size])
            del self.buffer[:4 + size]
            messages.append(pickle.loads(payload))
        return messages


class WorkerPool(_Runner):
    """Persistent, batched, snapshot-cached worker pool with an in-place
    degradation ladder.

    ``job_fn`` runs inside the workers; the default serves classic
    fuzz trials from the per-worker snapshot cache and runs every
    other job kind cold.  When the circuit opens, the run steps down
    once to ``batch=1`` and, in place of ``execute_job_cached``, the
    cold :func:`~repro.runner.jobs.execute_job`.  A pool configured
    that way from the start is already on the bottom rung: its open
    circuit fails the remaining jobs.
    """

    def __init__(
        self,
        jobs: int = 2,
        timeout: Optional[float] = None,
        retries: int = 1,
        backoff: float = 0.05,
        max_backoff: float = 5.0,
        job_fn: JobFn = execute_job_cached,
        on_event: Optional[EventCallback] = None,
        poll_interval: float = 0.05,
        poison_threshold: int = 3,
        circuit_threshold: int = 8,
        liveness_grace: Optional[float] = 30.0,
        beat_interval: float = 0.2,
        batch: int = DEFAULT_BATCH,
        recycle_after: int = DEFAULT_RECYCLE_AFTER,
        max_rss_growth_kb: int = DEFAULT_MAX_RSS_GROWTH_KB,
        metrics: Optional[MetricsCollector] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if recycle_after < 1:
            raise ValueError("recycle_after must be >= 1")
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.job_fn = job_fn
        self.on_event = on_event
        self.poll_interval = poll_interval
        self.poison_threshold = poison_threshold
        self.circuit_threshold = circuit_threshold
        self.liveness_grace = liveness_grace
        self.beat_interval = beat_interval
        self.batch = batch
        self.recycle_after = recycle_after
        self.max_rss_growth_kb = max_rss_growth_kb
        #: Infrastructure metrics sink (restores, divergences, cold
        #: boots, recycles).  Kept separate from any per-trial
        #: collector: these counters describe execution machinery and
        #: must never leak into persisted trial results.
        self.metrics = metrics if metrics is not None else MetricsCollector()
        #: Plain-dict mirror of the infra counters, for reports/tests.
        self.stats: Dict[str, int] = {}
        self._ctx = multiprocessing.get_context(preferred_context())

    # -- hooks ----------------------------------------------------------

    def _wrap_job_fn(self, job_fn: JobFn) -> JobFn:
        """Per-rung job-function hook — the chaos harness wraps it."""
        return job_fn

    def _wrap_outbox(self, channel):
        """Per-worker result-channel hook — the chaos harness wraps it."""
        return channel

    def _restore_chaos(self) -> Optional[Any]:
        """Worker-side restore fault injector — chaos harness hook.

        Must return a picklable object with a
        ``before_restore(entry, job_id, attempt)`` method (or None).
        It runs in the worker immediately before each cached restore,
        which is where the chaos harness corrupts snapshot bytes and
        wedges restores.
        """
        return None

    # -- the ladder -----------------------------------------------------

    def _execute(self, remaining, stopped) -> None:
        self.stats = {}
        self._pending: List[Tuple[float, JobSpec, int]] = [
            (0.0, spec, 0) for spec in remaining
        ]
        self._next_worker_id = 0
        self._job_fn, self._batch = self.job_fn, self.batch
        while True:
            halted = self._run_rung(stopped)
            if not halted or stopped() or not self._pending:
                return
            if self._batch == 1 and self._job_fn is not execute_job_cached:
                self._fail_remaining(halted)
                return
            self._hub.emit(
                ev.POOL_DEGRADED,
                detail=(
                    f"{halted}; stepping {len(self._pending)} job(s) down "
                    "to one job per worker without the snapshot cache"
                ),
            )
            self._count("forkserver.degraded")
            if self._job_fn is execute_job_cached:
                self._job_fn = execute_job
            self._batch = 1

    def _run_rung(self, stopped: Callable[[], bool]) -> str:
        """Run the pending jobs on fresh workers until they are done,
        the campaign is stopped or the circuit opens.

        Returns the open circuit's verdict ("" if it stayed closed).
        Batch members still unacked at the end go back to pending:
        they were never recorded as done, so the store still counts
        them as pending work and ``--resume`` picks them up exactly.
        """
        self._poison = PoisonTracker(self.poison_threshold)
        self._circuit = CircuitBreaker(self.circuit_threshold)
        self._halted = ""
        self._workers: Dict[int, _Worker] = {}
        try:
            self._replenish()
            while self._pending or any(
                w.busy for w in self._workers.values()
            ):
                if stopped() or self._halted:
                    break
                self._assign()
                self._drain()
                self._check_timeouts()
                self._check_liveness()
                self._check_crashes()
                self._replenish()
            for worker in self._workers.values():
                self._pending.extend(
                    (0.0, spec, attempt)
                    for spec, attempt in worker.batch[worker.acked:]
                )
        finally:
            self._shutdown()
        return self._halted

    def _count(self, key: str, n: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + n
        self.metrics.count(key, n)

    # -- scheduling internals ------------------------------------------

    def _spawn(self) -> None:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        # One private pipe pair per worker.  Results never share a
        # transport: see _ResultChannel for why a shared queue is a
        # liveness hazard under kills.
        inbox_r, inbox_w = self._ctx.Pipe(duplex=False)
        result_r, result_w = self._ctx.Pipe(duplex=False)
        heartbeat = self._ctx.Value("d", time.monotonic())
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id, self._wrap_job_fn(self._job_fn), inbox_r,
                self._wrap_outbox(_ResultChannel(result_w)), heartbeat,
                self.beat_interval, self._restore_chaos(),
            ),
            daemon=True,
            name=f"repro-worker-{worker_id}",
        )
        process.start()
        # Drop the child's ends so a dead worker reads as EOF here.
        inbox_r.close()
        result_w.close()
        os.set_blocking(result_r.fileno(), False)
        _LIVE_WORKERS.add(process)
        self._workers[worker_id] = _Worker(
            worker_id=worker_id, process=process, inbox=inbox_w,
            conn=result_r, heartbeat=heartbeat,
        )

    def _replenish(self) -> None:
        """Keep the pool sized to the remaining work after kills."""
        busy = sum(1 for w in self._workers.values() if w.busy)
        target = min(self.jobs, busy + len(self._pending))
        while len(self._workers) < target:
            self._spawn()

    def _assign(self) -> None:
        now = time.monotonic()
        idle = [worker for worker in self._workers.values() if not worker.busy]
        ready = [i for i, (at, _, _) in enumerate(self._pending) if at <= now]
        if not idle or not ready:
            return
        # Spread the ready jobs over the idle workers before filling
        # batches: a small campaign must not queue on one worker while
        # another idles.
        share = min(self._batch, math.ceil(len(ready) / len(idle)))
        chunks = [ready[i:i + share] for i in range(0, len(ready), share)]
        for worker, indices in zip(idle, chunks):
            worker.batch = [self._pending[i][1:] for i in indices]
            worker.acked = 0
            worker.started_at = now
            try:
                worker.inbox.send(
                    [(spec.to_json(), attempt) for spec, attempt in worker.batch]
                )
            except OSError:
                pass  # worker just died; _check_crashes re-queues the batch
            for spec, attempt in worker.batch:
                if self._store is not None and attempt == 0:
                    self._store.mark_running(spec.job_id)
                self._hub.emit(
                    ev.JOB_STARTED, job_id=spec.job_id, label=spec.label,
                    worker=worker.worker_id, attempt=attempt,
                )
        taken = set(ready[: share * len(idle)])
        self._pending = [
            entry for i, entry in enumerate(self._pending) if i not in taken
        ]

    def _drain(self) -> None:
        """Process every available worker message (block briefly once).

        Reads are non-blocking and frame-parsed in the parent: a
        worker killed mid-write leaves at worst a partial frame in its
        private buffer, never a blocked read or a poisoned lock.
        """
        conns = {
            worker.conn: worker
            for worker in self._workers.values() if not worker.eof
        }
        if not conns:
            time.sleep(self.poll_interval)
            return
        ready = multiprocessing.connection.wait(
            list(conns), timeout=self.poll_interval
        )
        for conn in ready:
            worker = conns[conn]
            self._pump(worker)
            for message in worker.take_messages():
                self._dispatch(message)

    @staticmethod
    def _pump(worker: _Worker) -> None:
        """Move every byte the worker's pipe holds into its buffer."""
        fd = worker.conn.fileno()
        while True:
            try:
                chunk = os.read(fd, 1 << 16)
            except BlockingIOError:
                return
            except OSError:
                worker.eof = True
                return
            if not chunk:
                worker.eof = True
                return
            worker.buffer.extend(chunk)

    def _dispatch(self, message) -> None:
        (worker_id, job_id, status, payload, retryable, wall, infra,
         counters, rss_kb) = message
        worker = self._workers.get(worker_id)
        if worker is None:
            return  # a replaced or retired worker's late message
        if status == "ready":
            # Start-up finished: charge the in-flight batch's wall-clock
            # budget from here, not from when it was queued.
            worker.ready = True
            if worker.busy:
                worker.started_at = time.monotonic()
            return
        # Frames arrive in batch order, one per member, so a frame for
        # anything but the current member is a duplicate (chaos, or
        # at-least-once delivery) and is dropped whole, its infra
        # events and counters with it.
        if not worker.busy:
            return
        spec, attempt = worker.current()
        if spec.job_id != job_id:
            return
        worker.acked += 1
        worker.served += 1
        worker.started_at = time.monotonic()  # batch progress clock
        self._circuit.record_success()  # the worker survived its job
        for event in infra:
            self._on_infra(event, job_id, worker)
        for key in sorted(counters):
            self._count(key, counters[key])
        self._requeue(
            spec, attempt,
            self._settle(spec, attempt, status, payload, retryable, wall, worker_id),
        )
        if not worker.busy:
            worker.batch = []
            worker.acked = 0
            self._recycle_if_due(worker, rss_kb)

    def _on_infra(self, payload, job_id, worker) -> None:
        if payload.get("kind") == "restore-diverged":
            self._hub.emit(
                ev.RESTORE_DIVERGED,
                job_id=job_id,
                worker=worker.worker_id,
                detail=(
                    f"xen-{payload.get('version', '?')}: restored digest "
                    f"{payload.get('actual', '')[:12]} != checkpoint "
                    f"{payload.get('expected', '')[:12]}"
                ),
            )

    def _recycle_if_due(self, worker: _Worker, rss_kb: int) -> None:
        """At the end of a batch: retire a worker that served its
        quota or whose peak RSS grew past the bound."""
        if worker.baseline_rss == 0:
            worker.baseline_rss = rss_kb
        grown = rss_kb - worker.baseline_rss
        if worker.served >= self.recycle_after:
            reason = (
                f"served {worker.served} trials "
                f"(recycle_after {self.recycle_after})"
            )
        elif self.max_rss_growth_kb and grown > self.max_rss_growth_kb:
            reason = (
                f"rss grew {grown} KiB over baseline "
                f"(limit {self.max_rss_growth_kb})"
            )
        else:
            return
        self._hub.emit(ev.WORKER_RECYCLED, worker=worker.worker_id, detail=reason)
        self._count("forkserver.workers.recycled")
        self._workers.pop(worker.worker_id, None)
        try:
            worker.inbox.send(None)
        except OSError:
            pass
        worker.process.join(timeout=2.0)
        self._kill(worker)  # force + close pipes if still alive

    # -- failure paths --------------------------------------------------

    def _check_timeouts(self) -> None:
        if self.timeout is None:
            return
        now = time.monotonic()
        for worker in list(self._workers.values()):
            if not worker.busy or not worker.ready:
                continue  # start-up time is not the job's; liveness covers wedges
            if now - worker.started_at <= self.timeout:
                continue
            detail = (
                f"exceeded {self.timeout:.1f}s wall-clock budget on batch "
                f"member {worker.acked + 1}/{len(worker.batch)}"
            )
            self._lost(worker, ev.JOB_TIMEOUT, "timeout", detail, self.timeout)

    def _check_liveness(self) -> None:
        """Detect wedged workers whose process is alive but silent.

        ``is_alive()`` cannot see a SIGSTOPped or deadlocked worker;
        the heartbeat can — it goes stale.  The job's own runtime is
        covered by ``timeout``; this grace period only covers loss of
        the heartbeat itself.
        """
        if self.liveness_grace is None:
            return
        now = time.monotonic()
        for worker in list(self._workers.values()):
            if not worker.busy or not worker.process.is_alive():
                continue
            # A starting worker has not started its beat thread yet;
            # give it the boot allowance, not the (often much tighter)
            # steady-state grace.
            grace = (
                self.liveness_grace if worker.ready
                else max(self.liveness_grace, _BOOT_GRACE)
            )
            stale = now - worker.last_seen()
            if stale <= grace:
                continue
            detail = f"no heartbeat for {stale:.1f}s (grace {grace:.1f}s)"
            self._lost(worker, ev.WORKER_UNRESPONSIVE, "unresponsive", detail)

    def _check_crashes(self) -> None:
        """Detect dead workers and fail (or retry) their in-flight jobs."""
        for worker in list(self._workers.values()):
            if worker.process.is_alive():
                continue
            # Harvest results the worker flushed before dying — they
            # are complete frames in its private pipe, and re-running
            # their jobs would only redo identical work.
            self._pump(worker)
            for message in worker.take_messages():
                self._dispatch(message)
            if not worker.busy:
                self._kill(worker)
                continue
            detail = (
                f"worker crashed (exit code {worker.process.exitcode}) "
                f"on batch member {worker.acked + 1}/{len(worker.batch)}"
            )
            self._lost(worker, ev.WORKER_CRASHED, "crash", detail)

    def _lost(
        self, worker: _Worker, kind: str, status: str, detail: str,
        wall: Optional[float] = None,
    ) -> None:
        """The worker is gone under its current member: charge that
        member, and requeue the members after it at their existing
        attempt count — the worker never started them, so its death is
        not their failure."""
        spec, attempt = worker.current()
        self._hub.emit(
            kind, job_id=spec.job_id, label=spec.label,
            worker=worker.worker_id, attempt=attempt, detail=detail,
        )
        self._kill(worker)
        if self._store is not None:
            self._store.record_attempt(spec.job_id, attempt, status, detail, wall)
        self._pending.extend(
            (0.0, member, tries) for member, tries in worker.batch[worker.acked + 1:]
        )
        self._handle_death(spec, attempt, detail)

    def _handle_death(self, spec: JobSpec, attempt: int, detail: str) -> None:
        """A worker died under this job: quarantine, retry, or fail.

        Two guards fire before the ordinary retry path: the poison
        tracker quarantines a *job* that keeps killing workers, and the
        circuit breaker halts the *rung* when workers die consecutively
        regardless of job — the first is a bad input, the second a bad
        environment.
        """
        verdict = self._poison.record_death(spec.job_id)
        if verdict is not None:
            quarantine_detail = verdict.render()
            if self._store is not None:
                self._store.record_attempt(
                    spec.job_id, attempt, "quarantined", quarantine_detail
                )
            self._fail(
                spec, attempt, quarantine_detail, kind=ev.JOB_QUARANTINED
            )
        else:
            self._requeue(
                spec, attempt, self._retry_or_fail(spec, attempt, detail, True)
            )
        if self._circuit.record_death():
            self._halted = self._circuit.render()
            self._hub.emit(ev.CIRCUIT_OPEN, detail=self._halted)

    def _requeue(self, spec, attempt, delay: Optional[float]) -> None:
        """Queue the job's next attempt after ``delay`` (None: settled)."""
        if delay is not None:
            self._pending.append((time.monotonic() + delay, spec, attempt + 1))

    def _fail_remaining(self, detail: str) -> None:
        """Circuit open on the bottom rung: fail everything still queued."""
        leftovers, self._pending = self._pending, []
        for _ready, spec, attempt in leftovers:
            if spec.job_id not in self._outcome.failures:
                self._fail(spec, attempt, detail)

    # -- teardown -------------------------------------------------------

    def _kill(self, worker: _Worker) -> None:
        self._workers.pop(worker.worker_id, None)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2.0)
        for conn in (worker.inbox, worker.conn):
            try:
                conn.close()
            except OSError:
                pass

    def _shutdown(self) -> None:
        workers = list(self._workers.values())
        for worker in workers:
            try:
                worker.inbox.send(None)
            except Exception:
                pass
        deadline = time.monotonic() + 5.0
        for worker in workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
        for worker in workers:
            self._kill(worker)


#: A second name for the one pool (``perfbench`` and older callers
#: import it); the same class, not a subclass.
ForkServerPool = WorkerPool


# ----------------------------------------------------------------------
# Front door
# ----------------------------------------------------------------------


def make_runner(
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 1,
    job_fn: Optional[JobFn] = None,
    on_event: Optional[EventCallback] = None,
    max_backoff: float = 5.0,
    poison_threshold: int = 3,
    circuit_threshold: int = 8,
    liveness_grace: Optional[float] = 30.0,
    fork_server: bool = False,
    batch: int = DEFAULT_BATCH,
    recycle_after: int = DEFAULT_RECYCLE_AFTER,
):
    """A SerialRunner for ``jobs=1``, the WorkerPool otherwise.

    ``fork_server=True`` runs in a worker process even at ``jobs=1``.
    ``job_fn`` defaults to each runner's own: the cold
    :func:`~repro.runner.jobs.execute_job` in process, the
    snapshot-cached one in workers.
    """
    if jobs <= 1 and not fork_server:
        return SerialRunner(
            retries=retries, max_backoff=max_backoff,
            job_fn=job_fn or execute_job, on_event=on_event,
        )
    return WorkerPool(
        jobs=jobs, timeout=timeout, retries=retries, max_backoff=max_backoff,
        job_fn=job_fn or execute_job_cached, on_event=on_event,
        poison_threshold=poison_threshold,
        circuit_threshold=circuit_threshold, liveness_grace=liveness_grace,
        batch=batch, recycle_after=recycle_after,
    )


def run_jobs(
    specs: Sequence[JobSpec],
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 1,
    store: Optional[ResultStore] = None,
    job_fn: Optional[JobFn] = None,
    on_event: Optional[EventCallback] = None,
) -> RunnerOutcome:
    """One-call campaign execution: plan in, outcome out."""
    runner = make_runner(
        jobs=jobs, timeout=timeout, retries=retries, job_fn=job_fn,
        on_event=on_event,
    )
    return runner.run(specs, store=store)
