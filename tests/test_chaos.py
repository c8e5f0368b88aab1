"""Tests for the chaos harness and the hardened runner's fault paths.

The headline property lives in :class:`TestChaosInvariant`: a campaign
executed under seeded infrastructure faults (worker SIGKILL, message
duplication and delay, store tears) produces a result store that is
byte-identical to a plain serial run.  Around it, targeted tests pin
each hardening mechanism — poison quarantine, circuit breaker,
heartbeat liveness, graceful interruption, orphan reaping, and the
typed store-corruption recovery path.
"""

import multiprocessing
import os
import shutil
import signal
import threading
import time

import pytest

from repro.resilience.chaos import (
    ChaosPlan,
    ChaosReport,
    run_chaos_campaign,
    tear_file,
)
from repro.runner import (
    CampaignInterrupted,
    EventRecorder,
    JobSpec,
    ResultStore,
    SerialRunner,
    StoreCorrupt,
    WorkerPool,
    execute_job,
    plan_campaign,
    plan_fuzz,
)
from repro.runner import events as ev
from repro.runner.pool import RunnerOutcome, _ResultChannel, _Worker


def selftest(behaviour: str) -> JobSpec:
    return JobSpec(kind="selftest", use_case=behaviour)


def no_orphans() -> bool:
    """No worker process outlived its pool (reaps zombies as it checks)."""
    return multiprocessing.active_children() == []


def _instant_job(spec: JobSpec, attempt: int) -> dict:
    """Deterministic stand-in job for resume tests (no pid in payload)."""
    return {"use_case": spec.use_case, "attempt": attempt}


def _interrupting_job(spec: JobSpec, attempt: int) -> dict:
    """Raises SIGINT against our own process mid-campaign."""
    if spec.use_case.startswith("boom"):
        os.kill(os.getpid(), signal.SIGINT)
    return {"use_case": spec.use_case, "attempt": attempt}


class TestChaosPlan:
    def test_decisions_are_deterministic(self):
        a, b = ChaosPlan(seed=3), ChaosPlan(seed=3)
        for episode in (1, 2, 3):
            for job in ("j1", "j2", "j3"):
                assert a.kills(episode, job) == b.kills(episode, job)
                assert a.delays(episode, job) == b.delays(episode, job)
                assert a.duplicates(episode, job) == b.duplicates(episode, job)
            assert a.tears(episode) == b.tears(episode)

    def test_seeds_disagree(self):
        a, b = ChaosPlan(seed=1, kill_rate=0.5), ChaosPlan(seed=2, kill_rate=0.5)
        jobs = [f"job:{i}" for i in range(64)]
        assert [a.kills(1, j) for j in jobs] != [b.kills(1, j) for j in jobs]

    def test_kill_suppresses_hang(self):
        plan = ChaosPlan(seed=5, kill_rate=1.0, hang_rate=1.0)
        assert plan.kills(1, "j") and not plan.hangs(1, "j")

    def test_fork_fault_decisions_are_deterministic(self):
        a = ChaosPlan(seed=11, corrupt_rate=0.5, wedge_rate=0.5)
        b = ChaosPlan(seed=11, corrupt_rate=0.5, wedge_rate=0.5)
        for episode in (1, 2):
            for job in ("j1", "j2", "j3", "j4"):
                assert a.corrupts(episode, job) == b.corrupts(episode, job)
                assert a.wedges(episode, job) == b.wedges(episode, job)

    def test_corrupt_suppresses_wedge(self):
        plan = ChaosPlan(seed=5, corrupt_rate=1.0, wedge_rate=1.0)
        assert plan.corrupts(1, "j") and not plan.wedges(1, "j")

    def test_delays_bounded(self):
        plan = ChaosPlan(seed=7, delay_rate=1.0, max_delay=0.05)
        for i in range(32):
            assert 0.0 <= plan.delays(1, f"j{i}") <= 0.05

    def test_report_render_names_the_verdict(self):
        report = ChaosReport(seed=9, total_jobs=4, episodes=2,
                             faults={"kills": 3}, identical=True)
        text = report.render()
        assert "seed 9" in text and "kills=3" in text and "IDENTICAL" in text
        report.identical = False
        assert "DIVERGED" in report.render()


class TestChaosInvariant:
    """The tentpole property: chaos-parallel == serial, byte for byte."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_store_identical_under_faults(self, seed, tmp_path):
        specs = plan_campaign(
            ["XSA-212-crash", "XSA-182-test"], ["4.6"], ["exploit", "injection"]
        )
        report = run_chaos_campaign(
            specs, seed=seed, store_path=str(tmp_path / "chaos.sqlite"),
            jobs=2, timeout=10.0,
        )
        assert report.identical, report.render()
        assert report.episodes >= 1
        # campaign runs cold-boot: no restore, so no restore fault
        assert report.faults["corrupts"] == report.faults["wedges"] == 0
        assert no_orphans()


class TestForkServerChaosInvariant:
    """The three-way invariant: serial == chaos spawn == chaos fork-server."""

    def test_fork_server_store_identical_under_faults(self, tmp_path):
        specs = plan_fuzz("4.13", ["idt", "m2p"], 5, 20230701)
        fork_report = run_chaos_campaign(
            specs, seed=2, store_path=str(tmp_path / "fork.sqlite"),
            jobs=2, timeout=3.0,
        )
        assert fork_report.identical, fork_report.render()
        assert fork_report.episodes >= 1
        # the zero-rates default really got bumped: snapshot faults were
        # planned, not silently skipped
        assert "corrupts" in fork_report.faults
        assert "wedges" in fork_report.faults
        assert no_orphans()

        spawn_report = run_chaos_campaign(
            specs, seed=2, store_path=str(tmp_path / "spawn.sqlite"),
            jobs=2, timeout=3.0,
        )
        assert spawn_report.identical, spawn_report.render()
        # cross-mode byte identity: both chaos modes left exactly the
        # serial reference's store bytes
        assert fork_report.chaos_json == spawn_report.chaos_json
        assert no_orphans()


class TestPoisonQuarantine:
    def test_poisonous_job_is_quarantined_not_retried_forever(self):
        recorder = EventRecorder()
        pool = WorkerPool(
            jobs=2, retries=5, backoff=0.0, poison_threshold=2,
            on_event=recorder,
        )
        specs = [selftest("crash"), selftest("ok"), selftest("ok:2")]
        outcome = pool.run(specs)
        assert "quarantined" in outcome.failures[specs[0].job_id]
        assert len(outcome.results) == 2  # healthy jobs unharmed
        assert ev.JOB_QUARANTINED in recorder.kinds()
        # two deaths crossed the threshold; the retry budget (5) did
        # not get burned afterwards
        crashes = recorder.kinds().count(ev.WORKER_CRASHED)
        assert crashes == 2
        assert no_orphans()

    def test_quarantine_recorded_in_store(self, tmp_path):
        spec = selftest("crash")
        with ResultStore(str(tmp_path / "q.sqlite")) as store:
            WorkerPool(jobs=1, retries=5, backoff=0.0,
                       poison_threshold=2).run([spec], store=store)
            assert store.summary().failed == 1


class TestCircuitBreaker:
    def test_consecutive_deaths_halt_the_campaign(self):
        recorder = EventRecorder()
        pool = WorkerPool(
            jobs=1, retries=0, poison_threshold=99, circuit_threshold=2,
            batch=1, job_fn=execute_job, on_event=recorder,
        )
        specs = [selftest("crash"), selftest("crash:b"), selftest("ok")]
        outcome = pool.run(specs)
        assert ev.CIRCUIT_OPEN in recorder.kinds()
        # the breaker failed the untouched job with the halt verdict so
        # a --resume can pick it back up
        assert "circuit breaker open" in outcome.failures[specs[2].job_id]
        assert no_orphans()

    def test_successes_keep_the_circuit_closed(self):
        pool = WorkerPool(jobs=1, retries=0, poison_threshold=99,
                          circuit_threshold=2)
        specs = [selftest("crash"), selftest("ok"),
                 selftest("crash:b"), selftest("ok:2")]
        outcome = pool.run(specs)
        # deaths never consecutive: both healthy jobs completed
        assert len(outcome.results) == 2
        assert no_orphans()


class TestResultTransport:
    """Per-worker result pipes keep the scheduler kill-safe.

    A shared queue's feeder thread can die holding its cross-process
    write lock when a worker is killed, wedging every other worker's
    results (the bug the chaos harness originally caught).  These
    tests pin the replacement's contract: the parent parses frames
    non-blocking, so a worker killed mid-write can at worst lose its
    own final message.
    """

    def _endpoints(self):
        import pickle

        reader, writer = multiprocessing.Pipe(duplex=False)
        os.set_blocking(reader.fileno(), False)
        worker = _Worker(worker_id=0, process=None, inbox=None, conn=reader)
        return worker, _ResultChannel(writer), writer, pickle

    def test_channel_roundtrip_preserves_order(self):
        worker, channel, _writer, _pickle = self._endpoints()
        channel.put((0, "j", "done", {"n": 1}, False, 0.1))
        channel.put((0, "j", "done", {"n": 2}, False, 0.2))
        WorkerPool._pump(worker)
        assert [m[3] for m in worker.take_messages()] == [{"n": 1}, {"n": 2}]

    def test_partial_frame_is_held_without_blocking(self):
        worker, _channel, writer, pickle = self._endpoints()
        payload = pickle.dumps((0, "job", "done", {"x": 1}, False, 0.1))
        frame = len(payload).to_bytes(4, "big") + payload
        os.write(writer.fileno(), frame[:7])  # a write torn mid-frame
        WorkerPool._pump(worker)
        assert worker.take_messages() == []  # parser waits, parent never blocks
        os.write(writer.fileno(), frame[7:])
        WorkerPool._pump(worker)
        assert worker.take_messages() == [(0, "job", "done", {"x": 1}, False, 0.1)]

    def test_eof_after_partial_frame_discards_it(self):
        worker, _channel, writer, _pickle = self._endpoints()
        os.write(writer.fileno(), b"\x00\x00\x00\x99torn")  # died mid-write
        writer.close()
        WorkerPool._pump(worker)
        assert worker.eof
        assert worker.take_messages() == []


class TestHeartbeatLiveness:
    def test_wedged_worker_is_detected_and_replaced(self):
        recorder = EventRecorder()
        pool = WorkerPool(
            jobs=1, retries=0, liveness_grace=1.0, beat_interval=0.1,
            on_event=recorder,
        )
        spec = selftest("stop")  # SIGSTOPs itself: alive but silent
        outcome = pool.run([spec, selftest("ok")])
        assert ev.WORKER_UNRESPONSIVE in recorder.kinds()
        assert "no heartbeat" in outcome.failures[spec.job_id]
        assert len(outcome.results) == 1
        assert no_orphans()


class TestGracefulInterruption:
    def test_serial_sigint_flushes_and_stays_resumable(self, tmp_path):
        specs = [selftest("ok"), selftest("boom"), selftest("ok:after")]
        path = str(tmp_path / "int.sqlite")
        recorder = EventRecorder()
        with ResultStore(path) as store:
            outcome = SerialRunner(
                job_fn=_interrupting_job, on_event=recorder
            ).run(specs, store=store)
            assert outcome.interrupted
            assert outcome.interrupt_signal == "SIGINT"
            assert ev.CAMPAIGN_INTERRUPTED in recorder.kinds()
            # the in-flight job completed; the one after it never ran
            assert store.summary().done == 2
        # the interrupted store resumes to completion
        with ResultStore(path) as store:
            resumed = SerialRunner(job_fn=_instant_job).run(specs, store=store)
            assert not resumed.interrupted and not resumed.failures
            assert resumed.skipped == {specs[0].job_id, specs[1].job_id}
            assert store.summary().done == 3

    def test_pool_sigterm_stops_dispatch_and_reaps_workers(self, tmp_path):
        specs = [selftest("hang:60"), selftest("hang:61")]
        path = str(tmp_path / "term.sqlite")

        def sigterm_once_workers_exist() -> None:
            # wait for the pool to be demonstrably inside its guarded
            # loop (workers spawn after the guard goes up), so the
            # signal can never hit pytest's default handler
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if multiprocessing.active_children():
                    break
                time.sleep(0.05)
            os.kill(os.getpid(), signal.SIGTERM)

        threading.Thread(target=sigterm_once_workers_exist, daemon=True).start()
        with ResultStore(path) as store:
            outcome = WorkerPool(jobs=2, retries=0).run(specs, store=store)
            assert outcome.interrupted
            assert outcome.interrupt_signal == "SIGTERM"
            assert store.summary().done == 0
        assert no_orphans()
        # nothing was marked failed: the same plan resumes cleanly
        with ResultStore(path) as store:
            resumed = SerialRunner(job_fn=_instant_job).run(specs, store=store)
            assert not resumed.failures and store.summary().done == 2

    def test_payloads_for_raises_typed_interruption(self):
        outcome = RunnerOutcome(interrupted=True, interrupt_signal="SIGINT")
        with pytest.raises(CampaignInterrupted, match="--resume"):
            outcome.payloads_for([])


class TestNoOrphans:
    """Every pool exit path must leave zero child processes behind."""

    def test_normal_completion(self):
        WorkerPool(jobs=2, retries=0).run([selftest("ok"), selftest("ok:2")])
        assert no_orphans()

    def test_timeout_path(self):
        outcome = WorkerPool(jobs=1, timeout=1.0, retries=0).run(
            [selftest("hang:60")]
        )
        assert "wall-clock" in outcome.failures[selftest("hang:60").job_id]
        assert no_orphans()

    def test_crash_path(self):
        WorkerPool(jobs=1, retries=0).run([selftest("crash")])
        assert no_orphans()


class TestStoreRecovery:
    """Torn store files surface as typed errors and recover cleanly."""

    def _populated(self, path: str, specs) -> None:
        with ResultStore(path) as store:
            SerialRunner(job_fn=_instant_job).run(specs, store=store)

    def test_truncated_file_raises_typed_corruption(self, tmp_path):
        path = str(tmp_path / "torn.sqlite")
        specs = [selftest(f"ok:{i}") for i in range(6)]
        self._populated(path, specs)
        dropped = tear_file(path, keep_fraction=0.3)
        assert dropped > 0
        with pytest.raises(StoreCorrupt, match="--resume"):
            ResultStore(path)

    def test_garbage_file_raises_typed_corruption(self, tmp_path):
        path = str(tmp_path / "junk.sqlite")
        with open(path, "wb") as handle:
            handle.write(b"this was never a sqlite database" * 64)
        with pytest.raises(StoreCorrupt):
            ResultStore(path)

    def test_stale_journal_is_harmless(self, tmp_path):
        """A leftover rollback journal with a bogus header is ignored
        by sqlite; the store opens and the data is intact."""
        path = str(tmp_path / "wal.sqlite")
        specs = [selftest("ok"), selftest("ok:2")]
        self._populated(path, specs)
        with open(path + "-journal", "wb") as handle:
            handle.write(b"\x00stale journal garbage\x00" * 32)
        with ResultStore(path) as store:
            assert store.summary().done == 2

    def test_resume_after_restore_runs_exactly_the_missing_jobs(self, tmp_path):
        path = str(tmp_path / "resume.sqlite")
        specs = [selftest(f"ok:{i}") for i in range(4)]
        # two jobs done, then a good copy, then corruption
        with ResultStore(path) as store:
            SerialRunner(job_fn=_instant_job).run(specs[:2], store=store)
        shutil.copyfile(path, path + ".good")
        tear_file(path, keep_fraction=0.2)
        with pytest.raises(StoreCorrupt):
            ResultStore(path)
        shutil.copyfile(path + ".good", path)
        with ResultStore(path) as store:
            outcome = SerialRunner(job_fn=_instant_job).run(specs, store=store)
            assert outcome.skipped == {s.job_id for s in specs[:2]}
            for spec in specs[:2]:
                assert store.attempts_of(spec.job_id) == 1  # not re-run
            assert store.summary().done == 4
