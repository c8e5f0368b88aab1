"""service-mixed: ``repro serve`` driven over HTTP by two closed-loop tenants."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import plans
from kernel import HostClock, Segment

from repro.service import compact_data_dir, shards
from repro.service.client import ServiceClient
from repro.service.plans import canonical_plan, expand_plan

#: The two tenants, one connection each: the benchmark refuses to run
#: with more connections than nproc.
CONNECTIONS = 2
#: Campaigns each tenant runs, closed loop, per wave.  The kernel runs
#: between waves, when no campaign is in flight.
CAMPAIGNS_PER_WAVE = 4
SETUP_SAMPLES = 3
STARTUP_TIMEOUT = 60.0
CAMPAIGN_TIMEOUT = 120.0


@dataclass
class Submission:
    """One plan submitted by one tenant, and what the client saw."""

    tenant: str
    plan: Dict[str, object]
    jobs: int
    wave: int = -1
    status: int = 0
    campaign_id: str = ""
    state: str = ""
    ok_jobs: int = 0
    #: Raw perf_counter readings taken by the client.
    submitted: float = 0.0
    admitted: float = 0.0
    started: float = 0.0
    finished: float = 0.0
    status_calls_s: List[float] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.status == 202 and self.state == "done" and self.ok_jobs == self.jobs


def plan_jobs(plan: Dict[str, object]):
    return expand_plan(canonical_plan(plan))


class Server:
    """One ``repro serve`` subprocess with the fork-server, one worker
    and one active-campaign slot."""

    def __init__(self, src: str, data_dir: str):
        os.makedirs(data_dir, exist_ok=True)
        self.data_dir = data_dir
        ready = os.path.join(data_dir, "service.json")
        self._log = open(os.path.join(data_dir, "serve.log"), "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--data-dir", data_dir, "--ready-file", ready,
                "--fork-server", "--jobs", "1", "--max-active", "1",
                "--quota-rate", "1000", "--quota-burst", "1000",
                "--queue-depth", "64",
            ],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + STARTUP_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                self.stop()
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            try:
                with open(ready) as handle:
                    info = json.load(handle)
                break
            except (OSError, ValueError):
                if time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError("repro serve did not become ready")
                time.sleep(0.002)
        self.client = ServiceClient(info["host"], info["port"], timeout=CAMPAIGN_TIMEOUT)

    def stop(self) -> None:
        """Drain and wait for the server (and so its workers) to exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def run_submission(client: ServiceClient, sub: Submission) -> None:
    """Submit, follow the campaign's events to its end, then read back."""
    sub.submitted = time.perf_counter()
    sub.status, payload = client.submit(sub.plan, sub.tenant)
    sub.admitted = time.perf_counter()
    if sub.status != 202:
        return
    sub.campaign_id = payload["id"]
    for frame in client.stream(sub.campaign_id, timeout=CAMPAIGN_TIMEOUT):
        event = frame["event"]
        if event.get("kind") == "campaign-started":
            sub.started = time.perf_counter()
        if event.get("final"):
            sub.finished = time.perf_counter()
            break
    for call in (lambda: client.status(sub.campaign_id), lambda: client.list(sub.tenant)):
        began = time.perf_counter()
        result = call()
        sub.status_calls_s.append(time.perf_counter() - began)
        if isinstance(result, dict):
            sub.state = str(result["state"])
            sub.ok_jobs = int(result["ok"])


def setup_sample(src: str, data_dir: str, seed: int, index: int, clock: HostClock):
    """Launch a server and run a small warm-up campaign on it; the
    segment runs from launch to the first completed job."""
    clock.begin()
    launched = time.monotonic()
    server = Server(src, data_dir)
    try:
        plan = plans.warmup_plan(seed, index)
        sub = Submission(tenant="warmup", plan=plan, jobs=len(plan_jobs(plan)))
        sub.submitted = time.perf_counter()
        sub.status, payload = server.client.submit(plan, sub.tenant)
        sub.admitted = time.perf_counter()
        if sub.status != 202:
            raise RuntimeError(f"warm-up submission refused: {sub.status} {payload}")
        sub.campaign_id = payload["id"]
        first_done: Optional[float] = None
        for frame in server.client.stream(sub.campaign_id, timeout=CAMPAIGN_TIMEOUT):
            event = frame["event"]
            if event.get("kind") == "job-finished" and first_done is None:
                first_done = time.monotonic()
            if event.get("final"):
                break
        final = server.client.status(sub.campaign_id)
        sub.state, sub.ok_jobs = str(final["state"]), int(final["ok"])
        if first_done is None or not sub.done:
            raise RuntimeError(f"warm-up campaign did not complete: {final}")
    except BaseException:
        server.stop()
        raise
    segment = clock.end(f"setup-{index}", first_done - launched)
    return server, sub, segment


def run_waves(server: Server, seed: int, seconds: float, clock: HostClock, min_waves: int = 1):
    """Closed-loop waves until ``seconds`` have passed or the distinct
    campaign plans run out.  alice submits fuzz plans and bob campaign
    plans, so the single slot alternates between the two kinds and
    every campaign waits behind one of the other kind."""
    fuzz_plans = plans.service_fuzz_plans(seed)
    campaign_plans = plans.service_campaign_plans(seed)
    waves: List[Segment] = []
    subs: List[Submission] = []
    deadline = time.monotonic() + seconds
    while len(waves) < min_waves or time.monotonic() < deadline:
        if len(campaign_plans) < CAMPAIGNS_PER_WAVE:
            break
        wave = len(waves)
        queues = {
            "alice": [next(fuzz_plans) for _ in range(CAMPAIGNS_PER_WAVE)],
            "bob": [campaign_plans.pop() for _ in range(CAMPAIGNS_PER_WAVE)],
        }
        wave_subs = {
            tenant: [Submission(tenant, p, len(plan_jobs(p)), wave) for p in queue]
            for tenant, queue in queues.items()
        }
        errors: List[BaseException] = []

        def tenant_loop(tenant_subs: Sequence[Submission]) -> None:
            try:
                for sub in tenant_subs:
                    run_submission(server.client, sub)
            except BaseException as exc:  # reported by the wave below
                errors.append(exc)

        threads = [
            threading.Thread(target=tenant_loop, args=(wave_subs[t],), name=f"tenant-{t}")
            for t in ("alice", "bob")
        ]
        clock.begin()
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=CAMPAIGN_TIMEOUT * CAMPAIGNS_PER_WAVE)
        raw = time.perf_counter() - started
        if errors:
            raise errors[0]
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a tenant did not finish its wave")
        waves.append(clock.end(f"wave-{wave}", raw))
        # Interleave so the submission order is the order they ran in.
        for pair in zip(wave_subs["alice"], wave_subs["bob"]):
            subs.extend(pair)
    return waves, subs


def count_journal_records(data_dir: str, campaign_ids) -> int:
    ids = set(campaign_ids)
    count = 0
    with open(os.path.join(data_dir, "journal.jsonl")) as handle:
        for line in handle:
            record = json.loads(line)
            campaign = record.get("campaign")
            cid = campaign.get("campaign_id") if isinstance(campaign, dict) else record.get("id")
            count += cid in ids
    return count


def count_events(data_dir: str, subs: Sequence[Submission]) -> int:
    count = 0
    for sub in subs:
        with open(shards.event_log_path(data_dir, sub.tenant, sub.campaign_id)) as handle:
            count += sum(1 for line in handle if line.strip())
    return count


def timed_compaction(data_dir: str, clock: HostClock):
    clock.begin()
    started = time.perf_counter()
    report = compact_data_dir(data_dir)
    return report, clock.end("compact", time.perf_counter() - started)
