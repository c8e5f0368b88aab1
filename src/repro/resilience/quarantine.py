"""Poison-job quarantine and the worker-death circuit breaker.

Two small, deterministic guards the :class:`~repro.runner.pool.WorkerPool`
uses to keep infrastructure faults from burning the whole campaign:

* :class:`PoisonTracker` — a job that repeatedly kills its worker
  (crash, SIGKILL, heartbeat loss) is *poisonous*: retrying it forever
  burns the retry budget and a fresh worker per attempt.  After
  ``threshold`` worker deaths attributable to one job, the tracker
  quarantines it — the job fails with a recorded verdict instead of
  being re-dispatched.
* :class:`CircuitBreaker` — worker deaths that are *not* attributable
  to a single job (the machine is swapping, the container is dying)
  show up as consecutive deaths across jobs.  After ``threshold``
  consecutive deaths with no intervening success, the breaker opens
  and the pool halts dispatch.  The pool then steps down once, in
  place, to one cold job per worker with a fresh tracker and breaker;
  if the breaker opens again there, the remaining jobs fail with an
  explicit verdict so a later ``--resume`` can pick them back up.

Both are plain counters — no clocks, no randomness — so chaos runs
replay deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class QuarantineVerdict:
    """Why a job was quarantined, for events and the result store."""

    job_id: str
    deaths: int
    threshold: int

    def render(self) -> str:
        return (
            f"quarantined: job killed {self.deaths} workers "
            f"(threshold {self.threshold})"
        )


@dataclass
class PoisonTracker:
    """Counts worker deaths per job and quarantines repeat offenders."""

    #: Worker deaths attributable to one job before it is quarantined.
    threshold: int = 3
    _deaths: Dict[str, int] = field(default_factory=dict)
    _quarantined: Dict[str, QuarantineVerdict] = field(default_factory=dict)

    def record_death(self, job_id: str) -> Optional[QuarantineVerdict]:
        """Attribute one worker death to ``job_id``.

        Returns the quarantine verdict when this death crosses the
        threshold (exactly once per job), ``None`` otherwise.
        """
        count = self._deaths.get(job_id, 0) + 1
        self._deaths[job_id] = count
        if count >= self.threshold and job_id not in self._quarantined:
            verdict = QuarantineVerdict(
                job_id=job_id, deaths=count, threshold=self.threshold
            )
            self._quarantined[job_id] = verdict
            return verdict
        return None

    def deaths_of(self, job_id: str) -> int:
        return self._deaths.get(job_id, 0)

    def is_quarantined(self, job_id: str) -> bool:
        return job_id in self._quarantined

    def verdicts(self) -> List[QuarantineVerdict]:
        """All quarantine verdicts, in quarantine order."""
        return list(self._quarantined.values())


@dataclass
class CircuitBreaker:
    """Opens after ``threshold`` consecutive worker deaths."""

    #: Consecutive worker deaths (no success in between) before dispatch halts.
    threshold: int = 8
    consecutive: int = 0
    opened: bool = False

    def record_death(self) -> bool:
        """Record one worker death; returns True when this opens the breaker."""
        self.consecutive += 1
        if not self.opened and self.consecutive >= self.threshold:
            self.opened = True
            return True
        return False

    def record_success(self) -> None:
        """Any completed job proves workers can live; close the window."""
        self.consecutive = 0

    def render(self) -> str:
        return (
            f"circuit breaker open after {self.consecutive} consecutive "
            "worker deaths"
        )
