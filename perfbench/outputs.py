"""Output checks: what the program produced must equal a reference."""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Mapping, Optional


def payload_digest(job_ids: Iterable[str], payloads: Mapping[str, object]) -> str:
    """sha256 over (job_id, canonical payload) in the given job order.

    A job without a payload (failed, retried out, quarantined) digests
    as ``null``, so it can never match a reference that completed it.
    """
    digest = hashlib.sha256()
    for job_id in job_ids:
        canonical = json.dumps(
            payloads.get(job_id), sort_keys=True, separators=(",", ":")
        )
        digest.update(job_id.encode())
        digest.update(b"\0")
        digest.update(canonical.encode())
        digest.update(b"\n")
    return digest.hexdigest()


class OutputCheck:
    """Collects every mismatch of a run; the run is correct if none."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def equal(self, what: str, got: object, expected: object) -> None:
        if got != expected:
            self.failures.append(f"{what}: {got!r} != reference {expected!r}")

    def require(self, what: str, condition: bool) -> None:
        if not condition:
            self.failures.append(what)


def serial_reference(specs, errors: Optional[Dict[str, str]] = None) -> Dict[str, object]:
    """Payloads of ``specs`` run one by one, in process, from scratch.

    A job that raises has no payload; its error goes into ``errors``,
    so that the run reports it instead of dying on it.
    """
    from repro.runner import execute_job

    payloads: Dict[str, object] = {}
    for spec in specs:
        try:
            payloads[spec.job_id] = execute_job(spec)
        except Exception as exc:  # noqa: BLE001 - reported by the caller
            if errors is None:
                raise
            errors[spec.job_id] = f"{type(exc).__name__}: {exc}"
    return payloads
