"""Per-trial metrics, collected from the probe bus.

:class:`MetricsCollector` subscribes to every probe point and keeps
two books:

* **counters** — deterministic event counts (hypercalls by number and
  return code, trap deliveries, page-table validations and updates,
  refcount transitions, frames dirtied, integrity scans, recovery
  phases, crashes).  Counters depend only on the simulated workload,
  so serial and chaos campaigns must agree on them byte for byte —
  the chaos harness asserts exactly that.

* **timings** — wall-clock seconds per op class, measured only for
  the *outermost* op (a ``write_word`` inside a hypercall is billed
  to the hypercall).  Timings are host-dependent and therefore kept
  out of every serialized artefact; they surface live via
  ``repro run --metrics``.

:meth:`MetricsCollector.snapshot` returns the split explicitly:
``{"counters": {...}, "timings": {...}}`` with both dicts sorted by
key.  Only ``counters`` may ever be persisted (see
``repro.analysis.report.result_to_dict``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.probes import points as P
from repro.probes.bus import Attachment, ProbeBus

__all__ = ["MetricsCollector"]


class MetricsCollector:
    """A probe-bus subscriber that turns probe traffic into metrics."""

    def __init__(
        self,
        bus: Optional[ProbeBus] = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.bus = bus
        self.clock = clock
        self.counters: Dict[str, int] = {}
        self.timings: Dict[str, float] = {}
        self._dirty: Set[int] = set()
        self._stack: List[Tuple[str, Optional[float]]] = []
        self._attachment: Optional[Attachment] = None

    # -- lifecycle -----------------------------------------------------

    def attach(self) -> "MetricsCollector":
        """Subscribe to every probe point (all-or-nothing)."""
        if self.bus is None:
            # Bus-less collectors are plain counter sinks (the
            # pool's infrastructure metrics use one); there is
            # no probe traffic to subscribe to.
            raise RuntimeError("metrics collector has no probe bus to attach")
        if self._attachment is not None:
            raise RuntimeError("metrics collector is already attached")
        subscriptions = [(name, self) for name in P.OP_POINTS]
        subscriptions += [
            (P.INTEGRITY, self._on_integrity),
            (P.PT_UPDATE, self._on_pt_update),
            (P.PT_VALIDATE, self._on_pt_validate),
            (P.FRAME_REF, self._on_frame_ref),
            (P.FRAME_TYPE, self._on_frame_type),
            (P.RECOVERY_PHASE, self._on_recovery_phase),
            (P.CRASH, self._on_crash),
        ]
        self._attachment = self.bus.attach(subscriptions)
        return self

    def detach(self) -> None:
        if self._attachment is not None:
            self._attachment.detach()
            self._attachment = None

    @property
    def attached(self) -> bool:
        return self._attachment is not None

    # -- op subscriber -------------------------------------------------

    def op_enter(self, name: str, args: Tuple[Any, ...]) -> None:
        self._bump(f"ops.{name}")
        if name == P.HYPERCALL:
            self._bump(f"hypercall.nr.{args[1]}")
        elif name == P.PAGE_FAULT or name == P.SOFT_IRQ:
            self._bump("traps")
        elif name == P.WRITE_WORD or name == P.ATTACH_BLOB:
            self._dirty.add(args[0])
        elif name == P.ZERO_FRAME:
            self._dirty.add(args[0])
        elif name == P.COPY_FRAME:
            self._dirty.add(args[1])
        start = self.clock() if not self._stack else None
        self._stack.append((name, start))

    def op_exit(
        self,
        name: str,
        args: Tuple[Any, ...],
        result: Any,
        exc: Optional[BaseException],
    ) -> None:
        if self._stack:
            top, start = self._stack.pop()
            if start is not None and top == name:
                self.timings[name] = self.timings.get(name, 0.0) + (
                    self.clock() - start
                )
        if name == P.HYPERCALL:
            if exc is not None:
                self._bump(f"hypercall.err.{type(exc).__name__}")
            elif isinstance(result, int) and not isinstance(result, bool):
                self._bump(f"hypercall.rc.{result}")
        elif name == P.RECOVER:
            outcome = getattr(result, "outcome", None)
            if isinstance(outcome, str):
                self._bump(f"recovery.outcome.{outcome}")

    # -- notify subscribers --------------------------------------------

    def _on_integrity(self) -> None:
        self._bump("integrity.scans")

    def _on_pt_update(self, table_mfn: int, index: int, value: int) -> None:
        self._bump("pt.updates")

    def _on_pt_validate(self, domain_id: int, mfn: int, level: int) -> None:
        self._bump("pt.validations")

    def _on_frame_ref(self, kind: str, mfn: int, count: int) -> None:
        self._bump(f"frames.ref.{kind}")

    def _on_frame_type(self, mfn: int, old: Any, new: Any) -> None:
        self._bump("frames.type_transitions")

    def _on_recovery_phase(self, phase: str) -> None:
        self._bump(f"recovery.phase.{phase}")

    def _on_crash(self, reason: str) -> None:
        self._bump("crashes")

    # -- results -------------------------------------------------------

    def snapshot(self) -> dict:
        """The collected metrics: deterministic counters, host timings."""
        counters = dict(self.counters)
        counters["frames.dirty"] = len(self._dirty)
        return {
            "counters": {k: counters[k] for k in sorted(counters)},
            "timings": {k: self.timings[k] for k in sorted(self.timings)},
        }

    def coverage_signature(self) -> List[str]:
        """The counters as AFL-style coverage features.

        Each non-zero counter contributes one ``key:bucket`` feature,
        where the bucket is the count's bit length — log2 bucketing, so
        "this happened" and "this happened a lot" are distinct features
        while exact counts (which shift with harmless workload jitter)
        are not.  Derived purely from :meth:`snapshot`'s ``counters``
        half, so the signature is deterministic and safe to persist;
        sorted, so equal signatures compare byte for byte.
        """
        counters = self.snapshot()["counters"]
        return [f"{key}:{count.bit_length()}" for key, count in counters.items() if count > 0]

    def count(self, key: str, n: int = 1) -> None:
        """Add ``n`` to a counter directly (no probe traffic involved).

        The worker pool records its infrastructure counters —
        ``forkserver.restores``, ``forkserver.restore.diverged``,
        ``forkserver.cold_boots``, ``forkserver.workers.recycled`` —
        through this entry point.  Infrastructure counters describe
        *how* a campaign executed, never *what* it computed, so they
        live in a separate bus-less collector and are never folded
        into a trial's persisted counters (which must stay identical
        between serial and pool execution, cached or cold).
        """
        self.counters[key] = self.counters.get(key, 0) + n

    def _bump(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1
