"""The experiment campaign runner (paper Fig. 4 and §VI–§VIII).

A campaign runs use cases against freshly booted testbeds:

* ``Mode.EXPLOIT`` replays the third-party PoC's attack strategy;
* ``Mode.INJECTION`` injects the same erroneous state through the
  ``arbitrary_access`` injector and replays the post-state steps.

Each run yields a :class:`RunResult` with the erroneous-state audit,
the security-violation report, and the captured logs.  Helper methods
produce the full matrices behind the paper's research questions:
RQ1 (exploit vs injection on the vulnerable version), RQ2 (erroneous
states on fixed versions), RQ3 (violations across versions,
Table III).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from typing import TYPE_CHECKING

from repro.core.erroneous_state import ErroneousStateReport
from repro.core.monitor import ViolationReport, recovery_violation
from repro.core.testbed import TestBed, build_testbed
from repro.core.topology import DEFAULT_TOPOLOGY, ScenarioTopology
from repro.errors import HypervisorCrash
from repro.exploits.base import ExploitFailed, UseCase
from repro.guest.kernel import KernelOops
from repro.xen.versions import XenVersion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.recovery import RecoveryReport


class Mode(enum.Enum):
    """How the erroneous state is induced."""

    EXPLOIT = "exploit"
    INJECTION = "injection"


@dataclass
class RunResult:
    """Everything observed in one (use case × version × mode) run."""

    use_case: str
    version: str
    mode: Mode
    erroneous_state: ErroneousStateReport
    violation: ViolationReport
    crashed: bool
    #: How the run ended early, if it did ("kernel exception: ...",
    #: "exploit failed: ...").  ``None`` when the script ran to its end
    #: or the run ended in a hypervisor crash (which is an outcome, not
    #: a failure).
    failure: Optional[str] = None
    console: List[str] = field(default_factory=list)
    guest_log: List[str] = field(default_factory=list)
    #: Microreboot report when the run crashed under ``--recover``;
    #: ``None`` for runs without recovery (including non-crashing
    #: ``--recover`` runs, which never trigger the watchdog).
    recovery: Optional["RecoveryReport"] = None
    #: Trace artefact summary (``{"file", "ops", "final_digest"}``)
    #: when the run was recorded and the trace was kept; ``None``
    #: otherwise.  The file name is a bare basename — artefacts live
    #: in the campaign's ``trace_dir``.
    trace: Optional[dict] = None
    #: Per-trial metrics (``{"counters": {...}, "timings": {...}}``)
    #: when the run was collected with ``collect_metrics`` /
    #: ``--metrics``; ``None`` otherwise.  Only the deterministic
    #: ``counters`` half survives serialization (see
    #: ``repro.analysis.report.result_to_dict``).
    metrics: Optional[dict] = None
    #: Canonical JSON of the scenario topology when the run used a
    #: non-default one; ``None`` for the paper topology (keeping
    #: default payload bytes identical to pre-topology stores).
    topology: Optional[str] = None

    @property
    def summary(self) -> str:
        err = "err-state:YES" if self.erroneous_state.achieved else "err-state:no"
        if self.violation.occurred:
            vio = f"violation:YES ({self.violation.kind})"
        else:
            vio = "violation:no (handled)"
        line = f"[{self.use_case} on Xen {self.version} / {self.mode.value}] {err}, {vio}"
        if self.recovery is not None:
            line += f", recovery:{self.recovery.outcome}"
        return line


class Campaign:
    """Runs use cases against versions and collects the matrices."""

    def __init__(
        self,
        testbed_factory: Callable[[XenVersion], TestBed] = build_testbed,
        settle_rounds: int = 2,
        recover: bool = False,
        max_reboots: int = 1,
        trace_dir: Optional[str] = None,
        trace_keep: str = "failures",
        collect_metrics: bool = False,
        topology: Optional[ScenarioTopology] = None,
    ):
        self.testbed_factory = testbed_factory
        #: The scenario topology every run boots (attacker / victim /
        #: observer roles).  Defaults to the paper shape; part of job
        #: identity on the parallel path.
        self.topology = topology if topology is not None else DEFAULT_TOPOLOGY
        self.settle_rounds = settle_rounds
        #: Run the attack phase under the microreboot crash watchdog
        #: (:mod:`repro.resilience`): a hypervisor crash becomes a
        #: *crash-then-recovered* / *crash-unrecoverable* outcome
        #: instead of ending the trial.
        self.recover = recover
        self.max_reboots = max_reboots
        #: Record every run into ``trace_dir`` (``--trace``).  Traces
        #: are kept for runs that end in a crash, a security violation
        #: or a recovery (``trace_keep="failures"``, the default) or
        #: unconditionally (``trace_keep="always"``); uninteresting
        #: traces are deleted so campaign output stays bounded.
        self.trace_dir = trace_dir
        self._trace_dir_ready = False
        if trace_keep not in ("failures", "always"):
            raise ValueError(
                f"trace_keep must be 'failures' or 'always', got {trace_keep!r}"
            )
        self.trace_keep = trace_keep
        #: Attach a :class:`repro.probes.MetricsCollector` to every run
        #: (``--metrics``) and ship its snapshot on the result.
        self.collect_metrics = collect_metrics

    # ------------------------------------------------------------------
    # Single run
    # ------------------------------------------------------------------

    def run(
        self,
        use_case_cls: Type[UseCase],
        version: XenVersion,
        mode: Mode,
    ) -> RunResult:
        """One experiment: fresh testbed, attack or inject, observe."""
        if self.testbed_factory is build_testbed:
            bed = build_testbed(version, topology=self.topology)
        else:
            # Custom factories own the shape they boot; trust the bed.
            bed = self.testbed_factory(version)
        use_case = use_case_cls()
        use_case.prepare(bed)
        recorder = self._make_recorder(bed, use_case_cls.name, version, mode)
        collector = None
        if self.collect_metrics:
            from repro.probes import MetricsCollector

            collector = MetricsCollector(bed.xen.probes).attach()
            if not bed.topology.is_default:
                # Stamp the scenario shape into the metrics so per-cell
                # counters are attributable to their topology; default
                # runs stay byte-identical to pre-topology snapshots.
                collector.count("topology.domains", bed.topology.num_guests + 1)

        def attack() -> None:
            if mode is Mode.EXPLOIT:
                use_case.run_exploit(bed)
            else:
                use_case.run_injection(bed)

        failure: Optional[str] = None
        recovery: Optional["RecoveryReport"] = None
        pre_crash_state: Optional[ErroneousStateReport] = None
        try:
            try:
                if self.recover:
                    recovery, pre_crash_state = self._guarded_attack(
                        bed, use_case, attack
                    )
                else:
                    attack()
            except HypervisorCrash:  # staticcheck: ignore[R3] the crash is the observable; CrashMonitor reads it from bed.xen.crashed below
                pass
            except KernelOops as oops:
                failure = f"kernel exception: {oops.fault.reason}"
            except ExploitFailed as exc:
                failure = f"{mode.value} failed: {exc}"

            # Let the system run so deferred effects (vDSO calls, event
            # deliveries) materialise, then observe.
            bed.tick(self.settle_rounds)
        finally:
            # Unhook before auditing: the observation phase must see
            # the native testbed, and audits are not part of the trace
            # or the metrics.
            if recorder is not None:
                recorder.detach()
            if collector is not None:
                collector.detach()
        erroneous = use_case.audit_erroneous_state(bed)
        violation = use_case.detect_violation(bed)
        if recovery is not None:
            # The rollback un-corrupts memory, so the post-recovery
            # audit would deny an erroneous state that demonstrably
            # landed; the pre-rollback audit is the true observation.
            if (
                pre_crash_state is not None
                and pre_crash_state.achieved
                and not erroneous.achieved
            ):
                erroneous = pre_crash_state
            violation = recovery_violation(recovery, base=violation)

        attacker_log = (
            list(bed.attacker_domain.kernel.log)
            if bed.attacker_domain.kernel is not None
            else []
        )
        crashed = bed.xen.crashed or recovery is not None
        trace_info: Optional[dict] = None
        if recorder is not None:
            keep = (
                self.trace_keep == "always"
                or crashed
                or violation.occurred
                or recovery is not None
            )
            if keep:
                trace_info = recorder.finalize()
            else:
                recorder.abandon()
        return RunResult(
            use_case=use_case_cls.name,
            version=version.name,
            mode=mode,
            erroneous_state=erroneous,
            violation=violation,
            crashed=crashed,
            failure=failure,
            console=list(bed.xen.console),
            guest_log=attacker_log,
            recovery=recovery,
            trace=trace_info,
            metrics=collector.snapshot() if collector is not None else None,
            topology=(
                None if bed.topology.is_default else bed.topology.canonical_json()
            ),
        )

    def _make_recorder(self, bed, use_case_name: str, version, mode):
        """Build and attach a trace recorder when ``trace_dir`` is set."""
        if self.trace_dir is None:
            return None
        import os

        from repro.trace import TraceRecorder, trace_filename

        if not self._trace_dir_ready:
            os.makedirs(self.trace_dir, exist_ok=True)
            self._trace_dir_ready = True
        path = os.path.join(
            self.trace_dir,
            trace_filename(
                use_case_name,
                version.name,
                mode.value,
                self.recover,
                topology=bed.topology,
            ),
        )
        return TraceRecorder(
            bed,
            path,
            use_case=use_case_name,
            version=version.name,
            mode=mode.value,
            recover=self.recover,
            topology=bed.topology,
        ).attach()

    def _guarded_attack(self, bed, use_case, attack):
        """Run the attack under the microreboot watchdog (``--recover``).

        Returns ``(recovery_report, pre_crash_erroneous_state)`` —
        both ``None`` when the attack did not crash the hypervisor.
        The erroneous state is audited *between* the crash and the
        rollback, while the corrupted memory is still in place.  An
        attached recorder needs no wiring here: the manager's
        checkpoint/recover probes fire on the testbed's bus.
        """
        from repro.resilience.watchdog import CrashWatchdog

        watchdog = CrashWatchdog(bed, max_reboots=self.max_reboots)
        watchdog.checkpoint()
        audited: dict = {}

        def audit_before_rollback() -> None:
            audited["state"] = use_case.audit_erroneous_state(bed)

        verdict = watchdog.guard(attack, on_crash=audit_before_rollback)
        return verdict.recovery, audited.get("state")

    # ------------------------------------------------------------------
    # Matrices
    # ------------------------------------------------------------------

    def run_matrix(
        self,
        use_cases: Sequence[Type[UseCase]],
        versions: Sequence[XenVersion],
        modes: Sequence[Mode] = (Mode.EXPLOIT, Mode.INJECTION),
        runner=None,
        store=None,
    ) -> List[RunResult]:
        """The full matrix, serially or through a ``repro.runner``.

        With ``runner`` (the in-process :class:`repro.runner.SerialRunner`
        or the :class:`repro.runner.WorkerPool`) each cell executes as an
        isolated job — parallel, fault-isolated, and resumable when a
        :class:`repro.runner.ResultStore` is passed as ``store`` —
        and the returned list is identical in content and order to a
        serial run's.
        """
        if runner is not None:
            return self._run_matrix_with_runner(
                use_cases, versions, modes, runner, store
            )
        results = []
        for use_case_cls in use_cases:
            for version in versions:
                for mode in modes:
                    results.append(self.run(use_case_cls, version, mode))
        return results

    def _run_matrix_with_runner(
        self, use_cases, versions, modes, runner, store
    ) -> List[RunResult]:
        from repro.analysis.report import run_result_from_dict
        from repro.runner import plan_campaign

        if self.testbed_factory is not build_testbed:
            raise ValueError(
                "custom testbed factories cannot cross process boundaries; "
                "use the serial path"
            )
        specs = plan_campaign(
            [u.name for u in use_cases],
            [v.name for v in versions],
            [m.value for m in modes],
            recover=self.recover,
            trace_dir=self.trace_dir,
            metrics=self.collect_metrics,
            topology=self.topology.spec_value(),
        )
        outcome = runner.run(specs, store=store)
        return [run_result_from_dict(p) for p in outcome.payloads_for(specs)]

    def rq1_runs(
        self,
        use_cases: Sequence[Type[UseCase]],
        vulnerable_version: XenVersion,
    ) -> List[Tuple[RunResult, RunResult]]:
        """RQ1: (exploit, injection) pairs on the vulnerable version."""
        pairs = []
        for use_case_cls in use_cases:
            exploit = self.run(use_case_cls, vulnerable_version, Mode.EXPLOIT)
            injection = self.run(use_case_cls, vulnerable_version, Mode.INJECTION)
            pairs.append((exploit, injection))
        return pairs

    def table3_runs(
        self,
        use_cases: Sequence[Type[UseCase]],
        versions: Sequence[XenVersion],
    ) -> Dict[Tuple[str, str], RunResult]:
        """RQ2/RQ3: injection runs on the non-vulnerable versions,
        keyed by ``(use_case, version)`` — Table III's cells."""
        cells = {}
        for use_case_cls in use_cases:
            for version in versions:
                result = self.run(use_case_cls, version, Mode.INJECTION)
                cells[(use_case_cls.name, version.name)] = result
        return cells
