"""Spans recorded from the benchmark's own code, around calls into the
program's public functions.

Nothing here changes the program: ``instrument`` swaps a timing wrapper
in for each public function for the duration of a ``with`` block and
puts the originals back afterwards.  Spans are kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
import types
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

from repro.runner import ResultStore


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Index of the enclosing span in ``Tracer.spans``, or -1.
    parent: int
    #: Spans of one job share its job ID.
    job: str

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """In-memory span recorder; single-threaded callers only."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.job = ""

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.job))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def durations_ms(self, name: str) -> List[float]:
        return [span.ms for span in self.spans if span.name == name]

    def median_ms(self, name: str) -> float:
        """Median duration of ``name`` spans; 0.0 when none were recorded."""
        values = self.durations_ms(name)
        return statistics.median(values) if values else 0.0

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "job": span.job,
                            "parent": span.parent,
                            "start": span.start,
                            "end": span.end,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


def _rebind(original: Callable, wrapper: Callable, undo: List[Callable]) -> None:
    """Point every ``repro`` module global and function default that
    refers to ``original`` at ``wrapper``.

    Modules import public functions by name and classes bind them as
    parameter defaults, so both kinds of reference must be swapped for
    every caller to go through the wrapper.
    """

    def swap_defaults(fn: object) -> None:
        fn = getattr(fn, "__func__", fn)
        if not isinstance(fn, types.FunctionType) or not fn.__defaults__:
            return
        old = fn.__defaults__
        if not any(value is original for value in old):
            return
        fn.__defaults__ = tuple(wrapper if v is original else v for v in old)
        undo.append(lambda: setattr(fn, "__defaults__", old))

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                undo.append(lambda m=module, a=attr: setattr(m, a, original))
            elif isinstance(value, types.FunctionType):
                swap_defaults(value)
            elif isinstance(value, type) and value.__module__ == name:
                for member in vars(value).values():
                    swap_defaults(member)


def _wrap_method(cls: type, name: str, span: str, tracer: Tracer, undo: List[Callable]) -> None:
    raw = vars(cls)[name]
    if isinstance(raw, classmethod):
        replacement: object = classmethod(tracer.wrap(span, raw.__func__))
    else:
        replacement = tracer.wrap(span, raw)
    setattr(cls, name, replacement)
    undo.append(lambda: setattr(cls, name, raw))


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Time the program's layer entry points while the block runs."""
    from repro.core import testbed
    from repro.core.campaign import Campaign
    from repro.core.checkpoint import TestbedCheckpoint
    from repro.core.fuzz import RandomErroneousStateCampaign
    from repro.vulngen import synthetic

    undo: List[Callable] = []
    try:
        _wrap_method(TestbedCheckpoint, "restore", "core.restore", tracer, undo)
        _wrap_method(TestbedCheckpoint, "capture", "core.capture", tracer, undo)
        _wrap_method(RandomErroneousStateCampaign, "run_trial_on", "core.fuzz_body", tracer, undo)
        _wrap_method(Campaign, "run", "core.cell", tracer, undo)
        _rebind(testbed.build_testbed, tracer.wrap("core.boot", testbed.build_testbed), undo)
        _rebind(
            synthetic.run_synthetic_trial,
            tracer.wrap("vulngen.synthetic_trial", synthetic.run_synthetic_trial),
            undo,
        )
        yield tracer
    finally:
        for step in reversed(undo):
            step()


class TimedResultStore(ResultStore):
    """A result store that times each commit of a job's payload."""

    def __init__(self, path: str, commits_ms: Optional[List[float]] = None):
        super().__init__(path)
        self.commits_ms: List[float] = commits_ms if commits_ms is not None else []

    def record_success(self, job_id, payload, wall_time=None) -> None:
        started = time.perf_counter()
        super().record_success(job_id, payload, wall_time)
        self.commits_ms.append((time.perf_counter() - started) * 1000.0)
