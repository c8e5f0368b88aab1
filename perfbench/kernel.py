"""Host-speed reference kernel and the normalisation arithmetic.

Raw wall clock on a shared host drifts by tens of percent over tens of
seconds, and CPU time drifts with it (the host executes more slowly; the
process is not preempted more often).  Every timing this benchmark
reports is therefore scaled to a nominal host speed, measured with a
reference kernel that runs just before and just after every timed
segment, while the program under test is idle:

    normalized_s = raw_s * nominal_ms / mean(every kernel reading of the run)

One factor per run, not one per segment: on a host whose speed flips
between two modes every few hundred milliseconds, a single 20 ms reading
lands in one mode while a multi-second segment spans both, so a
per-segment ratio adds more noise than it removes.  The mean over all
of a run's readings tracks the slower drift between runs.

The kernel does the same kind of work the simulator does on its hot
path -- ``copy.deepcopy`` of small objects (checkpoint restore), sha256
over a page-sized buffer (digest verification) and a sorted
``json.dumps`` (payload encoding) -- because an ALU-only kernel does
not track the drift of that work closely enough.

This module imports nothing from ``repro``, so no change to the program
under test can move the yardstick.  ``nominal_ms`` is pinned in the
benchmark's command line in ``BENCHMARK.json``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import statistics
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence

#: Passes per kernel reading (~20 ms of work in all); the reading is their mean.
PASSES = 7
#: Idle time between passes of one reading.
PASS_GAP_S = 0.015
#: Small objects deep-copied per pass.
OBJECTS = 150
#: Bytes hashed per pass.
HASH_BYTES = 64 * 1024


def _objects() -> List[dict]:
    return [
        {
            "mfn": index,
            "owner": f"dom{index % 4}",
            "type": ("none", "l1", "l2", "writable")[index % 4],
            "count": index % 7,
            "refs": [index, index + 1, index + 2],
            "flags": {"pinned": index % 3 == 0, "dirty": index % 5 == 0},
        }
        for index in range(OBJECTS)
    ]


def kernel_pass(objects: List[dict], blob: bytes) -> None:
    """One pass of workload-shaped reference work."""
    copies = copy.deepcopy(objects)
    hashlib.sha256(blob).digest()
    json.dumps(copies, sort_keys=True)


def kernel_ms() -> float:
    """Mean duration of one kernel pass, in milliseconds.

    The passes are spread over ~0.1 s: back-to-back readings land in the
    same host speed mode far more often than readings a few tens of
    milliseconds apart, so spreading them samples the mix of modes a
    segment runs through.
    """
    objects = _objects()
    blob = bytes(range(256)) * (HASH_BYTES // 256)
    total = 0.0
    for index in range(PASSES):
        if index:
            time.sleep(PASS_GAP_S)
        started = time.perf_counter()
        kernel_pass(objects, blob)
        total += time.perf_counter() - started
    return total * 1000.0 / PASSES


def normalize(raw_s: float, readings_ms: Sequence[float], nominal_ms: float) -> float:
    """Scale raw seconds to the nominal host speed."""
    reference = statistics.mean(readings_ms)
    if reference <= 0:
        raise ValueError("kernel time must be positive")
    return raw_s * nominal_ms / reference


@dataclass
class Segment:
    """One timed segment: raw seconds and the kernel readings around it."""

    label: str
    raw_s: float
    kernel_before_ms: float
    kernel_after_ms: float


class HostClock:
    """Measures segments bracketed by kernel readings.

    ``begin()`` reads the kernel, ``end()`` reads it again and records
    the segment.  The caller must keep the program under test idle
    around both calls.  ``norm`` scales raw seconds by the run's factor.
    """

    def __init__(self, nominal_ms: float):
        if nominal_ms <= 0:
            raise ValueError("nominal kernel time must be positive")
        self.nominal_ms = nominal_ms
        self.segments: List[Segment] = []
        self._before = 0.0

    def begin(self) -> None:
        self._before = kernel_ms()

    def end(self, label: str, raw_s: float) -> Segment:
        segment = Segment(label, raw_s, self._before, kernel_ms())
        self.segments.append(segment)
        return segment

    @property
    def readings(self) -> List[float]:
        return [ms for s in self.segments for ms in (s.kernel_before_ms, s.kernel_after_ms)]

    @property
    def scale(self) -> float:
        """Factor that turns this run's raw seconds into normalized ones."""
        return normalize(1.0, self.readings, self.nominal_ms)

    def norm(self, raw_s: float) -> float:
        return raw_s * self.scale

    def record(self) -> Dict[str, object]:
        """Raw seconds and kernel readings of every segment, beside the
        normalized seconds."""
        return {
            "nominal_ms": self.nominal_ms,
            "scale": self.scale,
            "segments": [dict(asdict(s), norm_s=self.norm(s.raw_s)) for s in self.segments],
        }
