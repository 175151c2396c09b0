"""Closed-loop load generator, reference-speed scaling and statistics.

One client sends a request, waits for the reply, then sends the next
(a closed loop).  Requests are dealt in shuffled rounds, so every run
sends exactly the workload's stated mix, and a run is a fixed number
of rounds sized so that it takes ``--seconds`` at nominal machine speed.
Because the rounds are fixed, the same seed gives the same requests,
the same operation count and the same cache behaviour on every run.

Rounds are grouped into short windows.  At the quiescent point between
two windows the harness times one run of the calibration kernel
(:mod:`calibrate`); a window's times are scaled by
``NOMINAL_REF_MS / ref``, where ``ref`` is the trimmed mean of the
kernel times within ``SMOOTHING`` windows of it, which damps the
kernel's own timing noise while following the machine's drift.  A mean
rather than a median, because the host flips between a fast and a slow
state and a window's cost follows the share of time spent in each.
Scaling is valid only for sleep-free, single-client paths: everything
timed here runs on the one client thread and never sleeps (the engines
use the ``none`` flush policy).

A latency is reported as the median and a tail percentile of one
request kind.  The tail is p99 when the kind has at least 1000 samples;
otherwise it is the highest percentile with at least ten samples
beyond it, so that it is never decided by a handful of operations.
The sample count fixes that percentile, and the count is the same on
every run of a workload (the rounds are fixed).

Only time spent inside operations is timed.  Request generation,
output checks and calibration happen between operations and are
excluded from every total.

The garbage collector keeps its normal triggers.  Its pauses are
clocked through ``gc.callbacks`` and charged to the throughput totals,
but subtracted from the latency of the operation they landed in, so a
latency percentile measures operations rather than where the
collector's pauses happen to fall.
"""

from __future__ import annotations

import gc
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

import calibrate

#: Kernel times on each side of a window that feed its reference.
SMOOTHING = 4


@dataclass
class Sample:
    kind: str          # "read" | "write"
    seconds: float     # raw wall time inside the operation, less GC
    window: int
    tuples: int


@dataclass
class PhaseResult:
    samples: list[Sample] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)   # kernel ms, per gap
    gc_seconds: list[float] = field(default_factory=list)  # per window
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    windows: int = 0

    def factors(self) -> list[float]:
        """Per-window scale factor ``NOMINAL_REF_MS / ref``.

        Window ``k`` lies between kernel times ``k`` and ``k+1``; its
        reference is the mean of the ``2 * SMOOTHING`` kernel times
        centred on it, less the highest and the lowest.
        """
        out = []
        for k in range(self.windows):
            lo = max(0, k + 1 - SMOOTHING)
            hi = min(len(self.refs), k + 1 + SMOOTHING)
            out.append(calibrate.NOMINAL_REF_MS
                       / trimmed_mean(self.refs[lo:hi]))
        return out


def trimmed_mean(values: list[float]) -> float:
    """Mean without the highest and the lowest value (when there are
    more than two)."""
    if len(values) <= 2:
        return sum(values) / len(values)
    ordered = sorted(values)[1:-1]
    return sum(ordered) / len(ordered)


#: Samples a tail percentile must leave beyond it.
TAIL_SAMPLES = 10


def tail_quantile(samples: int) -> float:
    """The tail percentile reported for ``samples`` samples: 99, or
    lower when fewer than ``TAIL_SAMPLES`` would lie beyond p99."""
    return min(99.0, 100.0 * (1 - TAIL_SAMPLES / samples))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def repeat_timed(fn: Callable[[], object], repetitions: int,
                 cleanup: Optional[Callable[[object], None]] = None,
                 ) -> tuple[object, list[float], float]:
    """Time ``fn()`` ``repetitions`` times, with calibration points
    before, between and after.

    ``cleanup(result)`` runs untimed before each repetition but the
    first, and a full garbage collection before every one, so each
    starts from the same heap state.  Returns ``(last result, raw
    seconds of each repetition, scale factor)``, the factor being
    ``NOMINAL_REF_MS`` over the trimmed mean of the calibration points.
    """
    points = []
    raws = []
    result = None
    for index in range(repetitions):
        if index and cleanup is not None:
            cleanup(result)
        gc.collect()
        points.append(calibrate.measure())
        start = time.perf_counter()
        result = fn()
        raws.append(time.perf_counter() - start)
    points.append(calibrate.measure())
    return result, raws, calibrate.NOMINAL_REF_MS / trimmed_mean(points)


class _GCClock:
    """Accumulates the wall time of garbage-collector pauses."""

    def __init__(self):
        self.total = 0.0
        self._start = 0.0

    def __call__(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.total += time.perf_counter() - self._start


def run_phase(workload, rounds: int, wall_cap: float,
              on_window: Optional[Callable[[int], None]] = None,
              after_window: Optional[Callable[[int], None]] = None,
              recorder=None) -> PhaseResult:
    """Drive ``rounds`` rounds of the workload's mix, timed.

    ``on_window(k)`` / ``after_window(k)`` run untimed before and after
    window ``k`` (the traced run toggles its recorder there).  Stops
    early, at a round boundary, only if the phase outlives ``wall_cap``
    seconds of wall time.  While ``recorder`` is on, each operation is
    a root span ``request.<kind>`` with its own request id.
    """
    result = PhaseResult()
    gc.collect()
    gc.freeze()
    clock = _GCClock()
    gc.callbacks.append(clock)
    try:
        _drive(workload, rounds, wall_cap, on_window, after_window,
               recorder, result, clock)
    finally:
        gc.callbacks.remove(clock)
    return result


def _drive(workload, rounds: int, wall_cap: float, on_window, after_window,
           recorder, result: PhaseResult, clock: _GCClock) -> None:
    perf_counter = time.perf_counter
    kernel_ms = calibrate.measure
    result.refs.append(kernel_ms(1))
    started = perf_counter()
    done = 0
    window = 0
    while done < rounds and perf_counter() - started < wall_cap:
        if on_window is not None:
            on_window(window)
        paused_in_window = 0.0
        for _ in range(min(workload.rounds_per_window, rounds - done)):
            for kind, request in workload.next_round():
                result.attempted += 1
                workload.before(kind, request)
                span = -1
                if recorder is not None and recorder.on:
                    recorder.request += 1
                    span = recorder.begin("request." + kind)
                collected = clock.total
                t0 = perf_counter()
                try:
                    output = workload.operate(kind, request)
                except Exception:  # noqa: BLE001 - counted and reported
                    result.failures.append(traceback.format_exc(limit=3))
                    continue
                finally:
                    if span >= 0:
                        recorder.end(span)
                elapsed = perf_counter() - t0
                paused = clock.total - collected
                paused_in_window += paused
                tuples = workload.after(kind, request, output)
                result.samples.append(Sample(kind, elapsed - paused,
                                             window, tuples))
            done += 1
        if after_window is not None:
            after_window(window)
        result.gc_seconds.append(paused_in_window)
        window += 1
        result.refs.append(kernel_ms(1))
    result.windows = window


def summarize(phase: PhaseResult) -> dict:
    """Scaled and raw end-to-end figures of a timed phase."""
    factors = phase.factors()
    out: dict = {"raw": {}, "samples": {}, "tail_percentile": {}}
    busy_raw = sum(s.seconds for s in phase.samples) \
        + sum(phase.gc_seconds)
    busy_scaled = sum(s.seconds * factors[s.window] for s in phase.samples) \
        + sum(g * f for g, f in zip(phase.gc_seconds, factors))
    tuples = sum(s.tuples for s in phase.samples)
    ops = len(phase.samples)
    out["throughput_ops_s"] = ops / busy_scaled
    out["raw"]["throughput_ops_s"] = ops / busy_raw
    out["tuples_per_s"] = tuples / busy_scaled
    out["raw"]["tuples_per_s"] = tuples / busy_raw
    out["samples"]["throughput_ops_s"] = ops
    out["samples"]["tuples_per_s"] = tuples
    for kind in ("read", "write"):
        mine = [s for s in phase.samples if s.kind == kind]
        scaled = [s.seconds * factors[s.window] * 1000.0 for s in mine]
        raw = [s.seconds * 1000.0 for s in mine]
        tail = tail_quantile(len(mine))
        for name, q in ((f"{kind}_p50_ms", 50), (f"{kind}_p99_ms", tail)):
            out[name] = percentile(scaled, q)
            out["raw"][name] = percentile(raw, q)
            out["samples"][name] = len(mine)
        out["tail_percentile"][kind] = tail
    out["gc_s"] = sum(g * f for g, f in zip(phase.gc_seconds, factors))
    out["busy_s"] = busy_scaled
    return out
