"""Closed-loop timing with interleaved host-speed calibration.

One client sends the next op as soon as the previous one returns (no
think time).  Between every two ops the loop runs a short, fixed
pure-Python calibration chunk, and scales each op's host time by the
mean score of the chunks just before and just after it.

Host time is this thread's CPU time (``CPU_CLOCK``), for the ops and
the chunks alike.  Wall time would also count the moments the process
or its virtual CPU sits descheduled; on a shared 2-vCPU cloud VM those
stalls add tens of milliseconds to a few ops, at random, and made
``op_p99_ms`` swing by 40-65% between runs.  Wall times are recorded
beside it.

A calibrated time is ``cpu * score / REFERENCE_SCORE``.  On a slower or
busier host the raw time rises and the score falls by the same factor,
so the product stays put.  Shared cloud cores change speed by up to 2x
within a fraction of a second, which is why the chunks sit between
single ops rather than between longer rounds of them.
"""

from __future__ import annotations

import gc
import math
import resource
import time

#: Loops per second of :func:`calibration_chunk` that calibrated times
#: are expressed against.  About what CPython 3.11 reaches on one core
#: of a 2-vCPU x86-64 cloud VM, so calibrated and raw times read close
#: to each other there.
REFERENCE_SCORE = 4_000_000.0

#: Clock of every calibrated time (see the module docstring).
CPU_CLOCK = time.thread_time

#: Iterations per calibration chunk (about 0.4 ms at the reference score).
CHUNK_LOOPS = 1_500

#: Chunks run before, and again after, work timed by :func:`calibrated`.
SETUP_CHUNKS = 5


def calibration_chunk():
    """Run the fixed calibration loop once; return its score in loops/s.

    Interpreter-bound work that allocates and frees small lists, tuples
    and dicts, as the simulator does; this tracks the simulator's speed
    on a busy host better than pure integer arithmetic did.  The cyclic
    garbage collector is paused for the chunk, so the chunk neither
    pays for nor absorbs collections the ops would have run.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = {}
        start = CPU_CLOCK()
        for index in range(CHUNK_LOOPS):
            table[index & 0x7F] = [(index, index + 1), {"k": index}]
        elapsed = CPU_CLOCK() - start
        del table
    finally:
        if enabled:
            gc.enable()
    return CHUNK_LOOPS / elapsed


def calibrated(function):
    """Call ``function()``; return (result, wall seconds, calibrated seconds).

    For work that cannot be split into ops: the scale is the median
    score of ``SETUP_CHUNKS`` chunks before and as many after the call.
    """
    scores = [calibration_chunk() for _ in range(SETUP_CHUNKS)]
    start, cpu_start = time.perf_counter(), CPU_CLOCK()
    result = function()
    cpu = CPU_CLOCK() - cpu_start
    wall = time.perf_counter() - start
    scores += [calibration_chunk() for _ in range(SETUP_CHUNKS)]
    return result, wall, cpu * median(scores) / REFERENCE_SCORE


def percentile(sorted_values, fraction):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of no values")
    return sorted_values[max(1, math.ceil(len(sorted_values) * fraction)) - 1]


def median(values):
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def peak_rss_mb():
    """Peak resident set size of this process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class LoopResult:
    """What one timed loop measured.

    ``raw`` (wall), ``cpu`` and ``calibrated`` hold one time per op, in
    seconds;
    ``work`` sums the per-op work counts the workload reported (retired
    simulated instructions); ``failed`` counts ops whose check failed.
    """

    def __init__(self):
        self.raw = []
        self.cpu = []
        self.calibrated = []
        self.work = 0
        self.failed = 0
        self.scores = []
        self.wall = 0.0

    @property
    def attempted(self):
        return len(self.raw)

    @property
    def score(self):
        return median(self.scores)

    def summary(self):
        """The host-time metrics of this loop (calibrated)."""
        busy = sum(self.calibrated)
        ordered = sorted(self.calibrated)
        return {
            "ops_per_s": self.attempted / busy,
            "insn_per_s": self.work / busy,
            "op_p50_ms": 1e3 * percentile(ordered, 0.50),
            "op_p99_ms": 1e3 * percentile(ordered, 0.99),
        }


def run_loop(workload, seconds=None, max_ops=None, after_op=None):
    """Run ``workload`` ops back to back; return a :class:`LoopResult`.

    Stops at whichever comes first of ``seconds`` of wall time (chunks
    included) and ``max_ops`` ops.  Each op is ``workload.op(i)``,
    timed alone; ``workload.check(i, outcome)`` runs outside the timed
    region and returns the op's work count, or None when the op's
    outputs are wrong.  An op that raises counts as failed.
    ``after_op``, when given, runs after each check, also untimed.
    """
    clock = time.perf_counter
    cpu_clock = CPU_CLOCK
    result = LoopResult()
    start = clock()
    deadline = None if seconds is None else start + seconds
    scores = result.scores
    scores.append(calibration_chunk())
    index = 0
    while True:
        t0, c0 = clock(), cpu_clock()
        try:
            outcome = workload.op(index)
        except Exception as error:  # a failed op is data, not a crash
            outcome = error
        c1, t1 = cpu_clock(), clock()
        scores.append(calibration_chunk())
        cpu = c1 - c0
        result.raw.append(t1 - t0)
        result.cpu.append(cpu)
        result.calibrated.append(cpu * (scores[-2] + scores[-1]) / 2 / REFERENCE_SCORE)
        work = None if isinstance(outcome, Exception) else workload.check(index, outcome)
        if work is None:
            result.failed += 1
        else:
            result.work += work
        if after_op is not None:
            after_op(index)
        index += 1
        if (max_ops is not None and index >= max_ops) or (
            deadline is not None and clock() >= deadline
        ):
            break
    result.wall = clock() - start
    return result
