"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload syscalls --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: it sets the
workload up ``SETUP_REPEATS`` times, each time from a cold import of
the program to the end of warm-up, reports the median set-up time, and
then runs ops in a closed loop for ``--seconds`` seconds.  With
``--trace 1`` it runs the first ``TRACE_OPS`` ops untraced and again
under :mod:`layertrace`, and reports the per-layer metrics; that count,
not ``--seconds``, bounds both passes, so the counts repeat exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it describe the run: raw wall time, calibration score, Python
version, sample counts and the failure rate.
"""

import argparse
import gc
import json
import os
import platform
import sys
import time

import layertrace
import loop
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Ops in each pass of a traced run, fixed so that counts repeat.
TRACE_OPS = {"syscalls": 150, "syscalls_observed": 100, "fault_campaign": 150}

#: Units of the metrics :meth:`loop.LoopResult.summary` returns.
LOOP_UNITS = {"ops_per_s": "1/s", "insn_per_s": "1/s", "op_p50_ms": "ms", "op_p99_ms": "ms"}

#: Where a traced run writes its spans, relative to the repository root.
SPAN_DIR = ".perfbench_out"


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(name, seed, seconds):
    """The untraced run: end-to-end metrics plus a description of the run."""
    factory = workloads.WORKLOADS[name]
    raw_setups, setups = [], []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        workloads.purge_program_modules()
        workload, raw, calibrated = loop.calibrated(lambda: factory(seed))
        raw_setups.append(raw)
        setups.append(calibrated)
    result = loop.run_loop(workload, seconds=seconds)
    finished = workload.finish()
    workload.close()
    metrics = {
        name: _metric(value, LOOP_UNITS[name])
        for name, value in result.summary().items()
    }
    metrics["setup_s"] = _metric(loop.median(setups), "s")
    metrics["peak_rss_mb"] = _metric(loop.peak_rss_mb(), "MiB")
    detail = {
        "pinned_seed": workload.pinned_digest() is not None,
        "raw_setup_s": raw_setups,
        "raw_op_busy_s": sum(result.raw),
        "raw_op_cpu_s": sum(result.cpu),
        "op_samples": result.attempted,
    }
    return result, finished, metrics, detail


def measure_traced(name, seed):
    """The traced run: per-layer metrics over ``TRACE_OPS[name]`` ops."""
    factory = workloads.WORKLOADS[name]
    ops = TRACE_OPS[name]
    untraced_workload = factory(seed)
    pinned = untraced_workload.pinned_digest() is not None
    untraced = loop.run_loop(untraced_workload, max_ops=ops)
    finished = untraced_workload.finish()
    untraced_workload.close()

    trace = layertrace.LayerTrace().install()
    try:
        workload = factory(seed)
        trace.reset()
        traced_workload = _TracedOps(workload, trace)
        origin = time.perf_counter()
        traced = loop.run_loop(traced_workload, max_ops=ops, after_op=trace.after_op)
        trace.finish()
        finished = workload.finish() and finished
        workload.close()
    finally:
        trace.uninstall()

    scale = traced.score / loop.REFERENCE_SCORE
    overhead = (sum(traced.calibrated) / traced.attempted) / (
        sum(untraced.calibrated) / untraced.attempted
    )
    metrics = trace.metrics(scale, overhead)
    os.makedirs(os.path.join(ROOT, SPAN_DIR), exist_ok=True)
    span_path = os.path.join(ROOT, SPAN_DIR, f"spans-{name}.jsonl")
    trace.write_spans(span_path, origin)
    detail = {
        "pinned_seed": pinned,
        "untraced_ops": untraced.attempted,
        "traced_ops": traced.attempted,
        "raw_untraced_busy_s": sum(untraced.raw),
        "raw_traced_busy_s": sum(traced.raw),
        "raw_attributed_s": trace.attributed_seconds(),
        "spans_kept": len(trace.spans),
        "span_file": os.path.relpath(span_path, ROOT),
    }
    combined = loop.LoopResult()
    for part in (untraced, traced):
        combined.raw += part.raw
        combined.cpu += part.cpu
        combined.failed += part.failed
        combined.scores += part.scores
    combined.wall = untraced.wall + traced.wall
    return combined, finished, metrics, detail


class _TracedOps:
    """A workload whose ops run as root spans of ``trace``."""

    def __init__(self, workload, trace):
        self.op = trace.traced_op(workload.op)
        self.check = workload.check


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"perfbench: no program source under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)

    if args.trace:
        result, finished, metrics, detail = measure_traced(args.workload, args.seed)
    else:
        result, finished, metrics, detail = measure(args.workload, args.seed, args.seconds)
    # A failed end-of-run check (warm-up, pinned digest, conservation)
    # discredits every op of the run.
    failed = result.failed if finished else result.attempted
    detail.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "python": platform.python_version(),
            "calibration_score": result.score,
            "calibration_min": min(result.scores),
            "calibration_max": max(result.scores),
            "calibration_chunks": len(result.scores),
            "reference_score": loop.REFERENCE_SCORE,
            "raw_wall_s": result.wall,
            "end_checks_passed": finished,
            "fail_rate": failed / result.attempted,
        }
    )
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": result.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
