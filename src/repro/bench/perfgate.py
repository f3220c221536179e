"""Perf gate: host-side simulator throughput on pinned workloads.

The experiment runners measure *simulated* cycles — numbers that must
never change when the host-side caches (:mod:`repro.hotpath`) are toggled.
This module measures the other axis: how fast the simulator itself runs,
as instructions/second, syscalls/second and PAC-ops/second, on three
pinned workloads:

* ``lmbench_null_call`` — the E2 syscall round-trip loop on a fully
  booted ``full``-profile system (the paper's Figure 3 hot path, and
  the workload the ≥2x cache-speedup acceptance criterion is pinned to);
* ``callbench_camouflage`` — the E1 instrumented-call loop (Figure 2);
* ``pac_engine`` — a bare :class:`~repro.arch.pac.PACEngine` sign/auth
  loop with the reuse pattern kernel pointers exhibit.

Each workload is measured on two sides — caches enabled, then
force-disabled via :func:`repro.hotpath.disabled_caches` — with
:data:`SAMPLES` timed runs per side after one discarded warm-up run.
A side's entry is its median run by normalised throughput (see
below), plus the median, min and max normalised throughput of all its
samples (``samples``); one sample of a sub-second run is mostly host
noise.  The report records both sides, the ratio of their normalised
medians (``speedup``), the decode-cache or cipher-memo counters, and
whether every sample of both sides produced the same simulated results
(``architectural_match``; the gate hard-fails if they ever diverge).

**Gating.**  Absolute throughput is a property of the host, so the
committed baseline normalises it by a ``host_score`` — the mean speed
of a fixed pure-Python calibration chunk timed right before and right
after each run on the same machine.  The gate compares medians of the
normalised throughput; it fails when

* any workload's normalised cached throughput regresses more than the
  tolerance (default 25%) against the baseline,
* any workload's cache speedup ratio regresses more than the tolerance,
* the lmbench speedup falls under :data:`LMBENCH_MIN_SPEEDUP` (2x),
* the profiler's observer cost (``observer.host_overhead``) grows past
  its baseline by more than the tolerance, or
* a cached run stops being architecturally identical to the uncached one.

Run via ``python -m repro perf`` (see ``--help``); CI keeps
``BENCH_perf.json`` as the committed baseline and uploads the fresh
report as a workflow artifact.
"""

from __future__ import annotations

import gc
import json
import platform
import time

from repro import hotpath
from repro.bench.harness import TextTable

__all__ = [
    "SCHEMA_VERSION",
    "SAMPLES",
    "TOLERANCE",
    "LMBENCH_MIN_SPEEDUP",
    "DEFAULT_BASELINE",
    "run_perf",
    "compare",
    "load_report",
    "write_report",
    "render_report",
]

SCHEMA_VERSION = 2

#: Allowed regression band for the gate comparisons.
TOLERANCE = 0.25

#: Acceptance floor: caches must at least double E2 lmbench throughput.
LMBENCH_MIN_SPEEDUP = 2.0

DEFAULT_BASELINE = "BENCH_perf.json"

#: Timed runs per workload and side; the gate uses their median.
SAMPLES = 7

#: Iterations of one calibration chunk (fixed: the score is loops/sec).
_CALIBRATION_LOOPS = 20_000


def _calibrate():
    """Host-speed score: a fixed pure-Python chunk, in loops/sec.

    Interpreter-bound work that allocates and frees small lists, tuples
    and dicts, as the simulator does, with the cyclic collector paused.
    A shared host's speed drifts by tens of percent within seconds, so
    :func:`_sample` brackets every timed run with two chunks; a
    throughput divided by their mean is comparable across hosts and
    across moments on one host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = {}
        start = time.perf_counter()
        for index in range(_CALIBRATION_LOOPS):
            table[index & 0x7F] = [(index, index + 1), {"k": index}]
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return _CALIBRATION_LOOPS / elapsed


def _normalized(side, field):
    """A run's throughput per unit of its ``host_score``."""
    return side[field] / side["host_score"]


# -- workload measurements ----------------------------------------------------


def _measure_lmbench(iterations):
    from repro.workloads.lmbench import _measure_one, build_lmbench_system

    system = build_lmbench_system("full")
    system.map_user_stack()
    cpu = system.cpu
    retired_before = cpu.instructions_retired
    start = time.perf_counter()
    cycles_per_iteration = _measure_one(system, "null_call", iterations)
    elapsed = time.perf_counter() - start
    instructions = cpu.instructions_retired - retired_before
    return {
        "iterations": iterations,
        "wall_seconds": elapsed,
        "instructions": instructions,
        "instructions_per_sec": instructions / elapsed,
        "syscalls_per_sec": iterations / elapsed,
        "cycles_per_iteration": cycles_per_iteration,
        "cache_stats": {"decode": cpu.decode_stats.to_dict()},
    }


def _measure_callbench(iterations):
    from repro.workloads.callbench import _prepare, _run_prepared

    cpu, program = _prepare("camouflage", iterations)
    retired_before = cpu.instructions_retired
    start = time.perf_counter()
    cycles_per_call = _run_prepared(cpu, program, iterations)
    elapsed = time.perf_counter() - start
    instructions = cpu.instructions_retired - retired_before
    return {
        "iterations": iterations,
        "wall_seconds": elapsed,
        "instructions": instructions,
        "instructions_per_sec": instructions / elapsed,
        "calls_per_sec": iterations / elapsed,
        "cycles_per_iteration": cycles_per_call,
        "cache_stats": {"decode": cpu.decode_stats.to_dict()},
    }


def _measure_lmbench_profiled(iterations):
    """The lmbench workload with the function-graph profiler attached.

    Pinned alongside the detached run so the gate tracks the *observer
    cost* of profiling: host throughput may drop (every retired
    instruction runs the per-instruction hooks), but the architectural fields
    must stay identical to ``lmbench_null_call`` — attaching a profiler
    never changes a simulated outcome.
    """
    from repro.observe import ProfileSession
    from repro.workloads.lmbench import _measure_one, build_lmbench_system

    system = build_lmbench_system("full")
    system.map_user_stack()
    cpu = system.cpu
    retired_before = cpu.instructions_retired
    start = time.perf_counter()
    session = ProfileSession(system, capacity=65536)
    with session as profiler:
        cycles_per_iteration = _measure_one(system, "null_call", iterations)
    elapsed = time.perf_counter() - start
    instructions = cpu.instructions_retired - retired_before
    retired = session.tracer.stats.get("insn_retire")
    return {
        "iterations": iterations,
        "wall_seconds": elapsed,
        "instructions": instructions,
        "instructions_per_sec": instructions / elapsed,
        "syscalls_per_sec": iterations / elapsed,
        "cycles_per_iteration": cycles_per_iteration,
        "profiled_symbols": len(profiler.exclusive),
        "conserved": bool(
            retired is not None and profiler.total_cycles == retired.total
        ),
        "cache_stats": {"decode": cpu.decode_stats.to_dict()},
    }


def _measure_pac_engine(operations):
    from repro.arch.pac import PACEngine
    from repro.arch.registers import PAuthKey

    engine = PACEngine()
    key = PAuthKey(lo=0x0123_4567_89AB_CDEF, hi=0xFEDC_BA98_7654_3210)
    base = 0xFFFF_0000_0801_0000
    modifiers = tuple(0x1000 + 0x40 * index for index in range(16))
    checksum = 0
    start = time.perf_counter()
    for index in range(operations):
        pointer = base + 8 * (index % 64)
        modifier = modifiers[index % len(modifiers)]
        signed = engine.add_pac(pointer, modifier, key)
        result = engine.auth_pac(signed, modifier, key)
        checksum ^= result.pointer
    elapsed = time.perf_counter() - start
    pac_ops = 2 * operations  # one sign + one authenticate per loop
    memo = engine._cipher(key).memo_stats
    return {
        "iterations": operations,
        "wall_seconds": elapsed,
        "pac_ops": pac_ops,
        "pac_ops_per_sec": pac_ops / elapsed,
        "checksum": checksum,
        "cache_stats": {"cipher": memo.to_dict()},
    }


_WORKLOADS = (
    ("lmbench_null_call", _measure_lmbench, "instructions_per_sec"),
    ("lmbench_profiled", _measure_lmbench_profiled, "instructions_per_sec"),
    ("callbench_camouflage", _measure_callbench, "instructions_per_sec"),
    ("pac_engine", _measure_pac_engine, "pac_ops_per_sec"),
)

#: Fields that must be bit-identical between cached and uncached runs —
#: the caches are host-side only, never architecturally visible.
_ARCH_FIELDS = ("cycles_per_iteration", "instructions", "checksum")


def _sample(measure, size, warmup, field):
    """Warm up once, then time :data:`SAMPLES` runs of one side.

    Calibration chunks run before the first run and after every run;
    a run's ``host_score`` is the mean of the two around it.  Returns
    the run with the median normalised throughput, extended with the
    ``samples`` summary (n, median, min, max of the normalised
    throughput), and the list of all timed runs.
    """
    measure(warmup)  # discard: excludes import/cold-start effects
    runs = []
    score = _calibrate()
    for _ in range(SAMPLES):
        run = measure(size)
        after = _calibrate()
        run["host_score"] = (score + after) / 2
        score = after
        runs.append(run)
    ordered = sorted(runs, key=lambda run: _normalized(run, field))
    median = dict(ordered[len(ordered) // 2])
    median["samples"] = {
        "n": len(runs),
        "median": _normalized(median, field),
        "min": _normalized(ordered[0], field),
        "max": _normalized(ordered[-1], field),
    }
    return median, runs


def run_perf(iterations=150, pac_operations=3000):
    """Measure every pinned workload cached and uncached; full report."""
    sizes = {
        "lmbench_null_call": iterations,
        "lmbench_profiled": iterations,
        "callbench_camouflage": iterations,
        "pac_engine": pac_operations,
    }
    report = {
        "schema": SCHEMA_VERSION,
        "python": platform.python_version(),
        "workloads": {},
    }
    for name, measure, throughput_field in _WORKLOADS:
        warmup = max(10, sizes[name] // 10)
        cached, cached_runs = _sample(
            measure, sizes[name], warmup, throughput_field
        )
        with hotpath.disabled_caches():
            uncached, uncached_runs = _sample(
                measure, sizes[name], warmup, throughput_field
            )
        matches = all(
            run.get(field) == cached.get(field)
            for run in cached_runs + uncached_runs
            for field in _ARCH_FIELDS
            if field in cached or field in run
        )
        report["workloads"][name] = {
            "throughput_field": throughput_field,
            "cached": cached,
            "uncached": uncached,
            "speedup": (
                cached["samples"]["median"] / uncached["samples"]["median"]
            ),
            "architectural_match": matches,
        }
    detached = report["workloads"].get("lmbench_null_call")
    attached = report["workloads"].get("lmbench_profiled")
    if detached is not None and attached is not None:
        # The observer-cost record the gate tracks across revisions:
        # host slowdown from the attached profiler, and the hard
        # invariant that the simulated cycle count did not move.
        report["observer"] = {
            "attached_instructions_per_sec": attached["cached"][
                "instructions_per_sec"
            ],
            "detached_instructions_per_sec": detached["cached"][
                "instructions_per_sec"
            ],
            "host_overhead": (
                detached["cached"]["samples"]["median"]
                / attached["cached"]["samples"]["median"]
            ),
            "architectural_match": (
                attached["cached"]["cycles_per_iteration"]
                == detached["cached"]["cycles_per_iteration"]
            ),
            "conserved": attached["cached"]["conserved"],
        }
    return report


# -- persistence --------------------------------------------------------------


def write_report(report, path):
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_report(path):
    with open(path) as handle:
        return json.load(handle)


# -- the gate -----------------------------------------------------------------


def compare(current, baseline, tolerance=TOLERANCE):
    """Gate the current report against a baseline; list of failures.

    An empty list means the gate passes.  Throughputs are compared
    normalised by each median run's own ``host_score``, so a faster or
    slower runner — or a host that slowed down mid-run — does not
    masquerade as a simulator change.
    """
    if baseline.get("schema") != current.get("schema"):
        return [
            f"baseline schema {baseline.get('schema')} differs from "
            f"{current.get('schema')}: regenerate the baseline"
        ]
    failures = []
    floor = 1.0 - tolerance
    for name, entry in current["workloads"].items():
        if not entry["architectural_match"]:
            failures.append(
                f"{name}: cached and uncached runs disagree architecturally"
            )
        base_entry = baseline.get("workloads", {}).get(name)
        if base_entry is None:
            failures.append(f"{name}: missing from baseline")
            continue
        field = entry["throughput_field"]
        normalized = _normalized(entry["cached"], field)
        base_normalized = _normalized(base_entry["cached"], field)
        if normalized < base_normalized * floor:
            failures.append(
                f"{name}: normalised throughput regressed "
                f"{100 * (1 - normalized / base_normalized):.1f}% "
                f"(tolerance {100 * tolerance:.0f}%)"
            )
        if entry["speedup"] < base_entry["speedup"] * floor:
            failures.append(
                f"{name}: cache speedup regressed to "
                f"{entry['speedup']:.2f}x "
                f"(baseline {base_entry['speedup']:.2f}x, "
                f"tolerance {100 * tolerance:.0f}%)"
            )
    lmbench = current["workloads"].get("lmbench_null_call")
    if lmbench is not None and lmbench["speedup"] < LMBENCH_MIN_SPEEDUP:
        failures.append(
            f"lmbench_null_call: cache speedup {lmbench['speedup']:.2f}x "
            f"under the {LMBENCH_MIN_SPEEDUP:.0f}x acceptance floor"
        )
    observer = current.get("observer")
    if observer is not None:
        if not observer["architectural_match"]:
            failures.append(
                "observer: attaching the profiler changed the simulated "
                "cycles/iteration"
            )
        if not observer["conserved"]:
            failures.append(
                "observer: per-symbol cycles do not sum to the tracer total"
            )
        base_observer = baseline.get("observer")
        if base_observer is not None:
            budget = base_observer["host_overhead"] * (1.0 + tolerance)
            if observer["host_overhead"] > budget:
                failures.append(
                    f"observer: profiler cost "
                    f"{observer['host_overhead']:.2f}x is over its budget "
                    f"{budget:.2f}x (baseline "
                    f"{base_observer['host_overhead']:.2f}x, tolerance "
                    f"{100 * tolerance:.0f}%)"
                )
    return failures


# -- rendering ----------------------------------------------------------------


def render_report(report):
    """Human-readable throughput and cache-counter tables (medians)."""
    table = TextTable(
        "Simulator throughput (host-side)",
        [
            "workload", "metric", "cached", "normalised (min-max)",
            "uncached", "speedup", "arch-ok",
        ],
    )
    for name, entry in sorted(report["workloads"].items()):
        field = entry["throughput_field"]
        samples = entry["cached"].get("samples")
        table.add_row(
            name,
            field,
            f"{entry['cached'][field]:,.0f}",
            (
                f"{samples['median']:.4g} "
                f"({samples['min']:.4g}-{samples['max']:.4g})"
                if samples else "-"
            ),
            f"{entry['uncached'][field]:,.0f}",
            f"{entry['speedup']:.2f}x",
            "yes" if entry["architectural_match"] else "NO",
        )
    caches = TextTable(
        "Cache counters (cached runs)",
        ["workload", "cache", "hits", "misses", "flushes"],
    )
    for name, entry in sorted(report["workloads"].items()):
        for cache_name, stats in sorted(
            entry["cached"].get("cache_stats", {}).items()
        ):
            caches.add_row(
                name,
                cache_name,
                stats.get("hits", 0),
                stats.get("misses", 0),
                stats.get("flushes", "-"),
            )
    lines = [table.render(), "", caches.render()]
    observer = report.get("observer")
    if observer is not None:
        lines.append("")
        lines.append(
            f"profiler observer cost: {observer['host_overhead']:.2f}x "
            f"host slowdown, architectural match: "
            f"{'yes' if observer['architectural_match'] else 'NO'}, "
            f"cycles conserved: "
            f"{'yes' if observer['conserved'] else 'NO'}"
        )
    lines.append("")
    lines.append(
        f"host_score: per timed run, the mean calibration score around it;"
        f" the gate compares medians of throughput / host_score"
        f" (python {report['python']})"
    )
    return "\n".join(lines)
