"""The perf gate: comparison logic on synthetic reports, plus a smoke
run of the real measurement harness (slow lane)."""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.perfgate import (
    LMBENCH_MIN_SPEEDUP,
    SAMPLES,
    SCHEMA_VERSION,
    _sample,
    compare,
    load_report,
    render_report,
    run_perf,
    write_report,
)


def _synthetic_report(host_score=1_000_000.0):
    def workload(cached, uncached, field="instructions_per_sec"):
        return {
            "throughput_field": field,
            "cached": {
                field: cached,
                "host_score": host_score,
                "cycles_per_iteration": 100.0,
                "instructions": 5000,
                "cache_stats": {},
            },
            "uncached": {
                field: uncached,
                "host_score": host_score,
                "cycles_per_iteration": 100.0,
                "instructions": 5000,
                "cache_stats": {},
            },
            "speedup": cached / uncached,
            "architectural_match": True,
        }

    return {
        "schema": SCHEMA_VERSION,
        "python": "3.11.7",
        "workloads": {
            "lmbench_null_call": workload(300_000.0, 120_000.0),
            "callbench_camouflage": workload(500_000.0, 110_000.0),
            "pac_engine": workload(900_000.0, 90_000.0, "pac_ops_per_sec"),
        },
    }


class TestCompare:
    def test_identical_reports_pass(self):
        report = _synthetic_report()
        assert compare(report, copy.deepcopy(report)) == []

    def test_faster_host_alone_does_not_fail(self):
        # Same simulator, host twice as fast: throughput and host_score
        # both double, so the normalised comparison sees no change.
        baseline = _synthetic_report()
        current = _synthetic_report(host_score=2_000_000.0)
        for entry in current["workloads"].values():
            field = entry["throughput_field"]
            entry["cached"][field] *= 2
            entry["uncached"][field] *= 2
        assert compare(current, baseline) == []

    def test_throughput_regression_fails(self):
        baseline = _synthetic_report()
        current = copy.deepcopy(baseline)
        entry = current["workloads"]["callbench_camouflage"]
        entry["cached"]["instructions_per_sec"] *= 0.5  # -50% > 25% band
        failures = compare(current, baseline)
        assert len(failures) == 1
        assert "callbench_camouflage" in failures[0]
        assert "throughput regressed" in failures[0]

    def test_regression_within_tolerance_passes(self):
        baseline = _synthetic_report()
        current = copy.deepcopy(baseline)
        entry = current["workloads"]["callbench_camouflage"]
        entry["cached"]["instructions_per_sec"] *= 0.80  # inside 25%
        entry["speedup"] *= 0.80
        assert compare(current, baseline) == []

    def test_speedup_ratio_regression_fails(self):
        baseline = _synthetic_report()
        current = copy.deepcopy(baseline)
        entry = current["workloads"]["pac_engine"]
        # Cached throughput holds, but the uncached path got faster --
        # i.e. the caches stopped buying anything.  Ratio gate trips.
        entry["speedup"] = entry["speedup"] * 0.5
        failures = compare(current, baseline)
        assert any("speedup regressed" in failure for failure in failures)

    def test_lmbench_speedup_floor_is_absolute(self):
        # Even a baseline that itself sits under the floor cannot excuse
        # the current run: the 2x criterion is from the issue, not
        # relative to history.
        baseline = _synthetic_report()
        current = copy.deepcopy(baseline)
        entry = current["workloads"]["lmbench_null_call"]
        entry["speedup"] = LMBENCH_MIN_SPEEDUP - 0.1
        baseline["workloads"]["lmbench_null_call"]["speedup"] = 1.0
        failures = compare(current, baseline)
        assert any("acceptance floor" in failure for failure in failures)

    def test_architectural_mismatch_fails(self):
        baseline = _synthetic_report()
        current = copy.deepcopy(baseline)
        current["workloads"]["lmbench_null_call"][
            "architectural_match"
        ] = False
        failures = compare(current, baseline)
        assert any("disagree architecturally" in f for f in failures)

    def test_workload_missing_from_baseline_fails(self):
        baseline = _synthetic_report()
        del baseline["workloads"]["pac_engine"]
        failures = compare(_synthetic_report(), baseline)
        assert failures == ["pac_engine: missing from baseline"]

    def test_baseline_of_another_schema_fails(self):
        baseline = _synthetic_report()
        baseline["schema"] = SCHEMA_VERSION - 1
        failures = compare(_synthetic_report(), baseline)
        assert len(failures) == 1
        assert "regenerate the baseline" in failures[0]

    def test_observer_overhead_over_budget_fails(self):
        baseline = _synthetic_report()
        baseline["observer"] = {
            "host_overhead": 2.0,
            "architectural_match": True,
            "conserved": True,
        }
        current = copy.deepcopy(baseline)
        current["observer"]["host_overhead"] = 2.4  # inside 2.0 x 1.25
        assert compare(current, baseline) == []
        current["observer"]["host_overhead"] = 2.6  # over 2.5x
        failures = compare(current, baseline)
        assert len(failures) == 1
        assert "over its budget 2.50x" in failures[0]

    def test_wider_tolerance_accepts_more(self):
        baseline = _synthetic_report()
        current = copy.deepcopy(baseline)
        entry = current["workloads"]["callbench_camouflage"]
        entry["cached"]["instructions_per_sec"] *= 0.6
        entry["speedup"] *= 0.6
        assert compare(current, baseline) != []
        assert compare(current, baseline, tolerance=0.5) == []


class TestSampling:
    def test_entry_is_the_median_normalised_run(self, monkeypatch):
        import repro.bench.perfgate as perfgate

        # Calibration scores before the first run and after each run;
        # the host doubles its speed halfway through.
        scores = iter([1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0])
        monkeypatch.setattr(perfgate, "_calibrate", lambda: next(scores))
        # The first value feeds the discarded warm-up run.
        rates = iter([100.0, 1.0, 9.0, 3.0, 10.5, 4.0, 16.0, 12.0])
        sizes = []

        def measure(size):
            sizes.append(size)
            return {"rate": next(rates), "size": size}

        median, runs = _sample(measure, 50, 5, "rate")
        assert SAMPLES == 7
        assert sizes == [5] + [50] * SAMPLES
        assert [run["host_score"] for run in runs] == [
            1.0, 1.0, 1.0, 1.5, 2.0, 2.0, 2.0,
        ]
        # Normalised: 1, 9, 3, 7, 2, 8, 6 -> median 6 (the last run).
        assert median["rate"] == 12.0
        assert median["samples"] == {
            "n": SAMPLES, "median": 6.0, "min": 1.0, "max": 9.0,
        }


class TestPersistence:
    def test_write_load_round_trip(self, tmp_path):
        report = _synthetic_report()
        path = tmp_path / "BENCH_perf.json"
        write_report(report, path)
        assert load_report(path) == report
        # Stable serialisation: keys sorted, trailing newline.
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == report

    def test_render_report_lists_all_workloads(self):
        rendered = render_report(_synthetic_report())
        for name in ("lmbench_null_call", "callbench_camouflage",
                     "pac_engine"):
            assert name in rendered
        assert "host_score" in rendered


class TestCommittedBaseline:
    def test_baseline_is_well_formed(self):
        import os

        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_perf.json",
        )
        baseline = load_report(path)
        assert baseline["schema"] == SCHEMA_VERSION
        for name in ("lmbench_null_call", "callbench_camouflage",
                     "pac_engine"):
            entry = baseline["workloads"][name]
            assert entry["architectural_match"]
            assert entry["speedup"] > 1.0
        assert (
            baseline["workloads"]["lmbench_null_call"]["speedup"]
            >= LMBENCH_MIN_SPEEDUP
        )


@pytest.mark.slow
class TestRunPerfSmoke:
    def test_small_run_matches_architecturally(self):
        report = run_perf(iterations=12, pac_operations=200)
        assert set(report["workloads"]) == {
            "lmbench_null_call", "lmbench_profiled",
            "callbench_camouflage", "pac_engine",
        }
        for entry in report["workloads"].values():
            assert entry["architectural_match"]
            assert entry["cached"]["wall_seconds"] > 0
            for side in ("cached", "uncached"):
                samples = entry[side]["samples"]
                assert samples["n"] == SAMPLES
                assert samples["min"] <= samples["median"] <= samples["max"]
                median_run = entry[side]
                assert samples["median"] == (
                    median_run[entry["throughput_field"]]
                    / median_run["host_score"]
                )
        # The profiler changes host throughput, never simulated state.
        assert report["observer"]["architectural_match"]
        assert report["observer"]["conserved"]
        # A tiny run proves invisibility, not throughput; the committed
        # baseline (full-size, CI-gated) carries the >=2x criterion, so
        # only the absolute-floor check may trip against itself here.
        failures = [
            failure
            for failure in compare(report, report)
            if "acceptance floor" not in failure
        ]
        assert failures == []
