"""Self-tests of the benchmark.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layertrace  # noqa: E402
import loop  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _run(*args, cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def _units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def test_same_seed_gives_same_inputs():
    assert workloads.syscall_inputs(7) == workloads.syscall_inputs(7)
    assert workloads.syscall_inputs(7) != workloads.syscall_inputs(8)
    first = workloads.FaultCampaignWorkload(7)
    try:
        plan = first.plan
    finally:
        first.close()
    second = workloads.FaultCampaignWorkload(7)
    try:
        assert second.plan == plan
    finally:
        second.close()


def test_every_batch_issues_all_ten_syscalls():
    from repro.workloads.lmbench import LMBENCH_BENCHMARKS

    batches, sequence = workloads.syscall_inputs(3)
    for batch in batches:
        assert sorted(name for name, _ in batch) == sorted(LMBENCH_BENCHMARKS)
        assert {fd for _, fd in batch} <= set(workloads.BATCH_FDS)
    assert set(sequence) <= set(range(workloads.BATCHES))


def test_pinned_digest_matches_reference():
    batches, sequence = workloads.syscall_inputs(1)
    expected = workloads.syscall_reference(batches)
    digest = workloads.syscall_digest(batches, sequence, expected)
    assert workloads.load_pinned()["syscalls"]["1"] == digest
    pinned = workloads.load_pinned()["fault_campaign"]["1"]
    assert pinned == workloads.campaign_reference_digest(1)
    assert set(workloads.load_pinned()["fault_campaign"]) == {
        str(seed) for seed in workloads.PINNED_SEEDS
    }


def test_corrupted_syscall_result_raises_fail_rate():
    workload = workloads.SyscallWorkload(2)
    try:
        clean = loop.run_loop(workload, max_ops=3)
        assert clean.failed == 0
        batch = workload.sequence[3]
        cycles, instructions, x0 = workload.expected[batch]
        workload.expected[batch] = (cycles + 1, instructions, x0)
        corrupted = loop.run_loop(workload, max_ops=4)
        assert corrupted.failed >= 1
        workload.digest = "0" * 64
        assert not workload.finish()
    finally:
        workload.close()


def test_corrupted_campaign_result_fails_its_check():
    workload = workloads.FaultCampaignWorkload(4)
    try:
        site, matrix, retired = workload.op(0)
        assert workload.check(0, (site, matrix, retired)) == retired
        matrix.results[0].outcome = "escaped"
        assert workload.check(0, (site, matrix, retired)) is None
    finally:
        workload.close()


def test_changed_campaign_instruction_count_fails_the_run():
    workload = workloads.FaultCampaignWorkload(4)
    try:
        real_op = workload.op

        def op(index):
            site, matrix, retired = real_op(index)
            return site, matrix, retired + (index == 3)

        workload.op = op
        result = loop.run_loop(workload, max_ops=workloads.PINNED_TRIALS)
        assert result.failed == 1
        assert not workload.finish()
    finally:
        workload.close()


def test_short_campaign_run_completes_the_pinned_prefix():
    workload = workloads.FaultCampaignWorkload(4)
    try:
        assert loop.run_loop(workload, max_ops=2).failed == 0
        assert workload.finish()
        assert len(workload.prefix) == workloads.PINNED_TRIALS
    finally:
        workload.close()


def test_observed_workload_checks_conservation():
    workload = workloads.ObservedSyscallWorkload(5)
    try:
        assert workload.conserved()
        workload.profiler.exclusive["__bogus__"] = 1
        assert workload.check(0, workload.op(0)) is None
    finally:
        workload.close()


def test_traced_self_times_sum_to_traced_wall():
    result, finished, metrics, detail = run.measure_traced("syscalls", 6)
    assert finished and result.failed == 0
    busy = detail["raw_traced_busy_s"]
    assert detail["raw_attributed_s"] == pytest.approx(busy, rel=0.02)
    assert metrics["bench.unattributed_s"]["value"] >= 0
    assert metrics["trace.events"]["value"] == 0
    assert metrics["arch.cpu.steps"]["value"] > 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_prints_every_end_to_end_metric(workload):
    completed = _run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    detail = json.loads(completed.stdout.splitlines()[-2].removeprefix("detail: "))
    assert detail["pinned_seed"]
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == _units(SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    completed = _run(
        "--workload", "fault_campaign", "--seed", "1", "--seconds", "2", "--trace", "1"
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["correct"]
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == _units(SPEC["per_layer"]) == dict(layertrace.METRICS)
    metrics = result["metrics"]
    assert metrics["kernel.boots"]["value"] == metrics["inject.trials"]["value"] > 0


def test_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    completed = _run(
        "--workload", "syscalls", "--seed", "1", "--seconds", "1", cwd=str(tmp_path)
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_benchmark_avoids_cache_switches():
    banned = ("hotpath", "REPRO_DISABLE_CACHES", "decode_stats", "PACCacheStats", "memo_stats")
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            with open(os.path.join(BENCH, name)) as handle:
                source = handle.read()
            assert not [word for word in banned if word in source], name
