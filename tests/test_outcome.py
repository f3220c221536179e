"""Tests for the outcome model shared by attacks and fault injection.

One record (``Outcome``), one classifier (``classify``), one matrix
(``Matrix``) and one renderer (``pivot_table``) serve both the E6 attack
matrix and the E17 injection matrix.  The golden tables below are the
text both experiments rendered before the two frameworks were merged.
"""

import json

import pytest

from repro.attacks import (
    OracleProbeAttack,
    RodataWriteAttack,
    RopInjectionAttack,
)
from repro.errors import KernelPanic, ReproError
from repro.inject import InjectionCampaign
from repro.inject.invariants import InvariantViolation
from repro.inject.outcome import Matrix, Outcome, classify
from repro.kernel.fault import TaskKilled

E6_TABLE = "\n".join((
    "Section 6.2 — security evaluation",
    "=================================",
    "attack                  none       backward   full     ",
    "-------------------------------------------------------",
    "rop-injection           succeeded  detected   detected ",
    "replay-cross-function   succeeded  detected   detected ",
    "replay-same-function    succeeded  succeeded  succeeded",
    "fnptr-overwrite         succeeded  succeeded  detected ",
    "jop-gadget              succeeded  succeeded  detected ",
    "ops-table-swap          succeeded  succeeded  detected ",
    "rodata-fops-write       blocked    blocked    blocked  ",
    "cred-pointer-swap       succeeded  succeeded  detected ",
    "pac-brute-force         succeeded  succeeded  detected ",
    "xom-key-read            succeeded  blocked    blocked  ",
    "module-mrs-keys         blocked    blocked    blocked  ",
    "sctlr-disable           blocked    blocked    blocked  ",
    "verification-oracle     succeeded  succeeded  detected ",
    "exception-frame-tamper  succeeded  succeeded  succeeded",
))

E17_TABLE = "\n".join((
    "Fault-injection detection matrix (outcome per profile)",
    "======================================================",
    "site                            none       backward   full     ",
    "---------------------------------------------------------------",
    "canary.linear-overflow          ESCAPED    panic      panic    ",
    "cpu.key-register-corruption     n/a        n/a        fault    ",
    "cpu.sctlr-enable-clear          n/a        n/a        invariant",
    "entry.frame-elr-tamper          invariant  invariant  invariant",
    "entry.frame-spsr-el-escalation  invariant  invariant  invariant",
    "fault.counter-rollback          n/a        n/a        invariant",
    "fault.threshold-tamper          invariant  invariant  invariant",
    "pac.signed-sp-bitflip           n/a        n/a        fault    ",
    "pac.wrong-modifier-resign       n/a        n/a        fault    ",
    "sched.mid-switch-sp-redirect    n/a        n/a        fault    ",
))

#: Every key ``python -m repro inject --json`` wrote before the merge.
INJECT_JSON_KEYS = {"profile", "seed", "invariants", "trials", "summary",
                    "results"}
INJECT_SUMMARY_KEYS = {"injected", "detected", "escaped", "skipped"}
INJECT_RESULT_KEYS = {"site", "trial", "seed", "outcome", "detected_by",
                      "expected", "detail", "evidence"}


class TestClassify:
    @pytest.mark.parametrize(
        "exc, mechanism",
        [
            (TaskKilled("killed"), "fault"),
            (KernelPanic("halted"), "panic"),
            (InvariantViolation("rule", "broken"), "invariant"),
        ],
    )
    def test_maps_kernel_stops_to_mechanisms(self, exc, mechanism):
        def body():
            raise exc

        assert classify(body) == (mechanism, str(exc))

    def test_returns_body_value_when_not_stopped(self):
        assert classify(lambda: ("succeeded", "ok")) == (
            None, ("succeeded", "ok")
        )

    def test_other_errors_propagate(self):
        def body():
            raise ReproError("harness broke")

        with pytest.raises(ReproError, match="harness broke"):
            classify(body)


class TestMatrix:
    def test_counts_treat_succeeded_as_escaped(self):
        matrix = Matrix(
            results=[
                Outcome("a", "succeeded", profile="none"),
                Outcome("a", "detected", profile="full"),
                Outcome("b", "blocked", profile="full"),
                Outcome("c", "skipped", profile="full"),
            ]
        )
        assert (matrix.injected, matrix.detected, matrix.escaped,
                matrix.skipped) == (3, 1, 1, 1)
        assert [r.site for r in matrix.escapes()] == ["a"]

    def test_pivot_keeps_first_seen_order(self):
        rows = [
            Outcome("b", "detected", profile="full"),
            Outcome("a", "detected", profile="none"),
            Outcome("b", "escaped", profile="none"),
        ]
        pivot = Matrix(results=rows).pivot()
        assert list(pivot) == ["b", "a"]
        assert list(pivot["b"]) == ["full", "none"]
        assert pivot["b"]["none"] == [rows[2]]


class TestAttackRows:
    def test_fault_mechanism_recorded(self):
        result = RopInjectionAttack().run("full")
        assert result.outcome == "detected"
        assert result.detected_by == "fault"
        assert (result.site, result.profile) == ("rop-injection", "full")

    def test_panic_mechanism_recorded(self):
        result = OracleProbeAttack().run("full")
        assert result.outcome == "detected"
        assert result.detected_by == "panic"

    def test_verdict_rows_carry_no_mechanism(self):
        result = RodataWriteAttack().run("full")
        assert result.outcome == "blocked"
        assert result.detected_by is None


class TestGoldenTables:
    def test_e6_table_unchanged(self):
        from repro.bench import run_security_matrix

        record = run_security_matrix()
        assert record.reproduced
        (table,) = record.tables
        assert table.render() == E6_TABLE

    def test_e17_table_unchanged(self):
        from repro.bench import run_injection_matrix

        record = run_injection_matrix()
        assert record.reproduced
        (table,) = record.tables
        assert table.render() == E17_TABLE


class TestOneSchema:
    def test_attack_and_injection_dicts_share_keys(self):
        attacks = Matrix(results=[RodataWriteAttack().run("full")]).to_dict()
        injections = InjectionCampaign(
            profile="full", trials=1, sites=["fault.threshold-tamper"]
        ).run().to_dict()
        assert attacks.keys() == injections.keys()
        assert attacks["summary"].keys() == injections["summary"].keys()
        assert (
            attacks["results"][0].keys() == injections["results"][0].keys()
        )

    def test_inject_json_keeps_every_key(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "matrix.json"
        assert main(["inject", "--smoke", "--json", str(path)]) == 0
        capsys.readouterr()
        data = json.loads(path.read_text())
        assert INJECT_JSON_KEYS <= data.keys()
        assert INJECT_SUMMARY_KEYS <= data["summary"].keys()
        assert data["results"]
        for row in data["results"]:
            assert INJECT_RESULT_KEYS <= row.keys()
