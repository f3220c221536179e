"""Tests for the attack suite: the security-evaluation matrix.

These assert the paper's Section 6.2 claims attack by attack: what an
unprotected kernel loses, what each protection level stops, and which
residual windows remain.
"""

import pytest

from repro.attacks import (
    BruteForceAttack,
    CredPointerAttack,
    JopGadgetAttack,
    ModuleMrsAttack,
    OpsTableSwapAttack,
    OracleProbeAttack,
    ReplayAttack,
    RodataWriteAttack,
    RopInjectionAttack,
    SctlrDisableAttack,
    WritableFnPtrAttack,
    XomReadAttack,
    cross_thread_replay_accepted,
    expected_guesses,
    success_probability,
)
from repro.inject.outcome import Matrix


class TestRopInjection:
    def test_succeeds_unprotected(self):
        assert RopInjectionAttack().run("none").succeeded

    @pytest.mark.parametrize("profile", ["backward", "full"])
    def test_detected_with_backward_cfi(self, profile):
        result = RopInjectionAttack().run(profile)
        assert result.outcome == "detected"


class TestReplay:
    def test_cross_function_defeats_sp_only(self):
        result = ReplayAttack("cross-function", "sp-only").run("backward")
        assert result.succeeded

    @pytest.mark.parametrize("scheme", ["camouflage", "parts"])
    def test_cross_function_stopped_by_function_binding(self, scheme):
        result = ReplayAttack("cross-function", scheme).run("backward")
        assert result.outcome == "detected"

    @pytest.mark.parametrize("scheme", ["sp-only", "camouflage", "parts"])
    def test_same_function_residual_window(self, scheme):
        # The residual the paper acknowledges in Section 6.2.1.
        result = ReplayAttack("same-function", scheme).run("backward")
        assert result.succeeded

    def test_parts_cross_thread_64k(self):
        assert cross_thread_replay_accepted("parts", 65536)

    def test_parts_cross_thread_4k_safe(self):
        assert not cross_thread_replay_accepted("parts", 4096)

    @pytest.mark.parametrize("stride", [4096, 65536])
    def test_camouflage_cross_thread_safe(self, stride):
        assert not cross_thread_replay_accepted("camouflage", stride)

    def test_sp_only_full_sp_cross_thread_safe(self):
        # Full-SP modifiers don't collide across threads — SP-only's
        # weakness is *within* a thread.
        assert not cross_thread_replay_accepted("sp-only", 65536)


class TestPointerOverwrites:
    @pytest.mark.parametrize(
        "attack_class", [WritableFnPtrAttack, JopGadgetAttack]
    )
    def test_fnptr_attacks_need_forward_cfi(self, attack_class):
        assert attack_class().run("none").succeeded
        assert attack_class().run("backward").succeeded  # not covered
        assert attack_class().run("full").outcome == "detected"

    def test_ops_table_swap_needs_dfi(self):
        assert OpsTableSwapAttack().run("none").succeeded
        assert OpsTableSwapAttack().run("full").outcome == "detected"

    def test_rodata_write_always_blocked(self):
        for profile in ("none", "full"):
            assert RodataWriteAttack().run(profile).outcome == "blocked"

    def test_cred_pointer_needs_dfi(self):
        assert CredPointerAttack().run("none").succeeded
        assert CredPointerAttack().run("full").outcome == "detected"


class TestBruteForce:
    def test_expected_guesses_15_bits(self):
        assert expected_guesses(15) == 1 << 14

    def test_success_probability_small_with_threshold(self):
        probability = success_probability(8, 15)
        assert probability < 0.001

    def test_threshold_stops_guessing(self):
        result = BruteForceAttack(unlimited=False).run("full")
        assert result.outcome == "detected"
        assert "panicked" in result.detail

    def test_unlimited_guessing_succeeds(self):
        result = BruteForceAttack(unlimited=True).run("full")
        assert result.succeeded

    def test_no_pac_no_guessing_needed(self):
        result = BruteForceAttack().run("none")
        assert result.succeeded
        assert "first write" in result.detail


class TestKeyConfidentiality:
    def test_xom_read_blocked(self):
        assert XomReadAttack().run("full").outcome == "blocked"

    def test_module_mrs_blocked(self):
        assert ModuleMrsAttack().run("full").outcome == "blocked"

    def test_sctlr_blocked(self):
        assert SctlrDisableAttack().run("full").outcome == "blocked"

    def test_oracle_bounded_by_threshold(self):
        result = OracleProbeAttack(threshold=5).run("full")
        assert result.outcome == "detected"
        assert "5" in result.detail


class TestCampaign:
    def test_matrix_shape(self):
        matrix = Matrix(
            results=[
                attack.run(profile)
                for attack in (RopInjectionAttack(), RodataWriteAttack())
                for profile in ("none", "full")
            ]
        )
        pivot = matrix.pivot()
        assert list(pivot) == ["rop-injection", "rodata-fops-write"]
        assert all(list(row) == ["none", "full"] for row in pivot.values())
        (unprotected,) = pivot["rop-injection"]["none"]
        (protected,) = pivot["rop-injection"]["full"]
        assert unprotected.outcome == "succeeded"
        assert protected.outcome == "detected"

    def test_render_contains_profiles(self):
        from repro.bench import run_security_matrix

        (table,) = run_security_matrix(profiles=("none",)).tables
        text = table.render()
        assert "none" in text
        assert "rodata" in text
