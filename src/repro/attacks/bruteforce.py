"""PAC brute forcing and the failure threshold (paper Section 5.4).

With the typical Linux configuration (48-bit VAs, 4 KiB pages, kernel
TBI off) kernel pointers carry a 15-bit PAC — well within reach of an
attacker who can trigger unlimited authentication attempts: a correct
guess is expected after 2^14 tries.  The mitigation is to *panic* the
system after a small number of authentication failures, turning the
brute force from "a few seconds of syscalls" into "crashes the machine
long before success with overwhelming probability".

:class:`BruteForceAttack` actually performs the guessing against a real
QARMA-signed pointer; with the threshold active the expected number of
allowed guesses (k) gives a success probability of about k / 2^15.
"""

from __future__ import annotations

import random

from repro.attacks.base import Attack
from repro.cfi.keys import KeyRole
from repro.errors import KernelPanic
from repro.kernel.vfs import open_file

__all__ = ["BruteForceAttack", "expected_guesses", "success_probability"]


def expected_guesses(pac_bits):
    """Expected tries to hit one of the 2^bits PAC values (≈ 2^(b-1))."""
    return (1 << pac_bits) // 2


def success_probability(threshold, pac_bits):
    """P[success before panic] with ``threshold`` tolerated failures."""
    space = 1 << pac_bits
    p_fail_each = (space - 1) / space
    return 1.0 - p_fail_each ** threshold


class BruteForceAttack(Attack):
    """Guess the PAC of a protected ``f_ops`` pointer by enumeration.

    Each guess plants a candidate signed pointer and asks the kernel to
    authenticate it (via the host-side getter, which performs exactly
    the AUTDB the dispatch path would).  Failures feed the fault
    manager as PAuth failures; the system panics at the threshold.

    Parameters
    ----------
    unlimited:
        Disable the panic threshold to measure the raw guessing cost
        (the "no mitigation" baseline).  Guessing order is randomized
        with a fixed seed for reproducibility.
    """

    name = "pac-brute-force"

    def __init__(self, unlimited=False, seed=1, max_guesses=1 << 16):
        self.unlimited = unlimited
        self.seed = seed
        self.max_guesses = max_guesses

    def exploit(self, profile):
        system = self.build_system(profile)
        if self.unlimited:
            system.faults.panic_on_threshold = False
        victim = open_file(system, "ext4_fops")
        target = system.kernel_symbol("sockfs_write")  # attacker's goal
        key_name = system.profile.key_for(KeyRole.DFI)
        pac_bits = system.config.pac_size(kernel=True)
        bits = system.config.pac_field_bits(kernel=True)

        if not system.profile.dfi:
            victim.raw_write("f_ops", target)
            return (
                "succeeded",
                "no PAC to guess: pointer accepted on the first write",
            )

        rng = random.Random(self.seed)
        candidates = list(range(1 << pac_bits))
        rng.shuffle(candidates)
        guesses = 0
        for candidate in candidates[: self.max_guesses]:
            forged = system.config.canonicalize(target)
            for index, bit in enumerate(bits):
                if (candidate >> index) & 1:
                    forged |= 1 << bit
                else:
                    forged &= ~(1 << bit)
            victim.raw_write("f_ops", forged)
            guesses += 1
            pointer, ok = victim.get_protected(
                "f_ops", system.cpu.pac, system.kernel_keys, key_name
            )
            if ok and pointer == target:
                return (
                    "succeeded",
                    f"PAC guessed after {guesses} attempts "
                    f"(2^{pac_bits} space)",
                )
            # Report the failure the way the kernel would observe it:
            # a fault on the poisoned pointer.
            system.faults.pauth_failures += 1
            if (
                system.faults.panic_on_threshold
                and system.faults.pauth_failures >= system.faults.threshold
            ):
                raise KernelPanic(
                    f"system panicked after {guesses} failed guesses "
                    f"(threshold {system.faults.threshold})",
                    reason="pauth-threshold",
                )
        return "detected", f"gave up after {guesses} guesses"
