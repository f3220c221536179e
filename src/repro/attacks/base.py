"""Attack framework: run exploits against configurable defenses.

Every attack is a scenario with a victim kernel built under a given
:class:`~repro.cfi.policy.ProtectionProfile`.  The attacker model is
the paper's (Section 3.1): full control of user space plus an
arbitrary kernel read/write primitive, but no writes to read-only /
XOM memory (those go through the hypervisor's stage 2 and are denied).

An attack's :meth:`Attack.exploit` either returns a verdict with a
detail string,

* ``succeeded`` — attacker-chosen control flow executed;
* ``blocked`` — the primitive itself was refused (e.g. writing rodata);
* ``detected`` — the attack was foiled without stopping the kernel,

or lets the kernel stop it: a PAuth authentication failure surfacing
as a killed task or a panic.  :meth:`Attack.run` turns either into one
:class:`~repro.inject.outcome.Outcome` row through the same classifier
the fault-injection campaign uses, so a stopped attack is ``detected``
with ``detected_by`` naming the mechanism.
"""

from __future__ import annotations

from repro.errors import PermissionFault
from repro.inject.outcome import Outcome, classify

__all__ = [
    "Attack",
    "ArbitraryMemoryPrimitive",
    "ATTACK_SCRATCH",
]

#: Fixed kernel-memory slot attacks use as an in-memory marker/counter
#: (register markers would be wiped by the kernel-exit GPR restore).
from repro.kernel import layout as _layout

ATTACK_SCRATCH = _layout.KERNEL_PERCPU_BASE + 0xF00


class ArbitraryMemoryPrimitive:
    """The adversary's kernel read/write primitive.

    Reads and writes go through the MMU *at EL1* but must respect
    stage-2 (hypervisor) restrictions — memory corruption bugs run as
    kernel code, and even kernel code cannot write sealed frames.
    """

    def __init__(self, system):
        self.system = system

    def read_u64(self, va):
        return self.system.mmu.read_u64(va, 1)

    def try_read_u64(self, va):
        """Read, returning (ok, value-or-reason)."""
        try:
            return True, self.read_u64(va)
        except PermissionFault as fault:
            return False, str(fault)

    def write_u64(self, va, value):
        self.system.mmu.write_u64(va, value, 1)

    def try_write_u64(self, va, value):
        try:
            self.write_u64(va, value)
            return True, ""
        except PermissionFault as fault:
            return False, str(fault)


class Attack:
    """Base class: build a victim system, then exploit it."""

    name = "abstract"

    def build_system(self, profile, **kwargs):
        """Construct the victim; override to add attack-specific text."""
        from repro.kernel.system import System

        return System(profile=profile, **kwargs)

    def exploit(self, profile):
        """Attack a victim; return ``(outcome, detail)`` or raise."""
        raise NotImplementedError

    def run(self, profile):
        """Run the attack against ``profile`` (a name or a profile)."""
        detected_by, result = classify(lambda: self.exploit(profile))
        outcome, detail = ("detected", result) if detected_by else result
        return Outcome(
            site=self.name,
            outcome=outcome,
            profile=getattr(profile, "name", profile),
            detected_by=detected_by,
            detail=detail,
        )
