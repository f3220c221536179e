"""Operations-table attacks (paper Sections 4.4, 4.5).

Two ways to subvert dispatch through a ``file_operations`` table:

1. **swap the table pointer** — function pointers inside the table are
   read-only, so the attacker repoints ``file->f_ops`` at a fake table
   in writable memory.  This is precisely why the paper extends
   protection to *data* pointers (DFI): with the ``db`` key signing
   ``f_ops``, the injected raw pointer fails authentication inside
   ``vfs_read`` (Listing 4);
2. **write the table itself** — blocked outright: the table lives in
   ``.rodata`` sealed by the hypervisor's stage 2, which is the threat
   model's standing assumption.

A third experiment corrupts ``file->f_cred`` — a sensitive non-ops
data pointer — showing the same machinery covers it (Section 4.5).
"""

from __future__ import annotations

from repro.arch import isa
from repro.attacks.base import (
    ATTACK_SCRATCH,
    ArbitraryMemoryPrimitive,
    Attack,
)
from repro.kernel.vfs import FILE_F_OPS_OFFSET, open_file

__all__ = ["OpsTableSwapAttack", "RodataWriteAttack", "CredPointerAttack"]


def _attack_text(asm, ctx):
    def body(a):
        # Stamp an in-memory marker: proof the attacker function ran
        # inside the kernel (registers are restored on kernel exit).
        a.mov_imm(9, ATTACK_SCRATCH)
        a.mov_imm(10, 0xF00D)
        a.emit(isa.Str(10, 9, 0), isa.Movz(0, 0, 0))

    ctx.compiler.function(asm, "__evil_read", body, leaf=True)


class OpsTableSwapAttack(Attack):
    """Repoint ``f_ops`` at an attacker-built table."""

    name = "ops-table-swap"

    def exploit(self, profile):
        system = self.build_system(profile, text_builders=[_attack_text])
        victim = open_file(system, "ext4_fops")
        system.install_fd(3, victim)
        primitive = ArbitraryMemoryPrimitive(system)

        # Build a fake table in writable heap memory: 'read' slot
        # points at the attacker function.
        fake_table = system.heap.allocate_raw(32)
        primitive.write_u64(fake_table, system.kernel_symbol("__evil_read"))
        primitive.write_u64(victim.address + FILE_F_OPS_OFFSET, fake_table)

        entry = system.load_syscall_program("read", 3)
        system.mmu.write_u64(ATTACK_SCRATCH, 0, 1)
        system.run_user(system.tasks.current, entry)
        if system.mmu.read_u64(ATTACK_SCRATCH, 1) == 0xF00D:
            return (
                "succeeded",
                "read() dispatched through the attacker's fake ops table",
            )
        return "detected", "dispatch did not reach the attacker function"


class RodataWriteAttack(Attack):
    """Try to overwrite a function pointer inside the const table."""

    name = "rodata-fops-write"

    def exploit(self, profile):
        system = self.build_system(profile)
        primitive = ArbitraryMemoryPrimitive(system)
        table = system.kernel_symbol("ext4_fops")
        ok, reason = primitive.try_write_u64(table, 0xDEAD_BEEF)
        if ok:
            return (
                "succeeded",
                "rodata was writable (hypervisor sealing missing!)",
            )
        return "blocked", reason


class CredPointerAttack(Attack):
    """Swap ``f_cred`` for an attacker-forged credential object."""

    name = "cred-pointer-swap"

    def exploit(self, profile):
        system = self.build_system(profile)
        cred = system.heap.allocate_raw(64)
        victim = open_file(system, "ext4_fops", cred_address=cred)
        primitive = ArbitraryMemoryPrimitive(system)
        forged = system.heap.allocate_raw(64)
        primitive.write_u64(forged, 0)  # uid = 0 (root)
        primitive.write_u64(victim.address + 48, forged)  # f_cred slot

        # The kernel consumes the pointer through the protected getter.
        from repro.cfi.keys import KeyRole

        pointer, ok = victim.get_protected(
            "f_cred",
            system.cpu.pac,
            system.kernel_keys,
            system.profile.key_for(KeyRole.DFI),
        )
        if not system.profile.dfi:
            # Unprotected kernel: the raw pointer is simply used.
            return (
                "succeeded",
                f"kernel now uses forged credentials at {pointer:#x}",
            )
        if ok and pointer == forged:
            return (
                "succeeded", "authentication accepted the forged cred pointer"
            )
        return "detected", "f_cred failed authentication (poisoned on use)"
