"""Canary-leak bypass: global vs. PACed canaries (related work [26]).

The classic linear-overflow defense stores a guard word between the
locals and the frame record.  Under the paper's threat model the
attacker has arbitrary *read*: the stock design with one global guard
value (``__stack_chk_guard``) is leaked once and bypassed forever —
every subsequent overflow simply rewrites the slot with the leaked
value.  A PACed canary is ``PACGA(SP)`` under the GA key: per-frame,
so a value leaked from one frame fails verification in any other.

The scenario: the attacker first leaks a canary from a *different*
stack frame (helper function at a different SP), then linear-overflows
the victim's buffer — junk over the locals, the leaked canary over the
guard slot, a gadget address over the saved LR.
"""

from __future__ import annotations

from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.arch.cpu import CPU
from repro.arch.registers import PAuthKey
from repro.attacks.base import Attack
from repro.cfi.canary import (
    CanaryKind,
    canary_slot_offset,
    emit_canary_function,
)
from repro.errors import ReproError
from repro.kernel.fault import TaskKilled
from repro.mem.pagetable import Permissions

__all__ = ["CanaryLeakAttack"]

_TEXT = 0xFFFF_0000_0801_0000
_STACK = 0xFFFF_0000_0900_0000
_GUARD_PAGE = 0xFFFF_0000_0A00_0000
_MARKER = 27


class CanaryLeakAttack(Attack):
    """Leak a canary from one frame, replay it over another."""

    def __init__(self, kind=CanaryKind.GLOBAL):
        if kind not in CanaryKind.ALL:
            raise ReproError(f"unknown canary kind {kind!r}")
        self.kind = kind
        self.name = f"canary-leak-replay({kind})"
        self._leaked = None

    def run(self, profile=None):
        """``profile`` is unused: the canary kind is the defense."""
        return super().run(self.kind)

    def exploit(self, _kind):
        cpu = CPU()
        cpu.regs.keys.ga = PAuthKey(0x6A6A, 0x7B7B)
        cpu.mmu.map_range(
            _TEXT, 0x4000, 0x400, Permissions(r_el1=True, x_el1=True)
        )
        cpu.mmu.map_range(_STACK - 0x8000, 0x8000, 0x500,
                          Permissions.kernel_data())
        cpu.mmu.map_range(_GUARD_PAGE, 0x1000, 0x600,
                          Permissions.kernel_data())
        guard_address = _GUARD_PAGE
        cpu.mmu.write_u64(guard_address, 0x1337_C0DE_5EED_F00D, 1)

        attack = self

        def leak(machine_cpu):
            # Arbitrary read of the helper frame's canary slot.
            attack._leaked = machine_cpu.mmu.read_u64(
                machine_cpu.regs.sp + canary_slot_offset(), 1
            )

        def overflow(machine_cpu):
            # Linear overflow: locals, the guard slot (with the leaked
            # value), then the frame record's saved LR.
            sp = machine_cpu.regs.sp
            for offset in range(0, canary_slot_offset(), 8):
                machine_cpu.mmu.write_u64(sp + offset, 0x4141414141414141, 1)
            machine_cpu.mmu.write_u64(
                sp + canary_slot_offset(), attack._leaked or 0, 1
            )
            machine_cpu.mmu.write_u64(sp + 56, attack._gadget, 1)

        def chk_fail(machine_cpu):
            raise TaskKilled("__stack_chk_fail: corrupted stack detected")

        asm = Assembler(_TEXT)
        asm.fn("__gadget")
        asm.emit(isa.Movz(_MARKER, 0xBEEF, 0), isa.Hlt())
        emit_canary_function(
            asm, "helper", self.kind,
            body=lambda a: a.emit(isa.HostCall(leak, "leak")),
            guard_address=guard_address,
            stack_chk_fail=chk_fail,
        )
        emit_canary_function(
            asm, "victim", self.kind,
            body=lambda a: a.emit(isa.HostCall(overflow, "overflow")),
            guard_address=guard_address,
            stack_chk_fail=chk_fail,
        )
        program = asm.assemble()
        cpu.mmu.phys.store_program(
            cpu.mmu.translate(program.base, "x", 1), program
        )
        self._gadget = program.address_of("__gadget")

        # Phase 1: leak from the helper (deeper SP: call through a pad).
        cpu.call(program.address_of("helper"), stack_top=_STACK - 0x200)
        # Phase 2: overflow the victim at a different SP.
        cpu.regs.write(_MARKER, 0)
        cpu.call(program.address_of("victim"), stack_top=_STACK)
        if cpu.regs.read(_MARKER) == 0xBEEF:
            return "succeeded", "leaked canary replayed; gadget executed"
        if self.kind == CanaryKind.NONE:
            return (
                "succeeded", "no canary: overflow silently corrupted the frame"
            )
        return "detected", "return was not redirected"
