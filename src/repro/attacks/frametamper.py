"""Exception-frame tampering (paper Section 8, future work).

The paper's future-work list warns: "Attacks targeting the interrupt
handler could potentially modify or replace kernel register content".
The saved exception frame (pt_regs) lives in plain kernel stack memory,
so the standing arbitrary-write primitive can rewrite the saved *ELR*
while a syscall runs — and ERET then "returns" the user thread to an
attacker-chosen address with attacker-independent register state.  None
of the paper's three deployed defenses covers this: the frame is data,
not a protected pointer field.

The ``frame_mac`` extension (see :mod:`repro.kernel.entry`) closes the
window with a PACGA MAC over the saved control state; this attack
demonstrates both the gap and the fix.
"""

from __future__ import annotations

from repro.arch import isa
from repro.attacks.base import Attack
from repro.cfi.policy import ProtectionProfile
from repro.kernel.entry import FRAME_ELR_OFFSET, S_FRAME_SIZE
from repro.kernel.syscalls import SyscallSpec
from repro.kernel import layout

__all__ = ["FrameTamperAttack", "frame_mac_profile"]

_MARKER = 19  # user-space register the hijack target sets


def frame_mac_profile():
    """The full design plus the frame-MAC future-work extension."""
    return ProtectionProfile(
        name="full+framemac",
        backward_scheme="camouflage",
        forward=True,
        dfi=True,
        frame_mac=True,
    )


class FrameTamperAttack(Attack):
    """Rewrite the saved ELR inside a live syscall frame."""

    name = "exception-frame-tamper"

    def __init__(self):
        self._corrupt = None

    def _build_vuln(self, asm, ctx):
        attack = self

        def bug(cpu):
            if attack._corrupt is not None:
                attack._corrupt(cpu)

        ctx.compiler.function(
            asm, "__heap_overflow", [isa.HostCall(bug, "frame-tamper")],
            leaf=True,
        )

        def body(a):
            a.emit(isa.Bl("__heap_overflow"))

        ctx.compiler.function(asm, "sys_vuln", body)

    def exploit(self, profile):
        system = self.build_system(
            profile, syscalls=[SyscallSpec("vuln", self._build_vuln)]
        )
        task = system.tasks.current

        def corrupt(cpu):
            # The exception frame sits at the top of the current task's
            # kernel stack; the saved ELR is the user return address.
            frame = task.stack_top - S_FRAME_SIZE
            cpu.mmu.write_u64(
                frame + FRAME_ELR_OFFSET,
                layout.USER_TEXT_BASE + 0x100,  # the hijack target
                1,
            )

        self._corrupt = corrupt

        from repro.arch.assembler import Assembler

        user = Assembler(layout.USER_TEXT_BASE)
        user.fn("main")
        user.mov_imm(8, system.syscall_numbers["vuln"])
        user.emit(isa.Svc(0), isa.Hlt())
        # Pad to +0x100 where the attacker-chosen continuation lives.
        emitted = sum(1 for kind, _ in user._items if kind == "insn")
        for _ in range(0x100 // 4 - emitted):
            user.emit(isa.Nop())
        user.label("hijack_target")
        user.emit(isa.Movz(_MARKER, 0x4A4A, 0), isa.Hlt())
        program = user.assemble()
        system.load_user_program(program)
        system.map_user_stack()

        system.run_user(task, program.address_of("main"))
        if system.cpu.regs.read(_MARKER) == 0x4A4A:
            return (
                "succeeded",
                "ERET resumed user execution at the attacker-chosen PC",
            )
        return "detected", "user flow was not redirected"
