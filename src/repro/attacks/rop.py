"""ROP: overwriting a saved return address (paper Section 2.1).

The classic kernel stack attack: a memory-corruption bug overwrites the
frame record while a function is live, so its epilogue loads an
attacker-chosen LR and ``RET`` pivots into a gadget.  The simulation
plants the "bug" as a host callback inside a leaf helper called by the
vulnerable (instrumented) syscall handler — at that moment the
handler's frame record sits at ``[SP], [SP+8]``, exactly where a
stack-buffer overflow would reach it.

With any backward-edge scheme active, the injected raw gadget address
fails authentication in the epilogue and the ``RET`` faults on the
poisoned pointer instead of entering the gadget.
"""

from __future__ import annotations

from repro.arch import isa
from repro.attacks.base import ArbitraryMemoryPrimitive, Attack
from repro.kernel.syscalls import SyscallSpec

__all__ = ["RopInjectionAttack"]

_MARKER = 27  # callee-saved register the gadget stamps


class RopInjectionAttack(Attack):
    """Inject a raw gadget address over a signed return address."""

    name = "rop-injection"

    def __init__(self):
        self._corrupt = None  # set per run

    def _build_vuln(self, asm, ctx):
        attack = self

        # The attacker's landing pad: stamp a register, stop the world.
        ctx.compiler.function(
            asm,
            "__rop_gadget",
            [isa.Movz(_MARKER, 0xDEAD, 0), isa.Hlt()],
            leaf=True,
        )

        # The "memcpy with a bug": a leaf whose host hook performs the
        # attacker's out-of-bounds write into the caller's frame record.
        def bug(cpu):
            if attack._corrupt is not None:
                attack._corrupt(cpu)

        ctx.compiler.function(
            asm, "__memcpy_overflow", [isa.HostCall(bug, "stack-smash")],
            leaf=True,
        )

        def body(a):
            a.emit(isa.Bl("__memcpy_overflow"))

        ctx.compiler.function(asm, "sys_vuln", body)

    def exploit(self, profile):
        system = self.build_system(
            profile,
            syscalls=[SyscallSpec("vuln", self._build_vuln)],
        )
        gadget = system.kernel_symbol("__rop_gadget")
        primitive = ArbitraryMemoryPrimitive(system)

        def corrupt(cpu):
            # sys_vuln pushed its frame record at the current SP (the
            # leaf helper did not move SP): saved FP at [sp], LR at
            # [sp+8].
            primitive.write_u64(cpu.regs.sp + 8, gadget)

        self._corrupt = corrupt

        entry = system.load_syscall_program("vuln")
        system.run_user(system.tasks.current, entry)
        if system.cpu.regs.read(_MARKER) == 0xDEAD:
            return (
                "succeeded", "gadget executed via corrupted return address"
            )
        return (
            "detected", "control flow completed without entering the gadget"
        )
