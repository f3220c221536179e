"""Replay attacks against backward-edge CFI (Sections 4.2, 6.2.1, 7).

A replayed pointer carries a *valid* PAC — the attacker captured it
from memory earlier — so it defeats any scheme whose modifier repeats
between the capture context and the target context.  Three scenarios:

* **same-function, same-SP** (``variant="same-function"``): a signed
  return address captured in one activation of a function is replayed
  into a later activation at the same SP.  Every modifier scheme built
  from (SP, function) accepts this — the residual window the paper
  acknowledges.
* **cross-function, same-SP** (``variant="cross-function"``): the
  pointer is replayed into a *different* function's frame at the same
  SP.  SP-only accepts it (its modifier ignores the function); the
  Camouflage and PARTS modifiers reject it.
* **cross-thread** (host-level, :func:`cross_thread_replay_accepted`):
  kernel stacks are 4 KiB-aligned and commonly allocated at regular
  strides, so *truncated*-SP modifiers repeat across threads.  PARTS
  keeps only 16 SP bits, which collide whenever two stacks sit a
  multiple of 64 KiB apart (Section 7); Camouflage keeps 32 bits.
"""

from __future__ import annotations

from repro.arch import isa
from repro.arch.registers import PAuthKey
from repro.attacks.base import ATTACK_SCRATCH, Attack
from repro.cfi.modifiers import SCHEMES
from repro.errors import ReproError
from repro.kernel.syscalls import SyscallSpec
from repro.kernel import layout

__all__ = ["ReplayAttack", "cross_thread_replay_accepted"]


def _emit_counter_bump(a):
    """Increment the in-memory replay counter and leave it in x10."""
    a.mov_imm(9, ATTACK_SCRATCH)
    a.emit(
        isa.Ldr(10, 9, 0),
        isa.AddImm(10, 10, 1),
        isa.Str(10, 9, 0),
    )


class ReplayAttack(Attack):
    """In-simulation replay of a correctly signed return address."""

    def __init__(self, variant="cross-function", scheme="camouflage"):
        if variant not in ("same-function", "cross-function"):
            raise ReproError(f"unknown replay variant {variant!r}")
        self.variant = variant
        self.scheme = scheme
        self.name = f"replay-{variant}"
        self._captured = None
        self._phase = 0

    def _build_vuln(self, asm, ctx):
        attack = self
        compiler = ctx.compiler

        def capture_hook(cpu):
            # Steal the live *signed* return address from the caller's
            # frame record (an arbitrary-read, Section 3.1).
            if attack._phase == 0:
                attack._captured = cpu.mmu.read_u64(cpu.regs.sp + 8, 1)
                attack._phase = 1

        def replay_hook(cpu):
            # Splice the captured pointer over this frame's signed
            # return address — once.
            if attack._phase == 1 and attack._captured is not None:
                current = cpu.mmu.read_u64(cpu.regs.sp + 8, 1)
                if current != attack._captured:
                    cpu.mmu.write_u64(cpu.regs.sp + 8, attack._captured, 1)
                    attack._phase = 2

        def capture_or_replay(cpu):
            # Same-function variant: first activation captures, second
            # replays into the new activation's frame.
            capture_hook(cpu)
            replay_hook(cpu)

        compiler.function(
            asm, "__cap_leaf", [isa.HostCall(capture_hook, "capture")],
            leaf=True,
        )
        compiler.function(
            asm, "__rep_leaf", [isa.HostCall(replay_hook, "replay")],
            leaf=True,
        )
        compiler.function(
            asm,
            "__caprep_leaf",
            [isa.HostCall(capture_or_replay, "capture-or-replay")],
            leaf=True,
        )

        def helper_g(a):
            a.emit(isa.Bl("__cap_leaf"))

        compiler.function(asm, "__helper_g", helper_g)

        if self.variant == "same-function":
            # One helper, called twice: the first activation captures
            # its own signed LR, the second activation gets that value
            # replayed over its frame — same function, same SP.
            def helper_f(a):
                a.emit(isa.Bl("__caprep_leaf"))

            compiler.function(asm, "__helper_f", helper_f)

            def body(a):
                a.emit(isa.Bl("__helper_f"))
                _emit_counter_bump(a)
                a.emit(isa.SubsImm(31, 10, 2))
                a.emit(isa.BCond("ge", "__vuln_out"))
                a.emit(isa.Bl("__helper_f"))
                a.label("__vuln_out")

            compiler.function(asm, "sys_vuln", body)
        else:
            def helper_f(a):
                a.emit(isa.Bl("__rep_leaf"))

            compiler.function(asm, "__helper_f", helper_f)

            def body(a):
                # __helper_g and __helper_f run at the same SP.  The
                # counter after the first call site is the tell: if
                # __helper_f "returns" here, the replay worked.
                a.emit(isa.Bl("__helper_g"))
                _emit_counter_bump(a)
                a.emit(isa.SubsImm(31, 10, 2))
                a.emit(isa.BCond("ge", "__vuln_out"))
                a.emit(isa.Bl("__helper_f"))
                a.label("__vuln_out")

            compiler.function(asm, "sys_vuln", body)

    def exploit(self, profile):
        if isinstance(profile, str):
            from repro.cfi.policy import profile_by_name

            profile = profile_by_name(profile)
        if profile.protects_backward:
            profile.backward_scheme = self.scheme
            profile._scheme = None  # rebuild with the chosen scheme
        system = self.build_system(
            profile, syscalls=[SyscallSpec("vuln", self._build_vuln)]
        )
        self._phase = 0
        self._captured = None

        entry = system.load_syscall_program("vuln")
        system.mmu.write_u64(ATTACK_SCRATCH, 0, 1)
        system.run_user(system.tasks.current, entry)
        replays = system.mmu.read_u64(ATTACK_SCRATCH, 1)
        scheme_name = profile.backward_scheme or "none"
        if replays >= 2:
            return (
                "succeeded",
                f"[{scheme_name}] signed pointer replayed "
                f"(counter={replays})",
            )
        return (
            "detected",
            f"[{scheme_name}] replay did not redirect control "
            f"(counter={replays})",
        )


def cross_thread_replay_accepted(scheme_name, stack_stride, pac_engine=None):
    """Host-level cross-thread replay check (paper Section 7).

    Signs a return address in thread A's frame and authenticates it
    against thread B's frame modifier, with the two kernel stacks
    ``stack_stride`` bytes apart — same function, same stack depth.
    Returns True when the (real, QARMA-backed) authentication accepts
    the replayed pointer.
    """
    from repro.arch.pac import PACEngine

    engine = pac_engine or PACEngine()
    scheme = SCHEMES[scheme_name]()
    key = PAuthKey(lo=0x1122334455667788, hi=0x99AABBCCDDEEFF00)
    function = 0xFFFF_0000_0801_2340
    return_address = 0xFFFF_0000_0801_4444
    sp_a = layout.KERNEL_STACK_REGION + layout.KERNEL_STACK_SIZE - 0x40
    sp_b = sp_a + stack_stride
    fid = 7
    mod_a = scheme.compute(sp_a, function, function_id=fid)
    mod_b = scheme.compute(sp_b, function, function_id=fid)
    signed = engine.add_pac(return_address, mod_a, key)
    result = engine.auth_pac(signed, mod_b, key)
    return result.ok
