"""Writable function-pointer overwrite (paper Section 4.4).

Lone function pointers — not worth moving into const ops structures —
remain in writable kernel memory (``work_struct.func`` is the model
here).  The attacker's arbitrary write replaces the callback with a
chosen target; the kernel later consumes the pointer via ``run_work``.
With forward-edge CFI the stored pointer is signed and the injected
raw address fails authentication at the consuming ``BLR``.
"""

from __future__ import annotations

from repro.arch import isa
from repro.attacks.base import ArbitraryMemoryPrimitive, Attack
from repro.kernel.workqueue import init_work

__all__ = ["WritableFnPtrAttack", "JopGadgetAttack"]

_MARKER = 27


def _build_payload(asm, ctx):
    """Kernel text for the victim callback and the attacker target."""
    ctx.compiler.function(
        asm, "__benign_callback", [isa.Work(3), isa.Movz(0, 1, 0)], leaf=True
    )
    # The attacker's target: commit_creds(prepare_kernel_cred(0)), in
    # spirit — stamps the marker so the experiment can see it ran.
    ctx.compiler.function(
        asm,
        "__escalate_privileges",
        [isa.Movz(_MARKER, 0xBAD, 0), isa.Movz(0, 0, 0)],
        leaf=True,
    )
    # A mid-function location inside it serves as the JOP gadget.
    ctx.compiler.function(
        asm,
        "__long_function",
        [
            isa.Work(2),
            isa.Nop(),
            isa.Movz(_MARKER, 0xEE, 0),
            isa.Work(2),
        ],
        leaf=True,
    )


class WritableFnPtrAttack(Attack):
    """Replace a work callback with a function-entry target."""

    name = "fnptr-overwrite"
    target_symbol = "__escalate_privileges"
    marker_value = 0xBAD

    def exploit(self, profile):
        system = self.build_system(profile, text_builders=[_build_payload])
        work = init_work(
            system,
            system.heap.allocate(system.registry.type("work_struct")),
            system.kernel_symbol("__benign_callback"),
        )
        primitive = ArbitraryMemoryPrimitive(system)
        target = self._gadget_address(system)
        slot = work.address  # func is at offset 0
        primitive.write_u64(slot, target)

        system.cpu.regs.write(_MARKER, 0)
        system.kernel_call("run_work", args=(work.address,))
        if system.cpu.regs.read(_MARKER) == self.marker_value:
            return "succeeded", f"kernel called attacker pointer {target:#x}"
        return (
            "detected", "callback dispatch did not reach the attacker target"
        )

    def _gadget_address(self, system):
        return system.kernel_symbol(self.target_symbol)


class JopGadgetAttack(WritableFnPtrAttack):
    """Same primitive, but the target is *mid-function* (a JOP gadget).

    Even coarse-grained CFI schemes that only validate function entries
    would miss nothing here — but pointer signing stops any injected
    address, aligned to an entry or not.
    """

    name = "jop-gadget"
    marker_value = 0xEE

    def _gadget_address(self, system):
        # Skip the first instruction of __long_function: a classic
        # gadget landing in the middle of a legitimate function.
        return system.kernel_symbol("__long_function") + 8
