"""Key-confidentiality attacks (paper Sections 4.1, 6.2.2, 6.2.3).

The kernel keys exist in exactly two places: the immediates of the XOM
key-setter function, and the key system registers.  Each attack targets
one exposure:

* :class:`XomReadAttack` — read the setter page with the kernel-memory
  read primitive (blocked by stage 2: the page has no read permission);
* :class:`ModuleMrsAttack` — load a malicious LKM containing
  ``MRS Xn, APIBKeyLo_EL1`` (rejected by the load-time static scan);
* :class:`SctlrDisableAttack` — an LKM that clears the SCTLR PAuth
  enable bits (rejected by the same scan); plus the run-time variant,
  an MSR executed after the hypervisor lockdown (trapped to EL2);
* :class:`OracleProbeAttack` — use a kernel path as a verification
  oracle by feeding it forged pointers; the failure threshold bounds
  the number of probes, and a user process cannot pre-verify kernel
  PACs because its own keys are per-process random values.
"""

from __future__ import annotations

from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.attacks.base import ArbitraryMemoryPrimitive, Attack
from repro.cfi.keys import KeyRole
from repro.elfimage.image import ImageBuilder
from repro.errors import HypervisorTrap, KernelPanic
from repro.kernel.module import ModuleRejected
from repro.kernel.vfs import open_file

__all__ = [
    "XomReadAttack",
    "ModuleMrsAttack",
    "SctlrDisableAttack",
    "OracleProbeAttack",
]

_MODULE_BASE = 0xFFFF_0000_0C00_0000


class XomReadAttack(Attack):
    """Try to read the key immediates out of the setter page."""

    name = "xom-key-read"

    def exploit(self, profile):
        system = self.build_system(profile)
        if system.key_setter_address is None:
            return (
                "succeeded",
                "no key setter installed (unprotected kernel has no keys)",
            )
        primitive = ArbitraryMemoryPrimitive(system)
        ok, payload = primitive.try_read_u64(system.key_setter_address)
        if ok:
            return (
                "succeeded",
                f"read setter code: {payload:#x} (keys recoverable)",
            )
        return "blocked", payload


def _build_module(name, instructions):
    asm = Assembler(_MODULE_BASE)
    asm.fn(f"{name}_init")
    asm.emit(*instructions)
    asm.emit(isa.Ret())
    builder = ImageBuilder(name, _MODULE_BASE)
    builder.add_text(".text", asm.assemble())
    return builder.build()


class ModuleMrsAttack(Attack):
    """Load an LKM that reads the IB key registers."""

    name = "module-mrs-keys"

    def exploit(self, profile):
        system = self.build_system(profile)
        module = _build_module(
            "evil_mrs",
            [isa.Mrs(0, "APIBKeyLo_EL1"), isa.Mrs(1, "APIBKeyHi_EL1")],
        )
        try:
            system.modules.load(module)
        except ModuleRejected as rejected:
            return "blocked", str(rejected)
        # Loaded: run the init and see whether the keys leaked.
        system.kernel_call(module.symbols["evil_mrs_init"])
        leaked = system.cpu.regs.read(0)
        actual = system.kernel_keys.ib.lo if system.kernel_keys else 0
        if leaked == actual and actual != 0:
            return "succeeded", f"module read IB key: {leaked:#x}"
        return "blocked", "module ran but observed no key material"


class SctlrDisableAttack(Attack):
    """Clear the PAuth enable flags — statically and at run time."""

    name = "sctlr-disable"

    def exploit(self, profile):
        system = self.build_system(profile)
        module = _build_module(
            "evil_sctlr", [isa.Movz(0, 0, 0), isa.Msr("SCTLR_EL1", 0)]
        )
        try:
            system.modules.load(module)
            static_result = "module accepted (scan missed the MSR!)"
            static_blocked = False
        except ModuleRejected as rejected:
            static_result = str(rejected)
            static_blocked = True

        # Run-time variant: a stray MSR executed after lockdown.
        try:
            system.cpu.write_sysreg_checked("SCTLR_EL1", 0)
            runtime_blocked = False
        except HypervisorTrap:
            runtime_blocked = True

        if static_blocked and runtime_blocked:
            return (
                "blocked",
                "static scan rejected the module; run-time MSR trapped to EL2",
            )
        return (
            "succeeded",
            f"static: {static_result}; runtime trapped: {runtime_blocked}",
        )


class OracleProbeAttack(Attack):
    """Probe a kernel path with forged pointers until the panic."""

    name = "verification-oracle"

    def __init__(self, threshold=8):
        self.threshold = threshold

    def exploit(self, profile):
        system = self.build_system(profile, fault_threshold=self.threshold)
        victim = open_file(system, "ext4_fops")
        target = system.kernel_symbol("sockfs_write")
        key_name = system.profile.key_for(KeyRole.DFI)

        if not system.profile.dfi:
            return (
                "succeeded", "nothing to probe: pointers are unauthenticated"
            )
        probes = 0
        for candidate in range(1 << 12):
            forged = system.config.canonicalize(target) | (
                (candidate & 0x7F) << 48
            )
            victim.raw_write("f_ops", forged)
            probes += 1
            pointer, ok = victim.get_protected(
                "f_ops", system.cpu.pac, system.kernel_keys, key_name
            )
            if ok:
                return (
                    "succeeded",
                    f"oracle confirmed a forgery after {probes} probes",
                )
            system.faults.pauth_failures += 1
            if system.faults.pauth_failures >= system.faults.threshold:
                raise KernelPanic(
                    f"oracle shut down by panic after {probes} probes "
                    f"(threshold {system.faults.threshold}); every probe "
                    f"logged",
                    reason="pauth-threshold",
                )
        return "detected", f"no forgery confirmed in {probes} probes"
