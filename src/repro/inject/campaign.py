"""Seeded fault-injection campaigns over a live simulated kernel.

A campaign boots one fresh system per trial, lets the injection point
corrupt live state (signed pointers, key registers, exception frames,
the fault-counting machinery itself), drives the victim workload, and
classifies the outcome with :func:`repro.inject.outcome.classify` into
one :class:`~repro.inject.outcome.Outcome` row:

* ``fault`` — the corruption surfaced as a memory fault and the kernel
  killed the task (the paper's poisoned-pointer detection path);
* ``panic`` — the kernel halted (threshold panic, frame MAC, canary);
* ``invariant`` — the :class:`~repro.inject.invariants.InvariantChecker`
  caught it (event protocol or state sweep);
* ``escaped`` — the corruption survived undetected.  Escapes are the
  product: each one is either a real gap (reported honestly, e.g. the
  Section 8 exception-frame window with invariants disabled) or a bug.

Everything is deterministic: the campaign seed derives one sub-seed per
(site, trial) arithmetically — no ``hash()``, no wall clock — and that
sub-seed feeds both the trial's ``random.Random`` and the booted
system's firmware entropy, so the same seed reproduces the same
detection matrix byte for byte.
"""

from __future__ import annotations

import random

from repro.arch import isa
from repro.arch.isa import SP
from repro.arch.registers import XZR
from repro.cfi.keys import KeyRole
from repro.cfi.policy import profile_by_name
from repro.errors import KernelPanic, ReproError
from repro.inject.invariants import InvariantChecker
from repro.inject.outcome import Matrix, Outcome, classify
from repro.inject.points import all_points
from repro.kernel import layout

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_TRIALS",
    "CANARY_SMASH_SLOT",
    "CANARY_VICTIM_SYMBOL",
    "CampaignDriver",
    "InjectionCampaign",
    "build_canary_victim",
    "capabilities_of",
]

#: Default campaign seed (the one CI pins).
DEFAULT_SEED = 0xC4F1
DEFAULT_TRIALS = 2

#: Per-CPU scratch slot the canary victim reads its "network input"
#: from: a non-zero value there makes the victim's linear copy run long
#: enough to clobber the canary word.  (+0xE00 keeps clear of the fd
#: table at +0x100 and the attack scratch at +0xF00.)
CANARY_SMASH_SLOT = layout.KERNEL_PERCPU_BASE + 0xE00
CANARY_VICTIM_SYMBOL = "canary_victim"

#: Extra victims :meth:`CampaignDriver.provoke_pauth_failures` may spend
#: on unsigned SPs that authenticate by PAC collision (odds 2^-15 each).
_PAUTH_COLLISION_RETRIES = 4


def _canary_panic(cpu):
    raise KernelPanic(
        "stack canary clobbered: __stack_chk_fail", reason="stack-canary"
    )


def build_canary_victim(asm, ctx):
    """Text builder: a canary-guarded function with a linear overflow.

    The canary kind follows the profile: PACed canaries on any profile
    that uses PAC instructions, none on the unprotected baseline (which
    is how the baseline's escape shows up honestly in the matrix).
    """
    from repro.cfi.canary import (
        CanaryKind,
        canary_slot_offset,
        emit_canary_function,
    )

    profile = ctx.profile
    uses_pac = profile.protects_backward or profile.forward or profile.dfi
    kind = CanaryKind.PACED if uses_pac else CanaryKind.NONE

    def body(a):
        # The "memcpy": when the smash slot holds a value, the copy
        # runs one word past the buffer and lands on the canary slot.
        a.mov_imm(9, CANARY_SMASH_SLOT)
        a.emit(isa.Ldr(10, 9, 0))
        a.emit(isa.SubsImm(XZR, 10, 0), isa.BCond("eq", "__canary_clean"))
        a.emit(isa.Str(10, SP, canary_slot_offset()))
        a.label("__canary_clean")
        a.emit(isa.Movz(0, 0x55, 0))

    emit_canary_function(
        asm,
        CANARY_VICTIM_SYMBOL,
        kind,
        body,
        stack_chk_fail=_canary_panic,
    )


def capabilities_of(profile):
    """Capability tags a profile provides to injection points."""
    caps = set()
    if profile.dfi:
        caps.add("dfi")
    if profile.keys_to_switch():
        caps.add("key-switch")
    if profile.protects_backward or profile.forward or profile.dfi:
        caps.add("pac")
    return caps


class CampaignDriver:
    """One trial's worth of live kernel: a booted system plus the
    victim workloads injection points corrupt and then drive.

    The driver owns a tracer and, when enabled, the invariant checker.
    The tracer retains instruction events, so a trial's crash dump can
    show the retired stream in its ring tail; mid-run tampers key on PC
    regions through per-instruction hooks, which see every retire
    whether or not it is retained.  Injection points receive the
    driver and a seeded RNG and use only these helpers plus public
    system API — they never reach into campaign internals.
    """

    def __init__(
        self,
        profile="full",
        invariants=True,
        system_seed=0xC0FFEE,
        capacity=16384,
    ):
        from repro.kernel.system import System
        from repro.trace import Tracer

        self.system = System(
            profile=profile,
            seed=system_seed,
            text_builders=(build_canary_victim,),
        )
        self.tracer = Tracer(capacity=capacity, instructions=True)
        self.system.attach_tracer(self.tracer)
        self.checker = (
            InvariantChecker(self.system, self.tracer) if invariants else None
        )
        self._user_entry = None

    def close(self):
        if self.checker is not None:
            self.checker.detach()
        self.system.detach_tracer()

    @property
    def cpu(self):
        return self.system.cpu

    @property
    def capabilities(self):
        return capabilities_of(self.system.profile)

    # -- context-switch victim workload --------------------------------------

    def prepare_switch_target(self, sp=None, sign=True):
        """Spawn a task ready to be switched to.

        Its saved PC is the host landing pad and its saved SP is
        ``sp`` (default: its own stack top) — signed under the DFI key
        when the profile protects the slot, raw otherwise.
        """
        system = self.system
        task = system.spawn_process("victim")
        task.kobj.raw_write("cpu_context_pc", system.cpu._landing_pad())
        value = sp if sp is not None else task.stack_top
        if sign and system.profile.dfi:
            key = system.profile.key_for(KeyRole.DFI)
            task.kobj.set_protected(
                "cpu_context_sp",
                value,
                system.cpu.pac,
                system.kernel_keys,
                key,
            )
        else:
            task.kobj.raw_write("cpu_context_sp", value)
        return task

    def switch_to(self, task):
        return self.system.scheduler.switch_to(task)

    def touch_stack(self):
        """Run an instrumented kernel function on the *live* SP.

        ``kernel_call`` would reset SP to the current task's stack top,
        masking a hijacked or poisoned stack pointer — this helper
        deliberately keeps whatever SP the context switch installed, so
        the function prologue's frame push is the first dereference of
        it (exactly how a poisoned SP detonates on real hardware).
        """
        cpu = self.system.cpu
        cpu.regs.current_el = 1
        cpu.regs.interrupts_masked = True
        return cpu.call(
            self.system.kernel_symbol("sys_getpid"), stack_top=None
        )

    def switch_and_touch(self, task):
        self.switch_to(task)
        return self.touch_stack()

    def provoke_pauth_failures(self, count):
        """Take ``count`` real PAuth-signature faults (Section 5.4 food).

        Each round switches to a task whose saved SP carries no valid
        PAC; the AUTDB poisons it and the next stack touch faults.  An
        unsigned SP can still authenticate when its PAC field happens
        to equal the MAC; such a round takes no fault and is retried
        with a fresh victim, so only real faults count.
        """
        from repro.kernel.fault import TaskKilled

        taken = attempts = 0
        while taken < count:
            if attempts == count + _PAUTH_COLLISION_RETRIES:
                raise ReproError(
                    "expected a PAuth-signature fault and saw none"
                )
            attempts += 1
            victim = self.prepare_switch_target(sign=False)
            self.switch_to(victim)
            try:
                self.touch_stack()
            except TaskKilled:
                taken += 1
            # Back onto a sane stack for the next round.
            self.system.cpu.regs.set_sp_of(1, victim.stack_top)

    # -- user-mode syscall workload ------------------------------------------

    def user_entry(self):
        """Map (once) and return the entry of a one-syscall user program."""
        if self._user_entry is None:
            self._user_entry = self.system.load_syscall_program("getpid")
        return self._user_entry

    def run_user_syscall(self, max_steps=200_000):
        """One getpid() round trip from EL0 through the full entry path."""
        entry = self.user_entry()
        return self.system.run_user(
            self.system.tasks.current, entry, max_steps=max_steps
        )

    # -- canary victim workload ----------------------------------------------

    def call_canary_victim(self):
        return self.system.kernel_call(CANARY_VICTIM_SYMBOL)

    # -- evidence ------------------------------------------------------------

    def evidence(self):
        """Deterministic trace-derived evidence for the result row."""
        return {
            "auth_failures": self.tracer.count("auth_failure"),
            "faults": self.tracer.count("fault"),
            "threshold_ticks": self.tracer.count("panic_threshold_tick"),
            "syscalls": self.tracer.count("syscall_enter"),
            "context_switches": self.tracer.count("context_switch"),
        }


class InjectionCampaign:
    """A seeded sweep of every applicable injection point.

    Parameters
    ----------
    profile:
        Protection profile name each trial's system boots with.
    seed:
        Campaign seed; per-trial sub-seeds are derived arithmetically.
    trials:
        Injections per site (different sub-seed, fresh system each).
    invariants:
        Attach the :class:`InvariantChecker` (the default).  Disabling
        it shows which corruptions only the checker can see.
    sites:
        Optional iterable of site names to restrict the campaign to.
    """

    def __init__(
        self,
        profile="full",
        seed=DEFAULT_SEED,
        trials=DEFAULT_TRIALS,
        invariants=True,
        sites=None,
    ):
        self.profile = profile
        self.seed = seed
        self.trials = trials
        self.invariants = invariants
        self.sites = None if sites is None else frozenset(sites)

    def _derived_seed(self, site_index, trial):
        # Arithmetic only: hash() is salted per process and would break
        # cross-run determinism.
        return (
            self.seed * 1_000_003 + site_index * 8191 + trial * 127
        ) & 0x7FFF_FFFF

    def selected_points(self):
        points = all_points()
        if self.sites is not None:
            unknown = self.sites - {p.name for p in points}
            if unknown:
                raise ReproError(
                    f"unknown injection site(s): {sorted(unknown)}"
                )
            points = tuple(p for p in points if p.name in self.sites)
        return points

    def run(self):
        profile_obj = profile_by_name(self.profile)
        caps = capabilities_of(profile_obj)
        matrix = Matrix(
            profile=self.profile,
            seed=self.seed,
            invariants=self.invariants,
            trials=self.trials,
        )
        for index, point in enumerate(self.selected_points()):
            missing = [c for c in point.requires if c not in caps]
            for trial in range(self.trials):
                derived = self._derived_seed(index, trial)
                if missing:
                    matrix.results.append(
                        Outcome(
                            site=point.name,
                            outcome="skipped",
                            profile=self.profile,
                            trial=trial,
                            seed=derived,
                            detail=(
                                f"profile {self.profile!r} lacks "
                                f"{'+'.join(missing)}"
                            ),
                        )
                    )
                    continue
                matrix.results.append(self._run_trial(point, trial, derived))
        return matrix

    def _run_trial(self, point, trial, derived):
        rng = random.Random(derived)
        driver = CampaignDriver(
            profile=self.profile,
            invariants=self.invariants,
            system_seed=derived,
        )

        def body():
            point.inject(driver, rng)
            if driver.checker is not None:
                driver.checker.sweep()
            return "corruption survived undetected"

        try:
            try:
                detected_by, detail = classify(body)
            except ReproError as exc:
                # An unclassified host error is NOT a detection — the
                # corruption broke the harness, not the kernel's
                # defences.  Report it as an escape so it gets fixed.
                detected_by, detail = None, f"harness error: {exc}"
            evidence = driver.evidence()
        finally:
            driver.close()
        return Outcome(
            site=point.name,
            outcome="escaped" if detected_by is None else "detected",
            profile=self.profile,
            trial=trial,
            seed=derived,
            detected_by=detected_by,
            expected=(
                None if detected_by is None
                else detected_by in point.expected
            ),
            detail=detail,
            evidence=evidence,
        )

    def run_control(self):
        """One clean trial: every workload, no corruption, full sweep.

        Returns the evidence dict; raises if anything trips — a
        detection here would be a false positive in the checker or the
        fault machinery, which would make the whole matrix worthless.
        """
        driver = CampaignDriver(
            profile=self.profile,
            invariants=self.invariants,
            system_seed=self.seed,
        )
        try:
            if "dfi" in driver.capabilities:
                target = driver.prepare_switch_target()
                driver.switch_and_touch(target)
            driver.run_user_syscall()
            driver.call_canary_victim()
            if driver.checker is not None:
                driver.checker.sweep()
            return driver.evidence()
        finally:
            driver.close()
