"""The benchmark's three workloads.

Each workload class generates its inputs from the seed, builds what it
needs (imports, boot, reference results, warm-up) in its constructor,
and then serves ops to :func:`loop.run_loop`:

* ``op(i)`` runs op ``i`` on the simulator and returns its raw outputs;
* ``check(i, outcome)`` compares them with the expected outputs and
  returns the op's simulated-instruction count, or None on a mismatch;
* ``finish()`` runs the end-of-run checks, warm-up included, and
  returns True when they hold; ``close()`` releases what the
  constructor attached.

The program (``repro``) is imported inside the constructors, never at
module level, so that ``purge_program_modules`` followed by a new
constructor call pays the full import cost again (see ``setup_s``).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "pinned.json")
#: Seeds whose reference outputs are pinned in ``pinned.json`` by
#: ``pin.py``.  Other seeds are checked only against references computed
#: by the same program, and their runs say ``"pinned_seed": false``.
PINNED_SEEDS = range(1024)

#: Distinct syscall batches in one seed's user program.
BATCHES = 16
#: Length of the seed-drawn batch sequence the ops cycle through.
SEQUENCE = 256
#: File descriptors the batches may use: 3 is ext4, 4 is sockfs.
BATCH_FDS = (3, 4)
#: Register the user program folds every syscall's x0 into.
FOLD_REGISTER = 20
#: Step cap for one batch (a batch retires about 2.2k instructions).
BATCH_MAX_STEPS = 100_000

#: Length of the seed-drawn trial plan the campaign ops cycle through.
CAMPAIGN_PLAN = 4096
#: Leading trials of the plan whose records are pinned per seed.
PINNED_TRIALS = 32
#: Profile every booted kernel uses.
PROFILE = "full"


def purge_program_modules():
    """Forget every imported ``repro`` module so the next import is cold."""
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]


def load_pinned():
    with open(PINNED_PATH) as handle:
        return json.load(handle)


def sha256_json(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class _Workload:
    """What every workload shares: the lookup of its seed's pinned digest."""

    #: Key of the workload's digests in ``pinned.json``.
    pin_key = None

    def pinned_digest(self):
        """The digest recorded for this seed, or None if none is pinned."""
        return load_pinned()[self.pin_key].get(str(self.seed))


# -- syscalls / syscalls_observed ---------------------------------------------


def syscall_inputs(seed):
    """The seed's batches and op sequence.

    Every batch issues all ten Figure 3 syscalls once, in a seed-drawn
    order, each on a seed-drawn fd, so every op does comparable work and
    seeds differ in order and fds rather than in op size.
    """
    from repro.workloads.lmbench import LMBENCH_BENCHMARKS

    rng = random.Random(seed)
    batches = [
        [
            (name, rng.choice(BATCH_FDS))
            for name in rng.sample(LMBENCH_BENCHMARKS, len(LMBENCH_BENCHMARKS))
        ]
        for _ in range(BATCHES)
    ]
    sequence = [rng.randrange(BATCHES) for _ in range(SEQUENCE)]
    return batches, sequence


def _batch_program(batches, syscall_numbers):
    """One user program with a function per batch.

    A batch function issues its syscalls back to back, folds each
    syscall's x0 into ``FOLD_REGISTER`` (shift left by one, then xor)
    and halts with the fold in x0.
    """
    from repro.arch import isa
    from repro.arch.assembler import Assembler
    from repro.kernel import layout

    asm = Assembler(layout.USER_TEXT_BASE)
    for index, batch in enumerate(batches):
        asm.fn(f"batch_{index}")
        asm.mov_imm(FOLD_REGISTER, 0)
        for name, fd in batch:
            asm.mov_imm(0, fd)
            asm.mov_imm(8, syscall_numbers[name])
            asm.emit(
                isa.Svc(0),
                isa.LslImm(FOLD_REGISTER, FOLD_REGISTER, 1),
                isa.EorReg(FOLD_REGISTER, FOLD_REGISTER, 0),
            )
        asm.emit(isa.MovReg(0, FOLD_REGISTER), isa.Hlt())
    return asm.assemble()


class _UserBatches:
    """A booted lmbench kernel with the batch program loaded."""

    def __init__(self, batches):
        from repro.workloads.lmbench import build_lmbench_system

        self.system = build_lmbench_system(PROFILE)
        self.system.map_user_stack()
        program = _batch_program(batches, self.system.syscall_numbers)
        self.system.load_user_program(program)
        self.task = self.system.tasks.current
        self.cpu = self.system.cpu
        self.entries = [
            program.address_of(f"batch_{index}") for index in range(len(batches))
        ]

    def run(self, batch):
        """Run one batch; returns (cycles, retired instructions, x0)."""
        cpu = self.cpu
        retired = cpu.instructions_retired
        cycles = self.system.run_user(
            self.task, self.entries[batch], max_steps=BATCH_MAX_STEPS
        )
        return cycles, cpu.instructions_retired - retired, cpu.regs.read(0)


def syscall_reference(batches):
    """Each batch's (cycles, instructions, x0) on a freshly booted kernel."""
    reference = _UserBatches(batches)
    return [reference.run(index) for index in range(len(batches))]


def syscall_digest(batches, sequence, expected):
    """SHA-256 over the seed's inputs and their reference outputs."""
    return sha256_json({"batches": batches, "sequence": sequence, "expected": expected})


class SyscallWorkload(_Workload):
    """``syscalls``: seed-drawn Figure 3 syscall batches on one kernel.

    One op is one ``System.run_user`` call running one batch.  Expected
    outputs come from a second kernel booted fresh at set-up; every
    batch also runs once on the measured kernel as warm-up.
    """

    name = "syscalls"
    pin_key = "syscalls"

    def __init__(self, seed):
        self.seed = seed
        self.batches, self.sequence = syscall_inputs(seed)
        self.expected = syscall_reference(self.batches)
        self.digest = syscall_digest(self.batches, self.sequence, self.expected)
        self.kernel = _UserBatches(self.batches)
        self.attach()
        self.warmed = all(
            [
                self.check_batch(index, self.kernel.run(index)) is not None
                for index in range(len(self.batches))
            ]
        )

    def attach(self):
        """Hook for observers; the plain workload attaches none."""

    def op(self, index):
        batch = self.sequence[index % SEQUENCE]
        return batch, self.kernel.run(batch)

    def check(self, index, outcome):
        batch, outputs = outcome
        if batch != self.sequence[index % SEQUENCE]:
            return None
        return self.check_batch(batch, outputs)

    def check_batch(self, batch, outputs):
        if tuple(outputs) != tuple(self.expected[batch]):
            return None
        return outputs[1]

    def finish(self):
        pinned = self.pinned_digest()
        return self.warmed and (pinned is None or pinned == self.digest)

    def close(self):
        pass


class ObservedSyscallWorkload(SyscallWorkload):
    """``syscalls_observed``: the same ops under ``ProfileSession``.

    The session is entered at set-up, before warm-up, and stays attached
    for the whole timed loop.  Besides the reference outputs, every op
    checks the profiler's cycle conservation: the cycles it attributed
    to symbols equal the cycles of every retired instruction the tracer
    counted.
    """

    name = "syscalls_observed"

    def attach(self):
        from repro.observe import ProfileSession

        self.session = ProfileSession(self.kernel.system)
        self.profiler = self.session.__enter__()
        self.tracer = self.session.tracer

    def conserved(self):
        retired = self.tracer.stats.get("insn_retire")
        return retired is not None and self.profiler.total_cycles == retired.total

    def check_batch(self, batch, outputs):
        if not self.conserved():
            return None
        return super().check_batch(batch, outputs)

    def finish(self):
        return self.conserved() and super().finish()

    def close(self):
        self.session.__exit__(None, None, None)


# -- fault_campaign -----------------------------------------------------------


def campaign_inputs(seed, sites):
    """The seed's trial plan and the campaign seeds of its warm-up.

    The plan is a list of (campaign seed, site index); the warm-up runs
    one trial at each of the ``sites`` sites.
    """
    rng = random.Random(seed)
    plan = [(rng.randrange(1 << 31), rng.randrange(sites)) for _ in range(CAMPAIGN_PLAN)]
    warmup = [rng.randrange(1 << 31) for _ in range(sites)]
    return plan, warmup


class _CampaignTrials:
    """Runs single injection trials and counts their retired instructions."""

    def __init__(self):
        from repro.inject.campaign import CampaignDriver, InjectionCampaign
        from repro.inject.points import all_points

        self.campaign = InjectionCampaign
        self.points = all_points()
        # Retired instructions are read off each trial's core as its
        # driver closes; the drivers live only inside run().
        self._retired = 0
        self._driver_class = CampaignDriver
        self._close = CampaignDriver.close

        def close(driver):
            self._retired += driver.cpu.instructions_retired
            return self._close(driver)

        CampaignDriver.close = close

    def run(self, campaign_seed, site):
        """One trial; returns (site, campaign matrix, retired instructions)."""
        retired = self._retired
        matrix = self.campaign(
            profile=PROFILE,
            seed=campaign_seed,
            trials=1,
            sites=(self.points[site].name,),
        ).run()
        return site, matrix, self._retired - retired

    def close(self):
        self._driver_class.close = self._close


def campaign_record(campaign_seed, matrix, retired):
    """What the pinned digest covers of one trial."""
    results = [[r.site, r.outcome, r.detected_by] for r in matrix.results]
    return [campaign_seed, results, retired]


def campaign_reference_digest(seed):
    """SHA-256 over the records of the seed's first ``PINNED_TRIALS`` trials."""
    trials = _CampaignTrials()
    try:
        plan, _ = campaign_inputs(seed, len(trials.points))
        return sha256_json(
            [
                campaign_record(campaign_seed, *trials.run(campaign_seed, site)[1:])
                for campaign_seed, site in plan[:PINNED_TRIALS]
            ]
        )
    finally:
        trials.close()


class FaultCampaignWorkload(_Workload):
    """``fault_campaign``: one injection trial per op.

    Each op is ``InjectionCampaign(...).run()`` restricted to one trial
    at one site, the public API ``python -m repro inject`` drives.  The
    seed draws each trial's campaign seed (which derives the booted
    kernel's firmware keys) and its site.  A trial passes when it is
    detected by one of the mechanisms its site expects.  The records of
    the first ``PINNED_TRIALS`` ops (outcome, mechanism and retired
    instructions) must also match the digest pinned for the seed; the op
    that completes them fails on a mismatch, and so does ``finish()``.
    """

    name = "fault_campaign"
    pin_key = "fault_campaign"

    def __init__(self, seed):
        self.seed = seed
        self.trials = _CampaignTrials()
        self.points = self.trials.points
        self.plan, warmup = campaign_inputs(seed, len(self.points))
        self.prefix = {}
        self.warmed = all(
            [
                self.check(None, self.trials.run(campaign_seed, site)) is not None
                for site, campaign_seed in enumerate(warmup)
            ]
        )

    def op(self, index):
        return self.trials.run(*self.plan[index % CAMPAIGN_PLAN])

    def check(self, index, outcome):
        site, matrix, retired = outcome
        if index is not None:
            campaign_seed, planned_site = self.plan[index % CAMPAIGN_PLAN]
            if site != planned_site:
                return None
            if index < PINNED_TRIALS:
                self.prefix[index] = campaign_record(campaign_seed, matrix, retired)
                if len(self.prefix) == PINNED_TRIALS and not self.prefix_matches():
                    return None
        point = self.points[site]
        if len(matrix.results) != 1:
            return None
        result = matrix.results[0]
        if (
            result.site != point.name
            or result.outcome != "detected"
            or result.detected_by not in point.expected
            or retired <= 0
        ):
            return None
        return retired

    def prefix_matches(self):
        pinned = self.pinned_digest()
        digest = sha256_json([self.prefix[index] for index in range(PINNED_TRIALS)])
        return pinned is None or pinned == digest

    def finish(self):
        # A run too short to reach the end of the pinned prefix finishes
        # it here, untimed.
        for index in range(PINNED_TRIALS):
            if index not in self.prefix:
                self.check(index, self.op(index))
        return self.warmed and self.prefix_matches()

    def close(self):
        self.trials.close()


WORKLOADS = {
    cls.name: cls
    for cls in (SyscallWorkload, ObservedSyscallWorkload, FaultCampaignWorkload)
}
