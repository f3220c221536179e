"""Invalidation semantics of the host-side hot-path caches.

The differential suite (``test_diff_cached.py``) shows the caches are
invisible on the pinned workloads; these tests pin the *mechanisms* that
make that true — the staleness contracts.  Each one constructs the exact
hazard a cache could get wrong (a key-register write, self-modifying
code, an unmap, a wholesale stage-2 swap) and asserts the stale entry is
never served.  The decode and translation caches share one invalidation
counter, ``GENERATION``; the table below pins every site that bumps it.
"""

from __future__ import annotations

import pytest

from conftest import DATA_BASE, STACK_TOP, BareMachine

from repro import hotpath
from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.arch.pac import PACEngine
from repro.arch.registers import PAuthKey
from repro.errors import PermissionFault, TranslationFault
from repro.mem.mmu import MMU
from repro.mem.pagetable import Permissions, Stage1Table, Stage2Table
from repro.mem.phys import GENERATION, PhysicalMemory

_POINTER = 0xFFFF_0000_0801_2340
_MODIFIER = 0xAA55


def _stage1_vpn(mmu, va):
    """The stage-1 table's page index (sign-extension bits dropped)."""
    return (va & ((1 << mmu.config.va_bits) - 1)) >> mmu.page_shift


def _cold_pac(pointer, modifier, key):
    """The ground truth: a fresh, fully cache-disabled computation."""
    with hotpath.disabled_caches():
        return PACEngine().compute_pac(pointer, modifier, key)


class TestPacStaleness:
    """A PAC computed before a key write is never served after it."""

    def test_msr_key_write_flushes_cached_macs(self, machine):
        cpu = machine.cpu
        engine = cpu.pac
        key = cpu.regs.keys.ia

        cpu.write_sysreg_checked("APIAKeyLo_EL1", 0xAAAA)
        mac_a = engine.compute_pac(_POINTER, _MODIFIER, key)
        assert engine.compute_pac(_POINTER, _MODIFIER, key) == mac_a
        assert mac_a == _cold_pac(_POINTER, _MODIFIER, key)

        # The key register changes: the old MAC must not come back.
        cpu.write_sysreg_checked("APIAKeyLo_EL1", 0xBBBB)
        mac_b = engine.compute_pac(_POINTER, _MODIFIER, key)
        assert mac_b != mac_a
        assert mac_b == _cold_pac(_POINTER, _MODIFIER, key)

        # Restoring the old value restores the old MAC.
        cpu.write_sysreg_checked("APIAKeyLo_EL1", 0xAAAA)
        assert engine.compute_pac(_POINTER, _MODIFIER, key) == mac_a

    def test_in_place_key_corruption_never_served_stale(self):
        # A fault-injection site mutates key.lo directly, bypassing the
        # MSR flush path entirely.  Value-keyed buckets make even that
        # safe: the corrupted value simply selects a different bucket.
        engine = PACEngine()
        key = PAuthKey(lo=0x1111, hi=0x2222)
        mac_good = engine.compute_pac(_POINTER, _MODIFIER, key)
        key.lo ^= 1 << 13
        mac_bad = engine.compute_pac(_POINTER, _MODIFIER, key)
        assert mac_bad != mac_good
        assert mac_bad == _cold_pac(_POINTER, _MODIFIER, key)
        key.lo ^= 1 << 13
        assert engine.compute_pac(_POINTER, _MODIFIER, key) == mac_good

    def test_per_key_register_flush_is_selective(self, machine):
        cpu = machine.cpu
        engine = cpu.pac
        keys = cpu.regs.keys
        cpu.write_sysreg_checked("APIAKeyLo_EL1", 0x1111)
        cpu.write_sysreg_checked("APIBKeyLo_EL1", 0x2222)
        mac_ia = engine.compute_pac(_POINTER, _MODIFIER, keys.ia)
        mac_ib = engine.compute_pac(_POINTER, _MODIFIER, keys.ib)
        # Writing IB changes IB's MAC and leaves IA's alone.
        cpu.write_sysreg_checked("APIBKeyLo_EL1", 0x3333)
        assert engine.compute_pac(_POINTER, _MODIFIER, keys.ia) == mac_ia
        assert mac_ia == _cold_pac(_POINTER, _MODIFIER, keys.ia)
        mac_ib2 = engine.compute_pac(_POINTER, _MODIFIER, keys.ib)
        assert mac_ib2 != mac_ib
        assert mac_ib2 == _cold_pac(_POINTER, _MODIFIER, keys.ib)


class TestDecodeCacheInvalidation:
    def test_straightline_rerun_hits(self, machine):
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.Movz(0, 7, 0), isa.Ret())
        program = asm.assemble()
        assert machine.run(program)[0] == 7
        hits_before = machine.cpu.decode_stats.hits
        result, _ = machine.cpu.call(
            program.address_of("main"), stack_top=STACK_TOP
        )
        assert result == 7
        assert machine.cpu.decode_stats.hits > hits_before

    def test_self_modifying_code_invalidates(self, machine):
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.Movz(0, 1, 0), isa.Ret())
        program = asm.assemble()
        assert machine.run(program)[0] == 1

        # Overwrite the Movz in place: the next fetch must decode the
        # new instruction, not replay the cached handler.
        cpu = machine.cpu
        pa = cpu.mmu.translate(program.address_of("main"), "x", 1)
        cpu.mmu.phys.store_instruction(pa, isa.Movz(0, 2, 0))
        flushes_before = cpu.decode_stats.flushes
        result, _ = cpu.call(program.address_of("main"), stack_top=STACK_TOP)
        assert result == 2
        assert cpu.decode_stats.flushes > flushes_before

    def test_erase_instruction_invalidates(self, machine):
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.Movz(0, 3, 0), isa.Ret())
        program = asm.assemble()
        assert machine.run(program)[0] == 3
        cpu = machine.cpu
        pa = cpu.mmu.translate(program.address_of("main"), "x", 1)
        cpu.mmu.phys.erase_instruction(pa)
        with pytest.raises(TranslationFault):
            cpu.call(program.address_of("main"), stack_top=STACK_TOP)


class TestTranslationCacheInvalidation:
    def test_repeat_translation_uses_cache(self, machine):
        mmu = machine.cpu.mmu
        pa = mmu.translate(DATA_BASE, "r", 1)
        assert mmu.translate(DATA_BASE, "r", 1) == pa
        assert (DATA_BASE >> mmu.page_shift, "r", 1) in mmu._walk_cache

    def test_unmap_page_faults_after_cached_walk(self, machine):
        mmu = machine.cpu.mmu
        mmu.translate(DATA_BASE, "r", 1)  # populate the walk cache
        mmu.address_space.kernel.unmap_page(_stage1_vpn(mmu, DATA_BASE))
        with pytest.raises(TranslationFault):
            mmu.translate(DATA_BASE, "r", 1)

    def test_stage2_revocation_faults_after_cached_walk(self, machine):
        mmu = machine.cpu.mmu
        pa = mmu.translate(DATA_BASE, "r", 1)
        mmu.stage2.set_frame(
            pa >> mmu.page_shift, r=False, w=False, x_el1=False
        )
        with pytest.raises(PermissionFault):
            mmu.translate(DATA_BASE, "r", 1)

    def test_stage2_wholesale_replacement_invalidates(self, machine):
        # The hypervisor swaps in a whole new table at enable time; the
        # fresh table's epoch restarts at 0, which a naive epoch sum
        # would mistake for "nothing changed".
        mmu = machine.cpu.mmu
        mmu.translate(DATA_BASE, "r", 1)
        mmu.stage2 = Stage2Table(default_allow=False)
        with pytest.raises(PermissionFault):
            mmu.translate(DATA_BASE, "r", 1)

    def test_remap_serves_new_frame(self, machine):
        mmu = machine.cpu.mmu
        old_pa = mmu.translate(DATA_BASE, "r", 1)
        vpn = _stage1_vpn(mmu, DATA_BASE)
        mapping = mmu.address_space.kernel.lookup(vpn)
        mmu.address_space.kernel.map_page(
            vpn, mapping.frame + 1, mapping.permissions
        )
        new_pa = mmu.translate(DATA_BASE, "r", 1)
        assert new_pa == old_pa + mmu.page_size


def _mapped_stage1():
    table = Stage1Table()
    table.map_page(5, 9, Permissions.kernel_data())
    return table


def _listed_stage2():
    table = Stage2Table()
    table.set_frame(9, r=True, w=False, x_el1=False)
    return table


def _code_memory():
    phys = PhysicalMemory()
    phys.store_instruction(0x1000, isa.Nop())
    return phys


_PROGRAM = Assembler(0x1000).emit(isa.Nop(), isa.Ret()).assemble()


def _mapped_mmu():
    mmu = MMU()
    mmu.map_range(DATA_BASE, 0x1000, 0x600, Permissions.kernel_data())
    return mmu


_GENERATION_CASES = [
    # (id, build target, action on it, bumps GENERATION?)
    ("stage1-map", Stage1Table,
     lambda t: t.map_page(5, 9, Permissions.kernel_data()), True),
    ("stage1-map-pages", Stage1Table,
     lambda t: t.map_pages(5, 9, 3, Permissions.kernel_data()), True),
    ("stage1-map-no-pages", Stage1Table,
     lambda t: t.map_pages(5, 9, 0, Permissions.kernel_data()), False),
    ("stage1-unmap", _mapped_stage1, lambda t: t.unmap_page(5), True),
    ("stage1-unmap-unmapped", Stage1Table, lambda t: t.unmap_page(5), False),
    ("stage1-lookup", _mapped_stage1, lambda t: t.lookup(5), False),
    ("stage2-set", Stage2Table,
     lambda t: t.set_frame(9, r=False, w=False, x_el1=False), True),
    ("stage2-clear", _listed_stage2, lambda t: t.clear_frame(9), True),
    ("stage2-clear-unlisted", Stage2Table,
     lambda t: t.clear_frame(9), False),
    ("stage2-allows", _listed_stage2, lambda t: t.allows(9, "r", 1), False),
    ("mmu-stage2-replace", MMU,
     lambda m: setattr(m, "stage2", Stage2Table()), True),
    ("mmu-translate", _mapped_mmu,
     lambda m: m.translate(DATA_BASE, "r", 1), False),
    ("phys-store-instruction", PhysicalMemory,
     lambda p: p.store_instruction(0x1000, isa.Nop()), True),
    ("phys-store-program", PhysicalMemory,
     lambda p: p.store_program(0x1000, _PROGRAM), True),
    ("phys-erase-instruction", _code_memory,
     lambda p: p.erase_instruction(0x1000), True),
    ("phys-code-frame-write", _code_memory,
     lambda p: p.write(0x1008, bytes(4)), True),
    ("phys-data-frame-write", _code_memory,
     lambda p: p.write(0x5000, bytes(4)), False),
    ("phys-read", _code_memory, lambda p: p.read(0x1000, 8), False),
    ("phys-fetch", _code_memory,
     lambda p: p.fetch_instruction(0x1000), False),
]


@pytest.mark.parametrize(
    "build, action, bumps",
    [pytest.param(*case[1:], id=case[0]) for case in _GENERATION_CASES],
)
def test_generation_bumped_by_mutation_sites_only(build, action, bumps):
    target = build()
    before = GENERATION.value
    action(target)
    assert (GENERATION.value != before) == bumps


def _loop_machine():
    """A bare machine with a load/store loop placed at ``main``."""
    machine = BareMachine()
    asm = machine.assembler()
    asm.fn("main")
    asm.emit(isa.Movz(1, 0, 0), isa.SubImm(isa.SP, isa.SP, 16))
    asm.label("loop")
    asm.emit(
        isa.Str(0, isa.SP, 0),
        isa.Ldr(2, isa.SP, 0),
        isa.AddImm(1, 1, 3),
        isa.SubImm(0, 2, 1),
        isa.Cbnz(0, "loop"),
        isa.AddImm(isa.SP, isa.SP, 16),
        isa.AddImm(0, 1, 0),
        isa.Ret(),
    )
    return machine, machine.place(asm.assemble())


def _run_twice(machine, program):
    cpu = machine.cpu
    runs = [
        cpu.call(program.address_of("main"), args=(20,), stack_top=STACK_TOP)
        for _ in range(2)
    ]
    return runs, cpu.cycles, cpu.instructions_retired


class TestCacheFreeOracle:
    def test_cache_free_components_never_hit_and_agree(self):
        # Built inside the context, run outside it: the flag is read at
        # construction, so the cold machine stays cache-free.
        with hotpath.disabled_caches():
            cold_machine, cold_program = _loop_machine()
        warm_machine, warm_program = _loop_machine()
        cold = _run_twice(cold_machine, cold_program)
        warm = _run_twice(warm_machine, warm_program)
        assert cold == warm
        assert cold[0][0][0] == 60
        assert cold_machine.cpu.decode_stats.hits == 0
        assert len(cold_machine.cpu.mmu._walk_cache) <= 1
        assert warm_machine.cpu.decode_stats.hits > 0
