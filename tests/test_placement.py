"""Bulk code placement and page mapping against the per-item reference.

``PhysicalMemory.store_program`` and ``Stage1Table.map_pages`` are the
bulk forms of ``store_instruction`` and ``map_page``.  The reference
loops below are the placement the bulk calls replaced; every test
compares the two on the same starting state, down to the instruction
objects stored at each physical address.  The invalidation tests pin
the single ``GENERATION`` bump each bulk call makes: without it a warm
decode or walk cache would serve the old page.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_BASE, STACK_TOP, TEXT_BASE, BareMachine

import repro
from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.mem.pagetable import Permissions, Stage1Table
from repro.mem.phys import GENERATION, PhysicalMemory


def _reference_store(phys, pa, program):
    for address, instruction in program.instructions:
        phys.store_instruction(pa + (address - program.base), instruction)


def _reference_map(table, first_vpn, first_frame, count, permissions):
    for index in range(count):
        table.map_page(first_vpn + index, first_frame + index, permissions)


def _copy_phys(phys):
    copy = PhysicalMemory(phys.page_shift)
    copy._frames = {n: bytearray(f) for n, f in phys._frames.items()}
    copy._instructions = dict(phys._instructions)
    copy._code_frames = set(phys._code_frames)
    return copy


def _copy_table(table):
    copy = Stage1Table(table.page_shift)
    copy._entries = dict(table._entries)
    return copy


def _assert_same_memory(bulk, reference):
    assert {n: bytes(f) for n, f in bulk._frames.items()} == {
        n: bytes(f) for n, f in reference._frames.items()
    }
    assert bulk._code_frames == reference._code_frames
    assert bulk._instructions.keys() == reference._instructions.keys()
    for pa, instruction in reference._instructions.items():
        assert bulk._instructions[pa] is instruction, hex(pa)


def _entries(table):
    return {
        vpn: (mapping.frame, mapping.permissions)
        for vpn, mapping in table._entries.items()
    }


def _page_crossing_program(base):
    asm = Assembler(base)
    asm.fn("main")
    asm.mov_imm(0, 0x1234_5678_9ABC_DEF0)
    asm.emit(*[isa.Work(index) for index in range(12)])
    asm.emit(isa.Pac("ib", 30, 16), isa.BlrA("ib", 8, 9), isa.Ret())
    return asm.assemble()


class TestStoreProgramMatchesReference:
    def test_page_crossing_program(self):
        # Starts 32 bytes before a frame boundary, so it spans two frames.
        pa = 0x5000 - 32
        program = _page_crossing_program(0xFFFF_0000_0801_0FE0)
        assert program.size > 32
        bulk, reference = PhysicalMemory(), PhysicalMemory()
        bulk.store_program(pa, program)
        _reference_store(reference, pa, program)
        _assert_same_memory(bulk, reference)
        assert bulk._code_frames == {4, 5}

    def test_over_existing_code_and_data(self):
        phys = PhysicalMemory()
        phys.write(0x5000 - 64, bytes(range(128)))
        phys.store_instruction(0x5000 - 32, isa.Hlt())
        program = _page_crossing_program(0xFFFF_0000_0801_0FE0)
        bulk, reference = _copy_phys(phys), _copy_phys(phys)
        bulk.store_program(0x5000 - 32, program)
        _reference_store(reference, 0x5000 - 32, program)
        _assert_same_memory(bulk, reference)

    def test_misaligned_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            PhysicalMemory().store_program(
                0x1002, _page_crossing_program(TEXT_BASE)
            )

    def test_bumps_generation_once(self):
        before = GENERATION.value
        PhysicalMemory().store_program(0x1000, _page_crossing_program(TEXT_BASE))
        assert GENERATION.value == before + 1


class TestMapPagesMatchesReference:
    @pytest.mark.parametrize(
        "permissions",
        [Permissions.kernel_data(), Permissions(x_el1=True),
         Permissions.user_text()],
    )
    def test_range(self, permissions):
        seed = Stage1Table()
        seed.map_page(12, 3, Permissions.kernel_rodata())
        bulk, reference = _copy_table(seed), _copy_table(seed)
        bulk.map_pages(10, 0x400, 5, permissions)
        _reference_map(reference, 10, 0x400, 5, permissions)
        assert _entries(bulk) == _entries(reference)
        assert all(m.permissions.r_el1 for m in bulk._entries.values())

    def test_bumps_generation_once(self):
        before = GENERATION.value
        Stage1Table().map_pages(10, 0x400, 5, Permissions.kernel_data())
        assert GENERATION.value == before + 1


class TestBootedSystemMatchesReference:
    def test_every_bulk_call_matches_the_reference(self, monkeypatch):
        # Each bulk call of a whole boot is checked against the per-item
        # reference applied to a copy of the state just before it.
        from repro.kernel import System

        bulk_store = PhysicalMemory.store_program
        bulk_map = Stage1Table.map_pages
        calls = {"store": 0, "map": 0}

        def checked_store(phys, pa, program):
            reference = _copy_phys(phys)
            _reference_store(reference, pa, program)
            bulk_store(phys, pa, program)
            _assert_same_memory(phys, reference)
            calls["store"] += 1

        def checked_map(table, first_vpn, first_frame, count, permissions):
            reference = _copy_table(table)
            _reference_map(reference, first_vpn, first_frame, count,
                           permissions)
            bulk_map(table, first_vpn, first_frame, count, permissions)
            assert _entries(table) == _entries(reference)
            calls["map"] += 1

        monkeypatch.setattr(PhysicalMemory, "store_program", checked_store)
        monkeypatch.setattr(Stage1Table, "map_pages", checked_map)
        system = System(profile="full")
        system.load_syscall_program("getpid")
        assert calls["store"] >= 4 and calls["map"] >= 8

    def test_boot_state_matches_reference_boot(self, monkeypatch):
        from repro.kernel import System

        bulk = System(profile="full")
        monkeypatch.setattr(PhysicalMemory, "store_program", _reference_store)
        monkeypatch.setattr(Stage1Table, "map_pages", _reference_map)
        reference = System(profile="full")

        def frames(system):
            return {n: bytes(f) for n, f in system.mmu.phys._frames.items()}

        def code(system):
            return {
                pa: (type(insn), insn.text())
                for pa, insn in system.mmu.phys._instructions.items()
            }

        assert frames(bulk) == frames(reference)
        assert bulk.mmu.phys._code_frames == reference.mmu.phys._code_frames
        assert code(bulk) == code(reference)
        for space in ("kernel", "user"):
            assert _entries(getattr(bulk.mmu.address_space, space)) == (
                _entries(getattr(reference.mmu.address_space, space))
            )


class TestBulkCallsInvalidateWarmCaches:
    def _warm(self, machine, value):
        asm = machine.assembler()
        asm.fn("main")
        asm.emit(isa.Movz(0, value, 0), isa.Ret())
        program = asm.assemble()
        assert machine.run(program)[0] == value
        # A second call is served from the decode and walk caches.
        cpu = machine.cpu
        hits = cpu.decode_stats.hits
        assert cpu.call(TEXT_BASE, stack_top=STACK_TOP)[0] == value
        assert cpu.decode_stats.hits > hits
        return program

    def test_store_program_over_a_warm_page(self, machine):
        self._warm(machine, 1)
        replacement = Assembler(TEXT_BASE)
        replacement.emit(isa.Movz(0, 2, 0), isa.Ret())
        cpu = machine.cpu
        cpu.mmu.phys.store_program(
            cpu.mmu.translate(TEXT_BASE, "x", 1), replacement.assemble()
        )
        assert cpu.call(TEXT_BASE, stack_top=STACK_TOP)[0] == 2

    def test_map_range_over_a_warm_code_page(self, machine):
        cpu = machine.cpu
        cpu.mmu.phys.store_instruction(0x7000 << 12, isa.Movz(0, 3, 0))
        cpu.mmu.phys.store_instruction((0x7000 << 12) + 4, isa.Ret())
        self._warm(machine, 1)
        cpu.mmu.map_range(
            TEXT_BASE, 0x1000, 0x7000, Permissions(r_el1=True, x_el1=True)
        )
        assert cpu.call(TEXT_BASE, stack_top=STACK_TOP)[0] == 3

    def test_map_range_over_a_warm_data_page(self):
        machine = BareMachine()
        mmu = machine.cpu.mmu
        old = mmu.translate(DATA_BASE, "r", 1)
        assert mmu.translate(DATA_BASE, "r", 1) == old  # walk-cache hit
        mmu.map_range(DATA_BASE, 0x1000, 0x7100, Permissions.kernel_data())
        assert mmu.translate(DATA_BASE, "r", 1) == 0x7100 << 12


_ENCODING_PROBE = """
import hashlib
from repro.arch import isa
if {encode_first}:
    isa.Hlt().encoding(), isa.Ret().encoding()
from repro.kernel import System
nop = isa.Nop().encoding().hex()
system = System(profile="full")
digest = hashlib.sha256()
for section in system.kernel_image.sections.values():
    if section.program is not None:
        pa = system.mmu.frame_of(section.base) << 12
        digest.update(system.mmu.phys.read(pa, section.program.size))
print(nop, digest.hexdigest())
"""


def test_encodings_do_not_depend_on_process_history():
    # Opcode bytes come from a fixed mnemonic table, so a process that
    # encodes HLT and RET first lays out the same kernel-text bytes; and
    # MSR/MRS operands do not use the per-process salted str hash.
    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = [
        subprocess.run(
            [sys.executable, "-c",
             _ENCODING_PROBE.format(encode_first=encode_first)],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": salt},
            capture_output=True, text=True, check=True,
        ).stdout
        for encode_first, salt in ((False, "1"), (True, "2"))
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].split()[0] == isa.Nop().encoding().hex()


def test_every_mnemonic_has_a_fixed_opcode():
    table = isa._MNEMONICS
    assert list(table) == sorted(set(table)) and len(table) <= 256
    for instruction in (
        isa.Movz(0, 1), isa.Movk(0, 1), isa.MovReg(0, 1), isa.AddImm(0, 1, 2),
        isa.SubImm(0, 1, 2), isa.AddReg(0, 1, 2), isa.SubReg(0, 1, 2),
        isa.SubsReg(0, 1, 2), isa.SubsImm(0, 1, 2), isa.AndImm(0, 1, 2),
        isa.OrrImm(0, 1, 2), isa.EorReg(0, 1, 2), isa.EorImm(0, 1, 2),
        isa.LslImm(0, 1, 2), isa.LsrImm(0, 1, 2), isa.Adr(0, "x"),
        isa.Bfi(0, 1, 4, 4), isa.Ldr(0, 1, 0), isa.Str(0, 1, 0),
        isa.LdrPost(0, 1, 8), isa.StrPre(0, 1, -8), isa.Ldp(0, 1, 2, 0),
        isa.Stp(0, 1, 2, 0), isa.LdpPost(0, 1, 2, 16),
        isa.StpPre(0, 1, 2, -16), isa.B("x"), isa.Bl("x"), isa.Br(0),
        isa.Blr(0), isa.Ret(), isa.Cbz(0, "x"), isa.Cbnz(0, "x"),
        isa.BCond("eq", "x"), isa.Nop(), isa.Hlt(), isa.Svc(0), isa.Eret(),
        isa.Hvc(0), isa.Isb(), isa.Msr("SCTLR_EL1", 0),
        isa.Mrs(0, "SCTLR_EL1"), isa.HostCall(print, "probe"), isa.Work(1),
        isa.Xpac(0), isa.Xpac(0, data=True), isa.PacGa(0, 1, 2),
        *[cls(key, 0, 1) for cls in (isa.Pac, isa.Aut)
          for key in ("ia", "ib", "da", "db")],
        *[cls(key) for cls in (isa.Pac1716, isa.Aut1716, isa.PacSp,
                               isa.AutSp, isa.RetA) for key in ("ia", "ib")],
        *[cls(key, 0, 1) for cls in (isa.BlrA, isa.BrA)
          for key in ("ia", "ib")],
    ):
        assert instruction.mnemonic in table, instruction.mnemonic
        assert instruction.encoding()[0] == table.index(instruction.mnemonic)
