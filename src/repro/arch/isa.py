"""AArch64-subset instruction set with the ARMv8.3 PAuth extension.

Instructions are small Python objects with an :meth:`execute` method;
the CPU fetches them from memory (where they also have a 4-byte
pseudo-encoding so code can be read back as data) and accounts their
cycle cost.  The cost model is a coarse in-order Cortex-A53-like model,
with every PAuth computation costing ``PAUTH_CYCLES`` extra cycles —
exactly the "PA-analogue" the paper substitutes for PAuth instructions
when measuring on ARMv8.0 hardware (Section 6.1).

Register operand conventions:

* integers 0..30 name X registers,
* :data:`~repro.arch.registers.XZR` (31) is the zero register,
* :data:`SP` (32) names the banked stack pointer.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from repro.arch.registers import LR, XZR
from repro.errors import ReproError, UndefinedInstructionFault

__all__ = [
    "SP",
    "PAUTH_CYCLES",
    "Instruction",
    "Movz", "Movk", "MovReg", "MovImm",
    "AddImm", "SubImm", "AddReg", "SubReg", "SubsReg", "SubsImm",
    "AndImm", "OrrImm", "EorReg", "EorImm", "LslImm", "LsrImm",
    "Adr", "Bfi",
    "Ldr", "Str", "LdrPost", "StrPre", "Ldp", "Stp", "LdpPost", "StpPre",
    "B", "Bl", "Br", "Blr", "Ret", "Cbz", "Cbnz", "BCond",
    "Nop", "Hlt", "Svc", "Eret", "Hvc", "Isb", "Msr", "Mrs", "HostCall",
    "Pac", "Aut", "Xpac", "PacGa",
    "Pac1716", "Aut1716", "PacSp", "AutSp",
    "RetA", "BlrA", "BrA",
    "Work",
    "branch_kind", "branch_target", "is_sign", "is_auth", "is_strip",
]

#: Stack-pointer operand sentinel (encoding 31 is context-dependent on
#: real hardware; we disambiguate with a distinct index).
SP = 32

#: Estimated computational overhead of one PAuth instruction — the
#: "PA-analogue" cost from the paper (4 cycles per instruction).
PAUTH_CYCLES = 4

_MASK64 = (1 << 64) - 1

#: Every mnemonic the ISA below can produce, sorted.  An encoding's
#: opcode byte is the mnemonic's index here, so the bytes of a code page
#: never depend on which instructions a process happened to encode first.
_MNEMONICS = (
    "add", "adr", "and", "autda", "autdb", "autia", "autia1716", "autiasp",
    "autib", "autib1716", "autibsp", "b", "b.cond", "bfi", "bl", "blr",
    "blraa", "blrab", "br", "braa", "brab", "cbnz", "cbz", "eor", "eret",
    "hlt", "hostcall", "hvc", "isb", "ldp", "ldr", "lsl", "lsr", "mov",
    "movimm", "movk", "movz", "mrs", "msr", "nop", "orr", "pacda", "pacdb",
    "pacga", "pacia", "pacia1716", "paciasp", "pacib", "pacib1716",
    "pacibsp", "ret", "retaa", "retab", "stp", "str", "sub", "subs", "svc",
    "work", "xpacd", "xpaci",
)

_OPCODE_IDS = {name: index for index, name in enumerate(_MNEMONICS)}


def _opcode_id(name):
    try:
        return _OPCODE_IDS[name]
    except KeyError:
        raise ReproError(f"no opcode for mnemonic {name!r}") from None


def _sysreg_word(name):
    """A 16-bit operand word naming a system register.

    CRC-32 rather than :func:`hash`, whose string hashing is salted per
    process: MSR/MRS bytes must be the same in every run.
    """
    return zlib.crc32(name.encode()) & 0xFFFF


def _s64(value):
    """Interpret a 64-bit value as signed."""
    value &= _MASK64
    return value - (1 << 64) if value >> 63 else value


class Instruction:
    """Base class: one 4-byte instruction."""

    mnemonic = "???"
    cycles = 1

    def cost_on(self, cpu):
        """Cycle cost on a specific core (feature-dependent)."""
        return self.cycles

    def execute(self, cpu):
        """Run the instruction; return the next PC or None (PC += 4)."""
        raise NotImplementedError

    def operand_words(self):
        """Up to three 16-bit words summarising operands (for encoding)."""
        return (0, 0, 0)

    def encoding(self):
        """Deterministic 4-byte pseudo-encoding.

        The first byte identifies the opcode; the remainder packs the
        operand summary.  MOVZ/MOVK immediates are fully visible in the
        encoding — which is precisely why the key-setter page must be
        execute-only.
        """
        words = self.operand_words()
        packed = (words[0] & 0xFFFF) ^ ((words[1] & 0xFF) << 16) ^ (
            (words[2] & 0xFF) << 8
        )
        return struct.pack(
            "<BBH",
            _opcode_id(self.mnemonic),
            (packed >> 16) & 0xFF,
            packed & 0xFFFF,
        )

    def text(self):
        return self.mnemonic

    def __repr__(self):
        return f"<{self.text()}>"


# ---------------------------------------------------------------------------
# moves and arithmetic
# ---------------------------------------------------------------------------


@dataclass(repr=False)
class Movz(Instruction):
    """MOVZ Xd, #imm16, LSL #shift — zero the register, set one slice."""

    rd: int
    imm16: int
    shift: int = 0
    mnemonic = "movz"

    def execute(self, cpu):
        cpu.regs.write(self.rd, (self.imm16 & 0xFFFF) << self.shift)

    def operand_words(self):
        return (self.imm16, self.rd, self.shift // 16)

    def text(self):
        return f"movz x{self.rd}, #{self.imm16:#x}, lsl #{self.shift}"


@dataclass(repr=False)
class Movk(Instruction):
    """MOVK Xd, #imm16, LSL #shift — keep other bits, set one slice."""

    rd: int
    imm16: int
    shift: int = 0
    mnemonic = "movk"

    def execute(self, cpu):
        old = cpu.regs.read(self.rd)
        mask = 0xFFFF << self.shift
        cpu.regs.write(
            self.rd, (old & ~mask) | ((self.imm16 & 0xFFFF) << self.shift)
        )

    def operand_words(self):
        return (self.imm16, self.rd, self.shift // 16)

    def text(self):
        return f"movk x{self.rd}, #{self.imm16:#x}, lsl #{self.shift}"


@dataclass(repr=False)
class MovReg(Instruction):
    """MOV Xd, Xn (also moves to/from SP)."""

    rd: int
    rn: int
    mnemonic = "mov"

    def execute(self, cpu):
        cpu.write_operand(self.rd, cpu.read_operand(self.rn))

    def operand_words(self):
        return (self.rn, self.rd, 0)

    def text(self):
        return f"mov {_reg(self.rd)}, {_reg(self.rn)}"


class MovImm(Instruction):
    """Pseudo-instruction: load an arbitrary 64-bit immediate.

    Expands at assembly time into MOVZ + up to three MOVK, so it never
    appears in assembled images — it exists for host-built code only.
    """

    mnemonic = "movimm"

    def __init__(self, rd, value):
        self.rd = rd
        self.value = value & _MASK64

    def execute(self, cpu):
        cpu.regs.write(self.rd, self.value)

    def expand(self):
        """The MOVZ/MOVK sequence equivalent to this pseudo-op."""
        parts = [(self.value >> shift) & 0xFFFF for shift in (0, 16, 32, 48)]
        out = [Movz(self.rd, parts[0], 0)]
        for index, part in enumerate(parts[1:], start=1):
            out.append(Movk(self.rd, part, 16 * index))
        return out

    def text(self):
        return f"movimm x{self.rd}, #{self.value:#x}"


def _reg(index):
    if index == SP:
        return "sp"
    if index == XZR:
        return "xzr"
    return f"x{index}"


@dataclass(repr=False)
class AddImm(Instruction):
    """ADD Xd, Xn, #imm (SP allowed both sides)."""

    rd: int
    rn: int
    imm: int
    mnemonic = "add"

    def execute(self, cpu):
        cpu.write_operand(self.rd, cpu.read_operand(self.rn) + self.imm)

    def operand_words(self):
        return (self.imm & 0xFFFF, self.rd, self.rn)

    def text(self):
        return f"add {_reg(self.rd)}, {_reg(self.rn)}, #{self.imm:#x}"


@dataclass(repr=False)
class SubImm(AddImm):
    mnemonic = "sub"

    def execute(self, cpu):
        cpu.write_operand(self.rd, cpu.read_operand(self.rn) - self.imm)

    def text(self):
        return f"sub {_reg(self.rd)}, {_reg(self.rn)}, #{self.imm:#x}"


@dataclass(repr=False)
class AddReg(Instruction):
    rd: int
    rn: int
    rm: int
    mnemonic = "add"

    def execute(self, cpu):
        cpu.write_operand(
            self.rd, cpu.read_operand(self.rn) + cpu.read_operand(self.rm)
        )

    def operand_words(self):
        return (self.rm, self.rd, self.rn)

    def text(self):
        return f"add {_reg(self.rd)}, {_reg(self.rn)}, {_reg(self.rm)}"


@dataclass(repr=False)
class SubReg(AddReg):
    mnemonic = "sub"

    def execute(self, cpu):
        cpu.write_operand(
            self.rd, cpu.read_operand(self.rn) - cpu.read_operand(self.rm)
        )

    def text(self):
        return f"sub {_reg(self.rd)}, {_reg(self.rn)}, {_reg(self.rm)}"


def _set_flags(cpu, result, carry, overflow):
    cpu.nzcv = (
        bool(result >> 63),
        (result & _MASK64) == 0,
        carry,
        overflow,
    )


@dataclass(repr=False)
class SubsReg(Instruction):
    """SUBS / CMP: subtract and set NZCV."""

    rd: int
    rn: int
    rm: int
    mnemonic = "subs"

    def execute(self, cpu):
        a = cpu.read_operand(self.rn)
        b = cpu.read_operand(self.rm)
        result = (a - b) & _MASK64
        carry = a >= b
        overflow = (_s64(a) - _s64(b)) != _s64(result)
        _set_flags(cpu, result, carry, overflow)
        cpu.write_operand(self.rd, result)

    def operand_words(self):
        return (self.rm, self.rd, self.rn)

    def text(self):
        if self.rd == XZR:
            return f"cmp {_reg(self.rn)}, {_reg(self.rm)}"
        return f"subs {_reg(self.rd)}, {_reg(self.rn)}, {_reg(self.rm)}"


@dataclass(repr=False)
class SubsImm(Instruction):
    rd: int
    rn: int
    imm: int
    mnemonic = "subs"

    def execute(self, cpu):
        a = cpu.read_operand(self.rn)
        b = self.imm & _MASK64
        result = (a - b) & _MASK64
        carry = a >= b
        overflow = (_s64(a) - _s64(b)) != _s64(result)
        _set_flags(cpu, result, carry, overflow)
        cpu.write_operand(self.rd, result)

    def operand_words(self):
        return (self.imm & 0xFFFF, self.rd, self.rn)

    def text(self):
        if self.rd == XZR:
            return f"cmp {_reg(self.rn)}, #{self.imm:#x}"
        return f"subs {_reg(self.rd)}, {_reg(self.rn)}, #{self.imm:#x}"


@dataclass(repr=False)
class AndImm(Instruction):
    rd: int
    rn: int
    imm: int
    mnemonic = "and"

    def execute(self, cpu):
        cpu.write_operand(self.rd, cpu.read_operand(self.rn) & self.imm)

    def operand_words(self):
        return (self.imm & 0xFFFF, self.rd, self.rn)

    def text(self):
        return f"and {_reg(self.rd)}, {_reg(self.rn)}, #{self.imm:#x}"


@dataclass(repr=False)
class OrrImm(AndImm):
    mnemonic = "orr"

    def execute(self, cpu):
        cpu.write_operand(self.rd, cpu.read_operand(self.rn) | self.imm)

    def text(self):
        return f"orr {_reg(self.rd)}, {_reg(self.rn)}, #{self.imm:#x}"


@dataclass(repr=False)
class EorReg(Instruction):
    rd: int
    rn: int
    rm: int
    mnemonic = "eor"

    def execute(self, cpu):
        cpu.write_operand(
            self.rd, cpu.read_operand(self.rn) ^ cpu.read_operand(self.rm)
        )

    def operand_words(self):
        return (self.rm, self.rd, self.rn)

    def text(self):
        return f"eor {_reg(self.rd)}, {_reg(self.rn)}, {_reg(self.rm)}"


@dataclass(repr=False)
class EorImm(AndImm):
    mnemonic = "eor"

    def execute(self, cpu):
        cpu.write_operand(self.rd, cpu.read_operand(self.rn) ^ self.imm)

    def text(self):
        return f"eor {_reg(self.rd)}, {_reg(self.rn)}, #{self.imm:#x}"


@dataclass(repr=False)
class LslImm(Instruction):
    rd: int
    rn: int
    shift: int
    mnemonic = "lsl"

    def execute(self, cpu):
        cpu.write_operand(
            self.rd, (cpu.read_operand(self.rn) << self.shift) & _MASK64
        )

    def operand_words(self):
        return (self.shift, self.rd, self.rn)

    def text(self):
        return f"lsl {_reg(self.rd)}, {_reg(self.rn)}, #{self.shift}"


@dataclass(repr=False)
class LsrImm(LslImm):
    mnemonic = "lsr"

    def execute(self, cpu):
        cpu.write_operand(self.rd, cpu.read_operand(self.rn) >> self.shift)

    def text(self):
        return f"lsr {_reg(self.rd)}, {_reg(self.rn)}, #{self.shift}"


class Adr(Instruction):
    """ADR Xd, label — PC-relative address (resolved at assembly)."""

    mnemonic = "adr"

    def __init__(self, rd, label):
        self.rd = rd
        self.label = label
        self.target = None

    def execute(self, cpu):
        if self.target is None:
            raise ReproError(f"adr target {self.label!r} unresolved")
        cpu.regs.write(self.rd, self.target)

    def operand_words(self):
        return ((self.target or 0) & 0xFFFF, self.rd, 0)

    def text(self):
        return f"adr x{self.rd}, {self.label}"


@dataclass(repr=False)
class Bfi(Instruction):
    """BFI Xd, Xn, #lsb, #width — bit-field insert.

    The Camouflage return-address modifier (Listing 3) uses
    ``bfi ip0, ip1, #32, #32`` to pack the low SP bits above the low
    function-address bits.  Note AArch64 forbids SP as an operand here —
    the reason Listing 3 needs the extra ``mov ip1, sp``.
    """

    rd: int
    rn: int
    lsb: int
    width: int
    mnemonic = "bfi"

    def execute(self, cpu):
        if self.rn == SP or self.rd == SP:
            raise UndefinedInstructionFault(
                "SP is not a valid BFI operand", el=cpu.regs.current_el
            )
        mask = ((1 << self.width) - 1) << self.lsb
        field = (cpu.regs.read(self.rn) & ((1 << self.width) - 1)) << self.lsb
        cpu.regs.write(
            self.rd, (cpu.regs.read(self.rd) & ~mask) | field
        )

    def operand_words(self):
        return ((self.lsb << 8) | self.width, self.rd, self.rn)

    def text(self):
        return f"bfi x{self.rd}, x{self.rn}, #{self.lsb}, #{self.width}"


# ---------------------------------------------------------------------------
# loads and stores
# ---------------------------------------------------------------------------


@dataclass(repr=False)
class Ldr(Instruction):
    """LDR Xt, [Xn, #imm]"""

    rt: int
    rn: int
    imm: int = 0
    mnemonic = "ldr"
    cycles = 2

    def execute(self, cpu):
        address = (cpu.read_operand(self.rn) + self.imm) & _MASK64
        cpu.regs.write(self.rt, cpu.load_u64(address))

    def operand_words(self):
        return (self.imm & 0xFFFF, self.rt, self.rn)

    def text(self):
        return f"ldr x{self.rt}, [{_reg(self.rn)}, #{self.imm:#x}]"


@dataclass(repr=False)
class Str(Ldr):
    mnemonic = "str"

    def execute(self, cpu):
        address = (cpu.read_operand(self.rn) + self.imm) & _MASK64
        cpu.store_u64(address, cpu.read_operand(self.rt))

    def text(self):
        return f"str x{self.rt}, [{_reg(self.rn)}, #{self.imm:#x}]"


@dataclass(repr=False)
class LdrPost(Instruction):
    """LDR Xt, [Xn], #imm — post-indexed."""

    rt: int
    rn: int
    imm: int
    mnemonic = "ldr"
    cycles = 2

    def execute(self, cpu):
        address = cpu.read_operand(self.rn)
        cpu.regs.write(self.rt, cpu.load_u64(address))
        cpu.write_operand(self.rn, address + self.imm)

    def operand_words(self):
        return (self.imm & 0xFFFF, self.rt, self.rn)

    def text(self):
        return f"ldr x{self.rt}, [{_reg(self.rn)}], #{self.imm:#x}"


@dataclass(repr=False)
class StrPre(Instruction):
    """STR Xt, [Xn, #imm]! — pre-indexed."""

    rt: int
    rn: int
    imm: int
    mnemonic = "str"
    cycles = 2

    def execute(self, cpu):
        address = (cpu.read_operand(self.rn) + self.imm) & _MASK64
        cpu.store_u64(address, cpu.read_operand(self.rt))
        cpu.write_operand(self.rn, address)

    def operand_words(self):
        return (self.imm & 0xFFFF, self.rt, self.rn)

    def text(self):
        return f"str x{self.rt}, [{_reg(self.rn)}, #{self.imm:#x}]!"


@dataclass(repr=False)
class Ldp(Instruction):
    """LDP Xt1, Xt2, [Xn, #imm]"""

    rt1: int
    rt2: int
    rn: int
    imm: int = 0
    mnemonic = "ldp"
    cycles = 2

    def execute(self, cpu):
        base = (cpu.read_operand(self.rn) + self.imm) & _MASK64
        cpu.regs.write(self.rt1, cpu.load_u64(base))
        cpu.regs.write(self.rt2, cpu.load_u64(base + 8))

    def operand_words(self):
        return (self.imm & 0xFFFF, self.rt1, self.rt2)

    def text(self):
        return (
            f"ldp x{self.rt1}, x{self.rt2}, [{_reg(self.rn)}, #{self.imm:#x}]"
        )


@dataclass(repr=False)
class Stp(Ldp):
    mnemonic = "stp"

    def execute(self, cpu):
        base = (cpu.read_operand(self.rn) + self.imm) & _MASK64
        cpu.store_u64(base, cpu.read_operand(self.rt1))
        cpu.store_u64(base + 8, cpu.read_operand(self.rt2))

    def text(self):
        return (
            f"stp x{self.rt1}, x{self.rt2}, [{_reg(self.rn)}, #{self.imm:#x}]"
        )


@dataclass(repr=False)
class LdpPost(Instruction):
    """LDP Xt1, Xt2, [Xn], #imm — the canonical epilogue load."""

    rt1: int
    rt2: int
    rn: int
    imm: int
    mnemonic = "ldp"
    cycles = 2

    def execute(self, cpu):
        base = cpu.read_operand(self.rn)
        cpu.regs.write(self.rt1, cpu.load_u64(base))
        cpu.regs.write(self.rt2, cpu.load_u64(base + 8))
        cpu.write_operand(self.rn, base + self.imm)

    def operand_words(self):
        return (self.imm & 0xFFFF, self.rt1, self.rt2)

    def text(self):
        return (
            f"ldp x{self.rt1}, x{self.rt2}, [{_reg(self.rn)}], #{self.imm:#x}"
        )


@dataclass(repr=False)
class StpPre(Instruction):
    """STP Xt1, Xt2, [Xn, #imm]! — the canonical prologue store."""

    rt1: int
    rt2: int
    rn: int
    imm: int
    mnemonic = "stp"
    cycles = 2

    def execute(self, cpu):
        base = (cpu.read_operand(self.rn) + self.imm) & _MASK64
        cpu.store_u64(base, cpu.read_operand(self.rt1))
        cpu.store_u64(base + 8, cpu.read_operand(self.rt2))
        cpu.write_operand(self.rn, base)

    def operand_words(self):
        return (self.imm & 0xFFFF, self.rt1, self.rt2)

    def text(self):
        return (
            f"stp x{self.rt1}, x{self.rt2}, [{_reg(self.rn)}, "
            f"#{self.imm:#x}]!"
        )


# ---------------------------------------------------------------------------
# branches
# ---------------------------------------------------------------------------


class _LabelBranch(Instruction):
    def __init__(self, label):
        self.label = label
        self.target = None

    def operand_words(self):
        return ((self.target or 0) & 0xFFFF, 0, 0)

    def text(self):
        return f"{self.mnemonic} {self.label}"


class B(_LabelBranch):
    mnemonic = "b"

    def execute(self, cpu):
        return self.target


class Bl(_LabelBranch):
    """BL label — saves the return address in LR."""

    mnemonic = "bl"

    def execute(self, cpu):
        cpu.regs.write(LR, cpu.regs.pc + 4)
        return self.target


@dataclass(repr=False)
class Br(Instruction):
    """BR Xn — indirect jump (a JOP target when unprotected)."""

    rn: int
    mnemonic = "br"

    def execute(self, cpu):
        return cpu.regs.read(self.rn)

    def operand_words(self):
        return (0, self.rn, 0)

    def text(self):
        return f"br x{self.rn}"


@dataclass(repr=False)
class Blr(Instruction):
    """BLR Xn — indirect call."""

    rn: int
    mnemonic = "blr"

    def execute(self, cpu):
        cpu.regs.write(LR, cpu.regs.pc + 4)
        return cpu.regs.read(self.rn)

    def operand_words(self):
        return (0, self.rn, 0)

    def text(self):
        return f"blr x{self.rn}"


@dataclass(repr=False)
class Ret(Instruction):
    """RET — return through LR (the ROP pivot when unprotected)."""

    rn: int = LR
    mnemonic = "ret"

    def execute(self, cpu):
        return cpu.regs.read(self.rn)

    def text(self):
        return "ret" if self.rn == LR else f"ret x{self.rn}"


class Cbz(_LabelBranch):
    mnemonic = "cbz"

    def __init__(self, rn, label):
        super().__init__(label)
        self.rn = rn

    def execute(self, cpu):
        if cpu.regs.read(self.rn) == 0:
            return self.target
        return None

    def text(self):
        return f"cbz x{self.rn}, {self.label}"


class Cbnz(Cbz):
    mnemonic = "cbnz"

    def execute(self, cpu):
        if cpu.regs.read(self.rn) != 0:
            return self.target
        return None

    def text(self):
        return f"cbnz x{self.rn}, {self.label}"


_CONDITIONS = {
    "eq": lambda n, z, c, v: z,
    "ne": lambda n, z, c, v: not z,
    "lt": lambda n, z, c, v: n != v,
    "ge": lambda n, z, c, v: n == v,
    "gt": lambda n, z, c, v: (not z) and n == v,
    "le": lambda n, z, c, v: z or n != v,
    "cs": lambda n, z, c, v: c,
    "cc": lambda n, z, c, v: not c,
    "mi": lambda n, z, c, v: n,
    "pl": lambda n, z, c, v: not n,
}


class BCond(_LabelBranch):
    """B.cond label"""

    mnemonic = "b.cond"

    def __init__(self, condition, label):
        super().__init__(label)
        if condition not in _CONDITIONS:
            raise ReproError(f"unknown condition {condition!r}")
        self.condition = condition

    def execute(self, cpu):
        if _CONDITIONS[self.condition](*cpu.nzcv):
            return self.target
        return None

    def text(self):
        return f"b.{self.condition} {self.label}"


# ---------------------------------------------------------------------------
# system
# ---------------------------------------------------------------------------


class Nop(Instruction):
    mnemonic = "nop"

    def execute(self, cpu):
        pass


class Hlt(Instruction):
    """HLT — stop the simulation (used as program exit)."""

    mnemonic = "hlt"

    def execute(self, cpu):
        cpu.halted = True
        return cpu.regs.pc  # freeze PC


@dataclass(repr=False)
class Svc(Instruction):
    """SVC #imm — supervisor call (syscall entry)."""

    imm: int = 0
    mnemonic = "svc"
    cycles = 4

    def execute(self, cpu):
        cpu.take_exception(kind="svc", syndrome=self.imm)
        return cpu.regs.pc  # PC already redirected by the exception

    def operand_words(self):
        return (self.imm & 0xFFFF, 0, 0)

    def text(self):
        return f"svc #{self.imm:#x}"


class Eret(Instruction):
    """ERET — return from exception to ELR, restoring the previous EL."""

    mnemonic = "eret"
    cycles = 4

    def execute(self, cpu):
        return cpu.exception_return()


@dataclass(repr=False)
class Hvc(Instruction):
    """HVC #imm — hypervisor call (EL1 -> EL2).

    Used only by the EL2-trap key-management *ablation* (the Ferri et
    al. alternative the paper's Related Work discusses): the hypervisor
    service itself is host-modelled, and its round-trip cost is added
    by the handler, because "the traps ... are not intended and
    optimized for frequent occurrence" (Section 7).
    """

    imm: int = 0
    mnemonic = "hvc"
    cycles = 4

    def execute(self, cpu):
        if cpu.hvc_hook is None:
            raise UndefinedInstructionFault(
                "HVC with no hypervisor service", el=cpu.regs.current_el
            )
        cpu.hvc_hook(cpu, self.imm)

    def operand_words(self):
        return (self.imm & 0xFFFF, 0, 0)

    def text(self):
        return f"hvc #{self.imm:#x}"


class Isb(Instruction):
    mnemonic = "isb"
    cycles = 4

    def execute(self, cpu):
        pass


@dataclass(repr=False)
class Msr(Instruction):
    """MSR sysreg, Xn — system register write.

    Writes to PAuth key registers cost extra cycles (the paper measures
    about 9 cycles per 128-bit key, i.e. per two MSRs).  Writes to
    hypervisor-locked registers trap to EL2.
    """

    sysreg: str
    rn: int
    mnemonic = "msr"
    cycles = 2
    key_write_cycles = PAUTH_CYCLES

    def execute(self, cpu):
        cpu.write_sysreg_checked(self.sysreg, cpu.regs.read(self.rn))

    def operand_words(self):
        return (_sysreg_word(self.sysreg), self.rn, 0)

    def text(self):
        return f"msr {self.sysreg}, x{self.rn}"


@dataclass(repr=False)
class Mrs(Instruction):
    """MRS Xd, sysreg — system register read.

    MRS immediately encodes the register it reads, so a static scan can
    reject kernel or module code reading the key registers (paper
    Section 4.1 / 6.2.2).
    """

    rd: int
    sysreg: str
    mnemonic = "mrs"
    cycles = 2

    def execute(self, cpu):
        cpu.regs.write(self.rd, cpu.read_sysreg_checked(self.sysreg))

    def operand_words(self):
        return (_sysreg_word(self.sysreg), self.rd, 0)

    def text(self):
        return f"mrs x{self.rd}, {self.sysreg}"


class HostCall(Instruction):
    """Simulation-only escape hatch: run a host Python callable.

    Costs zero cycles and never appears on measured fast paths; used by
    the mini-kernel for bookkeeping that the paper's artifact does in C
    we do not need to model cycle-accurately (e.g. scheduler policy).
    """

    mnemonic = "hostcall"
    cycles = 0

    def __init__(self, fn, label="host"):
        self.fn = fn
        self.label = label

    def execute(self, cpu):
        return self.fn(cpu)

    def text(self):
        return f"hostcall {self.label}"


@dataclass(repr=False)
class Work(Instruction):
    """Pseudo-instruction: ``units`` cycles of pure computation.

    Stands in for straight-line arithmetic in synthetic workloads so
    instruction-mix ratios can be controlled precisely without
    assembling thousands of ALU ops.
    """

    units: int = 1
    mnemonic = "work"

    @property
    def cycles(self):
        return self.units

    def execute(self, cpu):
        pass

    def operand_words(self):
        return (self.units & 0xFFFF, 0, 0)

    def text(self):
        return f"work #{self.units}"


# ---------------------------------------------------------------------------
# pointer authentication
# ---------------------------------------------------------------------------


class _PAuthInstruction(Instruction):
    """Base for instructions that compute a PAC (cost: PA-analogue)."""

    cycles = PAUTH_CYCLES
    #: NOP-compatible on pre-8.3 cores? (HINT-space encodings only)
    hint_space = False

    def cost_on(self, cpu):
        """HINT-space encodings retire as 1-cycle NOPs on v8.0 cores."""
        if self.hint_space and not cpu.has_pauth:
            return 1
        return self.cycles

    def _require_pauth(self, cpu):
        if cpu.has_pauth:
            return True
        if self.hint_space:
            return False  # behaves as NOP
        raise UndefinedInstructionFault(
            f"{self.mnemonic} undefined without FEAT_PAuth",
            el=cpu.regs.current_el,
        )


@dataclass(repr=False)
class Pac(_PAuthInstruction):
    """PACIA/PACIB/PACDA/PACDB Xd, Xn — sign Xd with modifier Xn."""

    key: str
    rd: int
    rn: int

    @property
    def mnemonic(self):
        return f"pac{self.key}"

    def execute(self, cpu):
        if not self._require_pauth(cpu):
            return
        modifier = cpu.read_operand(self.rn)
        cpu.regs.write(self.rd, cpu.pac_add(self.key, cpu.regs.read(self.rd), modifier))

    def operand_words(self):
        return (ord(self.key[0]) << 8 | ord(self.key[1]), self.rd, self.rn)

    def text(self):
        return f"pac{self.key} x{self.rd}, {_reg(self.rn)}"


@dataclass(repr=False)
class Aut(_PAuthInstruction):
    """AUTIA/AUTIB/AUTDA/AUTDB Xd, Xn — authenticate Xd with Xn."""

    key: str
    rd: int
    rn: int

    @property
    def mnemonic(self):
        return f"aut{self.key}"

    def execute(self, cpu):
        if not self._require_pauth(cpu):
            return
        modifier = cpu.read_operand(self.rn)
        cpu.regs.write(
            self.rd, cpu.pac_auth(self.key, cpu.regs.read(self.rd), modifier)
        )

    def operand_words(self):
        return (ord(self.key[0]) << 8 | ord(self.key[1]), self.rd, self.rn)

    def text(self):
        return f"aut{self.key} x{self.rd}, {_reg(self.rn)}"


@dataclass(repr=False)
class Xpac(_PAuthInstruction):
    """XPACI/XPACD Xd — strip the PAC (debug aid)."""

    rd: int
    data: bool = False

    @property
    def mnemonic(self):
        return "xpacd" if self.data else "xpaci"

    def execute(self, cpu):
        if not self._require_pauth(cpu):
            return
        cpu.regs.write(self.rd, cpu.pac_strip(cpu.regs.read(self.rd)))

    def operand_words(self):
        return (int(self.data), self.rd, 0)

    def text(self):
        return f"{self.mnemonic} x{self.rd}"


@dataclass(repr=False)
class PacGa(_PAuthInstruction):
    """PACGA Xd, Xn, Xm — generic 32-bit MAC of Xn under modifier Xm."""

    rd: int
    rn: int
    rm: int
    mnemonic = "pacga"

    def execute(self, cpu):
        if not self._require_pauth(cpu):
            return
        cpu.regs.write(
            self.rd,
            cpu.pac_generic(cpu.regs.read(self.rn), cpu.read_operand(self.rm)),
        )

    def operand_words(self):
        return (self.rm, self.rd, self.rn)

    def text(self):
        return f"pacga x{self.rd}, x{self.rn}, {_reg(self.rm)}"


@dataclass(repr=False)
class Pac1716(_PAuthInstruction):
    """PACIA1716/PACIB1716 — sign X17 with modifier X16.

    These live in the HINT space: on pre-ARMv8.3 cores they execute as
    NOPs, which is the basis of the paper's binary backwards
    compatibility (Section 5.5).  No data-key variants exist.
    """

    key: str  # "ia" or "ib"
    hint_space = True

    @property
    def mnemonic(self):
        return f"pac{self.key}1716"

    def execute(self, cpu):
        if not self._require_pauth(cpu):
            return
        cpu.regs.write(
            17, cpu.pac_add(self.key, cpu.regs.read(17), cpu.regs.read(16))
        )

    def text(self):
        return self.mnemonic


@dataclass(repr=False)
class Aut1716(Pac1716):
    @property
    def mnemonic(self):
        return f"aut{self.key}1716"

    def execute(self, cpu):
        if not self._require_pauth(cpu):
            return
        cpu.regs.write(
            17, cpu.pac_auth(self.key, cpu.regs.read(17), cpu.regs.read(16))
        )


@dataclass(repr=False)
class PacSp(_PAuthInstruction):
    """PACIASP/PACIBSP — sign LR with SP as modifier (HINT space).

    This is the plain compiler-supported scheme (Listing 2); its
    modifier weakness is what Section 4.2 hardens.
    """

    key: str = "ia"
    hint_space = True

    @property
    def mnemonic(self):
        return f"pac{self.key}sp"

    def execute(self, cpu):
        if not self._require_pauth(cpu):
            return
        cpu.regs.write(
            LR, cpu.pac_add(self.key, cpu.regs.read(LR), cpu.regs.sp)
        )

    def text(self):
        return self.mnemonic


@dataclass(repr=False)
class AutSp(PacSp):
    @property
    def mnemonic(self):
        return f"aut{self.key}sp"

    def execute(self, cpu):
        if not self._require_pauth(cpu):
            return
        cpu.regs.write(
            LR, cpu.pac_auth(self.key, cpu.regs.read(LR), cpu.regs.sp)
        )


@dataclass(repr=False)
class RetA(_PAuthInstruction):
    """RETAA/RETAB — authenticate LR against SP and return."""

    key: str = "ia"
    cycles = 1 + PAUTH_CYCLES

    @property
    def mnemonic(self):
        return f"reta{self.key[1]}"

    def execute(self, cpu):
        self._require_pauth(cpu)  # not HINT space: undefined on v8.0
        return cpu.pac_auth(self.key, cpu.regs.read(LR), cpu.regs.sp)

    def text(self):
        return self.mnemonic


@dataclass(repr=False)
class BlrA(_PAuthInstruction):
    """BLRAA/BLRAB Xn, Xm — authenticated indirect call."""

    key: str
    rn: int
    rm: int
    cycles = 1 + PAUTH_CYCLES

    @property
    def mnemonic(self):
        return f"blra{self.key[1]}"

    def execute(self, cpu):
        self._require_pauth(cpu)
        cpu.regs.write(LR, cpu.regs.pc + 4)
        return cpu.pac_auth(
            self.key, cpu.regs.read(self.rn), cpu.read_operand(self.rm)
        )

    def operand_words(self):
        return (self.rm, self.rn, 0)

    def text(self):
        return f"{self.mnemonic} x{self.rn}, {_reg(self.rm)}"


@dataclass(repr=False)
class BrA(BlrA):
    """BRAA/BRAB Xn, Xm — authenticated indirect jump."""

    @property
    def mnemonic(self):
        return f"bra{self.key[1]}"

    def execute(self, cpu):
        self._require_pauth(cpu)
        return cpu.pac_auth(
            self.key, cpu.regs.read(self.rn), cpu.read_operand(self.rm)
        )


# ---------------------------------------------------------------------------
# static classification helpers (CFG recovery, verifier, gadget census)
# ---------------------------------------------------------------------------

#: Control-transfer categories produced by :func:`branch_kind`.
#:
#: ``jump``            unconditional PC-relative branch (B)
#: ``cond``            conditional branch (B.cond/CBZ/CBNZ): target + fall-through
#: ``call``            direct call (BL): records LR, falls through on return
#: ``indirect-call``   BLR / BLRA*
#: ``indirect-jump``   BR / BRA*
#: ``ret``             RET / RETA*
#: ``exception``       SVC/HVC (synchronous exception, falls through on ERET)
#: ``exception-return``  ERET
#: ``halt``            HLT (simulation stop)
_BRANCH_KINDS = (
    (B, "jump"),
    ((BCond, Cbz, Cbnz), "cond"),
    (Bl, "call"),
    ((Blr, BlrA), "indirect-call"),
    ((Br, BrA), "indirect-jump"),
    ((Ret, RetA), "ret"),
    ((Svc, Hvc), "exception"),
    (Eret, "exception-return"),
    (Hlt, "halt"),
)


def branch_kind(instruction):
    """Classify a control-transfer instruction; None for straight-line.

    Order matters: CBZ/CBNZ subclass the label-branch base and BLRA*/
    BRA* share a base class, so the table is checked most-specific
    first.
    """
    for classes, kind in _BRANCH_KINDS:
        if isinstance(instruction, classes):
            return kind
    return None


def branch_target(instruction):
    """Static target address of a direct branch, or None.

    Only meaningful after assembly (label resolution); indirect
    branches and returns have no static target by definition.
    """
    if isinstance(instruction, _LabelBranch):
        return instruction.target
    return None


def is_sign(instruction):
    """True for instructions that *add* a PAC (PAC*, PACGA included)."""
    return isinstance(instruction, (Pac, PacSp, Pac1716, PacGa)) and not isinstance(
        instruction, (Aut, AutSp, Aut1716)
    )


def is_auth(instruction):
    """True for instructions that *check* a PAC.

    The combined branch forms (RETA*, BLRA*, BRA*) authenticate as part
    of the transfer and count too — a gadget window containing any of
    these is dead to an attacker without the key.
    """
    return isinstance(instruction, (Aut, AutSp, Aut1716, RetA, BlrA, BrA))


def is_strip(instruction):
    """True for XPACI/XPACD — removes a PAC *without* the key.

    A reachable strip instruction is a gadget that defeats pointer
    authentication wholesale (paper Section 6.2.2), which is why
    loadable modules must not carry one.
    """
    return isinstance(instruction, Xpac)
