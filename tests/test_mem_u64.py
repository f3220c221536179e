"""The direct in-page doubleword path against the page-by-page byte path.

``MMU.read_u64``/``write_u64`` translate an in-page doubleword once and
slice its frame directly; these tests run every case twice, on two
identically built MMUs — once through the u64 accessors, once through
``MMU.read``/``MMU.write`` — and require the same value, the same frame
contents (and lazily allocated frames), and the same fault.
"""

import contextlib

import pytest

from repro import hotpath
from repro.arch import isa
from repro.arch.vmsa import VMSAConfig
from repro.errors import SimFault
from repro.mem.mmu import MMU
from repro.mem.pagetable import Permissions
from repro.mem.phys import GENERATION

KERNEL_VA = 0xFFFF_0000_0800_0000
USER_VA = 0x0000_0000_0040_0000
FRAME = 0x100
VALUE = 0x8877_6655_4433_2211

#: Every offset whose doubleword ends at or crosses the page end, plus
#: unaligned in-page ones.
OFFSETS = tuple(range(4080, 4096)) + (0, 1, 3, 7, 13, 2047, 4087)

#: Page layouts: which of the two pages is mapped, and how.
LAYOUTS = (
    "both",
    "first-unmapped",
    "second-unmapped",
    "first-read-only",
    "second-read-only",
    "first-stage2-denied",
    "second-stage2-denied",
)


def _build(layout, el, seeded, caches=True):
    """One MMU over two consecutive pages at EL ``el``'s base address."""
    base = USER_VA if el == 0 else KERNEL_VA
    data = Permissions.user_data() if el == 0 else Permissions.kernel_data()
    read_only = Permissions.user_text() if el == 0 else Permissions.kernel_rodata()
    with contextlib.nullcontext() if caches else hotpath.disabled_caches():
        mmu = MMU(config=VMSAConfig())
    for page in (0, 1):
        which = "first" if page == 0 else "second"
        if layout == f"{which}-unmapped":
            continue
        permissions = read_only if layout == f"{which}-read-only" else data
        mmu.map_range(base + page * 0x1000, 0x1000, FRAME + page, permissions)
        if layout == f"{which}-stage2-denied":
            mmu.stage2.set_frame(FRAME + page, r=False, w=False, x_el1=False)
    if seeded:
        mmu.phys.write(FRAME << 12, bytes(range(256)) * 32)
        mmu.phys.write((FRAME + 1) << 12, bytes(range(255, -1, -1)) * 32)
    return mmu, base


def _outcome(operation):
    try:
        return ("ok", operation())
    except SimFault as fault:
        return (type(fault), fault.address, getattr(fault, "stage", None))


def _frames(mmu):
    return {number: bytes(frame) for number, frame in mmu.phys._frames.items()}


@pytest.mark.parametrize("caches", (True, False), ids=("cached", "cache-free"))
@pytest.mark.parametrize("seeded", (True, False), ids=("seeded", "lazy"))
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("el", (0, 1))
class TestU64MatchesBytePath:
    def test_read(self, el, layout, seeded, caches):
        direct, base = _build(layout, el, seeded, caches)
        bytewise, _ = _build(layout, el, seeded, caches)
        for offset in OFFSETS:
            va = base + offset
            got = _outcome(lambda: direct.read_u64(va, el))
            want = _outcome(
                lambda: int.from_bytes(bytewise.read(va, 8, el), "little")
            )
            assert got == want, hex(offset)
            assert _frames(direct) == _frames(bytewise), hex(offset)

    def test_write(self, el, layout, seeded, caches):
        direct, base = _build(layout, el, seeded, caches)
        bytewise, _ = _build(layout, el, seeded, caches)
        for index, offset in enumerate(OFFSETS):
            va = base + offset
            value = VALUE ^ (index * 0x0101_0101_0101_0101)
            got = _outcome(lambda: direct.write_u64(va, value, el))
            want = _outcome(
                lambda: bytewise.write(va, value.to_bytes(8, "little"), el)
            )
            assert got == want, hex(offset)
            assert _frames(direct) == _frames(bytewise), hex(offset)


class TestU64Faults:
    """Spot checks that the differential cases really cover faults."""

    def test_second_page_fault_names_second_page(self):
        mmu, base = _build("second-unmapped", 1, seeded=False)
        with pytest.raises(SimFault) as info:
            mmu.read_u64(base + 4090, 1)
        assert info.value.address == base + 0x1000

    def test_stage2_fault_reports_stage_2(self):
        mmu, base = _build("first-stage2-denied", 1, seeded=False)
        with pytest.raises(SimFault) as info:
            mmu.write_u64(base + 8, VALUE, 1)
        assert info.value.stage == 2

    def test_crossing_write_faulting_on_second_page_keeps_first(self):
        mmu, base = _build("second-read-only", 1, seeded=False)
        with pytest.raises(SimFault) as info:
            mmu.write_u64(base + 4092, VALUE, 1)
        assert info.value.stage == 1
        assert mmu.read(base + 4092, 4, 1) == VALUE.to_bytes(8, "little")[:4]


class TestU64Generation:
    def _mmu(self):
        mmu, base = _build("both", 1, seeded=False)
        mmu.phys.store_instruction(FRAME << 12, isa.Nop())
        return mmu, base

    def test_write_into_code_frame_bumps_once(self):
        mmu, base = self._mmu()
        mmu.read_u64(base + 0x10, 1)  # warm the translation cache
        before = GENERATION.value
        mmu.write_u64(base + 0x10, VALUE, 1)
        assert GENERATION.value == before + 1

    def test_write_into_data_frame_does_not_bump(self):
        mmu, base = self._mmu()
        mmu.read_u64(base + 0x1010, 1)
        before = GENERATION.value
        mmu.write_u64(base + 0x1010, VALUE, 1)
        assert GENERATION.value == before

    def test_physical_u64_write_into_code_frame_bumps_once(self):
        mmu, _ = self._mmu()
        before = GENERATION.value
        mmu.phys.write_u64((FRAME << 12) + 0x10, VALUE)
        assert GENERATION.value == before + 1
        assert mmu.phys.read_u64((FRAME << 12) + 0x10) == VALUE
