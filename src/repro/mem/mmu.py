"""Two-stage MMU combining the kernel's stage 1 with the hypervisor's
stage 2, plus canonical-address checking.

Every access first validates the virtual address shape (Table 1): a
non-canonical pointer — e.g. one poisoned by a failed AUT* — takes a
:class:`~repro.errors.TranslationFault` before translation is even
attempted.  Then the stage-1 tables (TTBR0 for user addresses, TTBR1 for
kernel addresses) translate and check EL permissions, and finally the
stage-2 table filters by physical frame.
"""

from __future__ import annotations

from repro.arch.vmsa import AddressKind, VMSAConfig
from repro.errors import PermissionFault, TranslationFault
from repro.hotpath import caches_enabled
from repro.mem.pagetable import Stage1Table, Stage2Table
from repro.mem.phys import GENERATION, PhysicalMemory

__all__ = ["MMU", "AddressSpace"]

_MASK64 = (1 << 64) - 1


class AddressSpace:
    """A pair of stage-1 tables: user (TTBR0) and kernel (TTBR1).

    All kernel tasks share the kernel table; each user process has its
    own user table.
    """

    def __init__(self, page_shift=12):
        self.user = Stage1Table(page_shift)
        self.kernel = Stage1Table(page_shift)

    def table_for(self, kind):
        return self.kernel if kind == AddressKind.KERNEL else self.user


class MMU:
    """Translates and checks one core's memory accesses."""

    def __init__(self, phys=None, config=None, stage2=None):
        self.config = config or VMSAConfig()
        self.phys = phys or PhysicalMemory(self.config.page_shift)
        self._stage2 = stage2 or Stage2Table()
        self.address_space = AddressSpace(self.config.page_shift)
        self.page_shift = self.config.page_shift
        self.page_size = 1 << self.page_shift
        # Host-side translation cache (see repro.hotpath): successful
        # (page, access, EL) walks memoised until GENERATION moves.
        # Faults are never cached, so the faulting paths re-walk and
        # behave identically with the cache on or off.  A cache-free
        # MMU keeps its stamp stale, so every translate walks.
        self._cache_walks = caches_enabled()
        self._walk_cache = {}
        self._walk_stamp = -1

    @property
    def stage2(self):
        return self._stage2

    @stage2.setter
    def stage2(self, table):
        # The hypervisor replaces the whole table at enable time.
        self._stage2 = table
        GENERATION.bump()

    # -- translation ------------------------------------------------------------

    def translate(self, va, access, el):
        """Translate ``va`` for ``access`` ('r'/'w'/'x') at ``el``.

        Returns the physical address, or raises a fault mirroring the
        architectural behaviour.
        """
        va &= _MASK64
        generation = GENERATION.value
        if generation != self._walk_stamp:
            self._walk_cache.clear()
            self._walk_stamp = generation if self._cache_walks else -1
        key = (va >> self.page_shift, access, el)
        base = self._walk_cache.get(key, -1)
        if base >= 0:
            return base | (va & (self.page_size - 1))
        pa = self._translate_walk(va, access, el)
        self._walk_cache[key] = pa & ~(self.page_size - 1)
        return pa

    def _translate_walk(self, va, access, el):
        """The full (uncached) two-stage walk."""
        kind = self.config.classify(va)
        if kind == AddressKind.INVALID:
            raise TranslationFault(
                f"non-canonical address {va:#x}", address=va, el=el
            )
        if kind == AddressKind.KERNEL and el == 0:
            raise PermissionFault(
                f"EL0 access to kernel address {va:#x}", address=va, el=el
            )
        low = va & ((1 << self.config.va_bits) - 1)
        vpn = low >> self.page_shift
        offset = low & (self.page_size - 1)
        table = self.address_space.table_for(kind)
        mapping = table.lookup(vpn)
        if mapping is None:
            raise TranslationFault(
                f"unmapped address {va:#x}", address=va, el=el
            )
        if not mapping.permissions.allows(access, el):
            raise PermissionFault(
                f"stage-1 {access} permission denied at {va:#x} (EL{el})",
                address=va,
                el=el,
                stage=1,
            )
        if not self.stage2.allows(mapping.frame, access, el):
            raise PermissionFault(
                f"stage-2 {access} permission denied at {va:#x} (EL{el})",
                address=va,
                el=el,
                stage=2,
            )
        return (mapping.frame << self.page_shift) | offset

    # -- data accessors -----------------------------------------------------------

    def read(self, va, size, el):
        """Read ``size`` bytes at ``va``, page by page."""
        out = bytearray()
        while size > 0:
            pa = self.translate(va, "r", el)
            chunk = min(size, self.page_size - (va & (self.page_size - 1)))
            out += self.phys.read(pa, chunk)
            va += chunk
            size -= chunk
        return bytes(out)

    def write(self, va, data, el):
        """Write ``data`` at ``va``, page by page.

        Each page is translated before its bytes are stored, so a fault
        on a later page leaves the earlier pages written.
        """
        offset = 0
        while offset < len(data):
            pa = self.translate(va, "w", el)
            chunk = min(
                len(data) - offset,
                self.page_size - (va & (self.page_size - 1)),
            )
            self.phys.write(pa, data[offset:offset + chunk])
            va += chunk
            offset += chunk

    def read_u64(self, va, el):
        """Read the little-endian doubleword at ``va``.

        An in-page doubleword is translated once and read with one
        :meth:`PhysicalMemory.read_u64`; a page-crossing one takes the
        page-by-page :meth:`read`, so it faults exactly where that does.
        """
        if va & (self.page_size - 1) > self.page_size - 8:
            return int.from_bytes(self.read(va, 8, el), "little")
        return self.phys.read_u64(self.translate(va, "r", el))

    def write_u64(self, va, value, el):
        """Write ``value`` as a little-endian doubleword at ``va``.

        The in-page / page-crossing split mirrors :meth:`read_u64`.
        """
        if va & (self.page_size - 1) > self.page_size - 8:
            self.write(va, (value & _MASK64).to_bytes(8, "little"), el)
            return
        self.phys.write_u64(self.translate(va, "w", el), value)

    def fetch(self, va, el):
        """Instruction fetch: execute-permission check, then decode."""
        pa = self.translate(va, "x", el)
        instruction = self.phys.fetch_instruction(pa)
        if instruction is None:
            raise TranslationFault(
                f"no instruction at {va:#x}", address=va, el=el
            )
        return instruction

    # -- mapping helpers ------------------------------------------------------------

    def map_range(self, va, size, frame_base, permissions, kind=None):
        """Map ``size`` bytes at ``va`` onto consecutive frames."""
        va &= _MASK64
        if kind is None:
            kind = self.config.classify(va)
        if kind == AddressKind.INVALID:
            raise TranslationFault(f"cannot map invalid address {va:#x}")
        table = self.address_space.table_for(kind)
        low = va & ((1 << self.config.va_bits) - 1)
        first_vpn = low >> self.page_shift
        pages = (size + self.page_size - 1) >> self.page_shift
        table.map_pages(first_vpn, frame_base, pages, permissions)

    def frame_of(self, va):
        """Physical frame backing ``va`` (no permission check)."""
        kind = self.config.classify(va)
        low = va & ((1 << self.config.va_bits) - 1)
        mapping = self.address_space.table_for(kind).lookup(
            low >> self.page_shift
        )
        return None if mapping is None else mapping.frame
