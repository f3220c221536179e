"""Sparse physical memory backing the simulated machine.

Frames are allocated lazily; code pages additionally carry decoded
instruction objects beside their byte image, so that execution fetches
instruction objects while data reads of the same locations return the
byte encoding (needed, e.g., to demonstrate that the XOM key-setter
cannot be disassembled by reading it).
"""

from __future__ import annotations

from repro.errors import ReproError

__all__ = ["GENERATION", "PhysicalMemory"]

_MASK64 = (1 << 64) - 1


class Generation:
    """Process-wide monotonic count of cache-visible mutations.

    Every mutation a host-side cache could observe bumps it: stage-1
    map/unmap, stage-2 frame edits or wholesale replacement, and code
    stores, erases or data writes into code frames.  Caches stamp their
    contents with :attr:`value` and drop them when it moves (analogous
    to a TLB/I-cache invalidate).  One shared counter can only
    over-invalidate, never serve a stale entry.
    """

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def bump(self):
        self.value += 1


GENERATION = Generation()


class PhysicalMemory:
    """Byte-addressable sparse physical memory.

    Parameters
    ----------
    page_shift:
        log2 of the frame size; must match the MMU granule.
    """

    def __init__(self, page_shift=12):
        self.page_shift = page_shift
        self.page_size = 1 << page_shift
        self._frames = {}
        #: Decoded instructions, keyed by physical address.
        self._instructions = {}
        #: Frames holding decoded instructions: data writes into them
        #: bump :data:`GENERATION` (self-modifying code).
        self._code_frames = set()

    def _frame(self, frame_number):
        frame = self._frames.get(frame_number)
        if frame is None:
            frame = bytearray(self.page_size)
            self._frames[frame_number] = frame
        return frame

    # -- data access ----------------------------------------------------------

    def read(self, pa, size):
        """Read ``size`` bytes starting at physical address ``pa``."""
        out = bytearray()
        while size > 0:
            frame_number, offset = divmod(pa, self.page_size)
            chunk = min(size, self.page_size - offset)
            out += self._frame(frame_number)[offset:offset + chunk]
            pa += chunk
            size -= chunk
        return bytes(out)

    def write(self, pa, data):
        """Write ``data`` starting at physical address ``pa``."""
        offset_in_data = 0
        size = len(data)
        while offset_in_data < size:
            frame_number, offset = divmod(pa, self.page_size)
            chunk = min(size - offset_in_data, self.page_size - offset)
            self._frame(frame_number)[offset:offset + chunk] = data[
                offset_in_data:offset_in_data + chunk
            ]
            if frame_number in self._code_frames:
                GENERATION.bump()
            pa += chunk
            offset_in_data += chunk

    def read_u64(self, pa):
        """Read the little-endian doubleword at ``pa``.

        A doubleword inside one frame is a single slice of that frame
        (allocated lazily, as :meth:`read` would); one that crosses a
        frame boundary goes through :meth:`read`.
        """
        offset = pa & (self.page_size - 1)
        if offset > self.page_size - 8:
            return int.from_bytes(self.read(pa, 8), "little")
        frame = self._frame(pa >> self.page_shift)
        return int.from_bytes(frame[offset:offset + 8], "little")

    def write_u64(self, pa, value):
        """Write ``value`` as a little-endian doubleword at ``pa``.

        The in-frame case stores one slice and bumps :data:`GENERATION`
        once if the frame holds code, exactly as :meth:`write` does; a
        frame-crossing doubleword goes through :meth:`write`.
        """
        data = (value & _MASK64).to_bytes(8, "little")
        offset = pa & (self.page_size - 1)
        if offset > self.page_size - 8:
            self.write(pa, data)
            return
        frame_number = pa >> self.page_shift
        self._frame(frame_number)[offset:offset + 8] = data
        if frame_number in self._code_frames:
            GENERATION.bump()

    # -- instruction storage ----------------------------------------------------

    def store_instruction(self, pa, instruction):
        """Place a decoded instruction at ``pa`` (4-byte granularity).

        The instruction's pseudo-encoding is also written as data so the
        location reads back as bytes.
        """
        if pa % 4:
            raise ReproError(f"instruction address {pa:#x} not 4-aligned")
        self._instructions[pa] = instruction
        self._code_frames.add(pa >> self.page_shift)
        GENERATION.bump()
        self.write(pa, instruction.encoding())

    def fetch_instruction(self, pa):
        """Fetch the decoded instruction at ``pa`` (None if not code)."""
        return self._instructions.get(pa)

    def erase_instruction(self, pa):
        if self._instructions.pop(pa, None) is not None:
            GENERATION.bump()

    def instructions_in_range(self, pa, size):
        """Decoded instructions within [pa, pa+size), address-ordered."""
        return [
            (address, self._instructions[address])
            for address in sorted(self._instructions)
            if pa <= address < pa + size
        ]
