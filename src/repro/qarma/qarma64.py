"""QARMA-64 tweakable block cipher (Avanzi, ToSC 2017).

QARMA is the reference pointer-authentication-code (PAC) algorithm of the
ARMv8.3-A pointer authentication extension.  The Camouflage paper relies
on it (via the processor) to compute PACs over pointers; this module is a
complete, from-scratch implementation of the 64-bit variant used for that
purpose.

The cipher is a three-round Even-Mansour construction with a keyed
pseudo-reflector in the middle:

    P -> +w0 -> r forward rounds -> forward(w1) -> reflector(k1)
      -> backward(w0) -> r backward rounds -> +w1 -> C

The state is sixteen 4-bit cells arranged in a 4x4 array; cell 0 holds
the most significant nibble.  Each forward round XORs the round tweakey
(core key, tweak and round constant), shuffles cells with the
permutation tau, multiplies by the almost-MDS matrix M = circ(0, r1, r2,
r1) over the ring of 4-bit rotations, and applies one of three published
S-boxes (sigma0, sigma1, sigma2).  The tweak itself is updated every
round by the permutation h followed by an LFSR on seven designated
cells.

The implementation is validated in the test suite against the published
reference test vectors (rounds 5, 6 and 7, S-boxes sigma0 and sigma1;
sigma1 is the variant the ARM reference PAC algorithm uses).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hotpath import caches_enabled

__all__ = ["CipherMemoStats", "Qarma64", "SBOXES", "ALPHA", "ROUND_CONSTANTS"]

_MASK64 = (1 << 64) - 1

#: Capacity bounds for the host-side memo structures below.
_MEMO_LIMIT = 1 << 16
_TWEAK_SCHEDULE_LIMIT = 1 << 16

#: The published QARMA S-boxes sigma0 and sigma1.  sigma1 is the S-box
#: the ARM reference PAC algorithm (ComputePAC) uses and the default.
SBOXES = (
    (10, 13, 14, 6, 15, 7, 3, 5, 9, 8, 0, 12, 11, 1, 2, 4),
    (11, 6, 8, 15, 12, 0, 9, 14, 3, 7, 4, 5, 13, 2, 1, 10),
)

#: Cell shuffle used by ShuffleCells (the MIDORI permutation).
TAU = (0, 11, 6, 13, 10, 1, 12, 7, 5, 14, 3, 8, 15, 4, 9, 2)

#: Cell permutation used by the tweak schedule.
H_PERM = (6, 5, 14, 15, 0, 1, 2, 3, 7, 12, 13, 4, 8, 9, 10, 11)

#: Cells of the tweak that pass through the LFSR each round.
LFSR_CELLS = (0, 1, 3, 4, 8, 11, 13)

#: M = Q = circ(0, rho, rho^2, rho): entries are rotation amounts, 0 means
#: the zero element of the ring (no contribution).
M_MATRIX = (
    (0, 1, 2, 1),
    (1, 0, 1, 2),
    (2, 1, 0, 1),
    (1, 2, 1, 0),
)

#: Constant that makes the reflector key asymmetric between the two
#: halves of the cipher.
ALPHA = 0xC0AC29B7C97C50DD

#: Round constants c_0 .. c_7 (digits of pi).
ROUND_CONSTANTS = (
    0x0000000000000000,
    0x13198A2E03707344,
    0xA4093822299F31D0,
    0x082EFA98EC4E6C89,
    0x452821E638D01377,
    0xBE5466CF34E90C6C,
    0x3F84D5B5B5470917,
    0x9216D5D98979FB1B,
)


def _invert_perm(perm):
    inverse = [0] * len(perm)
    for index, value in enumerate(perm):
        inverse[value] = index
    return tuple(inverse)


TAU_INV = _invert_perm(TAU)
H_PERM_INV = _invert_perm(H_PERM)


def _invert_sbox(sbox):
    return tuple(_invert_perm(sbox))


SBOXES_INV = tuple(_invert_sbox(sbox) for sbox in SBOXES)


def _text_to_cells(value):
    """Split a 64-bit integer into 16 nibbles, cell 0 most significant."""
    return [(value >> (4 * (15 - index))) & 0xF for index in range(16)]


def _cells_to_text(cells):
    value = 0
    for cell in cells:
        value = (value << 4) | (cell & 0xF)
    return value


def _rot4(cell, amount):
    """Rotate a 4-bit cell left by ``amount`` bits."""
    return ((cell << amount) | (cell >> (4 - amount))) & 0xF


def _lfsr(cell):
    """Forward tweak LFSR: (b3 b2 b1 b0) -> (b0^b1, b3, b2, b1)."""
    b0 = cell & 1
    b1 = (cell >> 1) & 1
    b2 = (cell >> 2) & 1
    b3 = (cell >> 3) & 1
    return ((b0 ^ b1) << 3) | (b3 << 2) | (b2 << 1) | b1


def _lfsr_inv(cell):
    """Inverse of :func:`_lfsr`."""
    n0 = cell & 1
    n1 = (cell >> 1) & 1
    n2 = (cell >> 2) & 1
    n3 = (cell >> 3) & 1
    b1 = n0
    b2 = n1
    b3 = n2
    b0 = n3 ^ b1
    return (b3 << 3) | (b2 << 2) | (b1 << 1) | b0


def _shuffle(cells, perm):
    return [cells[perm[index]] for index in range(16)]


def _build_mix_tables():
    """Per-input-row contribution tables for the M multiplication.

    M is linear over XOR, so one column's product is the XOR of four
    16-entry table lookups (one per input cell), each packing the cell's
    contribution to all four output rows — the classic T-table trick.
    """
    tables = []
    for j in range(4):
        table = []
        for cell in range(16):
            packed = 0
            for row in range(4):
                amount = M_MATRIX[row][j]
                contribution = _rot4(cell, amount) if amount else 0
                packed |= contribution << (4 * (3 - row))
            table.append(packed)
        tables.append(tuple(table))
    return tuple(tables)


_MIX_TABLES = _build_mix_tables()


def _mix_columns(cells):
    """Multiply the 4x4 cell array by M over the rotation ring."""
    t0, t1, t2, t3 = _MIX_TABLES
    result = [0] * 16
    for col in range(4):
        packed = (
            t0[cells[col]]
            ^ t1[cells[4 + col]]
            ^ t2[cells[8 + col]]
            ^ t3[cells[12 + col]]
        )
        result[col] = (packed >> 12) & 0xF
        result[4 + col] = (packed >> 8) & 0xF
        result[8 + col] = (packed >> 4) & 0xF
        result[12 + col] = packed & 0xF
    return result


def _sub_cells(cells, sbox):
    return [sbox[cell] for cell in cells]


def _omega(word):
    """The whitening-key orthomorphism o(w) = (w >>> 1) ^ (w >> 63)."""
    return (((word >> 1) | (word << 63)) ^ (word >> 63)) & _MASK64


#: Tweak schedules are key-independent, so one bounded memo serves every
#: cipher instance: (tweak, rounds) -> (t_0, ..., t_rounds) where t_r is
#: the tweak in effect at forward round r and t_rounds wraps the
#: reflector.  Pure recomputation — never observable, never stale.
_TWEAK_SCHEDULES = {}


def _tweak_schedule(tweak, rounds):
    key = (tweak, rounds)
    schedule = _TWEAK_SCHEDULES.get(key)
    if schedule is None:
        steps = [tweak]
        current = tweak
        for _ in range(rounds):
            current = Qarma64._tweak_forward(current)
            steps.append(current)
        schedule = tuple(steps)
        if len(_TWEAK_SCHEDULES) >= _TWEAK_SCHEDULE_LIMIT:
            _TWEAK_SCHEDULES.pop(next(iter(_TWEAK_SCHEDULES)))
        _TWEAK_SCHEDULES[key] = schedule
    return schedule


class CipherMemoStats:
    """Hit/miss counters for one instance's encryption memo."""

    __slots__ = ("hits", "misses")

    def __init__(self):
        self.hits = 0
        self.misses = 0

    def to_dict(self):
        return {"hits": self.hits, "misses": self.misses}


@dataclass(frozen=True)
class Qarma64:
    """QARMA-64 with a 128-bit key ``w0 || k0``.

    Parameters
    ----------
    w0, k0:
        The two 64-bit halves of the key: ``w0`` is the whitening key,
        ``k0`` the core key.
    rounds:
        Number of forward rounds ``r`` (the cipher has ``2r + 2`` rounds
        plus the reflector in total).  The paper recommends r >= 5 for
        sigma1; ARM reference implementations use QARMA5-64-sigma1.
    sbox_index:
        Which published S-box to use: 0 (sigma0) or 1 (sigma1, the
        default, matching the ARM reference PAC algorithm).
    """

    w0: int
    k0: int
    rounds: int = 5
    sbox_index: int = 1

    def __post_init__(self):
        if not 0 <= self.w0 <= _MASK64 or not 0 <= self.k0 <= _MASK64:
            raise ValueError("QARMA-64 key halves must be 64-bit integers")
        if not 1 <= self.rounds <= len(ROUND_CONSTANTS):
            raise ValueError(
                f"rounds must be in 1..{len(ROUND_CONSTANTS)}, got {self.rounds}"
            )
        if self.sbox_index not in (0, 1):
            raise ValueError("sbox_index must be 0 or 1")
        # Host-side precomputation on the frozen instance: the derived
        # whitening key, and (when enabled, see repro.hotpath) a pure
        # (plaintext, tweak) -> ciphertext memo.  A frozen instance's
        # encryption is a pure function of its inputs, so the memo can
        # never serve a stale value — it survives key switches because
        # a *new* key value gets a *new* cipher instance.
        object.__setattr__(self, "_w1", _omega(self.w0))
        object.__setattr__(
            self, "_memo", {} if caches_enabled() else None
        )
        object.__setattr__(self, "memo_stats", CipherMemoStats())

    @property
    def _sbox(self):
        return SBOXES[self.sbox_index]

    @property
    def _sbox_inv(self):
        return SBOXES_INV[self.sbox_index]

    @property
    def w1(self):
        """Derived whitening key for the backward half."""
        return self._w1

    @property
    def k1(self):
        """Reflector key.

        For encryption the reflector tweakey equals the core key k0; the
        asymmetry between the two halves of the cipher comes from the
        Q-matrix multiplication inside the reflector and from the alpha
        constant folded into the backward round tweakeys.
        """
        return self.k0

    # -- round primitives -------------------------------------------------

    def _forward_round(self, state, tweakey, full):
        state ^= tweakey
        cells = _text_to_cells(state)
        if full:
            cells = _shuffle(cells, TAU)
            cells = _mix_columns(cells)
        cells = _sub_cells(cells, self._sbox)
        return _cells_to_text(cells)

    def _backward_round(self, state, tweakey, full):
        cells = _text_to_cells(state)
        cells = _sub_cells(cells, self._sbox_inv)
        if full:
            cells = _mix_columns(cells)
            cells = _shuffle(cells, TAU_INV)
        return _cells_to_text(cells) ^ tweakey

    def _pseudo_reflect(self, state, tweakey):
        cells = _text_to_cells(state)
        cells = _shuffle(cells, TAU)
        cells = _mix_columns(cells)
        tk_cells = _text_to_cells(tweakey)
        cells = [cell ^ tk for cell, tk in zip(cells, tk_cells)]
        cells = _shuffle(cells, TAU_INV)
        return _cells_to_text(cells)

    @staticmethod
    def _tweak_forward(tweak):
        cells = _shuffle(_text_to_cells(tweak), H_PERM)
        for index in LFSR_CELLS:
            cells[index] = _lfsr(cells[index])
        return _cells_to_text(cells)

    @staticmethod
    def _tweak_backward(tweak):
        cells = _text_to_cells(tweak)
        for index in LFSR_CELLS:
            cells[index] = _lfsr_inv(cells[index])
        return _cells_to_text(_shuffle(cells, H_PERM_INV))

    # -- public API --------------------------------------------------------

    def encrypt(self, plaintext, tweak):
        """Encrypt a 64-bit block under a 64-bit tweak."""
        if not 0 <= plaintext <= _MASK64:
            raise ValueError("plaintext must be a 64-bit integer")
        if not 0 <= tweak <= _MASK64:
            raise ValueError("tweak must be a 64-bit integer")
        memo = self._memo
        if memo is not None:
            cached = memo.get((plaintext, tweak))
            if cached is not None:
                self.memo_stats.hits += 1
                return cached
            self.memo_stats.misses += 1
        schedule = _tweak_schedule(tweak, self.rounds)
        k0 = self.k0
        state = plaintext ^ self.w0
        for r in range(self.rounds):
            tweakey = k0 ^ schedule[r] ^ ROUND_CONSTANTS[r]
            state = self._forward_round(state, tweakey, full=r != 0)
        center_tweak = schedule[self.rounds]
        state = self._forward_round(state, self._w1 ^ center_tweak, full=True)
        state = self._pseudo_reflect(state, self.k1)
        state = self._backward_round(state, self.w0 ^ center_tweak, full=True)
        k0_alpha = k0 ^ ALPHA
        for r in range(self.rounds - 1, -1, -1):
            tweakey = k0_alpha ^ schedule[r] ^ ROUND_CONSTANTS[r]
            state = self._backward_round(state, tweakey, full=r != 0)
        result = state ^ self._w1
        if memo is not None:
            if len(memo) >= _MEMO_LIMIT:
                memo.pop(next(iter(memo)))
            memo[(plaintext, tweak)] = result
        return result

    def decrypt(self, ciphertext, tweak):
        """Decrypt a 64-bit block under a 64-bit tweak.

        Runs the encryption circuit backwards (the exact inverse of
        :meth:`encrypt`), so ``decrypt(encrypt(p, t), t) == p`` for every
        plaintext and tweak.
        """
        if not 0 <= ciphertext <= _MASK64:
            raise ValueError("ciphertext must be a 64-bit integer")
        if not 0 <= tweak <= _MASK64:
            raise ValueError("tweak must be a 64-bit integer")
        state = ciphertext ^ self.w1
        # tweaks[r] is the tweak in effect at forward round r; the final
        # entry is the tweak used around the reflector.
        tweaks = _tweak_schedule(tweak, self.rounds)
        center_tweak = tweaks[-1]
        for r in range(self.rounds):
            tweakey = self.k0 ^ ALPHA ^ tweaks[r] ^ ROUND_CONSTANTS[r]
            state = self._inverse_backward_round(state, tweakey, full=r != 0)
        state = self._inverse_backward_round(
            state, self.w0 ^ center_tweak, full=True
        )
        state = self._inverse_reflect(state)
        state = self._inverse_forward_round(
            state, self.w1 ^ center_tweak, full=True
        )
        for r in range(self.rounds - 1, -1, -1):
            tweakey = self.k0 ^ tweaks[r] ^ ROUND_CONSTANTS[r]
            state = self._inverse_forward_round(state, tweakey, full=r != 0)
        return state ^ self.w0

    def _inverse_forward_round(self, state, tweakey, full):
        """Exact inverse of :meth:`_forward_round`."""
        cells = _text_to_cells(state)
        cells = _sub_cells(cells, self._sbox_inv)
        if full:
            cells = _mix_columns(cells)  # M is an involution
            cells = _shuffle(cells, TAU_INV)
        return _cells_to_text(cells) ^ tweakey

    def _inverse_backward_round(self, state, tweakey, full):
        """Exact inverse of :meth:`_backward_round`."""
        state ^= tweakey
        cells = _text_to_cells(state)
        if full:
            cells = _shuffle(cells, TAU)
            cells = _mix_columns(cells)
        cells = _sub_cells(cells, self._sbox)
        return _cells_to_text(cells)

    def _inverse_reflect(self, state):
        """Exact inverse of :meth:`_pseudo_reflect` (it is an involution
        up to the tweakey ordering, but we invert it step by step)."""
        cells = _text_to_cells(state)
        cells = _shuffle(cells, TAU)
        tk_cells = _text_to_cells(self.k1)
        cells = [cell ^ tk for cell, tk in zip(cells, tk_cells)]
        cells = _mix_columns(cells)  # involution
        cells = _shuffle(cells, TAU_INV)
        return _cells_to_text(cells)
