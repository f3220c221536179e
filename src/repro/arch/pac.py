"""Pointer authentication primitives: AddPAC, AuthPAC and Strip.

These follow the ARMv8.3-A architectural pseudocode.  The MAC over
(pointer, modifier) is computed with QARMA-64: the 64-bit "plaintext"
input is the pointer with its PAC field replaced by the canonical sign
extension, the tweak is the modifier, and the 128-bit key is one of the
five key registers.  The MAC bits that fit into the unused pointer bits
become the PAC; extraneous MAC bits are discarded.

On authentication failure AuthPAC does not trap directly: it returns a
deliberately *non-canonical* pointer (two extension bits flipped, with a
distinct error code per key class), so that the first dereference takes
a translation fault.  That indirection is what the paper's brute-force
mitigation (Section 5.4) hooks: the kernel fault handler counts such
faults and panics past a threshold.

The engine keeps no MAC cache: QARMA instances are memoised per key
*value* (:meth:`PACEngine._cipher`) and each instance memoises its own
encryptions (see :mod:`repro.hotpath`), so a key-register write — or an
in-place key corruption — simply selects another cipher and can never
be served a MAC computed under the old key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.arch.vmsa import VMSAConfig
from repro.qarma import Qarma64

__all__ = ["PACEngine", "PACField", "PACResult"]

_MASK64 = (1 << 64) - 1

#: Error codes ORed into the extension on failed authentication, per the
#: architecture: instruction keys flip bit 62 patterns, data keys bit 61.
_ERROR_CODE = {"ia": 0b01, "ib": 0b01, "da": 0b10, "db": 0b10, "ga": 0b11}


class PACField(NamedTuple):
    """Where the PAC lives in one pointer class (bit 55 clear or set).

    ``bits``: ascending positions, from :meth:`VMSAConfig.pac_field_bits`;
    ``mask``: their union; ``runs``: the contiguous stretches as
    ``(mac_shift, width_mask, bit)`` — at most two, bit 55 being the
    only hole; ``top``, ``below``: masks of the two highest bits, the
    ones a failed AuthPAC poisons (``va_bits`` <= 52 leaves >= 3 bits).
    """

    bits: tuple
    mask: int
    runs: tuple
    top: int
    below: int

    @classmethod
    def of(cls, config, kernel):
        bits = config.pac_field_bits(kernel)
        runs = []
        start = 0
        for end in range(1, len(bits) + 1):
            if end == len(bits) or bits[end] != bits[end - 1] + 1:
                runs.append((start, (1 << (end - start)) - 1, bits[start]))
                start = end
        return cls(
            bits=bits,
            mask=sum(1 << bit for bit in bits),
            runs=tuple(runs),
            top=1 << bits[-1],
            below=1 << bits[-2],
        )


@dataclass(frozen=True)
class PACResult:
    """Outcome of an AuthPAC operation."""

    pointer: int
    ok: bool


class PACEngine:
    """Computes and checks PACs for one VMSA configuration.

    The engine is stateless with respect to keys: each operation takes
    the key pair explicitly, so the same engine serves every core and
    both user and kernel key sets.

    Parameters
    ----------
    config:
        The :class:`VMSAConfig` describing pointer geometry.
    rounds, sbox_index:
        QARMA-64 parameters; the defaults match the ARM reference
        algorithm (QARMA5-64 with sigma1).
    """

    def __init__(self, config=None, rounds=5, sbox_index=1):
        self.config = config or VMSAConfig()
        self.rounds = rounds
        self.sbox_index = sbox_index
        self._cipher_cache = {}
        #: The PAC field of user (index 0) and kernel (index 1, bit 55
        #: set) pointers, computed once for this geometry.
        self.fields = (
            PACField.of(self.config, kernel=False),
            PACField.of(self.config, kernel=True),
        )
        #: Nullable tracing hook ``(op, ok)`` — one call per
        #: architectural PAC operation, whether it runs on the core or
        #: host-side (boot signing, object initialization).  The
        #: internal AddPAC a failed AuthPAC recomputes is not reported
        #: separately.
        self.trace_hook = None

    # -- internals -----------------------------------------------------------

    def _cipher(self, key):
        """Memoised QARMA instance for a (lo, hi) key pair."""
        pair = (key.lo, key.hi)
        cipher = self._cipher_cache.get(pair)
        if cipher is None:
            cipher = Qarma64(
                w0=key.hi,
                k0=key.lo,
                rounds=self.rounds,
                sbox_index=self.sbox_index,
            )
            self._cipher_cache[pair] = cipher
        return cipher

    def field(self, pointer):
        """The :class:`PACField` of ``pointer``'s class (its bit 55)."""
        return self.fields[(pointer >> 55) & 1]

    def compute_pac(self, pointer, modifier, key):
        """Raw 64-bit MAC over the canonicalised pointer and modifier."""
        canonical = self.config.canonicalize(pointer)
        return self._cipher(key).encrypt(canonical, modifier & _MASK64)

    # -- architectural operations ---------------------------------------------

    def add_pac(self, pointer, modifier, key):
        """PAC* instruction: embed the PAC into the pointer's free bits.

        If the input pointer is already non-canonical (e.g. it already
        carries a PAC), the architecture guarantees the result will not
        authenticate: one PAC bit is deliberately inverted.
        """
        if self.trace_hook is not None:
            self.trace_hook("add", True)
        return self._add_pac(pointer, modifier, key)

    def _add_pac(self, pointer, modifier, key):
        pointer &= _MASK64
        canonical = self.config.canonicalize(pointer)
        result = self._deposit(canonical, modifier, key)
        if canonical != pointer:
            # Poison one PAC bit so the forged value never authenticates.
            result ^= self.field(pointer).top
        return result

    def _deposit(self, canonical, modifier, key):
        """``canonical`` with its PAC field replaced by the MAC's low bits."""
        field = self.field(canonical)
        mac = self._cipher(key).encrypt(canonical, modifier & _MASK64)
        result = canonical & ~field.mask
        for mac_shift, width_mask, bit in field.runs:
            result |= ((mac >> mac_shift) & width_mask) << bit
        return result

    def auth_pac(self, pointer, modifier, key, key_name=None):
        """AUT* instruction: verify and strip the PAC.

        Returns a :class:`PACResult`; on success the pointer is the
        canonical (usable) address, on failure it is non-canonical with
        the per-key error code in the top extension bits.
        """
        pointer &= _MASK64
        canonical = self.config.canonicalize(pointer)
        ok = self._deposit(canonical, modifier, key) == pointer
        if self.trace_hook is not None:
            self.trace_hook("auth", ok)
        if ok:
            return PACResult(canonical, True)
        return PACResult(self._poison(pointer, key, key_name), False)

    def strip(self, pointer):
        """XPAC* instruction: restore the canonical extension bits."""
        if self.trace_hook is not None:
            self.trace_hook("strip", True)
        return self.config.canonicalize(pointer & _MASK64)

    def generic_mac(self, value, modifier, key):
        """PACGA: standalone 32-bit MAC in the top half of the result."""
        if self.trace_hook is not None:
            self.trace_hook("generic", True)
        mac = self._cipher(key).encrypt(value & _MASK64, modifier & _MASK64)
        return (mac & 0xFFFFFFFF00000000) & _MASK64

    # -- failure encoding ------------------------------------------------------

    def _poison(self, pointer, key, key_name=None):
        """Make ``pointer`` non-canonical, encoding which key failed.

        The highest PAC bit is inverted away from its canonical value
        (guaranteeing the sign-extension check fails on dereference) and
        the per-key-class error code is XORed into the bit below it, so
        a debugger — or our fault handler — can tell which key class the
        failed authentication used.
        """
        code = _ERROR_CODE.get(key_name or "ia", 0b01)
        field = self.field(pointer)
        poisoned = self.config.canonicalize(pointer) ^ field.top
        if code & 0b10:
            poisoned ^= field.below
        return poisoned

    def decode_poison(self, pointer):
        """Inverse of :meth:`_poison`: which key *class* failed?

        Returns ``"instruction"`` (ia/ib: the bit below the top field
        bit untouched), ``"data"`` (da/db — and ga, whose code shares
        the high bit: that bit flipped), or ``None`` when the pointer is
        canonical or its deviation from canonical is not a poison
        pattern at all.
        """
        pointer &= _MASK64
        diff = pointer ^ self.config.canonicalize(pointer)
        field = self.field(pointer)
        if not diff & field.top or diff & ~(field.top | field.below):
            return None
        return "data" if diff & field.below else "instruction"


# -- fault-injection sites (repro.inject) -------------------------------------
#
# Registered here so the corruptions live next to the mechanism they
# subvert: both attack the PAC itself, not the code around it.


def _inject_signed_sp_bitflip(driver, rng):
    """Flip one PAC bit in a correctly signed saved SP, then switch.

    The authenticate on the context-switch path must reject the value
    and poison it, and the first stack touch must fault — the paper's
    end-to-end detection story for a corrupted protected pointer.
    """
    target = driver.prepare_switch_target()
    raw = target.kobj.raw_read("cpu_context_sp")
    bit = rng.choice(driver.system.cpu.pac.field(raw).bits)
    target.kobj.raw_write("cpu_context_sp", raw ^ (1 << bit))
    driver.switch_and_touch(target)


def _inject_wrong_modifier_resign(driver, rng):
    """Modifier confusion: replay a signature made for another struct.

    The attacker gets a *valid* (pointer, PAC) pair signed under the
    previous task's modifier and substitutes it into the next task's
    slot — the substitution attack the per-object modifier exists to
    stop.  Authentication must fail even though the PAC is genuine.
    """
    from repro.cfi.keys import KeyRole

    system = driver.system
    target = driver.prepare_switch_target(sign=False)
    donor = system.tasks.current
    key = system.profile.key_for(KeyRole.DFI)
    saved = donor.kobj.raw_read("cpu_context_sp")
    fake_sp = target.stack_top - 16 * rng.randint(1, 32)
    donor.kobj.set_protected(
        "cpu_context_sp", fake_sp, system.cpu.pac, system.kernel_keys, key
    )
    replayed = donor.kobj.raw_read("cpu_context_sp")
    donor.kobj.raw_write("cpu_context_sp", saved)
    target.kobj.raw_write("cpu_context_sp", replayed)
    driver.switch_and_touch(target)


from repro.inject.points import InjectionPoint, register_point  # noqa: E402

register_point(
    InjectionPoint(
        name="pac.signed-sp-bitflip",
        module=__name__,
        description=(
            "flip one PAC bit in the signed saved SP before a context "
            "switch; AUTDB must poison it and the stack touch must fault"
        ),
        inject=_inject_signed_sp_bitflip,
        requires=("dfi",),
        expected=("fault",),
    )
)
register_point(
    InjectionPoint(
        name="pac.wrong-modifier-resign",
        module=__name__,
        description=(
            "replay a genuine signature under another task's modifier "
            "into the saved-SP slot (substitution attack)"
        ),
        inject=_inject_wrong_modifier_resign,
        requires=("dfi",),
        expected=("fault",),
    )
)
