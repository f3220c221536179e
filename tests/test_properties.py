"""Property-based tests over the core invariants (hypothesis)."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import hotpath
from repro.arch.pac import PACEngine
from repro.arch.registers import PAuthKey
from repro.arch.vmsa import VMSAConfig
from repro.cfi.modifiers import CamouflageScheme, PARTSScheme, SPOnlyScheme
from repro.elfimage.ptrtable import field_modifier
from repro.qarma import Qarma64

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
u48 = st.integers(min_value=0, max_value=(1 << 48) - 1)
u16 = st.integers(min_value=0, max_value=(1 << 16) - 1)
kernel_pointers = u48.map(lambda low: ((1 << 64) - (1 << 48)) | low)

_ENGINE = PACEngine(VMSAConfig())
_KEY = PAuthKey(0xA5A5_5A5A_0F0F_F0F0, 0x0123_4567_89AB_CDEF)


class TestPacProperties:
    @settings(max_examples=40, deadline=None)
    @given(pointer=kernel_pointers, good=u64, bad=u64)
    def test_auth_accepts_iff_modifier_matches(self, pointer, good, bad):
        assume(good != bad)
        signed = _ENGINE.add_pac(pointer, good, _KEY)
        assert _ENGINE.auth_pac(signed, good, _KEY).ok
        wrong = _ENGINE.auth_pac(signed, bad, _KEY)
        # A 15-bit PAC collides with probability 2^-15; tolerate the
        # astronomically rare case only when the MACs truly collide.
        if wrong.ok:
            assert _ENGINE.add_pac(pointer, bad, _KEY) == signed

    @settings(max_examples=40, deadline=None)
    @given(pointer=kernel_pointers, modifier=u64)
    def test_sign_strip_is_identity(self, pointer, modifier):
        signed = _ENGINE.add_pac(pointer, modifier, _KEY)
        assert _ENGINE.strip(signed) == pointer

    @settings(max_examples=40, deadline=None)
    @given(pointer=kernel_pointers, modifier=u64)
    def test_poisoned_pointer_never_canonical(self, pointer, modifier):
        signed = _ENGINE.add_pac(pointer, modifier, _KEY)
        result = _ENGINE.auth_pac(signed, modifier ^ 1, _KEY)
        if not result.ok:
            assert not _ENGINE.config.is_canonical(result.pointer)


class TestModifierProperties:
    @settings(max_examples=60, deadline=None)
    @given(sp_a=u64, sp_b=u64, fn_a=u48, fn_b=u48)
    def test_replay_window_matches_compute_equality(
        self, sp_a, sp_b, fn_a, fn_b
    ):
        for scheme in (SPOnlyScheme(), CamouflageScheme()):
            window = scheme.replay_window(sp_a, sp_b, fn_a, fn_b)
            equal = scheme.compute(sp_a, fn_a) == scheme.compute(sp_b, fn_b)
            assert window == equal

    @settings(max_examples=60, deadline=None)
    @given(sp_a=u64, sp_b=u64, fid=st.integers(min_value=1, max_value=1 << 30))
    def test_parts_window_matches_compute(self, sp_a, sp_b, fid):
        scheme = PARTSScheme()
        window = scheme.replay_window(sp_a, sp_b, 1, 1)
        equal = scheme.compute(sp_a, 0, function_id=fid) == scheme.compute(
            sp_b, 0, function_id=fid
        )
        assert window == equal

    @settings(max_examples=60, deadline=None)
    @given(sp=u64, fn=u48)
    def test_camouflage_strictly_stronger_than_sp_in_function(self, sp, fn):
        # Whenever camouflage accepts a replay, sp-only does too.
        camo = CamouflageScheme()
        sp_only = SPOnlyScheme()
        for sp_b in (sp, sp ^ 0x10):
            for fn_b in (fn, (fn + 4) & ((1 << 48) - 1)):
                if camo.replay_window(sp, sp_b, fn, fn_b):
                    if sp == sp_b:
                        assert sp_only.replay_window(sp, sp_b, fn, fn_b)


class TestFieldModifierProperties:
    @settings(max_examples=80, deadline=None)
    @given(addr_a=u48, addr_b=u48, const_a=u16, const_b=u16)
    def test_injective_over_address_and_constant(
        self, addr_a, addr_b, const_a, const_b
    ):
        assume((addr_a, const_a) != (addr_b, const_b))
        assert field_modifier(addr_a, const_a) != field_modifier(
            addr_b, const_b
        )

    @settings(max_examples=40, deadline=None)
    @given(addr=u64, const=u16)
    def test_only_low_48_address_bits_used(self, addr, const):
        mask = (1 << 48) - 1
        assert field_modifier(addr, const) == field_modifier(
            addr & mask, const
        )


class TestVmsaSweepProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        va_bits=st.integers(min_value=36, max_value=52),
        pointer=u64,
    )
    def test_canonicalize_round_trips_any_config(self, va_bits, pointer):
        config = VMSAConfig(va_bits=va_bits)
        canonical = config.canonicalize(pointer)
        assert config.is_canonical(canonical)
        assert config.canonicalize(canonical) == canonical

    @settings(max_examples=30, deadline=None)
    @given(va_bits=st.integers(min_value=36, max_value=52))
    def test_pac_bits_partition(self, va_bits):
        # PAC bits + VA bits + bit55 (+ tag byte when TBI) cover 64.
        for tbi in (False, True):
            config = VMSAConfig(va_bits=va_bits, tbi_kernel=tbi)
            pac = config.pac_size(kernel=True)
            tag = 8 if tbi else 0
            overlap = 1 if va_bits > 55 else 0  # bit 55 inside the VA
            assert pac + va_bits + tag + (1 - overlap) == 64


class TestQarmaProperties:
    @settings(max_examples=40, deadline=None)
    @given(k0=u64, w0=u64, plaintext=u64, tweak=u64)
    def test_encrypt_decrypt_round_trip(self, k0, w0, plaintext, tweak):
        cipher = Qarma64(w0=w0, k0=k0)
        assert cipher.decrypt(cipher.encrypt(plaintext, tweak), tweak) == (
            plaintext
        )

    @settings(max_examples=40, deadline=None)
    @given(
        k0=u64, w0=u64, plaintext=u64, tweak=u64,
        bit=st.integers(min_value=0, max_value=63),
    )
    def test_key_avalanche(self, k0, w0, plaintext, tweak, bit):
        # Full-width 64-bit ciphertexts: an accidental collision between
        # two independent permutations has probability 2^-64.
        baseline = Qarma64(w0=w0, k0=k0).encrypt(plaintext, tweak)
        flipped_k0 = Qarma64(w0=w0, k0=k0 ^ (1 << bit))
        flipped_w0 = Qarma64(w0=w0 ^ (1 << bit), k0=k0)
        assert flipped_k0.encrypt(plaintext, tweak) != baseline
        assert flipped_w0.encrypt(plaintext, tweak) != baseline

    @settings(max_examples=40, deadline=None)
    @given(
        k0=u64, w0=u64, plaintext=u64, tweak=u64,
        bit=st.integers(min_value=0, max_value=63),
    )
    def test_tweak_avalanche(self, k0, w0, plaintext, tweak, bit):
        cipher = Qarma64(w0=w0, k0=k0)
        assert cipher.encrypt(plaintext, tweak) != cipher.encrypt(
            plaintext, tweak ^ (1 << bit)
        )

    @settings(max_examples=25, deadline=None)
    @given(k0=u64, w0=u64, plaintext=u64, tweak=u64)
    def test_memoised_encrypt_matches_unmemoised(
        self, k0, w0, plaintext, tweak
    ):
        warm = Qarma64(w0=w0, k0=k0)
        first = warm.encrypt(plaintext, tweak)
        second = warm.encrypt(plaintext, tweak)  # memo hit, if enabled
        with hotpath.disabled_caches():
            cold = Qarma64(w0=w0, k0=k0).encrypt(plaintext, tweak)
        assert first == second == cold


class TestPacCacheProperties:
    """PAC memoisation is transparent under arbitrary key-write histories."""

    _KEY_REGISTER = {"ia": "APIAKeyLo_EL1", "ib": "APIBKeyLo_EL1"}

    _ops = st.lists(
        st.one_of(
            st.tuples(
                st.just("write"), st.sampled_from(["ia", "ib"]), u64
            ),
            st.tuples(
                st.just("pac"),
                st.sampled_from(["ia", "ib"]),
                kernel_pointers,
                u64,
            ),
        ),
        min_size=1,
        max_size=24,
    )

    @settings(max_examples=30, deadline=None)
    @given(ops=_ops)
    def test_transparent_under_interleaved_key_writes(self, ops):
        from repro.arch.cpu import CPU

        cpu = CPU(features=frozenset({"pauth"}))
        engine = cpu.pac
        for op in ops:
            if op[0] == "write":
                _, name, value = op
                cpu.write_sysreg_checked(self._KEY_REGISTER[name], value)
            else:
                _, name, pointer, modifier = op
                key = cpu.regs.keys.get(name)
                got = engine.compute_pac(pointer, modifier, key)
                with hotpath.disabled_caches():
                    expected = PACEngine().compute_pac(
                        pointer, modifier, key
                    )
                assert got == expected

    @settings(max_examples=30, deadline=None)
    @given(pointer=kernel_pointers, modifier=u64, lo=u64, hi=u64)
    def test_sign_auth_round_trip_survives_cache_reuse(
        self, pointer, modifier, lo, hi
    ):
        key = PAuthKey(lo=lo, hi=hi)
        engine = PACEngine()
        for _ in range(2):  # second pass runs entirely on cached MACs
            signed = engine.add_pac(pointer, modifier, key)
            assert engine.auth_pac(signed, modifier, key).ok
            assert engine.auth_pac(signed, modifier, key).pointer == pointer


_MASK64 = (1 << 64) - 1


def _reference_add_pac(engine, pointer, modifier, key):
    """AddPAC with the per-bit deposit loop: the oracle for the runs."""
    config = engine.config
    pointer &= _MASK64
    bits = config.pac_field_bits(bool((pointer >> 55) & 1))
    mac = engine.compute_pac(pointer, modifier, key)
    result = config.canonicalize(pointer)
    for mac_index, bit in enumerate(bits):
        result = (result & ~(1 << bit)) | (((mac >> mac_index) & 1) << bit)
    if not config.is_canonical(pointer) and bits:
        result ^= 1 << bits[-1]
    return result & _MASK64


def _reference_poison(config, pointer, key_name):
    code = {"ia": 1, "ib": 1, "da": 2, "db": 2, "ga": 3}[key_name]
    bits = config.pac_field_bits(bool((pointer >> 55) & 1))
    poisoned = config.canonicalize(pointer) ^ (1 << bits[-1])
    if code & 2:
        poisoned ^= 1 << bits[-2]
    return poisoned


def _reference_auth_pac(engine, pointer, modifier, key, key_name):
    config = engine.config
    pointer &= _MASK64
    canonical = config.canonicalize(pointer)
    if _reference_add_pac(engine, canonical, modifier, key) == pointer:
        return True, canonical
    return False, _reference_poison(config, pointer, key_name)


def _reference_decode_poison(config, pointer):
    diff = pointer ^ config.canonicalize(pointer)
    bits = config.pac_field_bits(bool((pointer >> 55) & 1))
    top, below = 1 << bits[-1], 1 << bits[-2]
    if diff == 0 or diff & ~(top | below) or not diff & top:
        return None
    return "data" if diff & below else "instruction"


class TestPacDepositProperties:
    """The run-based PAC deposit equals the per-bit loop it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        va_bits=st.integers(min_value=36, max_value=52),
        tbi_user=st.booleans(),
        tbi_kernel=st.booleans(),
        raw=u64,
        canonical=st.booleans(),
        modifier=u64,
        key_name=st.sampled_from(["ia", "ib", "da", "db", "ga"]),
    )
    def test_matches_per_bit_reference(
        self, va_bits, tbi_user, tbi_kernel, raw, canonical, modifier,
        key_name,
    ):
        config = VMSAConfig(
            va_bits=va_bits, tbi_user=tbi_user, tbi_kernel=tbi_kernel
        )
        engine = PACEngine(config)
        pointer = config.canonicalize(raw) if canonical else raw
        assert engine._add_pac(pointer, modifier, _KEY) == _reference_add_pac(
            engine, pointer, modifier, _KEY
        )
        signed = _reference_add_pac(
            engine, config.canonicalize(pointer), modifier, _KEY
        )
        for candidate in (pointer, signed):
            result = engine.auth_pac(candidate, modifier, _KEY, key_name)
            assert (result.ok, result.pointer) == _reference_auth_pac(
                engine, candidate, modifier, _KEY, key_name
            )
        poisoned = engine._poison(pointer, _KEY, key_name)
        assert poisoned == _reference_poison(config, pointer, key_name)
        for candidate in (poisoned, pointer, signed):
            assert engine.decode_poison(candidate) == _reference_decode_poison(
                config, candidate
            )


class TestAssemblerProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(u16, min_size=1, max_size=12),
    )
    def test_program_addresses_dense_and_ordered(self, values):
        from repro.arch import isa
        from repro.arch.assembler import Assembler

        asm = Assembler(0xFFFF_0000_0801_0000)
        asm.fn("main")
        for value in values:
            asm.emit(isa.Movz(0, value, 0))
        asm.emit(isa.Ret())
        program = asm.assemble()
        addresses = [a for a, _ in program.instructions]
        assert addresses == [
            0xFFFF_0000_0801_0000 + 4 * i for i in range(len(values) + 1)
        ]

    @settings(max_examples=30, deadline=None)
    @given(value=u64)
    def test_movimm_reproduces_value(self, value):
        from repro.arch.isa import MovImm

        parts = MovImm(3, value).expand()
        acc = 0
        for part in parts:
            mask = 0xFFFF << part.shift
            acc = (acc & ~mask) | ((part.imm16 & 0xFFFF) << part.shift)
        assert acc == value
