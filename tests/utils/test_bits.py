"""Unit tests for repro.utils.bits."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.bits import (
    as_bit_array,
    bipolar_to_bits,
    bits_to_bipolar,
    bits_to_bytes,
    bits_to_int,
    bytes_to_bits,
    hamming_distance,
    int_to_bits,
    pack_bits,
    random_bits,
    unpack_bits,
)
from repro.tag.framing import FrameFormat


class TestAsBitArray:
    def test_from_string(self):
        assert as_bit_array("1011").tolist() == [1, 0, 1, 1]

    def test_from_list(self):
        assert as_bit_array([0, 1, 0]).dtype == np.uint8

    def test_rejects_non_binary_string(self):
        with pytest.raises(ValueError):
            as_bit_array("10 2")

    def test_rejects_non_binary_values(self):
        with pytest.raises(ValueError):
            as_bit_array([0, 1, 2])

    def test_empty(self):
        assert as_bit_array("").size == 0

    def test_flattens(self):
        assert as_bit_array(np.array([[1, 0], [0, 1]])).shape == (4,)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64, bool])
    def test_result_is_a_fresh_copy(self, dtype):
        bits = np.array([0, 1, 1, 0], dtype=dtype)
        out = as_bit_array(bits)
        assert out.dtype == np.uint8
        assert not np.shares_memory(out, bits)
        out[:] = 1
        assert bits.tolist() == [0, 1, 1, 0]

    def test_copy_leaves_frame_preamble_untouched(self):
        fmt = FrameFormat()
        out = as_bit_array(fmt.preamble)
        out[:] = 0
        assert fmt.preamble.tolist() == FrameFormat().preamble.tolist() == [1, 0] * 4


#: A valid 64-bit frame (4-byte payload), so every entry point below,
#: including ``FrameFormat.parse``, accepts it as is.
_FRAME = FrameFormat().build(b"\x5a\x00\xff\x81")

#: Every public entry point that takes bits, called on one bit array.
_BIT_ENTRY_POINTS = {
    "as_bit_array": as_bit_array,
    "bits_to_bytes": bits_to_bytes,
    "pack_bits": pack_bits,
    "unpack_bits": lambda bits: unpack_bits(bits, 8, -1),
    "bits_to_int": bits_to_int,
    "hamming_distance": lambda bits: hamming_distance(bits, _FRAME),
    "FrameFormat.parse": lambda bits: FrameFormat().parse(bits),
}


class TestValidationAtEveryEntryPoint:
    """Bit validation is a comparison, not ``np.isin``; it must reject
    and accept exactly what the set-membership test did, at every
    entry point that takes bits."""

    @pytest.mark.parametrize("entry", sorted(_BIT_ENTRY_POINTS))
    @pytest.mark.parametrize(
        "dtype,bad",
        [(np.uint8, 2), (np.uint8, 255), (np.int64, -1), (np.float64, 0.5), (np.complex128, 1 + 1j)],
    )
    def test_rejects_non_bits(self, entry, dtype, bad):
        bits = _FRAME.astype(dtype)
        bits[5] = bad
        with pytest.raises(ValueError, match="0 and 1"):
            _BIT_ENTRY_POINTS[entry](bits)

    @pytest.mark.parametrize("entry", sorted(_BIT_ENTRY_POINTS))
    @pytest.mark.parametrize(
        "form",
        [
            lambda b: b.astype(bool),
            lambda b: b.astype(np.float64),
            lambda b: "".join(str(int(v)) for v in b),
        ],
        ids=["bool", "float", "str"],
    )
    def test_accepts_bits_in_any_form(self, entry, form):
        fn = _BIT_ENTRY_POINTS[entry]
        expected = fn(_FRAME)
        got = fn(form(_FRAME))
        if entry == "FrameFormat.parse":
            assert got.payload == expected.payload
        elif isinstance(expected, list):
            assert [g.tolist() for g in got] == [e.tolist() for e in expected]
        elif isinstance(expected, np.ndarray):
            np.testing.assert_array_equal(got, expected)
        else:
            assert got == expected


class TestBytesBits:
    def test_roundtrip(self):
        data = bytes(range(256))
        assert bits_to_bytes(bytes_to_bits(data)) == data

    def test_msb_first(self):
        assert bytes_to_bits(b"\x80").tolist() == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_lsb_first(self):
        assert bytes_to_bits(b"\x80", msb_first=False).tolist() == [0, 0, 0, 0, 0, 0, 0, 1]

    def test_lsb_roundtrip(self):
        data = b"\x12\x34\xab"
        assert bits_to_bytes(bytes_to_bits(data, msb_first=False), msb_first=False) == data

    def test_non_multiple_of_8_rejected(self):
        with pytest.raises(ValueError):
            bits_to_bytes([1, 0, 1])

    @given(st.binary(max_size=64))
    def test_roundtrip_property(self, data):
        assert bits_to_bytes(bytes_to_bits(data)) == data


class TestIntBits:
    def test_basic(self):
        assert int_to_bits(5, 4).tolist() == [0, 1, 0, 1]

    def test_roundtrip(self):
        for v in (0, 1, 127, 255):
            assert bits_to_int(int_to_bits(v, 8)) == v

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            int_to_bits(256, 8)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 8)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            int_to_bits(0, 0)

    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_roundtrip_property(self, v):
        assert bits_to_int(int_to_bits(v, 16)) == v


class TestPackUnpack:
    def test_pack(self):
        out = pack_bits([1, 0], "11", np.array([0], dtype=np.uint8))
        assert out.tolist() == [1, 0, 1, 1, 0]

    def test_pack_empty(self):
        assert pack_bits().size == 0

    def test_unpack_fields(self):
        a, b, c = unpack_bits(as_bit_array("10110"), 2, 2, 1)
        assert a.tolist() == [1, 0]
        assert b.tolist() == [1, 1]
        assert c.tolist() == [0]

    def test_unpack_rest(self):
        a, rest = unpack_bits(as_bit_array("10110"), 2, -1)
        assert rest.tolist() == [1, 1, 0]

    def test_unpack_too_short(self):
        with pytest.raises(ValueError):
            unpack_bits(as_bit_array("10"), 3)

    def test_rest_only_last(self):
        with pytest.raises(ValueError):
            unpack_bits(as_bit_array("1010"), -1, 2)


class TestHamming:
    def test_zero_distance(self):
        assert hamming_distance("1010", "1010") == 0

    def test_all_differ(self):
        assert hamming_distance("1111", "0000") == 4

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance("10", "100")


class TestBipolar:
    def test_mapping(self):
        assert bits_to_bipolar([1, 0, 1]).tolist() == [1.0, -1.0, 1.0]

    def test_roundtrip(self):
        bits = random_bits(100, np.random.default_rng(0))
        assert np.array_equal(bipolar_to_bits(bits_to_bipolar(bits)), bits)

    @given(st.lists(st.integers(0, 1), max_size=64))
    def test_roundtrip_property(self, bits):
        arr = as_bit_array(bits)
        assert np.array_equal(bipolar_to_bits(bits_to_bipolar(arr)), arr)


class TestRandomBits:
    def test_length(self):
        assert random_bits(17).size == 17

    def test_deterministic_with_seed(self):
        a = random_bits(50, np.random.default_rng(1))
        b = random_bits(50, np.random.default_rng(1))
        assert np.array_equal(a, b)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            random_bits(-1)
