"""Unit tests for repro.tag.framing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.tag.framing import (
    DEFAULT_PREAMBLE,
    Frame,
    FrameError,
    FrameFormat,
    MAX_PAYLOAD_BYTES,
)
from repro.utils.bits import as_bit_array
from repro.utils.crc import CRC16_CCITT, CRC16_IBM, Crc16


class TestFrameFormat:
    def test_default_preamble_is_paper_byte(self):
        fmt = FrameFormat()
        assert "".join(str(b) for b in fmt.preamble) == "10101010" == DEFAULT_PREAMBLE

    def test_with_preamble_bits_alternating(self):
        fmt = FrameFormat.with_preamble_bits(5)
        assert fmt.preamble.tolist() == [1, 0, 1, 0, 1]

    def test_with_preamble_bits_invalid(self):
        with pytest.raises(ValueError):
            FrameFormat.with_preamble_bits(0)

    def test_equal_formats_compare_and_hash_alike(self):
        a, b = FrameFormat(), FrameFormat()
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        # Same bits given another way: same format.
        assert FrameFormat(preamble=np.array([1, 0] * 4, dtype=np.int64)) == a
        assert FrameFormat(preamble=DEFAULT_PREAMBLE) == a
        assert FrameFormat.with_preamble_bits(8) == a
        # A CRC with the same parameters but another object is the same CRC.
        same_crc = Crc16(CRC16_CCITT.poly, CRC16_CCITT.init, CRC16_CCITT.reflect, CRC16_CCITT.xor_out)
        assert FrameFormat(crc=same_crc) == a
        assert hash(FrameFormat(crc=same_crc)) == hash(a)

    def test_different_formats_differ(self):
        a = FrameFormat()
        assert a != FrameFormat.with_preamble_bits(16)
        assert a != FrameFormat(preamble="10101011")
        assert a != FrameFormat(crc=CRC16_IBM)
        # One CRC parameter apart is another CRC.
        ccitt = CRC16_CCITT
        for params in (
            (ccitt.poly, 0x0000, ccitt.reflect, ccitt.xor_out),
            (ccitt.poly, ccitt.init, not ccitt.reflect, ccitt.xor_out),
            (ccitt.poly, ccitt.init, ccitt.reflect, 0xFFFF),
        ):
            assert a != FrameFormat(crc=Crc16(*params))
        assert a != "10101010"

    def test_frames_compare_by_format(self):
        assert Frame(b"hi") == Frame(b"hi", fmt=FrameFormat())
        assert Frame(b"hi") != Frame(b"hi", fmt=FrameFormat.with_preamble_bits(16))

    def test_preamble_is_a_read_only_copy(self):
        bits = np.array([1, 0, 1, 0], dtype=np.uint8)
        fmt = FrameFormat(preamble=bits)
        bits[0] = 0
        assert fmt.preamble.tolist() == [1, 0, 1, 0]
        with pytest.raises(ValueError):
            fmt.preamble[0] = 0

    def test_invalid_preamble_rejected(self):
        with pytest.raises(ValueError):
            FrameFormat(preamble=np.array([1, 2]))

    def test_overhead_bits(self):
        fmt = FrameFormat()
        # 8 preamble + 8 length + 16 CRC.
        assert fmt.overhead_bits() == 32

    def test_frame_bits(self):
        fmt = FrameFormat()
        assert fmt.frame_bits(10) == 32 + 80

    def test_frame_bits_bounds(self):
        with pytest.raises(ValueError):
            FrameFormat().frame_bits(127)


class TestBuildParse:
    def test_roundtrip(self):
        fmt = FrameFormat()
        payload = b"hello, backscatter"
        frame = fmt.parse(fmt.build(payload))
        assert frame.payload == payload

    def test_empty_payload(self):
        fmt = FrameFormat()
        assert fmt.parse(fmt.build(b"")).payload == b""

    def test_max_payload(self):
        fmt = FrameFormat()
        payload = bytes(range(256))[:MAX_PAYLOAD_BYTES]
        assert fmt.parse(fmt.build(payload)).payload == payload

    def test_oversize_payload_rejected(self):
        with pytest.raises(ValueError):
            FrameFormat().build(b"x" * (MAX_PAYLOAD_BYTES + 1))

    def test_corrupt_payload_fails_crc(self):
        fmt = FrameFormat()
        bits = fmt.build(b"abcdef").copy()
        bits[fmt.header_bits() + 5] ^= 1
        with pytest.raises(FrameError, match="CRC"):
            fmt.parse(bits)

    def test_corrupt_length_detected(self):
        fmt = FrameFormat()
        bits = fmt.build(b"abcdef").copy()
        # Flip the MSB of the length byte -> implausible or truncated.
        bits[fmt.preamble_bits] ^= 1
        with pytest.raises(FrameError):
            fmt.parse(bits)

    def test_bad_preamble_rejected(self):
        fmt = FrameFormat()
        bits = fmt.build(b"xyz").copy()
        bits[0] ^= 1
        with pytest.raises(FrameError, match="preamble"):
            fmt.parse(bits)

    def test_preamble_check_can_be_skipped(self):
        fmt = FrameFormat()
        bits = fmt.build(b"xyz").copy()
        bits[0] ^= 1
        assert fmt.parse(bits, check_preamble=False).payload == b"xyz"

    def test_truncated(self):
        fmt = FrameFormat()
        bits = fmt.build(b"a long enough payload")
        with pytest.raises(FrameError):
            fmt.parse(bits[:40])

    def test_too_short_for_header(self):
        with pytest.raises(FrameError):
            FrameFormat().parse(as_bit_array("1010"))

    def test_trailing_bits_ignored(self):
        """Extra bits after the CRC (next frame, noise) must not break parsing."""
        fmt = FrameFormat()
        bits = np.concatenate([fmt.build(b"data"), as_bit_array("10110011")])
        assert fmt.parse(bits).payload == b"data"

    @given(st.binary(max_size=MAX_PAYLOAD_BYTES))
    def test_roundtrip_property(self, payload):
        fmt = FrameFormat()
        assert fmt.parse(fmt.build(payload)).payload == payload

    @given(st.binary(min_size=1, max_size=32), st.data())
    def test_single_bit_flip_never_accepted_quietly(self, payload, draw):
        """Any single-bit corruption after the preamble must raise."""
        fmt = FrameFormat()
        bits = fmt.build(payload).copy()
        pos = draw.draw(st.integers(fmt.preamble_bits, bits.size - 1))
        bits[pos] ^= 1
        try:
            frame = fmt.parse(bits)
        except FrameError:
            return
        # Parsing may only succeed if it decoded the original payload
        # (impossible with a flipped bit covered by the CRC).
        assert frame.payload != payload or False, "corrupted frame accepted"


class TestFrame:
    def test_to_bits_roundtrip(self):
        frame = Frame(payload=b"ping")
        fmt = frame.fmt
        assert fmt.parse(frame.to_bits()).payload == b"ping"

    def test_n_bits(self):
        frame = Frame(payload=b"ping")
        assert frame.n_bits == frame.to_bits().size

    def test_varied_preamble_roundtrip(self):
        for n in (4, 16, 64):
            fmt = FrameFormat.with_preamble_bits(n)
            assert fmt.parse(fmt.build(b"zz")).payload == b"zz"
