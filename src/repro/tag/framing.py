"""CBMA frame format (paper Sec. III-A).

A frame is::

    | preamble | length (1 byte) | payload (<= 126 bytes) | CRC-16 |

The default preamble is the paper's one byte ``10101010``; the frame
detection study (Fig. 8(c)) sweeps the preamble over 4..64 bits, so
the length is configurable.  The length byte counts payload bytes; the
CRC covers length + payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.bits import as_bit_array, bytes_to_bits, int_to_bits, pack_bits
from repro.utils.crc import CRC16_CCITT, Crc16

__all__ = ["FrameFormat", "Frame", "DEFAULT_PREAMBLE", "MAX_PAYLOAD_BYTES", "FrameError"]

#: The paper's preamble byte, alternating 1/0.
DEFAULT_PREAMBLE = "10101010"
MAX_PAYLOAD_BYTES = 126


class FrameError(ValueError):
    """Raised when bits cannot be parsed as a valid frame."""


def _alternating_preamble(n_bits: int) -> np.ndarray:
    """Extend the paper's alternating pattern to *n_bits*."""
    return np.array([(i + 1) % 2 for i in range(n_bits)], dtype=np.uint8)


@dataclass(frozen=True, eq=False)
class FrameFormat:
    """Frame geometry shared by tags and the receiver.

    Attributes
    ----------
    preamble:
        The known preamble bit pattern (default: the paper's
        ``10101010``).  Stored as a read-only ``uint8`` copy of what
        was passed, so the format never aliases the caller's array.
    crc:
        CRC implementation covering the length byte and payload.

    Two formats are equal, and hash alike, when their preamble bits and
    CRC parameters (polynomial, init, reflection, final XOR) match.
    """

    preamble: np.ndarray = field(default_factory=lambda: as_bit_array(DEFAULT_PREAMBLE))
    crc: Crc16 = CRC16_CCITT

    def __post_init__(self) -> None:
        preamble = as_bit_array(self.preamble)
        preamble.flags.writeable = False
        object.__setattr__(self, "preamble", preamble)

    def _key(self) -> tuple:
        crc = self.crc
        return (self.preamble.tobytes(), crc.poly, crc.init, crc.reflect, crc.xor_out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrameFormat):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @classmethod
    def with_preamble_bits(cls, n_bits: int) -> "FrameFormat":
        """Format with an alternating preamble of *n_bits* (Fig. 8(c) sweep)."""
        if n_bits < 1:
            raise ValueError("preamble must have at least 1 bit")
        return cls(preamble=_alternating_preamble(n_bits))

    @property
    def preamble_bits(self) -> int:
        return int(self.preamble.size)

    def header_bits(self) -> int:
        """Preamble + length field size in bits."""
        return self.preamble_bits + 8

    def overhead_bits(self) -> int:
        """All non-payload bits per frame (preamble + length + CRC)."""
        return self.header_bits() + 16

    def frame_bits(self, payload_bytes: int) -> int:
        """Total bits of a frame carrying *payload_bytes*."""
        if not 0 <= payload_bytes <= MAX_PAYLOAD_BYTES:
            raise ValueError(f"payload must be 0..{MAX_PAYLOAD_BYTES} bytes")
        return self.overhead_bits() + 8 * payload_bytes

    def build(self, payload: bytes) -> np.ndarray:
        """Serialise *payload* into frame bits."""
        payload = bytes(payload)
        if len(payload) > MAX_PAYLOAD_BYTES:
            raise ValueError(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD_BYTES}")
        length_bits = int_to_bits(len(payload), 8)
        body = pack_bits(length_bits, bytes_to_bits(payload))
        crc_bits = self.crc.compute_bits(body)
        return pack_bits(self.preamble, body, crc_bits)

    def check_body(self, body: np.ndarray) -> bytes:
        """Check a frame body in bytes and return its payload.

        *body* is the ``np.packbits`` output of the bits after the
        preamble: the length byte, the payload, the two CRC bytes and
        any trailing bytes, which are ignored.  Raises
        :class:`FrameError` when the bytes do not cover length +
        payload + CRC, the length byte exceeds
        :data:`MAX_PAYLOAD_BYTES`, or the CRC-16 over length + payload
        does not match.  This is the receive path's one frame check:
        :meth:`parse` and every decoder settle a frame here.
        """
        length = int(body[0]) if body.size else 0
        if length > MAX_PAYLOAD_BYTES:
            raise FrameError(f"length byte {length} exceeds max payload")
        if body.size < length + 3:
            raise FrameError(
                f"frame truncated: need {length + 3} bytes after the preamble, have {body.size}"
            )
        data = body[: length + 1].tobytes()
        if self.crc.compute(data) != int(body[length + 1]) << 8 | int(body[length + 2]):
            raise FrameError("CRC mismatch")
        return data[1:]

    def parse(self, bits: np.ndarray, check_preamble: bool = True) -> "Frame":
        """Parse frame bits back into a :class:`Frame`.

        Raises :class:`FrameError` on truncation, bad preamble, an
        inconsistent length field or CRC mismatch; bits past the CRC
        are ignored.  ``check_preamble`` can be disabled when the
        caller already synchronised on the preamble and stripped
        nothing.  The body is checked by :meth:`check_body`.
        """
        arr = as_bit_array(bits)
        if arr.size < self.overhead_bits():
            raise FrameError(f"{arr.size} bits shorter than minimum frame {self.overhead_bits()}")
        n_pre = self.preamble_bits
        if check_preamble and not np.array_equal(arr[:n_pre], self.preamble):
            raise FrameError("preamble mismatch")
        whole = n_pre + (arr.size - n_pre) // 8 * 8
        return Frame(payload=self.check_body(np.packbits(arr[n_pre:whole])), fmt=self)


@dataclass(frozen=True)
class Frame:
    """A parsed (or to-be-sent) frame."""

    payload: bytes
    fmt: FrameFormat = field(default_factory=FrameFormat)

    def to_bits(self) -> np.ndarray:
        """Serialise to on-air bits."""
        return self.fmt.build(self.payload)

    @property
    def n_bits(self) -> int:
        return self.fmt.frame_bits(len(self.payload))
