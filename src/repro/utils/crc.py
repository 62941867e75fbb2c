"""Cyclic redundancy checks.

The CBMA frame format (paper Sec. III-A) appends *two bytes of cyclic
redundancy check* to every frame.  The paper does not name the exact
polynomial; we default to CRC-16/CCITT-FALSE (polynomial 0x1021, init
0xFFFF), the usual choice in low-power radio framing (it is the CRC of
802.15.4 and of the EPC Gen2 air interface the paper cites), and also
provide CRC-16/IBM for completeness.

The implementation is table-driven so that checking thousands of frames
per simulated experiment stays cheap.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.utils.bits import as_bit_array, bits_to_bytes, bytes_to_bits

__all__ = ["Crc16", "crc16_ccitt", "crc16_ibm", "CRC16_CCITT", "CRC16_IBM"]


def _build_table(poly: int, reflect: bool) -> Tuple[int, ...]:
    """Precompute the 256-entry CRC table for *poly*.

    Plain Python ints: :meth:`Crc16.compute` indexes the table once per
    byte, and a numpy scalar lookup costs more than the XOR it feeds.
    """
    table = []
    for byte in range(256):
        if reflect:
            crc = byte
            for _ in range(8):
                crc = (crc >> 1) ^ (poly if crc & 1 else 0)
        else:
            crc = byte << 8
            for _ in range(8):
                crc = ((crc << 1) ^ poly if crc & 0x8000 else crc << 1) & 0xFFFF
        table.append(crc)
    return tuple(table)


def _reflect16(value: int) -> int:
    out = 0
    for i in range(16):
        if value & (1 << i):
            out |= 1 << (15 - i)
    return out


def _reflect_poly(poly: int) -> int:
    return _reflect16(poly)


class Crc16:
    """A parametric 16-bit CRC.

    Parameters
    ----------
    poly:
        Generator polynomial in normal (MSB-first) notation.
    init:
        Initial shift-register value.
    reflect:
        Whether input bytes and the final CRC are bit-reflected
        (true for CRC-16/IBM, false for CRC-16/CCITT-FALSE).
    xor_out:
        Final XOR applied to the register.
    """

    def __init__(self, poly: int, init: int, reflect: bool, xor_out: int = 0x0000, name: str = "crc16"):
        self.poly = poly
        self.init = init
        self.reflect = reflect
        self.xor_out = xor_out
        self.name = name
        table_poly = _reflect_poly(poly) if reflect else poly
        self._table = _build_table(table_poly, reflect)

    def compute(self, data: Union[bytes, bytearray]) -> int:
        """Return the CRC of *data* as an integer in [0, 0xFFFF]."""
        crc = self.init
        table = self._table
        if self.reflect:
            for byte in bytes(data):
                crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
        else:
            for byte in bytes(data):
                crc = ((crc << 8) & 0xFFFF) ^ table[((crc >> 8) ^ byte) & 0xFF]
        return crc ^ self.xor_out

    def compute_bits(self, bits) -> np.ndarray:
        """CRC over a bit array whose length is a multiple of 8.

        Returns the 16 CRC bits MSB first, ready to append to a frame.
        """
        data = bits_to_bytes(as_bit_array(bits))
        crc = self.compute(data)
        return bytes_to_bits(crc.to_bytes(2, "big"))

    def check(self, data: Union[bytes, bytearray], expected: int) -> bool:
        """True when *data* has CRC *expected*."""
        return self.compute(data) == expected

    def check_bits(self, payload_bits, crc_bits) -> bool:
        """True when the 16 *crc_bits* match the CRC of *payload_bits*."""
        got = self.compute_bits(payload_bits)
        want = as_bit_array(crc_bits)
        if want.size != 16:
            raise ValueError(f"crc field must be 16 bits, got {want.size}")
        return bool(np.array_equal(got, want))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Crc16(name={self.name!r}, poly=0x{self.poly:04X}, init=0x{self.init:04X}, reflect={self.reflect})"


CRC16_CCITT = Crc16(poly=0x1021, init=0xFFFF, reflect=False, xor_out=0x0000, name="crc16-ccitt-false")
CRC16_IBM = Crc16(poly=0x8005, init=0x0000, reflect=True, xor_out=0x0000, name="crc16-ibm")


def crc16_ccitt(data: Union[bytes, bytearray]) -> int:
    """CRC-16/CCITT-FALSE of *data* (the library default)."""
    return CRC16_CCITT.compute(data)


def crc16_ibm(data: Union[bytes, bytearray]) -> int:
    """CRC-16/IBM (ARC) of *data*."""
    return CRC16_IBM.compute(data)
