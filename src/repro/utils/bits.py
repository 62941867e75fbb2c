"""Bit- and byte-level helpers.

The CBMA tag operates on bit streams: frames are sequences of bits, PN
spreading multiplies bits by chips, and the receiver recovers bits from
correlation decisions.  All functions in this module represent a *bit
array* as a one-dimensional :class:`numpy.ndarray` of dtype ``uint8``
containing only the values 0 and 1.  Using a single canonical
representation keeps every layer of the stack (framing, coding,
modulation) interoperable without ad-hoc conversions.

Every function that takes bits validates them through
:func:`as_bit_array` on every call: there is no unchecked twin.  The
check is a comparison, not a set-membership sort (``max() <= 1`` for
``uint8`` input, ``(a == 0) | (a == 1)`` otherwise).  The receiver's
decode path does not come here: its bits are its own ``uint8``
decisions, which it packs with ``np.packbits`` and checks in bytes
(:meth:`repro.tag.framing.FrameFormat.check_body`).
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

import numpy as np

BitArray = np.ndarray

__all__ = [
    "bits_to_bytes",
    "bits_to_int",
    "bytes_to_bits",
    "hamming_distance",
    "int_to_bits",
    "pack_bits",
    "random_bits",
    "unpack_bits",
    "as_bit_array",
    "bits_to_bipolar",
    "bipolar_to_bits",
]


def as_bit_array(bits: Union[Iterable[int], str, np.ndarray]) -> BitArray:
    """Coerce *bits* into the canonical uint8 0/1 array.

    Accepts any iterable of integers, a numpy array, or a string such as
    ``"10110"``.  Raises :class:`ValueError` when any element is not 0/1.
    The result is always a fresh array: mutating it never touches the
    caller's input (:attr:`repro.tag.framing.FrameFormat.preamble`
    relies on that).
    """
    if isinstance(bits, str):
        if not all(ch in "01" for ch in bits):
            raise ValueError(f"bit string may contain only '0'/'1': {bits!r}")
        return np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    arr = np.asarray(bits)
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.dtype == np.uint8:
        valid = not arr.size or arr.max() <= 1
    else:
        valid = bool(((arr == 0) | (arr == 1)).all())
    if not valid:
        raise ValueError("bit array may contain only 0 and 1")
    return arr.astype(np.uint8)


def bytes_to_bits(data: bytes, msb_first: bool = True) -> BitArray:
    """Expand *data* into a bit array, 8 bits per byte.

    Parameters
    ----------
    data:
        Raw bytes to expand.
    msb_first:
        When true (the default, matching on-air order in the paper's
        frame format) the most significant bit of each byte comes first.
    """
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    bits = np.unpackbits(arr)
    if not msb_first:
        bits = bits.reshape(-1, 8)[:, ::-1].ravel()
    return bits


def bits_to_bytes(bits: Union[Iterable[int], np.ndarray], msb_first: bool = True) -> bytes:
    """Pack a bit array (length divisible by 8) back into bytes."""
    arr = as_bit_array(bits)
    if arr.size % 8 != 0:
        raise ValueError(f"bit length {arr.size} is not a multiple of 8")
    if not msb_first:
        arr = arr.reshape(-1, 8)[:, ::-1].ravel()
    return np.packbits(arr).tobytes()


def int_to_bits(value: int, width: int) -> BitArray:
    """Represent a non-negative integer as *width* bits, MSB first."""
    if value < 0:
        raise ValueError("value must be non-negative")
    if width <= 0:
        raise ValueError("width must be positive")
    if value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def bits_to_int(bits: Union[Iterable[int], np.ndarray]) -> int:
    """Interpret a bit array as an MSB-first unsigned integer."""
    arr = as_bit_array(bits)
    value = 0
    for bit in arr:
        value = (value << 1) | int(bit)
    return value


def pack_bits(*groups: Union[Iterable[int], np.ndarray]) -> BitArray:
    """Concatenate several bit groups into one bit array."""
    parts = [as_bit_array(g) for g in groups]
    if not parts:
        return np.zeros(0, dtype=np.uint8)
    return np.concatenate(parts)


def unpack_bits(bits: np.ndarray, *widths: int) -> list:
    """Split a bit array into consecutive fields of the given widths.

    The final field may be given as ``-1`` meaning "the rest".
    Returns a list of bit arrays, one per width.
    """
    arr = as_bit_array(bits)
    out = []
    offset = 0
    for i, width in enumerate(widths):
        if width == -1:
            if i != len(widths) - 1:
                raise ValueError("-1 width is only allowed in the last position")
            out.append(arr[offset:])
            offset = arr.size
            continue
        if offset + width > arr.size:
            raise ValueError(
                f"bit array of length {arr.size} too short for field of width {width} at offset {offset}"
            )
        out.append(arr[offset : offset + width])
        offset += width
    return out


def hamming_distance(a: Union[Iterable[int], np.ndarray], b: Union[Iterable[int], np.ndarray]) -> int:
    """Number of positions where the two equal-length bit arrays differ."""
    xa, xb = as_bit_array(a), as_bit_array(b)
    if xa.size != xb.size:
        raise ValueError(f"length mismatch: {xa.size} != {xb.size}")
    return int(np.count_nonzero(xa != xb))


def random_bits(n: int, rng: Optional[np.random.Generator] = None) -> BitArray:
    """Generate *n* uniformly random bits.

    Callers that care about reproducibility must pass a seeded
    generator; with ``rng=None`` the draw comes from OS entropy (the
    one sanctioned unseeded path, via :func:`repro.utils.rng.make_rng`).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    from repro.utils.rng import make_rng

    return make_rng(rng).integers(0, 2, size=n, dtype=np.uint8)


def bits_to_bipolar(bits: Union[Iterable[int], np.ndarray]) -> np.ndarray:
    """Map bits {0, 1} to bipolar chips {-1.0, +1.0}.

    The convention follows the DSSS literature: bit 1 maps to +1 and
    bit 0 maps to -1, so correlation of identical sequences is maximal.
    """
    arr = as_bit_array(bits)
    return arr.astype(np.float64) * 2.0 - 1.0


def bipolar_to_bits(chips: np.ndarray) -> BitArray:
    """Hard-decide bipolar values back to bits (>= 0 becomes 1)."""
    arr = np.asarray(chips, dtype=np.float64)
    return (arr >= 0).astype(np.uint8)
