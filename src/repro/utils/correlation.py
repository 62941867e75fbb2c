"""Correlation primitives used by the CBMA receiver.

The receiver's three DSP stages -- frame synchronisation, user detection
and chip decoding (paper Sec. III-B) -- are all built on correlation:

- *sliding correlation* of a known preamble/PN template against the
  incoming sample stream locates frames and identifies which tag's PN
  code is present;
- *normalised correlation* against the per-bit chip templates decides
  each bit.

These helpers are deliberately dtype-agnostic: they accept real bipolar
chips as well as complex baseband samples.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.utils.contracts import array_contract

__all__ = [
    "DENOM_FLOOR",
    "guard_denominator",
    "normalized_correlation",
    "sliding_correlation",
    "correlation_peaks",
]

#: Smallest denominator treated as carrying signal: the smallest
#: *positive normal* float64 (~2.2e-308).  Any representable window
#: energy or norm sits at or above it, while a numerically zero (or
#: cancellation-negative, or underflowed-subnormal) value falls below,
#: so clamping to this floor turns 0/0 into exactly 0 without ever
#: distorting a real normalisation -- even for denormal-scale signals.
DENOM_FLOOR: float = float(np.finfo(np.float64).tiny)


def guard_denominator(denom, floor: float = DENOM_FLOOR, out=None):
    """Clamp a non-negative denominator away from zero.

    The single epsilon-guard for every correlation normalisation: all
    zero/near-zero-energy handling routes through here instead of
    ad-hoc ``== 0`` sentinel tests or magic clamps, so the degenerate
    behaviour (zero numerator over floored denominator -> exactly 0) is
    uniform across the reference and batched kernels.  Also repairs tiny
    *negative* energies produced by cumulative-sum cancellation, which
    would otherwise turn into NaN under ``sqrt``.

    Accepts a scalar or an array; returns the same shape, written into
    *out* when given (``out=denom`` clamps in place).
    """
    return np.maximum(denom, floor, out=out)


@array_contract(x="(n) any", template="(n) any")
def normalized_correlation(x: np.ndarray, template: np.ndarray) -> float:
    """Normalised correlation of two equal-length sequences.

    Returns ``|<x, template>| / (||x|| * ||template||)`` -- a value in
    [0, 1] that is 1 iff the sequences are identical up to a complex
    scale factor.  The magnitude makes the metric insensitive to the
    unknown carrier phase of a backscattered signal.
    """
    x = np.asarray(x)
    template = np.asarray(template)
    if x.shape != template.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {template.shape}")
    denom = guard_denominator(np.linalg.norm(x) * np.linalg.norm(template))
    return float(np.abs(np.vdot(template, x)) / denom)


@array_contract(signal="(n) any", template="(m) any")
def sliding_correlation(signal: np.ndarray, template: np.ndarray, normalize: bool = True) -> np.ndarray:
    """Correlate *template* against every alignment of *signal*.

    Returns an array of length ``len(signal) - len(template) + 1`` where
    entry ``k`` is the (optionally normalised) correlation of
    ``signal[k:k+len(template)]`` with the template.

    The un-normalised path is a plain FFT-free vectorised dot product via
    :func:`numpy.convolve`; the normalised path divides by the local
    signal energy so that strong interferers do not masquerade as peaks.

    This one-template loop is the reference the batched FFT kernel
    (:mod:`repro.utils.correlation_batch`) is tested and benched against.
    """
    signal = np.asarray(signal)
    template = np.asarray(template)
    n, m = signal.size, template.size
    if m == 0:
        raise ValueError("template must be non-empty")
    if n < m:
        return np.zeros(0, dtype=np.float64)
    # Cross-correlation == convolution with conjugate-reversed template.
    raw = np.convolve(signal, np.conj(template[::-1]), mode="valid")
    mags = np.abs(raw)
    if not normalize:
        return mags
    # Local energy of each length-m window, computed with a cumulative sum.
    power = np.abs(signal) ** 2
    csum = np.concatenate(([0.0], np.cumsum(power)))
    window_energy = guard_denominator(csum[m:] - csum[:-m])
    denom = guard_denominator(np.sqrt(window_energy) * np.linalg.norm(template))
    return mags / denom


def correlation_peaks(corr: np.ndarray, threshold: float, min_spacing: int = 1) -> np.ndarray:
    """Indices of local maxima in *corr* that exceed *threshold*, ascending.

    Greedy non-maximum suppression: peaks are taken in descending
    height order -- ties broken by the *earliest* index, so the result
    is deterministic across platforms and numpy versions -- and any
    candidate within *min_spacing* samples of an accepted peak is
    dropped.  Used by user detection (and the diversity receiver's
    combined detection) to keep one alignment hypothesis per
    correlation peak.

    The suppression bisects the position-sorted candidate list for
    each accepted peak's range kill, so a pathological plateau of P
    above-threshold samples costs O(P log P) rather than the O(P^2) of
    an all-pairs distance check, and no numpy call is made per peak.
    """
    corr = np.asarray(corr, dtype=np.float64)
    candidates = np.flatnonzero(corr >= threshold)
    if candidates.size == 0 or min_spacing <= 1:
        # Distinct indices are always >= 1 apart: nothing to suppress.
        return candidates.astype(np.int64)
    # Height-descending with an ascending-index tie-break: lexsort's
    # last key is primary, and both keys impose a total order, so the
    # visit order is fully deterministic even on tied plateaus (the
    # default argsort is an unstable quicksort whose tie order is
    # platform-dependent).
    order = np.lexsort((candidates, -corr[candidates])).tolist()
    positions = candidates.tolist()
    alive = bytearray(b"\x01") * len(positions)
    accepted = []
    for i in order:
        if not alive[i]:
            continue
        peak = positions[i]
        accepted.append(peak)
        lo = bisect_left(positions, peak - min_spacing + 1)
        hi = bisect_left(positions, peak + min_spacing, lo)
        alive[lo:hi] = bytes(hi - lo)
    accepted.sort()
    return np.array(accepted, dtype=np.int64)
