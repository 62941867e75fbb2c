"""Batched, FFT-backed sliding correlation -- the receiver's hot path.

Every receiver stage (frame sync hypotheses, user detection, diversity
combining, the streaming window walk) reduces to the same primitive:
correlate *U* equal-length user templates against every alignment of
one sample window.  :func:`repro.utils.correlation.sliding_correlation`
does that one template at a time with an O(n*m) ``np.convolve``; this
module does all *U* templates in one vectorised pass:

- the window's FFT is computed **once** and shared by every template
  (cross-correlation is a product in the frequency domain);
- the local window-energy normalisation is computed **once** as a
  cumulative sum and shared by every template row;
- long windows fall back to **overlap-save** blocks so memory stays
  bounded by the block size, not the buffer length.

This is the only production correlation kernel.
:func:`repro.utils.correlation.sliding_correlation` is the reference it
is tested and benched against: same normalisation, same
:func:`~repro.utils.correlation.guard_denominator` epsilon policy,
agreement to ~1e-12 relative (FFT rounding only).

Template construction is cached: :func:`template_bank` memoises the
stacked spread-preamble matrix per ``(FrameFormat, codes,
samples_per_chip)``, so constructing many receivers over one code book
(sweeps, streaming, SIC passes) builds the templates once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tag.framing import FrameFormat

from repro.utils.contracts import array_contract
from repro.utils.correlation import guard_denominator

__all__ = [
    "sliding_correlation_batch",
    "sliding_correlation_many",
    "TemplateBank",
    "template_bank",
    "clear_template_cache",
]

#: Overlap-save engages above this many signal samples: one giant FFT
#: of a multi-second capture would allocate U full-length spectra,
#: while blocks keep the working set at a few hundred KiB per template.
_OVERLAP_SAVE_THRESHOLD = 1 << 17


def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= *n* (pocketfft is fastest there)."""
    if n <= 6:
        return max(n, 1)
    best = 1 << (n - 1).bit_length()  # power-of-two fallback bound
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # Smallest power of two lifting p35 over n, if it improves.
            k = p35
            while k < n:
                k *= 2
            if k < best:
                best = k
            p35 *= 3
        p5 *= 5
    return best


def _fft_valid_correlation(signal: np.ndarray, templates: np.ndarray) -> np.ndarray:
    """``|valid cross-correlation|`` of every template row, via one
    shared signal FFT (callers guarantee ``n >= m``)."""
    n = signal.size
    m = templates.shape[1]
    nfft = _next_fast_len(n)
    # Cross-correlation == convolution with the conjugate-reversed
    # template; real inputs take the half-spectrum (rfft) fast path.
    kernels = np.conj(templates[:, ::-1])
    if not np.iscomplexobj(signal) and not np.iscomplexobj(kernels):
        spec = np.fft.rfft(signal, nfft)
        kspec = np.fft.rfft(kernels.real, nfft, axis=1)
        full = np.fft.irfft(spec[None, :] * kspec, nfft, axis=1)
    else:
        spec = np.fft.fft(signal, nfft)
        kspec = np.fft.fft(kernels, nfft, axis=1)
        full = np.fft.ifft(spec[None, :] * kspec, axis=1)
    # "valid" slice of the full linear convolution.
    return np.abs(full[:, m - 1 : n])


def _overlap_save_correlation(signal: np.ndarray, templates: np.ndarray) -> np.ndarray:
    """Overlap-save variant: process *signal* in blocks sharing one
    kernel-spectrum computation, bounding memory on long captures."""
    n = signal.size
    m = templates.shape[1]
    n_valid = n - m + 1
    block = _next_fast_len(max(4 * m, 1 << 14))
    step = block - (m - 1)
    out = np.empty((templates.shape[0], n_valid), dtype=np.float64)
    kernels = np.conj(templates[:, ::-1])
    real = not np.iscomplexobj(signal) and not np.iscomplexobj(kernels)
    if real:
        kspec = np.fft.rfft(kernels.real, block, axis=1)
    else:
        kspec = np.fft.fft(kernels, block, axis=1)
    pos = 0
    while pos < n_valid:
        chunk = signal[pos : pos + block]
        if real:
            spec = np.fft.rfft(chunk, block)
            full = np.fft.irfft(spec[None, :] * kspec, block, axis=1)
        else:
            spec = np.fft.fft(chunk, block)
            full = np.fft.ifft(spec[None, :] * kspec, axis=1)
        take = min(step, n_valid - pos, chunk.size - m + 1 if chunk.size >= m else 0)
        if take <= 0:
            break
        out[:, pos : pos + take] = np.abs(full[:, m - 1 : m - 1 + take])
        pos += take
    return out


@array_contract(signal="(n) any", templates="(u, m) any")
def sliding_correlation_batch(signal: np.ndarray, templates: np.ndarray) -> np.ndarray:
    """Correlate every row of *templates* against every alignment of
    *signal* in one batched pass.

    Parameters
    ----------
    signal:
        1-D sample buffer (real or complex).
    templates:
        2-D stack ``(U, m)`` of equal-length templates.

    Each alignment is divided by the local window energy (one cumsum
    shared by all rows) times the row's template norm -- the
    normalisation of :func:`repro.utils.correlation.sliding_correlation`,
    which this matches to FFT rounding (~1e-12 relative).

    Returns
    -------
    ``(U, n - m + 1)`` float64 array of normalised correlation magnitudes.
    """
    signal = np.asarray(signal)
    templates = np.asarray(templates)
    if templates.ndim != 2:
        raise ValueError(f"templates must be a 2-D stack, got shape {templates.shape}")
    n = signal.size
    n_templates, m = templates.shape
    if m == 0:
        raise ValueError("templates must be non-empty")
    if n < m:
        return np.zeros((n_templates, 0), dtype=np.float64)

    if n > _OVERLAP_SAVE_THRESHOLD:
        mags = _overlap_save_correlation(signal, templates)
    else:
        mags = _fft_valid_correlation(signal, templates)

    # One shared window-energy cumsum normalises every template row.
    power = np.abs(signal) ** 2
    csum = np.concatenate(([0.0], np.cumsum(power)))
    window_energy = guard_denominator(csum[m:] - csum[:-m])
    template_norms = np.linalg.norm(templates, axis=1)
    denom = guard_denominator(np.sqrt(window_energy)[None, :] * template_norms[:, None])
    return mags / denom


@array_contract(signals="(s, n) any", templates="(u, m) any")
def sliding_correlation_many(signals: np.ndarray, templates: np.ndarray) -> np.ndarray:
    """Correlate every template row against every alignment of a whole
    *stack* of equal-length windows in one pass.

    This is the cross-session extension of
    :func:`sliding_correlation_batch`: the farm co-schedules sessions
    that share one :class:`TemplateBank`, stacks their pending windows
    into ``signals`` of shape ``(S, n)``, and gates them all with a
    single batched FFT.  Each output row ``out[s]`` is **bit-identical**
    to ``sliding_correlation_batch(signals[s], templates)``: the FFT,
    the cumulative-sum normalisation and the epsilon guard are all
    computed row-independently, so batching windows together never
    changes any single window's scores.

    Returns
    -------
    ``(S, U, n - m + 1)`` float64 array of correlation magnitudes.
    """
    signals = np.asarray(signals)
    templates = np.asarray(templates)
    if signals.ndim != 2:
        raise ValueError(f"signals must be a 2-D stack, got shape {signals.shape}")
    if templates.ndim != 2:
        raise ValueError(f"templates must be a 2-D stack, got shape {templates.shape}")
    n_signals, n = signals.shape
    n_templates, m = templates.shape
    if m == 0:
        raise ValueError("templates must be non-empty")
    if n < m:
        return np.zeros((n_signals, n_templates, 0), dtype=np.float64)

    if n > _OVERLAP_SAVE_THRESHOLD:
        # The overlap-save regime stays a per-row loop through the
        # single-window kernel, so equivalence holds by construction.
        out = np.empty((n_signals, n_templates, n - m + 1), dtype=np.float64)
        for s, row in enumerate(signals):
            out[s] = sliding_correlation_batch(row, templates)
        return out

    nfft = _next_fast_len(n)
    kernels = np.conj(templates[:, ::-1])
    if not np.iscomplexobj(signals) and not np.iscomplexobj(kernels):
        spec = np.fft.rfft(signals, nfft, axis=1)
        kspec = np.fft.rfft(kernels.real, nfft, axis=1)
        full = np.fft.irfft(spec[:, None, :] * kspec[None, :, :], nfft, axis=2)
    else:
        spec = np.fft.fft(signals, nfft, axis=1)
        kspec = np.fft.fft(kernels, nfft, axis=1)
        full = np.fft.ifft(spec[:, None, :] * kspec[None, :, :], axis=2)
    mags = np.abs(full[:, :, m - 1 : n])

    # Row-wise cumsum reproduces each window's shared-energy
    # normalisation exactly as the single-window kernel computes it.
    power = np.abs(signals) ** 2
    csum = np.concatenate(
        [np.zeros((n_signals, 1), dtype=np.float64), np.cumsum(power, axis=1)], axis=1
    )
    window_energy = guard_denominator(csum[:, m:] - csum[:, :-m])
    template_norms = np.linalg.norm(templates, axis=1)
    denom = guard_denominator(
        np.sqrt(window_energy)[:, None, :] * template_norms[None, :, None]
    )
    return mags / denom


class TemplateBank:
    """The stacked spread-preamble templates of one receiver code book.

    Rows are bipolar, upsampled preamble templates in ``user_ids``
    order -- ready to feed :func:`sliding_correlation_batch`.  Banks
    are built through :func:`template_bank`, which memoises them per
    ``(FrameFormat, codes, samples_per_chip)``.
    """

    __slots__ = ("user_ids", "matrix", "samples_per_chip", "_rows")

    def __init__(
        self, user_ids: Tuple[int, ...], matrix: np.ndarray, samples_per_chip: int
    ) -> None:
        self.user_ids = user_ids
        self.matrix = matrix
        self.samples_per_chip = samples_per_chip
        self._rows = {uid: matrix[i] for i, uid in enumerate(user_ids)}

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def template_samples(self) -> int:
        """Length of every template row, in samples."""
        return int(self.matrix.shape[1])

    def template(self, user_id: int) -> np.ndarray:
        """The template row for *user_id*."""
        return self._rows[int(user_id)]

    def correlate(self, window: np.ndarray) -> np.ndarray:
        """Batched sliding correlation of every user template."""
        return sliding_correlation_batch(window, self.matrix)

    def correlate_many(self, windows: np.ndarray) -> np.ndarray:
        """Sliding correlation of every user template against a stack
        of equal-length windows (one ``(U, n-m+1)`` plane per window)."""
        return sliding_correlation_many(windows, self.matrix)


_BANK_CACHE: Dict[tuple, TemplateBank] = {}
_BANK_CACHE_MAX = 32


def clear_template_cache() -> int:
    """Drop all memoised banks; returns how many were cached."""
    n = len(_BANK_CACHE)
    _BANK_CACHE.clear()
    return n


def template_bank(
    fmt: "FrameFormat", codes: Dict[int, np.ndarray], samples_per_chip: int
) -> TemplateBank:
    """The (cached) template bank for *fmt* x *codes* x oversampling.

    *codes* maps user id -> 0/1 PN chip array; all codes must share one
    length (a mixed-length book cannot stack, and no supported code
    family produces one), else :class:`ValueError` names the lengths.
    The cache key fingerprints the preamble bits, the code bits and the
    oversampling factor, so logically identical inputs hit the same bank
    regardless of object identity.
    """
    from repro.phy.modulation import spread_bits, upsample_chips
    from repro.utils.bits import bits_to_bipolar

    normalized = {int(uid): np.asarray(code, dtype=np.uint8) for uid, code in codes.items()}
    if not normalized:
        raise ValueError("template bank needs at least one user code")
    lengths = {code.size for code in normalized.values()}
    if len(lengths) != 1:
        raise ValueError(
            f"codes must share one length to stack into a bank, got lengths {sorted(lengths)}"
        )
    preamble = np.asarray(fmt.preamble, dtype=np.uint8)
    key = (
        preamble.tobytes(),
        int(samples_per_chip),
        tuple(sorted((uid, code.tobytes()) for uid, code in normalized.items())),
    )
    bank = _BANK_CACHE.get(key)
    if bank is not None:
        return bank
    user_ids = tuple(normalized)
    rows = [
        upsample_chips(bits_to_bipolar(spread_bits(fmt.preamble, normalized[uid])), samples_per_chip)
        for uid in user_ids
    ]
    matrix = np.ascontiguousarray(np.stack(rows).astype(np.float64))
    bank = TemplateBank(user_ids, matrix, int(samples_per_chip))
    # Fork-safe memo: banks are deterministic, immutable values keyed by
    # content, so post-fork divergence costs only a rebuild, never a
    # wrong answer or a shared handle.
    if len(_BANK_CACHE) >= _BANK_CACHE_MAX:
        _BANK_CACHE.pop(next(iter(_BANK_CACHE)))  # repro-lint: disable=LNT007
    _BANK_CACHE[key] = bank  # repro-lint: disable=LNT007
    return bank
