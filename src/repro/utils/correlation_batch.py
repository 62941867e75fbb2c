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
(sweeps, streaming, SIC passes) builds the templates once.  Each
:class:`TemplateBank` also keeps the templates' spectra per FFT length,
so a window walk transforms only its windows, never the templates
again.  A cached spectrum is the very array the free functions compute
per call, so the bank's results are bit-identical to theirs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Tuple

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


#: ``spectrum(nfft, real)`` -> the templates' kernel spectrum at that
#: FFT length (see :func:`_kernel_spectrum`).
SpectrumFn = Callable[[int, bool], np.ndarray]


def _kernel_spectrum(templates: np.ndarray, nfft: int, real: bool) -> np.ndarray:
    """Spectrum of every conjugate-reversed template row, zero-padded to
    *nfft*: cross-correlation is convolution with that kernel.  *real*
    selects the half-spectrum (``rfft``) used when signal and templates
    are both real."""
    kernels = np.conj(templates[:, ::-1])
    if real:
        return np.fft.rfft(kernels.real, nfft, axis=1)
    return np.fft.fft(kernels, nfft, axis=1)


def _is_real(signal: np.ndarray, templates: np.ndarray) -> bool:
    return not np.iscomplexobj(signal) and not np.iscomplexobj(templates)


def _fft_valid_correlation(
    signal: np.ndarray, templates: np.ndarray, spectrum: SpectrumFn
) -> np.ndarray:
    """``|valid cross-correlation|`` of every template row, via one
    shared signal FFT (callers guarantee ``n >= m``)."""
    n = signal.size
    m = templates.shape[1]
    nfft = _next_fast_len(n)
    real = _is_real(signal, templates)
    kspec = spectrum(nfft, real)
    if real:
        spec = np.fft.rfft(signal, nfft)
        full = np.fft.irfft(spec[None, :] * kspec, nfft, axis=1)
    else:
        spec = np.fft.fft(signal, nfft)
        full = np.fft.ifft(spec[None, :] * kspec, axis=1)
    # "valid" slice of the full linear convolution.
    return np.abs(full[:, m - 1 : n])


def _overlap_save_correlation(
    signal: np.ndarray, templates: np.ndarray, spectrum: SpectrumFn
) -> np.ndarray:
    """Overlap-save variant: process *signal* in blocks sharing one
    kernel-spectrum computation, bounding memory on long captures."""
    n = signal.size
    m = templates.shape[1]
    n_valid = n - m + 1
    block = _next_fast_len(max(4 * m, 1 << 14))
    step = block - (m - 1)
    out = np.empty((templates.shape[0], n_valid), dtype=np.float64)
    real = _is_real(signal, templates)
    kspec = spectrum(block, real)
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


def _spectrum_of(templates: np.ndarray) -> SpectrumFn:
    """An uncached spectrum source: transform *templates* on every call."""
    return lambda nfft, real: _kernel_spectrum(templates, nfft, real)


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
    templates = np.asarray(templates)
    return _correlate_one(np.asarray(signal), templates, _spectrum_of(templates))


def _correlate_one(signal: np.ndarray, templates: np.ndarray, spectrum: SpectrumFn) -> np.ndarray:
    """:func:`sliding_correlation_batch` with the kernel spectra drawn
    from *spectrum*."""
    if templates.ndim != 2:
        raise ValueError(f"templates must be a 2-D stack, got shape {templates.shape}")
    n = signal.size
    n_templates, m = templates.shape
    if m == 0:
        raise ValueError("templates must be non-empty")
    if n < m:
        return np.zeros((n_templates, 0), dtype=np.float64)

    if n > _OVERLAP_SAVE_THRESHOLD:
        mags = _overlap_save_correlation(signal, templates, spectrum)
    else:
        mags = _fft_valid_correlation(signal, templates, spectrum)

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
    templates = np.asarray(templates)
    return _correlate_stack(np.asarray(signals), templates, _spectrum_of(templates))


def _correlate_stack(
    signals: np.ndarray, templates: np.ndarray, spectrum: SpectrumFn
) -> np.ndarray:
    """:func:`sliding_correlation_many` with the kernel spectra drawn
    from *spectrum*."""
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
            out[s] = _correlate_one(row, templates, spectrum)
        return out

    nfft = _next_fast_len(n)
    real = _is_real(signals, templates)
    kspec = spectrum(nfft, real)
    if real:
        spec = np.fft.rfft(signals, nfft, axis=1)
        full = np.fft.irfft(spec[:, None, :] * kspec[None, :, :], nfft, axis=2)
    else:
        spec = np.fft.fft(signals, nfft, axis=1)
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


#: Kernel spectra a bank keeps, least recently used evicted first.
#: A stream needs one FFT length per window geometry (the hop window,
#: the RESYNC-widened window) plus the odd lengths of tail windows.
_SPECTRA_MAX = 4


class TemplateBank:
    """The stacked spread-preamble templates of one receiver code book.

    Rows are bipolar, upsampled preamble templates in ``user_ids``
    order -- ready to feed :func:`sliding_correlation_batch`.  Banks
    are built through :func:`template_bank`, which memoises them per
    ``(FrameFormat, codes, samples_per_chip)``.

    :meth:`correlate` and :meth:`correlate_many` reuse the kernel
    spectrum per ``(FFT length, real/complex)``, at most
    :data:`_SPECTRA_MAX` of them (256 KiB per complex spectrum for 4
    templates over 4,096-sample windows).
    """

    __slots__ = ("user_ids", "matrix", "samples_per_chip", "_rows", "_spectra")

    def __init__(
        self, user_ids: Tuple[int, ...], matrix: np.ndarray, samples_per_chip: int
    ) -> None:
        self.user_ids = user_ids
        self.matrix = matrix
        self.samples_per_chip = samples_per_chip
        self._rows = {uid: matrix[i] for i, uid in enumerate(user_ids)}
        self._spectra: Dict[Tuple[int, bool], np.ndarray] = {}

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

    def _spectrum(self, nfft: int, real: bool) -> np.ndarray:
        """The templates' kernel spectrum at *nfft*, computed once."""
        key = (nfft, real)
        spec = self._spectra.pop(key, None)
        if spec is None:
            spec = _kernel_spectrum(self.matrix, nfft, real)
            spec.flags.writeable = False
            if len(self._spectra) >= _SPECTRA_MAX:
                self._spectra.pop(next(iter(self._spectra)))
        self._spectra[key] = spec  # (re)insert as most recently used
        return spec

    def correlate(self, window: np.ndarray) -> np.ndarray:
        """Batched sliding correlation of every user template
        (:func:`sliding_correlation_batch` over the cached spectra)."""
        return _correlate_one(np.asarray(window), self.matrix, self._spectrum)

    def correlate_many(self, windows: np.ndarray) -> np.ndarray:
        """Sliding correlation of every user template against a stack
        of equal-length windows (one ``(U, n-m+1)`` plane per window;
        :func:`sliding_correlation_many` over the cached spectra)."""
        return _correlate_stack(np.asarray(windows), self.matrix, self._spectrum)


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
