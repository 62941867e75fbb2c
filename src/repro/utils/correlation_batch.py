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
again, and a workspace per FFT length that holds every temporary of the
kernel, so a warm bank allocates only the planes it returns.  A cached
spectrum is the very array the free functions compute per call, and
both run the same kernel, so the bank's results are bit-identical to
theirs.
"""

from __future__ import annotations

import functools
import math
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
    overload,
)

import numpy as np
import numpy.typing as npt

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


@functools.lru_cache(maxsize=64)
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


#: Windows of a stack transformed together.  A bank's workspace holds at
#: most this many rows per FFT length, whatever the stack height.
_BLOCK_ROWS = 4


class _Workspace:
    """Reusable buffers for the kernel's temporaries at one FFT length.

    :meth:`take` returns a C-contiguous view of the requested shape at
    the front of the named flat buffer, replacing the buffer only when
    it is too small or of another dtype.  Every request is for at most
    :data:`_BLOCK_ROWS` windows at one FFT length, so the buffers never
    outgrow one block, and steady state allocates nothing here.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def take(self, name: str, shape: Tuple[int, ...], dtype: npt.DTypeLike) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self._buffers.values())


#: ``plan(nfft, real)`` -> the templates' kernel spectrum at that FFT
#: length (see :func:`_kernel_spectrum`) and the workspace to use there.
PlanFn = Callable[[int, bool], Tuple[np.ndarray, _Workspace]]


def _kernel_spectrum(templates: np.ndarray, nfft: int, real: bool) -> np.ndarray:
    """Spectrum of every conjugate-reversed template row, zero-padded to
    *nfft*: cross-correlation is convolution with that kernel.  *real*
    selects the half-spectrum (``rfft``) used when signal and templates
    are both real."""
    kernels = np.conj(templates[:, ::-1])
    if real:
        return np.fft.rfft(kernels.real, nfft, axis=1)
    return np.fft.fft(kernels, nfft, axis=1)


#: A block's planes: an ``(b, U, n - m + 1)`` array, or a sequence of
#: ``b`` arrays of ``(U, n - m + 1)`` each.
Planes = Union[np.ndarray, Sequence[np.ndarray]]


def _fft_magnitudes(
    block: np.ndarray,
    m: int,
    kspec: np.ndarray,
    real: bool,
    nfft: int,
    ws: _Workspace,
    planes: Planes,
) -> None:
    """``|valid cross-correlation|`` of every template row against every
    row of *block* ``(b, n)``, via one *nfft*-point signal FFT per row,
    into *planes*.  Every temporary lives in *ws*; a complex product is
    transformed back in place.

    The product and the magnitudes are computed one (row, template)
    pair at a time, on contiguous rows: a broadcast or strided
    multi-row ufunc makes numpy allocate an iteration buffer of up to
    128 KiB on every call, and runs slower.
    """
    b, n = block.shape
    n_templates, n_spec = kspec.shape
    spec = ws.take("spec", (b, n_spec), np.result_type(block.dtype, 1j))
    prod = ws.take("prod", (b, n_templates, n_spec), np.result_type(spec.dtype, kspec.dtype))
    if real:
        np.fft.rfft(block, nfft, axis=1, out=spec)
    else:
        np.fft.fft(block, nfft, axis=1, out=spec)
    for i in range(b):
        for u in range(n_templates):
            np.multiply(spec[i], kspec[u], out=prod[i, u])
    if real:
        full = ws.take("full", (b, n_templates, nfft), prod.real.dtype)
        np.fft.irfft(prod, nfft, axis=2, out=full)
    else:
        full = np.fft.ifft(prod, axis=2, out=prod)
    # "valid" slice of the full linear convolution.
    for i in range(b):
        for u in range(n_templates):
            np.abs(full[i, u, m - 1 : n], out=planes[i][u])


def _overlap_save_magnitudes(
    signal: np.ndarray,
    m: int,
    kspec: np.ndarray,
    real: bool,
    nfft: int,
    ws: _Workspace,
    out: np.ndarray,
) -> None:
    """Overlap-save variant of :func:`_fft_magnitudes` for one long
    *signal*, into *out* ``(U, n - m + 1)``: *nfft*-sample blocks
    overlapping by ``m - 1`` share one kernel spectrum, bounding memory
    on long captures."""
    for pos in range(0, out.shape[1], nfft - (m - 1)):
        chunk = signal[pos : pos + nfft]
        valid = out[None, :, pos : pos + chunk.size - m + 1]
        _fft_magnitudes(chunk[None], m, kspec, real, nfft, ws, valid)


def _denominator_norms(templates: np.ndarray) -> np.ndarray:
    """Each template row's norm, or one norm when every row's is equal
    (every bipolar bank): :func:`_normalise` then builds one
    denominator row per window for all templates."""
    norms = np.linalg.norm(templates, axis=1)
    return norms[:1] if norms.size and (norms == norms[0]).all() else norms


def _normalise(
    block: np.ndarray, m: int, norms: np.ndarray, ws: _Workspace, planes: Planes
) -> None:
    """Divide *planes* in place by the local window energy of each row of
    *block* (one cumsum shared by every template row) times each
    template's norm, through :func:`guard_denominator`.  *norms* holds
    one norm per template, or a single one shared by all
    (:func:`_denominator_norms`)."""
    b, n = block.shape
    n_valid = n - m + 1
    power = np.abs(block, out=ws.take("power", (b, n), block.real.dtype))
    np.square(power, out=power)
    # The running sum accumulates in the power's own dtype; the
    # differences are taken in float64, as for a float64 cumsum.
    csum = ws.take("csum", (b, n + 1), power.dtype)
    csum[:, 0] = 0
    np.cumsum(power, axis=1, out=csum[:, 1:])
    energy = ws.take("energy", (b, n_valid), np.float64)
    np.subtract(csum[:, m:], csum[:, :-m], out=energy, dtype=np.float64)
    guard_denominator(energy, out=energy)
    np.sqrt(energy, out=energy)
    denom = ws.take("denom", (b, norms.size, n_valid), np.float64)
    # Row by row and template by template: the broadcast product makes
    # numpy allocate an iteration buffer at some lengths (2,048 lags).
    for row, out in zip(energy, denom):
        for u, norm in enumerate(norms):
            np.multiply(row, norm, out=out[u])
    guard_denominator(denom, out=denom)
    for plane, rows in zip(planes, denom):
        for u, corr in enumerate(plane):
            np.divide(corr, rows[u if norms.size > 1 else 0], out=corr)


#: A stack of equal-length windows: a 2-D ``(S, n)`` array, or a
#: sequence of ``S`` 1-D arrays of ``n`` samples each, which the kernel
#: gathers block by block into its workspace instead of one new array.
Windows = Union[np.ndarray, Sequence[np.ndarray]]


class _Stack(NamedTuple):
    """A validated :data:`Windows`: its rows, their length, and the dtype
    a stacked copy of them would have."""

    rows: Windows
    n: int
    dtype: np.dtype


def _as_stack(windows: Windows, templates: np.ndarray) -> _Stack:
    """Validate *windows* against *templates*."""
    if templates.ndim != 2:
        raise ValueError(f"templates must be a 2-D stack, got shape {templates.shape}")
    if templates.shape[1] == 0:
        raise ValueError("templates must be non-empty")
    if isinstance(windows, np.ndarray):
        if windows.ndim != 2:
            raise ValueError(f"signals must be a 2-D stack, got shape {windows.shape}")
        return _Stack(windows, windows.shape[1], windows.dtype)
    rows = [np.asarray(w) for w in windows]
    shapes = {row.shape for row in rows}
    if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
        raise ValueError(f"windows must be 1-D and of one length, got shapes {sorted(shapes)}")
    if not rows:
        return _Stack(rows, 0, np.dtype(np.float64))
    return _Stack(rows, rows[0].size, np.result_type(*rows))


def _planes(
    stack: _Stack,
    templates: np.ndarray,
    norms: np.ndarray,
    plan: PlanFn,
    out: Optional[Planes] = None,
) -> Iterator[Tuple[int, Planes]]:
    """Yield ``(first_row, planes)`` for each block of up to
    :data:`_BLOCK_ROWS` rows of *stack*: *planes* is the block's
    ``(b, U, n - m + 1)`` normalised correlation, written into the
    matching rows of *out* (one array, or one array per row) when
    given, otherwise held in the workspace until the next block
    overwrites it.  Each row is computed
    independently of the others, so a plane does not depend on the
    block it was computed in."""
    rows, n, dtype = stack
    n_templates, m = templates.shape
    if n < m:
        return
    real = dtype.kind != "c" and not np.iscomplexobj(templates)
    if n > _OVERLAP_SAVE_THRESHOLD:
        # Long captures go one at a time through overlap-save blocks;
        # their normalisation buffers are as long as the capture, so
        # they are made for the call.
        nfft = _next_fast_len(max(4 * m, 1 << 14))
        kspec, ws = plan(nfft, real)
        for s, signal in enumerate(rows):
            planes = np.empty((1, n_templates, n - m + 1)) if out is None else out[s : s + 1]
            _overlap_save_magnitudes(signal, m, kspec, real, nfft, ws, planes[0])
            _normalise(signal[None], m, norms, _Workspace(), planes)
            yield s, planes
        return
    nfft = _next_fast_len(n)
    kspec, ws = plan(nfft, real)
    for lo in range(0, len(rows), _BLOCK_ROWS):
        block = rows[lo : lo + _BLOCK_ROWS]
        if not isinstance(block, np.ndarray):
            block = np.stack(block, out=ws.take("block", (len(block), n), dtype))
        if out is None:
            planes = ws.take("planes", (block.shape[0], n_templates, n - m + 1), np.float64)
        else:
            planes = out[lo : lo + block.shape[0]]
        _fft_magnitudes(block, m, kspec, real, nfft, ws, planes)
        _normalise(block, m, norms, ws, planes)
        yield lo, planes


def _correlate_stack(
    windows: Windows,
    templates: np.ndarray,
    norms: Optional[np.ndarray] = None,
    plan: Optional[PlanFn] = None,
) -> np.ndarray:
    """Every row's plane, stacked into one fresh ``(S, U, n - m + 1)``
    array.  Without *norms* and *plan* (a bank's cached ones) the
    template norms, spectra and buffers are made for this call alone."""
    stack = _as_stack(windows, templates)
    if norms is None:
        norms = _denominator_norms(templates)
    n_templates, m = templates.shape
    out = np.empty((len(stack.rows), n_templates, max(stack.n - m + 1, 0)), dtype=np.float64)
    for _block in _planes(stack, templates, norms, plan or _fresh_plan(templates), out):
        pass
    return out


def _fresh_plan(templates: np.ndarray) -> PlanFn:
    """Plans for one call: the spectrum transformed, the buffers new."""
    return lambda nfft, real: (_kernel_spectrum(templates, nfft, real), _Workspace())


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
    return _correlate_stack(np.asarray(signal)[None, :], np.asarray(templates))[0]


@array_contract(signals="(s, n) any", templates="(u, m) any")
def sliding_correlation_many(signals: np.ndarray, templates: np.ndarray) -> np.ndarray:
    """Correlate every template row against every alignment of a whole
    *stack* of equal-length windows in one pass.

    This is the cross-session extension of
    :func:`sliding_correlation_batch`: the farm co-schedules sessions
    that share one :class:`TemplateBank`, stacks their pending windows
    into ``signals`` of shape ``(S, n)``, and gates them all with
    batched FFTs.  Each output row ``out[s]`` is **bit-identical**
    to ``sliding_correlation_batch(signals[s], templates)``: the FFT,
    the cumulative-sum normalisation and the epsilon guard are all
    computed row-independently, so batching windows together never
    changes any single window's scores.

    Returns
    -------
    ``(S, U, n - m + 1)`` float64 array of correlation magnitudes.
    """
    return _correlate_stack(np.asarray(signals), np.asarray(templates))


#: FFT lengths a bank keeps a plan for, least recently used evicted
#: first.  A stream's gate needs two, whatever the window geometry: its
#: hop slices and its seams (2,048 and 512 points on the benchmark
#: geometry).  The rest serve windows correlated whole: tail windows,
#: and the windows a detector correlates again when the front end
#: changed their samples (a DC-blocked or repaired window).
_PLANS_MAX = 4


class TemplateBank:
    """The stacked spread-preamble templates of one receiver code book.

    Rows are bipolar, upsampled preamble templates in ``user_ids``
    order -- ready to feed :func:`sliding_correlation_batch`.  Banks
    are built through :func:`template_bank`, which memoises them per
    ``(FrameFormat, codes, samples_per_chip)``.

    :meth:`correlate` and :meth:`correlate_many` keep a plan per
    ``(FFT length, real/complex)``, at most :data:`_PLANS_MAX` of
    them, least recently used evicted first.  A plan is the templates'
    kernel spectrum (for 4 templates, 128 KiB per complex spectrum at
    the stream gate's 2,048-point hop slices and 32 KiB at its 512-point
    seams) and a workspace holding every temporary of the kernel for
    one block of :data:`_BLOCK_ROWS` windows, so a warm bank allocates
    only the arrays it returns.  No returned array
    shares memory with the workspace.  The workspace makes a bank
    single-threaded: its callers (one receive chain, or one farm
    worker's sessions) take turns.
    """

    __slots__ = ("user_ids", "matrix", "samples_per_chip", "_rows", "_norms", "_plans")

    def __init__(
        self, user_ids: Tuple[int, ...], matrix: np.ndarray, samples_per_chip: int
    ) -> None:
        self.user_ids = user_ids
        self.matrix = matrix
        self.samples_per_chip = samples_per_chip
        self._rows = {uid: matrix[i] for i, uid in enumerate(user_ids)}
        self._norms = _denominator_norms(matrix)
        self._plans: Dict[Tuple[int, bool], Tuple[np.ndarray, _Workspace]] = {}

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def template_samples(self) -> int:
        """Length of every template row, in samples."""
        return int(self.matrix.shape[1])

    @property
    def workspace_nbytes(self) -> int:
        """Bytes held by the workspaces of every cached plan."""
        return sum(ws.nbytes for _spec, ws in self._plans.values())

    def template(self, user_id: int) -> np.ndarray:
        """The template row for *user_id*."""
        return self._rows[int(user_id)]

    def _plan(self, nfft: int, real: bool) -> Tuple[np.ndarray, _Workspace]:
        """The kernel spectrum and workspace at *nfft*, made once."""
        key = (nfft, real)
        plan = self._plans.pop(key, None)
        if plan is None:
            spec = _kernel_spectrum(self.matrix, nfft, real)
            spec.flags.writeable = False
            plan = (spec, _Workspace())
            if len(self._plans) >= _PLANS_MAX:
                self._plans.pop(next(iter(self._plans)))
        self._plans[key] = plan  # (re)insert as most recently used
        return plan

    def correlate(self, window: np.ndarray) -> np.ndarray:
        """Batched sliding correlation of every user template
        (:func:`sliding_correlation_batch` with this bank's plans)."""
        return _correlate_stack(np.asarray(window)[None, :], self.matrix, self._norms, self._plan)[0]

    @overload
    def correlate_many(self, windows: Windows) -> np.ndarray: ...

    @overload
    def correlate_many(self, windows: Windows, min_peak: float) -> List[Optional[np.ndarray]]: ...

    def correlate_many(
        self, windows: Windows, min_peak: Optional[float] = None
    ) -> Union[np.ndarray, List[Optional[np.ndarray]]]:
        """Sliding correlation of every user template against a stack
        of equal-length windows (one ``(U, n-m+1)`` plane per window;
        :func:`sliding_correlation_many` with this bank's plans).
        *windows* is a 2-D array or a sequence of equal-length 1-D
        windows, which are then never stacked into one new array.

        With *min_peak*, returns a list instead: a fresh copy of each
        window's plane whose largest score is at least *min_peak*, and
        ``None`` for every other window (and for a window shorter than
        the templates).  The stacked planes are then never
        materialised, which is what a gate over mostly idle windows
        wants.  A floor of ``-inf`` keeps every plane, so each is
        written straight into an array of its own, with no copy and no
        max taken: what the piece gate keeps
        (:class:`~repro.receiver.streaming.GatePieces`).
        """
        if min_peak is None:
            return _correlate_stack(windows, self.matrix, self._norms, self._plan)
        stack = _as_stack(windows, self.matrix)
        m = self.template_samples
        if min_peak == -np.inf and stack.n >= m:
            own = [np.empty((self.n_users, stack.n - m + 1)) for _row in stack.rows]
            for _block in _planes(stack, self.matrix, self._norms, self._plan, own):
                pass
            every: List[Optional[np.ndarray]] = list(own)
            return every
        kept: List[Optional[np.ndarray]] = [None] * len(stack.rows)
        for lo, planes in _planes(stack, self.matrix, self._norms, self._plan):
            assert isinstance(planes, np.ndarray)  # the workspace's block
            for i, peak in enumerate(planes.max(axis=(1, 2))):
                if peak >= min_peak:
                    kept[lo + i] = planes[i].copy()
        return kept


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
    # wrong answer or a shared handle (tests/farm/test_fork_boundary.py
    # allows this global to change).
    if len(_BANK_CACHE) >= _BANK_CACHE_MAX:
        _BANK_CACHE.pop(next(iter(_BANK_CACHE)))
    _BANK_CACHE[key] = bank
    return bank
