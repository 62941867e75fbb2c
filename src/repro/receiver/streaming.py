"""Streaming reception: many frames per tag in one continuous buffer.

The round-based simulator hands the receiver one collision at a time,
but a deployed receiver listens *continuously*: frames from different
tags start whenever their tags please and overlap partially or not at
all.  :class:`StreamingReceiver` walks a long buffer with overlapping
windows.  A window is two hops and advances one, but it owns only its
first hop: its detector ranks, and its decoder tries, only the
candidates that start there, so each frame belongs to one window.

This is what makes fully **unslotted** CBMA (``repro.sim.unslotted``)
measurable: the paper's "distributed manner" requirement taken to its
logical end, where not even round boundaries are shared.

:class:`StreamingReceiver.process_stream` remains the one-shot batch
walk over a complete capture; long-run *supervised* operation (chunked
ingestion, health state machine, checkpoint/restore) lives in
:mod:`repro.receiver.session`, which builds on the shared
:meth:`StreamingReceiver.decode_window` defined here.  What a window
emits depends only on the samples at fixed absolute positions and on
the previous window's frames, so every entry layer emits the same
frames, in order, for every window it decodes.

The pre-gate correlates each sample once per stream.  A window is two
hops long and advances one hop, so half of its lags were already
computed for the previous window.  Every whole-hop window's plane is
therefore assembled from pieces fixed by absolute position
(:class:`GatePieces`): the plane of each hop's own samples, and the
short seam plane of the lags whose template straddles a hop boundary.
A window reuses the pieces the window before it computed and
correlates only the rest, and because a piece depends only on samples
at fixed absolute positions, the batch walk, a chunk-fed session, a
restored session and the farm's stacked gate all produce the same
planes bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.taxonomy import S
from repro.receiver.receiver import CbmaReceiver, ReceptionReport
from repro.utils.correlation_batch import Windows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import CbmaConfig

__all__ = ["StreamingReceiver", "StreamFrame", "GatePieces"]

#: Live-window pre-gate margin: a window is handed to the full
#: pipeline when any user's batched correlation reaches this fraction
#: of the detection threshold.  Kept fractionally below 1.0 so FFT
#: rounding (~1e-12 relative) can never gate out a window the
#: reference per-user correlation would have decoded.
_PREGATE_MARGIN = 0.999


#: One gate piece: its ``(U, lags)`` correlation plane and that plane's
#: largest score.
_Piece = Tuple[np.ndarray, float]


class GatePieces:
    """The gate's correlation pieces of one stream, kept for the
    windows ahead.

    With hop length ``F`` and template length ``m``, a window of ``h``
    whole hops starting at absolute sample ``p`` has the plane
    ``[A(p) | s(p) | A(p+F) | s(p+F) | ... | A(p+(h-1)F)]``:

    - ``A(q)`` is the plane of the ``F`` samples from ``q`` on, its
      ``F - m + 1`` lags (:attr:`hops`);
    - ``s(q)`` is the plane of the ``2m - 2`` samples straddling the
      hop boundary at ``q + F``, the ``m - 1`` lags whose template
      spans both hops (:attr:`seams`).

    Both tables are keyed by the absolute start ``q`` of the hop.  A
    piece depends only on the samples at fixed absolute positions, so
    it is exact for every later window that contains it, whichever
    path computed it.  This is derived state: it is never checkpointed
    (a restored session starts with an empty cache and recomputes what
    it lacks).  The gate only adds pieces; the walk drops those the
    next window cannot use when it advances (:meth:`evict_before`), so
    a session's RESYNC probe, gated after its window at the same
    position, reuses the window's first hop slice and seam.
    """

    __slots__ = ("hops", "seams")

    def __init__(self) -> None:
        self.hops: Dict[int, _Piece] = {}
        self.seams: Dict[int, _Piece] = {}

    def evict_before(self, pos: int) -> None:
        """Drop the pieces of hops starting before *pos*: every later
        window starts at or after it."""
        for table in (self.hops, self.seams):
            for start in [q for q in table if q < pos]:
                del table[start]


@dataclass(frozen=True)
class StreamFrame:
    """One frame decoded from the stream."""

    user_id: int
    payload: bytes
    start_sample: int
    """Absolute sample index where the frame's preamble begins."""


@dataclass
class StreamingReceiver:
    """Window-sliding wrapper around a :class:`CbmaReceiver`.

    Parameters
    ----------
    receiver:
        The underlying single-window receiver: a :class:`CbmaReceiver`
        of any ``max_passes``, or a
        :class:`~repro.receiver.phase_tracking.PhaseTrackingReceiver`,
        whose ``process`` takes the owned span.
    max_frame_bits:
        Upper bound on frame length in bits.  It sets the hop, one
        maximum-length frame; a window is always two hops, so every
        frame lies wholly inside the window that owns its start.

    Samples are ``complex128`` from ingest through the gate to the
    decode, so the gate's plane is handed to the detector as is.
    """

    receiver: CbmaReceiver
    max_frame_bits: int = 160

    def __post_init__(self) -> None:
        if self.max_frame_bits < 1:
            raise ValueError("max_frame_bits must be >= 1")
        code_len = next(iter(self.receiver.codes.values())).size
        self._frame_samples = (
            self.max_frame_bits * code_len * self.receiver.samples_per_chip
        )

    @classmethod
    def from_config(
        cls,
        config: "CbmaConfig",
        *,
        codes: Optional[Dict[int, np.ndarray]] = None,
        receiver: Optional[CbmaReceiver] = None,
        tracer=None,
    ) -> "StreamingReceiver":
        """Build a streaming receiver from one :class:`CbmaConfig`.

        The single construction path from config to stream: the
        underlying :class:`CbmaReceiver` comes from
        :meth:`CbmaReceiver.from_config` (pass *receiver* to reuse an
        existing one), and ``max_frame_bits`` is pinned to the config's
        actual frame length so the window geometry matches the
        waveforms the config synthesises.
        """
        if receiver is None:
            receiver = CbmaReceiver.from_config(config, codes=codes, tracer=tracer)
        return cls(receiver=receiver, max_frame_bits=config.frame_bits())

    @property
    def window_samples(self) -> int:
        """Samples per window: two hops."""
        return 2 * self._frame_samples

    @property
    def hop_samples(self) -> int:
        return self._frame_samples

    @property
    def frame_samples(self) -> int:
        """Samples per maximum-length frame (the hop unit)."""
        return self._frame_samples

    def window_is_live(
        self,
        window: np.ndarray,
        planes: Optional[List[Optional[np.ndarray]]] = None,
        pos: Optional[int] = None,
        pieces: Optional[GatePieces] = None,
    ) -> bool:
        """Cheap batched pre-gate: could any user clear the detection
        threshold inside *window*?

        One batched FFT pass over the stacked template bank replaces
        the full per-window pipeline for silent stretches -- the
        common case of a sparse unslotted stream.  The gate uses the
        same kernel and normalisation as the detector itself (margin
        :data:`_PREGATE_MARGIN` below threshold), so a window it skips
        is one the detector would have returned no users for.

        With the window's absolute start *pos* and its stream's
        *pieces*, a window of whole hops is gated from its pieces
        (:class:`GatePieces`): those the stream already holds are
        reused, the rest are correlated and kept.  Otherwise -- a
        truncated tail window, or a window given without a position --
        the whole window is correlated.

        When *planes* is given, the gate appends the correlation plane
        of a live window (``None`` for a gated-out one).  That plane is
        what the detector would compute over the same samples, to FFT
        rounding, so the caller hands it to :meth:`decode_window` and
        each live window is correlated once.
        """
        if pos is not None and pieces is not None and self._whole_hops(np.size(window)):
            return bool(self._gate_pieces([window], [pos], [pieces], planes)[0])
        return self._gate_whole(window, planes)

    def windows_are_live(
        self,
        windows: Windows,
        planes: Optional[List[Optional[np.ndarray]]] = None,
        positions: Optional[Sequence[int]] = None,
        pieces: Optional[Sequence[GatePieces]] = None,
    ) -> np.ndarray:
        """Vectorised pre-gate over a stack of equal-length windows.

        *windows* is an ``(S, n)`` array or a sequence of ``S``
        equal-length windows (the bank gathers those block by block
        into its workspace, so the caller need not stack them); returns
        a boolean ``(S,)`` array where
        ``out[s] == self.window_is_live(windows[s])`` **bit-identically**
        -- the stacked FFT kernel computes each row independently
        (:func:`repro.utils.correlation_batch.sliding_correlation_many`),
        so the farm's cross-session batched gating can never flip a
        decision the per-window gate would have made.

        With *positions* and *pieces* (one absolute start and one
        stream cache per window, each stream at most once), the stack
        of whole-hop windows is gated from pieces: the missing hop
        slices of every window go through one stacked kernel call and
        the missing seams through another, and ``out[s] ==
        self.window_is_live(windows[s], pos=positions[s],
        pieces=pieces[s])`` bit-identically.

        When *planes* is given it is extended with one entry per
        window: the ``(U, n - m + 1)`` correlation plane of each live
        window (its own array) and ``None`` for each gated-out one.
        The farm primes each session with its plane
        (:meth:`SessionSupervisor.prime_gate`), so the detector does
        not correlate the window again.  Gated-out windows' planes are
        never materialised.
        """
        if positions is not None and pieces is not None:
            return self._gate_pieces(windows, positions, pieces, planes)
        detector = self.receiver.user_detector
        kept = detector.bank.correlate_many(
            windows, min_peak=detector.threshold * _PREGATE_MARGIN
        )
        if planes is not None:
            planes.extend(kept)
        return np.array([plane is not None for plane in kept], dtype=bool)

    def _whole_hops(self, n: int) -> int:
        """Hops in a window of *n* samples that splits into pieces; 0
        for a window that does not (a truncated tail, or hops shorter
        than the templates)."""
        hop = self.hop_samples
        if n == 0 or n % hop or hop < self.receiver.user_detector.bank.template_samples:
            return 0
        return n // hop

    def _gate_whole(
        self, window: np.ndarray, planes: Optional[List[Optional[np.ndarray]]]
    ) -> bool:
        """Gate *window* from one correlation of all its samples."""
        detector = self.receiver.user_detector
        x = np.asarray(window)
        corr = None
        if x.size >= detector.bank.template_samples:
            corr = detector.bank.correlate(x)
        live = corr is not None and float(corr.max()) >= detector.threshold * _PREGATE_MARGIN
        if planes is not None:
            planes.append(corr if live else None)
        return live

    def _gate_pieces(
        self,
        windows: Windows,
        positions: Sequence[int],
        caches: Sequence[GatePieces],
        planes: Optional[List[Optional[np.ndarray]]],
    ) -> np.ndarray:
        """Gate each whole-hop window from its stream's pieces; see
        :class:`GatePieces`."""
        if len({id(cache) for cache in caches}) != len(caches):
            raise ValueError("the piece gate takes at most one window per stream")
        detector = self.receiver.user_detector
        bank = detector.bank
        hop, m = self.hop_samples, bank.template_samples
        # Per window: the (table, key) of each of its pieces, in lag order.
        layouts: List[List[Tuple[Dict[int, _Piece], int]]] = []
        # Per kind (hop slices, seams): (table, key, samples) to correlate.
        missing: Tuple[List[tuple], List[tuple]] = ([], [])
        for window, pos, cache in zip(windows, positions, caches):
            n_hops = self._whole_hops(np.size(window))
            if not n_hops:
                raise ValueError(f"the piece gate takes whole hops, got {np.size(window)} samples")
            layout = []
            for j in range(n_hops):
                q = pos + j * hop
                layout.append((cache.hops, q))
                if q not in cache.hops:
                    missing[0].append((cache.hops, q, window[j * hop : (j + 1) * hop]))
                edge = (j + 1) * hop
                if j + 1 < n_hops and m > 1:
                    layout.append((cache.seams, q))
                    if q not in cache.seams:
                        missing[1].append((cache.seams, q, window[edge - m + 1 : edge + m - 1]))
            layouts.append(layout)
        for jobs in missing:
            if jobs:
                # Every plane clears a floor of -inf, so each is written
                # into its own array: a kept piece holds no stacked
                # neighbours alive, no stack-sized array is made, and
                # its max is taken once, here.
                kept = bank.correlate_many([samples for _t, _q, samples in jobs], -np.inf)
                for (table, q, _samples), plane in zip(jobs, kept):
                    assert plane is not None
                    table[q] = (plane, float(plane.max()))
        floor = detector.threshold * _PREGATE_MARGIN
        live = np.zeros(len(layouts), dtype=bool)
        for s, layout in enumerate(layouts):
            parts = [table[q] for table, q in layout]
            live[s] = max(peak for _plane, peak in parts) >= floor
            if planes is not None:
                joined = np.concatenate([plane for plane, _peak in parts], axis=1) if live[s] else None
                planes.append(joined)
        return live

    def decode_window(
        self,
        window: np.ndarray,
        pos: int,
        previous: Sequence[StreamFrame] = (),
        corr: Optional[np.ndarray] = None,
    ) -> Tuple[List[StreamFrame], ReceptionReport]:
        """Full-pipeline decode of one live window starting at absolute
        sample *pos*, over its owned span, the window's first hop.

        Returns the window's frames, in ``(start_sample, user_id)``
        order, plus the raw
        :class:`~repro.receiver.receiver.ReceptionReport`.  A frame
        starts at *pos* plus the offset of the candidate that decoded
        it (``DecodedFrame.offset``).  A decode is a repeat, and
        dropped, when one of *previous* (the frames the window a hop
        earlier returned, the only one that can decode it again, a few
        samples off) has its user and payload and starts less than half
        a frame away.  Shared by the batch walk (:meth:`process_stream`)
        and the supervised session so the two paths can never drift
        apart.  *corr* is the pre-gate's plane for *window* (see
        :meth:`window_is_live`).
        """
        report = self.receiver.process(
            window, skip_energy_gate=True, corr=corr, owned=self.hop_samples
        )
        tolerance = self._frame_samples // 2
        frames: List[StreamFrame] = []
        for frame in report.frames:
            if not frame.success:
                continue
            start = pos + frame.offset
            if any(
                p.user_id == frame.user_id
                and p.payload == frame.payload
                and abs(p.start_sample - start) < tolerance
                for p in previous
            ):
                continue
            frames.append(
                StreamFrame(user_id=frame.user_id, payload=frame.payload, start_sample=start)
            )
        frames.sort(key=lambda f: (f.start_sample, f.user_id))
        return frames, report

    def probe_window(
        self, window: np.ndarray, pos: int, pieces: GatePieces
    ) -> Optional[ReceptionReport]:
        """A session's RESYNC health probe: the pipeline over all of a
        widened *window*, gated from *pieces*; ``None`` when gated out.

        Its frames are not emitted; it only tells the health machine
        whether the wider search decodes anything.
        """
        planes: List[Optional[np.ndarray]] = []
        if not self.window_is_live(window, planes=planes, pos=pos, pieces=pieces):
            return None
        return self.receiver.process(window, skip_energy_gate=True, corr=planes[0])

    def process_stream(self, iq: np.ndarray) -> List[StreamFrame]:
        """Decode every recoverable frame in *iq* (absolute positions).

        The window walk is two-tier: every hop first runs the batched
        correlation pre-gate (:meth:`window_is_live`, from this walk's
        :class:`GatePieces`), and only live windows pay for the full
        detect/decode pipeline.  With a
        tracer attached to the underlying receiver, each live window
        is timed under a ``stream_decode`` span.

        Tail windows truncated by the capture edge are processed like
        any other (a frame ending at the edge of a short capture is
        still a frame; the pipeline tolerates short buffers, and the
        pre-gate keeps sub-template tails free).  The frames come out
        in ``start_sample`` order.
        """
        x = np.asarray(iq)
        tracer = self.receiver.tracer
        frames: List[StreamFrame] = []
        previous: List[StreamFrame] = []
        pieces = GatePieces()
        pos = 0
        while pos < x.size:
            window = x[pos : pos + self.window_samples]
            planes: List[Optional[np.ndarray]] = []
            if self.window_is_live(window, planes=planes, pos=pos, pieces=pieces):
                with tracer.span(S.STREAM_DECODE):
                    previous, _report = self.decode_window(
                        window, pos, previous, corr=planes[0] if planes else None
                    )
                frames.extend(previous)
            else:
                previous = []
            pos += self.hop_samples
            pieces.evict_before(pos)
        return frames
