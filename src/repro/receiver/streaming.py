"""Streaming reception: many frames per tag in one continuous buffer.

The round-based simulator hands the receiver one collision at a time,
but a deployed receiver listens *continuously*: frames from different
tags start whenever their tags please and overlap partially or not at
all.  :class:`StreamingReceiver` walks a long buffer with overlapping
windows, decodes every frame it can, and deduplicates decodes of the
same frame seen through neighbouring windows.

This is what makes fully **unslotted** CBMA (``repro.sim.unslotted``)
measurable: the paper's "distributed manner" requirement taken to its
logical end, where not even round boundaries are shared.

:class:`StreamingReceiver.process_stream` remains the one-shot batch
walk over a complete capture; long-run *supervised* operation (chunked
ingestion, health state machine, checkpoint/restore) lives in
:mod:`repro.receiver.session`, which builds on the shared
:meth:`StreamingReceiver.decode_window` and :class:`DedupTable`
primitives defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.taxonomy import S
from repro.receiver.receiver import CbmaReceiver, ReceptionReport
from repro.utils.correlation_batch import Windows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import CbmaConfig

__all__ = ["StreamingReceiver", "StreamFrame", "DedupTable"]

#: Complex dtypes a streaming stack may buffer samples in.  complex128
#: is the default and the decode oracle; complex64 is the opt-in fast
#: path (half the memory bandwidth through the ingest ring and gate).
_STREAM_DTYPES = (np.dtype(np.complex128), np.dtype(np.complex64))

#: Live-window pre-gate margin: a window is handed to the full
#: pipeline when any user's batched correlation reaches this fraction
#: of the detection threshold.  Kept fractionally below 1.0 so FFT
#: rounding (~1e-12 relative) can never gate out a window the
#: reference per-user correlation would have decoded.
_PREGATE_MARGIN = 0.999


@dataclass(frozen=True)
class StreamFrame:
    """One frame decoded from the stream."""

    user_id: int
    payload: bytes
    start_sample: int
    """Absolute sample index where the frame's preamble begins."""


@dataclass
class DedupTable:
    """Bounded ``(user, payload) -> last start`` dedup table.

    The same frame decoded through two overlapping windows lands at
    (nearly) the same absolute start; the table rejects a decode whose
    key was already seen within *tolerance* samples of its start.

    Unlike the plain dict it replaces, the table is **bounded**: once
    the window walk has advanced past an entry by more than the
    eviction horizon, no future window can produce a duplicate of it
    (every future decode starts at or after the walk position), so
    :meth:`evict_before` drops it.  ``peak_size`` tracks the high-water
    mark so long-run memory stays provably flat.
    """

    tolerance: int
    """Maximum |start - previous| (samples) still considered the same frame."""

    entries: Dict[Tuple[int, bytes], int] = field(default_factory=dict)
    evictions: int = 0
    peak_size: int = 0

    def seen(self, user_id: int, payload: bytes, start: int) -> bool:
        """True (duplicate) when the frame was already recorded nearby;
        otherwise records it and returns False."""
        key = (int(user_id), bytes(payload))
        prev = self.entries.get(key)
        if prev is not None and abs(int(start) - prev) < self.tolerance:
            return True
        self.entries[key] = int(start)
        if len(self.entries) > self.peak_size:
            self.peak_size = len(self.entries)
        return False

    def user_active_since(self, user_id: int, watermark: int) -> bool:
        """Whether *user_id* has a recorded frame starting after *watermark*.

        Lets a supervisor tell correlation residue of an
        already-decoded frame (still overlapping the current window)
        from a genuinely failed decode attempt.
        """
        uid = int(user_id)
        return any(
            user == uid and start > watermark
            for (user, _payload), start in self.entries.items()
        )

    def evict_before(self, watermark: int) -> int:
        """Drop entries whose start lies before *watermark*; returns count."""
        stale = [key for key, start in self.entries.items() if start < watermark]
        for key in stale:
            del self.entries[key]
        self.evictions += len(stale)
        return len(stale)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class StreamingReceiver:
    """Window-sliding wrapper around a :class:`CbmaReceiver`.

    Parameters
    ----------
    receiver:
        The underlying single-window receiver (plain, SIC...).
    window_frames:
        Window length in units of the *maximum expected frame airtime*;
        2.0 guarantees any frame lies wholly inside at least one window
        when the hop is one frame.
    max_frame_bits:
        Upper bound on frame length in bits (sets the window size).
    dtype:
        Complex dtype sample buffers are kept in upstream of the full
        decode (ingest, backlog, pre-gate).  ``complex128`` (default)
        or ``complex64`` -- the opt-in fast path.  The decode pipeline
        itself always runs in ``complex128`` (the receiver front end
        widens at its boundary), so the fast path trades gate-score
        precision (~1e-7 relative, absorbed by the pre-gate margin)
        for ingest bandwidth without touching decode numerics.
    """

    receiver: CbmaReceiver
    max_frame_bits: int = 160
    window_frames: float = 2.0
    dtype: np.dtype = np.complex128

    def __post_init__(self) -> None:
        if self.max_frame_bits < 1:
            raise ValueError("max_frame_bits must be >= 1")
        if self.window_frames < 1.5:
            raise ValueError("window must cover at least 1.5 frames")
        self.dtype = np.dtype(self.dtype)
        if self.dtype not in _STREAM_DTYPES:
            raise ValueError(
                f"dtype must be one of {[d.name for d in _STREAM_DTYPES]}, "
                f"got {self.dtype.name}"
            )
        code_len = next(iter(self.receiver.codes.values())).size
        self._frame_samples = (
            self.max_frame_bits * code_len * self.receiver.samples_per_chip
        )
        #: Dedup table of the most recent :meth:`process_stream` call
        #: (exposed so long-stream tests can assert bounded memory).
        self.last_dedup: Optional[DedupTable] = None

    @classmethod
    def from_config(
        cls,
        config: "CbmaConfig",
        *,
        codes: Optional[Dict[int, np.ndarray]] = None,
        receiver: Optional[CbmaReceiver] = None,
        window_frames: float = 2.0,
        dtype=np.complex128,
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
        return cls(
            receiver=receiver,
            max_frame_bits=config.frame_bits(),
            window_frames=window_frames,
            dtype=dtype,
        )

    @property
    def window_samples(self) -> int:
        return int(self._frame_samples * self.window_frames)

    @property
    def hop_samples(self) -> int:
        return self._frame_samples

    @property
    def frame_samples(self) -> int:
        """Samples per maximum-length frame (the hop unit)."""
        return self._frame_samples

    def make_dedup(self) -> DedupTable:
        """A dedup table with this receiver's duplicate tolerance."""
        return DedupTable(tolerance=self._frame_samples // 2)

    def window_is_live(
        self, window: np.ndarray, planes: Optional[List[Optional[np.ndarray]]] = None
    ) -> bool:
        """Cheap batched pre-gate: could any user clear the detection
        threshold inside *window*?

        One batched FFT pass over the stacked template bank replaces
        the full per-window pipeline for silent stretches -- the
        common case of a sparse unslotted stream.  The gate uses the
        same kernel and normalisation as the detector itself (margin
        :data:`_PREGATE_MARGIN` below threshold), so a window it skips
        is one the detector would have returned no users for.

        When *planes* is given, the gate appends the correlation plane
        it computed for a live window (``None`` for a gated-out one).
        That plane is exactly what the detector would compute over the
        same samples, so the caller hands it to :meth:`decode_window`
        and each live window is correlated once.
        """
        detector = self.receiver.user_detector
        x = np.asarray(window)
        corr = None
        if x.size >= detector.bank.template_samples:
            corr = detector.bank.correlate(x)
        live = corr is not None and float(corr.max()) >= detector.threshold * _PREGATE_MARGIN
        if planes is not None:
            planes.append(corr if live else None)
        return live

    def windows_are_live(
        self, windows: Windows, planes: Optional[List[Optional[np.ndarray]]] = None
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

        When *planes* is given it is extended with one entry per
        window: the ``(U, n - m + 1)`` correlation plane of each live
        window (its own array, equal to the per-window plane) and
        ``None`` for each gated-out one.  The farm primes each session
        with its plane (:meth:`SessionSupervisor.prime_gate`), so the
        detector does not correlate the window again.  Gated-out
        windows' planes are never materialised.
        """
        detector = self.receiver.user_detector
        kept = detector.bank.correlate_many(
            windows, min_peak=detector.threshold * _PREGATE_MARGIN
        )
        if planes is not None:
            planes.extend(kept)
        return np.array([plane is not None for plane in kept], dtype=bool)

    def decode_window(
        self,
        window: np.ndarray,
        pos: int,
        dedup: DedupTable,
        corr: Optional[np.ndarray] = None,
    ) -> Tuple[List[StreamFrame], ReceptionReport]:
        """Full-pipeline decode of one live window starting at absolute
        sample *pos*.

        Returns the newly decoded (non-duplicate) frames plus the raw
        :class:`~repro.receiver.receiver.ReceptionReport`, and records
        every accepted frame in *dedup*.  Shared by the batch walk
        (:meth:`process_stream`) and the supervised session
        (:class:`repro.receiver.session.SessionSupervisor`) so the two
        paths can never drift apart.  *corr* is the pre-gate's plane
        for *window* (see :meth:`window_is_live`), passed through to
        :meth:`CbmaReceiver.process`.
        """
        report = self.receiver.process(window, skip_energy_gate=True, corr=corr)
        det_offsets = {d.user_id: d.offset for d in report.detections}
        frames: List[StreamFrame] = []
        for frame in report.frames:
            if not frame.success:
                continue
            start = pos + det_offsets.get(frame.user_id, 0)
            if dedup.seen(frame.user_id, frame.payload, start):
                continue
            frames.append(
                StreamFrame(user_id=frame.user_id, payload=frame.payload, start_sample=start)
            )
        return frames, report

    def process_stream(self, iq: np.ndarray) -> List[StreamFrame]:
        """Decode every recoverable frame in *iq* (absolute positions).

        The window walk is two-tier: every hop first runs the batched
        correlation pre-gate (:meth:`window_is_live`), and only live
        windows pay for the full detect/decode pipeline.  With a
        tracer attached to the underlying receiver, each live window
        is timed under a ``stream_decode`` span.

        Tail windows truncated by the capture edge are processed like
        any other (a frame ending at the edge of a short capture is
        still a frame; the pipeline tolerates short buffers, and the
        pre-gate keeps sub-template tails free).  Cross-window
        duplicates are tracked in a bounded :class:`DedupTable`:
        entries more than one window behind the walk are evicted, so
        memory stays flat however long the stream.
        """
        x = np.asarray(iq)
        tracer = self.receiver.tracer
        frames: List[StreamFrame] = []
        dedup = self.make_dedup()
        self.last_dedup = dedup
        pos = 0
        while pos < x.size:
            window = x[pos : pos + self.window_samples]
            planes: List[Optional[np.ndarray]] = []
            if self.window_is_live(window, planes=planes):
                with tracer.span(S.STREAM_DECODE):
                    new_frames, _report = self.decode_window(
                        window, pos, dedup, corr=planes[0] if planes else None
                    )
                frames.extend(new_frames)
            pos += self.hop_samples
            # No future decode can start before pos, so entries more
            # than one window behind it can never match again.
            dedup.evict_before(pos - self.window_samples)
        frames.sort(key=lambda f: f.start_sample)
        return frames
