"""Graceful-degradation support for the receiver pipeline.

The degradation contract (docs/resilience.md): no exception may escape
:meth:`CbmaReceiver.process`.  A malformed buffer or a stage blowing up
on pathological input degrades into a :class:`DecodeFailure` recorded
on the :class:`~repro.receiver.receiver.ReceptionReport` -- the report
always comes back, losses stay attributable, and the MAC loop above
keeps running.

Two pieces live here:

- :class:`DecodeFailure`, the structured record of one contained
  failure (which stage, a short reason code, optional user id);
- :func:`sanitize_buffer`, the receiver front end's input hygiene:
  whatever the caller hands in is coerced to a 1-D complex array and
  non-finite samples (a saturated/faulted ADC emitting NaN/Inf) are
  zeroed rather than poisoning every correlation downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.obs.taxonomy import CounterName, pipeline_failure

__all__ = ["DecodeFailure", "sanitize_buffer"]


@dataclass(frozen=True)
class DecodeFailure:
    """One contained failure inside the receiver pipeline.

    Attributes
    ----------
    stage:
        Pipeline stage that failed: ``"input"``, ``"frame_sync"``,
        ``"user_detection"``, ``"decode"``, ``"sic"`` or ``"ack"``.
    reason:
        Short machine-readable code (``"non_finite"``, ``"not_1d"``,
        ``"exception"``, ...); the tracer counter is
        ``errors.pipeline.<stage>.<reason>``.
    user_id:
        The affected user when the failure is per-user, else ``None``.
    detail:
        Free-form human-readable context (exception text, counts).
    """

    stage: str
    reason: str
    user_id: Optional[int] = None
    detail: str = ""

    @property
    def counter(self) -> CounterName:
        """The tracer/error-budget counter slug for this failure.

        Built via the taxonomy's checked constructor, so a stage or
        reason the registry does not declare raises here instead of
        opening an unaccounted error-budget bucket.
        """
        return pipeline_failure(self.stage, self.reason)


def sanitize_buffer(iq, dtype=np.complex128) -> Tuple[np.ndarray, List[DecodeFailure]]:
    """Coerce *iq* into a finite 1-D complex buffer of *dtype*.

    Returns the cleaned buffer plus the :class:`DecodeFailure` records
    describing what had to be repaired (empty list for healthy input).
    Inputs that cannot be interpreted as samples at all (wrong dtype,
    wrong rank) degrade to an empty buffer rather than raising.
    *dtype* defaults to ``complex128``; a session running the
    ``complex64`` fast path passes its own dtype so hygiene does not
    silently widen the buffer at the ingest boundary.
    """
    dtype = np.dtype(dtype)
    failures: List[DecodeFailure] = []
    try:
        x = np.asarray(iq)
        if x.ndim != 1:
            failures.append(
                DecodeFailure("input", "not_1d", detail=f"ndim={x.ndim}, coerced via ravel")
            )
            x = x.ravel()
        x = np.asarray(x, dtype=dtype)
    except (TypeError, ValueError) as exc:
        failures.append(DecodeFailure("input", "uninterpretable", detail=str(exc)))
        return np.zeros(0, dtype=dtype), failures

    bad = ~np.isfinite(x.real) | ~np.isfinite(x.imag)
    if bad.any():
        n_bad = int(bad.sum())
        failures.append(
            DecodeFailure("input", "non_finite", detail=f"{n_bad} non-finite samples zeroed")
        )
        x = x.copy()
        x[bad] = 0.0
    return x, failures
