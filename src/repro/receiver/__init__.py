"""The CBMA receiver: frame sync, user detection, decoding, ACK.

- :mod:`repro.receiver.frame_sync` -- sliding-window energy detection.
- :mod:`repro.receiver.user_detection` -- per-PN-code preamble
  correlation with timing and channel estimation.
- :mod:`repro.receiver.decoder` -- coherent chip-correlation decoding.
- :mod:`repro.receiver.ack` -- acknowledgement broadcast.
- :mod:`repro.receiver.receiver` -- the composed pipeline, with
  optional successive interference cancellation (``max_passes``,
  receiver-side near-far mitigation).
- :mod:`repro.receiver.diversity` -- multi-antenna MRC extension.
- :mod:`repro.receiver.streaming` -- continuous-stream reception.
- :mod:`repro.receiver.session` -- supervised long-run sessions
  (health state machine, checkpoint/restore).
- :mod:`repro.receiver.phase_tracking` -- CFO-tolerant decoding.
"""

from repro.receiver.ack import AckMessage
from repro.receiver.decoder import ChipDecoder, DecodedFrame
from repro.receiver.failures import DecodeFailure, sanitize_buffer
from repro.receiver.frame_sync import EnergyDetector, FrameSyncResult
from repro.receiver.diversity import DiversityReceiver
from repro.receiver.receiver import CbmaReceiver, ReceptionReport
from repro.receiver.phase_tracking import PhaseTrackingReceiver
from repro.receiver.session import HealthState, SessionConfig, SessionSupervisor
from repro.receiver.streaming import StreamFrame, StreamingReceiver
from repro.receiver.user_detection import UserDetection, UserDetector

__all__ = [
    "AckMessage",
    "ChipDecoder",
    "DecodedFrame",
    "DecodeFailure",
    "sanitize_buffer",
    "EnergyDetector",
    "FrameSyncResult",
    "CbmaReceiver",
    "ReceptionReport",
    "PhaseTrackingReceiver",
    "DiversityReceiver",
    "StreamFrame",
    "StreamingReceiver",
    "HealthState",
    "SessionConfig",
    "SessionSupervisor",
    "UserDetection",
    "UserDetector",
]
