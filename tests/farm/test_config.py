"""FarmConfig / SessionSpec validation and the from_config factories."""

import numpy as np
import pytest

from repro.farm import DecodeFarm, FarmConfig, SessionSpec
from repro.receiver.session import SessionSupervisor
from repro.receiver.streaming import StreamingReceiver
from repro.sim.network import CbmaConfig


@pytest.fixture(scope="module")
def cfg():
    return CbmaConfig(n_tags=2, seed=3, payload_bytes=4, code_length=32)


class TestFarmConfig:
    def test_defaults(self):
        fc = FarmConfig()
        assert fc.n_workers == 2
        assert fc.ring_slots >= 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_workers": 0},
            {"ring_slots": 1},
            {"ring_slot_samples": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FarmConfig(**kwargs)


class TestSessionSpec:
    def test_negative_id_rejected(self, cfg):
        with pytest.raises(ValueError):
            SessionSpec(session_id=-1, config=cfg)

    def test_frozen(self, cfg):
        spec = SessionSpec(session_id=0, config=cfg)
        with pytest.raises(AttributeError):
            spec.session_id = 1


class TestFarmConstruction:
    def test_requires_specs(self):
        with pytest.raises(ValueError, match="at least one session"):
            DecodeFarm([], backend="inline")

    def test_rejects_duplicate_ids(self, cfg):
        specs = [SessionSpec(session_id=0, config=cfg)] * 2
        with pytest.raises(ValueError, match="unique"):
            DecodeFarm(specs, backend="inline")

    def test_rejects_unknown_backend(self, cfg):
        with pytest.raises(ValueError, match="backend"):
            DecodeFarm([SessionSpec(session_id=0, config=cfg)], backend="threads")

    def test_from_config_rejects_zero_sessions(self, cfg):
        with pytest.raises(ValueError):
            DecodeFarm.from_config(cfg, n_sessions=0, backend="inline")

    def test_round_robin_placement(self, cfg):
        farm = DecodeFarm.from_config(
            cfg, n_sessions=5, farm=FarmConfig(n_workers=2), backend="inline"
        )
        assert farm.session_ids == [0, 1, 2, 3, 4]
        assert [farm.worker_of(s) for s in farm.session_ids] == [0, 1, 0, 1, 0]
        farm.close()


class TestFactories:
    def test_streaming_from_config_pins_frame_bits(self, cfg):
        stream = StreamingReceiver.from_config(cfg)
        assert stream.max_frame_bits == cfg.frame_bits()

    def test_streaming_from_config_reuses_receiver(self, cfg):
        inner = StreamingReceiver.from_config(cfg).receiver
        stream = StreamingReceiver.from_config(cfg, receiver=inner)
        assert stream.receiver is inner

    def test_session_from_config_default_dtype(self, cfg):
        sup = SessionSupervisor.from_config(cfg)
        sup.ingest(np.zeros(8, dtype=np.complex64))
        assert sup._buf.dtype == np.dtype(np.complex128)
