"""One sample dtype: narrower chunks are widened on the way in, and a
checkpoint that names another buffer dtype is refused."""

import json

import numpy as np
import pytest

from repro.farm import DecodeFarm, FarmConfig
from repro.receiver.session import SessionSupervisor
from repro.receiver.streaming import StreamingReceiver
from tests.farm.conftest import run_farm


def _narrow_header(records):
    """*records* with a header that names ``complex64``."""
    return [{**records[0], "dtype": "complex64"}, *records[1:]]


class TestSessionDtype:
    def test_checkpoint_geometry_records_dtype(self, net_config):
        header = SessionSupervisor.from_config(net_config).checkpoint_records()[0]
        assert header["version"] == 3
        assert header["dtype"] == "complex128"

    def test_restore_rejects_dtype_mismatch(self, net_config, tmp_path):
        records = _narrow_header(SessionSupervisor.from_config(net_config).checkpoint_records())
        stream = StreamingReceiver.from_config(net_config)
        with pytest.raises(ValueError, match="geometry"):
            SessionSupervisor.from_checkpoint_records(records, stream)
        path = tmp_path / "narrow.jsonl"
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        with pytest.raises(ValueError, match="geometry"):
            SessionSupervisor.restore(path, stream)

    def test_restore_accepts_matching_dtype(self, net_config):
        source = SessionSupervisor.from_config(net_config)
        records = source.checkpoint_records()
        resumed = SessionSupervisor.from_checkpoint_records(
            records, StreamingReceiver.from_config(net_config)
        )
        assert resumed.position == source.position


def _farm(net_config, chunk, backend, n_sessions):
    return DecodeFarm.from_config(
        net_config,
        n_sessions=n_sessions,
        farm=FarmConfig(n_workers=1, ring_slot_samples=chunk),
        backend=backend,
    )


class TestFarmDtype:
    """A farm fed single-precision chunks decodes exactly what it
    decodes from the same values at double precision."""

    def test_complex64_farm_runs_end_to_end(self, net_config, soak_capture):
        _buffer, chunks, chunk = soak_capture
        narrow = [piece.astype(np.complex64) for piece in chunks]
        wide = [piece.astype(np.complex128) for piece in narrow]
        got = run_farm(_farm(net_config, chunk, "inline", 2), narrow)
        assert got == run_farm(_farm(net_config, chunk, "inline", 2), wide)
        assert all(frames for frames, _stats in got.values())

    def test_process_farm_widens_complex64_chunks(self, net_config, soak_capture):
        _buffer, chunks, chunk = soak_capture
        narrow = [piece.astype(np.complex64) for piece in chunks[:6]]
        wide = [piece.astype(np.complex128) for piece in narrow]
        got = run_farm(_farm(net_config, chunk, "process", 1), narrow)
        assert got == run_farm(_farm(net_config, chunk, "inline", 1), wide)
        assert got[0][0]
