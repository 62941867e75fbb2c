"""Shared stimulus and oracles for the farm suite.

The stimulus is a soak-style capture (4 tags, moderate traffic) cut
into feed chunks.  The equivalence oracle is the sequential
:class:`SessionSupervisor` fed the identical chunks -- the farm's
contract is that its output is byte-identical to that run.

The chunk size doubles as ``ring_slot_samples`` so a feed never
splits across ring slots, on either backend: ``session.quarantined``
counts sanitiser calls, whose cadence follows ingest boundaries, so a
split feed would no longer match the oracle's one ingest per chunk.
"""

import numpy as np
import pytest

from repro.receiver.session import SessionSupervisor
from repro.sim.experiments.soak import (
    SoakConfig,
    build_soak_stack,
    build_soak_stream,
    soak_phy_config,
)


@pytest.fixture(scope="session")
def net_config():
    """The PHY config every farm session (and the oracle) decodes with."""
    return soak_phy_config(SoakConfig(n_tags=4, seed=11))


@pytest.fixture(scope="session")
def soak_capture():
    """``(buffer, chunks, chunk_samples)`` of one deterministic capture."""
    cfg = SoakConfig(n_windows=30, n_tags=4, seed=11, traffic_rate=0.3)
    tags, stream = build_soak_stack(cfg)
    buffer, _offered = build_soak_stream(cfg, None, stream, tags)
    chunk = 3 * stream.hop_samples
    chunks = [buffer[lo : lo + chunk] for lo in range(0, buffer.size, chunk)]
    return buffer, chunks, chunk


def run_sequential(config, chunks, n_sessions):
    """The oracle: each session is a plain supervisor fed the chunks."""
    out = {}
    for sid in range(n_sessions):
        sup = SessionSupervisor.from_config(config)
        frames = []
        for piece in chunks:
            frames.extend(sup.feed(piece))
        frames.extend(sup.finish())
        out[sid] = (frames, dict(sup.stats))
    return out


def run_farm(farm, chunks):
    """Drive *farm* with the oracle cadence: feed all, pump, repeat."""
    try:
        for piece in chunks:
            for sid in farm.session_ids:
                farm.feed(sid, piece)
            farm.pump()
        farm.finish()
        return {
            sid: (farm.frames[sid], farm.session_stats[sid])
            for sid in farm.frames
        }
    finally:
        farm.close()
