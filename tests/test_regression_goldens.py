"""Golden-value regression tests.

Everything in the simulator is a pure function of its seed; these tests
pin a handful of seeded outputs *exactly*, so an unintended behaviour
change anywhere in the stack (codes, PHY, channel, receiver) shows up
as a diff even when all property tests still pass.

INTENTIONAL changes (recalibration, receiver improvements) will break
these; that is the point.  Regenerate the constants with the snippet in
each test's docstring and mention the change in CHANGELOG.md.
"""

import hashlib

import numpy as np
import pytest

from repro.channel.geometry import Deployment
from repro.codes import make_codes
from repro.sim.network import CbmaConfig, CbmaNetwork


def _digest(arrays) -> str:
    m = hashlib.sha256()
    for a in arrays:
        m.update(np.ascontiguousarray(a).tobytes())
    return m.hexdigest()[:16]


class TestCodeGoldens:
    """Code families are deterministic constructions; their bytes must
    never drift silently (tags and receiver derive them independently).

    Regenerate: ``_digest(make_codes(family, 5, length))``.
    """

    def test_gold_family_digest(self):
        assert _digest(make_codes("gold", 5, 31)) == "b23ff4555782aa52"

    def test_twonc_family_digest(self):
        assert _digest(make_codes("2nc", 5, 64)) == "3591e7b66926732b"

    @pytest.mark.parametrize(
        "size,length,digest",
        [
            (1, 32, "f709cf9ee35f8a19"),
            (2, 32, "153782184c66c916"),
            (3, 32, "0810c0f1f58c1e92"),
            (4, 32, "f97b6619dacd7872"),
            (5, 32, "5fa22cde4e4d9b88"),
            (6, 32, "52698a3b64e5f321"),
            (7, 32, "3f78580417ce785d"),
            (8, 32, "d6421d5358fc628c"),
            (9, 32, "abba81101ed4c8a9"),
            (10, 32, "85f0613d2f855b1a"),
            (11, 32, "5da3a16be9b82426"),
            (12, 32, "c8d1c235e5c4b2e9"),
            (13, 32, "53ddfd193b64c915"),
            (14, 32, "333d60629b97f0be"),
            (15, 32, "9039476e7cf5f5a1"),
            (16, 32, "4c0e02d0873b9f6a"),
            (3, 64, "ebc9504d6f24f132"),
            (8, 128, "abc5ffb4fb459044"),
            (20, 40, "9c94d1184514e879"),
            (4, 16, "936000c310c84a87"),
            (2, 12, "6d10184614812d9f"),
        ],
    )
    def test_twonc_search_digests(self, size, length, digest):
        """The 2NC search (greedy pick plus anneal) is pinned family by
        family: a change to its scoring or RNG use moves these bytes."""
        assert _digest(make_codes("2nc", size, length)) == digest

    def test_kasami_family_digest(self):
        assert _digest(make_codes("kasami", 5, 63)) == "b1230befa9ef0df1"


class TestEndToEndGoldens:
    """Seeded end-to-end runs.  Regenerate by running the scenario and
    reading ``frames_correct`` / ``frames_detected``."""

    def test_two_tags_one_meter_seed42(self):
        net = CbmaNetwork(
            CbmaConfig(n_tags=2, seed=42), Deployment.linear(2, tag_to_rx=1.0)
        )
        metrics = net.run_rounds(20)
        assert metrics.frames_correct == 40
        assert metrics.frames_detected == 40

    def test_four_tags_two_meters_seed42(self):
        net = CbmaNetwork(
            CbmaConfig(n_tags=4, seed=42), Deployment.linear(4, tag_to_rx=2.0)
        )
        metrics = net.run_rounds(15)
        assert metrics.frames_correct == 58
        assert metrics.frames_detected == 59
