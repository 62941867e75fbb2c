"""Unit tests for repro.sim.sweep."""

import re

import pytest

from repro.sim.sweep import PointError, grid, sweep


def _fer_point(params, seed):
    """Module-level point function (picklable) used across tests."""
    from repro.channel.geometry import Deployment
    from repro.sim.network import CbmaConfig, CbmaNetwork

    cfg = CbmaConfig(n_tags=params["n_tags"], seed=seed)
    net = CbmaNetwork(cfg, Deployment.linear(params["n_tags"], tag_to_rx=params["d"]))
    return net.run_rounds(params.get("rounds", 5)).fer


def _echo_point(params, seed):
    return (params, seed)


class TestGrid:
    def test_cartesian_product(self):
        points = grid(a=[1, 2], b=["x", "y"])
        assert len(points) == 4
        assert {"a": 1, "b": "x"} in points
        assert {"a": 2, "b": "y"} in points

    def test_order_is_document_order(self):
        points = grid(a=[1, 2], b=[10, 20])
        assert points[0] == {"a": 1, "b": 10}
        assert points[1] == {"a": 1, "b": 20}

    def test_empty_axes(self):
        assert grid() == [{}]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            grid(a=[])

    def test_generator_axis(self):
        """Generator/iterator axes are materialised, not crashed on."""
        points = grid(n=(i * 2 for i in range(3)), d=iter([1.0]))
        assert points == [
            {"n": 0, "d": 1.0},
            {"n": 2, "d": 1.0},
            {"n": 4, "d": 1.0},
        ]

    def test_range_and_map_axes(self):
        points = grid(a=range(2), b=map(str, [7]))
        assert points == [{"a": 0, "b": "7"}, {"a": 1, "b": "7"}]

    def test_empty_generator_axis_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            grid(a=(x for x in ()))


class TestSweep:
    def test_results_in_order(self):
        points = grid(k=[0, 1, 2])
        results = sweep(_echo_point, points, seed=1)
        assert [r[0]["k"] for r in results] == [0, 1, 2]

    def test_per_point_seeds_differ(self):
        results = sweep(_echo_point, grid(k=[0, 1, 2]), seed=1)
        seeds = [r[1] for r in results]
        assert len(set(seeds)) == 3

    def test_seeds_reproducible(self):
        a = sweep(_echo_point, grid(k=[0, 1]), seed=7)
        b = sweep(_echo_point, grid(k=[0, 1]), seed=7)
        assert [r[1] for r in a] == [r[1] for r in b]

    def test_different_root_seed_changes_points(self):
        a = sweep(_echo_point, grid(k=[0]), seed=7)
        b = sweep(_echo_point, grid(k=[0]), seed=8)
        assert a[0][1] != b[0][1]

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            sweep(_echo_point, grid(k=[0]), workers=0)

    def test_serial_simulation_sweep(self):
        points = grid(n_tags=[2], d=[1.0, 4.0])
        fers = sweep(_fer_point, points, seed=3)
        assert len(fers) == 2
        assert all(0.0 <= f <= 1.0 for f in fers)

    def test_parallel_matches_serial(self):
        """Worker processes must return identical results to serial."""
        points = grid(n_tags=[2], d=[1.0, 2.0])
        serial = sweep(_fer_point, points, seed=3)
        parallel = sweep(_fer_point, points, seed=3, workers=2)
        assert serial == parallel

    def test_unpicklable_point_fn_fails_fast(self):
        """A lambda with workers set must raise immediately, not hang."""
        with pytest.raises(TypeError, match="module level"):
            sweep(lambda p, s: s, grid(k=[0, 1]), workers=2)

    def test_unpicklable_point_fn_fine_serially(self):
        results = sweep(lambda p, s: p["k"], grid(k=[0, 1]))
        assert results == [0, 1]

    def test_invalid_chunksize(self):
        with pytest.raises(ValueError):
            sweep(_echo_point, grid(k=[0]), workers=1, chunksize=0)

    def test_chunksize_preserves_order_and_seeds(self):
        points = grid(k=[0, 1, 2, 3, 4])
        plain = sweep(_echo_point, points, seed=5, workers=2)
        chunked = sweep(_echo_point, points, seed=5, workers=2, chunksize=3)
        assert chunked == plain


def _flaky_point(params, seed):
    if params["k"] == 1:
        raise RuntimeError("boom at k=1")
    return params["k"] * 10


_CALLS = []


def _counting_point(params, seed):
    _CALLS.append(params["k"])
    return params["k"]


class TestContainment:
    def test_default_raises(self):
        with pytest.raises(RuntimeError, match="boom"):
            sweep(_flaky_point, grid(k=[0, 1, 2]))

    def test_contain_returns_full_grid(self):
        results = sweep(_flaky_point, grid(k=[0, 1, 2]), on_error="contain")
        assert len(results) == 3
        assert results[0] == 0 and results[2] == 20
        err = results[1]
        assert isinstance(err, PointError)
        assert err.index == 1
        assert err.error_type == "RuntimeError"
        assert "boom" in err.message
        assert "boom" in err.traceback

    def test_contain_works_in_parallel(self):
        results = sweep(_flaky_point, grid(k=[0, 1, 2]), workers=2, on_error="contain")
        assert isinstance(results[1], PointError)
        assert results[0] == 0 and results[2] == 20

    def test_invalid_on_error(self):
        with pytest.raises(ValueError):
            sweep(_echo_point, grid(k=[0]), on_error="explode")


class TestCheckpoint:
    def test_checkpoint_roundtrip(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        points = grid(k=[0, 1, 2])
        first = sweep(_counting_point, points, seed=4, checkpoint=path)
        resumed = sweep(_counting_point, points, seed=4, checkpoint=path)
        assert first == resumed == [0, 1, 2]

    def test_resume_skips_finished_points(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        points = grid(k=[0, 1, 2])
        _CALLS.clear()
        sweep(_counting_point, points, seed=4, checkpoint=path)
        assert _CALLS == [0, 1, 2]
        _CALLS.clear()
        sweep(_counting_point, points, seed=4, checkpoint=path)
        assert _CALLS == []  # everything served from the checkpoint

    def test_resume_reruns_only_failed_points_with_retry(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        points = grid(k=[0, 1, 2])
        contained = sweep(_flaky_point, points, on_error="contain", checkpoint=path)
        assert isinstance(contained[1], PointError)
        # Without retry_errors the failure is final.
        again = sweep(_flaky_point, points, on_error="contain", checkpoint=path)
        assert isinstance(again[1], PointError)
        # With retry_errors only the failed slot is recomputed; here a
        # fixed point function supplies the missing result.
        _CALLS.clear()
        healed = sweep(_counting_point, points, on_error="contain",
                       checkpoint=path, retry_errors=True)
        assert healed == [0, 1, 20]  # 0 and 20 come from the checkpoint
        assert _CALLS == [1]

    def test_torn_last_record_is_dropped_and_rerun(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        points = grid(k=[0, 1, 2])
        sweep(_counting_point, points, seed=4, checkpoint=path)
        whole = path.read_bytes()
        path.write_bytes(whole[:-7])  # killed inside the last record
        _CALLS.clear()
        assert sweep(_counting_point, points, seed=4, checkpoint=path) == [0, 1, 2]
        assert _CALLS == [2]
        assert path.read_bytes() == whole  # cut back, then appended cleanly
        _CALLS.clear()
        sweep(_counting_point, points, seed=4, checkpoint=path)
        assert _CALLS == []

    def test_unreadable_earlier_record_names_file_and_line(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        points = grid(k=[0, 1, 2])
        sweep(_counting_point, points, seed=4, checkpoint=path)
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2][:9] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=rf"checkpoint {re.escape(str(path))} line 3 "):
            sweep(_counting_point, points, seed=4, checkpoint=path)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        sweep(_echo_point, grid(k=[0, 1]), seed=4, checkpoint=path)
        with pytest.raises(ValueError, match="checkpoint"):
            sweep(_echo_point, grid(k=[0, 1]), seed=5, checkpoint=path)
        with pytest.raises(ValueError, match="checkpoint"):
            sweep(_echo_point, grid(k=[0, 1, 2]), seed=4, checkpoint=path)

    def test_parallel_checkpoint_matches_serial(self, tmp_path):
        points = grid(k=[0, 1, 2, 3])
        serial = sweep(_counting_point, points, seed=6)
        parallel = sweep(_counting_point, points, seed=6, workers=2,
                         checkpoint=tmp_path / "par.jsonl")
        assert parallel == serial

    def test_unserializable_result_names_the_point(self, tmp_path):
        with pytest.raises(TypeError, match="point #0"):
            sweep(lambda p, s: object(), grid(k=[0]),
                  checkpoint=tmp_path / "bad.jsonl")
