"""ExperimentResult: serialisation and the post-shim access contract."""

import numpy as np
import pytest

from repro.obs import ExperimentResult, S, Tracer


def _result():
    return ExperimentResult(
        experiment_id="demo",
        x_label="n",
        x=[1, 2, 3],
        series={"fer": [0.1, 0.2, 0.3]},
        notes="a note",
        params={"rounds": 5},
        metrics={"cbma_bps": 1234.5},
        seed=7,
        wall_time_s=0.25,
    )


class TestSerialisation:
    def test_json_round_trip(self):
        back = ExperimentResult.from_json(_result().to_json())
        assert back.experiment_id == "demo"
        assert back.x == [1, 2, 3]
        assert back.series == {"fer": [0.1, 0.2, 0.3]}
        assert back.params == {"rounds": 5}
        assert back.metrics == {"cbma_bps": 1234.5}
        assert back.seed == 7
        assert back.wall_time_s == 0.25

    def test_numpy_values_coerced(self):
        r = ExperimentResult(
            experiment_id="np",
            x=list(np.arange(3)),
            series={"y": [np.float64(1.5)]},
            metrics={"m": np.float32(2.0)},
            artifacts={"grid": np.eye(2)},
        )
        back = ExperimentResult.from_json(r.to_json())
        assert back.x == [0, 1, 2]
        assert back.series["y"] == [1.5]
        assert back.metrics["m"] == 2.0
        assert back.artifacts["grid"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_profile_round_trips(self):
        t = Tracer()
        with t.span(S.DECODE):
            pass
        r = _result()
        r.profile = t.profile()
        back = ExperimentResult.from_json(r.to_json())
        assert back.profile is not None
        assert "decode" in back.profile.stages

    def test_summarize_series(self):
        r = _result().summarize_series()
        assert r.metrics["mean:fer"] == pytest.approx(0.2)


class TestRemovedShims:
    """The one-release deprecation shims are gone: the explicit
    ``metrics``/``artifacts`` access paths are the whole contract."""

    def test_metrics_attribute_fallthrough_removed(self):
        with pytest.raises(AttributeError):
            _result().cbma_bps

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            _result().no_such_thing

    def test_real_fields_resolve(self):
        r = _result()
        assert r.metrics["cbma_bps"] == 1234.5
        assert r.seed == 7

    def test_not_iterable(self):
        with pytest.raises(TypeError):
            iter(_result())

    def test_no_legacy_tuple_field(self):
        with pytest.raises(TypeError):
            ExperimentResult(experiment_id="x", legacy_tuple=(1, 2, 3))


class TestDriverContract:
    """Every migrated driver returns the unified shape."""

    def test_fig5_artifacts(self):
        from repro.sim.experiments import fig5_signal_field

        r = fig5_signal_field(resolution=9)
        assert set(r.artifacts) == {"xs", "ys", "field_dbm"}
        assert r.params["resolution"] == 9
        assert r.wall_time_s > 0
        with pytest.raises(TypeError):
            xs, ys, field = r

    def test_headline_metrics_complete(self):
        from repro.sim.experiments import headline_throughput

        r = headline_throughput(n_tags=3, rounds=4)
        for key in (
            "cbma_bps",
            "single_tag_bps",
            "fsa_bps",
            "fdma_bps",
            "cbma_fer",
            "aggregate_raw_bps",
            "speedup_vs_single",
            "speedup_vs_fsa",
        ):
            assert key in r.metrics, key
        assert r.seed is not None and r.wall_time_s > 0
        with pytest.raises(AttributeError):
            r.cbma_bps
