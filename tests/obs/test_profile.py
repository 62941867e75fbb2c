"""RunProfile aggregation, error budget, JSONL export round-trip."""

import json

from repro.obs import C, G, RunProfile, S, Tracer, jsonl_lines, read_jsonl, write_jsonl


def _traced_run():
    t = Tracer()
    for _ in range(3):
        with t.span(S.ROUND):
            with t.span(S.FRAME_SYNC):
                pass
            with t.span(S.DECODE, user=1):
                with t.span(S.CRC):
                    pass
    t.count(C.ROUND_FRAMES_SENT, 6)
    t.count(C.ROUND_FRAMES_CORRECT, 3)
    t.count(C.ERRORS_NOT_DETECTED, 1)
    t.count(C.ERRORS_NOT_DECODED, 2)
    t.gauge(G.TAG_SNR_DB, 8.0)
    t.gauge(G.TAG_SNR_DB, 12.0)
    return t


class TestRunProfile:
    def test_stage_stats(self):
        profile = _traced_run().profile()
        assert set(profile.stages) == {"round", "frame_sync", "decode", "crc"}
        sync = profile.stages["frame_sync"]
        assert sync.count == 3
        assert sync.total_s >= 0.0
        assert sync.p50_s <= sync.p95_s <= sync.max_s

    def test_error_budget_attribution(self):
        budget = _traced_run().profile().error_budget
        assert budget["detect"] == 1 / 6
        assert budget["decode"] == 2 / 6
        assert budget["payload"] == 0.0
        assert budget["delivered"] == 3 / 6

    def test_gauge_stats(self):
        profile = _traced_run().profile()
        g = profile.gauges["tag.snr_db"]
        assert g.count == 2
        assert g.mean == 10.0

    def test_dict_json_round_trip(self):
        profile = _traced_run().profile(wall_time_s=1.5)
        back = RunProfile.from_json(profile.to_json())
        assert back.wall_time_s == 1.5
        assert set(back.stages) == set(profile.stages)
        assert back.counters == profile.counters
        assert back.error_budget == profile.error_budget

    def test_format_table_mentions_stages(self):
        text = _traced_run().profile().format_table()
        for name in ("frame_sync", "decode", "crc"):
            assert name in text


class TestJsonlExport:
    def test_every_line_parses(self):
        t = _traced_run()
        lines = list(jsonl_lines(t, profile=t.profile()))
        parsed = [json.loads(line) for line in lines]
        types = {p["type"] for p in parsed}
        assert types == {"span", "counter", "gauge", "profile"}

    def test_file_round_trip(self, tmp_path):
        t = _traced_run()
        path = tmp_path / "trace.jsonl"
        n = write_jsonl(path, t, profile=t.profile())
        assert n == len(path.read_text().splitlines())

        back = read_jsonl(path)
        assert [r.name for r in back["spans"]] == [r.name for r in t.records]
        assert back["spans"][0].duration_s == t.records[0].duration_s
        assert back["counters"] == t.counters
        assert back["gauges"] == t.gauges
        assert back["profile"] is not None
        assert back["profile"].error_budget["delivered"] == 0.5

    def test_round_trip_without_profile(self, tmp_path):
        t = _traced_run()
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, t)
        assert read_jsonl(path)["profile"] is None
