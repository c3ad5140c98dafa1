"""Command-line behaviour: each subcommand plus the end-to-end pipe."""

import json

import numpy as np
import pytest

from bgpnovelty import cli
from bgpnovelty.autoencoder import AutoencoderModel, save_model
from bgpnovelty.cli import build_parser, main
from bgpnovelty.features import NormalizationParams
from bgpnovelty.scg import STOP_NON_FINITE, TrainReport
from bgpnovelty.series import MAX_SERIES_MINUTES, read_bucket_csv

from conftest import TOP15, top15_csv_text
from mrtbuild import bgp4mp_update_record


def run(*args):
    return main([str(a) for a in args])


class TestDefaults:
    def test_parser_defaults_match_reference_configuration(self):
        args = build_parser().parse_args(["train", "in.csv", "--out", "m.json"])
        assert args.k == 50
        assert args.hidden == 100
        assert args.cycles == 100

    def test_detect_default_gap_is_sixty_minutes(self):
        args = build_parser().parse_args(
            ["detect", "n.csv", "--threshold", "1", "--out", "a.json"]
        )
        assert args.gap_minutes == 60


class TestIngest:
    def test_mrt_fixture_to_expected_csv(self, tmp_path):
        stream = (
            bgp4mp_update_record(timestamp=120, n_announced=2, n_withdrawn=1)
            + bgp4mp_update_record(timestamp=150, n_announced=3, n_withdrawn=0)
            + bgp4mp_update_record(timestamp=240, n_announced=0, n_withdrawn=4)
        )
        src = tmp_path / "updates.mrt"
        src.write_bytes(stream)
        out = tmp_path / "buckets.csv"
        assert run("ingest", src, "--out", out) == 0
        series = read_bucket_csv(out.read_bytes())
        assert series.announcements.tolist() == [5, 0, 0]
        assert series.withdrawals.tolist() == [1, 0, 4]

    def test_csv_passthrough_fills_gaps_only(self, tmp_path):
        src = tmp_path / "sparse.csv"
        src.write_text(
            "minute_utc,announcements,withdrawals\n"
            "2001-07-05T17:14:00Z,10,1\n"
            "2001-07-05T17:16:00Z,20,2\n"
        )
        out = tmp_path / "dense.csv"
        assert run("ingest", src, "--out", out) == 0
        assert out.read_text() == (
            "minute_utc,announcements,withdrawals\n"
            "2001-07-05T17:14:00Z,10,1\n"
            "2001-07-05T17:15:00Z,0,0\n"
            "2001-07-05T17:16:00Z,20,2\n"
        )

    def test_mrt_with_explicit_range_pads_with_zeros(self, tmp_path):
        src = tmp_path / "updates.mrt"
        src.write_bytes(bgp4mp_update_record(timestamp=120, n_announced=2, n_withdrawn=1))
        out = tmp_path / "buckets.csv"
        assert run(
            "ingest", src, "--from", "1970-01-01T00:01:00Z", "--to", "1970-01-01T00:04:00Z",
            "--out", out,
        ) == 0
        series = read_bucket_csv(out.read_bytes())
        assert len(series) == 4
        assert series.announcements.tolist() == [0, 2, 0, 0]
        assert series.withdrawals.tolist() == [0, 1, 0, 0]

    def test_missing_input_exits_one_with_diagnostic(self, tmp_path, capsys):
        assert run("ingest", tmp_path / "absent.mrt", "--out", tmp_path / "x.csv") == 1
        assert "error:" in capsys.readouterr().err

    def test_truncated_mrt_exits_one(self, tmp_path, capsys):
        src = tmp_path / "bad.mrt"
        src.write_bytes(b"\x00" * 11)
        assert run("ingest", src, "--out", tmp_path / "x.csv") == 1
        assert "offset" in capsys.readouterr().err

    def test_format_flag_is_a_usage_error(self, tmp_path):
        src = tmp_path / "updates.mrt"
        src.write_bytes(bgp4mp_update_record(timestamp=120, n_announced=2, n_withdrawn=1))
        with pytest.raises(SystemExit) as info:
            run("ingest", src, "--format", "mrt", "--out", tmp_path / "x.csv")
        assert info.value.code == 2

    def test_bogus_mrt_timestamp_past_the_series_limit_exits_one(self, tmp_path, capsys):
        src = tmp_path / "updates.mrt"
        src.write_bytes(
            bgp4mp_update_record(timestamp=0, n_announced=1, n_withdrawn=0)
            + bgp4mp_update_record(timestamp=60 * MAX_SERIES_MINUTES, n_announced=1, n_withdrawn=0)
        )
        out = tmp_path / "x.csv"
        assert run("ingest", src, "--out", out) == 1
        assert "error: range of 4194305 minutes exceeds the 4194304-minute series limit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["mrt", "csv"])
    def test_range_flags_spanning_years_exit_one(self, tmp_path, capsys, kind):
        src = tmp_path / "input"
        if kind == "mrt":
            src.write_bytes(bgp4mp_update_record(timestamp=120, n_announced=2, n_withdrawn=1))
        else:
            src.write_text("minute_utc,announcements,withdrawals\n1970-01-01T00:02:00Z,2,1\n")
        assert run(
            "ingest", src, "--from", "1970-01-01T00:00:00Z", "--to", "1980-01-01T00:00:00Z",
            "--out", tmp_path / "x.csv",
        ) == 1
        assert "error: range of 5258881 minutes exceeds the 4194304-minute series limit" in capsys.readouterr().err

    def test_minute_sum_past_int64_exits_one(self, tmp_path, capsys, monkeypatch):
        # MRT prefix counts are too small to get there, so the parser's rows are stood in for.
        huge = np.array([[60, 2**62, 0], [61, 2**62, 0]], dtype=np.int64)
        monkeypatch.setattr(cli.mrt, "parse_mrt_stream", lambda data: huge)
        src = tmp_path / "updates.mrt"
        src.write_bytes(b"\x00")
        assert run("ingest", src, "--out", tmp_path / "x.csv") == 1
        assert "error: announcements of minute 1970-01-01T00:01:00Z sum past int64" in capsys.readouterr().err


class TestTrainScoreDetect:
    @pytest.fixture()
    def quiet_csv(self, tmp_path):
        path = tmp_path / "quiet.csv"
        assert run(
            "synth", "--minutes", 400, "--mean-a", 500, "--mean-w", 150,
            "--diurnal-amp", 0.2, "--seed", 11, "--out", path,
        ) == 0
        return path

    def test_train_echoes_configuration_into_model(self, tmp_path, quiet_csv):
        model_path = tmp_path / "model.json"
        assert run(
            "train", quiet_csv, "--k", 5, "--hidden", 8, "--cycles", 10,
            "--seed", 3, "--out", model_path,
        ) == 0
        document = json.loads(model_path.read_text())
        assert document["k"] == 5
        assert document["hidden_dim"] == 8
        assert document["input_dim"] == 10
        assert model_path.with_suffix(".json.report.csv").exists()

    def test_train_is_reproducible_byte_for_byte(self, tmp_path, quiet_csv):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for path in (first, second):
            assert run(
                "train", quiet_csv, "--k", 5, "--hidden", 8, "--cycles", 10,
                "--seed", 3, "--out", path,
            ) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_train_non_finite_objective_exits_one_without_model(
        self, tmp_path, quiet_csv, capsys, monkeypatch
    ):
        def diverged(model, windows, cfg):
            return model, TrainReport([12.5, 12.0], 2, STOP_NON_FINITE)

        monkeypatch.setattr(cli.scg, "train", diverged)
        model_path = tmp_path / "model.json"
        report_path = tmp_path / "report.csv"
        assert run(
            "train", quiet_csv, "--k", 5, "--hidden", 8, "--out", model_path,
            "--report", report_path,
        ) == 1
        assert "error: training stopped on non-finite-objective after 2 cycles" in (
            capsys.readouterr().err
        )
        assert not model_path.exists()
        assert report_path.read_text() == "cycle,loss\n1,12.5\n2,12.0\n"

    def test_train_range_outside_csv_fails(self, tmp_path, quiet_csv, capsys):
        assert run(
            "train", quiet_csv, "--from", "1999-01-01T00:00:00Z",
            "--to", "1999-01-02T00:00:00Z", "--k", 5, "--out", tmp_path / "m.json",
        ) == 1
        assert "not covered" in capsys.readouterr().err

    def test_train_range_spanning_years_exits_one(self, tmp_path, quiet_csv, capsys):
        assert run(
            "train", quiet_csv, "--from", "1970-01-01T00:00:00Z",
            "--to", "1980-01-01T00:00:00Z", "--k", 5, "--out", tmp_path / "m.json",
        ) == 1
        assert "error: range of 5258881 minutes exceeds the 4194304-minute series limit" in capsys.readouterr().err

    def test_score_writes_pinned_novelty_bytes(self, tmp_path):
        # With w1 and b1 zero the hidden layer is tanh(0) = 0 exactly, so every
        # value below is exact on any BLAS and libm.
        model = AutoencoderModel(
            input_dim=4, hidden_dim=3, w1=np.zeros((3, 4)), b1=np.zeros(3), w2=np.ones((4, 3)),
            b2=np.full(4, 0.5), k=2, norm=NormalizationParams(0.0, 4.0, 0.0, 8.0),
        )
        model_path = tmp_path / "model.json"
        model_path.write_bytes(save_model(model))
        buckets = tmp_path / "buckets.csv"
        buckets.write_text(
            "minute_utc,announcements,withdrawals\n"
            "2001-09-18T12:00:00Z,0,8\n"
            "2001-09-18T12:01:00Z,4,0\n"
            "2001-09-18T12:02:00Z,1,2\n"
        )
        out = tmp_path / "novelty.csv"
        assert run("score", buckets, model_path, "--out", out) == 0
        assert out.read_bytes() == (
            b"minute_utc,novelty\n"
            b"2001-09-18T12:01:00Z,0.25\n"
            b"2001-09-18T12:02:00Z,0.15625\n"
        )

    def test_score_then_detect_quantile(self, tmp_path, quiet_csv):
        model_path = tmp_path / "model.json"
        run("train", quiet_csv, "--k", 5, "--hidden", 8, "--cycles", 10, "--seed", 3,
            "--out", model_path)
        novelty_csv = tmp_path / "novelty.csv"
        assert run("score", quiet_csv, model_path, "--out", novelty_csv) == 0
        lines = novelty_csv.read_text().splitlines()
        assert lines[0] == "minute_utc,novelty"
        assert len(lines) == 1 + (400 - 5 + 1)

        alarms = tmp_path / "alarms.json"
        assert run("detect", novelty_csv, "--quantile", 0.99, "--out", alarms) == 0
        events = json.loads(alarms.read_text())
        assert isinstance(events, list)

    def test_detect_all_below_threshold_writes_empty_report(self, tmp_path):
        novelty_csv = tmp_path / "n.csv"
        novelty_csv.write_text(
            "minute_utc,novelty\n"
            "2001-06-02T00:00:00Z,0.1\n"
            "2001-06-02T00:01:00Z,0.2\n"
        )
        alarms = tmp_path / "alarms.json"
        assert run("detect", novelty_csv, "--threshold", 5.0, "--out", alarms) == 0
        assert json.loads(alarms.read_text()) == []

    @pytest.mark.parametrize("flag", [("--threshold", 1), ("--quantile", 0.5)])
    def test_detect_rejects_non_finite_novelty(self, tmp_path, capsys, flag):
        novelty_csv = tmp_path / "n.csv"
        novelty_csv.write_text(
            "minute_utc,novelty\n"
            "2001-06-02T00:00:00Z,5.0\n"
            "2001-06-02T00:01:00Z,nan\n"
        )
        alarms = tmp_path / "alarms.json"
        assert run("detect", novelty_csv, *flag, "--out", alarms) == 1
        assert "line 3" in capsys.readouterr().err
        assert not alarms.exists()

    def test_detect_requires_exactly_one_threshold_flag(self, tmp_path, capsys):
        novelty_csv = tmp_path / "n.csv"
        novelty_csv.write_text("minute_utc,novelty\n2001-06-02T00:00:00Z,0.1\n")
        assert run("detect", novelty_csv, "--out", tmp_path / "a.json") == 1
        assert run(
            "detect", novelty_csv, "--threshold", 1, "--quantile", 0.9,
            "--out", tmp_path / "a.json",
        ) == 1

    def test_detect_quantile_from_calibration_file(self, tmp_path):
        quiet = tmp_path / "quiet.csv"
        quiet.write_text(
            "minute_utc,novelty\n"
            + "".join(f"2001-06-02T00:{m:02d}:00Z,0.0{m}\n" for m in range(10))
        )
        live = tmp_path / "live.csv"
        live.write_text(
            "minute_utc,novelty\n"
            "2001-09-18T12:00:00Z,0.05\n"
            "2001-09-18T12:01:00Z,9.0\n"
        )
        alarms = tmp_path / "alarms.json"
        assert run(
            "detect", live, "--quantile", 1.0, "--quantile-from", quiet, "--out", alarms,
        ) == 0
        events = json.loads(alarms.read_text())
        # threshold is the quiet maximum (0.09); only the 9.0 minute fires
        assert [e["start"] for e in events] == ["2001-09-18T12:01:00Z"]

    def test_quantile_from_requires_quantile(self, tmp_path, capsys):
        live = tmp_path / "live.csv"
        live.write_text("minute_utc,novelty\n2001-09-18T12:00:00Z,0.05\n")
        quiet = tmp_path / "quiet.csv"
        quiet.write_text("minute_utc,novelty\n2001-06-02T00:00:00Z,0.01\n")
        assert run(
            "detect", live, "--threshold", 1.0, "--quantile-from", quiet,
            "--out", tmp_path / "a.json",
        ) == 1
        assert "--quantile" in capsys.readouterr().err

    def test_detect_rule_source_on_bucket_csv(self, tmp_path):
        src = tmp_path / "buckets.csv"
        src.write_text(top15_csv_text())
        alarms = tmp_path / "alarms.json"
        assert run(
            "detect", src, "--source", "rule", "--threshold", 590000, "--out", alarms,
        ) == 0
        events = json.loads(alarms.read_text())
        assert [e["start"] for e in events] == ["2001-07-27T14:50:00Z", "2001-08-02T13:30:00Z"]
        assert all(e["source"] == "rule" for e in events)


class TestTop:
    def test_reference_rows_rank_exactly(self, tmp_path, capsys):
        src = tmp_path / "buckets.csv"
        src.write_text(top15_csv_text())
        assert run("top", src, "--n", 15) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "rank,minute_utc,total"
        got = [line.split(",") for line in lines[1:]]
        expected = [
            [str(i + 1), ts.replace(" ", "T"), str(total)]
            for i, (ts, total) in enumerate(TOP15)
        ]
        assert got == expected

    def test_output_bytes_are_pinned(self, tmp_path, capsys):
        src = tmp_path / "buckets.csv"
        src.write_text(top15_csv_text())
        assert run("top", src, "--n", 3) == 0
        assert capsys.readouterr().out == (
            "rank,minute_utc,total\n"
            "1,2001-07-27T14:50:00Z,595001\n"
            "2,2001-08-02T13:30:00Z,592458\n"
            "3,2001-08-17T20:57:00Z,572124\n"
        )

    def test_zero_rows_give_the_header_only(self, tmp_path, capsys):
        src = tmp_path / "buckets.csv"
        src.write_text(top15_csv_text())
        assert run("top", src, "--n", 0) == 0
        assert capsys.readouterr().out == "rank,minute_utc,total\n"

    def test_row_past_the_series_limit_exits_one_naming_the_line(self, tmp_path, capsys):
        src = tmp_path / "buckets.csv"
        src.write_text(
            "minute_utc,announcements,withdrawals\n"
            "1970-01-01T00:00:00Z,1,0\n"
            "1977-12-22T17:04:00Z,1,0\n"
        )
        assert run("top", src, "--n", 1) == 1
        assert (
            f"error: line 3: timestamp 1977-12-22T17:04:00Z exceeds the {MAX_SERIES_MINUTES}-minute series limit"
            in capsys.readouterr().err
        )
    def test_count_beyond_int64_exits_one_naming_the_line(self, tmp_path, capsys):
        src = tmp_path / "big.csv"
        src.write_text(
            "minute_utc,announcements,withdrawals\n"
            "2001-07-27T14:50:00Z,99999999999999999999,0\n"
        )
        assert run("top", src, "--n", 1) == 1
        assert "line 2: announcements exceeds int64" in capsys.readouterr().err


class TestCompare:
    def test_lead_table(self, tmp_path):
        ae = tmp_path / "ae.json"
        rule = tmp_path / "rule.json"
        ae.write_text(json.dumps([
            {"start": "2001-09-18T12:00:00Z", "end": "2001-09-18T12:30:00Z",
             "peak_minute": "2001-09-18T12:10:00Z", "peak_value": 2.0,
             "source": "autoencoder"},
        ]))
        rule.write_text(json.dumps([
            {"start": "2001-09-18T13:00:00Z", "end": "2001-09-18T13:20:00Z",
             "peak_minute": "2001-09-18T13:05:00Z", "peak_value": 900000.0,
             "source": "rule"},
        ]))
        out = tmp_path / "lead.csv"
        assert run("compare", ae, rule, "--match-window", 240, "--out", out) == 0
        assert out.read_text() == (
            "ae_start,rule_start,lead_minutes\n"
            "2001-09-18T12:00:00Z,2001-09-18T13:00:00Z,60\n"
        )

    def test_unmatched_events_have_empty_fields(self, tmp_path):
        ae = tmp_path / "ae.json"
        rule = tmp_path / "rule.json"
        ae.write_text(json.dumps([
            {"start": "2001-09-18T12:00:00Z", "end": "2001-09-18T12:30:00Z",
             "peak_minute": "2001-09-18T12:10:00Z", "peak_value": 2.0,
             "source": "autoencoder"},
        ]))
        rule.write_text("[]")
        out = tmp_path / "lead.csv"
        assert run("compare", ae, rule, "--out", out) == 0
        assert out.read_text().splitlines()[1] == "2001-09-18T12:00:00Z,,"

    def test_negative_match_window_exits_one(self, tmp_path, capsys):
        ae = tmp_path / "ae.json"
        ae.write_text("[]")
        out = tmp_path / "lead.csv"
        assert run("compare", ae, ae, "--match-window", -5, "--out", out) == 1
        assert "error: match window must be >= 0 minutes, got -5" in capsys.readouterr().err
        assert not out.exists()

    def test_unsorted_report_exits_one_naming_the_event(self, tmp_path, capsys):
        ae = tmp_path / "ae.json"
        rule = tmp_path / "rule.json"
        ae.write_text(json.dumps([
            {"start": "2001-09-18T12:00:00Z", "end": "2001-09-18T12:30:00Z",
             "peak_minute": "2001-09-18T12:10:00Z", "peak_value": 2.0,
             "source": "autoencoder"},
        ]))
        rule.write_text(json.dumps([
            {"start": start, "end": start, "peak_minute": start, "peak_value": 900000.0, "source": "rule"}
            for start in ("2001-09-18T13:40:00Z", "2001-09-18T12:00:00Z")
        ]))
        out = tmp_path / "lead.csv"
        assert run("compare", ae, rule, "--match-window", 10, "--out", out) == 1
        assert (
            "error: rule events not sorted by start: event 2 starts at 2001-09-18T12:00:00Z, before event 1"
            in capsys.readouterr().err
        )
        assert not out.exists()

    def test_empty_ae_report_gives_the_header_only(self, tmp_path):
        ae = tmp_path / "ae.json"
        rule = tmp_path / "rule.json"
        ae.write_text("[]")
        rule.write_text(json.dumps([
            {"start": "2001-09-18T13:00:00Z", "end": "2001-09-18T13:20:00Z",
             "peak_minute": "2001-09-18T13:05:00Z", "peak_value": 900000.0,
             "source": "rule"},
        ]))
        out = tmp_path / "lead.csv"
        assert run("compare", ae, rule, "--out", out) == 0
        assert out.read_bytes() == b"ae_start,rule_start,lead_minutes\n"


class TestSynth:
    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert run("synth", "--minutes", 100, "--seed", 77, "--out", path) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_surge_flag(self, tmp_path):
        plain = tmp_path / "plain.csv"
        surged = tmp_path / "surged.csv"
        run("synth", "--minutes", 100, "--seed", 77, "--out", plain)
        assert run(
            "synth", "--minutes", 100, "--seed", 77,
            "--surge", "start=1970-01-01T00:30:00Z,duration=10,shape=step,magnitude=5",
            "--out", surged,
        ) == 0
        a = read_bucket_csv(plain.read_bytes())
        b = read_bucket_csv(surged.read_bytes())
        assert b.announcements[30] == 5 * a.announcements[30]
        assert b.announcements[29] == a.announcements[29]

    def test_years_before_1000_round_trip_through_top(self, tmp_path, capsys):
        out = tmp_path / "y.csv"
        assert run("synth", "--minutes", 3, "--start", "0999-01-01T00:00:00Z", "--out", out) == 0
        assert out.read_text().splitlines()[1].startswith("0999-01-01T00:00:00Z,")
        assert run("top", out, "--n", 1) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[1].startswith("0999-01-01T00:0")

    def test_minutes_past_the_series_limit_exit_one_without_output(self, tmp_path, capsys):
        out = tmp_path / "big.csv"
        assert run("synth", "--minutes", MAX_SERIES_MINUTES + 1, "--out", out) == 1
        assert f"{MAX_SERIES_MINUTES}-minute series limit" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_surge_spec_exits_one(self, tmp_path, capsys):
        assert run(
            "synth", "--minutes", 10, "--surge", "shape=step", "--out", tmp_path / "x.csv",
        ) == 1
        assert "surge" in capsys.readouterr().err


class TestEndToEnd:
    def test_synth_train_score_detect_pipe_with_default_flags(self, tmp_path):
        buckets = tmp_path / "buckets.csv"
        model = tmp_path / "model.json"
        novelty_csv = tmp_path / "novelty.csv"
        alarms = tmp_path / "alarms.json"
        assert run("synth", "--minutes", 600, "--diurnal-amp", 0.2, "--seed", 1,
                   "--out", buckets) == 0
        assert run("train", buckets, "--out", model) == 0
        assert run("score", buckets, model, "--out", novelty_csv) == 0
        assert run("detect", novelty_csv, "--quantile", 0.999, "--out", alarms) == 0
        assert isinstance(json.loads(alarms.read_text()), list)

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["detect"])  # missing required arguments
        assert info.value.code == 2
