"""Command-line behaviour: each subcommand plus the end-to-end pipe."""

import bz2
import gzip
import io
import json
import os
import stat
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import zlib

import numpy as np
import pytest

from bgpnovelty import cli, mrt
from bgpnovelty.autoencoder import AutoencoderModel, save_model
from bgpnovelty.cli import build_parser, main
from bgpnovelty.features import NormalizationParams, fit_normalization, make_windows
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

    def test_importing_the_cli_does_not_load_the_thread_pool(self):
        # The pool imports concurrent.futures when it opens: every other command starts without it.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        probe = "import sys, bgpnovelty.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
        env = {**os.environ, "PYTHONPATH": src}
        loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert loaded.stdout == "[]\n"

    def test_one_block_phases_leave_the_thread_pool_unloaded(self, tmp_path):
        # On several CPUs, a small train and a 300-minute score run every
        # phase as one block, in the calling thread: no pool is opened.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        probe = (
            "import sys\n"
            "from bgpnovelty import autoencoder, cli\n"
            "autoencoder._usable_cpus = lambda: 4\n"
            "for argv in (['synth', '--minutes', '300', '--seed', '2', '--out', 'series.csv'],\n"
            "             ['train', 'series.csv', '--k', '5', '--hidden', '4', '--cycles', '5', '--out', 'model.json'],\n"
            "             ['score', 'series.csv', 'model.json', '--out', 'novelty.csv']):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.startswith('concurrent')))\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        loaded = subprocess.run(
            [sys.executable, "-c", probe], env=env, cwd=tmp_path, capture_output=True, text=True, check=True
        )
        assert loaded.stdout == "[]\n"
        assert len((tmp_path / "novelty.csv").read_text().splitlines()) == 1 + 300 - 5 + 1


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
        series = read_bucket_csv(io.BytesIO(out.read_bytes()))
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
        series = read_bucket_csv(io.BytesIO(out.read_bytes()))
        assert len(series) == 4
        assert series.announcements.tolist() == [0, 2, 0, 0]
        assert series.withdrawals.tolist() == [0, 1, 0, 0]

    def test_missing_input_exits_one_with_diagnostic(self, tmp_path, capsys):
        assert run("ingest", tmp_path / "absent.mrt", "--out", tmp_path / "x.csv") == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--from", "2001-09-18T12:00:00Z"], ["--to", "2001-09-18T12:00:00Z"]])
    def test_dump_without_updates_needs_a_range(self, tmp_path, capsys, flags):
        src = tmp_path / "empty.mrt"
        src.write_bytes(b"")
        out = tmp_path / "x.csv"
        assert run("ingest", src, *flags, "--out", out) == 1
        assert "error: input contains no BGP UPDATE records and no range was given" in capsys.readouterr().err
        assert not out.exists()

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
        monkeypatch.setattr(cli.mrt, "parse_mrt_stream", lambda data, compressed: huge)
        src = tmp_path / "updates.mrt"
        src.write_bytes(b"\x00")
        assert run("ingest", src, "--out", tmp_path / "x.csv") == 1
        assert "error: announcements of minute 1970-01-01T00:01:00Z sum past int64" in capsys.readouterr().err


class TestIngestStreams:
    STREAM = b"".join(
        bgp4mp_update_record(timestamp=60 * (i // 3), n_announced=i % 4, n_withdrawn=i % 3, as4=i % 2 == 1)
        for i in range(3000)
    )

    @pytest.mark.parametrize("compress", [gzip.compress, bz2.compress], ids=["gz", "bz2"])
    def test_compressed_dump_gives_the_raw_dumps_csv(self, tmp_path, compress):
        (tmp_path / "updates.mrt").write_bytes(self.STREAM)
        (tmp_path / "updates.mrt.z").write_bytes(compress(self.STREAM))
        assert run("ingest", tmp_path / "updates.mrt", "--out", tmp_path / "raw.csv") == 0
        assert run("ingest", tmp_path / "updates.mrt.z", "--out", tmp_path / "z.csv") == 0
        assert (tmp_path / "z.csv").read_bytes() == (tmp_path / "raw.csv").read_bytes()

    def test_raw_dump_that_starts_with_bzh_is_read_raw(self, tmp_path):
        # 1113221173 is 0x425A6835, "BZh5": the first four bytes of a bzip2 dump, but not its block magic.
        (tmp_path / "updates.mrt").write_bytes(
            bgp4mp_update_record(timestamp=1113221173, n_announced=2, n_withdrawn=1)
            + bgp4mp_update_record(timestamp=1113221233, n_announced=3, n_withdrawn=0)
        )
        assert run("ingest", tmp_path / "updates.mrt", "--out", tmp_path / "buckets.csv") == 0
        assert (tmp_path / "buckets.csv").read_text() == (
            "minute_utc,announcements,withdrawals\n"
            "2005-04-11T12:06:00Z,2,1\n"
            "2005-04-11T12:07:00Z,3,0\n"
        )

    @pytest.mark.parametrize("kind", ["csv", "gz"])
    def test_pipe_whose_first_write_cuts_the_head_gives_the_files_csv(self, tmp_path, kind):
        # A pipe's first read holds only the first write: 4 bytes of "minute_utc", or gzip's ID bytes alone.
        if kind == "csv":
            data, split = b"minute_utc,announcements,withdrawals\n1970-01-01T00:02:00Z,2,1\n", 4
        else:
            data, split = gzip.compress(self.STREAM), 2
        (tmp_path / "input").write_bytes(data)
        assert run("ingest", tmp_path / "input", "--out", tmp_path / "file.csv") == 0
        read_end, write_end = os.pipe()

        def write() -> None:
            with open(write_end, "wb", buffering=0) as pipe:
                pipe.write(data[:split])
                time.sleep(0.2)
                pipe.write(data[split:])

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            code = run("ingest", f"/dev/fd/{read_end}", "--out", tmp_path / "pipe.csv")
        finally:
            os.close(read_end)
            writer.join(timeout=10)
        assert code == 0
        assert (tmp_path / "pipe.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()

    @pytest.mark.parametrize("damage", [lambda c: c[: len(c) // 2], lambda c: c[:10] + b"\x07" + c[11:]],
                             ids=["truncated", "corrupt"])
    @pytest.mark.parametrize("compress", [gzip.compress, bz2.compress], ids=["gz", "bz2"])
    def test_damaged_compressed_dump_exits_one_without_output(self, tmp_path, capsys, compress, damage):
        src = tmp_path / "updates.mrt.z"
        src.write_bytes(damage(compress(self.STREAM)))
        out = tmp_path / "buckets.csv"
        assert run("ingest", src, "--out", out) == 1
        assert capsys.readouterr().err.startswith("error: cannot read the dump: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "compress,decoder",
        [(gzip.compress, lambda: zlib.decompressobj(31)), (lambda data: bz2.compress(data, 1), bz2.BZ2Decompressor)],
        ids=["gz", "bz2"],
    )
    def test_cut_dump_names_the_offset_of_its_last_decoded_byte(self, tmp_path, capsys, compress, decoder):
        stream = self.STREAM * (3 * mrt.CHUNK_BYTES // len(self.STREAM))  # about 3 chunks: the cut passes one
        packed = compress(stream)
        cut = packed[: len(packed) * 3 // 4]
        decoded = len(decoder().decompress(cut))  # every byte the cut copy still holds
        assert mrt.CHUNK_BYTES < decoded < len(stream)
        (tmp_path / "updates.mrt.z").write_bytes(cut)
        assert run("ingest", tmp_path / "updates.mrt.z", "--out", tmp_path / "buckets.csv") == 1
        assert capsys.readouterr().err.endswith(f"(byte offset {decoded})\n")

    def test_memory_follows_the_chunk_not_the_dump(self, tmp_path, monkeypatch):
        self.check_ingest_memory(tmp_path, monkeypatch, lambda stream: stream)

    def test_memory_follows_the_chunk_not_a_compressed_dump(self, tmp_path, monkeypatch):
        self.check_ingest_memory(tmp_path, monkeypatch, gzip.compress)

    @staticmethod
    def check_ingest_memory(tmp_path, monkeypatch, compress):
        monkeypatch.setattr(mrt, "CHUNK_BYTES", 1 << 16)
        record = bgp4mp_update_record(n_announced=240, n_withdrawn=0)  # about 1 KB
        count = (8 << 20) // len(record)
        src = tmp_path / "updates.mrt"
        stream = b"".join(struct.pack(">I", 600 + i) + record[4:] for i in range(count))
        dump_bytes = len(stream)
        src.write_bytes(compress(stream))
        del stream
        assert 24 * count < dump_bytes // 40  # the parsed rows are a small part of the dump
        tracemalloc.start()
        try:
            assert run("ingest", src, "--out", tmp_path / "buckets.csv") == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dump_bytes // 4
        assert read_bucket_csv(io.BytesIO((tmp_path / "buckets.csv").read_bytes())).announcements.sum() == 240 * count


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

    def test_negative_seed_is_a_usage_error_naming_the_flag(self, tmp_path, quiet_csv, capsys):
        model_path = tmp_path / "model.json"
        with pytest.raises(SystemExit) as info:
            run("train", quiet_csv, "--k", 5, "--seed", -3, "--out", model_path)
        assert info.value.code == 2
        assert "argument --seed: must be an integer >= 0, got '-3'" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("flag", ["--k", "--hidden", "--cycles"])
    def test_count_below_one_is_a_usage_error_naming_the_flag(self, tmp_path, quiet_csv, capsys, flag):
        model_path = tmp_path / "model.json"
        with pytest.raises(SystemExit) as info:
            run("train", quiet_csv, flag, 0, "--out", model_path)
        assert info.value.code == 2
        assert f"argument {flag}: must be an integer >= 1, got '0'" in capsys.readouterr().err
        assert not model_path.exists()

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
        def diverged(model, windows, max_cycles):
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

    def test_train_windows_are_the_cast_window_matrix_bit_for_bit(self, tmp_path, quiet_csv, monkeypatch):
        seen = []

        def keep(model, windows, max_cycles):
            seen.append(windows.copy())
            return model, TrainReport([1.0], 1, "budget")

        monkeypatch.setattr(cli.scg, "train", keep)
        assert run("train", quiet_csv, "--k", 5, "--hidden", 8, "--out", tmp_path / "m.json") == 0
        buckets = read_bucket_csv(io.BytesIO(quiet_csv.read_bytes()))
        expected = make_windows(buckets, 5, fit_normalization(buckets)).astype(np.float32)
        assert seen[0].dtype == np.float32
        assert np.array_equal(seen[0].view(np.uint32), expected.view(np.uint32))

    def test_train_on_a_header_only_csv_exits_one(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("minute_utc,announcements,withdrawals\n")
        assert run("train", empty, "--k", 5, "--out", tmp_path / "m.json") == 1
        assert "error: input contains no data rows" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_train_range_shorter_than_k_exits_one(self, tmp_path, quiet_csv, capsys):
        assert run(
            "train", quiet_csv, "--from", "1970-01-01T00:00:00Z", "--to", "1970-01-01T00:09:00Z",
            "--k", 50, "--out", tmp_path / "m.json",
        ) == 1
        assert "error: training range has 10 minutes, fewer than k=50" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_an_allocation_numpy_refuses_exits_one_with_an_error_line(self, tmp_path, quiet_csv, capsys):
        # 10**17 hidden units of 10 weights each ask for 6.9 EiB, which numpy refuses at once
        assert run("train", quiet_csv, "--k", 5, "--hidden", 10**17, "--out", tmp_path / "m.json") == 1
        assert "error: Unable to allocate" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

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
            b2=np.full(4, 0.5), norm=NormalizationParams(0.0, 4.0, 0.0, 8.0),
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

    def test_score_of_a_series_shorter_than_k_is_the_header_only(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_bytes(save_model(AutoencoderModel(
            input_dim=4, hidden_dim=3, w1=np.zeros((3, 4)), b1=np.zeros(3), w2=np.ones((4, 3)),
            b2=np.zeros(4), norm=NormalizationParams(0.0, 4.0, 0.0, 8.0),
        )))
        buckets = tmp_path / "buckets.csv"
        buckets.write_text("minute_utc,announcements,withdrawals\n2001-09-18T12:00:00Z,0,8\n")
        out = tmp_path / "novelty.csv"
        assert run("score", buckets, model_path, "--out", out) == 0
        assert out.read_bytes() == b"minute_utc,novelty\n"

    def test_score_failing_while_writing_leaves_the_old_output(self, tmp_path, quiet_csv, capsys, monkeypatch):
        model_path = tmp_path / "model.json"
        assert run("train", quiet_csv, "--k", 5, "--hidden", 8, "--cycles", 2, "--out", model_path) == 0
        out = tmp_path / "novelty.csv"
        out.write_text("old\n")

        def fail_midway(minutes, values, stream):
            stream.write("minute_utc,novelty\n")
            raise ValueError("disk on fire")

        monkeypatch.setattr(cli.detector, "write_novelty_csv", fail_midway)
        assert run("score", quiet_csv, model_path, "--out", out) == 1
        assert "error: disk on fire" in capsys.readouterr().err
        assert out.read_text() == "old\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["model.json", "model.json.report.csv", "novelty.csv", "quiet.csv"]

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
        assert run("detect", novelty_csv, "--quantile", 0.99, "--quantile-from", novelty_csv, "--out", alarms) == 0
        events = json.loads(alarms.read_text())
        assert isinstance(events, list)

    def test_quantile_without_calibration_is_a_usage_error_naming_the_flag(self, tmp_path, capsys):
        novelty_csv = tmp_path / "n.csv"
        novelty_csv.write_text("minute_utc,novelty\n2001-06-02T00:00:00Z,0.1\n")
        alarms = tmp_path / "alarms.json"
        with pytest.raises(SystemExit) as info:
            run("detect", novelty_csv, "--quantile", 0.99, "--out", alarms)
        assert info.value.code == 2
        assert "error: detect: --quantile requires --quantile-from FILE" in capsys.readouterr().err
        assert not alarms.exists()

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

    def test_negative_gap_is_a_usage_error_naming_the_flag(self, tmp_path, capsys):
        novelty_csv = tmp_path / "n.csv"
        novelty_csv.write_text("minute_utc,novelty\n2001-06-02T00:00:00Z,0.1\n")
        alarms = tmp_path / "alarms.json"
        with pytest.raises(SystemExit) as info:
            run("detect", novelty_csv, "--threshold", 5.0, "--gap-minutes", -3, "--out", alarms)
        assert info.value.code == 2
        assert "argument --gap-minutes: must be an integer >= 0, got '-3'" in capsys.readouterr().err
        assert not alarms.exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_detect_rejects_a_non_finite_threshold(self, tmp_path, capsys, threshold):
        src = tmp_path / "buckets.csv"
        src.write_text(top15_csv_text())
        alarms = tmp_path / "alarms.json"
        assert run("detect", src, "--source", "rule", "--threshold", threshold, "--out", alarms) == 1
        assert f"threshold must be finite, got {threshold}" in capsys.readouterr().err
        assert not alarms.exists()

    @pytest.mark.parametrize("flag", [("--threshold", 1), ("--quantile", 0.5, "--quantile-from", None)])
    def test_detect_rejects_non_finite_novelty(self, tmp_path, capsys, flag):
        novelty_csv = tmp_path / "n.csv"
        novelty_csv.write_text(
            "minute_utc,novelty\n"
            "2001-06-02T00:00:00Z,5.0\n"
            "2001-06-02T00:01:00Z,nan\n"
        )
        alarms = tmp_path / "alarms.json"
        flag = [novelty_csv if arg is None else arg for arg in flag]  # the input calibrates itself
        assert run("detect", novelty_csv, *flag, "--out", alarms) == 1
        assert "line 3" in capsys.readouterr().err
        assert not alarms.exists()

    def test_detect_requires_exactly_one_threshold_flag(self, tmp_path, capsys):
        novelty_csv = tmp_path / "n.csv"
        novelty_csv.write_text("minute_utc,novelty\n2001-06-02T00:00:00Z,0.1\n")
        for flags in [(), ("--threshold", 1, "--quantile", 0.9, "--quantile-from", novelty_csv)]:
            with pytest.raises(SystemExit) as info:
                run("detect", novelty_csv, *flags, "--out", tmp_path / "a.json")
            assert info.value.code == 2
            assert "--threshold" in capsys.readouterr().err
        assert not (tmp_path / "a.json").exists()

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
        with pytest.raises(SystemExit) as info:
            run("detect", live, "--threshold", 1.0, "--quantile-from", quiet, "--out", tmp_path / "a.json")
        assert info.value.code == 2
        assert "error: detect: --quantile-from requires --quantile" in capsys.readouterr().err
        assert not (tmp_path / "a.json").exists()

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

    def test_negative_n_is_a_usage_error_naming_the_flag(self, tmp_path, capsys):
        src = tmp_path / "buckets.csv"
        src.write_text(top15_csv_text())
        with pytest.raises(SystemExit) as info:
            run("top", src, "--n", -1)
        assert info.value.code == 2
        assert "argument --n: must be an integer >= 0, got '-1'" in capsys.readouterr().err

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

    def test_negative_match_window_is_a_usage_error_naming_the_flag(self, tmp_path, capsys):
        ae = tmp_path / "ae.json"
        ae.write_text("[]")
        out = tmp_path / "lead.csv"
        with pytest.raises(SystemExit) as info:
            run("compare", ae, ae, "--match-window", -5, "--out", out)
        assert info.value.code == 2
        assert "argument --match-window: must be an integer >= 0, got '-5'" in capsys.readouterr().err
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

    @pytest.mark.parametrize(
        "report,message",
        [
            ("[", "alarm report is not valid JSON"),
            ('{"start": "2001-09-18T12:00:00Z"}', "alarm report must be a JSON array"),
            ('[{"start": "2001-09-18T12:00:00Z"}]', "alarm report entry is malformed: 'end'"),
            (dict(source=5), "alarm report entry is malformed: source is not 'autoencoder' or 'rule': 5"),
            (dict(peak_value="nan"), "alarm report entry is malformed: peak_value is not a finite number: 'nan'"),
            (dict(peak_value=True), "alarm report entry is malformed: peak_value is not a finite number: True"),
        ],
        ids=["not_json", "not_an_array", "missing_key", "source_number", "peak_string", "peak_bool"],
    )
    def test_bad_report_exits_one_without_output(self, tmp_path, capsys, report, message):
        if isinstance(report, dict):
            report = json.dumps([{
                "start": "2001-09-18T12:00:00Z", "end": "2001-09-18T12:30:00Z",
                "peak_minute": "2001-09-18T12:10:00Z", "peak_value": 2.0, "source": "autoencoder", **report,
            }])
        ae = tmp_path / "ae.json"
        ae.write_text(report)
        rule = tmp_path / "rule.json"
        rule.write_text("[]")
        out = tmp_path / "lead.csv"
        assert run("compare", ae, rule, "--out", out) == 1
        assert f"error: {message}" in capsys.readouterr().err
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

    def test_negative_seed_is_a_usage_error_naming_the_flag(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as info:
            run("synth", "--minutes", 10, "--seed", -1, "--out", out)
        assert info.value.code == 2
        assert "argument --seed: must be an integer >= 0, got '-1'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--start", "nope"], "--start"),
            (["--surge", "start=nope,duration=2,shape=step,magnitude=5"], "--surge start"),
        ],
        ids=["start", "surge_start"],
    )
    def test_bad_start_minute_exits_one_naming_the_flag(self, tmp_path, capsys, flags, name):
        out = tmp_path / "s.csv"
        assert run("synth", "--minutes", 10, *flags, "--out", out) == 1
        assert f"error: {name}: not a minute-aligned UTC timestamp: 'nope'" in capsys.readouterr().err
        assert not out.exists()

    def test_surge_flag(self, tmp_path):
        plain = tmp_path / "plain.csv"
        surged = tmp_path / "surged.csv"
        run("synth", "--minutes", 100, "--seed", 77, "--out", plain)
        assert run(
            "synth", "--minutes", 100, "--seed", 77,
            "--surge", "start=1970-01-01T00:30:00Z,duration=10,shape=step,magnitude=5",
            "--out", surged,
        ) == 0
        a = read_bucket_csv(io.BytesIO(plain.read_bytes()))
        b = read_bucket_csv(io.BytesIO(surged.read_bytes()))
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

    def test_zero_minutes_is_a_usage_error_naming_the_flag(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as info:
            run("synth", "--minutes", 0, "--out", out)
        assert info.value.code == 2
        assert "argument --minutes: must be an integer >= 1, got '0'" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_minutes_leave_no_file(self, tmp_path, capsys):
        out = tmp_path / "y.csv"
        assert run("synth", "--minutes", 10, "--start", "9999-12-31T23:55:00Z", "--out", out) == 1
        assert "outside the years 0001-9999" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failure_leaves_an_existing_output_untouched(self, tmp_path):
        out = tmp_path / "y.csv"
        out.write_text("keep\n")
        assert run("synth", "--minutes", 10, "--start", "9999-12-31T23:55:00Z", "--out", out) == 1
        assert out.read_text() == "keep\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_output_gets_the_mode_of_a_plain_new_file(self, tmp_path):
        out = tmp_path / "y.csv"
        assert run("synth", "--minutes", 3, "--out", out) == 0
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask

    def test_output_through_a_symlink_replaces_its_target(self, tmp_path):
        target = tmp_path / "real.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert run("synth", "--minutes", 3, "--out", link) == 0
        assert link.is_symlink()
        assert target.read_text().startswith("minute_utc,")

    def test_output_to_a_pipe_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        try:
            code = run("synth", "--minutes", 3, "--out", fifo)
        finally:
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert code == 0
        assert received[0].startswith("minute_utc,announcements,withdrawals\n")
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--mean-a", "nan"], "error: --mean-a must be finite and > 0, got nan"),
            (["--mean-a", "1e300"], "error: --mean-a 1e+300 peaks at a rate of 1e+300 a minute"),
        ],
        ids=["nan", "1e300"],
    )
    def test_undrawable_mean_exits_one_naming_flag_and_value(self, tmp_path, capsys, flags, message):
        out = tmp_path / "n.csv"
        assert run("synth", "--minutes", 10, *flags, "--out", out) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_totals_past_int64_make_top_exit_one_naming_the_minute(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert run("synth", "--minutes", 5, "--mean-a", 9e18, "--mean-w", 9e18, "--out", out) == 0
        assert run("top", out, "--n", 2) == 1
        err = capsys.readouterr().err
        assert "error: announcements plus withdrawals of minute 1970-01-01T00:00:00Z pass int64" in err

    def test_bad_surge_spec_exits_one(self, tmp_path, capsys):
        assert run(
            "synth", "--minutes", 10, "--surge", "shape=step", "--out", tmp_path / "x.csv",
        ) == 1
        assert "surge" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("start", "--surge parts must be key=value, got 'start'"),
            ("start=1970-01-01T00:02:00Z,duration=2,shape=step,magnitude=5,colour=red",
             "--surge has unknown keys: ['colour']"),
        ],
        ids=["not_key_value", "unknown_key"],
    )
    def test_malformed_surge_part_exits_one_naming_it(self, tmp_path, capsys, spec, message):
        out = tmp_path / "x.csv"
        assert run("synth", "--minutes", 10, "--surge", spec, "--out", out) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "magnitude,message",
        [
            ("nan", "surge magnitude must be finite and > 0, got nan"),
            ("inf", "surge magnitude must be finite and > 0, got inf"),
            ("1e300", "surge scales the announcements of minute 1970-01-01T00:02:00Z past int64"),
        ],
        ids=["nan", "inf", "1e300"],
    )
    def test_bad_surge_magnitude_exits_one_without_output(self, tmp_path, capsys, magnitude, message):
        out = tmp_path / "s.csv"
        assert run(
            "synth", "--minutes", 10,
            "--surge", f"start=1970-01-01T00:02:00Z,duration=2,shape=step,magnitude={magnitude}",
            "--out", out,
        ) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


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
        assert run("detect", novelty_csv, "--quantile", 0.999, "--quantile-from", novelty_csv, "--out", alarms) == 0
        assert isinstance(json.loads(alarms.read_text()), list)

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["detect"])  # missing required arguments
        assert info.value.code == 2
