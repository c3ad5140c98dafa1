"""Command-line pipeline: ingest, train, score, detect, top, compare, synth.

Every command is a thin composition of the library modules and is
deterministic given its inputs and flags. Exit codes: 0 on success, 1 on
operational errors (bad data, uncovered ranges, missing files), 2 on usage
errors. All timestamps are UTC minutes in the ``YYYY-MM-DDTHH:MM:00Z``
format.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import tempfile
from pathlib import Path
from typing import BinaryIO, Iterator, TextIO

import numpy as np

from . import autoencoder, detector, features, mrt, scg, series, synth

DEFAULT_K = 50
DEFAULT_HIDDEN = 100
DEFAULT_CYCLES = 100
DEFAULT_SEED = 0

_BUCKET_MAGIC = series.BUCKET_CSV_HEADER.split(",")[0].encode()


class TrainingFailed(ValueError):
    pass


class UsageError(Exception):
    """A combination of flags that the parser does not check: it exits 2, as the parser's own errors do."""


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)  # looked up per call, so a replaced cmd_* runs
    except UsageError as exc:
        parser.error(f"{args.command}: {exc}")
    except (ValueError, OSError, MemoryError) as exc:  # numpy refuses an impossible allocation at once
        print(f"error: {exc}", file=sys.stderr)
        return 1


@functools.cache  # one parser a process: main may run many times, and nothing changes the parser once built
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgpnovelty",
        description="Detect BGP routing instability with autoencoder novelty scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    count, whole = _int_at_least(1), _int_at_least(0)  # seeds (as numpy's generators), --n and minute spans may be 0

    p = sub.add_parser("ingest", help="parse MRT or bucket CSV (told apart by its header) into a gapless bucket CSV")
    p.add_argument("input", type=Path)
    p.add_argument("--from", dest="from_minute", metavar="MINUTE", help="range start (default: first data minute)")
    p.add_argument("--to", dest="to_minute", metavar="MINUTE", help="range end (default: last data minute)")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("train", help="fit the autoencoder on a quiet range of a bucket CSV")
    p.add_argument("input", type=Path)
    p.add_argument("--from", dest="from_minute", metavar="MINUTE", help="training range start (default: series start)")
    p.add_argument("--to", dest="to_minute", metavar="MINUTE", help="training range end (default: series end)")
    p.add_argument("--k", type=count, default=DEFAULT_K, help="lags per channel (default %(default)s)")
    p.add_argument("--hidden", type=count, default=DEFAULT_HIDDEN, help="hidden units (default %(default)s)")
    p.add_argument("--cycles", type=count, default=DEFAULT_CYCLES, help="training cycles (default %(default)s)")
    p.add_argument("--seed", type=whole, default=DEFAULT_SEED, help="weight init seed (default %(default)s)")
    p.add_argument("--out", type=Path, required=True, help="model file path")
    p.add_argument("--report", type=Path, help="training report CSV (default: <out>.report.csv)")

    p = sub.add_parser("score", help="novelty-score a bucket CSV with a trained model")
    p.add_argument("input", type=Path)
    p.add_argument("model", type=Path)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("detect", help="group above-threshold minutes into an alarm report")
    p.add_argument("input", type=Path, help="novelty CSV (autoencoder) or bucket CSV (rule)")
    p.add_argument("--source", choices=[detector.SOURCE_AUTOENCODER, detector.SOURCE_RULE],
                   default=detector.SOURCE_AUTOENCODER)
    threshold = p.add_mutually_exclusive_group(required=True)
    threshold.add_argument("--threshold", type=float, help="fixed threshold in the scored units")
    threshold.add_argument("--quantile", type=float, help="derive the threshold from this quantile of --quantile-from")
    p.add_argument("--quantile-from", type=Path, metavar="FILE",
                   help="calibration file (same format as the input) the quantile is taken over, "
                        "e.g. a quiet-period scoring; the input's own path calibrates on the input")
    p.add_argument("--gap-minutes", type=whole, default=detector.DetectorConfig.group_gap_minutes,
                   help="quiet minutes merged into one event (default %(default)s)")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("top", help="rank the highest per-minute update totals")
    p.add_argument("input", type=Path)
    p.add_argument("--n", type=whole, required=True)
    p.add_argument("--out", type=Path, help="default: standard output")

    p = sub.add_parser("compare", help="lead-time table for two alarm reports")
    p.add_argument("ae_report", type=Path)
    p.add_argument("rule_report", type=Path)
    p.add_argument("--match-window", type=whole, default=240,
                   help="pairing window in minutes (default %(default)s)")
    p.add_argument("--out", type=Path, help="default: standard output")

    p = sub.add_parser("synth", help="generate a seeded synthetic bucket CSV")
    p.add_argument("--minutes", type=count, required=True)
    p.add_argument("--mean-a", type=float, default=1000.0, help="announcement mean (default %(default)s)")
    p.add_argument("--mean-w", type=float, default=300.0, help="withdrawal mean (default %(default)s)")
    p.add_argument("--diurnal-amp", type=float, default=0.0, help="daily sine amplitude in [0,1)")
    p.add_argument("--seed", type=whole, default=DEFAULT_SEED)
    p.add_argument("--start", metavar="MINUTE", default="1970-01-01T00:00:00Z",
                   help="first minute (default %(default)s)")
    p.add_argument("--surge", action="append", default=[], metavar="SPEC",
                   help="start=MINUTE,duration=N,shape=step|ramp|spike,magnitude=X"
                        "[,channels=announcements|withdrawals|both]; repeatable")
    p.add_argument("--out", type=Path, required=True)

    return parser


def _int_at_least(minimum: int):
    """An argparse type for decimal digits that spell an integer of at least ``minimum``."""

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
        return int(text)

    return parse


def _read_scores(path: Path, source: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-minute scores: novelty for the autoencoder source, update totals for the rule."""
    with path.open("rb") as data:
        if source == detector.SOURCE_AUTOENCODER:
            return detector.read_novelty_csv(data)
        buckets = series.read_bucket_csv(data)
    return buckets.minutes(), buckets.totals()


def _same_file(a: Path, b: Path) -> bool:
    """Whether two paths name one file; False when either cannot be looked at, so that reading it says why."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return False


def _flag_minute(text: str, flag: str) -> int:
    """The minute stamp ``text`` as epoch seconds; a bad stamp's error names ``flag``."""
    try:
        return series.parse_minute_utc(text)
    except series.BadTimestamp as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _flag_range(args) -> list[int | None]:
    """``--from`` and ``--to`` as epoch seconds, None where not given."""
    flags = (args.from_minute, "--from"), (args.to_minute, "--to")
    return [None if text is None else _flag_minute(text, flag) for text, flag in flags]


@contextlib.contextmanager
def _output(path: Path | None) -> Iterator[TextIO]:
    """A text stream for ``path``, or standard output for None.

    A regular file is written to a temporary file beside it and renamed over
    it only when the block succeeds, so a failed command leaves no partial
    file and an existing one untouched. Anything else, such as a pipe or a
    device, is written in place.
    """
    if path is None:
        yield sys.stdout
        return
    target = path.resolve()  # through a symlink, so the link stays
    if target.exists() and not target.is_file():
        with target.open("w", encoding="utf-8") as out:
            yield out
        return
    fd, temp = tempfile.mkstemp(prefix=f".{target.name}.", dir=target.parent)
    try:
        with open(fd, "w", encoding="utf-8") as out:
            yield out
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(temp, 0o666 & ~umask)  # the mode a plain open would give, where mkstemp gives 0o600
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def _write_text(path: Path | None, text: str) -> None:
    with _output(path) as out:
        out.write(text)


def _slice_to_flags(data: series.MinuteSeries, start: int | None, end: int | None) -> series.MinuteSeries:
    """``data`` from ``--from`` to ``--to``, each defaulting to the series' own first or last minute."""
    if len(data) == 0:
        raise ValueError("input contains no data rows")
    start = data.start_minute_s if start is None else start
    end = data.end_minute_s if end is None else end
    return series.slice_range(data, start, end)


class _Prefixed:
    """The ``read`` of a binary stream with ``head``, bytes already read from it, put back in front."""

    def __init__(self, head: bytes, stream: BinaryIO):
        self.head, self.stream = head, stream

    def read(self, size: int) -> bytes:
        """Up to ``size`` bytes, the put-back ones first; the readers ask for chunks longer than the head."""
        head, self.head = self.head, b""
        return head + self.stream.read(size - len(head))


def cmd_ingest(args) -> int:
    start, end = _flag_range(args)
    with args.input.open("rb") as raw:
        # read, not peek: peek gives what one read delivered, on a pipe its first write alone, where a
        # buffered read returns fewer bytes only at the input's end
        head = raw.read(len(_BUCKET_MAGIC))
        stream = _Prefixed(head, raw)
        if head.startswith(_BUCKET_MAGIC):
            result = _slice_to_flags(series.read_bucket_csv(stream), start, end)
        else:
            records = mrt.parse_mrt_stream(stream, mrt.compression(head))
            if not len(records) and (start is None or end is None):
                raise ValueError("input contains no BGP UPDATE records and no range was given")
            if start is None:
                start = int(records[:, 0].min()) // series.MINUTE * series.MINUTE
            if end is None:
                end = int(records[:, 0].max()) // series.MINUTE * series.MINUTE
            result = series.bucketize(records, start, end)
    with _output(args.out) as out:
        series.write_bucket_csv(result, out)
    return 0


def cmd_train(args) -> int:
    with args.input.open("rb") as data:
        train_series = _slice_to_flags(series.read_bucket_csv(data), *_flag_range(args))
    norm = features.fit_normalization(train_series)
    if len(train_series) < args.k:
        raise series.InvalidRange(f"training range has {len(train_series)} minutes, fewer than k={args.k}")
    windows = features.make_windows(train_series, args.k, norm, np.float32)  # scg.train's precision: no copy there
    model = autoencoder.init_model(2 * args.k, args.hidden, seed=args.seed, norm=norm)
    trained, report = scg.train(model, windows, args.cycles)
    report_path = args.report or args.out.with_suffix(args.out.suffix + ".report.csv")
    _write_text(report_path, report.to_csv())
    if report.non_finite:
        raise TrainingFailed(
            f"training stopped on {report.stop_reason} after {report.cycles_run} cycles"
        )
    _write_text(args.out, autoencoder.save_model(trained).decode("utf-8"))
    return 0


def cmd_score(args) -> int:
    with args.input.open("rb") as buckets:
        data = series.read_bucket_csv(buckets)
    model = autoencoder.load_model(args.model.read_bytes())
    novelty = detector.score_windows(model, data)
    with _output(args.out) as out:
        detector.write_novelty_csv(data.minute_at(model.k - 1), novelty, out)
    return 0


def cmd_detect(args) -> int:
    if (args.quantile is None) != (args.quantile_from is None):
        raise UsageError(
            "--quantile-from requires --quantile" if args.quantile is None
            else "--quantile requires --quantile-from FILE; pass the input's own path to calibrate on it"
        )

    minutes, values = _read_scores(args.input, args.source)
    threshold = args.threshold
    if threshold is None:
        # the input calibrating itself is not read again: a pipe such as /dev/stdin would give nothing twice
        same = args.quantile_from == args.input or _same_file(args.quantile_from, args.input)
        calibration = values if same else _read_scores(args.quantile_from, args.source)[1]
        threshold = detector.suggest_threshold(calibration, args.quantile)
    events = detector.detect_alarms(
        minutes, values, detector.DetectorConfig(threshold, args.gap_minutes), source=args.source
    )
    _write_text(args.out, detector.write_alarm_report(events))
    return 0


def cmd_top(args) -> int:
    with args.input.open("rb") as buckets:
        data = series.read_bucket_csv(buckets)
    ranking = series.top_n(data, args.n)
    ranks = map(str, range(1, len(ranking) + 1))
    stamps = series.format_minutes_utc([minute for minute, _ in ranking])
    _write_text(args.out, series.csv_text("rank,minute_utc,total", ranks, stamps, (str(t) for _, t in ranking)))
    return 0


def cmd_compare(args) -> int:
    ae_events = detector.read_alarm_report(args.ae_report.read_text(encoding="utf-8"))
    rule_events = detector.read_alarm_report(args.rule_report.read_text(encoding="utf-8"))
    matches = detector.lead_time(ae_events, rule_events, args.match_window)
    ae_stamps = series.format_minutes_utc([ae.start_s for ae, _, _ in matches])
    rule_stamps = series.format_minutes_utc([0 if rule is None else rule.start_s for _, rule, _ in matches])
    rule_column = ("" if rule is None else text for (_, rule, _), text in zip(matches, rule_stamps))
    leads = ("" if lead is None else str(lead) for _, _, lead in matches)
    _write_text(args.out, series.csv_text("ae_start,rule_start,lead_minutes", ae_stamps, rule_column, leads))
    return 0


def cmd_synth(args) -> int:
    start = _flag_minute(args.start, "--start")
    result = synth.gen_baseline(
        minutes=args.minutes,
        mean_a=args.mean_a,
        mean_w=args.mean_w,
        diurnal_amp=args.diurnal_amp,
        seed=args.seed,
        start_minute_s=start,
    )
    for spec_text in args.surge:
        result = synth.inject_surge(result, _parse_surge(spec_text))
    with _output(args.out) as out:
        series.write_bucket_csv(result, out)
    return 0


def _parse_surge(text: str) -> synth.SurgeSpec:
    fields = {}
    for part in text.split(","):
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"--surge parts must be key=value, got {part!r}")
        fields[key.strip()] = value.strip()
    unknown = set(fields) - {"start", "duration", "shape", "magnitude", "channels"}
    if unknown:
        raise ValueError(f"--surge has unknown keys: {sorted(unknown)}")
    try:
        return synth.SurgeSpec(
            start_minute_s=_flag_minute(fields["start"], "--surge start"),
            duration_minutes=int(fields["duration"]),
            shape=fields["shape"],
            magnitude=float(fields["magnitude"]),
            channels=fields.get("channels", synth.CHANNELS_BOTH),
        )
    except KeyError as exc:
        raise ValueError(f"--surge is missing the {exc.args[0]} key") from None


if __name__ == "__main__":
    sys.exit(main())
