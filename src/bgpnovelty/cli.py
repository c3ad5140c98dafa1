"""Command-line pipeline: ingest, train, score, detect, top, compare, synth.

Every command is a thin composition of the library modules and is
deterministic given its inputs and flags. Exit codes: 0 on success, 1 on
operational errors (bad data, uncovered ranges, missing files), 2 on usage
errors. All timestamps are UTC minutes in the ``YYYY-MM-DDTHH:MM:00Z``
format.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import autoencoder, detector, features, mrt, scg, series, synth

DEFAULT_K = 50
DEFAULT_HIDDEN = 100
DEFAULT_CYCLES = 100
DEFAULT_GAP_MINUTES = 60
DEFAULT_SEED = 0

_BUCKET_MAGIC = series.BUCKET_CSV_HEADER.split(",")[0].encode()


class RangeNotCovered(ValueError):
    pass


class TrainingFailed(ValueError):
    pass


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgpnovelty",
        description="Detect BGP routing instability with autoencoder novelty scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse MRT or bucket CSV (told apart by its header) into a gapless bucket CSV")
    p.add_argument("input", type=Path)
    p.add_argument("--from", dest="from_minute", metavar="MINUTE", help="range start (default: first data minute)")
    p.add_argument("--to", dest="to_minute", metavar="MINUTE", help="range end (default: last data minute)")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("train", help="fit the autoencoder on a quiet range of a bucket CSV")
    p.add_argument("input", type=Path)
    p.add_argument("--from", dest="from_minute", metavar="MINUTE", help="training range start (default: series start)")
    p.add_argument("--to", dest="to_minute", metavar="MINUTE", help="training range end (default: series end)")
    p.add_argument("--k", type=int, default=DEFAULT_K, help="lags per channel (default %(default)s)")
    p.add_argument("--hidden", type=int, default=DEFAULT_HIDDEN, help="hidden units (default %(default)s)")
    p.add_argument("--cycles", type=int, default=DEFAULT_CYCLES, help="training cycles (default %(default)s)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="weight init seed (default %(default)s)")
    p.add_argument("--out", type=Path, required=True, help="model file path")
    p.add_argument("--report", type=Path, help="training report CSV (default: <out>.report.csv)")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("score", help="novelty-score a bucket CSV with a trained model")
    p.add_argument("input", type=Path)
    p.add_argument("model", type=Path)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(handler=cmd_score)

    p = sub.add_parser("detect", help="group above-threshold minutes into an alarm report")
    p.add_argument("input", type=Path, help="novelty CSV (autoencoder) or bucket CSV (rule)")
    p.add_argument("--source", choices=[detector.SOURCE_AUTOENCODER, detector.SOURCE_RULE],
                   default=detector.SOURCE_AUTOENCODER)
    p.add_argument("--threshold", type=float, help="fixed threshold in the scored units")
    p.add_argument("--quantile", type=float, help="derive the threshold from this quantile of the input")
    p.add_argument("--quantile-from", type=Path, metavar="FILE",
                   help="take the quantile over this calibration file (same format as the "
                        "input) instead of the input itself, e.g. a quiet-period scoring")
    p.add_argument("--gap-minutes", type=int, default=DEFAULT_GAP_MINUTES,
                   help="quiet minutes merged into one event (default %(default)s)")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(handler=cmd_detect)

    p = sub.add_parser("top", help="rank the highest per-minute update totals")
    p.add_argument("input", type=Path)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", type=Path, help="default: standard output")
    p.set_defaults(handler=cmd_top)

    p = sub.add_parser("compare", help="lead-time table for two alarm reports")
    p.add_argument("ae_report", type=Path)
    p.add_argument("rule_report", type=Path)
    p.add_argument("--match-window", type=int, default=240,
                   help="pairing window in minutes (default %(default)s)")
    p.add_argument("--out", type=Path, help="default: standard output")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("synth", help="generate a seeded synthetic bucket CSV")
    p.add_argument("--minutes", type=int, required=True)
    p.add_argument("--mean-a", type=float, default=1000.0, help="announcement mean (default %(default)s)")
    p.add_argument("--mean-w", type=float, default=300.0, help="withdrawal mean (default %(default)s)")
    p.add_argument("--diurnal-amp", type=float, default=0.0, help="daily sine amplitude in [0,1)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--start", metavar="MINUTE", default="1970-01-01T00:00:00Z",
                   help="first minute (default %(default)s)")
    p.add_argument("--surge", action="append", default=[], metavar="SPEC",
                   help="start=MINUTE,duration=N,shape=step|ramp|spike,magnitude=X"
                        "[,channels=announcements|withdrawals|both]; repeatable")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(handler=cmd_synth)

    return parser


def _read_bucket_file(path: Path) -> series.MinuteSeries:
    return series.read_bucket_csv(path.read_bytes())


def _read_scores(path: Path, source: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-minute scores: novelty for the autoencoder source, update totals for the rule."""
    data = path.read_bytes()
    if source == detector.SOURCE_AUTOENCODER:
        return detector.read_novelty_csv(data)
    buckets = series.read_bucket_csv(data)
    return buckets.minutes(), buckets.totals()


def _flag_range(args) -> list[int | None]:
    """``--from`` and ``--to`` as epoch seconds, None where not given."""
    bounds = []
    for text, flag in ((args.from_minute, "--from"), (args.to_minute, "--to")):
        try:
            bounds.append(None if text is None else series.parse_minute_utc(text))
        except series.BadTimestamp as exc:
            raise ValueError(f"{flag}: {exc}") from None
    return bounds


def _write_text(path: Path | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        path.write_text(text, encoding="utf-8")


def _slice_to_flags(data: series.MinuteSeries, start: int | None, end: int | None) -> series.MinuteSeries:
    """``data`` from ``--from`` to ``--to``, each defaulting to the series' own first or last minute."""
    if len(data) == 0:
        raise ValueError("input contains no data rows")
    start = data.start_minute_s if start is None else start
    end = data.end_minute_s if end is None else end
    try:
        return series.slice_range(data, start, end)
    except series.InvalidRange as exc:
        raise RangeNotCovered(str(exc)) from None


def cmd_ingest(args) -> int:
    data = args.input.read_bytes()
    start, end = _flag_range(args)
    if data.startswith(_BUCKET_MAGIC):
        result = _slice_to_flags(series.read_bucket_csv(data), start, end)
    else:
        records = mrt.parse_mrt_stream(data)
        if not len(records) and (start is None or end is None):
            raise ValueError("input contains no BGP UPDATE records and no range was given")
        if start is None:
            start = int(records[:, 0].min()) // 60 * 60
        if end is None:
            end = int(records[:, 0].max()) // 60 * 60
        result = series.bucketize(records, start, end)
    with args.out.open("w", encoding="utf-8") as out:
        series.write_bucket_csv(result, out)
    return 0


def cmd_train(args) -> int:
    train_series = _slice_to_flags(_read_bucket_file(args.input), *_flag_range(args))
    norm = features.fit_normalization(train_series)
    windows = features.make_windows(train_series, args.k, norm)
    if len(windows) == 0:
        raise RangeNotCovered(
            f"training range has {len(train_series)} minutes, fewer than k={args.k}"
        )
    model = autoencoder.init_model(
        2 * args.k, args.hidden, seed=args.seed, k=args.k, norm=norm
    )
    trained, report = scg.train(model, windows, scg.ScgConfig(max_cycles=args.cycles))
    report_path = args.report or args.out.with_suffix(args.out.suffix + ".report.csv")
    report_path.write_text(report.to_csv(), encoding="utf-8")
    if report.non_finite:
        raise TrainingFailed(
            f"training stopped on {report.stop_reason} after {report.cycles_run} cycles"
        )
    args.out.write_bytes(autoencoder.save_model(trained))
    return 0


def cmd_score(args) -> int:
    data = _read_bucket_file(args.input)
    model = autoencoder.load_model(args.model.read_bytes())
    windows = features.make_windows(data, model.k, model.norm)
    novelty = detector.score_series(model, windows)
    _write_text(args.out, detector.write_novelty_csv(data.minutes()[model.k - 1 :], novelty))
    return 0


def cmd_detect(args) -> int:
    if (args.threshold is None) == (args.quantile is None):
        raise ValueError("exactly one of --threshold and --quantile is required")
    if args.quantile_from is not None and args.quantile is None:
        raise ValueError("--quantile-from requires --quantile")

    minutes, values = _read_scores(args.input, args.source)
    threshold = args.threshold
    if threshold is None:
        if args.quantile_from is not None:
            _, calibration = _read_scores(args.quantile_from, args.source)
        else:
            calibration = values
        threshold = detector.suggest_threshold(calibration, args.quantile)
    events = detector.detect_alarms(
        minutes, values, detector.DetectorConfig(threshold, args.gap_minutes), source=args.source
    )
    _write_text(args.out, detector.write_alarm_report(events))
    return 0


def cmd_top(args) -> int:
    data = _read_bucket_file(args.input)
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
    start = series.parse_minute_utc(args.start)
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
    with args.out.open("w", encoding="utf-8") as out:
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
            start_minute_s=series.parse_minute_utc(fields["start"]),
            duration_minutes=int(fields["duration"]),
            shape=fields["shape"],
            magnitude=float(fields["magnitude"]),
            channels=fields.get("channels", synth.CHANNELS_BOTH),
        )
    except KeyError as exc:
        raise ValueError(f"--surge is missing the {exc.args[0]} key") from None


if __name__ == "__main__":
    sys.exit(main())
