"""The three workloads: inputs, untimed set-up, command chains and output checks.

Each ``prepare_*`` function writes the seeded inputs into a work directory
(the program sees only these files), runs the untimed set-up through the
CLI, and returns a ``Plan``: the commands one pass runs, the files each
command writes, and the checks and quality figures taken after the run.
Checks are written against the generator's own arrays and plain numpy, not
against the package's readers, so they hold the program to an independent
answer.
"""

from __future__ import annotations

import calendar
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gen

K = 50
HIDDEN = 100
CYCLES = 100
INIT_SEED = 7
QUANTILE = 0.999
GAP_MINUTES = 60
MATCH_WINDOW = 240
# The score_month model only has to exist; a short training keeps set-up
# time down without changing the shape of the scoring work.
SCORE_MODEL_CYCLES = 30


@dataclass
class Plan:
    commands: list[list[str]]  # argv lists for bgpnovelty.cli.main, relative to the work dir
    outputs: list[list[str]]  # files each command writes
    # Returns (command index, message) for every failed check.
    check: Callable[[], list[tuple[int, str]]]
    # Reference probes that resemble where the chain spends its time (probe.py).
    probe: list[str]
    # Untimed figures taken after the run: name -> (value, unit).
    quality: Callable[[], dict[str, tuple[float, str]]] = lambda: {}
    # Inputs the per-layer metrics divide by.
    context: dict = field(default_factory=dict)
    # Throughput shown beside the median pass: (name, unit, work units per pass).
    throughput: tuple[str, str, float] | None = None
    golden: str | None = None  # output whose digest is the workload's golden digest


def cli(argv: list[str]) -> None:
    """Run one set-up command through the CLI; set-up failures end the run."""
    from bgpnovelty.cli import main

    code = main(argv)
    if code != 0:
        raise RuntimeError(f"set-up command failed with exit code {code}: {' '.join(argv)}")


# ---------------------------------------------------------------- ingest_mrt


def prepare_ingest_mrt(work: Path, seed: int) -> Plan:
    dump = gen.mrt_dump(seed)
    (work / "updates.mrt").write_bytes(dump.data)

    def check() -> list[tuple[int, str]]:
        rows = _csv_rows(work / "buckets.csv", "minute_utc,announcements,withdrawals")
        if isinstance(rows, str):
            return [(0, rows)]
        minutes = np.array([_epoch_minute(r[0]) for r in rows])
        counts = np.array([[int(r[1]), int(r[2])] for r in rows], dtype=np.int64).reshape(-1, 2)
        expected_minutes = dump.start_minute_s + gen.MINUTE * np.arange(gen.MRT_MINUTES)
        if minutes.shape != expected_minutes.shape or not np.array_equal(minutes, expected_minutes):
            return [(0, f"bucket minutes: {len(rows)} rows, expected {gen.MRT_MINUTES} consecutive minutes")]
        problems = []
        outage = slice(dump.outage_first, dump.outage_first + gen.OUTAGE_MINUTES)
        if counts[outage].any():
            problems.append((0, "collector-outage minutes are not zero-filled"))
        for column, name, expected in ((0, "announcements", dump.announced), (1, "withdrawals", dump.withdrawn)):
            wrong = np.flatnonzero(counts[:, column] != expected)
            if wrong.size:
                problems.append((0, f"{name} differ from the generator in {wrong.size} minutes, first at row {wrong[0]}"))
        return problems

    return Plan(
        commands=[["ingest", "updates.mrt", "--out", "buckets.csv"]],
        outputs=[["buckets.csv"]],
        check=check,
        probe=["python"],
        context={"mrt_bytes": len(dump.data), "mrt_records": dump.records},
        throughput=("mrt_mb_per_s", "MB/s", len(dump.data) / 1e6),
    )


# ---------------------------------------------------------------- train_week


def prepare_train_week(work: Path, seed: int) -> Plan:
    full = gen.quiet_series(gen.WEEK_MINUTES + 1440, seed)
    onset = gen.WEEK_MINUTES + int(np.random.default_rng(seed).integers(300, 1200))
    stormy = gen.surge(full, onset, 120, "ramp")
    (work / "week.csv").write_text(gen.bucket_csv(full, 0, gen.WEEK_MINUTES))
    (work / "storm_day.csv").write_text(gen.bucket_csv(stormy, gen.WEEK_MINUTES))
    storm_totals = stormy.totals()[gen.WEEK_MINUTES:]

    def check() -> list[tuple[int, str]]:
        from bgpnovelty.autoencoder import load_model

        problems = []
        try:
            model = load_model((work / "model.json").read_bytes())
            if (model.k, model.hidden_dim, model.input_dim) != (K, HIDDEN, 2 * K):
                problems.append((0, f"model has k={model.k}, hidden={model.hidden_dim}"))
        except (OSError, ValueError) as exc:
            problems.append((0, f"model does not reload: {exc}"))
        rows = _csv_rows(work / "model.json.report.csv", "cycle,loss")
        if isinstance(rows, str):
            return problems + [(0, rows)]
        cycles = [int(r[0]) for r in rows]
        losses = [float(r[1]) for r in rows]
        if cycles != list(range(1, CYCLES + 1)):
            problems.append((0, f"report has cycles {cycles[:3]}..., expected 1..{CYCLES}"))
        if any(b > a for a, b in zip(losses, losses[1:])):
            problems.append((0, "report loss increases between cycles"))
        return problems

    def quality() -> dict[str, tuple[float, str]]:
        final_loss = float(_csv_rows(work / "model.json.report.csv", "cycle,loss")[-1][1])
        # Held-out ramp-storm day: autoencoder threshold from the quiet-week
        # scoring, rule threshold at 90% of the day's peak total.
        cli(["score", "week.csv", "model.json", "--out", "week_novelty.csv"])
        cli(["score", "storm_day.csv", "model.json", "--out", "storm_novelty.csv"])
        cli(["detect", "storm_novelty.csv", "--quantile", str(QUANTILE),
             "--quantile-from", "week_novelty.csv", "--out", "storm_ae.json"])
        cli(["detect", "storm_day.csv", "--source", "rule",
             "--threshold", repr(0.9 * float(storm_totals.max())), "--out", "storm_rule.json"])
        cli(["compare", "storm_ae.json", "storm_rule.json", "--match-window", str(MATCH_WINDOW),
             "--out", "storm_lead.csv"])
        leads = [int(r[2]) for r in _csv_rows(work / "storm_lead.csv", "ae_start,rule_start,lead_minutes") if r[2]]
        return {"final_loss": (final_loss, "loss"), "lead_min": (float(leads[0]) if leads else math.nan, "min")}

    return Plan(
        commands=[["train", "week.csv", "--k", str(K), "--hidden", str(HIDDEN), "--cycles", str(CYCLES),
                   "--seed", str(INIT_SEED), "--out", "model.json"]],
        outputs=[["model.json", "model.json.report.csv"]],
        check=check,
        probe=["numpy"],
        quality=quality,
        throughput=("cycles_per_s", "1/s", float(CYCLES)),
        golden="model.json",
    )


# --------------------------------------------------------------- score_month


SURGES = ((10, 60, "step"), (17, 120, "ramp"), (24, 1, "spike"))  # (day, minutes, shape)


def prepare_score_month(work: Path, seed: int) -> Plan:
    month = gen.quiet_series(gen.MONTH_MINUTES, seed)
    offsets = np.random.default_rng(seed).integers(120, 1200, size=len(SURGES))
    onsets = []
    for (day, duration, shape), offset in zip(SURGES, offsets):
        onsets.append((day * 1440 + int(offset), duration))
        month = gen.surge(month, onsets[-1][0], duration, shape)
    (work / "month.csv").write_text(gen.bucket_csv(month))
    (work / "quiet_week.csv").write_text(gen.bucket_csv(month, 0, gen.WEEK_MINUTES))
    cli(["train", "quiet_week.csv", "--k", str(K), "--hidden", str(HIDDEN),
         "--cycles", str(SCORE_MODEL_CYCLES), "--seed", str(INIT_SEED), "--out", "model.json"])
    cli(["score", "quiet_week.csv", "model.json", "--out", "quiet_novelty.csv"])
    totals = month.totals()
    quiet_totals = totals[: gen.WEEK_MINUTES]

    def check() -> list[tuple[int, str]]:
        problems = []
        document = json.loads((work / "model.json").read_text())
        expected = _novelty(document, month)
        rows = _csv_rows(work / "novelty.csv", "minute_utc,novelty")
        if isinstance(rows, str):
            return [(0, rows)]
        minutes = np.array([_epoch_minute(r[0]) for r in rows])
        values = np.array([float(r[1]) for r in rows])
        first = month.minute_at(K - 1)
        if values.shape != expected.shape or not np.array_equal(
            minutes, first + gen.MINUTE * np.arange(expected.size)
        ):
            problems.append((0, f"novelty has {values.size} rows, expected {expected.size} from minute {first}"))
        else:
            worst = float(np.max(np.abs(values - expected) / np.maximum(1.0, np.abs(expected))))
            if worst > 1e-12:
                problems.append((0, f"novelty differs from the numpy evaluation by {worst:.3g}"))

        ae = _alarm_spans(work / "ae_alarms.json")
        for onset, duration in onsets:
            lo, hi = month.minute_at(onset), month.minute_at(onset + duration - 1)
            if not any(start <= hi and end >= lo for start, end, _, _ in ae):
                problems.append((1, f"no autoencoder alarm covers the surge at minute {onset}"))

        threshold = _nearest_rank(quiet_totals, QUANTILE)
        rule = _alarm_spans(work / "rule_alarms.json")
        if rule != _group(totals, threshold, month.start_minute_s):
            problems.append((2, f"rule alarms differ from numpy grouping of totals > {threshold}"))

        leads = _csv_rows(work / "lead.csv", "ae_start,rule_start,lead_minutes")
        if isinstance(leads, str) or len(leads) != len(ae):
            problems.append((3, f"lead table does not have one row per autoencoder alarm ({len(ae)})"))
        else:
            for ae_start, rule_start, lead in leads:
                if rule_start and int(lead) * gen.MINUTE != _epoch_minute(rule_start) - _epoch_minute(ae_start):
                    problems.append((3, f"lead {lead} inconsistent with {ae_start} -> {rule_start}"))
                    break
        return problems

    return Plan(
        commands=[
            ["score", "month.csv", "model.json", "--out", "novelty.csv"],
            ["detect", "novelty.csv", "--quantile", str(QUANTILE), "--quantile-from", "quiet_novelty.csv",
             "--gap-minutes", str(GAP_MINUTES), "--out", "ae_alarms.json"],
            ["detect", "month.csv", "--source", "rule", "--quantile", str(QUANTILE),
             "--quantile-from", "quiet_week.csv", "--gap-minutes", str(GAP_MINUTES), "--out", "rule_alarms.json"],
            ["compare", "ae_alarms.json", "rule_alarms.json", "--match-window", str(MATCH_WINDOW),
             "--out", "lead.csv"],
        ],
        outputs=[["novelty.csv"], ["ae_alarms.json"], ["rule_alarms.json"], ["lead.csv"]],
        check=check,
        probe=["python", "numpy"],
        throughput=("minutes_per_s", "min/s", float(gen.MONTH_MINUTES)),
        golden="novelty.csv",
    )


WORKLOADS = {
    "ingest_mrt": prepare_ingest_mrt,
    "train_week": prepare_train_week,
    "score_month": prepare_score_month,
}


# ------------------------------------------------------- independent readers


def _csv_rows(path: Path, header: str) -> list[list[str]] | str:
    """Data rows of a CSV file, or a message when it is missing or misshapen."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return f"cannot read {path.name}: {exc}"
    if not lines or lines[0] != header:
        return f"{path.name}: header is not {header!r}"
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:] if line]
    if any(len(r) != width for r in rows):
        return f"{path.name}: a row does not have {width} fields"
    return rows


def _epoch_minute(text: str) -> int:
    return calendar.timegm(time.strptime(text, "%Y-%m-%dT%H:%M:00Z"))


def _alarm_spans(path: Path) -> list[tuple[int, int, int, float]]:
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
        return [
            (_epoch_minute(e["start"]), _epoch_minute(e["end"]), _epoch_minute(e["peak_minute"]), float(e["peak_value"]))
            for e in document
        ]
    except (OSError, ValueError, KeyError, TypeError):
        return []


def _nearest_rank(values: np.ndarray, q: float) -> float:
    ordered = np.sort(values.astype(np.float64))
    return float(ordered[math.ceil(q * ordered.size) - 1])


def _group(values: np.ndarray, threshold: float, start_s: int) -> list[tuple[int, int, int, float]]:
    """Alarm events over minutes with value > threshold, merged across gaps of up to GAP_MINUTES."""
    above = np.flatnonzero(values > threshold)
    if above.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(above) > GAP_MINUTES + 1) + 1
    events = []
    for run in np.split(above, breaks):
        peak = run[int(np.argmax(values[run]))]
        events.append((
            start_s + gen.MINUTE * int(run[0]),
            start_s + gen.MINUTE * int(run[-1]),
            start_s + gen.MINUTE * int(peak),
            float(values[peak]),
        ))
    return events


def _novelty(document: dict, series) -> np.ndarray:
    """Mean squared reconstruction error of every stride-1 window, in numpy."""
    k, d, h = document["k"], document["input_dim"], document["hidden_dim"]
    norm = document["norm"]
    channels = []
    for values, lo, hi in ((series.announcements, norm["a_min"], norm["a_max"]),
                           (series.withdrawals, norm["w_min"], norm["w_max"])):
        scaled = np.zeros(values.size) if hi == lo else (values.astype(np.float64) - lo) / (hi - lo)
        channels.append(np.lib.stride_tricks.sliding_window_view(scaled, k))
    X = np.hstack(channels)
    w1 = np.asarray(document["w1"], dtype=np.float64).reshape(h, d)
    w2 = np.asarray(document["w2"], dtype=np.float64).reshape(d, h)
    b1 = np.asarray(document["b1"], dtype=np.float64)
    b2 = np.asarray(document["b2"], dtype=np.float64)
    residual = np.tanh(X @ w1.T + b1) @ w2.T + b2 - X
    return np.mean(residual * residual, axis=1)
