"""Figures a declared numerical change records: final training losses and detection quality.

    python3 tools/declared_change_figures.py [--tree DIR] [--loss-seeds 1-10] [--detect-seeds 1-3]
        [--score-cycles 30]

Runs the benchmark's own inputs (``bench/workloads.py``) through the CLI of
the package in ``DIR/src`` (default: this checkout), with BLAS on one thread:

- ``train_week``: the final loss of the 100-cycle training, and its
  rejected trial steps (the cycles that ``TrainReport.accepted`` marks
  false, each a wasted backward pass), per seed;
- ``float64_retakes``: per seed, the curvatures that the ``train_week``
  training, and the ``score_month`` model's training, took again in
  float64 because their float32 terms cancelled too far;
- ``score_month``, with its model trained for ``--score-cycles`` cycles
  (default 30, the benchmark's ``SCORE_MODEL_CYCLES``; the CLI's default is
  100): per seed and detector (autoencoder at quantile 0.999 of the quiet
  week, rule at quantile 0.999 of the quiet week's totals, both with a
  60-minute gap), each surge's onset delay in minutes, and the
  off-surge alarm events and minutes. An event is off-surge if it overlaps
  neither a surge nor the hour after it; its minutes run from its start to
  its end. The onset delay is the minutes from a surge's first minute to
  the start of the first event that overlaps the surge, 0 when that event
  began earlier. Beside them, the off-surge scored minutes whose score lies
  strictly above the threshold ``detect`` used (nearest rank 0.999 of
  ``quiet_novelty.csv``, or of ``quiet_week.csv``'s totals for the rule),
  and 0.001 times the off-surge scored minutes: the count that a threshold
  at the 0.999 quantile of quiet traffic leads one to expect. A minute is
  off-surge if it lies in neither a surge nor the hour after it.

Prints one JSON object. Nothing is written outside a temporary directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HOUR = 60
NOVELTY = "minute_utc,novelty"
BUCKETS = "minute_utc,announcements,withdrawals"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--loss-seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--detect-seeds", type=seeds, default=seeds("1-3"))
    parser.add_argument("--score-cycles", type=int, default=30, help="training cycles of the score_month model")
    args = parser.parse_args()
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"  # before numpy is first imported
    sys.path[:0] = [str(args.tree.resolve() / "src"), str(args.tree.resolve() / "bench")]
    import numpy as np
    import workloads
    from bgpnovelty import autoencoder, scg

    workloads.SCORE_MODEL_CYCLES = args.score_cycles  # prepare_score_month reads it at each call
    reports = []
    train = scg.train

    def recorded(*args, **kwargs):
        trained, report = train(*args, **kwargs)
        reports.append(report)
        return trained, report

    scg.train = recorded  # the CLI calls scg.train through the module
    retakes = []
    float64_curvature = autoencoder._float64_curvature

    def retaken(*args, **kwargs):
        retakes.append(None)
        return float64_curvature(*args, **kwargs)

    autoencoder._float64_curvature = retaken  # the curvature calls it through the module

    def run(plan) -> None:
        for argv in plan.commands:
            workloads.cli(argv)

    def scores(path: Path, header: str):
        """Epoch-second minutes and per-minute scores of a CSV: its novelty, or its update counts summed."""
        rows = workloads._csv_rows(path, header)
        minutes = np.array([workloads._epoch_minute(row[0]) for row in rows])
        return minutes, np.array([sum(map(float, row[1:])) for row in rows])

    out = {
        "tree": str(args.tree),
        "score_cycles": args.score_cycles,
        "final_loss": {},
        "rejected_trials": {},
        "float64_retakes": {"train_week": {}, "score_month": {}},
        "detection": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        for seed in args.loss_seeds:
            work = Path(scratch, f"train-{seed}")
            work.mkdir()
            os.chdir(work)
            reports.clear()
            retakes.clear()
            run(workloads.prepare_train_week(work, seed))
            out["float64_retakes"]["train_week"][seed] = len(retakes)
            out["final_loss"][seed] = float(workloads._csv_rows(work / "model.json.report.csv", "cycle,loss")[-1][1])
            (report,) = reports
            out["rejected_trials"][seed] = report.accepted.count(False)
        for seed in args.detect_seeds:
            work = Path(scratch, f"score-{seed}")
            work.mkdir()
            os.chdir(work)
            retakes.clear()
            plan = workloads.prepare_score_month(work, seed)  # trains the model
            out["float64_retakes"]["score_month"][seed] = len(retakes)
            run(plan)
            offsets = np.random.default_rng(seed).integers(120, 1200, size=len(workloads.SURGES))
            surges = [(day * 1440 + int(offset), minutes) for (day, minutes, _), offset in zip(workloads.SURGES, offsets)]
            start = workloads._epoch_minute((work / "month.csv").read_text().splitlines()[1].split(",")[0])
            spans = [(start + 60 * onset, start + 60 * (onset + minutes - 1)) for onset, minutes in surges]
            figures = {}
            for name, report, scored, quiet, header in (
                ("ae", "ae_alarms.json", "novelty.csv", "quiet_novelty.csv", NOVELTY),
                ("rule", "rule_alarms.json", "month.csv", "quiet_week.csv", BUCKETS),
            ):
                events = [(lo, hi) for lo, hi, _, _ in workloads._alarm_spans(work / report)]
                delays = []
                for lo, hi in spans:
                    starts = [s for s, e in events if s <= hi and e >= lo]
                    delays.append(max(0, (min(starts) - lo) // 60) if starts else None)
                off = [(s, e) for s, e in events if not any(s <= hi + 60 * HOUR and e >= lo for lo, hi in spans)]
                minutes, values = scores(work / scored, header)
                off_surge = ~np.any([(minutes >= lo) & (minutes <= hi + 60 * HOUR) for lo, hi in spans], axis=0)
                threshold = workloads._nearest_rank(scores(work / quiet, header)[1], workloads.QUANTILE)
                figures[name] = {
                    "onset_delay_min": delays,
                    "off_surge_events": len(off),
                    "off_surge_minutes": sum((e - s) // 60 + 1 for s, e in off),
                    "off_surge_exceedances": int(np.count_nonzero(values[off_surge] > threshold)),
                    "expected_exceedances": round((1.0 - workloads.QUANTILE) * int(np.count_nonzero(off_surge)), 9),
                }
            out["detection"][seed] = figures
    print(json.dumps(out))


if __name__ == "__main__":
    main()
