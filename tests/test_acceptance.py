"""Acceptance gate: ten end-to-end criteria at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. The heavyweight criteria (4/5/6) share one session-scoped
trained pipeline: a seeded quiet week of synthetic counts, window length 50
per channel, 100 hidden units, 100 training cycles.
"""

import functools
import time

import numpy as np
import pytest

from bgpnovelty.autoencoder import gradient, init_model, load_model, save_model
from bgpnovelty.cli import main
from bgpnovelty.detector import (
    DetectorConfig,
    detect_alarms,
    lead_time,
    rule_alarms,
    score_series,
)
from bgpnovelty.features import NormalizationParams, make_windows
from bgpnovelty.mrt import MalformedPrefix, TruncatedRecord, parse_mrt_stream
from bgpnovelty.scg import ScgConfig, scg_minimize, train
from bgpnovelty.series import MINUTE, read_bucket_csv, slice_range
from bgpnovelty.synth import SurgeSpec, inject_surge

from conftest import CYCLES, INIT_SEED, K, top15_csv_text
from mrtbuild import CORPUS, bgp4mp_update_record, bgp_update, bgp4mp_body, mrt_record
from test_autoencoder import finite_difference_gradient, tiny_model


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {description}")
                raise
            print(f"criterion {number:2d} PASS  {description}")

        return wrapper

    return decorate


@criterion(1, "novelty formula is exact")
def test_novelty_exactness():
    four = tiny_model(np.zeros((1, 4)), [0.0], np.zeros((4, 1)), np.ones(4))
    assert score_series(four, np.zeros((1, 4)))[0] == 1.0

    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.uniform(-1, 2, size=6)
        exact = tiny_model(np.zeros((3, 6)), np.zeros(3), np.zeros((6, 3)), x)
        assert score_series(exact, x[None, :])[0] == 0.0

    two = tiny_model(np.zeros((1, 2)), [0.0], np.zeros((2, 1)), [0.3, 0.6])
    assert abs(score_series(two, np.array([[0.2, 0.4]]))[0] - 0.025) < 1e-15


@criterion(2, "analytic gradient matches central differences under 5 s")
def test_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        model = init_model(10, 7, seed=seed)
        X = np.random.default_rng(1000 + seed).uniform(size=(5, 10))
        analytic = gradient(model, X)
        numeric = finite_difference_gradient(model, X, step=1e-5)
        worst = max(worst, np.max(np.abs(analytic - numeric)) / np.max(np.abs(numeric)))
    elapsed = time.perf_counter() - started
    assert worst < 1e-5
    assert elapsed < 5.0


@criterion(3, "optimizer solves sphere and Rosenbrock with monotone accepted losses")
def test_scg_optimizer():
    def sphere(x):
        return float(x @ x)

    def sphere_grad(x):
        return 2.0 * x

    def sphere_curvature(x, p):
        return 2.0 * float(p @ p)

    x, report_a = scg_minimize(sphere, sphere_grad, sphere_curvature, np.array([3.0, -2.0]), ScgConfig(max_cycles=50))
    assert np.linalg.norm(x) < 1e-4
    assert report_a.cycles_run <= 50

    def rosenbrock(v):
        return float(100.0 * (v[1] - v[0] ** 2) ** 2 + (1.0 - v[0]) ** 2)

    def rosenbrock_grad(v):
        return np.array([
            -400.0 * v[0] * (v[1] - v[0] ** 2) - 2.0 * (1.0 - v[0]),
            200.0 * (v[1] - v[0] ** 2),
        ])

    def rosenbrock_curvature(v, p):
        hessian = np.array([[1200.0 * v[0] ** 2 - 400.0 * v[1] + 2.0, -400.0 * v[0]], [-400.0 * v[0], 200.0]])
        return float(p @ hessian @ p)

    y, report_b = scg_minimize(
        rosenbrock, rosenbrock_grad, rosenbrock_curvature, np.array([-1.2, 1.0]), ScgConfig(max_cycles=500)
    )
    assert np.max(np.abs(y - 1.0)) < 1e-3
    assert report_b.cycles_run <= 500

    for report in (report_a, report_b):
        history = report.loss_history
        assert all(later <= earlier for earlier, later in zip(history, history[1:]))


@criterion(4, "quiet-week training reaches 10% of initial loss, deterministically, under 120 s")
def test_training_efficacy(pipeline):
    assert pipeline.report.loss_history[-1] <= 0.10 * pipeline.initial_loss
    assert pipeline.train_seconds < 120.0

    again, _ = train(pipeline.model0, pipeline.matrix, ScgConfig(max_cycles=CYCLES))
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(pipeline.model, name), getattr(again, name))


def held_out_novelty(pipeline, surged):
    """Minutes and novelty of the surged series' windows that end in the held-out day."""
    novelty = score_series(pipeline.model, make_windows(surged, K, pipeline.norm))
    minutes = surged.minutes()[K - 1 :]
    held_out = minutes >= pipeline.test_start_s
    return minutes[held_out], novelty[held_out]


@criterion(5, "step surge exceeds the quiet 99.9th percentile and alarms within 2 min")
def test_step_surge_detection(pipeline):
    onset = pipeline.full.minute_at(10_080 + 600)
    surged = inject_surge(pipeline.full, SurgeSpec(onset, 60, "step", 10.0, "both"))
    minutes, novelty = held_out_novelty(pipeline, surged)

    surge_peak = novelty[(onset <= minutes) & (minutes < onset + 60 * MINUTE)].max()
    assert surge_peak > pipeline.threshold

    events = detect_alarms(minutes, novelty, DetectorConfig(pipeline.threshold, 60))
    assert events
    surge_event = max(events, key=lambda e: e.peak_value)
    assert abs(surge_event.start_s - onset) <= 2 * MINUTE


@criterion(6, "ramp surge: autoencoder alarm leads the rule alarm by 10+ minutes")
def test_ramp_lead_time(pipeline):
    onset = pipeline.full.minute_at(10_080 + 600)
    surged = inject_surge(pipeline.full, SurgeSpec(onset, 120, "ramp", 10.0, "both"))
    ae_events = detect_alarms(
        *held_out_novelty(pipeline, surged), DetectorConfig(pipeline.threshold, 60)
    )

    test_day = slice_range(surged, pipeline.test_start_s, surged.end_minute_s)
    peak_total = float(test_day.totals().max())
    rule_events = rule_alarms(test_day, 0.9 * peak_total, 60)
    assert rule_events

    ramp_event = max(ae_events, key=lambda e: e.peak_value)
    matches = lead_time(ae_events, rule_events, 240)
    lead = next(lead for ae, _, lead in matches if ae == ramp_event)
    assert lead is not None
    assert lead >= 10


@criterion(7, "reference top-15 table reproduced exactly through the CLI")
def test_top15_reproduction(tmp_path, capsys):
    src = tmp_path / "buckets.csv"
    src.write_text(top15_csv_text())
    assert main(["top", str(src), "--n", "15"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "rank,minute_utc,total"
    totals = [int(line.split(",")[2]) for line in lines[1:]]
    expected = [
        595001, 592458, 572124, 556038, 541756, 534271, 526423, 504463,
        499349, 486930, 475865, 453161, 436326, 432627, 418252,
    ]
    assert totals == expected
    assert totals[0] == 595001 and totals[-1] == 418252
    stamps = [line.split(",")[1] for line in lines[1:]]
    assert stamps[0] == "2001-07-27T14:50:00Z"
    assert stamps[-1] == "2001-08-20T20:43:00Z"


@criterion(8, "interior gaps come back as zero-filled buckets")
def test_missing_data_handling():
    text = (
        "minute_utc,announcements,withdrawals\n"
        "2001-07-05T17:14:00Z,120,30\n"
        "2001-07-05T19:10:00Z,110,25\n"
    )
    series = read_bucket_csv(text.encode())
    assert len(series) == 117  # 17:14 .. 19:10 inclusive
    interior = series.announcements[1:-1], series.withdrawals[1:-1]
    assert not interior[0].any() and not interior[1].any()
    assert series.announcements[0] == 120
    assert series.withdrawals[116] == 25


@criterion(9, "hand-built MRT corpus parses to the hand-derived counts")
def test_mrt_fixture_corpus():
    assert len(CORPUS) >= 5
    for name, stream, expected in CORPUS:
        records = parse_mrt_stream(stream)
        assert [tuple(r) for r in records.tolist()] == expected, name

    with pytest.raises(TruncatedRecord):
        parse_mrt_stream(b"\x00" * 11)
    with pytest.raises(TruncatedRecord):
        parse_mrt_stream(bgp4mp_update_record()[:-1])
    with pytest.raises(MalformedPrefix):
        parse_mrt_stream(mrt_record(16, 1, bgp4mp_body(bgp_update(nlri=bytes([33, 1, 2, 3, 4, 5])))))


@criterion(10, "persisted model scores identically to the original")
def test_persistence_round_trip():
    norm = NormalizationParams(0.0, 1250.0, 0.0, 410.0)
    model = init_model(100, 100, seed=INIT_SEED, k=50, norm=norm)
    restored = load_model(save_model(model))
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-0.5, 1.5, size=100)
        X = x[None, :]
        worst = max(worst, abs(score_series(model, X)[0] - score_series(restored, X)[0]))
    assert worst < 1e-12


