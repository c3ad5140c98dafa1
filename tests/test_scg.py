"""SCG optimizer behaviour: convergence, economy, determinism."""

import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgpnovelty import autoencoder, scg
from bgpnovelty.autoencoder import (
    DimensionMismatch,
    EmptyDataset,
    flatten_params,
    init_model,
    objective,
    sse_loss,
    unflatten_params,
)
from bgpnovelty.features import NormalizationParams
from bgpnovelty.scg import (
    STOP_BUDGET,
    STOP_GRADIENT,
    STOP_NON_FINITE,
    TrainReport,
    scg_minimize,
    train,
)

from conftest import cpus, threads_started


def assert_monotone(report: TrainReport):
    history = report.loss_history
    assert all(later <= earlier for earlier, later in zip(history, history[1:]))


def sphere(x):
    return float(x @ x)


def sphere_grad(x):
    return 2.0 * x


def sphere_curvature(x, p):
    return 2.0 * float(p @ p)


def rosenbrock(v):
    x, y = v
    return float(100.0 * (y - x * x) ** 2 + (1.0 - x) ** 2)


def rosenbrock_grad(v):
    x, y = v
    return np.array(
        [-400.0 * x * (y - x * x) - 2.0 * (1.0 - x), 200.0 * (y - x * x)]
    )


def rosenbrock_curvature(v, p):
    x, y = v
    hessian = np.array([[1200.0 * x * x - 400.0 * y + 2.0, -400.0 * x], [-400.0 * x, 200.0]])
    return float(p @ hessian @ p)


class TestScgMinimize:
    def test_sphere_converges_quickly(self):
        x, report = scg_minimize(sphere, sphere_grad, sphere_curvature, np.array([3.0, -2.0]), 50)
        assert np.linalg.norm(x) < 1e-4
        assert report.cycles_run <= 50
        assert_monotone(report)

    def test_rosenbrock_reaches_global_minimum(self):
        x, report = scg_minimize(
            rosenbrock, rosenbrock_grad, rosenbrock_curvature, np.array([-1.2, 1.0]), 500
        )
        assert np.max(np.abs(x - 1.0)) < 1e-3
        assert_monotone(report)

    def test_stationary_start_returns_immediately(self):
        x0 = np.zeros(3)
        x, report = scg_minimize(sphere, sphere_grad, sphere_curvature, x0, 100)
        assert np.array_equal(x, x0)
        assert report.cycles_run == 0
        assert report.stop_reason == STOP_GRADIENT

    @pytest.mark.parametrize("d,seed", [(5, 1), (12, 2), (20, 3)])
    def test_quadratic_conjugacy_within_d_plus_five_cycles(self, d, seed):
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
        matrix = basis @ np.diag(rng.uniform(0.5, 5.0, d)) @ basis.T
        target = rng.normal(size=d)

        def f(x):
            r = x - target
            return 0.5 * float(r @ matrix @ r)

        def g(x):
            return matrix @ (x - target)

        def curvature(x, p):
            return float(p @ matrix @ p)

        with mock.patch.object(scg, "GRAD_TOL", 1e-8):
            x, report = scg_minimize(f, g, curvature, rng.normal(size=d), d + 5)
        assert np.linalg.norm(g(x)) < 1e-8
        assert report.stop_reason == STOP_GRADIENT
        assert_monotone(report)

    def test_evaluation_economy_per_cycle(self):
        calls = {"f": 0, "g": 0, "curvature": 0}

        def counted_f(x):
            calls["f"] += 1
            return rosenbrock(x)

        def counted_g(x):
            calls["g"] += 1
            return rosenbrock_grad(x)

        def counted_curvature(x, p):
            calls["curvature"] += 1
            return rosenbrock_curvature(x, p)

        _, report = scg_minimize(
            counted_f, counted_g, counted_curvature, np.array([-1.2, 1.0]), 200
        )
        # one f and one g before the loop; then one f and at most one g and one curvature per cycle
        assert calls["f"] <= 1 + report.cycles_run
        assert calls["g"] <= 1 + report.cycles_run
        assert calls["curvature"] <= report.cycles_run

    def test_single_cycle_budget_runs_exactly_one_cycle(self):
        _, report = scg_minimize(
            sphere, sphere_grad, sphere_curvature, np.array([3.0, -2.0]), 1
        )
        assert report.cycles_run == 1
        assert report.stop_reason == STOP_BUDGET

    def test_non_finite_objective_flags_and_returns_last_accepted(self):
        def bad_f(x):
            return float("inf") if np.linalg.norm(x) < 1.0 else sphere(x)

        x, report = scg_minimize(bad_f, sphere_grad, sphere_curvature, np.array([3.0, -2.0]), 100)
        assert report.stop_reason == STOP_NON_FINITE
        assert report.non_finite
        assert np.all(np.isfinite(x))

    def test_non_finite_curvature_flags_and_returns_last_accepted(self):
        def bad_curvature(x, p):
            return float("nan") if np.linalg.norm(x) < 1.0 else sphere_curvature(x, p)

        x, report = scg_minimize(sphere, sphere_grad, bad_curvature, np.array([3.0, -2.0]), 100)
        assert report.stop_reason == STOP_NON_FINITE
        assert np.linalg.norm(x) < 1.0
        assert report.cycles_run == len(report.loss_history) + 1

    def test_non_finite_at_start_returns_start(self):
        x0 = np.array([0.5, 0.5])
        bad_f = lambda x: float("nan")
        x, report = scg_minimize(bad_f, sphere_grad, sphere_curvature, x0, 100)
        assert np.array_equal(x, x0)
        assert report.cycles_run == 0
        assert report.non_finite

    def test_rejects_non_finite_start_point(self):
        with pytest.raises(ValueError):
            scg_minimize(sphere, sphere_grad, sphere_curvature, np.array([np.nan, 0.0]), 100)

    def test_budget_stop_reason_when_tolerance_unreachable(self):
        with mock.patch.object(scg, "GRAD_TOL", 0.0):
            _, report = scg_minimize(rosenbrock, rosenbrock_grad, rosenbrock_curvature, np.array([-1.2, 1.0]), 5)
        assert report.stop_reason == STOP_BUDGET
        assert report.cycles_run == 5


class TestScgProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(1, 12),
        cycles=st.integers(1, 40),
        grad_tol=st.sampled_from([0.0, 1e-8, 1e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_run_on_a_random_convex_quadratic(self, d, cycles, grad_tol, seed):
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
        matrix = basis @ np.diag(rng.uniform(0.1, 10.0, d)) @ basis.T
        target = rng.normal(size=d)
        calls = []  # (kind, point) of every evaluation, in order

        def f(x):
            calls.append(("f", x.copy()))
            r = x - target
            return 0.5 * float(r @ matrix @ r)

        def g(x):
            calls.append(("g", x.copy()))
            return matrix @ (x - target)

        def curvature(x, p):
            calls.append(("curvature", x.copy()))
            return float(p @ matrix @ p)

        x0 = rng.normal(size=d)
        # mock, not monkeypatch: a function-scoped fixture would span every example of @given
        with mock.patch.object(scg, "GRAD_TOL", grad_tol):
            x, report = scg_minimize(f, g, curvature, x0, cycles)

        losses = report.loss_history
        assert len(losses) == report.cycles_run
        assert [kind for kind, _ in calls].count("f") == report.cycles_run + 1
        latest = {}
        for kind, point in calls:
            if kind in ("g", "curvature"):
                assert np.array_equal(point, latest["f" if kind == "g" else "g"])
            latest[kind] = point
        assert all(later <= earlier for earlier, later in zip([f(x0), *losses], losses))
        if losses:
            assert f(x) == losses[-1]
        else:
            assert np.array_equal(x, x0)
        if report.stop_reason == STOP_BUDGET:
            assert report.cycles_run == cycles
        else:
            assert report.stop_reason == STOP_GRADIENT
            assert np.linalg.norm(g(x)) <= grad_tol


class TestConfig:
    @pytest.mark.parametrize("kwargs", [dict(max_cycles=0)])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            scg_minimize(sphere, sphere_grad, sphere_curvature, np.array([3.0, -2.0]), **kwargs)

    def test_train_rejects_a_budget_below_one(self):
        with pytest.raises(ValueError, match="max_cycles must be >= 1, got 0"):
            train(init_model(4, 3, seed=0), np.zeros((2, 4)), 0)


class TestTrain:
    def test_identical_windows_train_to_tiny_loss(self):
        x = np.array([0.2, 0.8, 0.5, 0.1])
        X = np.tile(x, (20, 1))
        model = init_model(4, 4, seed=1, norm=NormalizationParams(0, 1, 0, 1))
        initial = sse_loss(model, X)
        trained, report = train(model, X, 100)
        assert report.loss_history[-1] <= 1e-3 * initial
        assert_monotone(report)

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(21)
        X = rng.uniform(size=(30, 6))
        model = init_model(6, 5, seed=2)
        first, _ = train(model, X, 25)
        second, _ = train(model, X, 25)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(first, name), getattr(second, name))

    def test_single_cycle_budget(self):
        X = np.random.default_rng(22).uniform(size=(10, 4))
        model = init_model(4, 3, seed=3)
        _, report = train(model, X, 1)
        assert report.cycles_run == 1

    def test_float32_windows_reach_the_objective_uncopied(self, monkeypatch):
        X = np.random.default_rng(24).uniform(size=(10, 4)).astype(np.float32)
        seen = []

        def keep(model, data):
            seen.append(data)
            return objective(model, data)

        monkeypatch.setattr(scg, "objective", keep)
        train(init_model(4, 3, seed=3), X, 1)
        assert seen[0] is X

    def test_dimension_mismatch(self):
        model = init_model(4, 3, seed=0)
        with pytest.raises(DimensionMismatch):
            train(model, np.zeros((5, 6)), 100)

    def test_empty_windows(self):
        model = init_model(4, 3, seed=0)
        with pytest.raises(EmptyDataset):
            train(model, np.zeros((0, 4)), 100)

    def test_report_csv_format(self):
        X = np.random.default_rng(23).uniform(size=(10, 4))
        model = init_model(4, 3, seed=3)
        _, report = train(model, X, 3)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "cycle,loss"
        assert len(lines) == 1 + len(report.loss_history)
        assert lines[1].startswith("1,")


class TestFusedObjectiveMatchesReference:
    """``train`` gives the bytes of SCG over one fresh float32 objective per evaluation."""

    @staticmethod
    def reference_train(model, X, max_cycles):
        calls = {"g": 0}

        def f(flat):
            with objective(model, X.astype(np.float32)) as (fresh, _, _):
                return fresh(flat)

        def g(flat):
            calls["g"] += 1
            with objective(model, X.astype(np.float32)) as (_, fresh, _):
                return fresh(flat)

        def curvature(flat, p):
            with objective(model, X.astype(np.float32)) as (_, _, fresh):
                return fresh(flat, p)

        best, report = scg_minimize(f, g, curvature, flatten_params(model), max_cycles)
        return unflatten_params(model, best), report, calls["g"]

    @pytest.mark.parametrize(
        "n,d,h,seed,cycles",
        [(12, 4, 3, 0, 40), (30, 6, 5, 1, 25), (7, 3, 9, 2, 15), (50, 10, 4, 3, 1)],
    )
    def test_model_bytes_and_losses_equal(self, n, d, h, seed, cycles):
        X = np.random.default_rng(seed).uniform(size=(n, d))
        model = init_model(d, h, seed=seed)
        expected, expected_report, _ = self.reference_train(model, X, cycles)
        trained, report = train(model, X, cycles)
        assert flatten_params(trained).tobytes() == flatten_params(expected).tobytes()  # d = 3 has no document
        assert report.loss_history == expected_report.loss_history
        assert report.stop_reason == expected_report.stop_reason

    def test_reference_run_rejects_a_step(self):
        # The first case above must cover a rejected trial, whose forward
        # pass stays in the fused cache while the next trial is evaluated.
        X = np.random.default_rng(0).uniform(size=(12, 4))
        _, report, g_calls = self.reference_train(init_model(4, 3, seed=0), X, 40)
        assert g_calls < report.cycles_run + 1


@pytest.fixture
def fine_blocks(monkeypatch):
    """Blocks small enough that the few-row problems below run as several tasks."""
    monkeypatch.setattr(autoencoder, "_BLOCK_WORK", 1)
    monkeypatch.setattr(autoencoder, "_BLOCK_ALIGN", 1)


class TestTrainWorkers:
    """``train`` runs the objective's blocks on a pool sized by the CPUs, with the same result at any size."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 60),
        d=st.integers(1, 6),
        h=st.integers(1, 6),
        cycles=st.integers(1, 15),
        count=st.sampled_from([2, 3, 5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_model_and_losses_at_any_cpu_count(self, n, d, h, cycles, count, seed):
        X = np.random.default_rng(seed).uniform(size=(n, d))
        model = init_model(d, h, seed=seed)
        outcomes = []
        # mock, not monkeypatch: a function-scoped fixture would span every example of @given
        with mock.patch.multiple(autoencoder, _BLOCK_WORK=1, _BLOCK_ALIGN=1):
            for usable in (1, count):
                with mock.patch.object(autoencoder, "_usable_cpus", lambda: usable):
                    trained, report = train(model, X, cycles)
                outcomes.append((flatten_params(trained).tobytes(), report.loss_history, report.stop_reason))
        assert outcomes[1] == outcomes[0]

    def test_one_cpu_runs_every_block_in_the_calling_thread(self, fine_blocks, block_threads, monkeypatch):
        cpus(monkeypatch, 1)
        before = threading.active_count()
        train(init_model(4, 3, seed=0), np.random.default_rng(1).uniform(size=(40, 4)), 5)
        assert block_threads == {threading.current_thread()}
        assert threading.active_count() == before

    def test_a_small_problem_runs_every_block_in_the_calling_thread_on_several_cpus(self, block_threads, monkeypatch):
        # The shipped blocking keeps 500 x 6 whole: no phase opens the pool, and no thread starts.
        cpus(monkeypatch, 3)
        started = threads_started(monkeypatch)
        train(init_model(6, 5, seed=0), np.random.default_rng(1).uniform(size=(500, 6)), 5)
        assert block_threads == {threading.current_thread()}
        assert not started

    def test_the_pool_starts_at_most_one_thread_per_cpu(self, block_threads, monkeypatch):
        # 9,000 x 100 windows at 100 hidden units: the shipped blocking cuts the rows into 8 blocks.
        cpus(monkeypatch, 2)
        started = threads_started(monkeypatch)
        before = threading.active_count()
        train(init_model(100, 100, seed=0), np.random.default_rng(1).uniform(size=(9000, 100)), 2)
        assert len(autoencoder._blocks(9000, 100 * 100)) == 8
        assert 1 <= len(started) <= 2
        assert threading.current_thread() not in block_threads
        assert threading.active_count() == before

    @pytest.mark.parametrize("n,blocks,count,sets", [(40, 8, 3, 3), (6, 2, 3, 2), (40, 8, 1, 1)])
    def test_a_run_makes_its_buffer_sets_once_in_the_calling_thread(
        self, n, blocks, count, sets, fine_blocks, buffer_sets, monkeypatch
    ):
        # A set for each block that can run at once, made before the first pass and reused by every phase after it.
        cpus(monkeypatch, count)
        _, report = train(init_model(4, 3, seed=0), np.random.default_rng(1).uniform(size=(n, 4)), 5)
        assert report.cycles_run == 5
        assert len(autoencoder._blocks(n, 4 * 3)) == blocks
        assert buffer_sets == [threading.current_thread()] * sets

    def test_no_thread_outlives_a_run(self, fine_blocks, block_threads, monkeypatch):
        cpus(monkeypatch, 3)
        before = threading.active_count()
        _, report = train(init_model(4, 3, seed=0), np.random.default_rng(1).uniform(size=(40, 4)), 5)
        assert report.stop_reason == STOP_BUDGET
        assert threading.current_thread() not in block_threads  # the blocks ran on the pool
        assert threading.active_count() == before

    def test_non_finite_stop_ends_the_pool_and_keeps_the_callers_error_handling(
        self, fine_blocks, block_threads, monkeypatch
    ):
        cpus(monkeypatch, 3)
        before = threading.active_count()
        # The squares overflow float32. The pytest configuration turns numpy's
        # warning into an error, so a worker that ignored the caller's errstate would raise.
        with np.errstate(all="ignore"):
            _, report = train(init_model(4, 3, seed=0), np.full((40, 4), 1e30), 5)
        assert report.stop_reason == STOP_NON_FINITE
        assert threading.current_thread() not in block_threads
        assert threading.active_count() == before

    @pytest.mark.parametrize("X,error", [(np.zeros((0, 4)), EmptyDataset), (np.zeros((40, 6)), DimensionMismatch)])
    def test_bad_windows_raise_before_any_block_runs(self, X, error, fine_blocks, block_threads, monkeypatch):
        cpus(monkeypatch, 3)
        before = threading.active_count()
        with pytest.raises(error):
            train(init_model(4, 3, seed=0), X, 5)
        assert not block_threads
        assert threading.active_count() == before

    def test_a_workers_exception_reaches_the_caller_unchanged(self, fine_blocks, monkeypatch):
        cpus(monkeypatch, 3)
        failure = ArithmeticError("raised in a block")
        forward = autoencoder._forward

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise failure
            return forward(*args)

        monkeypatch.setattr(autoencoder, "_forward", failing)
        before = threading.active_count()
        with pytest.raises(ArithmeticError) as raised:
            train(init_model(4, 3, seed=0), np.random.default_rng(1).uniform(size=(40, 4)), 5)
        assert raised.value is failure
        assert threading.active_count() == before
