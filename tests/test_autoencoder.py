"""Forward pass, loss, analytic gradient, and model persistence."""

import math
import re
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgpnovelty import autoencoder
from bgpnovelty.autoencoder import (
    AutoencoderModel,
    BadFormat,
    DimensionMismatch,
    EmptyDataset,
    VersionMismatch,
    flatten_params,
    gradient,
    init_model,
    load_model,
    objective,
    reconstruct,
    save_model,
    sse_loss,
    unflatten_params,
)
from bgpnovelty.features import NormalizationParams


def finite_difference_gradient(model, X, step=1e-5):
    """Central-difference oracle over the flattened parameters."""
    flat = flatten_params(model)
    out = np.empty_like(flat)
    for i in range(flat.size):
        up = flat.copy()
        up[i] += step
        down = flat.copy()
        down[i] -= step
        out[i] = (
            sse_loss(unflatten_params(model, up), X)
            - sse_loss(unflatten_params(model, down), X)
        ) / (2.0 * step)
    return out


def tiny_model(w1, b1, w2, b2):
    w1 = np.atleast_2d(np.asarray(w1, float))
    w2 = np.atleast_2d(np.asarray(w2, float))
    return AutoencoderModel(
        input_dim=w1.shape[1],
        hidden_dim=w1.shape[0],
        w1=w1,
        b1=np.asarray(b1, float),
        w2=w2,
        b2=np.asarray(b2, float),
        norm=NormalizationParams(0, 1, 0, 1),
    )


class TestInit:
    def test_same_seed_is_bit_identical(self):
        a = init_model(10, 6, seed=3)
        b = init_model(10, 6, seed=3)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_different_seeds_differ(self):
        a = init_model(10, 6, seed=3)
        b = init_model(10, 6, seed=4)
        assert not np.array_equal(a.w1, b.w1)

    def test_parameter_count_at_default_dims(self):
        model = init_model(100, 100, seed=0)
        assert model.n_params == 100 * 100 + 100 + 100 * 100 + 100 == 20_200

    def test_biases_start_at_zero(self):
        model = init_model(8, 5, seed=1)
        assert not model.b1.any() and not model.b2.any()

    def test_rejects_non_positive_dims(self):
        with pytest.raises(ValueError):
            init_model(0, 4, seed=0)


class TestForward:
    def test_symmetric_weights_cancel(self):
        model = tiny_model([[0.5, -0.5]], [0.0], [[1.0], [1.0]], [0.0, 0.0])
        assert np.allclose(reconstruct(model, np.array([[1.0, 1.0]])), [[0.0, 0.0]])

    def test_hand_evaluated_tanh_path(self):
        model = tiny_model([[0.5, -0.5]], [0.0], [[1.0], [1.0]], [0.0, 0.0])
        expected = math.tanh(0.5)
        assert np.allclose(reconstruct(model, np.array([[1.0, 0.0]])), [[expected, expected]])
        assert abs(expected - 0.4621172) < 5e-8

    def test_all_zero_model_outputs_zero(self):
        model = tiny_model(np.zeros((3, 4)), np.zeros(3), np.zeros((4, 3)), np.zeros(4))
        assert not reconstruct(model, np.array([[1.0, -2.0, 3.0, 0.5]])).any()

    def test_wrong_length_input_raises(self):
        model = init_model(6, 4, seed=0)
        with pytest.raises(DimensionMismatch):
            reconstruct(model, np.zeros((1, 5)))
        with pytest.raises(DimensionMismatch):
            reconstruct(model, np.zeros(6))

    def test_finite_inputs_give_finite_outputs(self):
        model = init_model(12, 9, seed=5)
        rng = np.random.default_rng(5)
        X = rng.normal(scale=100.0, size=(20, 12))
        assert np.all(np.isfinite(reconstruct(model, X)))


class TestSseLoss:
    def test_zero_for_perfect_reconstruction(self):
        # identity-ish: zero weights, bias equal to the constant input
        x = np.array([0.3, 0.7])
        model = tiny_model(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)), x)
        assert sse_loss(model, x[None, :]) == 0.0

    def test_unit_errors_sum_with_half_factor(self):
        model = tiny_model(np.zeros((1, 2)), [0.0], np.zeros((2, 1)), [1.0, 1.0])
        assert sse_loss(model, np.array([[0.0, 0.0]])) == 1.0  # 0.5 * (1 + 1)

    def test_additive_over_identical_samples(self):
        model = init_model(6, 4, seed=2)
        x = np.random.default_rng(2).uniform(size=(1, 6))
        single = sse_loss(model, x)
        double = sse_loss(model, np.vstack([x, x]))
        assert double == pytest.approx(2.0 * single, rel=1e-12)

    def test_non_negative_on_random_models(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            model = init_model(7, 3, seed=seed)
            X = rng.uniform(size=(4, 7))
            assert sse_loss(model, X) >= 0.0

    def test_empty_dataset_raises(self):
        model = init_model(4, 3, seed=0)
        with pytest.raises(EmptyDataset):
            sse_loss(model, np.zeros((0, 4)))


class TestGradient:
    def test_zero_model_on_zero_data_is_stationary(self):
        model = tiny_model(np.zeros((3, 4)), np.zeros(3), np.zeros((4, 3)), np.zeros(4))
        grad = gradient(model, np.zeros((1, 4)))
        assert not grad.any()

    def test_matches_finite_differences_on_seeded_model(self):
        model = init_model(10, 7, seed=0)
        X = np.random.default_rng(100).uniform(size=(5, 10))
        analytic = gradient(model, X)
        numeric = finite_difference_gradient(model, X)
        scale = np.max(np.abs(numeric))
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences_across_seeds(self, seed):
        model = init_model(10, 7, seed=seed)
        X = np.random.default_rng(200 + seed).uniform(size=(5, 10))
        analytic = gradient(model, X)
        numeric = finite_difference_gradient(model, X)
        scale = np.max(np.abs(numeric))
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    def test_scalar_model_matches_hand_chain_rule(self):
        a, b, c, d, x = 0.7, 0.2, -1.3, 0.4, 0.9
        model = tiny_model([[a]], [b], [[c]], [d])
        t = math.tanh(a * x + b)
        r = (c * t + d) - x
        expected = [
            r * c * (1.0 - t * t) * x,  # dE/dw1
            r * c * (1.0 - t * t),      # dE/db1
            r * t,                      # dE/dw2
            r,                          # dE/db2
        ]
        assert np.allclose(gradient(model, np.array([[x]])), expected, rtol=1e-12)

    def test_empty_dataset_raises(self):
        model = init_model(4, 3, seed=0)
        with pytest.raises(EmptyDataset):
            gradient(model, np.zeros((0, 4)))


def reference_loss_and_gradient(model, X):
    """The loss and gradient formulas, evaluated out of place on the model."""
    hidden = np.tanh(X @ model.w1.T + model.b1)
    residual = (hidden @ model.w2.T + model.b2) - X
    d_hidden = (residual @ model.w2) * (1.0 - hidden * hidden)
    grad = np.concatenate(
        [(d_hidden.T @ X).ravel(), d_hidden.sum(axis=0), (residual.T @ hidden).ravel(), residual.sum(axis=0)]
    )
    return 0.5 * float(np.sum(residual * residual)), grad


shapes_and_seed = st.tuples(
    st.integers(1, 6), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1)
)


def problem(shape):
    n, d, h, seed = shape
    rng = np.random.default_rng(seed)
    model = init_model(d, h, seed=seed)
    model = unflatten_params(model, rng.normal(size=model.n_params))
    return model, rng.uniform(-2.0, 2.0, size=(n, d)), rng


class TestObjective:
    @settings(max_examples=60, deadline=None)
    @given(shapes_and_seed)
    def test_equals_sse_loss_and_gradient_exactly(self, shape):
        model, X, _ = problem(shape)
        flat = flatten_params(model)
        loss, grad = reference_loss_and_gradient(model, X)
        with objective(model, X) as (f, g, _):
            assert f(flat) == sse_loss(model, X) == loss
            assert np.array_equal(g(flat), gradient(model, X))
            assert np.array_equal(g(flat), grad)

    @settings(max_examples=60, deadline=None)
    @given(shapes_and_seed)
    def test_gradient_away_from_last_point_is_fresh(self, shape):
        model, X, rng = problem(shape)
        flat = flatten_params(model)
        other = flat + rng.normal(size=flat.size)
        with objective(model, X) as (f, g, _):
            f(flat)
            assert np.array_equal(g(other), gradient(unflatten_params(model, other), X))
            assert np.array_equal(g(flat), gradient(model, X))

    @settings(max_examples=60, deadline=None)
    @given(shapes_and_seed, st.data())
    def test_in_place_change_after_f_is_never_stale(self, shape, data):
        model, X, _ = problem(shape)
        flat = flatten_params(model)
        with objective(model, X) as (f, g, _):
            f(flat)
            i = data.draw(st.integers(0, flat.size - 1))
            flat[i] = data.draw(st.floats(-3.0, 3.0).filter(lambda v: v != flat[i]))
            assert np.array_equal(g(flat), gradient(unflatten_params(model, flat), X))

    @settings(max_examples=30, deadline=None)
    @given(shapes_and_seed)
    def test_each_gradient_call_returns_a_new_array(self, shape):
        model, X, _ = problem(shape)
        flat = flatten_params(model)
        with objective(model, X) as (f, g, _):
            f(flat)
            first, second = g(flat), g(flat)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, second)

    def test_rejects_wrong_inputs(self):
        model = init_model(4, 3, seed=0)
        with pytest.raises(EmptyDataset), objective(model, np.zeros((0, 4))):
            pass
        with pytest.raises(DimensionMismatch), objective(model, np.zeros((2, 5))):
            pass
        with objective(model, np.zeros((2, 4))) as (f, g, _):
            with pytest.raises(DimensionMismatch):
                f(np.zeros(5))
            with pytest.raises(DimensionMismatch):
                g(np.zeros(5))


def unit_direction(rng, size):
    p = rng.normal(size=size)
    return p / np.linalg.norm(p)


class TestCurvature:
    @settings(max_examples=100, deadline=None)
    @given(shapes_and_seed)
    def test_float64_matches_central_difference_of_gradient(self, shape):
        # relative to |Hp|, the largest |p'Hp| for a unit direction p
        model, X, rng = problem(shape)
        flat, p = flatten_params(model), unit_direction(rng, model.n_params)
        step = 1e-5
        with objective(model, X) as (_, g, curvature):
            hessian_p = (g(flat + step * p) - g(flat - step * p)) / (2.0 * step)
            assert abs(curvature(flat, p) - hessian_p @ p) <= 1e-6 * np.linalg.norm(hessian_p)

    @settings(max_examples=60, deadline=None)
    @given(shapes_and_seed, st.sampled_from([np.float64, np.float32]))
    def test_after_gradient_equals_a_fresh_objective(self, shape, dtype):
        model, X, rng = problem(shape)
        flat, p = flatten_params(model), unit_direction(rng, model.n_params)
        with objective(model, X.astype(dtype)) as (_, _, fresh):
            expected = fresh(flat, p)
        with objective(model, X.astype(dtype)) as (f, g, curvature):
            f(flat)
            g(flat)
            assert curvature(flat, p) == expected

    @settings(max_examples=60, deadline=None)
    @given(shapes_and_seed)
    def test_spent_buffers_are_never_stale(self, shape):
        model, X, rng = problem(shape)
        flat, p = flatten_params(model), unit_direction(rng, model.n_params)
        with objective(model, X) as (f, g, curvature):
            f(flat)
            g(flat)
            first = curvature(flat, p)
            assert np.array_equal(g(flat), gradient(model, X))
            assert curvature(flat, p) == first
            assert f(flat) == sse_loss(model, X)

    def test_rejects_wrong_sizes(self):
        model = init_model(4, 3, seed=0)
        with objective(model, np.zeros((2, 4))) as (_, _, curvature):
            with pytest.raises(DimensionMismatch):
                curvature(np.zeros(5), np.zeros(model.n_params))
            with pytest.raises(DimensionMismatch):
                curvature(flatten_params(model), np.zeros(5))


class TestFloat32Objective:
    """float32 kernels against float64 on window-shaped data, at tolerances set from float32's epsilon."""

    EPS = float(np.finfo(np.float32).eps)

    def check(self, n, d, h, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, d))
        model = init_model(d, h, seed=seed)
        flat, p = flatten_params(model), unit_direction(rng, model.n_params)
        with objective(model, X) as (f64, g64, curvature64), objective(model, X.astype(np.float32)) as fused32:
            f32, g32, curvature32 = fused32
            assert abs(f32(flat) - f64(flat)) <= 10 * self.EPS * f64(flat)
            grad64, grad32 = g64(flat), g32(flat)
            assert grad32.dtype == np.float64
            assert np.max(np.abs(grad32 - grad64)) <= 100 * self.EPS * np.max(np.abs(grad64))
            assert abs(curvature32(flat, p) - curvature64(flat, p)) <= 100 * self.EPS * abs(curvature64(flat, p))

    @pytest.mark.parametrize("seed", range(5))
    def test_loss_gradient_and_curvature_within_tolerance_of_float64(self, seed):
        self.check(2000, 40, 20, seed)

    @pytest.mark.parametrize("seed", range(2))
    def test_row_block_partials_within_tolerance_of_float64(self, seed):
        # 9,000 x 100 windows at 100 hidden units: the shipped blocking sums 8 row blocks' partials.
        assert len(autoencoder._blocks(9000, 100 * 100)) == 8
        self.check(9000, 100, 100, seed)


class TestObjectiveMemory:
    def test_a_cycle_allocates_no_matrix_of_every_row(self, monkeypatch):
        # 8 row blocks on one CPU: the first cycle makes one buffer set, four
        # block-sized buffers, half an (n, d) matrix in all, and nothing of n rows.
        monkeypatch.setattr(autoencoder, "_usable_cpus", lambda: 1)
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(9000, 100)).astype(np.float32)
        model = init_model(100, 100, seed=3)
        flat, p = flatten_params(model), unit_direction(rng, model.n_params)
        with objective(model, X) as (f, g, curvature):
            tracemalloc.start()
            try:
                f(flat)
                g(flat)
                curvature(flat, p)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < X.nbytes


# (_BLOCK_WORK, _BLOCK_ALIGN) for the block tests: the shipped blocking, under
# which these small problems run as one block, and two fine ones that split them.
BLOCKINGS = [(autoencoder._BLOCK_WORK, autoencoder._BLOCK_ALIGN), (1, 1), (64, 4)]


def evaluations(model, X, count, flat, p, other):
    """f, g and the curvature at ``flat``, then g and f at ``other``, on a pool sized for ``count`` CPUs."""
    # mock, not monkeypatch: a function-scoped fixture would span every example of @given
    with mock.patch.object(autoencoder, "_usable_cpus", lambda: count), objective(model, X) as (f, g, curvature):
        return f(flat), g(flat).tobytes(), curvature(flat, p), g(other).tobytes(), f(other)


class TestBlocks:
    """The objective's blocks give the same bits however many workers run them."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 300),
        d=st.integers(1, 40),
        h=st.integers(1, 40),
        blocking=st.sampled_from(BLOCKINGS),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bits_on_one_two_and_three_cpus(self, n, d, h, blocking, dtype, seed):
        rng = np.random.default_rng(seed)
        model = init_model(d, h, seed=seed)
        flat, p, other = (rng.normal(size=model.n_params) for _ in range(3))
        X = rng.uniform(-2.0, 2.0, size=(n, d)).astype(dtype)
        work, align = blocking
        # mock, not monkeypatch: a function-scoped fixture would span every example of @given
        with mock.patch.multiple(autoencoder, _BLOCK_WORK=work, _BLOCK_ALIGN=align):
            serial, *pooled = (evaluations(model, X, count, flat, p, other) for count in (1, 2, 3))
        assert pooled == [serial, serial]

    @pytest.mark.parametrize("n,d,h", [(2100, 64, 64), (9000, 100, 100), (6000, 150, 40)])
    def test_same_bits_at_sizes_the_shipped_blocking_splits(self, n, d, h):
        rng = np.random.default_rng(n)
        model = init_model(d, h, seed=1)
        flat, p, other = (rng.normal(scale=0.1, size=model.n_params) for _ in range(3))
        X = rng.uniform(size=(n, d)).astype(np.float32)
        assert len(autoencoder._blocks(n, d * h)) > 1  # the rows are split
        serial, *pooled = (evaluations(model, X, count, flat, p, other) for count in (1, 2, 3))
        assert pooled == [serial, serial]

    def test_same_bits_on_more_workers_than_blocks_switching_often(self):
        rng = np.random.default_rng(5)
        model = init_model(12, 9, seed=5)
        flat, p, other = (rng.normal(size=model.n_params) for _ in range(3))
        X = rng.uniform(size=(15, 12)).astype(np.float32)
        interval = sys.getswitchinterval()
        with mock.patch.multiple(autoencoder, _BLOCK_WORK=1, _BLOCK_ALIGN=1):
            assert len(autoencoder._blocks(15, 12 * 9)) == 4  # on up to _MAX_BLOCKS = 8 workers
            serial = evaluations(model, X, 1, flat, p, other)
            sys.setswitchinterval(1e-6)
            try:
                pooled = [evaluations(model, X, 16, flat, p, other) for _ in range(20)]
            finally:
                sys.setswitchinterval(interval)
        assert pooled == [serial] * 20

    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(0, 100_000), work_per_item=st.integers(1, 10**7))
    def test_blocks_cover_the_range_in_large_aligned_parts(self, size, work_per_item):
        blocks = autoencoder._blocks(size, work_per_item)
        edges = [block.start for block in blocks] + [size]
        assert [block.stop for block in blocks] == edges[1:]
        assert edges[0] == 0
        count = len(blocks)
        assert count <= autoencoder._MAX_BLOCKS and count & (count - 1) == 0
        if count > 1:
            assert all(edge % autoencoder._BLOCK_ALIGN == 0 for edge in edges[1:-1])
            assert all((block.stop - block.start) * work_per_item >= autoencoder._BLOCK_WORK for block in blocks)


class TestUsableCpus:
    """The pool's size: the CPU affinity, capped by a cgroup v2 CPU quota where one is set."""

    @pytest.mark.parametrize(
        "limit,expected",
        [
            ("max 100000\n", 64),
            ("200000 100000\n", 2),
            ("150000 100000\n", 2),
            ("50000 100000\n", 1),
            ("6400000 100000\n", 64),
            ("garbled\n", 64),
            (None, 64),
        ],
    )
    def test_quota_caps_the_affinity(self, limit, expected, tmp_path, monkeypatch):
        path = tmp_path / "cpu.max"
        if limit is not None:
            path.write_text(limit)
        monkeypatch.setattr(autoencoder, "_CPU_MAX", str(path))
        monkeypatch.setattr(autoencoder.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert autoencoder._usable_cpus() == expected


class TestPool:
    """``_pool``'s buffer sets: made in the calling thread, one per block that can run at once, and reused."""

    @staticmethod
    def sets(made):
        """A ``new_buffers`` that records the thread that makes each set."""

        def new_buffers():
            made.append(threading.current_thread())
            return [len(made)]

        return new_buffers

    @pytest.mark.parametrize("count,calls,expected", [
        (1, [8, 8], 1),
        (3, [1], 1),
        (3, [2], 2),
        (3, [2, 8, 5], 3),
        (64, [8, 8], autoencoder._MAX_BLOCKS),
    ])
    def test_a_call_makes_sets_only_in_the_calling_thread_for_the_blocks_that_run_at_once(
        self, count, calls, expected, monkeypatch
    ):
        monkeypatch.setattr(autoencoder, "_usable_cpus", lambda: count)
        made, seen = [], []
        with autoencoder._pool(self.sets(made)) as run:
            for blocks in calls:
                run(lambda block, buffers: seen.append((block, buffers[0])), range(blocks))
        assert made == [threading.current_thread()] * expected
        assert sorted(block for block, _ in seen) == sorted(block for blocks in calls for block in range(blocks))
        assert {number for _, number in seen} <= set(range(1, expected + 1))

    def test_a_failed_block_hands_its_set_on_to_later_blocks(self, monkeypatch):
        # Every one of twice as many blocks as workers fails: each still gets a set,
        # and the call after the failed one reuses the sets rather than making more.
        monkeypatch.setattr(autoencoder, "_usable_cpus", lambda: 3)
        made, seen = [], []
        failure = ArithmeticError("raised in a block")

        def failing(block, buffers):
            seen.append(buffers[0])
            time.sleep(0.001)
            raise failure

        with autoencoder._pool(self.sets(made)) as run:
            with pytest.raises(ArithmeticError) as raised:
                run(failing, range(6))
            assert raised.value is failure
            assert len(seen) == 6 and set(seen) <= {1, 2, 3}
            run(lambda block, buffers: seen.append(buffers[0]), range(6))
        assert len(made) == 3 and len(seen) == 12


class TestFlattening:
    def test_flatten_unflatten_round_trip(self):
        model = init_model(9, 5, seed=6)
        flat = flatten_params(model)
        again = flatten_params(unflatten_params(model, flat))
        assert np.array_equal(flat, again)

    def test_flattening_order_is_w1_b1_w2_b2(self):
        model = init_model(3, 2, seed=0)
        flat = flatten_params(model)
        assert np.array_equal(flat[:6], model.w1.ravel())
        assert np.array_equal(flat[6:8], model.b1)
        assert np.array_equal(flat[8:14], model.w2.ravel())
        assert np.array_equal(flat[14:], model.b2)

    def test_wrong_size_vector_raises(self):
        model = init_model(3, 2, seed=0)
        with pytest.raises(DimensionMismatch):
            unflatten_params(model, np.zeros(5))


class TestPersistence:
    def test_round_trip_preserves_forward_outputs(self):
        model = init_model(10, 8, seed=9, norm=NormalizationParams(0, 900, 2, 80))
        restored = load_model(save_model(model))
        rng = np.random.default_rng(9)
        X = rng.uniform(-2, 2, size=(10, 10))
        assert np.max(np.abs(reconstruct(model, X) - reconstruct(restored, X))) < 1e-12

    def test_round_trip_preserves_metadata(self):
        norm = NormalizationParams(1.5, 900.25, 2.0, 80.125)
        model = init_model(10, 8, seed=9, norm=norm)
        restored = load_model(save_model(model))
        assert restored.k == 5
        assert restored.norm == norm
        assert restored.input_dim == 10 and restored.hidden_dim == 8

    def test_corrupted_stream_is_bad_format(self):
        data = save_model(init_model(4, 3, seed=0))
        with pytest.raises(BadFormat):
            load_model(data[: len(data) // 2])
        with pytest.raises(BadFormat):
            load_model(b"\x00\x01\xff garbage")

    def test_missing_field_is_bad_format(self):
        import json

        doc = json.loads(save_model(init_model(4, 3, seed=0)))
        del doc["w1"]
        with pytest.raises(BadFormat):
            load_model(json.dumps(doc).encode())

    def test_wrong_layout_version_is_version_mismatch(self):
        import json

        doc = json.loads(save_model(init_model(4, 3, seed=0)))
        doc["layout_version"] = 2
        with pytest.raises(VersionMismatch):
            load_model(json.dumps(doc).encode())

    @pytest.mark.parametrize("layout", ["withdraw_then_announce_oldest_first", None])
    def test_foreign_or_missing_layout_is_version_mismatch(self, layout):
        import json

        doc = json.loads(save_model(init_model(4, 3, seed=0)))
        if layout is None:
            del doc["layout"]
        else:
            doc["layout"] = layout
        with pytest.raises(VersionMismatch, match=f"unsupported layout: {layout!r}"):
            load_model(json.dumps(doc).encode())

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    def test_non_finite_normalization_bound_is_bad_format(self, bound):
        import json

        doc = json.loads(save_model(init_model(4, 3, seed=0)))
        doc["norm"]["a_min"] = bound  # json writes NaN, Infinity or -Infinity, and reads them back
        with pytest.raises(BadFormat, match="normalization bounds must be finite"):
            load_model(json.dumps(doc).encode())

    @pytest.mark.parametrize("key", ["format_version", "layout_version"])
    @pytest.mark.parametrize("value", [True, 1.0], ids=["true", "float"])
    def test_version_equal_to_1_but_not_the_integer_is_version_mismatch(self, key, value):
        import json

        doc = json.loads(save_model(init_model(4, 3, seed=0)))
        doc[key] = value  # True == 1 and 1.0 == 1 in Python
        with pytest.raises(VersionMismatch, match=re.escape(f"unsupported {key}: {value!r}")):
            load_model(json.dumps(doc).encode())

    def test_wrong_format_version_is_version_mismatch(self):
        import json

        doc = json.loads(save_model(init_model(4, 3, seed=0)))
        doc["format_version"] = 99
        with pytest.raises(VersionMismatch):
            load_model(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "changes,message",
        [
            (dict(hidden_dim=7), "weight array lengths"),
            (dict(hidden_dim=0, w1=[], b1=[], w2=[]), "dimensions must be >= 1"),
            (dict(input_dim=0, k=0, w1=[], w2=[], b2=[]), "dimensions must be >= 1"),
            (dict(k=2.7), "dimensions must be integers with input_dim = 2k"),
            (dict(input_dim=4.9), "dimensions must be integers with input_dim = 2k"),
            (dict(input_dim=4.0), "dimensions must be integers with input_dim = 2k"),
            (dict(k="2"), "dimensions must be integers with input_dim = 2k"),
            (dict(hidden_dim=True), "dimensions must be integers with input_dim = 2k"),
            (dict(k=3), "dimensions must be integers with input_dim = 2k"),
        ],
        ids=["hidden_7", "hidden_0", "input_0", "k_float", "input_float", "input_integral_float", "k_string",
             "hidden_bool", "input_not_2k"],
    )
    def test_inconsistent_dims_is_bad_format(self, changes, message):
        import json

        doc = json.loads(save_model(init_model(4, 3, seed=0)))
        doc.update(changes)
        with pytest.raises(BadFormat, match=message):
            load_model(json.dumps(doc).encode())

    def test_document_declares_versions_and_layout(self):
        import json

        document = json.loads(save_model(init_model(10, 8, seed=1)))
        assert document["format_version"] == 1
        assert document["layout_version"] == 1
        assert document["layout"] == "announce_then_withdraw_oldest_first"
        assert set(document) >= {"k", "input_dim", "hidden_dim", "norm", "w1", "b1", "w2", "b2"}


class TestModelDocument:
    """The parameter table read from every side: document bytes, flat vector, parameter count and k."""

    def test_document_bytes_are_pinned(self):
        # Hand-picked floats rather than random draws, so the bytes do not depend on numpy's generator.
        model = AutoencoderModel(
            input_dim=2, hidden_dim=1, w1=np.array([[0.5, -0.25]]), b1=np.array([0.1]),
            w2=np.array([[1.5], [-2.0]]), b2=np.array([1e-300, 3.0]), norm=NormalizationParams(0.0, 900.5, 2.0, 80.25),
        )
        assert save_model(model) == (
            b'{\n "format_version": 1,\n "k": 1,\n "input_dim": 2,\n "hidden_dim": 1,\n "layout_version": 1,\n'
            b' "layout": "announce_then_withdraw_oldest_first",\n'
            b' "norm": {\n  "a_min": 0.0,\n  "a_max": 900.5,\n  "w_min": 2.0,\n  "w_max": 80.25\n },\n'
            b' "w1": [\n  0.5,\n  -0.25\n ],\n "b1": [\n  0.1\n ],\n "w2": [\n  1.5,\n  -2.0\n ],\n'
            b' "b2": [\n  1e-300,\n  3.0\n ]\n}\n'
        )

    @settings(max_examples=100, deadline=None)
    @given(input_dim=st.integers(1, 12), hidden_dim=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_round_trips_over_any_dimensions(self, input_dim, hidden_dim, seed):
        rng = np.random.default_rng(seed)
        a_min, w_min = (float(v) for v in rng.uniform(-1e3, 1e3, 2))
        a_span, w_span = (float(v) for v in rng.uniform(0.0, 1e3, 2))
        norm = NormalizationParams(a_min, a_min + a_span, w_min, w_min + w_span)
        model = init_model(input_dim, hidden_dim, seed=seed, norm=norm)
        model = unflatten_params(model, rng.normal(size=model.n_params))
        flat = flatten_params(model)
        assert len(flat) == model.n_params
        again = unflatten_params(model, flat)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(again, name).view(np.uint64), getattr(model, name).view(np.uint64))
        assert model.k == max(1, input_dim // 2)
        if input_dim % 2:  # a document declares input_dim = 2k, so a model of odd width cannot be persisted
            with pytest.raises(BadFormat, match="input_dim = 2k"):
                save_model(model)
        else:
            data = save_model(model)
            assert save_model(load_model(data)) == data
