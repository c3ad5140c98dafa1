"""Forward pass, loss, analytic gradient, and model persistence."""

import contextlib
import math
import re
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bgpnovelty import autoencoder
from bgpnovelty.autoencoder import (
    AutoencoderModel,
    BadFormat,
    DimensionMismatch,
    EmptyDataset,
    VersionMismatch,
    flatten_params,
    init_model,
    load_model,
    objective,
    reconstruct,
    save_model,
    unflatten_params,
)
from bgpnovelty.features import NormalizationParams


def finite_difference_gradient(model, X, step=1e-5):
    """Central-difference oracle over the flattened parameters, from the loss ``f`` of one objective."""
    flat = flatten_params(model)
    out = np.empty_like(flat)
    with objective(model, X) as (f, _, _):
        for i in range(flat.size):
            up = flat.copy()
            up[i] += step
            down = flat.copy()
            down[i] -= step
            out[i] = (f(up) - f(down)) / (2.0 * step)
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
    """The loss ``f`` of :func:`objective`, half the summed squared error, at the model's own parameters."""

    def test_zero_for_perfect_reconstruction(self):
        # identity-ish: zero weights, bias equal to the constant input
        x = np.array([0.3, 0.7])
        model = tiny_model(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)), x)
        with objective(model, x[None, :]) as (f, _, _):
            assert f(flatten_params(model)) == 0.0

    def test_unit_errors_sum_with_half_factor(self):
        model = tiny_model(np.zeros((1, 2)), [0.0], np.zeros((2, 1)), [1.0, 1.0])
        with objective(model, np.array([[0.0, 0.0]])) as (f, _, _):
            assert f(flatten_params(model)) == 1.0  # 0.5 * (1 + 1)

    def test_additive_over_identical_samples(self):
        model = init_model(6, 4, seed=2)
        flat = flatten_params(model)
        x = np.random.default_rng(2).uniform(size=(1, 6))
        with objective(model, x) as (single, _, _), objective(model, np.vstack([x, x])) as (double, _, _):
            assert double(flat) == pytest.approx(2.0 * single(flat), rel=1e-12)

    def test_non_negative_on_random_models(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            model = init_model(7, 3, seed=seed)
            with objective(model, rng.uniform(size=(4, 7))) as (f, _, _):
                assert f(flatten_params(model)) >= 0.0

    def test_empty_dataset_raises(self):
        model = init_model(4, 3, seed=0)
        with pytest.raises(EmptyDataset), objective(model, np.zeros((0, 4))) as (f, _, _):
            f(flatten_params(model))


class TestGradient:
    """The gradient ``g`` of :func:`objective`, at the model's own parameters."""

    def test_zero_model_on_zero_data_is_stationary(self):
        model = tiny_model(np.zeros((3, 4)), np.zeros(3), np.zeros((4, 3)), np.zeros(4))
        with objective(model, np.zeros((1, 4))) as (_, g, _):
            assert not g(flatten_params(model)).any()

    def test_matches_finite_differences_on_seeded_model(self):
        model = init_model(10, 7, seed=0)
        X = np.random.default_rng(100).uniform(size=(5, 10))
        with objective(model, X) as (_, g, _):
            analytic = g(flatten_params(model))
        numeric = finite_difference_gradient(model, X)
        scale = np.max(np.abs(numeric))
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences_across_seeds(self, seed):
        model = init_model(10, 7, seed=seed)
        X = np.random.default_rng(200 + seed).uniform(size=(5, 10))
        with objective(model, X) as (_, g, _):
            analytic = g(flatten_params(model))
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
        with objective(model, np.array([[x]])) as (_, g, _):
            assert np.allclose(g(flatten_params(model)), expected, rtol=1e-12)

    def test_empty_dataset_raises(self):
        model = init_model(4, 3, seed=0)
        with pytest.raises(EmptyDataset), objective(model, np.zeros((0, 4))) as (_, g, _):
            g(flatten_params(model))


def reference_loss_and_gradient(model, X):
    """The loss and gradient formulas, evaluated out of place on the model, with the objective's BLAS reductions."""
    hidden = np.tanh(X @ model.w1.T + model.b1)
    residual = (hidden @ model.w2.T + model.b2) - X
    d_hidden = (residual @ model.w2) * (1.0 - hidden * hidden)
    ones = np.ones(X.shape[0])
    grad = np.concatenate(
        [(d_hidden.T @ X).ravel(), ones @ d_hidden, (residual.T @ hidden).ravel(), ones @ residual]
    )
    return 0.5 * float(residual.ravel() @ residual.ravel()), grad


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
    def test_equals_the_reference_exactly(self, shape):
        model, X, _ = problem(shape)
        flat = flatten_params(model)
        loss, grad = reference_loss_and_gradient(model, X)
        with objective(model, X) as (f, g, _):
            assert f(flat) == loss
            assert np.array_equal(g(flat), grad)

    @settings(max_examples=60, deadline=None)
    @given(shapes_and_seed)
    def test_gradient_away_from_last_point_is_fresh(self, shape):
        model, X, rng = problem(shape)
        flat = flatten_params(model)
        other = flat + rng.normal(size=flat.size)
        with objective(model, X) as (f, g, _):
            f(flat)
            assert np.array_equal(g(other), reference_loss_and_gradient(unflatten_params(model, other), X)[1])
            assert np.array_equal(g(flat), reference_loss_and_gradient(model, X)[1])

    @settings(max_examples=60, deadline=None)
    @given(shapes_and_seed, st.data())
    def test_in_place_change_after_f_is_never_stale(self, shape, data):
        model, X, _ = problem(shape)
        flat = flatten_params(model)
        with objective(model, X) as (f, g, _):
            f(flat)
            i = data.draw(st.integers(0, flat.size - 1))
            flat[i] = data.draw(st.floats(-3.0, 3.0).filter(lambda v: v != flat[i]))
            assert np.array_equal(g(flat), reference_loss_and_gradient(unflatten_params(model, flat), X)[1])

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
        loss, grad = reference_loss_and_gradient(model, X)
        with objective(model, X) as (f, g, curvature):
            f(flat)
            g(flat)
            first = curvature(flat, p)
            assert np.array_equal(g(flat), grad)
            assert curvature(flat, p) == first
            assert f(flat) == loss

    @settings(max_examples=60, deadline=None)
    @given(shapes_and_seed, st.sampled_from([np.float64, np.float32]), st.integers(-40, 40))
    def test_a_power_of_two_in_the_direction_scales_the_curvature_exactly(self, shape, dtype, k):
        model, X, rng = problem(shape)
        flat, p = flatten_params(model), rng.normal(size=model.n_params)
        with objective(model, X.astype(dtype)) as (_, _, curvature):
            assert curvature(flat, 2.0**k * p) == 4.0**k * curvature(flat, p)

    @staticmethod
    def float32_error(X, model, flat, p):
        """The float32 curvature's error relative to the float64 one, along ``p`` at ``flat``."""
        with objective(model, X) as (_, _, curvature64), objective(model, X.astype(np.float32)) as (_, _, curvature32):
            expected = curvature64(flat, p)
            return abs(curvature32(flat, p) - expected) / abs(expected)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.integers(16, 2000),
        inputs=st.integers(2, 60),
        hidden=st.integers(2, 40),
        weight_scale=st.floats(0.3, 3.0),
        norm_exponent=st.floats(-3.0, 6.0),
        zero_layer=st.sampled_from([None, 0, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    # Points of TestFloat32Objective's 2,000 x 40 windows at 20 hidden units whose float32 terms cancel 1,120-,
    # 6,680- and 164,000-fold: p'Hp is 1.7e-4, 1.4e-3 and 4.1e-2 off there unless the objective takes it
    # again in float64.
    @example(rows=2000, inputs=40, hidden=20, weight_scale=1.9375, norm_exponent=0.0, zero_layer=None, seed=3325366)
    @example(rows=2000, inputs=40, hidden=20, weight_scale=1.875, norm_exponent=0.0, zero_layer=None, seed=3325366)
    @example(
        rows=2000, inputs=40, hidden=20, weight_scale=2.600835620154678, norm_exponent=0.0, zero_layer=1, seed=140
    )
    def test_float32_within_tolerance_of_float64_over_scales(
        self, rows, inputs, hidden, weight_scale, norm_exponent, zero_layer, seed
    ):
        # Windows of every shape at scaled initial weights, along directions of |p| from 1e-3 to 1e6, some with
        # a zero first-layer (w1, b1) or second-layer (w2, b2) part.
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(rows, inputs))
        model = init_model(inputs, hidden, seed=seed)
        flat, p = weight_scale * flatten_params(model), rng.normal(size=model.n_params)
        if zero_layer is not None:
            for part in autoencoder._split(model, p)[2 * zero_layer : 2 * zero_layer + 2]:
                part[:] = 0.0
        p *= 10.0**norm_exponent / np.linalg.norm(p)
        assert self.float32_error(X, model, flat, p) <= 1e-4

    def test_float32_within_tolerance_where_a_gradient_term_dwarfs_the_curvature(self):
        # 817 x 24 windows at 43 hidden units and initial weights x 0.3: along this direction <r, h p2'> is 28,
        # <r, h' w2'> 2.8 and p'Hp 0.54. The cross term's difference cancels the 2.8; taken as
        # <r, z> - <r'h, p2>, which cancels the 28, it lost 2e-4 of p'Hp. The terms cancel 82-fold, so p'Hp is
        # taken again in float64; the float32 one alone is 9.1e-6 off.
        rng = np.random.default_rng(43)
        X = rng.uniform(size=(817, 24))
        model = init_model(24, 43, seed=43)
        flat, p = 0.3 * flatten_params(model), rng.normal(size=model.n_params)
        assert self.float32_error(X, model, flat, p / np.linalg.norm(p)) <= 1e-4

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


@contextlib.contextmanager
def counted_passes():
    """The block count of every pass that objectives opened inside the ``with`` block run, on blocks of a few rows."""
    passes = []
    pool = autoencoder._pool

    @contextlib.contextmanager
    def counted(new_buffers):
        with pool(new_buffers) as run:

            def counting(task, blocks):
                passes.append(len(blocks))
                run(task, blocks)

            yield counting

    # mock, not monkeypatch: a function-scoped fixture would span every example of @given
    with mock.patch.multiple(autoencoder, _pool=counted, _BLOCK_WORK=1, _BLOCK_ALIGN=1):
        yield passes


class TestEvaluationCount:
    """``f`` leaves the gradient's partials with the layers: ``g`` there only adds them, ``curvature`` adds one pass."""

    @settings(max_examples=40, deadline=None)
    @given(shapes_and_seed, st.sampled_from([np.float64, np.float32]))
    def test_gradient_at_the_point_of_f_runs_no_block(self, shape, dtype):
        model, X, _ = problem(shape)
        flat = flatten_params(model)
        with counted_passes() as passes, objective(model, X.astype(dtype)) as (f, g, _):
            f(flat)
            assert len(passes) == 1
            assert np.array_equal(g(flat), g(flat))
            assert len(passes) == 1

    @settings(max_examples=40, deadline=None)
    @given(shapes_and_seed, st.sampled_from([np.float64, np.float32]), st.booleans())
    def test_curvature_at_the_point_of_f_runs_one_pass(self, shape, dtype, after_gradient):
        model, X, rng = problem(shape)
        flat, p = flatten_params(model), unit_direction(rng, model.n_params)
        with counted_passes() as passes, objective(model, X.astype(dtype)) as (f, g, curvature):
            f(flat)
            if after_gradient:
                g(flat)
            curvature(flat, p)
            assert passes == [len(autoencoder._blocks(X.shape[0], X.shape[1] * model.hidden_dim))] * 2

    @settings(max_examples=40, deadline=None)
    @given(shapes_and_seed, st.sampled_from([np.float64, np.float32]))
    def test_gradient_after_a_rejected_trial_equals_a_fresh_objective(self, shape, dtype):
        # f at a trial point that SCG rejects leaves that point's layers: g and the curvature at the earlier one start over.
        model, X, rng = problem(shape)
        flat, p = flatten_params(model), unit_direction(rng, model.n_params)
        trial = flat + rng.normal(size=flat.size)
        X = X.astype(dtype)
        with counted_passes(), objective(model, X) as (_, fresh_g, fresh_curvature):
            expected = fresh_g(flat).tobytes(), fresh_curvature(flat, p)
        with counted_passes() as passes, objective(model, X) as (f, g, curvature):
            f(flat)
            f(trial)
            assert (g(flat).tobytes(), curvature(flat, p)) == expected
            assert len(passes) == 4


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

    @pytest.mark.parametrize("count,expected", [(64, 2), (None, 1)])
    def test_cpu_count_where_the_platform_reports_no_affinity(self, count, expected, tmp_path, monkeypatch):
        path = tmp_path / "cpu.max"
        path.write_text("200000 100000\n")
        monkeypatch.setattr(autoencoder, "_CPU_MAX", str(path))
        monkeypatch.delattr(autoencoder.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(autoencoder.os, "cpu_count", lambda: count)
        assert autoencoder._usable_cpus() == expected


class TestPool:
    """``_pool``: the calling thread runs blocks with one task per helper, on buffer sets made in it and reused."""

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
        (3, [0, 2], 2),
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

    def test_the_calling_thread_and_each_helper_run_a_block_at_once(self, monkeypatch):
        # Three blocks on three CPUs meet at a barrier, which opens only when three threads hold one each.
        monkeypatch.setattr(autoencoder, "_usable_cpus", lambda: 3)
        meeting, threads = threading.Barrier(3, timeout=10), set()

        def meet(block, buffers):
            threads.add(threading.current_thread())
            meeting.wait()

        with autoencoder._pool(self.sets([])) as run:
            run(meet, range(3))
        assert threading.current_thread() in threads and len(threads) == 3

    def test_every_block_runs_once_on_more_workers_than_cores_switching_often(self, monkeypatch):
        # The workers share one iterator of blocks: a block taken twice, or lost, would show in the count.
        monkeypatch.setattr(autoencoder, "_usable_cpus", lambda: 64)
        ran = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with autoencoder._pool(self.sets([])) as run:
                for _ in range(20):
                    run(lambda block, buffers: ran.append(block), range(500))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(ran) == sorted(list(range(500)) * 20)

    @pytest.mark.parametrize("count,calls", [(1, [8, 8]), (2, [8, 1, 8]), (3, [2, 8, 5]), (64, [8, 3])])
    def test_a_call_hands_one_task_to_each_helper(self, count, calls, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        monkeypatch.setattr(autoencoder, "_usable_cpus", lambda: count)
        submitted, per_call = [], []
        submit = ThreadPoolExecutor.submit

        def counted(executor, *args, **kwargs):
            submitted.append(executor._max_workers)
            return submit(executor, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", counted)
        workers = min(count, autoencoder._MAX_BLOCKS)
        with autoencoder._pool(self.sets([])) as run:
            for blocks in calls:
                before = len(submitted)
                run(lambda block, buffers: None, range(blocks))
                per_call.append(len(submitted) - before)
        assert per_call == [min(workers, blocks) - 1 for blocks in calls]
        assert set(submitted) <= {workers - 1}  # the pool has one thread per CPU but one

    @pytest.mark.parametrize("count", [1, 3])
    def test_a_failure_raises_the_first_failed_block_in_block_order_with_every_set_back(self, count, monkeypatch):
        # Blocks 2, 5 and 6 of 8 fail, block 2 last in time: every block runs and block 2's error is
        # raised. The next call then runs a block on every set at once and makes none.
        monkeypatch.setattr(autoencoder, "_usable_cpus", lambda: count)
        made, ran, held = [], [], []
        failures = {block: ArithmeticError(f"raised in block {block}") for block in (2, 5, 6)}

        def failing(block, buffers):
            if block == 2:
                time.sleep(0.05)
            ran.append(block)
            if block in failures:
                raise failures[block]

        meeting = threading.Barrier(count, timeout=10)

        def meet(block, buffers):
            held.append(buffers[0])
            meeting.wait()

        with autoencoder._pool(self.sets(made)) as run:
            with pytest.raises(ArithmeticError) as raised:
                run(failing, range(8))
            assert raised.value is failures[2]
            assert sorted(ran) == list(range(8))
            run(meet, range(count))
        assert len(made) == count and sorted(held) == list(range(1, count + 1))


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


class TestModelFields:
    @pytest.mark.parametrize("name", ["w1", "b1", "w2", "b2"])
    def test_an_array_of_another_shape_raises(self, name):
        model = init_model(4, 3, seed=0)
        arrays = {key: getattr(model, key) for key in ("w1", "b1", "w2", "b2")}
        arrays[name] = arrays[name].T[..., None]
        with pytest.raises(DimensionMismatch, match=f"{name} has shape"):
            AutoencoderModel(4, 3, norm=model.norm, **arrays)


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

    @pytest.mark.parametrize("data", [b"[]", b"5", b'"model"', b"null"])
    def test_document_that_is_not_an_object_is_bad_format(self, data):
        with pytest.raises(BadFormat, match="model document must be a JSON object"):
            load_model(data)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_weight_is_bad_format(self, value):
        import json

        doc = json.loads(save_model(init_model(4, 3, seed=0)))
        doc["w2"][5] = value  # json writes NaN or Infinity, and reads them back
        with pytest.raises(BadFormat, match="w2 contains non-finite values"):
            load_model(json.dumps(doc).encode())

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

    @pytest.mark.parametrize(
        "key,index,value,kinds",
        [
            ("w1", 0, "0.5", ["str"]),
            ("w1", 1, True, ["bool"]),
            ("b2", 0, None, ["NoneType"]),
            ("w2", 2, [0.5], ["list"]),
            ("norm", "a_max", True, ["bool"]),
            ("norm", "w_max", "7", ["str"]),
            ("w1", slice(0, 2), ["0.5", True], ["bool", "str"]),
        ],
        ids=["weight_string", "weight_true", "weight_null", "weight_list", "bound_true", "bound_string", "both"],
    )
    def test_weight_or_bound_that_is_not_a_json_number_is_bad_format(self, key, index, value, kinds):
        import json

        doc = json.loads(save_model(init_model(4, 3, seed=0)))
        doc[key][index] = value  # float() and numpy would read "0.5" as 0.5 and true as 1.0
        with pytest.raises(BadFormat, match=re.escape(f"must be JSON numbers, not {kinds}")):
            load_model(json.dumps(doc).encode())

    def test_integer_weights_and_bounds_load_as_floats(self):
        import json

        doc = json.loads(save_model(init_model(4, 3, seed=0)))
        doc["w1"] = list(range(-6, 6))
        doc["norm"] = {"a_min": 0, "a_max": 900, "w_min": 2, "w_max": 80}
        model = load_model(json.dumps(doc).encode())
        assert model.w1.dtype == np.float64 and model.w1.ravel().tolist() == list(range(-6, 6))
        assert model.norm == NormalizationParams(0.0, 900.0, 2.0, 80.0)
        assert all(type(bound) is float for bound in vars(model.norm).values())

    @pytest.mark.parametrize("key,index", [("w1", 0), ("norm", "a_max")])
    def test_integer_past_float64_is_bad_format(self, key, index):
        import json

        doc = json.loads(save_model(init_model(4, 3, seed=0)))
        doc[key][index] = 10**400
        with pytest.raises(BadFormat, match="int too large to convert to float"):
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
