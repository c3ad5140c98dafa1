"""Auto-associative two-layer perceptron with analytic gradients.

The network maps an input vector back onto itself through one tanh hidden
layer and a linear output layer:

    y = w2 @ tanh(w1 @ x + b1) + b2

with as many outputs as inputs. Trained on normal traffic only, its
reconstruction error on unseen data is the novelty signal. Parameter
flattening order (w1 row-major, b1, w2 row-major, b2) and the window layout
are frozen and versioned so that a persisted model scores exactly like the
instance that was trained.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .features import NormalizationParams

MODEL_FORMAT_VERSION = 1
LAYOUT_VERSION = 1
LAYOUT_NAME = "announce_then_withdraw_oldest_first"

IDENTITY_NORM = NormalizationParams(0.0, 1.0, 0.0, 1.0)


class DimensionMismatch(ValueError):
    pass


class EmptyDataset(ValueError):
    pass


class BadFormat(ValueError):
    """Model document is corrupt, incomplete, or internally inconsistent."""


class VersionMismatch(ValueError):
    """Model document uses an unsupported format or layout version."""


@dataclass(frozen=True)
class AutoencoderModel:
    """Weights, biases, and the preprocessing metadata they were trained with.

    Shapes: w1 is (hidden_dim, input_dim), b1 (hidden_dim,), w2
    (input_dim, hidden_dim), b2 (input_dim,). ``k`` and ``norm`` describe
    the window layout the model expects; ``input_dim`` equals 2k for
    pipeline models but is free for bare test models.
    """

    input_dim: int
    hidden_dim: int
    w1: np.ndarray = field(repr=False)
    b1: np.ndarray = field(repr=False)
    w2: np.ndarray = field(repr=False)
    b2: np.ndarray = field(repr=False)
    k: int
    norm: NormalizationParams

    def __post_init__(self):
        expected = {
            "w1": (self.hidden_dim, self.input_dim),
            "b1": (self.hidden_dim,),
            "w2": (self.input_dim, self.hidden_dim),
            "b2": (self.input_dim,),
        }
        for name, shape in expected.items():
            array = np.asarray(getattr(self, name), dtype=np.float64)
            if array.shape != shape:
                raise DimensionMismatch(f"{name} has shape {array.shape}, expected {shape}")
            if not np.all(np.isfinite(array)):
                raise ValueError(f"{name} contains non-finite values")
            object.__setattr__(self, name, array)

    @property
    def n_params(self) -> int:
        return self.hidden_dim * self.input_dim + self.hidden_dim + self.input_dim * self.hidden_dim + self.input_dim


def init_model(
    input_dim: int,
    hidden_dim: int,
    seed: int,
    k: int | None = None,
    norm: NormalizationParams = IDENTITY_NORM,
) -> AutoencoderModel:
    """Seeded Gaussian initialization.

    Weights are zero-mean with standard deviation 1/sqrt(fan-in of the
    receiving layer); biases start at zero. Deterministic given the seed
    (w1 is drawn before w2).
    """
    if input_dim < 1 or hidden_dim < 1:
        raise ValueError("dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    w1 = rng.normal(0.0, 1.0 / math.sqrt(input_dim), size=(hidden_dim, input_dim))
    w2 = rng.normal(0.0, 1.0 / math.sqrt(hidden_dim), size=(input_dim, hidden_dim))
    return AutoencoderModel(
        input_dim=input_dim,
        hidden_dim=hidden_dim,
        w1=w1,
        b1=np.zeros(hidden_dim),
        w2=w2,
        b2=np.zeros(input_dim),
        k=input_dim // 2 if k is None else k,
        norm=norm,
    )


def reconstruct(model: AutoencoderModel, X: np.ndarray) -> np.ndarray:
    """Forward pass over the rows of X, shape (n, input_dim)."""
    _check_matrix(model, X)
    hidden, out = np.empty((X.shape[0], model.hidden_dim)), np.empty((X.shape[0], model.input_dim))
    return _forward(X, model.w1, model.b1, model.w2, model.b2, hidden, out)


def _forward(X, w1, b1, w2, b2, hidden: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``tanh(X @ w1.T + b1)`` into ``hidden`` and ``hidden @ w2.T + b2`` into ``out``; returns ``out``."""
    np.add(np.matmul(X, w1.T, out=hidden), b1, out=hidden)
    np.tanh(hidden, out=hidden)
    return np.add(np.matmul(hidden, w2.T, out=out), b2, out=out)


def sse_loss(model: AutoencoderModel, X: np.ndarray) -> float:
    """Half the summed squared reconstruction error over the rows of X."""
    return objective(model, X)[0](flatten_params(model))


def gradient(model: AutoencoderModel, X: np.ndarray) -> np.ndarray:
    """Analytic gradient of :func:`sse_loss` over w1 (row-major), b1, w2 (row-major), b2."""
    return objective(model, X)[1](flatten_params(model))


def objective(model: AutoencoderModel, X: np.ndarray, dtype=np.float64):
    """Fused ``(f, g, curvature)`` over flat parameter vectors for the rows of X.

    ``f(flat)`` is the loss and ``g(flat)`` its gradient at the model with
    parameters ``flat`` (``model`` gives only the dimensions); in float64
    they equal :func:`sse_loss` and :func:`gradient` bit for bit.
    ``curvature(flat, p)`` is the exact second directional derivative p'Hp,
    by forward-mode differentiation of the network (Pearlmutter, "Fast
    exact multiplication by the Hessian", 1994).

    X is cast to ``dtype`` once, and the matmuls and ``tanh`` run in it;
    the loss and the other reductions sum in float64, and the gradient is
    float64. The closures share one set of buffers: ``f`` leaves the forward
    pass of its point there, ``g`` at that point adds only the backward
    pass, and ``curvature`` at that point reuses both and spends them.
    """
    _check_matrix(model, X)
    if X.shape[0] == 0:
        raise EmptyDataset("the dataset has no rows; at least one is required")
    X = X.astype(dtype, copy=False)
    n, h = X.shape[0], model.hidden_dim
    hidden, slope, d_hidden, a_dot = np.empty((4, n, h), dtype)
    residual, scratch = np.empty((2, *X.shape), dtype)
    params = np.empty(model.n_params, dtype)
    w1, b1, w2, b2 = _split(model, params)
    at = np.full(model.n_params, np.nan)  # point of the buffers
    backward_at = np.full(model.n_params, np.nan)  # point of slope = 1 - h**2 and d_hidden = (r @ w2) * slope

    def forward(flat: np.ndarray) -> None:
        params[:] = _checked(model, flat)
        np.subtract(_forward(X, w1, b1, w2, b2, hidden, residual), X, out=residual)
        at[:] = flat
        backward_at[:] = np.nan

    def backward(flat: np.ndarray) -> None:
        if not np.array_equal(flat, at):
            forward(flat)
        if not np.array_equal(flat, backward_at):
            np.subtract(1.0, np.square(hidden, out=slope), out=slope)
            np.multiply(np.matmul(residual, w2, out=d_hidden), slope, out=d_hidden)
            backward_at[:] = flat

    def f(flat: np.ndarray) -> float:
        forward(flat)
        return 0.5 * float(np.sum(np.square(residual, out=scratch), dtype=np.float64))

    def g(flat: np.ndarray) -> np.ndarray:
        backward(flat)
        return np.concatenate([
            (d_hidden.T @ X).ravel(), d_hidden.sum(axis=0, dtype=np.float64),
            (residual.T @ hidden).ravel(), residual.sum(axis=0, dtype=np.float64),
        ], dtype=np.float64)

    def curvature(flat: np.ndarray, p: np.ndarray) -> float:
        backward(flat)
        at[:] = backward_at[:] = np.nan  # h' and r' overwrite slope and residual below: the buffers are spent
        p1, q1, p2, q2 = _split(model, _checked(model, p).astype(dtype))
        np.add(np.matmul(X, p1.T, out=a_dot), q1, out=a_dot)
        h_dot = np.multiply(slope, a_dot, out=slope)  # h' = (1 - h**2) a'
        np.multiply(np.square(a_dot, out=a_dot), hidden, out=a_dot)
        tanh_term = _dot64(d_hidden, a_dot)  # <r @ w2, h h' a'>, as h'' = -2 h h' a'
        cross = _dot64(p2, residual.T @ h_dot)
        r_dot = np.matmul(h_dot, w2.T, out=residual)
        r_dot += np.matmul(hidden, p2.T, out=scratch)
        r_dot += q2  # r' = h' w2' + h p2' + q2
        return _dot64(r_dot, r_dot) - 2.0 * tanh_term + 2.0 * cross

    return f, g, curvature


def _dot64(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of ``a * b`` over two equally shaped matrices, accumulated in float64."""
    return float(np.einsum("ij,ij->", a, b, dtype=np.float64))


def flatten_params(model: AutoencoderModel) -> np.ndarray:
    return np.concatenate([model.w1.ravel(), model.b1, model.w2.ravel(), model.b2])


def unflatten_params(model: AutoencoderModel, flat: np.ndarray) -> AutoencoderModel:
    """Rebuild a model from a flat parameter vector (inverse of flatten)."""
    w1, b1, w2, b2 = _split(model, np.array(_checked(model, flat), dtype=np.float64))
    return replace(model, w1=w1, b1=b1, w2=w2, b2=b2)


def _checked(model: AutoencoderModel, flat: np.ndarray) -> np.ndarray:
    """``flat`` as an array, after checking that it holds the model's parameter count."""
    flat = np.asarray(flat)
    if flat.shape != (model.n_params,):
        raise DimensionMismatch(f"expected {model.n_params} parameters, got {flat.shape}")
    return flat


def _split(model: AutoencoderModel, flat: np.ndarray) -> list[np.ndarray]:
    """Views of w1, b1, w2 and b2, shaped, in a flat parameter vector of the model's length."""
    h, d = model.hidden_dim, model.input_dim
    w1, b1, w2, b2 = np.split(flat, [h * d, h * d + h, 2 * h * d + h])
    return [w1.reshape(h, d), b1, w2.reshape(d, h), b2]


def _check_matrix(model: AutoencoderModel, X: np.ndarray) -> None:
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise DimensionMismatch(
            f"dataset has shape {X.shape}, expected (n, {model.input_dim})"
        )


def save_model(model: AutoencoderModel) -> bytes:
    """Serialize to a versioned JSON document.

    Floats are written with full round-trip precision, so load(save(m))
    reproduces the weights bit for bit.
    """
    document = {
        "format_version": MODEL_FORMAT_VERSION,
        "k": model.k,
        "input_dim": model.input_dim,
        "hidden_dim": model.hidden_dim,
        "layout_version": LAYOUT_VERSION,
        "layout": LAYOUT_NAME,
        "norm": {
            "a_min": model.norm.a_min,
            "a_max": model.norm.a_max,
            "w_min": model.norm.w_min,
            "w_max": model.norm.w_max,
        },
        "w1": model.w1.ravel().tolist(),
        "b1": model.b1.tolist(),
        "w2": model.w2.ravel().tolist(),
        "b2": model.b2.tolist(),
    }
    return (json.dumps(document, indent=1) + "\n").encode("utf-8")


def load_model(data: bytes) -> AutoencoderModel:
    """Parse a document produced by :func:`save_model`."""
    try:
        document = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise BadFormat(f"model document is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise BadFormat(f"model document is not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise BadFormat("model document must be a JSON object")

    for key, version in (("format_version", MODEL_FORMAT_VERSION), ("layout_version", LAYOUT_VERSION)):
        if document.get(key) != version:
            raise VersionMismatch(f"unsupported {key}: {document.get(key)!r}")

    try:
        input_dim = int(document["input_dim"])
        hidden_dim = int(document["hidden_dim"])
        k = int(document["k"])
        norm_doc = document["norm"]
        norm = NormalizationParams(
            a_min=float(norm_doc["a_min"]),
            a_max=float(norm_doc["a_max"]),
            w_min=float(norm_doc["w_min"]),
            w_max=float(norm_doc["w_max"]),
        )
        w1 = np.asarray(document["w1"], dtype=np.float64)
        b1 = np.asarray(document["b1"], dtype=np.float64)
        w2 = np.asarray(document["w2"], dtype=np.float64)
        b2 = np.asarray(document["b2"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadFormat(f"model document is missing or mistypes a field: {exc}") from None

    if w1.size != hidden_dim * input_dim or w2.size != input_dim * hidden_dim:
        raise BadFormat("weight array lengths do not match the declared dimensions")
    try:
        return AutoencoderModel(
            input_dim=input_dim,
            hidden_dim=hidden_dim,
            w1=w1.reshape(hidden_dim, input_dim),
            b1=b1,
            w2=w2.reshape(input_dim, hidden_dim),
            b2=b2,
            k=k,
            norm=norm,
        )
    except (DimensionMismatch, ValueError) as exc:
        raise BadFormat(str(exc)) from None
