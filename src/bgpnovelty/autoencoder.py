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
    layout_version: int = LAYOUT_VERSION

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
    hidden = np.tanh(X @ model.w1.T + model.b1)
    return hidden @ model.w2.T + model.b2


def sse_loss(model: AutoencoderModel, X: np.ndarray) -> float:
    """Half the summed squared reconstruction error over the rows of X."""
    _check_matrix(model, X)
    if X.shape[0] == 0:
        raise EmptyDataset("loss requires at least one sample")
    residual = reconstruct(model, X) - X
    return 0.5 * float(np.sum(residual * residual))


def gradient(model: AutoencoderModel, X: np.ndarray) -> np.ndarray:
    """Analytic gradient of :func:`sse_loss` over the flattened parameters.

    Flattening order: w1 row-major, b1, w2 row-major, b2.
    """
    _check_matrix(model, X)
    if X.shape[0] == 0:
        raise EmptyDataset("gradient requires at least one sample")
    hidden = np.tanh(X @ model.w1.T + model.b1)
    residual = (hidden @ model.w2.T + model.b2) - X
    grad_w2 = residual.T @ hidden
    grad_b2 = residual.sum(axis=0)
    d_hidden = (residual @ model.w2) * (1.0 - hidden * hidden)
    grad_w1 = d_hidden.T @ X
    grad_b1 = d_hidden.sum(axis=0)
    return np.concatenate([grad_w1.ravel(), grad_b1, grad_w2.ravel(), grad_b2])


def flatten_params(model: AutoencoderModel) -> np.ndarray:
    return np.concatenate(
        [model.w1.ravel(), model.b1, model.w2.ravel(), model.b2]
    )


def unflatten_params(model: AutoencoderModel, flat: np.ndarray) -> AutoencoderModel:
    """Rebuild a model from a flat parameter vector (inverse of flatten)."""
    flat = np.asarray(flat, dtype=np.float64)
    if flat.shape != (model.n_params,):
        raise DimensionMismatch(f"expected {model.n_params} parameters, got {flat.shape}")
    h, d = model.hidden_dim, model.input_dim
    offset = 0
    w1 = flat[offset : offset + h * d].reshape(h, d).copy()
    offset += h * d
    b1 = flat[offset : offset + h].copy()
    offset += h
    w2 = flat[offset : offset + d * h].reshape(d, h).copy()
    offset += d * h
    b2 = flat[offset : offset + d].copy()
    return replace(model, w1=w1, b1=b1, w2=w2, b2=b2)


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
        "layout_version": model.layout_version,
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


def load_model(data: bytes | str) -> AutoencoderModel:
    """Parse a document produced by :func:`save_model`."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BadFormat(f"model document is not UTF-8: {exc}") from None
    try:
        document = json.loads(data)
    except json.JSONDecodeError as exc:
        raise BadFormat(f"model document is not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise BadFormat("model document must be a JSON object")

    fmt = document.get("format_version")
    if fmt != MODEL_FORMAT_VERSION:
        raise VersionMismatch(f"unsupported format_version: {fmt!r}")
    layout_version = document.get("layout_version")
    if layout_version != LAYOUT_VERSION:
        raise VersionMismatch(f"unsupported layout_version: {layout_version!r}")

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
            layout_version=layout_version,
        )
    except (DimensionMismatch, ValueError) as exc:
        raise BadFormat(str(exc)) from None
