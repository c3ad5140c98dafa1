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

import contextlib
import functools
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace

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
    """Model document uses an unsupported format version, layout version or layout."""


# The parameter arrays in flattening order; _shapes gives each one's shape.
_PARAMS = ("w1", "b1", "w2", "b2")


def _shapes(input_dim: int, hidden_dim: int) -> tuple[tuple[int, ...], ...]:
    """Shapes of the arrays named in :data:`_PARAMS`, in that order."""
    return (hidden_dim, input_dim), (hidden_dim,), (input_dim, hidden_dim), (input_dim,)


@dataclass(frozen=True)
class AutoencoderModel:
    """Weights, biases, and the preprocessing metadata they were trained with.

    Shapes: w1 is (hidden_dim, input_dim), b1 (hidden_dim,), w2
    (input_dim, hidden_dim), b2 (input_dim,). ``k``, the lags per channel,
    is derived as ``max(1, input_dim // 2)``: ``input_dim`` is 2k for
    pipeline models but free for bare test models, whose saved document
    loads back only at an even width. ``k`` and ``norm`` describe the
    window layout the model expects. Both dimensions must be >= 1.
    """

    input_dim: int
    hidden_dim: int
    w1: np.ndarray = field(repr=False)
    b1: np.ndarray = field(repr=False)
    w2: np.ndarray = field(repr=False)
    b2: np.ndarray = field(repr=False)
    norm: NormalizationParams

    def __post_init__(self):
        _check_dims(self.input_dim, self.hidden_dim)
        for name, shape in zip(_PARAMS, _shapes(self.input_dim, self.hidden_dim)):
            array = np.asarray(getattr(self, name), dtype=np.float64)
            if array.shape != shape:
                raise DimensionMismatch(f"{name} has shape {array.shape}, expected {shape}")
            if not np.all(np.isfinite(array)):
                raise ValueError(f"{name} contains non-finite values")
            object.__setattr__(self, name, array)

    @property
    def k(self) -> int:
        return max(1, self.input_dim // 2)

    @property
    def n_params(self) -> int:
        return sum(math.prod(shape) for shape in _shapes(self.input_dim, self.hidden_dim))


def init_model(
    input_dim: int, hidden_dim: int, seed: int, norm: NormalizationParams = IDENTITY_NORM
) -> AutoencoderModel:
    """Seeded Gaussian initialization.

    Weights are zero-mean with standard deviation 1/sqrt(fan-in of the
    receiving layer); biases start at zero. Deterministic given the seed
    (w1 is drawn before w2). The model's ``k`` follows from ``input_dim``.
    """
    _check_dims(input_dim, hidden_dim)  # before the draws, whose scale and shape need them
    rng = np.random.default_rng(seed)
    w1 = rng.normal(0.0, 1.0 / math.sqrt(input_dim), size=(hidden_dim, input_dim))
    w2 = rng.normal(0.0, 1.0 / math.sqrt(hidden_dim), size=(input_dim, hidden_dim))
    return AutoencoderModel(
        input_dim, hidden_dim, w1=w1, b1=np.zeros(hidden_dim), w2=w2, b2=np.zeros(input_dim), norm=norm
    )


def _check_dims(input_dim: int, hidden_dim: int) -> None:
    if min(input_dim, hidden_dim) < 1:
        raise ValueError(f"dimensions must be >= 1, got input_dim={input_dim}, hidden_dim={hidden_dim}")


def reconstruct(model: AutoencoderModel, X: np.ndarray, layers: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """Forward pass over the rows of X, shape (n, input_dim), written to the output buffer of ``layers``.

    ``layers``, float64 of shape (n, hidden_dim) and (n, input_dim), are allocated when not given.
    """
    _check_matrix(model, X)
    hidden, out = layers or (np.empty((X.shape[0], model.hidden_dim)), np.empty((X.shape[0], model.input_dim)))
    return _forward(X, model.w1, model.b1, model.w2, model.b2, hidden, out)


def _forward(X, w1, b1, w2, b2, hidden: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``tanh(X @ w1.T + b1)`` into ``hidden`` and ``hidden @ w2.T + b2`` into ``out``; returns ``out``."""
    np.add(np.matmul(X, w1.T, out=hidden), b1, out=hidden)
    np.tanh(hidden, out=hidden)
    return np.add(np.matmul(hidden, w2.T, out=out), b2, out=out)


def sse_loss(model: AutoencoderModel, X: np.ndarray) -> float:
    """Half the summed squared reconstruction error over the rows of X, in X's precision (see :func:`objective`)."""
    return objective(model, X)[0](flatten_params(model))


def gradient(model: AutoencoderModel, X: np.ndarray) -> np.ndarray:
    """Analytic gradient of :func:`sse_loss` over w1 (row-major), b1, w2 (row-major), b2."""
    return objective(model, X)[1](flatten_params(model))


def objective(model: AutoencoderModel, X: np.ndarray, run=map):
    """Fused ``(f, g, curvature)`` over flat parameter vectors for the rows of X.

    ``f(flat)`` is the loss and ``g(flat)`` its gradient at the model with
    parameters ``flat`` (``model`` gives only the dimensions); they equal
    :func:`sse_loss` and :func:`gradient` on the same X bit for bit.
    ``curvature(flat, p)`` is the exact second directional derivative p'Hp,
    by forward-mode differentiation of the network (Pearlmutter, "Fast
    exact multiplication by the Hessian", 1994).

    The precision comes from X: the matmuls and ``tanh`` run in float32 for
    a float32 X, and in float64 for a float64 or integer X (cast once). The
    loss and the other reductions sum in float64, and the gradient is
    float64. The closures share one set of buffers: ``f`` leaves the
    forward pass of its point there, ``g`` at that point adds only the
    backward pass, and ``curvature`` at that point reuses both and spends
    them.

    The work runs in blocks, which ``run`` maps a function over as the
    builtin ``map`` does; ``scg.train`` passes a thread pool's ``map``. Row
    work runs on row blocks, the products that sum over all rows on blocks
    of their output rows, and the column sums on blocks of columns. The
    whole-array float64 sums are never split; the gradient's task ``i``
    takes block ``i`` of both its products. A phase of one task runs through
    the builtin ``map``, in the calling thread. The blocks follow
    from the shapes alone (see :func:`_blocks`), so the results do not
    depend on how many workers run them; they depend on the BLAS build.
    """
    _check_matrix(model, X)
    if X.shape[0] == 0:
        raise EmptyDataset("the dataset has no rows; at least one is required")
    dtype = np.result_type(X, np.float32)
    X = X.astype(dtype, copy=False)
    n, d, h = *X.shape, model.hidden_dim
    hidden, slope, d_hidden, a_dot = np.empty((4, n, h), dtype)
    residual, scratch = np.empty((2, *X.shape), dtype)
    params = np.empty(model.n_params, dtype)
    w1, b1, w2, b2 = _split(model, params)
    rows, units, inputs = _blocks(n, d * h), _blocks(h, n * d), _blocks(d, n * h)  # of the rows, hidden units, inputs
    at = np.full(model.n_params, np.nan)  # point of the buffers
    backward_at = np.full(model.n_params, np.nan)  # point of slope = 1 - h**2 and d_hidden = (r @ w2) * slope

    def forward_rows(b: slice) -> None:
        np.subtract(_forward(X[b], w1, b1, w2, b2, hidden[b], residual[b]), X[b], out=residual[b])
        np.square(residual[b], out=scratch[b])  # summed whole by f

    def backward_rows(b: slice) -> None:
        np.subtract(1.0, np.square(hidden[b], out=slope[b]), out=slope[b])
        np.multiply(np.matmul(residual[b], w2, out=d_hidden[b]), slope[b], out=d_hidden[b])

    def forward(flat: np.ndarray) -> None:
        params[:] = _checked(model, flat)
        _each(run, forward_rows, rows)
        at[:] = flat
        backward_at[:] = np.nan

    def backward(flat: np.ndarray) -> None:
        if not np.array_equal(flat, at):
            forward(flat)
        if not np.array_equal(flat, backward_at):
            _each(run, backward_rows, rows)
            backward_at[:] = flat

    def f(flat: np.ndarray) -> float:
        forward(flat)
        return 0.5 * float(np.sum(scratch, dtype=np.float64))

    def g(flat: np.ndarray) -> np.ndarray:
        backward(flat)
        grad = np.empty(model.n_params)
        g_w1, g_b1, g_w2, g_b2 = _split(model, grad)
        products = (d_hidden, X, g_w1, g_b1, units), (residual, hidden, g_w2, g_b2, inputs)

        def sums(i: int) -> None:  # block i of each product: its rows of left.T @ right and of left's column sums
            for left, right, out_w, out_b, blocks in products:
                if i < len(blocks):
                    b = blocks[i]
                    out_w[b] = left[:, b].T @ right
                    out_b[b] = left[:, b].sum(axis=0, dtype=np.float64)

        _each(run, sums, range(max(len(units), len(inputs))))
        return grad

    def curvature(flat: np.ndarray, p: np.ndarray) -> float:
        backward(flat)
        at[:] = backward_at[:] = np.nan  # h' and r' overwrite slope and residual below: the buffers are spent
        p1, q1, p2, q2 = _split(model, _checked(model, p).astype(dtype))
        h_dot = slope  # h' = (1 - h**2) a', written over slope
        cross_terms = np.empty(p2.shape, dtype)

        def tangent_rows(b: slice) -> None:
            np.add(np.matmul(X[b], p1.T, out=a_dot[b]), q1, out=a_dot[b])
            np.multiply(slope[b], a_dot[b], out=h_dot[b])
            np.multiply(np.square(a_dot[b], out=a_dot[b]), hidden[b], out=a_dot[b])

        def cross_rows(b: slice) -> None:
            np.matmul(residual[:, b].T, h_dot, out=cross_terms[b])

        def r_dot_rows(b: slice) -> None:
            r_dot = np.matmul(h_dot[b], w2.T, out=residual[b])
            r_dot += np.matmul(hidden[b], p2.T, out=scratch[b])
            r_dot += q2  # r' = h' w2' + h p2' + q2

        _each(run, tangent_rows, rows)
        tanh_term = _dot64(d_hidden, a_dot)  # <r @ w2, h h' a'>, as h'' = -2 h h' a'
        _each(run, cross_rows, inputs)
        cross = _dot64(p2, cross_terms)
        _each(run, r_dot_rows, rows)
        return _dot64(residual, residual) - 2.0 * tanh_term + 2.0 * cross

    return f, g, curvature


# Blocks of the objective. A product is split only where each part keeps at
# least _BLOCK_WORK multiply-adds: OpenBLAS's SkylakeX kernels round a
# product of up to about 10**6 multiply-adds through separate small-matrix
# code, so a finer split would round differently from the whole. Inner block
# edges fall on multiples of _BLOCK_ALIGN. The block count is a power of two
# up to _MAX_BLOCKS. More blocks than workers let the others take over the
# share of a worker whose CPU another process keeps busy: on 2 cores with one
# of them busy, 8 row blocks of a 10,031 x 100 window matrix trained as fast
# as one thread, and 4 blocks 15% slower; with both free, 4 and 8 ran alike.
_BLOCK_WORK = 1 << 22
_BLOCK_ALIGN = 16
_MAX_BLOCKS = 8


def _blocks(size: int, work_per_item: int) -> list[slice]:
    """``range(size)`` as slices of at least ``_BLOCK_WORK`` work each, at ``work_per_item`` per item."""
    least = max(_BLOCK_ALIGN, -(-_BLOCK_WORK // max(work_per_item, 1))) + _BLOCK_ALIGN
    count = 1
    while count < _MAX_BLOCKS and size // (2 * count) >= least:
        count *= 2
    edges = [0, *(i * size // count // _BLOCK_ALIGN * _BLOCK_ALIGN for i in range(1, count)), size]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity where the platform reports one, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextlib.contextmanager
def _mapper():
    """The ``map`` that training and scoring run their blocks with, and how many blocks it runs at once.

    It is the builtin ``map`` for one usable CPU, else the ``map`` of a pool
    of one thread per usable CPU, up to ``_MAX_BLOCKS`` threads, which starts
    a thread only when a block waits and no thread is idle, and is shut down
    on exit. No phase of the objective has more blocks, and scoring holds a
    set of block buffers per worker, so the cap keeps a many-core host's
    threads and memory at those of ``_MAX_BLOCKS`` CPUs. Each worker takes
    the caller's numpy error handling, which is per thread.
    ``concurrent.futures`` is imported here: at module level it would slow
    every command's start-up.
    """
    workers = min(_usable_cpus(), _MAX_BLOCKS)
    if workers <= 1:
        yield map, 1
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers, initializer=functools.partial(np.seterr, **np.geterr())) as pool:
        yield pool.map, workers


def _each(run, task, blocks) -> None:
    """``task`` of every block, through ``run`` for several blocks and in the calling thread for one.

    The results are drained, so a block's exception reaches the caller.
    """
    for _ in (run if len(blocks) > 1 else map)(task, blocks):
        pass


def _dot64(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of ``a * b`` over two equally shaped matrices, accumulated in float64."""
    return float(np.einsum("ij,ij->", a, b, dtype=np.float64))


def flatten_params(model: AutoencoderModel) -> np.ndarray:
    return np.concatenate([getattr(model, name).ravel() for name in _PARAMS])


def unflatten_params(model: AutoencoderModel, flat: np.ndarray) -> AutoencoderModel:
    """Rebuild a model from a flat parameter vector (inverse of flatten)."""
    arrays = _split(model, np.array(_checked(model, flat), dtype=np.float64))
    return replace(model, **dict(zip(_PARAMS, arrays)))


def _checked(model: AutoencoderModel, flat: np.ndarray) -> np.ndarray:
    """``flat`` as an array, after checking that it holds the model's parameter count."""
    flat = np.asarray(flat)
    if flat.shape != (model.n_params,):
        raise DimensionMismatch(f"expected {model.n_params} parameters, got {flat.shape}")
    return flat


def _split(model: AutoencoderModel, flat: np.ndarray) -> list[np.ndarray]:
    """Views of w1, b1, w2 and b2, shaped, in a flat parameter vector of the model's length."""
    shapes = _shapes(model.input_dim, model.hidden_dim)
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]


def _check_matrix(model: AutoencoderModel, X: np.ndarray) -> None:
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise DimensionMismatch(
            f"dataset has shape {X.shape}, expected (n, {model.input_dim})"
        )


def save_model(model: AutoencoderModel) -> bytes:
    """Serialize to a versioned JSON document.

    Floats are written with full round-trip precision, so load(save(m))
    reproduces the weights bit for bit. A model of odd ``input_dim`` raises
    BadFormat, as the document declares ``input_dim = 2k``.
    """
    if model.input_dim % 2:
        raise BadFormat(f"cannot save a model of odd width: a document needs input_dim = 2k, got {model.input_dim}")
    document = {
        "format_version": MODEL_FORMAT_VERSION,
        "k": model.k,
        "input_dim": model.input_dim,
        "hidden_dim": model.hidden_dim,
        "layout_version": LAYOUT_VERSION,
        "layout": LAYOUT_NAME,
        "norm": asdict(model.norm),
        **{name: getattr(model, name).ravel().tolist() for name in _PARAMS},
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

    versions = ("format_version", MODEL_FORMAT_VERSION), ("layout_version", LAYOUT_VERSION), ("layout", LAYOUT_NAME)
    for key, version in versions:
        if type(document.get(key)) is not type(version) or document[key] != version:  # rejects true and 1.0
            raise VersionMismatch(f"unsupported {key}: {document.get(key)!r}")

    try:
        input_dim, hidden_dim, k = (document[key] for key in ("input_dim", "hidden_dim", "k"))
        bounds = document["norm"]
        norm = NormalizationParams(**{bound.name: float(bounds[bound.name]) for bound in fields(NormalizationParams)})
        arrays = [np.asarray(document[name], dtype=np.float64) for name in _PARAMS]
    except (KeyError, TypeError, ValueError) as exc:
        raise BadFormat(f"model document is missing or mistypes a field: {exc}") from None

    if not all(type(dim) is int for dim in (input_dim, hidden_dim, k)) or input_dim != 2 * k:  # bool is an int subclass
        raise BadFormat(f"model dimensions must be integers with input_dim = 2k, got {input_dim=}, {hidden_dim=}, {k=}")
    shapes = _shapes(input_dim, hidden_dim)
    if any(array.size != math.prod(shape) for array, shape in zip(arrays, shapes)):
        raise BadFormat("weight array lengths do not match the declared dimensions")
    params = {name: array.reshape(shape) for name, array, shape in zip(_PARAMS, arrays, shapes)}
    try:
        return AutoencoderModel(input_dim, hidden_dim, norm=norm, **params)
    except (DimensionMismatch, ValueError) as exc:
        raise BadFormat(str(exc)) from None
