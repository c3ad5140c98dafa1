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


@contextlib.contextmanager
def objective(model: AutoencoderModel, X: np.ndarray):
    """Fused ``(f, g, curvature)`` over flat parameter vectors for the rows of X, for a ``with`` block.

    ``f(flat)`` is the loss, half the summed squared reconstruction error
    over the rows of X, and ``g(flat)`` its gradient over w1 (row-major),
    b1, w2 (row-major) and b2, at the model with parameters ``flat``
    (``model`` gives only the dimensions); the tests check both against an
    out-of-place numpy reference. ``curvature(flat, p)`` is the exact second
    directional derivative p'Hp, by forward-mode differentiation of the
    network (Pearlmutter, "Fast exact multiplication by the Hessian", 1994).
    X is checked on entry.

    The precision comes from X: the matmuls and ``tanh`` run in float32 for
    a float32 X, and in float64 for a float64 or integer X (cast once). So
    do the sums within a block, all in BLAS: the block's loss and its
    curvature terms are dot products (sdot or ddot), its bias gradients are
    products with a vector of ones (sgemv or dgemv), and its weight
    gradients are matrix products. Each block's sums are stored in float64,
    and the blocks' are added in float64 in a fixed order; the gradient is
    float64.

    ``f`` runs each block's backward pass right after its forward pass, in
    the same block task, and the closures keep the layers and the block
    sums of the last ``f``: ``g`` at its point only adds the blocks'
    gradients, and ``curvature`` there makes one forward-mode pass. At any
    other point, ``g`` and ``curvature`` first call ``f``. So a trial point
    that the optimizer rejects costs one unused backward pass.

    The forward-mode pass takes three products a block: ``a' = X p1' + q1``,
    ``z = (h + h') p2'`` with ``h' = (1 - h**2) a'``, and ``h' (w2 - p2)'``,
    which with ``z`` and ``q2`` makes ``r' = h' w2' + h p2' + q2``. The cross
    term ``<r, h' p2'>`` is then ``<d_hidden, a'> - <r, h' (w2 - p2)'>``, from
    the layers that ``f`` kept; the difference cancels the gradient term
    ``<r, h' w2'>``. The pass runs at ``p / 2**e``, ``e`` the exponent of
    ``|p|``, and scales the result by ``4**e``: both exact, and ``w2 - p2``
    keeps ``w2``. A float32 p'Hp whose terms, that gradient term among them,
    cancel to less than 1/``_CANCEL_LIMIT`` of their magnitudes is taken
    again in float64, a row block at a time and outside the pool.

    A pass runs over the row blocks of :func:`_blocks` on a :func:`_pool`
    that lives as long as the ``with`` block. Each block keeps its
    temporaries in the pool's block-sized buffers, so no call allocates a
    matrix of every row. The blocks follow from the shapes alone, so the
    results do not depend on how many workers run them; they depend on the
    BLAS build.
    """
    _check_matrix(model, X)
    if X.shape[0] == 0:
        raise EmptyDataset("the dataset has no rows; at least one is required")
    dtype = np.result_type(X, np.float32)
    X = X.astype(dtype, copy=False)
    n, d, h = *X.shape, model.hidden_dim
    hidden, d_hidden = np.empty((2, n, h), dtype)  # d_hidden = (r @ w2) * (1 - h**2)
    residual = np.empty_like(X)
    params = np.empty(model.n_params, dtype)
    w1, b1, w2, b2 = _split(model, params)
    rows = _blocks(n, d * h)
    most = max(b.stop - b.start for b in rows)
    blocks = range(len(rows))
    losses, tangents, grads = np.empty(len(rows)), np.empty((len(rows), 4)), np.empty((len(rows), model.n_params))
    grad_parts = [_split(model, grad) for grad in grads]
    ones = np.ones(most, dtype)  # the bias gradients' column sums, as gemv
    at = np.full(model.n_params, np.nan)  # point of the layers and the partials

    def new_buffers() -> list[tuple[np.ndarray, np.ndarray]]:
        """A (2, most, d) and a (2, most, h) buffer, as a view of each block's rows of the two."""
        wide, narrow = np.empty((2, most, d), dtype), np.empty((2, most, h), dtype)
        return [(wide[:, : b.stop - b.start], narrow[:, : b.stop - b.start]) for b in rows]

    def pass_rows(i: int, buffers) -> None:
        b, (_, narrow) = rows[i], buffers[i]
        np.subtract(_forward(X[b], w1, b1, w2, b2, hidden[b], residual[b]), X[b], out=residual[b])
        losses[i] = np.vdot(residual[b], residual[b])
        slope = np.subtract(1.0, np.square(hidden[b], out=narrow[0]), out=narrow[0])
        np.multiply(np.matmul(residual[b], w2, out=d_hidden[b]), slope, out=d_hidden[b])
        g_w1, g_b1, g_w2, g_b2 = grad_parts[i]
        g_w1[:] = d_hidden[b].T @ X[b]
        g_b1[:] = ones[: b.stop - b.start] @ d_hidden[b]
        g_w2[:] = residual[b].T @ hidden[b]
        g_b2[:] = ones[: b.stop - b.start] @ residual[b]

    def f(flat: np.ndarray) -> float:
        params[:] = _checked(model, flat)
        run(pass_rows, blocks)
        at[:] = flat
        return 0.5 * float(losses.sum())

    def g(flat: np.ndarray) -> np.ndarray:
        if not np.array_equal(flat, at):
            f(flat)
        return grads.sum(axis=0)

    def curvature(flat: np.ndarray, p: np.ndarray) -> float:
        if not np.array_equal(flat, at):
            f(flat)
        p = _checked(model, p)
        scale = math.frexp(np.linalg.norm(p))[1]  # p'Hp is p^ H p^ * 4**scale at p^ = p / 2**scale, both exact
        p_hat = np.ldexp(p, -scale)
        p1, q1, p2, q2 = _split(model, p_hat.astype(dtype))
        w2_less_p2 = w2 - p2

        def tangent_rows(i: int, buffers) -> None:
            b, ((z, r_dot), (a_dot, h_dot)) = rows[i], buffers[i]
            np.add(np.matmul(X[b], p1.T, out=a_dot), q1, out=a_dot)
            np.multiply(np.subtract(1.0, np.square(hidden[b], out=h_dot), out=h_dot), a_dot, out=h_dot)  # h'
            first = np.vdot(d_hidden[b], a_dot)  # <r, h' w2'>, as d_hidden = (r @ w2) (1 - h**2)
            np.multiply(np.square(a_dot, out=a_dot), hidden[b], out=a_dot)
            tangents[i, 0] = np.vdot(d_hidden[b], a_dot)  # <r @ w2, h h' a'>, as h'' = -2 h h' a'
            np.matmul(np.add(hidden[b], h_dot, out=a_dot), p2.T, out=z)  # z = (h + h') p2'
            np.matmul(h_dot, w2_less_p2.T, out=r_dot)  # h' (w2 - p2)'
            tangents[i, 1] = first - np.vdot(residual[b], r_dot)  # <r, h' p2'>
            r_dot += z
            r_dot += q2  # r' = h' (w2 - p2)' + z + q2 = h' w2' + h p2' + q2
            tangents[i, 2] = np.vdot(r_dot, r_dot)
            # the terms' magnitude, with the gradient term <r, h' w2'> that the cross term's difference cancels
            tangents[i, 3] = tangents[i, 2] + 2.0 * (abs(tangents[i, 0]) + abs(tangents[i, 1]) + abs(first))

        run(tangent_rows, blocks)
        tanh_term, cross, r_dot_sq, magnitude = tangents.sum(axis=0)
        result = r_dot_sq - 2.0 * tanh_term + 2.0 * cross
        if dtype != np.float64 and magnitude > _CANCEL_LIMIT * abs(result):
            result = _float64_curvature(model, X, rows, at, p_hat)
        return np.ldexp(result, 2 * scale)

    with _pool(new_buffers) as run:
        yield f, g, curvature


# A float32 p'Hp whose terms cancel to less than 1/_CANCEL_LIMIT of their
# magnitudes is taken again in float64. On 8,000 random problems of the property
# test's kind, the float32 p'Hp was off by a median 5e-8 of the terms' magnitude,
# 2.1e-6 at most, and 8.7e-7 where they cancel 8-fold or more: 5.6e-5 of p'Hp at
# the limit (2e-5 seen), more beyond it, up to the sign on which SCG's step rests.
# On 2,000 x 40 windows at 20 hidden units and initial weights x 1.9375 (seed
# 3325366) the terms cancel 1,120-fold, and the float32 p'Hp is 1.7e-4 off
# the float64 one. Training a quiet week (10,031 x 100 windows, 100 hidden
# units, 100 cycles, benchmark seeds 1-3) cancelled at most 2.5-fold.
_CANCEL_LIMIT = 64.0


def _float64_curvature(model: AutoencoderModel, X: np.ndarray, rows: list[slice], flat: np.ndarray, p: np.ndarray):
    """p'Hp at ``flat`` along ``p`` over the rows of X in float64, one of ``rows`` at a time.

    The sum of ``|r'|**2 + <r, r''>``, with ``r' = h' w2' + h p2' + q2`` and
    ``r'' = h'' w2' + 2 h' p2'``. A block at a time, with the block's layers
    from :func:`_forward`, so that no float64 copy of every row of X or of its
    layers is made.
    """
    w1, b1, w2, b2 = _split(model, flat)
    p1, q1, p2, q2 = _split(model, p)
    total = 0.0
    for b in rows:
        x = X[b].astype(np.float64)
        hidden, residual = np.empty((len(x), model.hidden_dim)), np.empty_like(x)
        np.subtract(_forward(x, w1, b1, w2, b2, hidden, residual), x, out=residual)
        a_dot = x @ p1.T + q1
        h_dot = (1.0 - hidden**2) * a_dot
        r_dot = h_dot @ w2.T + hidden @ p2.T + q2
        r_ddot = (-2.0 * hidden * h_dot * a_dot) @ w2.T + 2.0 * (h_dot @ p2.T)  # h'' = -2 h h' a'
        total += np.vdot(r_dot, r_dot) + np.vdot(residual, r_ddot)
    return total


# Row blocks of the objective. The rows are split only where each block's
# products keep at least _BLOCK_WORK multiply-adds, as every block costs a
# pool task, its numpy calls and its partial sums: on 10,031 x 100 windows at
# 100 hidden units and 2 CPUs, fixed 512-row blocks (20 a phase) trained
# about 10% slower over 6 benchmark pairs, and fixed 1,024-row blocks within
# noise. Inner block edges fall on multiples of _BLOCK_ALIGN. The block count
# is a power of two up to _MAX_BLOCKS. More blocks than workers let the
# others take over the share of a worker whose CPU another process keeps
# busy: on 2 cores with one of them busy, 8 row blocks of a 10,031 x 100
# window matrix trained as fast as one thread, and 4 blocks 15% slower; with
# both free, 4 and 8 ran alike.
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


# The cgroup v2 CPU limit of the process's cgroup: "<quota> <period>" in
# microseconds, or "max <period>" for none (Documentation/admin-guide/cgroup-v2.rst).
_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity where the platform reports one, else the CPU count.

    A cgroup v2 CPU quota in ``_CPU_MAX`` lowers the count to the quota
    rounded up, as more threads than that would only take turns.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    try:
        with open(_CPU_MAX, encoding="ascii") as limit:
            quota, period = map(int, limit.read().split())  # "max" raises ValueError: no quota
    except (OSError, ValueError):
        return cpus
    return max(1, min(cpus, -(-quota // period)))


@contextlib.contextmanager
def _pool(new_buffers):
    """Yield ``run(task, blocks)``, which calls ``task(block, buffers)`` for every block and returns when all end.

    The calling thread and ``min(workers, len(blocks)) - 1`` helper threads,
    ``workers`` being the usable CPUs up to ``_MAX_BLOCKS``, take the blocks
    from one shared iterator, so a call hands each helper one task, not one
    per block; with one usable CPU, or one block, no helper takes part.
    Helpers run with the caller's numpy error handling, which is per thread,
    and a helper thread starts only when a task waits and none is idle.
    No phase of the objective has more blocks, and each worker holds a set
    of buffers, so the cap keeps a many-core host's threads and memory at
    those of ``_MAX_BLOCKS`` CPUs. The helper threads, and the import of
    ``concurrent.futures``, wait for the first call of two blocks or more,
    and end on exit.

    ``new_buffers()`` makes a set of buffers in the calling thread, as glibc
    gives each thread its own heap, which keeps what the thread freed after
    the thread ends. Sets are kept by worker: the calling thread runs on
    set 0 and helper j on set j, for every block it takes. A call first
    makes the sets of its ``min(workers, len(blocks))`` workers that no
    earlier call made. Every block runs, failed or not; the call returns
    when every worker is done, and then raises the exception of the first
    failed block, in block order.
    """
    workers = min(_usable_cpus(), _MAX_BLOCKS)
    initializer = functools.partial(np.seterr, **np.geterr())
    sets, executor = [], None

    def work(task, items, buffers) -> list[tuple[int, Exception]]:
        """Run ``task`` on each block that ``items`` yields, on ``buffers``; returns the failures."""
        failures = []
        for i, item in items:  # next() of a builtin iterator holds the GIL: no block is taken twice
            try:
                task(item, buffers)
            except Exception as error:
                failures.append((i, error))
        return failures

    def run(task, blocks) -> None:
        nonlocal executor
        if not blocks:
            return
        helpers = min(workers, len(blocks)) - 1
        while len(sets) <= helpers:
            sets.append(new_buffers())
        items, futures = enumerate(blocks), []
        if helpers > 0:
            if executor is None:
                from concurrent.futures import ThreadPoolExecutor

                executor = ThreadPoolExecutor(workers - 1, initializer=initializer)
            futures = [executor.submit(work, task, items, buffers) for buffers in sets[1 : helpers + 1]]
        failures = work(task, items, sets[0])
        for future in futures:
            failures += future.result()
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]

    try:
        yield run
    finally:
        if executor is not None:
            executor.shutdown()


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
