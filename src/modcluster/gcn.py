"""Graph convolutional network with SELU activations, trained by manual backprop.

The forward pass stacks ``X <- selu(A_norm @ X @ W)`` layers (SELU after every
layer, readout included), each in the cheaper order: ``A_norm @ (H @ W)`` when
H is sparse or d_in > d_out, else ``(A_norm @ H) @ W``. Raw outputs are then
mapped onto the nonnegative part of the unit sphere by a four-step row
transform: divide by the row sum, tanh, elementwise square, L2-normalize. All
gradients are computed in closed form against intermediates recorded on a
GradientTape; SELU' comes from the output: ``out + SCALE * ALPHA`` if out < 0.

Elementwise n-row kernels run at every size in row blocks of about 2^15
elements, whose temporaries stay in cache, and dense products in blocks of about
2^18 output elements (a power of two rows, so blocks of any widths nest). The row
count n decides only what depends on cores: from _POOL_MIN_ROWS rows on, those
blocks are shared out over the process's CPU affinity, SpMMs split as products do
and ``H' P`` into 64 columns of H, and numpy's OpenBLAS is held to one thread (its
idle threads would spin on those cores; without its thread setter no pool starts).
Below it blocks run on the calling thread, on OpenBLAS's own threads, and SpMMs and
``H' P`` whole. Blocks depend only on array shapes and each is one call whichever
thread runs it, so a pooled run's outputs are byte-identical for any core count;
``taskset -c 0`` gives a serial run.
SELU writes over its product, SELU' multiplies into the upstream gradient, the
transform gradient writes over dL/dX and Adam updates in place, so an epoch
writes each large array once; backward frees each taped array, and a tapeless
forward each layer's input, once used. No buffer is kept for reuse: under the
allocator policy (``pipeline.keep_freed_memory``) a new array takes freed memory.
A tapeless forward runs the row-local steps between two SpMMs on one row block
before the next (see ``_chain``); with the default dims it peaks at n * 256 float64
values plus a product block per busy worker when pooled, or below about 4096 rows in
layer 0's chain (n * 512 with sparse features, at layer 0's SpMM). An epoch peaks
at n * (r + 640) float64 values, reached three times: in the loss (the tape and
dL/dX), at the transform gradient (the same) and at layer 1's ``P W'`` (layer 0's
input and output, P and ``P W'``); see ``backward``.
"""

from __future__ import annotations

import ctypes
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cache
from itertools import islice
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .graph import parse_records, read_records, reject_rows

# full-precision self-normalizing constants; rounded values break convergence
SELU_SCALE = 1.0507009873554804
SELU_ALPHA = 1.6732632423543772

ROW_SUM_EPS = 1e-8
DEGENERATE_NORM_EPS = 1e-12

CHECKPOINT_HEADER = "#gcn-checkpoint v1"

LEARNING_RATE = 0.001
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_BLOCK_ELEMENTS = 1 << 15  # 256 KiB of float64: a block's temporaries stay in L2
_PRODUCT_ELEMENTS = 1 << 18  # a split product has 4 or more blocks
_POOL_MIN_ROWS = 1 << 13  # smaller graphs run on the calling thread, products whole
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class DivergenceError(ValueError):
    """A non-finite activation, gradient or loss: the seed cannot continue."""


@cache
def _pool() -> ThreadPoolExecutor | None:
    """The worker threads, started once numpy's OpenBLAS is held to one thread."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            setter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads64_", None)
        except OSError:
            continue
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            return ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="modcluster")
    return None


def _row_runs(kernel, n: int, cols: int) -> list:
    """``kernel(lo, hi)`` over rows [0, n) of an n x cols array in blocks of about
    _BLOCK_ELEMENTS, results in row order, pooled from _POOL_MIN_ROWS rows on."""
    return _blocks(kernel, n, max(_BLOCK_ELEMENTS // max(cols, 1), 1), n >= _POOL_MIN_ROWS)


def _blocks(kernel, n: int, step: int, pooled: bool = True) -> list:
    """``kernel(lo, hi)`` on consecutive blocks of ``step`` rows of [0, n), in row
    order. Pooled, each usable core takes one contiguous run of blocks, the calling
    thread the first; unpooled or for a single block, the calling thread runs all.
    A kernel writes only its own rows and calls none of the functions that a tracer
    or test may wrap, such as selu or _matmul: their wrappers expect the calling thread."""
    starts = range(0, n, step)

    def run(starts):
        return [kernel(lo, min(lo + step, n)) for lo in starts]

    pool = _pool() if pooled and _WORKERS > 1 and len(starts) > 1 else None
    if pool is None:
        return run(starts)
    cut = [len(starts) * i // _WORKERS for i in range(_WORKERS + 1)]
    futures = [pool.submit(run, starts[a:b]) for a, b in zip(cut[1:-1], cut[2:]) if a < b]
    return run(starts[: cut[1]]) + [r for future in futures for r in future.result()]


def _matmul(a, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a dense or CSR ``a``, in row blocks: a dense ``a`` at every size
    (``_chain``'s GEMMs run on the same blocks), a CSR one from _POOL_MIN_ROWS rows on."""
    n, cols = a.shape[0], b.shape[1]
    if sp.issparse(a) and n < _POOL_MIN_ROWS:  # scipy's @: a RowBlockCsr's own @ calls back here
        return sp.csr_matrix.__matmul__(a, b)
    out = np.empty((n, cols), dtype=np.result_type(a.dtype, b.dtype))

    def kernel(lo, hi):
        if not sp.issparse(a):
            return np.matmul(a[lo:hi], b, out=out[lo:hi])
        # a plain csr_matrix: a slice of a would keep its class and any @ hook
        s, e = a.indptr[lo], a.indptr[hi]
        rows = (a.data[s:e], a.indices[s:e], a.indptr[lo : hi + 1] - s)
        out[lo:hi] = sp.csr_matrix(rows, shape=(hi - lo, a.shape[1])) @ b

    _blocks(kernel, n, _product_rows(cols), n >= _POOL_MIN_ROWS)
    return out


def _product_rows(cols: int) -> int:
    """Rows in a product block with ``cols`` output columns: about _PRODUCT_ELEMENTS,
    rounded down to a power of two, so the blocks of products of any widths nest."""
    return 1 << (max(_PRODUCT_ELEMENTS // cols, 1).bit_length() - 1)


def _gram(h, p: np.ndarray) -> np.ndarray:
    """``h.T @ p``, in blocks of 64 of H's columns (the product's rows) from
    _POOL_MIN_ROWS rows on: each entry still sums over all n rows."""
    n, cols = h.shape
    if n < _POOL_MIN_ROWS or cols < 128 or sp.issparse(h):
        return h.T @ p  # a narrow H is cheaper whole; a sparse one has no cheap column blocks
    out = np.empty((cols, p.shape[1]))

    def kernel(lo, hi):
        np.matmul(h[:, lo:hi].T, p, out=out[lo:hi])

    _blocks(kernel, cols, 64)
    return out


class RowBlockCsr(sp.csr_matrix):
    """CSR matrix whose product with a dense 2-d array runs in row blocks."""

    def __matmul__(self, other):
        if type(other) is np.ndarray and other.ndim == 2:
            return _matmul(self, other)
        return super().__matmul__(other)


def _selu_rows(x: np.ndarray, out: np.ndarray) -> None:
    """SELU of one block of rows into ``out``, which may be ``x``."""
    neg = np.minimum(x, 0.0)
    np.expm1(neg, out=neg)
    neg *= SELU_SCALE * SELU_ALPHA
    o = np.maximum(x, 0.0, out=out)
    o *= SELU_SCALE
    o += neg


def selu(x, out=None):
    """Scaled exponential linear unit, elementwise, into ``out`` (which may
    be ``x``) when given."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x) if out is None else out
    x_rows, out_rows = np.atleast_2d(x, out)
    _row_runs(lambda lo, hi: _selu_rows(x_rows[lo:hi], out_rows[lo:hi]), *out_rows.shape)
    return out


def _selu_grad(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Multiply SELU' into ``g`` in place and return ``g``. SELU' is read off
    SELU's output: out + SCALE * ALPHA where out < 0, else SCALE."""

    def kernel(lo, hi):
        o = out[lo:hi]
        db = o + (SELU_SCALE * SELU_ALPHA - SELU_SCALE)
        db *= o < 0.0
        db += SELU_SCALE
        g[lo:hi] *= db

    _row_runs(kernel, *out.shape)
    return g


def _chain(h: np.ndarray, layer: int, w, w_next) -> np.ndarray:
    """Layer ``layer``'s row-local steps after its product with A_norm, ``h``, run on
    one row block before the next starts: ``h @ w`` when given ((A H) W), SELU, the
    finite check, then the next layer's ``@ w_next`` when given (A (H W)). Each GEMM
    runs on _matmul's row blocks, which nest, so the bits are the unchained steps'.
    Activations between two GEMMs go to a scratch block that the kernel allocates."""
    n, width = h.shape[0], (h.shape[1] if w is None else w.shape[1])
    gemms = [m for m in (w, w_next) if m is not None]
    rows = max(_BLOCK_ELEMENTS // width, 1)  # SELU's blocks
    step = max([_product_rows(m.shape[1]) for m in gemms], default=rows)
    out = np.empty((n, gemms[-1].shape[1])) if gemms else h
    src = h if w is None else out  # where the activations are, without scratch
    pre = _product_rows(width)  # the blocks of h @ w

    def kernel(lo, hi):
        x = np.empty((hi - lo, width)) if len(gemms) == 2 else src[lo:hi]
        if w is not None:
            for a in range(lo, hi, pre):
                np.matmul(h[a : a + pre], w, out=x[a - lo : a - lo + pre])
        finite = True
        for a in range(0, hi - lo, rows):
            _selu_rows(x[a : a + rows], x[a : a + rows])
            finite &= bool(np.isfinite(x[a : a + rows]).all())
        if w_next is not None and finite:  # the loop raises before the next layer
            np.matmul(x, w_next, out=out[lo:hi])
        return finite

    if not all(_blocks(kernel, n, step, n >= _POOL_MIN_ROWS)):
        raise DivergenceError(f"non-finite activation in layer {layer}")
    return out


@dataclass
class GcnModel:
    """Stacked layer weights; layer_dims chains input size through to output."""

    layer_dims: list[int]
    weights: list[np.ndarray]


def check_layer_dims(layer_dims, where: str = "") -> None:
    if len(layer_dims) < 2:
        raise ValueError(f"{where}layer_dims must chain at least input -> output")
    if any(d <= 0 for d in layer_dims):
        raise ValueError(f"{where}layer dimensions must be positive")


def init_model(layer_dims: list[int], seed: int) -> GcnModel:
    """Glorot-uniform initialization, deterministic per seed."""
    check_layer_dims(layer_dims)
    rng = np.random.default_rng(seed)
    weights = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    return GcnModel(list(layer_dims), weights)


@dataclass
class GradientTape:
    """Intermediates recorded by gcn_forward/transform_embeddings for backward,
    which consumes them: a tape is single-use."""

    a_norm: sp.csr_matrix | None = None
    # per layer: the dense product's left operand (H, or A_norm @ H) and output
    inputs: list = field(default_factory=list)
    outputs: list[np.ndarray] = field(default_factory=list)
    weights: list[np.ndarray] = field(default_factory=list)
    # transform-chain intermediates (None until transform_embeddings runs)
    row_sums: np.ndarray | None = None
    divided_mask: np.ndarray | None = None
    after_tanh: np.ndarray | None = None
    norms: np.ndarray | None = None
    degenerate_mask: np.ndarray | None = None
    output: np.ndarray | None = None
    # per layer: True where it ran A_norm @ (H @ W), False for (A_norm @ H) @ W
    aggregate_last: list[bool] = field(default_factory=list)


def gcn_forward(
    model: GcnModel,
    a_norm: sp.csr_matrix,
    x0,
    tape: GradientTape | None = None,
) -> np.ndarray:
    """Run all GCN layers; returns the raw (untransformed) embedding matrix.
    ``x0`` may be a dense array or a scipy sparse matrix. Without a tape the steps
    between two products with A_norm run on one row block before the next (see
    ``_chain``) and each step frees its operand, so layer 0's n x 256 output never
    exists whole. With train's default dims [r, 256, 128, 64] and dense r <= 128, the
    peak besides ``x0`` is n * 256 float64 values at layer 1's ``A_norm @ (H W)`` (its
    operand and output), plus one 2^18-value output block per busy worker when pooled;
    below about 4096 rows it is layer 0's chain, which holds ``A_norm @ X0``, layer 1's
    n x 128 ``H W`` and the 2048 x 256 scratch block of each row block it runs (n * 338
    at n = 2708, r = 4). With sparse features layer 0 is ``A_norm @ (X0 W0)``, whose
    SpMM holds n * 512."""
    if x0.shape[1] != model.layer_dims[0]:
        raise ValueError(
            f"feature dim {x0.shape[1]} != model input dim {model.layer_dims[0]}"
        )
    h = x0.tocsr() if sp.issparse(x0) else x0  # row blocks of a sparse H need CSR
    lasts = [w.shape[0] > w.shape[1] for w in model.weights]  # A (H W) where a layer narrows
    lasts[0] |= sp.issparse(h)  # or its H is sparse
    if tape is None:  # chain what lies between two products with A_norm
        if lasts[0]:
            h = _matmul(h, model.weights[0])
        # the next layer's H W joins this layer's chain when that layer is A (H W)
        nexts = [w if last else None for w, last in zip(model.weights[1:], lasts[1:])]
        for layer, (w, last, w_next) in enumerate(zip(model.weights, lasts, nexts + [None])):
            h = a_norm @ h
            h = _chain(h, layer, None if last else w, w_next)
        return h
    tape.a_norm, tape.weights = a_norm, model.weights
    tape.inputs, tape.outputs, tape.aggregate_last = [], [], []
    for layer, (w, last) in enumerate(zip(model.weights, lasts)):
        if not last:
            h = a_norm @ h
        tape.inputs.append(h)
        tape.aggregate_last.append(last)
        h = _matmul(h, w)
        if last:
            h = a_norm @ h
        h = selu(h, h)
        if not all(_row_runs(lambda lo, hi: np.isfinite(h[lo:hi]).all(), *h.shape)):
            raise DivergenceError(f"non-finite activation in layer {layer}")
        tape.outputs.append(h)
    return h


def transform_embeddings(
    x_raw: np.ndarray, tape: GradientTape | None = None
) -> np.ndarray:
    """Map raw embeddings to nonnegative unit-norm rows.

    Per row: divide by the row sum (skipped with a warning when the sum is
    within ROW_SUM_EPS of zero), tanh, square, L2-normalize. A row whose
    post-square norm is below DEGENERATE_NORM_EPS becomes the uniform unit
    vector, with a warning.
    """
    x_raw = np.asarray(x_raw, dtype=np.float64)
    if x_raw.ndim != 2 or x_raw.shape[0] < 1:
        raise ValueError("expected a nonempty 2-d embedding matrix")
    n, k = x_raw.shape
    sums, norms = np.empty(n), np.empty(n)
    divided, degenerate = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    z, out = np.empty((n, k)), np.empty((n, k))

    def kernel(lo, hi):
        s = x_raw[lo:hi].sum(axis=1, out=sums[lo:hi])
        div = np.greater(np.abs(s), ROW_SUM_EPS, out=divided[lo:hi])
        # skipped rows divide by 1.0, so no row needs a masked copy
        zb = np.divide(x_raw[lo:hi], np.where(div, s, 1.0)[:, None], out=z[lo:hi])
        np.tanh(zb, out=zb)
        q = zb * zb
        nb = norms[lo:hi] = np.linalg.norm(q, axis=1)
        deg = np.less(nb, DEGENERATE_NORM_EPS, out=degenerate[lo:hi])
        ob = np.divide(q, np.where(deg, 1.0, nb)[:, None], out=out[lo:hi])
        ob[deg] = 1.0 / np.sqrt(k)

    _row_runs(kernel, n, k)
    if not np.all(divided):
        warnings.warn(
            f"{int((~divided).sum())} row(s) with near-zero sum: row-sum "
            "normalization skipped for them"
        )
    if np.any(degenerate):
        warnings.warn(
            f"{int(degenerate.sum())} degenerate row(s) replaced by the "
            "uniform unit vector"
        )

    if tape is not None:
        tape.row_sums = sums
        tape.divided_mask = divided
        tape.after_tanh = z
        tape.norms = norms
        tape.degenerate_mask = degenerate
        tape.output = out
    return out


def backward(tape: GradientTape, dloss_dx: np.ndarray) -> list[np.ndarray]:
    """Propagate dLoss/dX back through the transform chain and all layers.

    ``dloss_dx`` is the gradient with respect to the transformed embeddings
    when the tape recorded a transform, otherwise with respect to the raw
    GCN output. Returns one gradient per weight matrix. When the tape holds a
    transform, backward overwrites a float64 ``dloss_dx`` with the gradient it passes on.

    It consumes the tape, freeing each array once used, and frees ``dloss_dx`` at the
    last layer if the caller keeps no name for it: with train's default dims
    [r, 256, 128, 64] and dense r < 256, an epoch then peaks at n * (r + 640) float64
    values, three times: in the loss (the tape and dL/dX), at the transform gradient
    (the tape and ``dloss_dx``) and at layer 1's ``P W'`` (layer 0's input and output,
    P and ``P W'``).
    """
    if not tape.outputs:
        if tape.weights:
            raise ValueError("tape was consumed by an earlier backward")
        raise ValueError("tape has no recorded forward pass")
    g = np.asarray(dloss_dx, dtype=np.float64)
    del dloss_dx  # g is its only name here, so the layers free it
    if g.shape != tape.outputs[-1].shape:  # the transform keeps its input's shape
        raise ValueError("gradient shape does not match the network's output")

    if tape.output is not None:

        def kernel(lo, hi):  # reads its rows of g before it writes them
            gb, u, z = g[lo:hi], tape.output[lo:hi], tape.after_tanh[lo:hi]
            degenerate, divided = tape.degenerate_mask[lo:hi], tape.divided_mask[lo:hi]
            # L2 normalization: rows replaced by a constant get zero gradient
            dots = np.einsum("ij,ij->i", gb, u)
            gq = (gb - dots[:, None] * u) / np.where(degenerate, 1.0, tape.norms[lo:hi])[:, None]
            gq[degenerate] = 0.0
            # square, then tanh
            gy = gq * 2.0 * z * (1.0 - z * z)
            # row-sum division (identity where it was skipped); y is re-derived from
            # the last layer's output, which the transform ran on
            divisor = np.where(divided, tape.row_sums[lo:hi], 1.0)[:, None]
            y = tape.outputs[-1][lo:hi] / divisor
            rowdots = np.where(divided, np.einsum("ij,ij->i", gy, y), 0.0)
            np.divide(gy - rowdots[:, None], divisor, out=g[lo:hi])

        _row_runs(kernel, *g.shape)
        tape.output = tape.after_tanh = None
    else:
        g = g.copy()  # SELU' is multiplied into g in place: keep the caller's array
    grads: list[np.ndarray] = [None] * len(tape.weights)
    for layer in range(len(tape.weights) - 1, -1, -1):
        w, last = tape.weights[layer], tape.aggregate_last[layer]
        # g is dLoss/dout, then dpre, then P, then dH: each frees the one before
        g = _selu_grad(tape.outputs.pop(), g)
        # A (H W): A_norm is symmetric, so P = A_norm @ dpre gives grad W = H' P, dH = P W'
        if last:
            g = tape.a_norm @ g
        grads[layer] = _gram(tape.inputs.pop(), g)
        if layer > 0:
            g = _matmul(g, w.T) if last else tape.a_norm @ _matmul(g, w.T)
    return grads


@dataclass
class AdamState:
    """First/second moment accumulators plus step count for Adam."""

    learning_rate: float = LEARNING_RATE
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)


def init_adam(model: GcnModel, learning_rate: float = LEARNING_RATE) -> AdamState:
    return AdamState(
        learning_rate=learning_rate,
        m=[np.zeros_like(w) for w in model.weights],
        v=[np.zeros_like(w) for w in model.weights],
    )


def adam_step(model: GcnModel, grads: list[np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update of the moments and the weights, in
    place once every gradient has passed its checks (so a bad one changes
    nothing, not even the step count), rounding as the textbook expressions do:

        m = B1 m + (1 - B1) g;  v = B2 v + (1 - B2) g g
        w -= lr (m / (1 - B1^t)) / (sqrt(v / (1 - B2^t)) + eps)
    """
    if len(grads) != len(model.weights):
        raise ValueError("gradient count does not match weight count")
    for i, (w, g) in enumerate(zip(model.weights, grads)):
        if g.shape != w.shape:
            raise ValueError(f"gradient shape mismatch at layer {i}")
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient at layer {i}")
    state.step += 1
    t = state.step
    for i, (w, g) in enumerate(zip(model.weights, grads)):
        m, v, a, b = state.m[i], state.v[i], np.empty_like(w), np.empty_like(w)
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(g, 1.0 - ADAM_BETA2, out=a), g, out=a)
        np.divide(m, 1.0 - ADAM_BETA1**t, out=a)
        np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**t, out=b), out=b)
        b += ADAM_EPS
        a *= state.learning_rate
        a /= b
        w -= a


def save_checkpoint(path, model: GcnModel) -> None:
    """Write a model as TSV: a version header, the dims line, then per-layer
    weight rows with full float precision."""
    with open(path, "w") as fh:
        fh.write(CHECKPOINT_HEADER + "\n")
        fh.write("dims\t" + " ".join(str(d) for d in model.layer_dims) + "\n")
        for w in model.weights:
            np.savetxt(fh, w, fmt="%.17g", delimiter="\t")


def load_checkpoint(path) -> GcnModel:
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
    if header != CHECKPOINT_HEADER:
        raise ValueError(f"{path}: unrecognized checkpoint header {header!r}")
    records = read_records(path)
    dims_line, fields = next(records, (0, []))
    if fields[:1] != ["dims"]:
        raise ValueError(f"{path}: missing dims line")
    dims = parse_records(path, [(dims_line, fields[1:])], None, np.int64)[0].tolist()
    check_layer_dims(dims, f"{path}:{dims_line}: ")
    weights = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(parse_records(path, islice(records, fan_in), fan_out, np.float64))
        if len(weights[-1]) < fan_in:
            raise ValueError(f"{path}: truncated checkpoint")
    finite = np.concatenate([np.isfinite(w).all(axis=1) for w in weights])
    reject_rows(path, ~finite, "non-finite weight", dims_line)
    for lineno, _ in records:
        raise ValueError(f"{path}:{lineno}: row after the last layer")
    return GcnModel(dims, weights)
