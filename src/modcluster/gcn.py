"""Graph convolutional network with SELU activations, trained by manual backprop.

The forward pass stacks ``X <- selu(A_norm @ X @ W)`` layers (SELU after every
layer, readout included), each in the cheaper order: ``A_norm @ (H @ W)`` when
H is sparse or d_in > d_out, else ``(A_norm @ H) @ W``. Raw outputs are then
mapped onto the nonnegative part of the unit sphere by a four-step row
transform: divide by the row sum, tanh, elementwise square, L2-normalize. All
gradients are computed in closed form against intermediates recorded on a
GradientTape; SELU' comes from the output: ``out + SCALE * ALPHA`` if out < 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import islice

import numpy as np
import scipy.sparse as sp

from .graph import parse_rows, read_records, reject_rows

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


class DivergenceError(ValueError):
    """A non-finite activation, gradient or loss: the seed cannot continue."""


def selu(x):
    """Scaled exponential linear unit, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    neg = np.minimum(x, 0.0, out=np.empty_like(x))
    np.expm1(neg, out=neg)
    neg *= SELU_SCALE * SELU_ALPHA
    out = np.maximum(x, 0.0, out=np.empty_like(x))
    out *= SELU_SCALE
    out += neg
    return out


def _selu_grad(out: np.ndarray) -> np.ndarray:
    """SELU' from SELU's output: out + SCALE * ALPHA where out < 0, else SCALE."""
    d = out + (SELU_SCALE * SELU_ALPHA - SELU_SCALE)
    d *= out < 0.0
    d += SELU_SCALE
    return d


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
    """Intermediates recorded by gcn_forward/transform_embeddings for backward."""

    a_norm: sp.csr_matrix | None = None
    # per layer: the dense product's left operand (H, or A_norm @ H) and output
    inputs: list = field(default_factory=list)
    outputs: list[np.ndarray] = field(default_factory=list)
    weights: list[np.ndarray] = field(default_factory=list)
    # transform-chain intermediates (None until transform_embeddings runs)
    row_sums: np.ndarray | None = None
    divided_mask: np.ndarray | None = None
    after_div: np.ndarray | None = None
    after_tanh: np.ndarray | None = None
    norms: np.ndarray | None = None
    degenerate_mask: np.ndarray | None = None
    output: np.ndarray | None = None


def _aggregate_last(h, d_out: int) -> bool:
    """The order rule: ``A (H W)`` when H is sparse or the layer narrows."""
    return sp.issparse(h) or h.shape[1] > d_out


def gcn_forward(
    model: GcnModel,
    a_norm: sp.csr_matrix,
    x0,
    tape: GradientTape | None = None,
) -> np.ndarray:
    """Run all GCN layers; returns the raw (untransformed) embedding matrix.
    ``x0`` may be a dense array or a scipy sparse matrix."""
    if x0.shape[1] != model.layer_dims[0]:
        raise ValueError(
            f"feature dim {x0.shape[1]} != model input dim {model.layer_dims[0]}"
        )
    if tape is not None:
        tape.a_norm = a_norm
        tape.inputs.clear()
        tape.outputs.clear()
        tape.weights = model.weights
    h = x0
    for layer, w in enumerate(model.weights):
        if _aggregate_last(h, w.shape[1]):
            pre = a_norm @ (h @ w)
        else:
            h = a_norm @ h
            pre = h @ w
        out = selu(pre)
        if not np.all(np.isfinite(out)):
            raise DivergenceError(f"non-finite activation in layer {layer}")
        if tape is not None:
            tape.inputs.append(h)
            tape.outputs.append(out)
        h = out
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
    k = x_raw.shape[1]

    sums = x_raw.sum(axis=1)
    divided = np.abs(sums) > ROW_SUM_EPS
    if not np.all(divided):
        warnings.warn(
            f"{int((~divided).sum())} row(s) with near-zero sum: row-sum "
            "normalization skipped for them"
        )
    # skipped rows divide by 1.0, so no row needs a masked copy
    y = x_raw / np.where(divided, sums, 1.0)[:, None]

    z = np.tanh(y)
    q = z * z

    norms = np.linalg.norm(q, axis=1)
    degenerate = norms < DEGENERATE_NORM_EPS
    if np.any(degenerate):
        warnings.warn(
            f"{int(degenerate.sum())} degenerate row(s) replaced by the "
            "uniform unit vector"
        )
    out = q / np.where(degenerate, 1.0, norms)[:, None]
    out[degenerate] = 1.0 / np.sqrt(k)

    if tape is not None:
        tape.row_sums = sums
        tape.divided_mask = divided
        tape.after_div = y
        tape.after_tanh = z
        tape.norms = norms
        tape.degenerate_mask = degenerate
        tape.output = out
    return out


def backward(tape: GradientTape, dloss_dx: np.ndarray) -> list[np.ndarray]:
    """Propagate dLoss/dX back through the transform chain and all layers.

    ``dloss_dx`` is the gradient with respect to the transformed embeddings
    when the tape recorded a transform, otherwise with respect to the raw
    GCN output. Returns one gradient per weight matrix.
    """
    if not tape.outputs:
        raise ValueError("tape has no recorded forward pass")
    g = np.asarray(dloss_dx, dtype=np.float64)

    if tape.output is not None:
        if g.shape != tape.output.shape:
            raise ValueError("gradient shape does not match transformed output")
        u, z, y = tape.output, tape.after_tanh, tape.after_div
        degenerate, divided = tape.degenerate_mask, tape.divided_mask
        # L2 normalization: rows replaced by a constant get zero gradient
        dots = np.einsum("ij,ij->i", g, u)
        gq = (g - dots[:, None] * u) / np.where(degenerate, 1.0, tape.norms)[:, None]
        gq[degenerate] = 0.0
        # square, then tanh
        gy = gq * 2.0 * z * (1.0 - z * z)
        # row-sum division (identity where it was skipped)
        rowdots = np.where(divided, np.einsum("ij,ij->i", gy, y), 0.0)
        g = (gy - rowdots[:, None]) / np.where(divided, tape.row_sums, 1.0)[:, None]

    if g.shape != tape.outputs[-1].shape:
        raise ValueError("gradient shape does not match raw output")
    grads: list[np.ndarray] = [None] * len(tape.weights)
    for layer in range(len(tape.weights) - 1, -1, -1):
        w, h = tape.weights[layer], tape.inputs[layer]
        dpre = _selu_grad(tape.outputs[layer])
        dpre *= g
        # the rule applied to the recorded operand repeats the forward order
        # (A_norm @ H is dense with d_in <= d_out columns); in A (H W) layers
        # the symmetric A_norm lets P = A_norm @ dpre give grad W = H' P, dH = P W'
        last = _aggregate_last(h, w.shape[1])
        p = tape.a_norm @ dpre if last else dpre
        grads[layer] = h.T @ p
        if layer > 0:
            g = p @ w.T if last else tape.a_norm @ (dpre @ w.T)
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
    """One bias-corrected Adam update; weights are updated in place."""
    if len(grads) != len(model.weights):
        raise ValueError("gradient count does not match weight count")
    state.step += 1
    t = state.step
    for i, (w, g) in enumerate(zip(model.weights, grads)):
        if g.shape != w.shape:
            raise ValueError(f"gradient shape mismatch at layer {i}")
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient at layer {i}")
        state.m[i] = ADAM_BETA1 * state.m[i] + (1.0 - ADAM_BETA1) * g
        state.v[i] = ADAM_BETA2 * state.v[i] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[i] / (1.0 - ADAM_BETA1**t)
        v_hat = state.v[i] / (1.0 - ADAM_BETA2**t)
        w -= state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


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
    lineno, fields = next(records, (0, []))
    if fields[:1] != ["dims"]:
        raise ValueError(f"{path}: missing dims line")
    dims = parse_rows(path, dtype=np.int64, records=[(lineno, fields[1:])])[0][0].tolist()
    check_layer_dims(dims, f"{path}:{lineno}: ")
    weights = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w, linenos = parse_rows(path, fan_out, records=islice(records, fan_in))
        if len(w) < fan_in:
            raise ValueError(f"{path}: truncated checkpoint")
        reject_rows(path, linenos, ~np.isfinite(w).all(axis=1), "non-finite weight")
        weights.append(w)
    for lineno, _ in records:
        raise ValueError(f"{path}:{lineno}: row after the last layer")
    return GcnModel(dims, weights)
