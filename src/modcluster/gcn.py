"""Graph convolutional network with SELU activations, trained by manual backprop.

The forward pass stacks ``X <- selu(A_norm @ X @ W)`` layers (SELU after every
layer, readout included). Raw outputs are then mapped onto the nonnegative
part of the unit sphere by a four-step row transform: divide by the row sum,
tanh, elementwise square, L2-normalize. All gradients are computed in closed
form against intermediates recorded on a GradientTape.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .graph import parse_line

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
    return np.where(
        x >= 0.0, SELU_SCALE * x, SELU_SCALE * SELU_ALPHA * np.expm1(np.minimum(x, 0.0))
    )


def _selu_grad(x: np.ndarray) -> np.ndarray:
    return np.where(
        x >= 0.0, SELU_SCALE, SELU_SCALE * SELU_ALPHA * np.exp(np.minimum(x, 0.0))
    )


@dataclass
class GcnModel:
    """Stacked layer weights; layer_dims chains input size through to output."""

    layer_dims: list[int]
    weights: list[np.ndarray]


def init_model(layer_dims: list[int], seed: int) -> GcnModel:
    """Glorot-uniform initialization, deterministic per seed."""
    if len(layer_dims) < 2:
        raise ValueError("layer_dims must chain at least input -> output")
    if any(d <= 0 for d in layer_dims):
        raise ValueError("layer dimensions must be positive")
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
    aggregated: list[np.ndarray] = field(default_factory=list)
    preacts: list[np.ndarray] = field(default_factory=list)
    weights: list[np.ndarray] = field(default_factory=list)
    # transform-chain intermediates (None until transform_embeddings runs)
    row_sums: np.ndarray | None = None
    divided_mask: np.ndarray | None = None
    after_div: np.ndarray | None = None
    after_tanh: np.ndarray | None = None
    norms: np.ndarray | None = None
    degenerate_mask: np.ndarray | None = None
    output: np.ndarray | None = None


def gcn_forward(
    model: GcnModel,
    a_norm: sp.csr_matrix,
    x0: np.ndarray,
    tape: GradientTape | None = None,
) -> np.ndarray:
    """Run all GCN layers; returns the raw (untransformed) embedding matrix."""
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape[1] != model.layer_dims[0]:
        raise ValueError(
            f"feature dim {x0.shape[1]} != model input dim {model.layer_dims[0]}"
        )
    if tape is not None:
        tape.a_norm = a_norm
        tape.aggregated.clear()
        tape.preacts.clear()
        tape.weights = model.weights
    h = x0
    for layer, w in enumerate(model.weights):
        ah = a_norm @ h
        pre = ah @ w
        out = selu(pre)
        if not np.all(np.isfinite(out)):
            raise DivergenceError(f"non-finite activation in layer {layer}")
        if tape is not None:
            tape.aggregated.append(ah)
            tape.preacts.append(pre)
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
    y = x_raw.copy()
    y[divided] /= sums[divided, None]

    z = np.tanh(y)
    q = z * z

    norms = np.linalg.norm(q, axis=1)
    degenerate = norms < DEGENERATE_NORM_EPS
    if np.any(degenerate):
        warnings.warn(
            f"{int(degenerate.sum())} degenerate row(s) replaced by the "
            "uniform unit vector"
        )
    out = np.empty_like(q)
    out[~degenerate] = q[~degenerate] / norms[~degenerate, None]
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
    if not tape.preacts:
        raise ValueError("tape has no recorded forward pass")
    g = np.asarray(dloss_dx, dtype=np.float64)

    if tape.output is not None:
        if g.shape != tape.output.shape:
            raise ValueError("gradient shape does not match transformed output")
        u, z, y = tape.output, tape.after_tanh, tape.after_div
        # L2 normalization: rows replaced by a constant get zero gradient
        gq = np.zeros_like(g)
        ok = ~tape.degenerate_mask
        dots = np.einsum("ij,ij->i", g[ok], u[ok])
        gq[ok] = (g[ok] - dots[:, None] * u[ok]) / tape.norms[ok, None]
        # square, then tanh
        gz = gq * 2.0 * z
        gy = gz * (1.0 - z * z)
        # row-sum division (identity where it was skipped)
        g = gy.copy()
        div = tape.divided_mask
        rowdots = np.einsum("ij,ij->i", gy[div], y[div])
        g[div] = (gy[div] - rowdots[:, None]) / tape.row_sums[div, None]

    if g.shape != tape.preacts[-1].shape:
        raise ValueError("gradient shape does not match raw output")
    grads: list[np.ndarray] = [None] * len(tape.weights)
    for layer in range(len(tape.weights) - 1, -1, -1):
        dpre = g * _selu_grad(tape.preacts[layer])
        grads[layer] = tape.aggregated[layer].T @ dpre
        if layer > 0:
            g = tape.a_norm @ (dpre @ tape.weights[layer].T)
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
        dims_line = fh.readline().split()
        if not dims_line or dims_line[0] != "dims":
            raise ValueError(f"{path}: missing dims line")
        dims = parse_line(path, 2, lambda: [int(d) for d in dims_line[1:]])
        if len(dims) < 2:
            raise ValueError(f"{path}: dims line must list at least two sizes")
        weights = []
        lineno = 2
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            rows = []
            for _ in range(fan_in):
                line = fh.readline()
                lineno += 1
                if not line:
                    raise ValueError(f"{path}: truncated checkpoint")
                rows.append(parse_line(path, lineno, lambda: np.array(line.split(), float)))
                if len(rows[-1]) != fan_out:
                    raise ValueError(f"{path}:{lineno}: weight row width != {fan_out}")
            weights.append(np.vstack(rows))
    return GcnModel(dims, weights)
