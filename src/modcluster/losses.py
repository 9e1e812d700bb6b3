"""Clustering objectives over unit-sphere embeddings, with closed-form gradients.

Everything here is linear in graph size: the soft-modularity term is
evaluated through sparse trace identities (never materializing the n-by-n
modularity or similarity matrices), and the auxiliary label term goes through
the small k-by-k / p-by-p Gram matrices instead of the |S|-by-|S| pairwise
membership matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gcn import _BLOCK_ELEMENTS, _matmul, _row_runs
from .graph import Graph


@dataclass
class AuxiliaryInfo:
    """Optional node-level supervision plus the loss weights.

    variant "labels": ``subset`` indexes the supervised nodes and ``onehot``
    holds one label indicator per subset row. variant "pairs": ``pairs`` lists
    same-cluster node pairs. variant "none": carries only the weights (lam is
    then irrelevant; alpha still controls the collapse regularizer). The fields
    are used as given: the pipeline checks its inputs where it reads them.
    """

    variant: str = "none"
    subset: np.ndarray | None = None
    onehot: np.ndarray | None = None
    pairs: np.ndarray | None = None
    lam: float = 0.0
    alpha: float = 0.0


def onehot_from_labels(labels: np.ndarray, subset: np.ndarray) -> np.ndarray:
    """One-hot matrix over the distinct labels of the full labeled set."""
    labeled_values = np.unique(labels[labels >= 0])
    col = np.searchsorted(labeled_values, labels[subset])
    onehot = np.zeros((len(subset), len(labeled_values)), dtype=np.float64)
    onehot[np.arange(len(subset)), col] = 1.0
    return onehot


@dataclass
class LossReport:
    l1: float
    l2: float
    reg: float
    total: float
    soft_modularity: float


def _pairwise_dot(x: np.ndarray, y: np.ndarray) -> np.float64:
    """``np.sum(x * y)`` for 1-d ``x`` and ``y``, bit for bit, without the whole product:
    split where numpy's pairwise sum splits (half the length, rounded down to a multiple
    of 8) until a piece has at most _BLOCK_ELEMENTS values. Arguments, not a closure: a
    recursive closure over the arrays is a reference cycle that keeps them alive."""
    n = len(x)
    if n <= _BLOCK_ELEMENTS:
        return np.sum(x * y)
    half = n // 2 - n // 2 % 8
    return _pairwise_dot(x[:half], y[:half]) + _pairwise_dot(x[half:], y[half:])


def modularity_loss(x: np.ndarray, g: Graph) -> tuple[float, np.ndarray]:
    """Negative soft modularity -(1/2m)(Tr(X'AX) - Tr(X'dd'X)/2m) and its gradient.

    Cost O(k(m+n)); the n-by-n modularity matrix is never formed.
    """
    if x.shape[0] != g.n:
        raise ValueError("embedding row count != graph size")
    if g.m == 0:
        raise ValueError("modularity is undefined for an edgeless graph (m=0)")
    two_m = 2.0 * g.m
    ax = _matmul(g.adj, x)
    d = g.degrees.astype(np.float64)
    dtx = x.T @ d
    value = -(float(_pairwise_dot(x.ravel(), ax.ravel())) - float(dtx @ dtx) / two_m) / two_m

    def kernel(lo, hi):  # ax becomes -(2 A X - d d'X / m) / 2m
        grad = np.multiply(ax[lo:hi], 2.0, out=ax[lo:hi])
        grad -= np.multiply.outer(d[lo:hi], dtx) / g.m
        grad /= -two_m

    _row_runs(kernel, *ax.shape)
    return value, ax


def aux_loss_labels(
    x: np.ndarray, subset: np.ndarray, onehot: np.ndarray
) -> tuple[float, np.ndarray]:
    """Squared Frobenius mismatch between pairwise label co-membership and
    embedding similarity on the supervised subset, via Gram-matrix traces:

        (Tr((C'C)^2) + Tr((Xs'Xs)^2) - 2 Tr(Xs'C C'Xs)) / |S|^2

    which equals ||CC' - XsXs'||_F^2 / |S|^2 without forming the |S|-by-|S|
    matrices. The gradient is nonzero only on subset rows.
    """
    if len(subset) == 0:
        raise ValueError("empty auxiliary subset")
    s = float(len(subset))
    xs = x[subset]
    ctc = onehot.T @ onehot
    xtx = xs.T @ xs
    ctx = onehot.T @ xs
    value = (
        float(np.sum(ctc * ctc)) + float(np.sum(xtx * xtx)) - 2.0 * float(np.sum(ctx * ctx))
    ) / (s * s)
    grad = np.zeros_like(x)
    grad[subset] = 4.0 / (s * s) * (xs @ xtx - onehot @ ctx)
    return value, grad


def aux_loss_pairs(x: np.ndarray, pairs: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared cosine gap (1 - Xi.Xj)^2 over known same-cluster pairs."""
    if len(pairs) == 0:
        raise ValueError("empty pair list")
    i, j = pairs[:, 0], pairs[:, 1]
    cos = np.einsum("ij,ij->i", x[i], x[j])
    gaps = 1.0 - cos
    value = float(np.mean(gaps * gaps))
    coeff = -2.0 * gaps / len(pairs)
    grad = np.zeros_like(x)
    np.add.at(grad, i, coeff[:, None] * x[j])
    np.add.at(grad, j, coeff[:, None] * x[i])
    return value, grad


def collapse_regularizer(x: np.ndarray, alpha: float) -> tuple[float, np.ndarray]:
    """alpha * ||mean embedding||^4; penalizes the all-one-cluster solution. Every
    row of its gradient is the same: it is one row, broadcast (read-only) to x's shape."""
    xbar = x.mean(axis=0)
    sq = float(xbar @ xbar)
    value = alpha * sq * sq
    return value, np.broadcast_to(alpha * 4.0 * sq / x.shape[0] * xbar, x.shape)


def total_loss(
    x: np.ndarray, g: Graph, aux: AuxiliaryInfo | None = None
) -> tuple[LossReport, np.ndarray]:
    """Combined objective l1 + lam*l2 + reg and its gradient with respect to X."""
    aux = aux or AuxiliaryInfo()
    l1, grad = modularity_loss(x, g)
    l2 = reg = 0.0
    if aux.variant == "labels":
        l2, g2 = aux_loss_labels(x, aux.subset, aux.onehot)
        grad += np.multiply(g2, aux.lam, out=g2)  # g2 is scaled in place
    elif aux.variant == "pairs":
        l2, g2 = aux_loss_pairs(x, aux.pairs)
        grad += np.multiply(g2, aux.lam, out=g2)
    if aux.alpha != 0.0:  # g3 is a broadcast row
        reg, g3 = collapse_regularizer(x, aux.alpha)
        grad += g3
    report = LossReport(
        l1=l1,
        l2=l2,
        reg=reg,
        total=l1 + aux.lam * l2 + reg,
        soft_modularity=-l1,
    )
    return report, grad
