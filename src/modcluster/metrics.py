"""Hard-partition quality measures: modularity, conductance, NMI, pairwise F1.

All values are returned on their natural [0, 1]-ish scales; pipeline._scaled
writes them x100 to metrics.csv, and the CLI prints them x100.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import UNLABELED, Graph, Partition

F1_SAMPLE_SIZE = 1000  # labeled nodes in pairwise F1's sample


@dataclass
class MetricsReport:
    q: float
    conductance: float
    k_found: int
    nmi: float | None = None
    f1: float | None = None


def _edge_ends(g: Graph, p: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Per cluster, the directed edge ends inside it and the ends cut from it."""
    if len(p.assignment) != g.n:
        raise ValueError("partition does not cover the graph")
    src = np.repeat(p.assignment, g.degrees)
    same = src == p.assignment[g.adj.indices]
    return np.bincount(src[same], minlength=p.k), np.bincount(src[~same], minlength=p.k)


def modularity(g: Graph, p: Partition) -> float:
    """Newman modularity of a hard partition, via per-cluster edge/degree sums.

    Q = sum_c [ m_c / m - (D_c / 2m)^2 ], equal to the pairwise
    (A_ij - d_i d_j / 2m) delta(c_i, c_j) double sum.
    """
    internal_directed, _ = _edge_ends(g, p)
    if g.m == 0:
        raise ValueError("modularity is undefined for an edgeless graph (m=0)")
    degree_sums = np.bincount(p.assignment, weights=g.degrees, minlength=p.k)
    two_m = 2.0 * g.m
    return float(np.sum(internal_directed / two_m - (degree_sums / two_m) ** 2))


def conductance(g: Graph, p: Partition) -> float:
    """Unweighted mean over clusters of cut / (2 * internal + cut).

    A cluster with zero volume contributes 0, with a warning.
    """
    internal_directed, cut = _edge_ends(g, p)
    volume = internal_directed + cut
    phi = np.zeros(p.k, dtype=np.float64)
    positive = volume > 0
    if not np.all(positive):
        warnings.warn(
            f"{int((~positive).sum())} zero-volume cluster(s): conductance 0 for them"
        )
    phi[positive] = cut[positive] / volume[positive]
    return float(phi.mean())


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Joint count table over two integer labelings of the same nodes."""
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return table


def nmi(p: Partition, labels: np.ndarray) -> float:
    """Normalized mutual information over labeled nodes, natural-log entropies,
    normalized by the arithmetic mean of the two entropies."""
    labeled = labels != UNLABELED
    if not np.any(labeled):
        raise ValueError("no labeled nodes")
    table = _contingency(p.assignment[labeled], labels[labeled])
    total = table.sum()
    pa = table.sum(axis=1) / total
    pb = table.sum(axis=0) / total
    ha = -float(np.sum(pa * np.log(pa, where=pa > 0, out=np.zeros_like(pa))))
    hb = -float(np.sum(pb * np.log(pb, where=pb > 0, out=np.zeros_like(pb))))
    if ha == 0.0 and hb == 0.0:
        return 1.0  # both single-cluster, necessarily identical
    if ha == 0.0 or hb == 0.0:
        return 0.0
    pj = table / total
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = pj / np.outer(pa, pb)
        terms = np.where(pj > 0, pj * np.log(ratio, where=pj > 0, out=np.zeros_like(ratio)), 0.0)
    info = float(terms.sum())
    return 2.0 * info / (ha + hb)


def check_sample_size(sample_size: int) -> None:
    if not sample_size >= 2:
        raise ValueError("f1_sample_size must be at least 2")


def pairwise_f1(
    p: Partition, labels: np.ndarray, sample_size: int = F1_SAMPLE_SIZE, seed: int = 0
) -> float:
    """F1 over node pairs in a seeded sample of labeled nodes.

    A pair is predicted positive when both nodes share a cluster, and truly
    positive when they share a label. With sample_size >= the labeled count
    the score is exact.
    """
    check_sample_size(sample_size)
    labeled_idx = np.flatnonzero(labels != UNLABELED)
    if len(labeled_idx) < 2:
        raise ValueError("need at least two labeled nodes")
    rng = np.random.default_rng(seed)
    take = min(sample_size, len(labeled_idx))
    sample = rng.choice(labeled_idx, size=take, replace=False)

    table = _contingency(p.assignment[sample], labels[sample])

    def pairs(counts: np.ndarray) -> float:
        return float(np.sum(counts * (counts - 1) // 2))

    tp = pairs(table.ravel())
    predicted = pairs(table.sum(axis=1))
    actual = pairs(table.sum(axis=0))
    if predicted == 0 or actual == 0 or tp == 0:
        return 0.0
    precision = tp / predicted
    recall = tp / actual
    return 2.0 * precision * recall / (precision + recall)


def evaluate(
    g: Graph,
    p: Partition,
    labels: np.ndarray | None = None,
    sample_size: int = F1_SAMPLE_SIZE,
    f1_seed: int = 0,
) -> MetricsReport:
    """All applicable metrics for one partition; NMI/F1 need labels."""
    report = MetricsReport(
        q=modularity(g, p),
        conductance=conductance(g, p),
        k_found=p.k,
    )
    if labels is not None and np.any(labels != UNLABELED):
        report.nmi = nmi(p, labels)
        report.f1 = pairwise_f1(p, labels, sample_size=sample_size, seed=f1_seed)
    return report
