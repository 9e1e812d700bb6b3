"""Seeded input generation for the benchmark workloads.

The generators here are the benchmark's own, independent of the package's
``generate_sbm``, so that a change to the program cannot change the inputs it
is measured on. The same seed always gives byte-identical files.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np


def _rng(seed: int, role: str) -> np.random.Generator:
    """Independent stream per (seed, role)."""
    salt = int.from_bytes(hashlib.sha256(role.encode()).digest()[:4], "little")
    return np.random.default_rng([int(seed), salt])


def _within_pairs(rng, size: int, p: float) -> np.ndarray:
    """Distinct unordered pairs u < v inside one block, each present with prob p."""
    total = size * (size - 1) // 2
    count = rng.binomial(total, p)
    idx = np.sort(rng.choice(total, size=count, replace=False))
    # decode the row-major index over the strict upper triangle
    u = (size - 2 - np.floor(np.sqrt(-8.0 * idx + 4.0 * size * (size - 1) - 7) / 2.0 - 0.5)).astype(np.int64)
    v = idx + u + 1 - size * (size - 1) // 2 + (size - u) * ((size - u) - 1) // 2
    return np.stack([u, v], axis=1)


def _cross_pairs(rng, size_a: int, size_b: int, p: float) -> np.ndarray:
    total = size_a * size_b
    count = rng.binomial(total, p)
    idx = np.sort(rng.choice(total, size=count, replace=False))
    return np.stack([idx // size_b, idx % size_b], axis=1)


def sbm_edges(seed: int, sizes: list[int], p_in: float, p_out: float) -> np.ndarray:
    """Edge array (e, 2) with u < v of a stochastic block model, rows sorted.

    A node the draw leaves isolated is joined to a random node of its own
    block, so that every node appears in the edge list: the program infers
    n from the largest id there, and real graphs such as Cora have no
    isolated nodes.
    """
    rng = _rng(seed, "sbm")
    starts = np.concatenate([[0], np.cumsum(sizes)])
    parts = []
    for a, size_a in enumerate(sizes):
        parts.append(_within_pairs(rng, size_a, p_in) + starts[a])
        for b in range(a + 1, len(sizes)):
            pairs = _cross_pairs(rng, size_a, sizes[b], p_out)
            parts.append(pairs + [starts[a], starts[b]])
    edges = np.concatenate(parts).astype(np.int64)
    isolated = np.flatnonzero(np.bincount(edges.ravel(), minlength=starts[-1]) == 0)
    if len(isolated):
        block = np.searchsorted(starts, isolated, side="right") - 1
        size = np.asarray(sizes)[block]
        partner = starts[block] + rng.integers(0, size - 1)
        partner += partner >= isolated  # skip the node itself
        extra = np.stack([np.minimum(isolated, partner), np.maximum(isolated, partner)], axis=1)
        edges = np.concatenate([edges, extra])
    return np.unique(edges, axis=0)


def planted_labels(sizes: list[int]) -> np.ndarray:
    return np.repeat(np.arange(len(sizes)), sizes)


def onehot_noise_features(seed: int, labels: np.ndarray) -> np.ndarray:
    """Block indicator plus unit Gaussian noise, one column per block (the
    program's ``generate`` features)."""
    k = int(labels.max()) + 1
    x = _rng(seed, "features").normal(0.0, 1.0, size=(len(labels), k))
    x[np.arange(len(labels)), labels] += 1.0
    return x


def bag_of_words(seed: int, labels: np.ndarray, vocab: int, words_per_node: int,
                 topic_share: float) -> list[tuple[int, int]]:
    """Binary bag-of-words triplets: each block owns a slice of the vocabulary;
    a node draws ``words_per_node`` words, each from its block's slice with
    probability ``topic_share`` and from the whole vocabulary otherwise."""
    rng = _rng(seed, "words")
    k = int(labels.max()) + 1
    bounds = np.linspace(0, vocab, k + 1).astype(np.int64)
    cells = set()
    for node, lab in enumerate(labels):
        lo, hi = bounds[lab], bounds[lab + 1]
        topical = rng.random(words_per_node) < topic_share
        words = np.where(topical, rng.integers(lo, hi, words_per_node),
                         rng.integers(0, vocab, words_per_node))
        cells.update((node, int(w)) for w in words)
    return sorted(cells)


def modularity(edges: np.ndarray, labels: np.ndarray) -> float:
    """Newman Q of a partition of the graph with undirected edge array ``edges``."""
    m = len(edges)
    k = int(labels.max()) + 1
    deg = np.bincount(edges.ravel(), minlength=len(labels)).astype(np.float64)
    same = labels[edges[:, 0]] == labels[edges[:, 1]]
    internal = np.bincount(labels[edges[same, 0]], minlength=k)
    vol = np.bincount(labels, weights=deg, minlength=k)
    return float(np.sum(internal / m - (vol / (2.0 * m)) ** 2))


def write_edges(path: Path, edges: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("".join(f"{u}\t{v}\n" for u, v in edges.tolist()))


def write_labels(path: Path, labels: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("".join(f"{i}\t{lab}\n" for i, lab in enumerate(labels.tolist())))


def write_dense(path: Path, x: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("".join("\t".join(f"{v:.17g}" for v in row) + "\n" for row in x.tolist()))


def write_sparse(path: Path, n: int, r: int, cells: list[tuple[int, int]]) -> None:
    with open(path, "w") as fh:
        fh.write(f"sparse {n} {r}\n")
        fh.write("".join(f"{i}\t{j}\t1\n" for i, j in cells))
