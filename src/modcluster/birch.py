"""BIRCH clustering over embedding rows, without a preset cluster count.

Points are inserted one at a time into a height-balanced CF-tree. Each node
keeps its entries' clustering features as rows of three arrays: count `n`
(entries), linear sum `ls` (entries x d) and squared sum `ss` (entries).
A leaf row is a subcluster; a point is absorbed by the nearest leaf row when
the merged subcluster radius stays within the threshold, otherwise it opens
a new row. An internal row sums its child's rows. Overfull nodes split on
their farthest pair of entry centroids. The final clusters are exactly the
leaf subclusters, so k emerges from the data.

Since rows are unit vectors, Euclidean distance here is monotone in cosine
similarity (||u - v||^2 = 2(1 - u.v)), making CF geometry the right space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Partition


@dataclass
class BirchParams:
    threshold: float = 0.5
    branching_factor: int = 50

    def __post_init__(self):
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")
        if not self.branching_factor >= 2:
            raise ValueError("branching_factor must be at least 2")


@dataclass
class _Entry:
    """An internal node's link to the child behind row i. The row itself is
    in the node's arrays; the record exists so that `entries[i].child` names
    the i-th child, which the benchmark's tree-depth probe reads."""

    child: "CfNode"


class CfNode:
    """Entry i is row i of `n`, `ls` and `ss`; an internal node also holds
    `entries[i].child`. Internal rows' `ss` is read only by `validate`."""

    __slots__ = ("is_leaf", "n", "ls", "ss", "entries")

    def __init__(self, is_leaf: bool, n, ls, ss, entries=None):
        self.is_leaf = is_leaf
        self.n, self.ls, self.ss = n, ls, ss
        self.entries: list[_Entry] = entries if entries is not None else []

    def insert_row(self, i: int, n, ls, ss) -> None:
        self.n = np.insert(self.n, i, n)
        self.ls = np.insert(self.ls, i, ls, axis=0)
        self.ss = np.insert(self.ss, i, ss)


def _totals(node: CfNode):
    """A node's row sums, added one row at a time in entry order (numpy's
    pairwise sum rounds differently on some shapes)."""
    return node.n.sum(), sum(node.ls), sum(node.ss)


def _nearest(node: CfNode, x: np.ndarray) -> int:
    diff = node.ls / node.n[:, None] - x
    # a stack of 1 x d by d x 1 products takes the same dot product per row
    # as `x @ x`, so near-ties resolve as a per-row loop would
    return int(np.argmin((diff[:, None, :] @ diff[:, :, None]).ravel()))


class CfTree:
    def __init__(self, params: BirchParams):
        self.params = params
        self.root: CfNode | None = None

    def insert(self, x: np.ndarray) -> None:
        if self.root is None:
            self.root = CfNode(True, np.ones(1, np.int64), x[None].copy(), np.array([x @ x]))
            return
        split = self._insert(self.root, x)
        if split is not None:
            rows = (np.array(col) for col in zip(*map(_totals, split)))
            self.root = CfNode(False, *rows, [_Entry(child) for child in split])

    def _insert(self, node: CfNode, x: np.ndarray):
        best = _nearest(node, x)
        xx = x @ x
        if node.is_leaf:
            n, ls, ss = node.n[best] + 1, node.ls[best] + x, node.ss[best] + xx
            c = ls / n
            r2 = ss / n - c @ c
            if r2 < -1e-12:
                raise ValueError("negative squared radius beyond rounding slack")
            if np.sqrt(max(r2, 0.0)) <= self.params.threshold:
                node.n[best], node.ls[best], node.ss[best] = n, ls, ss
                return None
            node.insert_row(len(node.n), 1, x, xx)
        else:
            split = self._insert(node.entries[best].child, x)
            if split is None:
                node.n[best] += 1
                node.ls[best] += x
                node.ss[best] += xx
                return None
            half_a, half_b = split
            node.n[best], node.ls[best], node.ss[best] = _totals(half_a)
            node.entries[best] = _Entry(half_a)
            node.insert_row(best + 1, *_totals(half_b))
            node.entries.insert(best + 1, _Entry(half_b))
        if len(node.n) > self.params.branching_factor:
            return self._split(node)
        return None

    def _split(self, node: CfNode):
        """Split an overfull node on its farthest pair of entry centroids:
        each half lists its seed entry first, then its others in order."""
        cents = node.ls / node.n[:, None]
        diff = cents[:, None, :] - cents[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        i, j = np.unravel_index(int(np.argmax(d2)), d2.shape)
        others = np.delete(np.arange(len(node.n)), [i, j])
        near_i = d2[others, i] <= d2[others, j]
        halves = []
        for rows in (np.r_[i, others[near_i]], np.r_[j, others[~near_i]]):
            entries = [node.entries[r] for r in rows] if not node.is_leaf else None
            halves.append(CfNode(node.is_leaf, node.n[rows], node.ls[rows], node.ss[rows], entries))
        return tuple(halves)

    def leaf_entries(self):
        """Leaf subcluster centroids, one row each, left to right."""
        stack = [self.root] if self.root is not None else []
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.ls / node.n[:, None]
            else:
                stack.extend(e.child for e in reversed(node.entries))

    def validate(self) -> None:
        """Check branching caps and CF additivity at every internal node."""
        stack = [self.root] if self.root is not None else []
        while stack:
            node = stack.pop()
            if len(node.n) > self.params.branching_factor:
                raise AssertionError("node exceeds branching factor")
            if node.is_leaf:
                continue
            for row, entry in enumerate(node.entries):
                n, ls, ss = _totals(entry.child)
                if node.n[row] != n:
                    raise AssertionError("CF count mismatch with children")
                if not np.allclose(node.ls[row], ls, atol=1e-9):
                    raise AssertionError("CF linear sum mismatch with children")
                if not np.isclose(node.ss[row], ss, atol=1e-9):
                    raise AssertionError("CF squared sum mismatch with children")
                stack.append(entry.child)


def birch_fit(x: np.ndarray, params: BirchParams | None = None) -> Partition:
    """Cluster embedding rows; insertion follows row index order.

    Each point's final label is its nearest leaf-subcluster centroid (the
    standard BIRCH readout), so a subcluster whose centroid drifted while
    absorbing early points does not pin those points to it.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("expected a nonempty 2-d embedding matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite embedding values")
    params = params or BirchParams()
    tree = CfTree(params)
    for row in x:
        tree.insert(row)
    centroids = np.array(list(tree.leaf_entries()))
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; the ||x||^2 term is constant per row
    scores = x @ centroids.T - 0.5 * np.einsum("ij,ij->i", centroids, centroids)
    nearest = np.argmax(scores, axis=1)
    # compact away any centroid that attracted no points
    return Partition.compact(nearest)
