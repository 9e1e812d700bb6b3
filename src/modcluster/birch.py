"""BIRCH clustering over embedding rows, without a preset cluster count.

Points are inserted one at a time into a height-balanced CF-tree. Each leaf
entry is a subcluster summarized by a clustering feature (count, linear sum,
squared sum); a point is absorbed by the nearest leaf entry when the merged
subcluster radius stays within the threshold, otherwise it opens a new entry.
Overfull nodes split on their farthest pair of entry centroids. The final
clusters are exactly the leaf subclusters, so k emerges from the data.

Since rows are unit vectors, Euclidean distance here is monotone in cosine
similarity (||u - v||^2 = 2(1 - u.v)), making CF geometry the right space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, Partition


@dataclass
class BirchParams:
    threshold: float = 0.5
    branching_factor: int = 50

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.branching_factor < 2:
            raise ValueError("branching_factor must be at least 2")


class ClusteringFeature:
    """Additive (count, linear sum, squared sum) summary of a point set."""

    __slots__ = ("n", "ls", "ss")

    def __init__(self, n: int, ls: np.ndarray, ss: float):
        self.n = n
        self.ls = ls
        self.ss = ss

    @classmethod
    def of_point(cls, x: np.ndarray) -> "ClusteringFeature":
        return cls(1, x.copy(), float(x @ x))

    def merged(self, other: "ClusteringFeature") -> "ClusteringFeature":
        return ClusteringFeature(self.n + other.n, self.ls + other.ls, self.ss + other.ss)

    def add(self, other: "ClusteringFeature") -> None:
        self.n += other.n
        self.ls = self.ls + other.ls
        self.ss += other.ss

    @property
    def centroid(self) -> np.ndarray:
        return self.ls / self.n

    @property
    def radius(self) -> float:
        c = self.ls / self.n
        r2 = self.ss / self.n - float(c @ c)
        if r2 < -1e-12:
            raise ValueError("negative squared radius beyond rounding slack")
        return float(np.sqrt(max(r2, 0.0)))


class _Entry:
    __slots__ = ("cf", "child", "point_ids")

    def __init__(self, cf, child=None, point_ids=None):
        self.cf = cf
        self.child = child
        self.point_ids = point_ids


class CfNode:
    __slots__ = ("entries", "is_leaf")

    def __init__(self, is_leaf: bool, entries=None):
        self.entries: list[_Entry] = entries if entries is not None else []
        self.is_leaf = is_leaf


class CfTree:
    def __init__(self, params: BirchParams):
        self.params = params
        self.root: CfNode | None = None

    def insert(self, x: np.ndarray, point_id: int) -> None:
        if self.root is None:
            leaf = CfNode(is_leaf=True)
            leaf.entries.append(_Entry(ClusteringFeature.of_point(x), point_ids=[point_id]))
            self.root = leaf
            return
        split = self._insert(self.root, x, point_id)
        if split is not None:
            self.root = CfNode(is_leaf=False, entries=list(split))

    def _nearest(self, node: CfNode, x: np.ndarray) -> int:
        best, best_d = 0, np.inf
        for idx, entry in enumerate(node.entries):
            diff = entry.cf.centroid - x
            d = float(diff @ diff)
            if d < best_d:
                best, best_d = idx, d
        return best

    def _insert(self, node: CfNode, x: np.ndarray, point_id: int):
        best = self._nearest(node, x)
        entry = node.entries[best]
        if node.is_leaf:
            merged = entry.cf.merged(ClusteringFeature.of_point(x))
            if merged.radius <= self.params.threshold:
                entry.cf = merged
                entry.point_ids.append(point_id)
                return None
            node.entries.append(
                _Entry(ClusteringFeature.of_point(x), point_ids=[point_id])
            )
        else:
            split = self._insert(entry.child, x, point_id)
            if split is None:
                entry.cf.add(ClusteringFeature.of_point(x))
                return None
            node.entries[best : best + 1] = list(split)
        if len(node.entries) > self.params.branching_factor:
            return self._split(node)
        return None

    def _split(self, node: CfNode):
        """Split an overfull node on its farthest pair of entry centroids."""
        cents = np.array([e.cf.centroid for e in node.entries])
        diff = cents[:, None, :] - cents[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        i, j = np.unravel_index(int(np.argmax(d2)), d2.shape)
        group_a, group_b = [node.entries[i]], [node.entries[j]]
        for idx, entry in enumerate(node.entries):
            if idx in (i, j):
                continue
            (group_a if d2[idx, i] <= d2[idx, j] else group_b).append(entry)

        def summed(entries):
            cf = ClusteringFeature(0, np.zeros_like(entries[0].cf.ls), 0.0)
            for e in entries:
                cf.add(e.cf)
            return cf

        return (
            _Entry(summed(group_a), child=CfNode(node.is_leaf, group_a)),
            _Entry(summed(group_b), child=CfNode(node.is_leaf, group_b)),
        )

    def leaf_entries(self):
        """Leaf subclusters, left to right through the tree."""
        stack = [self.root] if self.root is not None else []
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(e.child for e in reversed(node.entries))

    def validate(self) -> None:
        """Check branching caps and CF additivity at every internal node."""
        if self.root is None:
            return
        stack = [self.root]
        while stack:
            node = stack.pop()
            if len(node.entries) > self.params.branching_factor:
                raise AssertionError("node exceeds branching factor")
            if node.is_leaf:
                continue
            for entry in node.entries:
                child = entry.child
                total_n = sum(e.cf.n for e in child.entries)
                total_ls = sum(e.cf.ls for e in child.entries)
                total_ss = sum(e.cf.ss for e in child.entries)
                if entry.cf.n != total_n:
                    raise AssertionError("CF count mismatch with children")
                if not np.allclose(entry.cf.ls, total_ls, atol=1e-9):
                    raise AssertionError("CF linear sum mismatch with children")
                if not np.isclose(entry.cf.ss, total_ss, atol=1e-9):
                    raise AssertionError("CF squared sum mismatch with children")
                stack.append(child)


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
    for idx in range(x.shape[0]):
        tree.insert(x[idx], idx)
    centroids = np.array([e.cf.centroid for e in tree.leaf_entries()])
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; the ||x||^2 term is constant per row
    scores = x @ centroids.T - 0.5 * np.einsum("ij,ij->i", centroids, centroids)
    nearest = np.argmax(scores, axis=1)
    # compact away any centroid that attracted no points
    return Partition.compact(nearest)


def assign_singletons(partition: Partition, g: Graph) -> Partition:
    """Relabel cluster ids to a contiguous 0..k-1 range (membership unchanged)."""
    if len(partition.assignment) != g.n:
        raise ValueError("partition does not cover the graph")
    return Partition.compact(partition.assignment)
