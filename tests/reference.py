"""Independent oracles used to pin expected values.

Everything here is deliberately naive (dense matrices, literal double sums,
finite differences) and shares no code path with the library.
"""

import numpy as np

import modcluster as mc


def dense_adjacency(g) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u in range(g.n):
        for v in g.neighbors(u):
            a[u, v] = 1.0
    return a


def dense_adjacency_from_edges(edges, n: int) -> np.ndarray:
    """Symmetric 0/1 adjacency of an edge list: self-loops dropped, each
    unordered pair kept once."""
    pairs = {(min(u, v), max(u, v)) for u, v in edges if u != v}
    a = np.zeros((n, n))
    for u, v in pairs:
        a[u, v] = a[v, u] = 1.0
    return a


def modularity_double_sum(a: np.ndarray, assignment: np.ndarray) -> float:
    """Literal pairwise 'edge minus degree-product expectation' sum."""
    n = a.shape[0]
    d = a.sum(axis=1)
    two_m = d.sum()
    q = 0.0
    for i in range(n):
        for j in range(n):
            if assignment[i] == assignment[j]:
                q += a[i, j] - d[i] * d[j] / two_m
    return q / two_m


def soft_modularity_dense(a: np.ndarray, x: np.ndarray) -> float:
    """(1/2m) Tr(B X X^T) with the modularity matrix built densely."""
    d = a.sum(axis=1)
    two_m = d.sum()
    b = a - np.outer(d, d) / two_m
    return float(np.trace(b @ x @ x.T)) / two_m


def aux_frobenius(x_s: np.ndarray, onehot: np.ndarray) -> float:
    """Direct ||CC^T - X_S X_S^T||_F^2 / |S|^2."""
    h = onehot @ onehot.T
    diff = h - x_s @ x_s.T
    return float(np.sum(diff * diff)) / len(x_s) ** 2


def fd_weight_grads(loss_fn, model, h: float = 1e-5) -> list:
    """Central finite differences of a scalar loss over every weight entry."""
    grads = []
    for w in model.weights:
        g = np.zeros_like(w)
        for idx in np.ndindex(*w.shape):
            orig = w[idx]
            w[idx] = orig + h
            up = loss_fn(model)
            w[idx] = orig - h
            down = loss_fn(model)
            w[idx] = orig
            g[idx] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def fd_embedding_grad(loss_fn, x, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar loss over embedding entries."""
    g = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        orig = x[idx]
        x[idx] = orig + h
        up = loss_fn(x)
        x[idx] = orig - h
        down = loss_fn(x)
        x[idx] = orig
        g[idx] = (up - down) / (2.0 * h)
    return g


def max_rel_error(analytic, numeric, floor: float = 1e-5) -> float:
    """Worst per-entry relative error, floored for near-zero entries."""
    worst = 0.0
    for a, f in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
        worst = max(worst, float((np.abs(a - f) / denom).max()))
    return worst


def total_loss_value(model, a_norm, features, g, aux) -> float:
    x = mc.transform_embeddings(mc.gcn_forward(model, a_norm, features))
    report, _ = mc.total_loss(x, g, aux)
    return report.total


def random_graph(n: int, p: float, seed: int):
    """Erdos-Renyi graph via the single-block SBM sampler.

    Retries with consecutive seeds when a draw comes out edgeless (the
    generator refuses m=0), so callers always get a usable graph.
    """
    while True:
        try:
            return mc.generate_sbm([n], p, 0.0, seed)[0]
        except ValueError:
            seed += 1


class _BirchNode:
    """One CF-tree node as parallel lists: count, linear sum and squared sum
    per row, and for an internal node the child behind each row."""

    def __init__(self, leaf, n, ls, ss, children=None):
        self.leaf, self.n, self.ls, self.ss = leaf, n, ls, ss
        self.children = children if children is not None else []

    def totals(self):
        """Row sums, added one row at a time in row order."""
        return sum(self.n), sum(self.ls), sum(self.ss)


def birch_reference(x: np.ndarray, threshold: float, branching: int):
    """Plain BIRCH: every visit divides the whole node's rows by their
    counts, ranks them with a per-row dot-product loop and takes ``x @ x``
    again. Returns (leaf centroids left to right, assignment).

    The split and the readout score pairs and rows with the library's own
    formulas, which no insert path touches."""

    def centroids(node):
        return np.array(node.ls) / np.array(node.n, dtype=np.float64)[:, None]

    def nearest(node, point):
        return int(np.argmin([row @ row for row in centroids(node) - point]))

    def split(node):
        cents = centroids(node)
        diff = cents[:, None, :] - cents[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        i, j = np.unravel_index(int(np.argmax(d2)), d2.shape)
        others = [r for r in range(len(node.n)) if r not in (i, j)]
        near_i = [r for r in others if d2[r, i] <= d2[r, j]]
        near_j = [r for r in others if not d2[r, i] <= d2[r, j]]
        halves = []
        for rows in ([i, *near_i], [j, *near_j]):
            children = [node.children[r] for r in rows] if not node.leaf else None
            halves.append(_BirchNode(node.leaf, [node.n[r] for r in rows],
                                     [node.ls[r] for r in rows],
                                     [node.ss[r] for r in rows], children))
        return halves

    def insert(node, point):
        best = nearest(node, point)
        xx = point @ point
        if node.leaf:
            n, ls, ss = node.n[best] + 1, node.ls[best] + point, node.ss[best] + xx
            c = ls / n
            r2 = ss / n - c @ c
            if np.sqrt(max(r2, 0.0)) <= threshold:
                node.n[best], node.ls[best], node.ss[best] = n, ls, ss
                return None
            node.n.append(1)
            node.ls.append(point.copy())
            node.ss.append(xx)
        else:
            halves = insert(node.children[best], point)
            if halves is None:
                node.n[best] += 1
                node.ls[best] = node.ls[best] + point
                node.ss[best] += xx
                return None
            a, b = halves
            node.n[best], node.ls[best], node.ss[best] = a.totals()
            node.children[best] = a
            for column, value in zip((node.n, node.ls, node.ss), b.totals()):
                column.insert(best + 1, value)
            node.children.insert(best + 1, b)
        return split(node) if len(node.n) > branching else None

    root = None
    for point in x:
        if root is None:
            root = _BirchNode(True, [1], [point.copy()], [point @ point])
            continue
        halves = insert(root, point)
        if halves is not None:
            rows = [h.totals() for h in halves]
            root = _BirchNode(False, *(list(col) for col in zip(*rows)), halves)

    leaves, stack = [], [root]
    while stack:
        node = stack.pop()
        if node.leaf:
            leaves.append(centroids(node))
        else:
            stack.extend(reversed(node.children))
    cents = np.concatenate(leaves)
    scores = x @ cents.T - 0.5 * np.einsum("ij,ij->i", cents, cents)
    _, assignment = np.unique(np.argmax(scores, axis=1), return_inverse=True)
    return cents, assignment
