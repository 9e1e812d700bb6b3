"""Immutable sparse-adjacency graph, dataset I/O, and synthetic graph generation.

The on-disk formats are plain whitespace/tab-separated text so that datasets
can be produced from any source:

* ``edges.tsv``    -- one ``u v`` pair per line, 0-based ids, ``#`` comments.
* ``features.tsv`` -- dense rows, or a ``sparse n r`` header followed by
  ``i j value`` triplets (unlisted entries are 0).
* ``labels.tsv``   -- ``node_id label_id`` per line; absent nodes are unlabeled.
* ``partition.tsv``-- ``node_id cluster_id`` per line (same shape as labels).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

UNLABELED = -1


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: its symmetric 0/1 adjacency in scipy CSR.

    ``adj`` is canonical (sorted indices, no duplicate entries), stores 1.0
    per entry and has an empty diagonal. Each undirected edge is stored in
    both directions; ``m`` counts undirected edges, so ``sum(degrees) == 2 * m``.
    """

    adj: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @property
    def m(self) -> int:
        return self.adj.nnz // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.adj.indptr)

    def validate(self) -> None:
        adj = self.adj
        if not adj.has_canonical_format:
            raise ValueError("adjacency is not canonical (unsorted or duplicate entries)")
        if np.any(adj.data != 1.0):
            raise ValueError("adjacency entries must be 1")
        if np.any(adj.diagonal()):
            raise ValueError("self-loop present")
        if (adj != adj.T).nnz != 0:
            raise ValueError("adjacency is not symmetric")

    def neighbors(self, u: int) -> np.ndarray:
        return self.adj.indices[self.adj.indptr[u] : self.adj.indptr[u + 1]]


def from_edges(edges: np.ndarray, num_nodes: int) -> Graph:
    """Build a Graph from a (possibly messy) directed edge array of shape (e, 2).

    Symmetrizes, drops self-loops, and deduplicates, so degree and modularity
    formulas downstream are exact.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    adj = sp.coo_matrix(
        (np.ones(len(src)), (src, dst)), shape=(num_nodes, num_nodes)
    ).tocsr()
    adj.sum_duplicates()
    adj.data[:] = 1.0
    g = Graph(adj)
    g.validate()
    return g


@dataclass
class Partition:
    """Hard cluster assignment: one 0-based id per node, k distinct clusters."""

    assignment: np.ndarray
    k: int = field(default=0)

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        if self.k == 0:
            self.k = int(self.assignment.max()) + 1 if len(self.assignment) else 0

    @classmethod
    def compact(cls, ids) -> "Partition":
        """Renumber arbitrary integer ids to 0..k-1 in ascending id order."""
        uniq, assignment = np.unique(ids, return_inverse=True)
        p = cls(assignment, k=len(uniq))
        p.validate()
        return p

    def validate(self) -> None:
        if len(self.assignment) == 0:
            raise ValueError("empty partition")
        if self.assignment.min() < 0 or self.assignment.max() >= self.k:
            raise ValueError("cluster ids out of range [0, k)")
        if np.any(np.bincount(self.assignment, minlength=self.k) == 0):
            raise ValueError("empty cluster in partition")

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.k)


def parse_line(path, lineno: int, convert):
    """``convert()`` of one text line's fields; a non-numeric field raises a
    ValueError naming ``path:lineno``."""
    try:
        return convert()
    except ValueError:
        raise ValueError(f"{path}:{lineno}: non-numeric field") from None


def _parse_int_pairs(path) -> tuple[np.ndarray, list[int]]:
    """Read whitespace-separated integer pairs, skipping blanks and # comments."""
    pairs = []
    linenos = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two fields, got {len(parts)}")
            pairs.append(parse_line(path, lineno, lambda: (int(parts[0]), int(parts[1]))))
            linenos.append(lineno)
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2), linenos


def load_graph(edge_path, num_nodes: int | None = None) -> Graph:
    """Load an undirected simple graph from an edge list file.

    Lines are ``u v`` with 0-based ids. Duplicate directions and self-loops
    are dropped. When ``num_nodes`` is omitted it is inferred as max id + 1.
    A file without edges is rejected: modularity needs m > 0.
    """
    pairs, linenos = _parse_int_pairs(edge_path)
    if len(pairs) == 0:
        raise ValueError(f"{edge_path}: empty edge file")
    if pairs.min() < 0:
        bad = int(np.argmax((pairs < 0).any(axis=1)))
        raise ValueError(f"{edge_path}:{linenos[bad]}: negative node id")
    if num_nodes is None:
        num_nodes = int(pairs.max()) + 1
    elif pairs.max() >= num_nodes:
        bad = int(np.argmax((pairs >= num_nodes).any(axis=1)))
        raise ValueError(
            f"{edge_path}:{linenos[bad]}: node id >= num_nodes ({num_nodes})"
        )
    return from_edges(pairs, num_nodes)


def load_features(
    path, n: int | None = None, sparse: bool = False
) -> np.ndarray | sp.csr_matrix:
    """Load an n-by-r feature matrix.

    Either one dense whitespace-separated row per node, or a header line
    ``sparse n r`` followed by ``i j value`` triplets (the last of a repeated
    ``i j`` wins). When ``n`` is omitted it is taken from the row count or
    the sparse header. Dense rows load as an ndarray; a sparse file loads as
    scipy CSR with ``sparse=True`` and is densified otherwise.
    """
    with open(path) as fh:
        first = fh.readline()
        head = first.split("#", 1)[0].strip()
        if head.startswith("sparse"):
            parts = head.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:1: sparse header must be 'sparse n r'")
            n_file, r = parse_line(path, 1, lambda: (int(parts[1]), int(parts[2])))
            if n is not None and n_file != n:
                raise ValueError(f"{path}: sparse header n={n_file}, expected {n}")
            n = n_file
            cells = {}
            for lineno, line in enumerate(fh, start=2):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                parts = text.split()
                if len(parts) != 3:
                    raise ValueError(f"{path}:{lineno}: expected 'i j value'")
                i, j, v = parse_line(
                    path, lineno, lambda: (int(parts[0]), int(parts[1]), float(parts[2]))
                )
                if not (0 <= i < n and 0 <= j < r):
                    raise ValueError(f"{path}:{lineno}: index out of range")
                cells[i * r + j] = v
            keys = np.fromiter(cells, np.int64, len(cells))
            values = np.fromiter(cells.values(), np.float64, len(cells))
            data = sp.csr_matrix((values, (keys // r, keys % r)), shape=(n, r))
            if not sparse:
                data = data.toarray()
        else:
            fh.seek(0)
            rows = []
            for lineno, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                if text:
                    rows.append(parse_line(path, lineno, lambda: np.array(text.split(), float)))
            if n is not None and len(rows) != n:
                raise ValueError(f"{path}: {len(rows)} feature rows, expected {n}")
            if not rows:
                raise ValueError(f"{path}: no feature rows")
            widths = {len(r_) for r_ in rows}
            if len(widths) != 1:
                raise ValueError(f"{path}: inconsistent row widths {sorted(widths)}")
            data = np.vstack(rows)
    if not np.all(np.isfinite(data.data if sp.issparse(data) else data)):
        raise ValueError(f"{path}: non-finite feature value")
    return data


def load_labels(path, n: int) -> np.ndarray:
    """Load per-node integer labels; missing nodes get the UNLABELED sentinel."""
    pairs, linenos = _parse_int_pairs(path)
    labels = np.full(n, UNLABELED, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    for (node, lab), lineno in zip(pairs, linenos):
        if not 0 <= node < n:
            raise ValueError(f"{path}:{lineno}: node id {node} out of range")
        if lab < 0:
            raise ValueError(f"{path}:{lineno}: negative label id")
        if seen[node]:
            raise ValueError(f"{path}:{lineno}: duplicate node id {node}")
        seen[node] = True
        labels[node] = lab
    return labels


def load_pairs(path, n: int) -> np.ndarray:
    """Load same-cluster node pairs, one ``u v`` pair per line."""
    pairs, linenos = _parse_int_pairs(path)
    for (u, v), lineno in zip(pairs, linenos):
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"{path}:{lineno}: node id out of range")
        if u == v:
            raise ValueError(f"{path}:{lineno}: pair references a node with itself")
    return pairs


def write_labels(path, labels: np.ndarray) -> None:
    with open(path, "w") as fh:
        for node, lab in enumerate(labels):
            if lab != UNLABELED:
                fh.write(f"{node}\t{int(lab)}\n")


def write_edges(path, g: Graph) -> None:
    """Write each undirected edge once as ``u<TAB>v`` with u < v, in (u, v) order."""
    upper = sp.triu(g.adj, k=1, format="csr").tocoo()
    np.savetxt(path, np.column_stack([upper.row, upper.col]), fmt="%d", delimiter="\t")


def write_features(path, features: np.ndarray) -> None:
    np.savetxt(path, features, fmt="%.17g", delimiter="\t")


def write_partition(path, partition: Partition) -> None:
    with open(path, "w") as fh:
        for node, cid in enumerate(partition.assignment):
            fh.write(f"{node}\t{int(cid)}\n")


def load_partition(path, n: int) -> Partition:
    """Read a full-coverage partition.tsv back into a Partition."""
    ids = load_labels(path, n)
    if np.any(ids == UNLABELED):
        missing = int(np.argmax(ids == UNLABELED))
        raise ValueError(f"{path}: node {missing} has no cluster id")
    return Partition.compact(ids)


def generate_sbm(
    block_sizes: list[int],
    p_in: float,
    p_out: float,
    seed: int,
) -> tuple[Graph, Partition]:
    """Sample a stochastic block model graph and its planted partition.

    Every unordered node pair is an independent Bernoulli draw: probability
    ``p_in`` inside a block, ``p_out`` across blocks. Deterministic per seed.
    """
    if not block_sizes:
        raise ValueError("block_sizes must be nonempty")
    if any(s <= 0 for s in block_sizes):
        raise ValueError("block sizes must be positive")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise ValueError("require 0 <= p_out <= p_in <= 1")

    n = int(sum(block_sizes))
    starts = np.zeros(len(block_sizes) + 1, dtype=np.int64)
    np.cumsum(block_sizes, out=starts[1:])
    planted = np.repeat(np.arange(len(block_sizes)), block_sizes)

    rng = np.random.default_rng(seed)
    chunk = 1024  # bounds the Bernoulli scratch matrix to chunk * block rows
    edges: list[np.ndarray] = []
    for bi in range(len(block_sizes)):
        for bj in range(bi, len(block_sizes)):
            p = p_in if bi == bj else p_out
            if p == 0.0:
                continue
            si, sj = block_sizes[bi], block_sizes[bj]
            for r0 in range(0, si, chunk):
                r1 = min(r0 + chunk, si)
                mask = rng.random((r1 - r0, sj)) < p
                if bi == bj:
                    # keep u < v only
                    rows = np.arange(r0, r1)[:, None]
                    mask &= np.arange(sj)[None, :] > rows
                uu, vv = np.nonzero(mask)
                if len(uu):
                    edges.append(
                        np.stack(
                            [uu + r0 + starts[bi], vv + starts[bj]], axis=1
                        )
                    )
    if not edges:
        raise ValueError("generated graph has no edges (m=0)")
    g = from_edges(np.concatenate(edges, axis=0), n)
    if g.m == 0:
        raise ValueError("generated graph has no edges (m=0)")
    part = Partition(planted, k=len(block_sizes))
    part.validate()
    return g, part


def normalized_adjacency(g: Graph) -> sp.csr_matrix:
    """Symmetrically normalized adjacency D^(-1/2) A D^(-1/2), no self-loops.

    Isolated nodes yield all-zero rows/columns (0^(-1/2) is treated as 0)
    and trigger a warning.
    """
    deg = g.degrees.astype(np.float64)
    isolated = deg == 0
    if np.any(isolated):
        warnings.warn(
            f"{int(isolated.sum())} isolated node(s): their normalized-adjacency "
            "rows are all zero"
        )
    inv_sqrt = np.zeros_like(deg)
    inv_sqrt[~isolated] = 1.0 / np.sqrt(deg[~isolated])
    d_inv = sp.diags(inv_sqrt)
    return (d_inv @ g.adj @ d_inv).tocsr()
