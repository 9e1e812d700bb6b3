"""Immutable sparse-adjacency graph, dataset I/O, and synthetic graph generation.

Every input, checkpoints included, is text in one grammar: whitespace-separated
fields, ``#`` comments and blank lines. ``parse_rows`` reads every data row, and
a rejected row names its ``file:line``.

* ``edges.tsv``    -- one ``u v`` pair per line, 0-based ids.
* ``features.tsv`` -- dense rows, or a ``sparse n r`` header followed by
  ``i j value`` triplets (unlisted entries are 0).
* ``labels.tsv``   -- ``node_id label_id`` per line; absent nodes are unlabeled.
* ``partition.tsv``-- ``node_id cluster_id`` per line (same shape as labels).
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import partial

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


def read_records(path) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, fields)`` for each line with text outside its ``#`` comment."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.partition("#")[0].split()
            if fields:
                yield lineno, fields


def parse_rows(path, width=None, dtype=np.float64, records=None, convert=None):
    """The records of ``path`` (or the given ``(lineno, fields)`` iterator) as a
    ``dtype`` array, one row each, and their line numbers. Each must have
    ``width`` fields (the first record's count when None). A row is
    ``convert(fields)``, by default ``np.array(fields, dtype)`` (slower on short
    rows); a field that does not convert is named ``path:line: non-numeric field``.
    """
    convert = convert or partial(np.array, dtype=dtype)
    chunks, rows, linenos = [], [], []
    for lineno, fields in read_records(path) if records is None else records:
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} fields, got {len(fields)}")
        try:
            rows.append(convert(fields))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric field") from None
        except OverflowError:
            raise ValueError(f"{path}:{lineno}: integer out of range") from None
        linenos.append(lineno)
        if len(rows) == 256:  # below gc's 700-allocation threshold: no GC pass scans rows
            chunks.append(_stack(path, rows, linenos, dtype))
            rows = []
    chunks.append(_stack(path, rows, linenos, dtype).reshape(len(rows), width or 0))
    return np.concatenate(chunks), linenos


def _stack(path, rows: list, linenos: list, dtype) -> np.ndarray:
    """``rows`` (the last of ``linenos``) as one array; a Python int that
    ``dtype`` cannot hold is named ``path:line: integer out of range``."""
    try:
        return np.array(rows, dtype)
    except OverflowError:
        for row, lineno in zip(rows, linenos[len(linenos) - len(rows) :]):
            try:
                np.array(row, dtype)
            except OverflowError:
                raise ValueError(f"{path}:{lineno}: integer out of range") from None
        raise


def reject_rows(path, linenos, bad: np.ndarray, message: str) -> None:
    """Raise ``path:line: message`` for the first row flagged in ``bad``."""
    if bad.any():
        raise ValueError(f"{path}:{linenos[int(np.argmax(bad))]}: {message}")


def _int_pair(fields) -> tuple[int, int]:
    return int(fields[0]), int(fields[1])


def _sparse_cell(fields) -> tuple[int, int, float]:
    return int(fields[0]), int(fields[1]), float(fields[2])


def load_graph(edge_path, num_nodes: int | None = None) -> Graph:
    """Load an undirected simple graph from an edge list file.

    Lines are ``u v`` with 0-based ids. Duplicate directions and self-loops
    are dropped. When ``num_nodes`` is omitted it is inferred as max id + 1.
    A file without edges is rejected: modularity needs m > 0.
    """
    pairs, linenos = parse_rows(edge_path, 2, np.int64, convert=_int_pair)
    if len(pairs) == 0:
        raise ValueError(f"{edge_path}: empty edge file")
    if num_nodes is None:
        num_nodes = int(pairs.max()) + 1
    bad = ((pairs < 0) | (pairs >= num_nodes)).any(axis=1)
    reject_rows(edge_path, linenos, bad, f"node id outside [0, num_nodes={num_nodes})")
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
    records = read_records(path)
    lineno, fields = next(records, (0, [""]))
    if fields[0].startswith("sparse"):
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: sparse header must be 'sparse n r'")
        n_file, r = parse_rows(path, 2, np.int64, records=[(lineno, fields[1:])])[0][0].tolist()
        if n is not None and n_file != n:
            raise ValueError(f"{path}: sparse header n={n_file}, expected {n}")
        n = n_file
        cells, linenos = parse_rows(path, 3, records=records, convert=_sparse_cell)
        i, j = cells[:, 0].astype(np.int64), cells[:, 1].astype(np.int64)
        reject_rows(path, linenos, (i < 0) | (i >= n) | (j < 0) | (j >= r), "index out of range")
        # a repeated cell keeps its last row: the first one counted from the end
        keys = (i * r + j)[::-1]
        keep = len(keys) - 1 - np.unique(keys, return_index=True)[1]
        bad = np.zeros(len(cells), dtype=bool)
        bad[keep] = ~np.isfinite(cells[keep, 2])
        reject_rows(path, linenos, bad, "non-finite feature value")
        data = sp.csr_matrix((cells[keep, 2], (i[keep], j[keep])), shape=(n, r))
        return data if sparse else data.toarray()
    data, linenos = parse_rows(path)
    if n is not None and len(data) != n:
        raise ValueError(f"{path}: {len(data)} feature rows, expected {n}")
    if not len(data):
        raise ValueError(f"{path}: no feature rows")
    reject_rows(path, linenos, ~np.isfinite(data).all(axis=1), "non-finite feature value")
    return data


def load_labels(path, n: int) -> np.ndarray:
    """Load per-node integer labels; missing nodes get the UNLABELED sentinel."""
    pairs, linenos = parse_rows(path, 2, np.int64, convert=_int_pair)
    nodes, labs = pairs.T
    reject_rows(path, linenos, (nodes < 0) | (nodes >= n), "node id out of range")
    reject_rows(path, linenos, labs < 0, "negative label id")
    repeated = np.ones(len(nodes), dtype=bool)
    repeated[np.unique(nodes, return_index=True)[1]] = False
    reject_rows(path, linenos, repeated, "duplicate node id")
    labels = np.full(n, UNLABELED, dtype=np.int64)
    labels[nodes] = labs
    return labels


def load_pairs(path, n: int) -> np.ndarray:
    """Load same-cluster node pairs, one ``u v`` pair per line."""
    pairs, linenos = parse_rows(path, 2, np.int64, convert=_int_pair)
    reject_rows(path, linenos, ((pairs < 0) | (pairs >= n)).any(axis=1), "node id out of range")
    reject_rows(path, linenos, pairs[:, 0] == pairs[:, 1], "pair references a node with itself")
    return pairs


def _write_int_pairs(path, u: np.ndarray, v: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"{a}\t{b}\n" for a, b in zip(u.tolist(), v.tolist()))


def write_labels(path, labels: np.ndarray) -> None:
    nodes = np.flatnonzero(labels != UNLABELED)
    _write_int_pairs(path, nodes, labels[nodes])


def write_edges(path, g: Graph) -> None:
    """Write each undirected edge once as ``u<TAB>v`` with u < v, in (u, v) order."""
    upper = sp.triu(g.adj, k=1, format="csr").tocoo()
    _write_int_pairs(path, upper.row, upper.col)


def write_features(path, features: np.ndarray) -> None:
    np.savetxt(path, features, fmt="%.17g", delimiter="\t")


def write_partition(path, partition: Partition) -> None:
    _write_int_pairs(path, np.arange(len(partition.assignment)), partition.assignment)


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
    part = Partition(planted, k=len(block_sizes))
    part.validate()
    return g, part


def normalized_adjacency(g: Graph) -> sp.csr_matrix:
    """Symmetrically normalized adjacency D^(-1/2) A D^(-1/2), no self-loops,
    as a ``gcn.RowBlockCsr``: its products with dense arrays run in row blocks.

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
    from .gcn import RowBlockCsr  # gcn imports this module

    return RowBlockCsr(d_inv @ g.adj @ d_inv)
