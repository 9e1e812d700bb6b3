import re
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import modcluster as mc
from reference import dense_adjacency, dense_adjacency_from_edges


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadGraph:
    def test_triangle(self, tmp_path):
        path = write(tmp_path, "edges.tsv", "0 1\n1 2\n2 0\n")
        g = mc.load_graph(path)
        assert (g.n, g.m) == (3, 3)
        assert g.degrees.tolist() == [2, 2, 2]
        g.validate()

    def test_dedup_and_self_loop(self, tmp_path):
        path = write(tmp_path, "edges.tsv", "0 1\n1 0\n0 0\n")
        g = mc.load_graph(path, num_nodes=2)
        assert (g.n, g.m) == (2, 1)

    def test_tabs_and_comments(self, tmp_path):
        path = write(tmp_path, "edges.tsv", "# header\n0\t1\n\n1\t2  # trailing\n")
        g = mc.load_graph(path)
        assert (g.n, g.m) == (3, 2)

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = write(tmp_path, "edges.tsv", "0 1\n1 2 3\n")
        with pytest.raises(ValueError, match=":2:"):
            mc.load_graph(path)

    def test_non_integer_reports_lineno(self, tmp_path):
        path = write(tmp_path, "edges.tsv", "0 1\nfoo 2\n")
        with pytest.raises(ValueError, match=":2:"):
            mc.load_graph(path)

    def test_id_out_of_bounds(self, tmp_path):
        path = write(tmp_path, "edges.tsv", "0 5\n")
        with pytest.raises(ValueError, match="num_nodes"):
            mc.load_graph(path, num_nodes=3)

    def test_empty_file_rejected(self, tmp_path):
        # train and eval pass n from the features file, so n alone is no excuse
        path = write(tmp_path, "edges.tsv", "# no edges\n")
        with pytest.raises(ValueError, match="edges.tsv: empty edge file"):
            mc.load_graph(path, num_nodes=3)

    def test_isolated_nodes_kept(self, tmp_path):
        path = write(tmp_path, "edges.tsv", "0 1\n")
        g = mc.load_graph(path, num_nodes=4)
        assert g.n == 4
        assert g.degrees.tolist() == [1, 1, 0, 0]


class TestLoadFeatures:
    def test_dense(self, tmp_path):
        path = write(tmp_path, "features.tsv", "1 1\n1 1\n1 1\n")
        feats = mc.load_features(path, 3)
        assert feats.shape == (3, 2)
        assert np.all(feats == 1.0)

    def test_sparse(self, tmp_path):
        path = write(tmp_path, "features.tsv", "sparse 3 4\n0 2 1.5\n")
        feats = mc.load_features(path, 3)
        assert feats.shape == (3, 4)
        assert feats[0, 2] == 1.5
        assert np.count_nonzero(feats) == 1

    def test_sparse_file_loads_as_csr(self, tmp_path):
        path = write(tmp_path, "features.tsv", "sparse 3 4\n2 1 -1\n0 3 2\n0 0 1\n")
        feats = mc.load_features(path, sparse=True)
        assert sp.issparse(feats) and feats.format == "csr"
        assert feats.has_canonical_format
        np.testing.assert_array_equal(
            feats.toarray(), [[1, 0, 0, 2], [0, 0, 0, 0], [0, -1, 0, 0]]
        )

    def test_sparse_repeated_cell_keeps_last_value(self, tmp_path):
        path = write(tmp_path, "features.tsv", "sparse 2 2\n0 1 5\n1 0 1\n0 1 3\n0 1 7\n")
        feats = mc.load_features(path, 2, sparse=True)
        assert feats.nnz == 2
        np.testing.assert_array_equal(feats.toarray(), [[0, 7], [1, 0]])
        np.testing.assert_array_equal(mc.load_features(path, 2), [[0, 7], [1, 0]])

    def test_sparse_overwritten_value_is_not_checked(self, tmp_path):
        path = write(tmp_path, "features.tsv", "sparse 1 1\n0 0 nan\n0 0 2\n")
        np.testing.assert_array_equal(mc.load_features(path), [[2.0]])

    def test_dense_rows_load_as_ndarray(self, tmp_path):
        path = write(tmp_path, "features.tsv", "1 2\n3 4\n")
        for sparse in (False, True):
            feats = mc.load_features(path, sparse=sparse)
            assert type(feats) is np.ndarray
            np.testing.assert_array_equal(feats, [[1, 2], [3, 4]])

    def test_sparse_non_finite(self, tmp_path):
        path = write(tmp_path, "features.tsv", "sparse 2 2\n0 1 inf\n")
        for sparse in (False, True):
            with pytest.raises(ValueError, match="non-finite"):
                mc.load_features(path, 2, sparse=sparse)

    def test_row_count_mismatch(self, tmp_path):
        path = write(tmp_path, "features.tsv", "1 1\n1 1\n")
        with pytest.raises(ValueError, match="rows"):
            mc.load_features(path, 3)

    def test_non_finite(self, tmp_path):
        path = write(tmp_path, "features.tsv", "1 nan\n1 1\n")
        with pytest.raises(ValueError, match="non-finite"):
            mc.load_features(path, 2)


class TestLoadLabels:
    def test_partial(self, tmp_path):
        path = write(tmp_path, "labels.tsv", "0 0\n1 0\n2 1\n")
        labels = mc.load_labels(path, 4)
        assert labels.tolist() == [0, 0, 1, mc.UNLABELED]
        assert int(np.sum(labels != mc.UNLABELED)) == 3

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "labels.tsv", "")
        labels = mc.load_labels(path, 3)
        assert np.all(labels == mc.UNLABELED)

    def test_duplicate_node(self, tmp_path):
        path = write(tmp_path, "labels.tsv", "0 0\n0 1\n")
        with pytest.raises(ValueError, match="duplicate"):
            mc.load_labels(path, 2)

    def test_negative_label(self, tmp_path):
        path = write(tmp_path, "labels.tsv", "0 -1\n")
        with pytest.raises(ValueError, match="negative"):
            mc.load_labels(path, 2)


class TestGenerateSbm:
    def test_complete_single_block(self):
        g, part = mc.generate_sbm([3], 1.0, 0.0, seed=0)
        assert (g.n, g.m) == (3, 3)
        assert part.k == 1

    def test_no_edges_raises(self):
        with pytest.raises(ValueError, match="no edges"):
            mc.generate_sbm([2, 2], 0.0, 0.0, seed=0)

    def test_edge_count_matches_binomial_expectation(self):
        # 4 blocks of 100: within pairs 4*C(100,2), cross pairs 6*100*100
        within_pairs = 4 * 100 * 99 // 2
        cross_pairs = 6 * 100 * 100
        expected = within_pairs * 0.1 + cross_pairs * 0.01
        variance = within_pairs * 0.1 * 0.9 + cross_pairs * 0.01 * 0.99
        g, _ = mc.generate_sbm([100] * 4, 0.1, 0.01, seed=42)
        assert abs(g.m - expected) <= 3 * np.sqrt(variance)

    def test_deterministic(self):
        g1, _ = mc.generate_sbm([30, 30], 0.2, 0.05, seed=9)
        g2, _ = mc.generate_sbm([30, 30], 0.2, 0.05, seed=9)
        assert np.array_equal(g1.adj.indices, g2.adj.indices)
        assert np.array_equal(g1.adj.indptr, g2.adj.indptr)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            mc.generate_sbm([5], 0.1, 0.5, seed=0)

    def test_planted_partition_matches_blocks(self):
        _, part = mc.generate_sbm([3, 4, 5], 0.9, 0.1, seed=1)
        assert part.k == 3
        assert part.sizes().tolist() == [3, 4, 5]


class TestNormalizedAdjacency:
    def test_triangle(self, tmp_path):
        g = mc.load_graph(write(tmp_path, "e", "0 1\n1 2\n2 0\n"))
        a = mc.normalized_adjacency(g).toarray()
        expected = (np.ones((3, 3)) - np.eye(3)) / 2.0
        np.testing.assert_allclose(a, expected)

    def test_single_edge(self, tmp_path):
        g = mc.load_graph(write(tmp_path, "e", "0 1\n"))
        a = mc.normalized_adjacency(g).toarray()
        np.testing.assert_allclose(a, [[0, 1], [1, 0]])

    def test_star(self, tmp_path):
        g = mc.load_graph(write(tmp_path, "e", "0 1\n0 2\n0 3\n"))
        a = mc.normalized_adjacency(g).toarray()
        for leaf in (1, 2, 3):
            assert a[0, leaf] == pytest.approx(1 / np.sqrt(3))
            assert a[leaf, 0] == pytest.approx(1 / np.sqrt(3))

    def test_isolated_node_warns_with_zero_row(self, tmp_path):
        g = mc.load_graph(write(tmp_path, "e", "0 1\n"), num_nodes=3)
        with pytest.warns(UserWarning, match="isolated"):
            a = mc.normalized_adjacency(g)
        assert a[2].nnz == 0

    def test_entries_are_inverse_sqrt_degree_products(self):
        g, _ = mc.generate_sbm([15, 15], 0.4, 0.1, seed=5)
        a = mc.normalized_adjacency(g)
        dense = a.toarray()
        for u in range(g.n):
            for v in range(g.n):
                if dense[u, v] != 0:
                    assert dense[u, v] == pytest.approx(
                        1 / np.sqrt(g.degrees[u] * g.degrees[v]), abs=1e-15
                    )
        adj = dense_adjacency(g)
        assert np.all((dense != 0) == (adj != 0))


@settings(max_examples=40, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=0, max_size=40
    )
)
def test_from_edges_invariants(edges):
    from modcluster.graph import from_edges

    g = from_edges(np.array(edges, dtype=np.int64).reshape(-1, 2), 10)
    g.validate()  # symmetry, degree sums, no self-loops, no duplicates
    assert int(g.degrees.sum()) == 2 * g.m
    assert np.array_equal(g.adj.toarray(), dense_adjacency_from_edges(edges, 10))


@pytest.mark.parametrize(
    "adj, message",
    [
        (sp.csr_matrix([[1.0, 1.0], [1.0, 0.0]]), "self-loop"),
        (sp.csr_matrix([[0.0, 1.0], [0.0, 0.0]]), "not symmetric"),
        (sp.csr_matrix([[0.0, 2.0], [2.0, 0.0]]), "must be 1"),
        (
            sp.csr_matrix(([1.0, 1.0, 1.0], [1, 1, 0], [0, 2, 3]), shape=(2, 2)),
            "not canonical",
        ),
    ],
    ids=["self-loop", "asymmetric", "weight-2", "duplicate-entry"],
)
def test_validate_rejects_malformed_adjacency(adj, message):
    with pytest.raises(ValueError, match=message):
        mc.Graph(adj).validate()


labels3 = partial(mc.load_labels, n=3)
pairs3 = partial(mc.load_pairs, n=3)
partition3 = partial(mc.load_partition, n=3)
graph3 = partial(mc.load_graph, num_nodes=3)
HEADER = "#gcn-checkpoint v1\n"
CHECKPOINT = HEADER + "dims\t2 1\n"


@pytest.mark.parametrize(
    "loader, text, line",
    [
        (mc.load_features, "1.0 2.0\n3.0 abc\n", 2),
        (mc.load_features, "sparse 2 2\n0 1 1.0\n0 x 1.0\n", 3),
        (mc.load_features, "sparse 2 two\n", 1),
        (mc.load_checkpoint, "#gcn-checkpoint v1\ndims\t2 1\n0.5\nx\n", 4),
        (mc.load_checkpoint, HEADER + "dims\t2 x\n", 2),
        (mc.load_graph, "0 1\n# note\n1 2.5\n", 3),
        (labels3, "0 0\n1 b\n", 2),
        (pairs3, "\n0 1\n1 two\n", 3),
    ],
    ids=[
        "dense-row", "sparse-triplet", "sparse-header", "checkpoint-row",
        "checkpoint-dims", "edge", "label", "pair",
    ],
)
def test_non_numeric_field_names_line(tmp_path, loader, text, line):
    path = write(tmp_path, "input.tsv", text)
    with pytest.raises(ValueError, match=f"input.tsv:{line}: non-numeric field"):
        loader(path)


@pytest.mark.parametrize(
    "loader, text, line, message",
    [
        (mc.load_graph, "0 1\n1 2 3\n", 2, "expected 2 fields, got 3"),
        (mc.load_graph, "0 1\n2 -1\n", 2, "node id outside [0, num_nodes=3)"),
        (graph3, "0 1\n\n1 3\n", 3, "node id outside [0, num_nodes=3)"),
        (mc.load_features, "1 2\n3\n", 2, "expected 2 fields, got 1"),
        (mc.load_features, "1 2\n# note\n3 nan\n", 3, "non-finite feature value"),
        (mc.load_features, "sparse 2 2\n0 1\n", 2, "expected 3 fields, got 2"),
        (mc.load_features, "sparse 2 2\n0 1 1\n0 2 1\n", 3, "index out of range"),
        (mc.load_features, "sparse 2 2\n0 1 1\n1 1 -inf\n", 3, "non-finite feature value"),
        (mc.load_features, "sparse 2\n", 1, "sparse header must be 'sparse n r'"),
        (labels3, "0 0 0\n", 1, "expected 2 fields, got 3"),
        (labels3, "0 0\n3 1\n", 2, "node id out of range"),
        (labels3, "0 0\n1 -2\n", 2, "negative label id"),
        (labels3, "0 0\n1 0\n0 1\n", 3, "duplicate node id"),
        (partition3, "0 0\n1 0\n2 1\n1 1\n", 4, "duplicate node id"),
        (pairs3, "0 1 2\n", 1, "expected 2 fields, got 3"),
        (pairs3, "0 1\n1 3\n", 2, "node id out of range"),
        (pairs3, "0 1\n2 2\n", 2, "pair references a node with itself"),
        (mc.load_checkpoint, CHECKPOINT + "0.5\n0.5 1\n", 4, "expected 1 fields, got 2"),
        (mc.load_checkpoint, CHECKPOINT + "0.5\nnan\n", 4, "non-finite weight"),
        (mc.load_checkpoint, CHECKPOINT + "0.5\n0.5\n\n1.5\n", 6, "row after the last layer"),
        (mc.load_checkpoint, HEADER + "dims\t-1 2\n", 2, "layer dimensions must be positive"),
        (mc.load_checkpoint, HEADER + "dims\t2 0\n0\n0\n", 2, "layer dimensions must be positive"),
        (mc.load_checkpoint, HEADER + "dims\t3\n", 2, "layer_dims must chain at least input"),
        (mc.load_graph, "0 1\n0 99999999999999999999\n", 2, "integer out of range"),
        (mc.load_graph, "0 1\n" * 300 + "1 2\n-99999999999999999999 1\n", 302, "integer out of range"),
        (labels3, "0 0\n1 99999999999999999999\n", 2, "integer out of range"),
        (mc.load_features, "sparse 99999999999999999999 2\n", 1, "integer out of range"),
        (mc.load_checkpoint, HEADER + "dims\t2 99999999999999999999\n", 2, "integer out of range"),
    ],
    ids=[
        "edge-fields", "edge-negative", "edge-range",
        "dense-width", "dense-non-finite",
        "sparse-fields", "sparse-range", "sparse-non-finite", "sparse-header",
        "label-fields", "label-range", "label-negative", "label-duplicate",
        "partition-duplicate", "pair-fields", "pair-range", "pair-self",
        "checkpoint-width", "checkpoint-non-finite", "checkpoint-trailing",
        "checkpoint-negative-dims", "checkpoint-zero-dims", "checkpoint-one-dim",
        "edge-int64", "edge-int64-second-chunk", "label-int64", "sparse-header-int64",
        "checkpoint-dims-int64",
    ],
)
def test_rejected_row_names_line(tmp_path, loader, text, line, message):
    path = write(tmp_path, "input.tsv", text)
    with pytest.raises(ValueError, match=re.escape(f"input.tsv:{line}: {message}")):
        loader(path)


def test_partition_round_trip(tmp_path):
    part = mc.Partition(np.array([0, 1, 1, 2, 0]))
    path = tmp_path / "partition.tsv"
    mc.write_partition(path, part)
    loaded = mc.load_partition(path, 5)
    assert np.array_equal(loaded.assignment, part.assignment)
    assert loaded.k == 3


@pytest.mark.parametrize(
    "ids, message",
    [([0, 2, 2], "empty cluster"), ([0, -1, 1], "out of range")],
    ids=["gap", "negative"],
)
def test_partition_validate_rejects_gaps(ids, message):
    part = mc.Partition(np.array(ids), k=3)
    with pytest.raises(ValueError, match=message):
        part.validate()
