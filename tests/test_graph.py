import re
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
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

    def test_sparse_header_row_count_mismatch(self, tmp_path):
        path = write(tmp_path, "features.tsv", "sparse 2 2\n0 1 1\n")
        with pytest.raises(ValueError, match=r"features\.tsv: sparse header n=2, expected 3$"):
            mc.load_features(path, 3)

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

    def test_empty_block_list(self):
        with pytest.raises(ValueError, match="block_sizes must be nonempty"):
            mc.generate_sbm([], 0.5, 0.1, seed=0)

    def test_planted_partition_matches_blocks(self):
        _, part = mc.generate_sbm([3, 4, 5], 0.9, 0.1, seed=1)
        assert part.k == 3
        assert part.sizes().tolist() == [3, 4, 5]
        part.validate()


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
        (mc.load_features, "sparse 3 0\n", 1, "sparse header n and r must be at least 1"),
        (mc.load_features, "sparse 3 -2\n", 1, "sparse header n and r must be at least 1"),
        (mc.load_features, "# n=0\nsparse 0 2\n", 2, "sparse header n and r must be at least 1"),
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
        (mc.load_features, "sparse 2 2\n0 1 1\n-99999999999999999999 0 1\n", 3,
         "integer out of range"),
        (mc.load_checkpoint, HEADER + "dims\t2 99999999999999999999\n", 2, "integer out of range"),
    ],
    ids=[
        "edge-fields", "edge-negative", "edge-range",
        "dense-width", "dense-non-finite",
        "sparse-fields", "sparse-range", "sparse-non-finite", "sparse-header",
        "sparse-zero-width", "sparse-negative-width", "sparse-zero-rows",
        "label-fields", "label-range", "label-negative", "label-duplicate",
        "partition-duplicate", "pair-fields", "pair-range", "pair-self",
        "checkpoint-width", "checkpoint-non-finite", "checkpoint-trailing",
        "checkpoint-negative-dims", "checkpoint-zero-dims", "checkpoint-one-dim",
        "edge-int64", "edge-int64-second-chunk", "label-int64", "sparse-header-int64",
        "sparse-index-int64",
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


def test_partition_file_missing_a_node(tmp_path):
    path = write(tmp_path, "input.tsv", "0 0\n2 1\n")
    with pytest.raises(ValueError, match=re.escape("input.tsv: node 1 has no cluster id")):
        partition3(path)


@pytest.mark.parametrize(
    "ids, message",
    [([0, 2, 2], "empty cluster"), ([0, -1, 1], "out of range")],
    ids=["gap", "negative"],
)
def test_partition_validate_rejects_gaps(ids, message):
    part = mc.Partition(np.array(ids), k=3)
    with pytest.raises(ValueError, match=message):
        part.validate()


# ---- numpy's C reader and the line parser read the same arrays ----

INT_JUNK = ["x", "1.5", "1e3", "1_0", "+1", "٣", "99999999999999999999", "-1", "0x1"]
FLOAT_JUNK = ["x", "nan", "-inf", "1_0.5", "٣.5", "+.5", "1e400", "0x1p3", "-0"]
FLOATS = st.floats(-1e6, 1e6, allow_subnormal=True).flatmap(
    lambda x: st.sampled_from([repr(x), f"{x:.17g}", f"{x:.3f}", f"{x:e}"])
)


def record_lines(draw, rows):
    """``rows`` of field strings as lines with tabs or spaces, trailing
    comments, and blank or comment-only lines in between."""
    lines = []
    for fields in rows:
        while draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "# note", "\t# 1 2"])))
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(lead + sep.join(fields) + draw(st.sampled_from(["", " ", "\t# c"])))
    return lines


def fields_of(draw, width, ints=None):
    """``width`` float fields (ints in ``ints`` when given); now and then one is
    junk, missing or extra."""
    junk, cell = (FLOAT_JUNK, FLOATS) if ints is None else (INT_JUNK, ints.map(str))
    fields = [draw(cell) for _ in range(width)]
    fault = draw(st.integers(0, 40))
    if fault == 0:
        fields[draw(st.integers(0, width - 1))] = draw(st.sampled_from(junk))
    return fields[:-1] if fault == 1 else fields + ["0"] if fault == 2 else fields


@st.composite
def input_file(draw):
    """A loader and the text of a file for it, every format in the grammar."""
    loader = draw(st.sampled_from(
        ["edges", "labels", "pairs", "partition", "dense", "sparse", "checkpoint"]
    ))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    head = []
    count = st.integers(0, 8)
    if loader == "dense":
        width = draw(st.integers(1, 4))
        rows = [fields_of(draw, width) for _ in range(draw(count))]
    elif loader == "sparse":
        head = [f"sparse 4 {draw(st.integers(1, 4))}"]
        rows = [fields_of(draw, 2, st.integers(0, 3)) + fields_of(draw, 1)
                for _ in range(draw(count))]
    elif loader == "checkpoint":
        dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
        head = ["#gcn-checkpoint v1", "dims\t" + " ".join(map(str, dims))]
        rows = [fields_of(draw, fan_out)
                for fan_in, fan_out in zip(dims[:-1], dims[1:]) for _ in range(fan_in)]
        rows = rows[: len(rows) - (draw(st.integers(0, 20)) == 0)]
    elif loader == "partition":
        rows = [[str(node)] + fields_of(draw, 1, st.integers(0, 2))
                for node in draw(st.permutations(range(3)))]
    else:
        rows = [fields_of(draw, 2, st.integers(0, 9)) for _ in range(draw(count))]
    text = eol.join(head + record_lines(draw, rows))
    return loader, text + eol * draw(st.integers(0, 2))


LOADERS = {
    "edges": mc.load_graph,
    "labels": partial(mc.load_labels, n=10),
    "pairs": partial(mc.load_pairs, n=10),
    "partition": partial(mc.load_partition, n=3),
    "dense": mc.load_features,
    "sparse": partial(mc.load_features, sparse=True),
    "checkpoint": mc.load_checkpoint,
}


def outcome(load, path):
    """What ``load(path)`` gives, as bytes: each array's dtype, shape and bits,
    or the message it raised."""
    try:
        value = load(path)
    except ValueError as exc:
        return "error", str(exc)
    parts = {
        mc.Graph: lambda g: [g.adj.indptr, g.adj.indices, g.adj.data],
        mc.Partition: lambda p: [p.assignment, np.array(p.k)],
        mc.GcnModel: lambda m: [np.array(m.layer_dims), *m.weights],
        sp.csr_matrix: lambda a: [a.indptr, a.indices, a.data, np.array(a.shape)],
    }.get(type(value), lambda a: [a])(value)
    return "ok", [(a.dtype.str, a.shape, a.tobytes()) for a in parts]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=input_file())
def test_c_reader_reads_what_the_line_parser_reads(tmp_path, case):
    loader, text = case
    path = tmp_path / "input.tsv"
    path.write_bytes(text.encode())
    fast = outcome(LOADERS[loader], path)
    with mock.patch.object(np, "loadtxt", side_effect=ValueError):  # the line parser only
        assert outcome(LOADERS[loader], path) == fast


@pytest.mark.parametrize(
    "loader, dtype, text, expected",
    [
        (partial(mc.load_pairs, n=11), np.int64, "0 1_0\n+1 2\n٣ 0\n", [[0, 10], [1, 2], [3, 0]]),
        (labels3, np.int64, "0 +1\n٢ 1_0\n", [1, -1, 10]),
        (mc.load_features, np.float64, "1_0.5 2\n٣ +.5\n", [[10.5, 2.0], [3.0, 0.5]]),
        (mc.load_features, mc.graph.SPARSE_CELL, "sparse 2 2\n0 1 1_0\n+1 ١ 2\n",
         [[0.0, 10.0], [0.0, 2.0]]),
    ],
    ids=["pairs", "labels", "dense", "sparse"],
)
def test_line_parser_reads_what_the_c_reader_refuses(tmp_path, loader, dtype, text, expected):
    """``1_0``, ``+1`` and non-ASCII digits load as they always have; numpy
    refuses the ``1_0`` and the digits, so the line parser reads them."""
    path = write(tmp_path, "input.tsv", text)
    with pytest.raises(ValueError, match="could not convert"):
        np.loadtxt(path, dtype, skiprows=int(text.startswith("sparse")))
    loaded = loader(path)
    if isinstance(loaded, mc.Partition):
        loaded = loaded.assignment
    assert np.array_equal(loaded, np.array(expected, dtype=np.asarray(loaded).dtype))


@pytest.mark.parametrize(
    "loader, text, message",
    [
        (mc.load_graph, "", "empty edge file"),
        (mc.load_graph, "# none\n\n", "empty edge file"),
        (mc.load_features, "", "no feature rows"),
        (mc.load_features, "  \n# none\n", "no feature rows"),
        (pairs3, "# none\n", None),
        (partial(mc.load_features, sparse=True), "sparse 2 2\n# none\n", None),
        (mc.load_checkpoint, CHECKPOINT, "truncated checkpoint"),
        (mc.load_checkpoint, CHECKPOINT + "0.5\n# one row short\n", "truncated checkpoint"),
        (mc.load_checkpoint, HEADER, "missing dims line"),
    ],
    ids=["edges", "edges-comments", "dense", "dense-comments", "pairs", "sparse",
         "checkpoint", "checkpoint-short", "checkpoint-header-only"],
)
def test_file_without_rows_keeps_its_message_and_warns_nothing(tmp_path, loader, text, message):
    path = write(tmp_path, "input.tsv", text)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        if message is None:
            assert np.asarray(loader(path).sum()) == 0
        else:
            with pytest.raises(ValueError, match=re.escape(f"input.tsv: {message}")):
                loader(path)
    assert [str(w.message) for w in seen] == []


def test_generated_inputs_are_read_without_walking_lines(tmp_path, monkeypatch):
    """No loader walks a well-formed file line by line: ``read_records`` gives at
    most one record per call (``load_features``' look at its first line)."""
    mc.cmd_generate([30, 30], 0.3, 0.05, 2, tmp_path)
    sparse_path = write(tmp_path, "sparse.tsv", "sparse 60 3\n0 1 0.5\n59 2 -1\n0 1 2\n")
    read_records = mc.graph.read_records

    def one_record(path, skiprows=0):
        records = read_records(path, skiprows)
        yield next(records)
        raise AssertionError(f"{path} was read line by line")

    monkeypatch.setattr(mc.graph, "read_records", one_record)
    g = mc.load_graph(tmp_path / "edges.tsv")
    assert mc.load_features(tmp_path / "features.tsv").shape == (g.n, 2)
    assert mc.load_labels(tmp_path / "labels.tsv", g.n).max() == 1
    cells = mc.load_features(sparse_path, sparse=True)
    assert cells[0, 1] == 2.0 and cells[59, 2] == -1.0 and cells.nnz == 2


def test_checkpoint_rows_after_gaps_keep_their_lines(tmp_path):
    model = mc.init_model([3, 4, 2], seed=1)
    clean = tmp_path / "clean.tsv"
    mc.save_checkpoint(clean, model)
    lines = clean.read_text().splitlines(keepends=True)
    # a comment inside layer 0 and a blank line starting layer 1 move every later row down
    gapped = lines[:3] + ["# note\n"] + lines[3:5] + ["\n"] + lines[5:]
    path = write(tmp_path, "input.tsv", "".join(gapped))
    assert outcome(mc.load_checkpoint, path) == outcome(mc.load_checkpoint, clean)
    gapped[-2] = "nan nan\n"
    path.write_text("".join(gapped))
    with pytest.raises(ValueError, match=f"input.tsv:{len(gapped) - 1}: non-finite weight"):
        mc.load_checkpoint(path)
