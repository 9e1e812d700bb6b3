import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modcluster as mc
from modcluster import gcn
from modcluster.graph import from_edges
from modcluster.losses import AuxiliaryInfo
from reference import (
    aux_frobenius,
    dense_adjacency,
    fd_embedding_grad,
    max_rel_error,
    random_graph,
    soft_modularity_dense,
)


def onehot_rows(assignment, k):
    x = np.zeros((len(assignment), k))
    x[np.arange(len(assignment)), assignment] = 1.0
    return x


def random_embedding(rng, n, k):
    return mc.transform_embeddings(rng.normal(0, 1, (n, k)))


def two_triangles():
    edges = np.array([[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]])
    return from_edges(edges, 6)


class TestModularityLoss:
    def test_single_soft_cluster_is_zero(self):
        g = from_edges(np.array([[0, 1], [1, 2], [2, 0]]), 3)
        x = np.tile([1.0, 0.0], (3, 1))
        value, _ = mc.modularity_loss(x, g)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_two_triangles_one_hot(self):
        g = two_triangles()
        x = onehot_rows([0, 0, 0, 1, 1, 1], 2)
        value, _ = mc.modularity_loss(x, g)
        # all edges internal, each community holds half the degree mass
        assert -value == pytest.approx(0.5, abs=1e-12)

    def test_matches_dense_trace_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(5, 50))
            g = random_graph(n, 0.3, 1000 + trial)
            k = int(rng.integers(1, 6))
            x = onehot_rows(rng.integers(0, k, n), k)
            value, _ = mc.modularity_loss(x, g)
            dense = soft_modularity_dense(dense_adjacency(g), x)
            assert -value == pytest.approx(dense, abs=1e-10)

    def test_soft_modularity_bounded_by_one(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            g = random_graph(12, 0.4, 2000 + trial)
            x = random_embedding(rng, g.n, 5)
            value, _ = mc.modularity_loss(x, g)
            assert -value <= 1.0 + 1e-12

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(5)
        g = random_graph(8, 0.5, 77)
        x = random_embedding(rng, g.n, 4)
        _, grad = mc.modularity_loss(x, g)
        fd = fd_embedding_grad(lambda z: mc.modularity_loss(z, g)[0], x.copy())
        assert max_rel_error([grad], [fd]) < 1e-6

    @pytest.mark.parametrize("workers", [1, 3])
    def test_row_blocks_match_whole_array_form(self, monkeypatch, workers):
        rng = np.random.default_rng(8)
        g = random_graph(23, 0.3, 88)
        x = random_embedding(rng, g.n, 4)
        ax = g.adj @ x
        d = g.degrees.astype(np.float64)
        dtx = x.T @ d
        two_m = 2.0 * g.m
        want = -(float(np.sum(x * ax)) - float(dtx @ dtx) / two_m) / two_m
        want_grad = -(2.0 * ax - np.outer(d, dtx) / g.m) / two_m
        # every kernel in blocks of 2 rows, as tests/test_gcn.py's TestRowBlocks forces
        monkeypatch.setattr(gcn, "_POOL_MIN_ROWS", 0)
        monkeypatch.setattr(gcn, "_WORKERS", workers)
        monkeypatch.setattr(gcn, "_BLOCK_ELEMENTS", 8)
        monkeypatch.setattr(gcn, "_PRODUCT_ELEMENTS", 8)
        value, grad = mc.modularity_loss(x, g)
        assert value == want
        assert grad.tobytes() == want_grad.tobytes()

    def test_edgeless_graph_rejected(self):
        g = from_edges(np.zeros((0, 2), dtype=np.int64), 3)
        with pytest.raises(ValueError, match="m=0"):
            mc.modularity_loss(np.ones((3, 2)), g)

    def test_row_count_must_match_graph(self):
        g = from_edges(np.array([[0, 1], [1, 2]]), 3)
        with pytest.raises(ValueError, match="row count"):
            mc.modularity_loss(np.ones((2, 2)), g)


class TestAuxLossLabels:
    def test_exact_match_is_zero(self):
        x = onehot_rows([0, 1, 0, 2], 3)
        subset = np.arange(4)
        value, grad = mc.aux_loss_labels(x, subset, onehot_rows([0, 1, 0, 2], 3))
        assert value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_same_label_orthogonal_rows(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        onehot = np.array([[1.0], [1.0]])
        value, _ = mc.aux_loss_labels(x, np.array([0, 1]), onehot)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_matches_dense_frobenius_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            s = int(rng.integers(2, 21))
            n = s + int(rng.integers(0, 10))
            x = random_embedding(rng, n, int(rng.integers(2, 7)))
            subset = np.sort(rng.choice(n, size=s, replace=False))
            p = int(rng.integers(1, 5))
            onehot = onehot_rows(rng.integers(0, p, s), p)
            value, _ = mc.aux_loss_labels(x, subset, onehot)
            assert value == pytest.approx(aux_frobenius(x[subset], onehot), abs=1e-8)
            assert value >= 0.0

    def test_gradient_zero_outside_subset(self):
        rng = np.random.default_rng(2)
        x = random_embedding(rng, 10, 3)
        subset = np.array([1, 4, 7])
        onehot = onehot_rows([0, 1, 0], 2)
        _, grad = mc.aux_loss_labels(x, subset, onehot)
        outside = np.setdiff1d(np.arange(10), subset)
        assert np.all(grad[outside] == 0.0)
        assert np.any(grad[subset] != 0.0)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(4)
        x = random_embedding(rng, 7, 3)
        subset = np.array([0, 2, 3, 6])
        onehot = onehot_rows([0, 1, 1, 0], 2)
        _, grad = mc.aux_loss_labels(x, subset, onehot)
        fd = fd_embedding_grad(
            lambda z: mc.aux_loss_labels(z, subset, onehot)[0], x.copy()
        )
        assert max_rel_error([grad], [fd]) < 1e-6

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mc.aux_loss_labels(np.ones((3, 2)), np.array([], dtype=int), np.zeros((0, 1)))


class TestAuxLossPairs:
    def test_identical_rows_zero(self):
        x = np.tile([0.6, 0.8], (4, 1))
        value, _ = mc.aux_loss_pairs(x, np.array([[0, 1], [2, 3]]))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pair(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        value, _ = mc.aux_loss_pairs(x, np.array([[0, 1]]))
        assert value == pytest.approx(1.0)

    def test_mixed_cosines(self):
        # cosines 1, 0.5, 0 -> (0 + 0.25 + 1)/3
        x = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2], [0.0, 1.0]])
        pairs = np.array([[0, 1], [0, 2], [0, 3]])
        value, _ = mc.aux_loss_pairs(x, pairs)
        assert value == pytest.approx(0.4166667, abs=1e-6)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(6)
        x = random_embedding(rng, 6, 3)
        pairs = np.array([[0, 1], [2, 5], [1, 4], [0, 3]])
        _, grad = mc.aux_loss_pairs(x, pairs)
        fd = fd_embedding_grad(lambda z: mc.aux_loss_pairs(z, pairs)[0], x.copy())
        assert max_rel_error([grad], [fd]) < 1e-6

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mc.aux_loss_pairs(np.ones((3, 2)), np.zeros((0, 2), dtype=int))


class TestCollapseRegularizer:
    def test_identical_rows_maximal(self):
        x = np.tile([0.0, 1.0], (5, 1))
        value, _ = mc.collapse_regularizer(x, 1.0)
        assert value == pytest.approx(1.0)

    def test_alpha_zero(self):
        value, grad = mc.collapse_regularizer(np.ones((3, 2)), 0.0)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_two_orthogonal_rows(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        value, _ = mc.collapse_regularizer(x, 1.0)
        assert value == pytest.approx(0.25)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(8)
        x = random_embedding(rng, 5, 3)
        _, grad = mc.collapse_regularizer(x, 0.7)
        fd = fd_embedding_grad(lambda z: mc.collapse_regularizer(z, 0.7)[0], x.copy())
        assert max_rel_error([grad], [fd]) < 1e-6


class TestTotalLoss:
    def test_plain_run_equals_l1(self):
        g = random_graph(10, 0.4, 11)
        rng = np.random.default_rng(9)
        x = random_embedding(rng, g.n, 4)
        report, grad = mc.total_loss(x, g, None)
        l1, g1 = mc.modularity_loss(x, g)
        assert report.total == l1
        assert report.l2 == 0.0 and report.reg == 0.0
        assert report.soft_modularity == -l1
        np.testing.assert_array_equal(grad, g1)

    def test_weighted_combination_identity(self):
        g = random_graph(10, 0.4, 12)
        rng = np.random.default_rng(10)
        x = random_embedding(rng, g.n, 4)
        subset = np.array([0, 3, 5, 8])
        aux = AuxiliaryInfo(
            variant="labels",
            subset=subset,
            onehot=onehot_rows([0, 1, 1, 0], 2),
            lam=0.2,
            alpha=0.3,
        )
        report, _ = mc.total_loss(x, g, aux)
        assert report.total == report.l1 + 0.2 * report.l2 + report.reg

    def test_combined_gradient_matches_fd(self):
        g = random_graph(6, 0.6, 13)
        rng = np.random.default_rng(13)
        x = random_embedding(rng, g.n, 3)
        aux = AuxiliaryInfo(
            variant="labels",
            subset=np.array([0, 2, 4]),
            onehot=onehot_rows([0, 0, 1], 2),
            lam=0.5,
            alpha=0.1,
        )
        _, grad = mc.total_loss(x, g, aux)
        fd = fd_embedding_grad(lambda z: mc.total_loss(z, g, aux)[0].total, x.copy())
        assert max_rel_error([grad], [fd]) < 1e-5


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda s: st.tuples(
            st.just(s),
            st.lists(st.integers(0, 2), min_size=s, max_size=s),
            st.integers(0, 2**31 - 1),
        )
    )
)
def test_trace_form_equals_frobenius_for_any_instance(params):
    s, label_list, seed = params
    rng = np.random.default_rng(seed)
    x = mc.transform_embeddings(rng.normal(0, 1, (s, 4)))
    onehot = onehot_rows(label_list, 3)
    value, _ = mc.aux_loss_labels(x, np.arange(s), onehot)
    assert value == pytest.approx(aux_frobenius(x, onehot), abs=1e-8)
    assert value >= 0.0
