import numpy as np
import pytest

import modcluster as mc
from modcluster.graph import from_edges
from reference import dense_adjacency, modularity_double_sum, random_graph


def triangle():
    return from_edges(np.array([[0, 1], [1, 2], [2, 0]]), 3)


def two_triangles():
    edges = np.array([[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]])
    return from_edges(edges, 6)


class TestModularity:
    def test_single_cluster_zero(self):
        g = random_graph(12, 0.4, 1)
        q = mc.modularity(g, mc.Partition(np.zeros(12, dtype=int), k=1))
        assert q == pytest.approx(0.0, abs=1e-12)

    def test_triangle_singletons(self):
        q = mc.modularity(triangle(), mc.Partition(np.array([0, 1, 2]), k=3))
        assert q == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(15):
            n = int(rng.integers(4, 50))
            g = random_graph(n, 0.25, 3000 + trial)
            assignment = rng.integers(0, int(rng.integers(1, 6)), n)
            part = mc.Partition.compact(assignment)
            q = mc.modularity(g, part)
            oracle = modularity_double_sum(dense_adjacency(g), part.assignment)
            assert q == pytest.approx(oracle, abs=1e-10)

    def test_invariant_under_id_permutation(self):
        g = random_graph(20, 0.3, 9)
        rng = np.random.default_rng(4)
        assignment = rng.integers(0, 4, 20)
        part = mc.Partition.compact(assignment)
        perm = rng.permutation(part.k)
        permuted = mc.Partition(perm[part.assignment], k=part.k)
        assert mc.modularity(g, permuted) == pytest.approx(mc.modularity(g, part))

    def test_partition_must_cover_graph(self):
        g = from_edges(np.array([[0, 1], [1, 2]]), 3)
        with pytest.raises(ValueError, match="cover"):
            mc.modularity(g, mc.Partition(np.array([0, 1]), k=2))

    def test_edgeless_graph_rejected(self):
        g = from_edges(np.zeros((0, 2), dtype=np.int64), 3)
        with pytest.raises(ValueError, match="m=0"):
            mc.modularity(g, mc.Partition(np.zeros(3, dtype=int), k=1))

    def test_range(self):
        g = random_graph(15, 0.4, 10)
        rng = np.random.default_rng(5)
        for _ in range(10):
            part = mc.Partition.compact(rng.integers(0, 3, 15))
            assert -0.5 - 1e-12 <= mc.modularity(g, part) <= 1.0


class TestConductance:
    def test_perfect_split_zero(self):
        part = mc.Partition(np.array([0, 0, 0, 1, 1, 1]), k=2)
        assert mc.conductance(two_triangles(), part) == 0.0

    def test_k2_singletons(self):
        g = from_edges(np.array([[0, 1]]), 2)
        part = mc.Partition(np.array([0, 1]), k=2)
        assert mc.conductance(g, part) == pytest.approx(1.0)

    def test_path_hand_value(self):
        g = from_edges(np.array([[0, 1], [1, 2]]), 3)
        part = mc.Partition(np.array([0, 0, 1]), k=2)
        assert mc.conductance(g, part) == pytest.approx(2.0 / 3.0)

    def test_zero_volume_cluster_warns(self):
        g = from_edges(np.array([[0, 1]]), 3)  # node 2 isolated
        part = mc.Partition(np.array([0, 0, 1]), k=2)
        with pytest.warns(UserWarning, match="zero-volume"):
            value = mc.conductance(g, part)
        assert value == 0.0

    def test_in_unit_range(self):
        rng = np.random.default_rng(6)
        g = random_graph(20, 0.3, 30)
        for _ in range(5):
            part = mc.Partition.compact(rng.integers(0, 4, 20))
            assert 0.0 <= mc.conductance(g, part) <= 1.0


class TestNmi:
    def test_identical_partitions(self):
        labels = np.array([0, 0, 1, 1, 2])
        part = mc.Partition(labels.copy(), k=3)
        assert mc.nmi(part, labels) == pytest.approx(1.0)

    def test_constant_partition_zero(self):
        labels = np.array([0, 0, 1, 1])
        part = mc.Partition(np.zeros(4, dtype=int), k=1)
        assert mc.nmi(part, labels) == 0.0

    def test_independent_partitions_zero(self):
        labels = np.array([0, 0, 1, 1])
        part = mc.Partition(np.array([0, 1, 0, 1]), k=2)
        assert mc.nmi(part, labels) == pytest.approx(0.0, abs=1e-12)

    def test_both_single_cluster(self):
        labels = np.array([3, 3, 3])
        part = mc.Partition(np.zeros(3, dtype=int), k=1)
        assert mc.nmi(part, labels) == 1.0

    def test_unlabeled_nodes_excluded(self):
        labels = np.array([0, 0, 1, 1, mc.UNLABELED])
        part = mc.Partition(np.array([0, 0, 1, 1, 0]), k=2)
        assert mc.nmi(part, labels) == pytest.approx(1.0)

    def test_matches_direct_mutual_information(self):
        def direct(a, b):  # I(a; b) / mean(H(a), H(b)), one term per pair of values
            n = len(a)
            ha = -sum(np.mean(a == u) * np.log(np.mean(a == u)) for u in set(a))
            hb = -sum(np.mean(b == v) * np.log(np.mean(b == v)) for v in set(b))
            if ha == 0.0 and hb == 0.0:
                return 1.0
            info = 0.0
            for u in set(a):
                for v in set(b):
                    joint = np.sum((a == u) & (b == v))
                    if joint:
                        info += joint / n * np.log(n * joint / (np.sum(a == u) * np.sum(b == v)))
            return 2.0 * info / (ha + hb)

        rng = np.random.default_rng(12)
        for trial in range(300):
            n = int(rng.integers(1, 30))
            part = mc.Partition.compact(rng.integers(0, rng.integers(1, 6), n))
            labels = rng.integers(mc.UNLABELED, rng.integers(1, 6), n)
            labels[rng.integers(n)] = rng.integers(0, 3)  # at least one labeled node
            labeled = labels != mc.UNLABELED
            want = direct(part.assignment[labeled], labels[labeled])
            assert mc.nmi(part, labels) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_no_labels_raises(self):
        part = mc.Partition(np.array([0, 1]), k=2)
        with pytest.raises(ValueError, match="labeled"):
            mc.nmi(part, np.array([mc.UNLABELED, mc.UNLABELED]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 3, 30)
        assignment = rng.integers(0, 4, 30)
        part = mc.Partition.compact(assignment)
        perm = rng.permutation(part.k)
        permuted = mc.Partition(perm[part.assignment], k=part.k)
        assert mc.nmi(permuted, labels) == pytest.approx(mc.nmi(part, labels))


class TestPairwiseF1:
    def test_identical(self):
        labels = np.array([0, 0, 1, 1])
        part = mc.Partition(labels.copy(), k=2)
        assert mc.pairwise_f1(part, labels, seed=0) == pytest.approx(1.0)

    def test_all_singletons_zero(self):
        labels = np.array([0, 0, 1, 1])
        part = mc.Partition(np.arange(4), k=4)
        assert mc.pairwise_f1(part, labels, seed=0) == 0.0

    def test_hand_case(self):
        labels = np.array([0, 0, 1, 1])
        part = mc.Partition(np.array([0, 0, 0, 1]), k=2)
        # predicted pairs {01,02,12}, true pairs {01,23}: TP=1, P=1/3, R=1/2
        assert mc.pairwise_f1(part, labels, seed=3) == pytest.approx(0.4)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 3, 200)
        part = mc.Partition.compact(rng.integers(0, 3, 200))
        a = mc.pairwise_f1(part, labels, sample_size=50, seed=5)
        b = mc.pairwise_f1(part, labels, sample_size=50, seed=5)
        assert a == b

    def test_exact_when_sample_covers_all(self):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 2, 30)
        part = mc.Partition.compact(rng.integers(0, 2, 30))
        for seed in range(5):
            assert mc.pairwise_f1(part, labels, sample_size=30, seed=seed) == (
                mc.pairwise_f1(part, labels, sample_size=10_000, seed=seed + 99)
            )

    def test_too_few_labeled(self):
        part = mc.Partition(np.array([0, 1]), k=2)
        with pytest.raises(ValueError, match="two labeled"):
            mc.pairwise_f1(part, np.array([0, mc.UNLABELED]))

    def test_invariant_under_id_permutation(self):
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 3, 40)
        part = mc.Partition.compact(rng.integers(0, 4, 40))
        perm = rng.permutation(part.k)
        permuted = mc.Partition(perm[part.assignment], k=part.k)
        for seed in (0, 1):
            assert mc.pairwise_f1(permuted, labels, seed=seed) == pytest.approx(
                mc.pairwise_f1(part, labels, seed=seed)
            )


class TestEvaluate:
    def test_without_labels(self):
        g = two_triangles()
        part = mc.Partition(np.array([0, 0, 0, 1, 1, 1]), k=2)
        report = mc.evaluate(g, part)
        assert report.nmi is None and report.f1 is None
        assert report.k_found == 2
        assert report.q == pytest.approx(0.5)

    def test_with_labels(self):
        g = two_triangles()
        part = mc.Partition(np.array([0, 0, 0, 1, 1, 1]), k=2)
        labels = np.array([1, 1, 1, 0, 0, 0])
        report = mc.evaluate(g, part, labels=labels)
        assert report.nmi == pytest.approx(1.0)
        assert report.f1 == pytest.approx(1.0)
