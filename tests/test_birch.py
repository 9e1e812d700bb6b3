import tracemalloc

import numpy as np
import pytest

import modcluster as mc
from modcluster.birch import BirchParams, CfTree

from reference import birch_reference


def sphere_blobs(rng, centers, per_blob, spread_deg):
    """Points on the unit sphere within spread_deg of each center."""
    points, groups = [], []
    for gi, center in enumerate(centers):
        for _ in range(per_blob):
            direction = rng.normal(0, 1, len(center))
            direction -= direction @ center * np.asarray(center)
            direction /= np.linalg.norm(direction)
            angle = np.radians(rng.uniform(0, spread_deg))
            p = np.cos(angle) * np.asarray(center) + np.sin(angle) * direction
            points.append(p / np.linalg.norm(p))
            groups.append(gi)
    return np.array(points), np.array(groups)


def grown_tree(x, params):
    tree = CfTree(params)
    for row in x:
        tree.insert(row)
    return tree


def leaf_nodes(tree):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            yield node
        else:
            stack.extend(entry.child for entry in node.entries)


def leaf_radii(leaf):
    """Each leaf row's subcluster radius, from its (n, ls, ss) row."""
    centroids = leaf.ls / leaf.n[:, None]
    return np.sqrt(np.maximum(leaf.ss / leaf.n - np.sum(centroids**2, axis=1), 0.0))


class TestClusteringFeature:
    """The (n, ls, ss) rows of the leaves, read through a grown tree."""

    def test_radius_hand_value(self):
        tree = grown_tree(np.array([[0.0, 0.0], [2.0, 0.0]]), BirchParams(threshold=1.0))
        (leaf,) = leaf_nodes(tree)
        np.testing.assert_allclose(leaf.ls / leaf.n[:, None], [[1.0, 0.0]])
        assert leaf_radii(leaf) == pytest.approx([1.0])

    @pytest.mark.parametrize("threshold, k", [(1.0, 1), (0.999, 2)])
    def test_radius_boundary(self, threshold, k):
        # the merged radius of (0,0) and (2,0) is exactly 1
        part = mc.birch_fit(np.array([[0.0, 0.0], [2.0, 0.0]]), BirchParams(threshold))
        assert part.k == k

    def test_large_norm_near_duplicates_merge(self):
        # three rows 1e-9 apart at norm 63: the squared radius rounds to -1.4e-12
        x = np.array([[29.999999998014, 54.999999998454],
                      [29.999999999911, 55.000000000226],
                      [30.000000000257, 54.999999999737]])
        assert mc.birch_fit(x, BirchParams(threshold=0.5)).k == 1

    def test_singleton_radius_zero(self):
        (leaf,) = leaf_nodes(grown_tree(np.array([[3.0, 4.0]]), BirchParams()))
        assert leaf_radii(leaf).tolist() == [0.0]

    def test_merge_is_additive(self):
        x = np.array([[1.0, 2.0], [-1.0, 0.5]])
        (leaf,) = leaf_nodes(grown_tree(x, BirchParams(threshold=10.0)))
        assert leaf.n.tolist() == [2]
        np.testing.assert_allclose(leaf.ls, [[0.0, 2.5]])
        assert leaf.ss.tolist() == pytest.approx([5.0 + 1.25])

    def test_leaf_rows_within_threshold(self):
        rng = np.random.default_rng(4)
        x = mc.transform_embeddings(rng.normal(0, 1, (300, 5)))
        tree = grown_tree(x, BirchParams(threshold=0.3, branching_factor=4))
        tree.validate()
        assert not tree.root.is_leaf
        radii = np.concatenate([leaf_radii(leaf) for leaf in leaf_nodes(tree)])
        assert len(radii) == sum(1 for _ in tree.leaf_entries())
        assert radii.max() <= 0.3


class TestBirchFit:
    def test_single_point(self):
        part = mc.birch_fit(np.array([[1.0, 0.0]]))
        assert part.k == 1

    def test_identical_points_one_cluster(self):
        x = np.tile([0.6, 0.8], (25, 1))
        part = mc.birch_fit(x, BirchParams(threshold=1e-6))
        assert part.k == 1

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(0)
        x, groups = sphere_blobs(rng, [(1, 0, 0), (0, 1, 0)], 20, spread_deg=4.0)
        # oracle: brute-force pairwise distances confirm the separation
        within = max(
            np.linalg.norm(a - b)
            for g in (0, 1)
            for a in x[groups == g]
            for b in x[groups == g]
        )
        between = min(
            np.linalg.norm(a - b) for a in x[groups == 0] for b in x[groups == 1]
        )
        assert within < 0.5 < between
        part = mc.birch_fit(x, BirchParams(threshold=0.5))
        assert part.k == 2
        assert len(np.unique(part.assignment[groups == 0])) == 1
        assert len(np.unique(part.assignment[groups == 1])) == 1

    def test_insertion_order_invariance_when_separated(self):
        rng = np.random.default_rng(1)
        x, groups = sphere_blobs(rng, [(1, 0, 0), (0, 1, 0)], 20, spread_deg=4.0)
        for trial in range(10):
            perm = np.random.default_rng(trial).permutation(len(x))
            part = mc.birch_fit(x[perm], BirchParams(threshold=0.5))
            assert part.k == 2
            for g in (0, 1):
                assert len(np.unique(part.assignment[groups[perm] == g])) == 1

    def test_readout_holds_one_n_by_k_array(self):
        # many leaf subclusters, so the n x k scores dwarf the tree
        x = np.random.default_rng(0).uniform(0, 1, (2000, 2))
        params = BirchParams(threshold=0.03)
        k = len(list(grown_tree(x, params).leaf_entries()))
        assert k > 200
        tracemalloc.start()
        try:
            mc.birch_fit(x, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * len(x) * k  # two n x k arrays before

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            mc.birch_fit(np.array([[np.nan, 1.0]]))

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="2-d"):
            mc.birch_fit(np.ones(3))

    def test_every_point_labeled_contiguously(self):
        rng = np.random.default_rng(2)
        x = mc.transform_embeddings(rng.normal(0, 1, (120, 6)))
        part = mc.birch_fit(x, BirchParams(threshold=0.2, branching_factor=4))
        part.validate()
        assert len(part.assignment) == 120


class TestCfTree:
    def test_additivity_after_every_insert(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (60, 4))
        tree = CfTree(BirchParams(threshold=0.3, branching_factor=3))
        for idx in range(len(x)):
            tree.insert(x[idx])
            tree.validate()
        total = sum(int(leaf.n.sum()) for leaf in leaf_nodes(tree))
        assert total == 60

    def test_branching_cap_forces_splits(self):
        # distinct far-apart points with a tiny threshold: all singletons
        x = np.arange(40, dtype=np.float64).reshape(-1, 1) * 10.0
        tree = grown_tree(x, BirchParams(threshold=1e-3, branching_factor=4))
        tree.validate()
        assert sum(1 for _ in tree.leaf_entries()) == 40
        assert not tree.root.is_leaf

    @pytest.mark.parametrize(
        "field, message",
        [
            ("n", "CF count mismatch with children"),
            ("ls", "CF linear sum mismatch with children"),
            ("ss", "CF squared sum mismatch with children"),
            ("c", "centroid rows differ from ls / n"),
            ("extra-row", "node exceeds branching factor"),
        ],
    )
    def test_validate_names_each_corruption(self, field, message):
        # far-apart singletons, 4 to a node: a parent row sums each leaf below the
        # root, and the first 4 points alone make a root leaf that is full
        x = np.arange(40, dtype=np.float64).reshape(-1, 1) * 10.0
        params = BirchParams(threshold=1e-3, branching_factor=4)
        tree = grown_tree(x[:4] if field == "extra-row" else x, params)
        tree.validate()
        leaf = next(leaf_nodes(tree))
        if field == "extra-row":
            leaf.insert_row(len(leaf.n), 1, x[4], float(x[4] @ x[4]))
        else:  # far beyond validate's tolerances
            rows = getattr(leaf, field)
            rows[0] = 2 * rows[0] + 1
        with pytest.raises(AssertionError, match=message):
            tree.validate()

    def test_negative_squared_radius_raises(self):
        x = np.array([1.0, 0.0])
        tree = grown_tree(x[None], BirchParams())
        tree.root.ss[0] = 0.0  # below x.x: merging x again gives radius^2 = 1/2 - 1
        with pytest.raises(ValueError, match="negative squared radius beyond rounding slack"):
            tree.insert(x)


def depth(node):
    return 1 if node.is_leaf else 1 + depth(node.entries[0].child)


def mirrored_groups(rng, groups, threshold, d):
    """Groups of three rows, spread far apart: a centre with x0 == x1 and two
    rows mirrored across that plane, about 0.65 threshold from it. The centre,
    inserted last, is exactly as far from both, so which one absorbs it turns
    on how the two squared distances round."""
    spread = 10 * threshold * groups ** (1 / (d - 1))  # centres span d - 1 dims
    centre = rng.uniform(-spread, spread, (groups, d))
    centre[:, 1] = centre[:, 0]
    offset = rng.normal(0, 0.3 * threshold / np.sqrt(d), (groups, d))
    offset[:, 0], offset[:, 1] = 0.9 * threshold, -0.9 * threshold
    mirror = offset[:, [1, 0, *range(2, d)]]
    return np.stack([centre + offset, centre + mirror, centre], axis=1).reshape(-1, d)


class TestAgainstReference:
    """The CF-tree gives the same tree, bit for bit, as the plain BIRCH that
    divides every node on each visit and ranks rows one dot product at a
    time. Ranking with einsum, or with ||c||^2 - 2 c.x, breaks the exact
    ties that the mirrored groups set up differently and fails here."""

    @pytest.mark.parametrize(
        "branching, threshold, d",
        [(b, t, d) for b in (2, 3) for t in (0.05, 0.1, 0.5) for d in (2, 5, 64)]
        + [(50, 0.05, 64), (50, 0.1, 2), (50, 0.5, 5)],
    )
    def test_partition_and_centroids_match(self, branching, threshold, d):
        rng = np.random.default_rng([branching, int(threshold * 100), d])
        rows = mirrored_groups(rng, 20 if branching < 50 else 1000, threshold, d)
        x = np.concatenate([rows, rows[rng.integers(0, len(rows), len(rows))]])
        params = BirchParams(threshold, branching)
        tree = grown_tree(x, params)
        assert depth(tree.root) >= 3  # leaves and internal nodes have split
        centroids, assignment = birch_reference(x, threshold, branching)
        assert np.array_equal(np.array(list(tree.leaf_entries())), centroids)
        assert np.array_equal(mc.birch_fit(x, params).assignment, assignment)


class TestParamsAndRelabel:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            BirchParams(threshold=0.0)
        with pytest.raises(ValueError):
            BirchParams(threshold=float("nan"))
        with pytest.raises(ValueError):
            BirchParams(branching_factor=1)

    def test_compact_relabels_gaps(self):
        out = mc.Partition.compact(np.array([0, 2, 5]))
        assert out.assignment.tolist() == [0, 1, 2]
        assert out.k == 3

    def test_compact_rejects_empty(self):
        with pytest.raises(ValueError, match="empty partition"):
            mc.Partition.compact([])

    def test_compact_keeps_contiguous(self):
        part = mc.Partition(np.array([0, 1, 0]), k=2)
        out = mc.Partition.compact(part.assignment)
        assert np.array_equal(out.assignment, part.assignment)
