"""Acceptance suite: one test per numbered criterion, at the stated tolerances.

Each test prints a PASS/FAIL line with the measured quantities (visible with
``pytest -s`` or on failure). Criteria 6 and 7 share one synthetic dataset and
the lambda=0 training arm. Criterion 9 needs a real dataset on disk and is
skipped unless MODCLUSTER_CORA_DIR points at it.
"""

import csv
import os
import time
import warnings

import numpy as np
import pytest

import modcluster as mc
from modcluster.birch import BirchParams
from modcluster.losses import AuxiliaryInfo
from modcluster.pipeline import RunConfig, cmd_generate, cmd_scaling, cmd_train, train_single_seed
from reference import (
    aux_frobenius,
    dense_adjacency,
    fd_weight_grads,
    max_rel_error,
    modularity_double_sum,
    random_graph,
    soft_modularity_dense,
    total_loss_value,
)
from test_birch import sphere_blobs

SEEDS = list(range(10))


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {number}: {detail}")
    return passed


def onehot_rows(assignment, k):
    x = np.zeros((len(assignment), k))
    x[np.arange(len(assignment)), assignment] = 1.0
    return x


def test_criterion_1_modularity_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    graphs = 0
    seed = 0
    while graphs < 100:
        n = int(rng.integers(5, 51))
        g = random_graph(n, 0.2, 10_000 + seed)
        seed += 1
        graphs += 1
        k = int(rng.integers(1, 7))
        part = mc.Partition.compact(rng.integers(0, k, n))
        q_cluster = mc.modularity(g, part)
        dense = dense_adjacency(g)
        q_double = modularity_double_sum(dense, part.assignment)
        x = onehot_rows(part.assignment, part.k)
        q_trace = -mc.modularity_loss(x, g)[0]
        q_trace_dense = soft_modularity_dense(dense, x)
        worst = max(
            worst,
            abs(q_cluster - q_double),
            abs(q_cluster - q_trace),
            abs(q_double - q_trace),
            abs(q_trace - q_trace_dense),
        )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    assert report(
        1, ok, f"max pairwise deviation {worst:.2e} over 100 graphs in {elapsed:.1f}s"
    )


def test_criterion_2_aux_loss_equivalence():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        s = int(rng.integers(2, 51))
        n = s + int(rng.integers(0, 20))
        x = mc.transform_embeddings(rng.normal(0, 1, (n, int(rng.integers(2, 9)))))
        subset = np.sort(rng.choice(n, size=s, replace=False))
        p = int(rng.integers(1, 6))
        onehot = onehot_rows(rng.integers(0, p, s), p)
        trace_value, _ = mc.aux_loss_labels(x, subset, onehot)
        direct = aux_frobenius(x[subset], onehot)
        worst = max(worst, abs(trace_value - direct))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    assert report(
        2, ok, f"max trace-vs-Frobenius deviation {worst:.2e} over 100 instances in {elapsed:.1f}s"
    )


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_3_gradient_check():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        g = random_graph(6, 0.5, 40_000 + seed)
        a_norm = mc.normalized_adjacency(g)
        feats = rng.normal(0, 1, (6, 4))
        subset = np.sort(rng.choice(6, size=3, replace=False))
        aux = AuxiliaryInfo(
            variant="labels",
            subset=subset,
            onehot=onehot_rows(rng.integers(0, 2, 3), 2),
            lam=0.5,
            alpha=0.1,
        )
        model = mc.init_model([4, 3, 2], seed=500 + seed)
        tape = mc.GradientTape()
        raw = mc.gcn_forward(model, a_norm, feats, tape)
        x = mc.transform_embeddings(raw, tape)
        _, dldx = mc.total_loss(x, g, aux)
        analytic = mc.backward(tape, dldx)
        numeric = fd_weight_grads(
            lambda m: total_loss_value(m, a_norm, feats, g, aux), model, h=1e-5
        )
        worst = max(worst, max_rel_error(analytic, numeric))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    assert report(
        3, ok, f"max relative gradient error {worst:.2e} over 20 seeds in {elapsed:.1f}s"
    )


def test_criterion_4_embedding_geometry():
    rng = np.random.default_rng(404)
    worst_norm = worst_neg = worst_ident = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 60))
        k = int(rng.integers(2, 12))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            x = mc.transform_embeddings(rng.normal(0, 3, (n, k)))
        worst_norm = max(worst_norm, float(np.abs(np.linalg.norm(x, axis=1) - 1).max()))
        worst_neg = max(worst_neg, float(-x.min()))
        i = rng.integers(0, n, 50)
        j = rng.integers(0, n, 50)
        lhs = np.sum((x[i] - x[j]) ** 2, axis=1)
        rhs = 2.0 * (1.0 - np.einsum("ij,ij->i", x[i], x[j]))
        worst_ident = max(worst_ident, float(np.abs(lhs - rhs).max()))
    ok = worst_norm <= 1e-9 and worst_neg <= 0.0 and worst_ident <= 1e-9
    assert report(
        4,
        ok,
        f"unit-norm dev {worst_norm:.2e}, min entry >= {-worst_neg:.1e}, "
        f"identity dev {worst_ident:.2e} over 1000 pairs",
    )


def test_criterion_5_birch_blob_recovery():
    rng = np.random.default_rng(505)
    x, groups = sphere_blobs(rng, [(1, 0, 0), (0, 1, 0)], 20, spread_deg=4.0)
    failures = []
    for trial in range(10):
        perm = np.random.default_rng(9000 + trial).permutation(len(x))
        part = mc.birch_fit(x[perm], BirchParams(threshold=0.5))
        pg = groups[perm]
        perfect = (
            part.k == 2
            and len(np.unique(part.assignment[pg == 0])) == 1
            and len(np.unique(part.assignment[pg == 1])) == 1
        )
        if not perfect:
            failures.append(trial)
    ok = not failures
    assert report(
        5, ok, "2 clusters with perfect membership in 10/10 permutations"
        if ok
        else f"imperfect recovery in permutations {failures}",
    )


@pytest.fixture(scope="module")
def sbm_experiment(tmp_path_factory):
    """Shared dataset plus both training arms for criteria 6 and 7."""
    out = tmp_path_factory.mktemp("sbm400")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gen = cmd_generate([100] * 4, 0.1, 0.01, seed=123, out_dir=out)
        g, planted = gen["graph"], gen["partition"]
        labels = planted.assignment
        feats = mc.load_features(gen["paths"]["features"], g.n)
        a_norm = mc.normalized_adjacency(g)

        arms = {}
        timings = {}
        for lam in (0.0, 0.8):
            config = RunConfig(
                epochs=300,
                lam=lam,
                aux_mode="labels" if lam > 0 else "none",
                label_fraction=0.1,
                seeds=SEEDS,
            )
            start = time.perf_counter()
            arms[lam] = [
                train_single_seed(g, a_norm, feats, config, seed, labels).report
                for seed in SEEDS
            ]
            timings[lam] = time.perf_counter() - start
    return {
        "graph": g,
        "planted_q": mc.modularity(g, planted),
        "arms": arms,
        "timings": timings,
    }


def test_criterion_6_sbm_end_to_end(sbm_experiment):
    reports = sbm_experiment["arms"][0.0]
    planted_q = sbm_experiment["planted_q"]
    elapsed = sbm_experiment["timings"][0.0]
    mean_q = float(np.mean([r.q for r in reports]))
    mean_nmi = float(np.mean([r.nmi for r in reports]))
    ok = mean_q >= 0.9 * planted_q and mean_nmi >= 0.8 and elapsed < 300.0
    assert report(
        6,
        ok,
        f"mean Q {mean_q:.4f} vs planted {planted_q:.4f} "
        f"({mean_q / planted_q:.3f}x, need >= 0.9x), mean NMI {mean_nmi:.4f} "
        f"(need >= 0.8), 10 seeds in {elapsed:.0f}s",
    )


def test_criterion_7_auxiliary_effect(sbm_experiment):
    nmi_base = float(np.mean([r.nmi for r in sbm_experiment["arms"][0.0]]))
    nmi_aux = float(np.mean([r.nmi for r in sbm_experiment["arms"][0.8]]))
    ok = nmi_aux > nmi_base
    assert report(
        7,
        ok,
        f"mean NMI lambda=0.8 {nmi_aux:.4f} vs lambda=0 {nmi_base:.4f} "
        f"(needs strict increase)",
    )


def test_criterion_8_linear_scaling(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = cmd_scaling(
            [1000, 2000, 4000], tmp_path / "scaling.csv", seed=0, epochs_timed=5
        )
    ratio = rows[2][2] / rows[0][2]
    ok = ratio <= 6.0
    assert report(
        8,
        ok,
        f"seconds/epoch {[f'{r[2]:.4f}' for r in rows]}, "
        f"t(4000)/t(1000) = {ratio:.2f} (need <= 6)",
    )


def test_criterion_9_cora_reproduction(tmp_path):
    data_dir = os.environ.get("MODCLUSTER_CORA_DIR")
    if not data_dir:
        pytest.skip(
            "criterion 9 is conditional on a user-supplied dataset: set "
            "MODCLUSTER_CORA_DIR to a directory with edges.tsv/features.tsv/labels.tsv"
        )
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = RunConfig(
            edges=os.path.join(data_dir, "edges.tsv"),
            features=os.path.join(data_dir, "features.tsv"),
            labels=os.path.join(data_dir, "labels.tsv"),
            seeds=SEEDS,
            out_dir=str(tmp_path / "cora_run"),
        )
        artifacts = cmd_train(config)
    elapsed = time.perf_counter() - start
    mean_q = 100.0 * artifacts.mean["q"]
    mean_c = 100.0 * artifacts.mean["conductance"]
    ok = mean_q >= 75.0 and mean_c <= 15.0 and elapsed < 900.0
    assert report(
        9,
        ok,
        f"mean Q(x100) {mean_q:.1f} (need >= 75), mean C(x100) {mean_c:.1f} "
        f"(need <= 15), 10 seeds in {elapsed:.0f}s",
    )
