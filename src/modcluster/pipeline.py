"""End-to-end orchestration: configuration, training, multi-seed runs, artifacts.

A run trains one model per seed with full-batch epochs of
forward -> transform -> loss -> backward -> adam, clusters the final
embeddings with BIRCH, scores the partition, and writes everything under the
output directory:

* ``loss_seed<S>.csv``       -- epoch,l1,l2,reg,total,soft_modularity
* ``partition_seed<S>.tsv``  -- node_id<TAB>cluster_id
* ``checkpoint_seed<S>.tsv`` -- model weights (see gcn.save_checkpoint)
* ``metrics.csv``            -- run_id,seed,lambda,alpha,k_found,Q,C,NMI,F1
                                per seed plus mean/std rows (scores x100)
* ``failures.log``           -- only when a seed diverges (see DivergenceError)

Sub-seeds for model init, graph sampling, the auxiliary subset, and F1
sampling are derived from each run seed through a fixed SeedSequence
splitting rule so every random draw is auditable.
"""

from __future__ import annotations

import csv
import time
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from . import gcn
from .birch import BirchParams, birch_fit
from .gcn import DivergenceError
from .graph import (
    UNLABELED,
    Graph,
    Partition,
    generate_sbm,
    load_features,
    load_graph,
    load_labels,
    load_pairs,
    normalized_adjacency,
    write_edges,
    write_features,
    write_labels,
    write_partition,
)
from .losses import AuxiliaryInfo, LossReport, onehot_from_labels, total_loss
from .metrics import MetricsReport, check_sample_size, evaluate

_ROLES = {"init": 0, "sbm": 1, "f1": 2, "aux": 3, "features": 4}

# the file flag each auxiliary mode reads its supervision from
_AUX_FILES = {"labels": "labels", "pairs": "pairs", "external-partition": "partition"}

FEATURE_NOISE_STD = 1.0


def derive_seed(seed: int, role: str) -> int:
    """Fixed splitting rule: sub-seed = SeedSequence([seed, role_code])."""
    return int(np.random.SeedSequence([int(seed), _ROLES[role]]).generate_state(1)[0])


@dataclass
class RunConfig:
    edges: str = ""
    features: str = ""
    labels: str | None = None
    partition: str | None = None  # external partition used as auxiliary labels
    pairs: str | None = None  # same-cluster pair file for aux_mode="pairs"
    hidden_dims: list[int] = field(default_factory=lambda: [256, 128, 64])
    epochs: int = 300
    learning_rate: float = gcn.LEARNING_RATE
    lam: float = 0.0
    alpha: float = 0.0
    aux_mode: str = "none"  # none | labels | pairs | external-partition
    label_fraction: float = 1.0
    birch_threshold: float = 0.5
    branching_factor: int = 50
    seeds: list[int] = field(default_factory=lambda: list(range(10)))
    out_dir: str = "runs/latest"
    run_id: str = "run"
    f1_sample_size: int = 1000

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be a positive finite number")
        if not (self.lam >= 0 and self.alpha >= 0):
            raise ValueError("lambda and alpha must be nonnegative")
        if not 0.0 <= self.label_fraction <= 1.0:
            raise ValueError("label_fraction must lie in [0, 1]")
        if self.aux_mode not in ("none", *_AUX_FILES):
            raise ValueError(f"unknown aux_mode {self.aux_mode!r}")
        flag = _AUX_FILES.get(self.aux_mode)
        if flag and not getattr(self, flag):
            raise ValueError(f"aux_mode {self.aux_mode} requires --{flag}")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        # the input size comes from the features file; 1 stands in for it
        gcn.check_layer_dims([1, *self.hidden_dims])
        check_sample_size(self.f1_sample_size)
        BirchParams(self.birch_threshold, self.branching_factor)  # raises on a bad value


@dataclass
class SeedResult:
    seed: int
    model: gcn.GcnModel
    loss_rows: list
    partition: Partition | None
    report: MetricsReport | None
    failure: str | None = None


@dataclass
class RunArtifacts:
    out_dir: Path
    metrics_path: Path
    results: list[SeedResult]
    mean: dict
    std: dict


def _aux_file_rows(config: RunConfig, n: int) -> np.ndarray:
    """The rows of the file the aux mode reads (--pairs or --partition), read
    for a run's first seed and kept on its config for the others."""
    pairs = config.aux_mode == "pairs"
    key = (pairs, config.pairs if pairs else config.partition, n)
    cached = getattr(config, "_aux_file", None)
    if cached is None or cached[0] != key:
        config._aux_file = key, (load_pairs if pairs else load_labels)(*key[1:])
    return config._aux_file[1]


def build_aux(
    config: RunConfig, n: int, labels: np.ndarray | None, seed: int
) -> AuxiliaryInfo | None:
    """Per-seed auxiliary supervision according to the configured mode."""
    if config.aux_mode == "none":
        if config.alpha == 0.0:
            return None
        return AuxiliaryInfo(variant="none", lam=config.lam, alpha=config.alpha)

    if config.aux_mode == "pairs":
        aux = AuxiliaryInfo(
            variant="pairs",
            pairs=_aux_file_rows(config, n),
            lam=config.lam,
            alpha=config.alpha,
        )
        aux.validate(n)
        return aux

    if config.aux_mode == "labels":
        if labels is None:
            raise ValueError("aux_mode=labels requires a labels file")
        source = labels
    else:  # external-partition: same file shape as labels.tsv
        source = _aux_file_rows(config, n)

    available = np.flatnonzero(source != UNLABELED)
    if len(available) == 0:
        raise ValueError("auxiliary source has no labeled nodes")
    take = int(round(config.label_fraction * len(available)))
    if take == 0:
        raise ValueError("label_fraction selects an empty auxiliary subset")
    if take < len(available):
        rng = np.random.default_rng(derive_seed(seed, "aux"))
        subset = np.sort(rng.choice(available, size=take, replace=False))
    else:
        subset = available
    aux = AuxiliaryInfo(
        variant="labels",
        subset=subset,
        onehot=onehot_from_labels(source, subset),
        lam=config.lam,
        alpha=config.alpha,
    )
    aux.validate(n)
    return aux


def train_single_seed(
    g: Graph,
    a_norm,
    features: np.ndarray,
    config: RunConfig,
    seed: int,
    labels: np.ndarray | None = None,
) -> SeedResult:
    """Full training for one seed; raises DivergenceError when it goes non-finite."""
    aux = build_aux(config, g.n, labels, seed)
    dims = [features.shape[1]] + list(config.hidden_dims)
    model = gcn.init_model(dims, derive_seed(seed, "init"))
    adam = gcn.init_adam(model, config.learning_rate)
    epochs = islice(train_epochs(model, adam, g, a_norm, features, aux), config.epochs)
    loss_rows = [
        (epoch, r.l1, r.l2, r.reg, r.total, r.soft_modularity)
        for epoch, r in enumerate(epochs, start=1)
    ]

    params = BirchParams(config.birch_threshold, config.branching_factor)
    partition, report = cluster_and_score(
        model, g, a_norm, features, labels, params, config.f1_sample_size, seed
    )
    return SeedResult(seed, model, loss_rows, partition, report)


def train_epochs(
    model: gcn.GcnModel,
    adam: gcn.AdamState,
    g: Graph,
    a_norm,
    features: np.ndarray,
    aux: AuxiliaryInfo | None,
) -> Iterator[LossReport]:
    """Full-batch epochs of forward -> transform -> loss -> backward -> Adam:
    each ``next`` runs one and yields its LossReport.

    Raises DivergenceError on a non-finite loss, before the weights change.
    A generator rather than a per-epoch function because its frame keeps one
    epoch's arrays alive into the next, as the loop it replaced did: freeing
    them all at each epoch's end lets malloc trim the heap, and at n=16k the
    next epoch then takes ~5k more page faults and runs ~7% slower.
    """
    while True:
        tape = gcn.GradientTape()
        raw = gcn.gcn_forward(model, a_norm, features, tape)
        x = gcn.transform_embeddings(raw, tape)
        report, dldx = total_loss(x, g, aux)
        if not np.isfinite(report.total):
            raise DivergenceError(f"non-finite loss at epoch {adam.step + 1}")
        gcn.adam_step(model, gcn.backward(tape, dldx), adam)
        yield report


def transform_forward(model: gcn.GcnModel, a_norm, features: np.ndarray) -> np.ndarray:
    """Inference pass: raw GCN output mapped onto the unit sphere."""
    return gcn.transform_embeddings(gcn.gcn_forward(model, a_norm, features))


def cluster_and_score(
    model, g: Graph, a_norm, features, labels, params: BirchParams, f1_sample_size: int, seed: int
) -> tuple[Partition, MetricsReport]:
    """Cut the model's embeddings into BIRCH clusters and score the partition."""
    partition = birch_fit(transform_forward(model, a_norm, features), params)
    return partition, evaluate(g, partition, labels, f1_sample_size, derive_seed(seed, "f1"))


def load_inputs(edges_path, features_path, labels_path=None):
    """The graph sized by the features, its normalized adjacency, the features and the labels."""
    features = load_features(features_path, sparse=True)
    g = load_graph(edges_path, features.shape[0])
    labels = load_labels(labels_path, g.n) if labels_path else None
    return g, normalized_adjacency(g), features, labels


def _write_loss_csv(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "l1", "l2", "reg", "total", "soft_modularity"])
        for row in rows:
            writer.writerow([row[0]] + [f"{v:.12g}" for v in row[1:]])


def _scaled(v) -> str:
    return "" if v is None else f"{100.0 * v:.1f}"


def write_metrics_csv(
    path: Path, run_id: str, config: RunConfig, results: list[SeedResult]
) -> tuple[dict, dict]:
    """Per-seed rows plus mean/std summary rows; returns raw-scale summaries."""
    scores = ("q", "conductance", "nmi", "f1")
    names = scores + ("k_found",)
    ok = [r for r in results if r.report is not None]
    stacks = {
        name: np.array(
            [getattr(r.report, name) for r in ok if getattr(r.report, name) is not None],
            dtype=np.float64,
        )
        for name in names
    }
    mean = {k: float(v.mean()) if len(v) else None for k, v in stacks.items()}
    std = {k: float(v.std(ddof=0)) if len(v) else None for k, v in stacks.items()}

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["run_id", "seed", "lambda", "alpha", "k_found", "Q", "C", "NMI", "F1"]
        )
        for r in ok:
            cells = [str(r.report.k_found)] + [_scaled(getattr(r.report, m)) for m in scores]
            writer.writerow([run_id, r.seed, config.lam, config.alpha] + cells)
        for label, summary in (("mean", mean), ("std", std)):
            k = summary["k_found"]
            cells = ["" if k is None else f"{k:.1f}"] + [_scaled(summary[m]) for m in scores]
            writer.writerow([run_id, label, config.lam, config.alpha] + cells)
    return mean, std


def cmd_train(config: RunConfig) -> RunArtifacts:
    """Train over all configured seeds and write the artifact set."""
    config.validate()
    g, a_norm, features, labels = load_inputs(config.edges, config.features, config.labels)

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results: list[SeedResult] = []
    failures: list[str] = []
    for seed in config.seeds:
        try:
            res = train_single_seed(g, a_norm, features, config, seed, labels)
        except DivergenceError as exc:
            failures.append(f"seed {seed}: {exc}")
            results.append(SeedResult(seed, None, [], None, None, failure=str(exc)))
            continue
        _write_loss_csv(out / f"loss_seed{seed}.csv", res.loss_rows)
        write_partition(out / f"partition_seed{seed}.tsv", res.partition)
        gcn.save_checkpoint(out / f"checkpoint_seed{seed}.tsv", res.model)
        results.append(res)
    if failures:
        (out / "failures.log").write_text("\n".join(failures) + "\n")
        warnings.warn(f"{len(failures)} seed(s) diverged; see failures.log")

    metrics_path = out / "metrics.csv"
    mean, std = write_metrics_csv(metrics_path, config.run_id, config, results)
    return RunArtifacts(out, metrics_path, results, mean, std)


def cmd_eval(
    checkpoint_path,
    edges_path,
    features_path,
    labels_path=None,
    birch_threshold: float = RunConfig.birch_threshold,
    branching_factor: int = RunConfig.branching_factor,
    f1_sample_size: int = RunConfig.f1_sample_size,
    seed: int = 0,
) -> MetricsReport:
    """Cluster and score a dataset with a saved model; no training."""
    params = BirchParams(birch_threshold, branching_factor)
    check_sample_size(f1_sample_size)
    model = gcn.load_checkpoint(checkpoint_path)
    g, a_norm, features, labels = load_inputs(edges_path, features_path, labels_path)
    return cluster_and_score(model, g, a_norm, features, labels, params, f1_sample_size, seed)[1]


def sbm_dataset(
    block_sizes: list[int], p_in: float, p_out: float, seed: int, noise_std: float = FEATURE_NOISE_STD
) -> tuple[Graph, Partition, np.ndarray]:
    """An SBM graph, its planted partition, and features made of one-hot
    block membership plus Gaussian noise."""
    g, planted = generate_sbm(block_sizes, p_in, p_out, derive_seed(seed, "sbm"))
    rng = np.random.default_rng(derive_seed(seed, "features"))
    onehot = np.zeros((g.n, planted.k))
    onehot[np.arange(g.n), planted.assignment] = 1.0
    return g, planted, onehot + rng.normal(0.0, noise_std, size=onehot.shape)


def cmd_generate(
    block_sizes: list[int],
    p_in: float,
    p_out: float,
    seed: int,
    out_dir,
    noise_std: float = FEATURE_NOISE_STD,
) -> dict:
    """Write an SBM dataset (see sbm_dataset): edges.tsv, features.tsv, and
    labels.tsv holding the planted blocks."""
    g, planted, features = sbm_dataset(block_sizes, p_in, p_out, seed, noise_std)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "edges": out / "edges.tsv",
        "features": out / "features.tsv",
        "labels": out / "labels.tsv",
    }
    write_edges(paths["edges"], g)
    write_features(paths["features"], features)
    write_labels(paths["labels"], planted.assignment)
    return {"graph": g, "partition": planted, "paths": paths}


def scaling_sbm_params(n: int, blocks: int = 4, within_degree: float = 10.0, cross_degree: float = 2.0):
    """Equal blocks with edge probabilities tuned for a fixed average degree."""
    size = n // blocks
    sizes = [size] * blocks
    sizes[-1] += n - size * blocks
    p_in = min(1.0, within_degree / max(size - 1, 1))
    p_out = min(1.0, cross_degree / max(n - size, 1)) if blocks > 1 else 0.0
    return sizes, p_in, p_out


def cmd_scaling(
    sizes: list[int],
    out_csv,
    seed: int = 0,
    hidden_dims: list[int] | None = None,
    epochs_timed: int = 3,
    learning_rate: float = RunConfig.learning_rate,
) -> list[tuple[int, int, float]]:
    """Per-epoch wall time of loss+gradient evaluation at increasing n.

    Each size gets an SBM with proportional blocks at fixed average degree;
    one warmup epoch runs before timing. Writes (n, epochs, seconds_per_epoch).
    """
    if sorted(sizes) != list(sizes):
        raise ValueError("sizes must be ascending")
    hidden_dims = hidden_dims or RunConfig().hidden_dims
    rows = []
    for n in sizes:
        g, _, features = sbm_dataset(*scaling_sbm_params(n), seed)
        a_norm = normalized_adjacency(g)
        model = gcn.init_model([features.shape[1]] + hidden_dims, derive_seed(seed, "init"))
        adam = gcn.init_adam(model, learning_rate)
        epochs = train_epochs(model, adam, g, a_norm, features, None)
        next(epochs)  # warmup
        start = time.perf_counter()
        for _ in range(epochs_timed):
            next(epochs)
        per_epoch = (time.perf_counter() - start) / epochs_timed
        rows.append((n, epochs_timed, per_epoch))

    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "epochs", "seconds_per_epoch"])
        for n, ep, sec in rows:
            writer.writerow([n, ep, f"{sec:.6g}"])
    return rows
