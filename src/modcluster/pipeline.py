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
import ctypes
import time
import warnings
from dataclasses import dataclass, field, replace
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
from .metrics import F1_SAMPLE_SIZE, SCORES, MetricsReport, check_sample_size, evaluate, scaled

_ROLES = {"init": 0, "sbm": 1, "f1": 2, "aux": 3, "features": 4}

# the file flag each auxiliary mode reads its supervision from
AUX_FILES = {"labels": "labels", "pairs": "pairs", "external-partition": "partition"}

FEATURE_NOISE_STD = 1.0


def derive_seed(seed: int, role: str) -> int:
    """Fixed splitting rule: sub-seed = SeedSequence([seed, role_code])."""
    return int(np.random.SeedSequence([int(seed), _ROLES[role]]).generate_state(1)[0])


def check_seeds(seeds: list[int]) -> None:
    """Run seeds are distinct (each names its own files and metrics row) and non-negative."""
    if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ValueError(f"seeds must be one or more distinct non-negative integers, got {seeds}")


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
    birch_threshold: float = BirchParams.threshold
    branching_factor: int = BirchParams.branching_factor
    seeds: list[int] = field(default_factory=lambda: list(range(10)))
    out_dir: str = "runs/latest"
    run_id: str = "run"
    f1_sample_size: int = F1_SAMPLE_SIZE

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be a positive finite number")
        if not (0.0 <= self.lam < np.inf and 0.0 <= self.alpha < np.inf):
            raise ValueError("lambda and alpha must be nonnegative finite numbers")
        if not 0.0 <= self.label_fraction <= 1.0:
            raise ValueError("label_fraction must lie in [0, 1]")
        if self.aux_mode not in ("none", *AUX_FILES):
            raise ValueError(f"unknown aux_mode {self.aux_mode!r}")
        flag = AUX_FILES.get(self.aux_mode)
        if flag and not getattr(self, flag):
            raise ValueError(f"aux_mode {self.aux_mode} requires --{flag}")
        if self.lam and not flag:
            raise ValueError("--lambda is only read by an aux mode")
        if self.label_fraction != 1.0 and self.aux_mode not in ("labels", "external-partition"):
            raise ValueError(
                "--label-fraction is only read by aux_mode labels or external-partition"
            )
        for mode, unread in AUX_FILES.items():  # --labels is also scored against
            if unread != "labels" and getattr(self, unread) and mode != self.aux_mode:
                raise ValueError(f"--{unread} is only read by aux_mode {mode}")
        check_seeds(self.seeds)
        # the input size comes from the features file; 1 stands in for it
        gcn.check_layer_dims([1, *self.hidden_dims])
        check_sample_size(self.f1_sample_size)
        BirchParams(self.birch_threshold, self.branching_factor)  # raises on a bad value
        if not self.edges or not self.features:
            raise ValueError("--edges and --features are required")


@dataclass
class SeedResult:
    seed: int
    model: gcn.GcnModel
    loss_rows: list
    partition: Partition
    report: MetricsReport


@dataclass
class RunArtifacts:
    out_dir: Path
    metrics_path: Path
    results: list[SeedResult]  # the seeds that finished, in run order
    failures: list[str]  # the lines of failures.log: one per diverged seed
    mean: dict
    std: dict


def read_aux_rows(config: RunConfig, n: int, labels: np.ndarray | None) -> AuxiliaryInfo | None:
    """The run's aux supervision, encoded once: None or the weights alone, the --pairs
    rows, or every labelled node of ``labels`` (or the --partition file) with its one-hot
    row. Makes every check that does not depend on the seed, so ``build_aux`` only draws."""
    weights = {"lam": config.lam, "alpha": config.alpha}
    if config.aux_mode == "none":
        return AuxiliaryInfo(**weights) if config.alpha else None
    if config.aux_mode == "pairs":
        pairs = load_pairs(config.pairs, n)
        if len(pairs) == 0:
            raise ValueError(f"{config.pairs}: empty pair file")
        return AuxiliaryInfo("pairs", pairs=pairs, **weights)
    # external-partition reads a file of the same shape as labels.tsv
    source = labels if config.aux_mode == "labels" else load_labels(config.partition, n)
    if source is None:
        raise ValueError("aux_mode=labels requires a labels file")
    subset = np.flatnonzero(source != UNLABELED)
    if len(subset) == 0:
        raise ValueError("auxiliary source has no labeled nodes")
    if round(config.label_fraction * len(subset)) == 0:
        raise ValueError("label_fraction selects an empty auxiliary subset")
    onehot = onehot_from_labels(source, subset)
    return AuxiliaryInfo("labels", subset=subset, onehot=onehot, **weights)


def build_aux(config: RunConfig, aux: AuxiliaryInfo | None, seed: int) -> AuxiliaryInfo | None:
    """The seed's auxiliary supervision: the run's (see read_aux_rows) as it is,
    or the --label-fraction of its labelled rows that this seed draws."""
    if aux is None or aux.subset is None:
        return aux
    take = round(config.label_fraction * len(aux.subset))
    if take == len(aux.subset):
        return aux
    rng = np.random.default_rng(derive_seed(seed, "aux"))
    rows = np.sort(rng.choice(len(aux.subset), size=take, replace=False))
    return replace(aux, subset=aux.subset[rows], onehot=aux.onehot[rows])


def train_single_seed(
    g: Graph,
    a_norm,
    features: np.ndarray,
    config: RunConfig,
    seed: int,
    labels: np.ndarray | None = None,
    aux_rows: AuxiliaryInfo | None = None,
) -> SeedResult:
    """Full training for one seed; raises DivergenceError when it goes non-finite.
    ``aux_rows`` is the run's encoded supervision, ``read_aux_rows``'s when not given."""
    if aux_rows is None:
        aux_rows = read_aux_rows(config, g.n, labels)
    aux = build_aux(config, aux_rows, seed)
    dims = [features.shape[1]] + list(config.hidden_dims)
    model = gcn.init_model(dims, derive_seed(seed, "init"))
    adam = gcn.init_adam(model, config.learning_rate)
    loss_rows = []
    for epoch in range(1, config.epochs + 1):
        r = train_epoch(model, adam, g, a_norm, features, aux)
        loss_rows.append((epoch, r.l1, r.l2, r.reg, r.total, r.soft_modularity))

    params = BirchParams(config.birch_threshold, config.branching_factor)
    partition, report = cluster_and_score(
        model, g, a_norm, features, labels, params, config.f1_sample_size, seed
    )
    return SeedResult(seed, model, loss_rows, partition, report)


# glibc's mallopt parameters, and the size under which freed memory stays in the heap
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
KEEP_FREED_BYTES = 1 << 30


def keep_freed_memory() -> None:
    """Have glibc's malloc keep freed blocks under 1 GiB for reuse, so an epoch's
    arrays take the memory of the last epoch's instead of being mapped and faulted in
    afresh. Both thresholds are set: either one turns off glibc's adaptive thresholds,
    and the other, left at its default, still hands the memory back. No-op without mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, KEEP_FREED_BYTES)
    mallopt(M_TRIM_THRESHOLD, KEEP_FREED_BYTES)


def train_epoch(
    model: gcn.GcnModel,
    adam: gcn.AdamState,
    g: Graph,
    a_norm,
    features: np.ndarray,
    aux: AuxiliaryInfo | None,
) -> LossReport:
    """One full-batch epoch of forward -> transform -> loss -> backward -> Adam.

    Raises DivergenceError on a non-finite loss, before the weights change.
    Epochs reuse the memory the last one freed, without page faults, under the
    allocator policy that the commands running the GCN set first (``keep_freed_memory``).
    """
    tape = gcn.GradientTape()
    raw = gcn.gcn_forward(model, a_norm, features, tape)
    x = gcn.transform_embeddings(raw, tape)
    report, dldx = total_loss(x, g, aux)
    if not np.isfinite(report.total):
        raise DivergenceError(f"non-finite loss at epoch {adam.step + 1}")
    gcn.adam_step(model, gcn.backward(tape, dldx), adam)
    return report


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


def write_metrics_csv(
    path: Path, config: RunConfig, results: list[SeedResult]
) -> tuple[dict, dict]:
    """Per-seed rows plus mean/std summary rows; returns raw-scale summaries."""
    stacks = {
        name: np.array(
            [getattr(r.report, name) for r in results if getattr(r.report, name) is not None],
            dtype=np.float64,
        )
        for name in (*SCORES, "k_found")
    }
    mean = {k: float(v.mean()) if len(v) else None for k, v in stacks.items()}
    std = {k: float(v.std(ddof=0)) if len(v) else None for k, v in stacks.items()}

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_id", "seed", "lambda", "alpha", "k_found", *SCORES.values()])
        for r in results:
            cells = [str(r.report.k_found)] + [scaled(getattr(r.report, m)) for m in SCORES]
            writer.writerow([config.run_id, r.seed, config.lam, config.alpha] + cells)
        for label, summary in (("mean", mean), ("std", std)):
            k = summary["k_found"]
            cells = ["" if k is None else f"{k:.1f}"] + [scaled(summary[m]) for m in SCORES]
            writer.writerow([config.run_id, label, config.lam, config.alpha] + cells)
    return mean, std


def cmd_train(config: RunConfig) -> RunArtifacts:
    """Train over all configured seeds and write the artifact set."""
    keep_freed_memory()
    config.validate()
    g, a_norm, features, labels = load_inputs(config.edges, config.features, config.labels)
    aux_rows = read_aux_rows(config, g.n, labels)

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results: list[SeedResult] = []
    failures: list[str] = []
    for seed in config.seeds:
        loss_csv, partition_tsv, checkpoint_tsv = seed_files = (
            out / f"loss_seed{seed}.csv",
            out / f"partition_seed{seed}.tsv",
            out / f"checkpoint_seed{seed}.tsv",
        )
        try:
            res = train_single_seed(g, a_norm, features, config, seed, labels, aux_rows)
        except DivergenceError as exc:
            failures.append(f"seed {seed}: {exc}")
            for path in seed_files:  # none left from an earlier run into the same directory
                path.unlink(missing_ok=True)
            continue
        _write_loss_csv(loss_csv, res.loss_rows)
        write_partition(partition_tsv, res.partition)
        gcn.save_checkpoint(checkpoint_tsv, res.model)
        results.append(res)
    if failures:
        (out / "failures.log").write_text("\n".join(failures) + "\n")
        warnings.warn(f"{len(failures)} seed(s) diverged; see failures.log")
    else:  # a clean rerun into the same directory leaves no stale log
        (out / "failures.log").unlink(missing_ok=True)

    metrics_path = out / "metrics.csv"
    mean, std = write_metrics_csv(metrics_path, config, results)
    return RunArtifacts(out, metrics_path, results, failures, mean, std)


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
    keep_freed_memory()
    params = BirchParams(birch_threshold, branching_factor)
    check_sample_size(f1_sample_size)
    check_seeds([seed])
    model = gcn.load_checkpoint(checkpoint_path)
    g, a_norm, features, labels = load_inputs(edges_path, features_path, labels_path)
    return cluster_and_score(model, g, a_norm, features, labels, params, f1_sample_size, seed)[1]


def sbm_dataset(
    block_sizes: list[int], p_in: float, p_out: float, seed: int
) -> tuple[Graph, Partition, np.ndarray]:
    """An SBM graph, its planted partition, and features made of one-hot
    block membership plus Gaussian noise of stddev FEATURE_NOISE_STD."""
    g, planted = generate_sbm(block_sizes, p_in, p_out, derive_seed(seed, "sbm"))
    rng = np.random.default_rng(derive_seed(seed, "features"))
    onehot = np.zeros((g.n, planted.k))
    onehot[np.arange(g.n), planted.assignment] = 1.0
    return g, planted, onehot + rng.normal(0.0, FEATURE_NOISE_STD, size=onehot.shape)


def cmd_generate(
    block_sizes: list[int], p_in: float, p_out: float, seed: int = 0, out_dir="data/sbm"
) -> dict:
    """Write an SBM dataset (see sbm_dataset): edges.tsv, features.tsv, and
    labels.tsv holding the planted blocks."""
    g, planted, features = sbm_dataset(block_sizes, p_in, p_out, seed)
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


def scaling_sbm_params(n: int) -> tuple[list[int], float, float]:
    """Four equal blocks (the last takes the remainder) with edge probabilities
    for an average degree of 10 within a node's block and 2 across."""
    size = n // 4
    p_in = min(1.0, 10.0 / max(size - 1, 1))
    p_out = min(1.0, 2.0 / max(n - size, 1))
    return [size] * 3 + [n - 3 * size], p_in, p_out


def cmd_scaling(
    sizes: list[int],
    out_csv,
    seed: int = 0,
    hidden_dims: list[int] | None = None,
    epochs_timed: int = 3,
) -> list[tuple[int, int, float]]:
    """Per-epoch wall time of loss+gradient evaluation at increasing n.

    Each size gets an SBM with proportional blocks at fixed average degree and
    a model of train's hidden sizes unless ``hidden_dims`` is given; one warmup
    epoch runs before timing. Writes (n, epochs, seconds_per_epoch).
    """
    keep_freed_memory()
    if not sizes or sorted(sizes) != list(sizes):
        raise ValueError(f"sizes must be one or more ascending node counts, got {sizes}")
    if sizes[0] < 4:
        raise ValueError(f"sizes must be at least 4 nodes, one per block, got n={sizes[0]}")
    if epochs_timed < 1:
        raise ValueError("epochs must be >= 1")
    hidden_dims = RunConfig().hidden_dims if hidden_dims is None else hidden_dims
    gcn.check_layer_dims([1, *hidden_dims])
    check_seeds([seed])
    rows = []
    for n in sizes:
        g, _, features = sbm_dataset(*scaling_sbm_params(n), seed)
        a_norm = normalized_adjacency(g)
        model = gcn.init_model([features.shape[1]] + hidden_dims, derive_seed(seed, "init"))
        adam = gcn.init_adam(model)
        train_epoch(model, adam, g, a_norm, features, None)  # warmup
        start = time.perf_counter()
        for _ in range(epochs_timed):
            train_epoch(model, adam, g, a_norm, features, None)
        per_epoch = (time.perf_counter() - start) / epochs_timed
        rows.append((n, epochs_timed, per_epoch))

    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "epochs", "seconds_per_epoch"])
        for n, ep, sec in rows:
            writer.writerow([n, ep, f"{sec:.6g}"])
    return rows
