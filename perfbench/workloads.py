"""The benchmark's workloads and the preparation of their input files.

Each workload is one modcluster command line over seeded synthetic inputs.
Inputs are generated once per (workload, seed), outside the timed region,
and cached under ``.perfbench/inputs``; the program sees only the files.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import inputs

ROOT = Path(__file__).resolve().parent.parent  # the checkout: src/ holds the program
CORA_BLOCKS = (351, 217, 418, 818, 426, 298, 180)  # Cora's seven class sizes


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "train" or "eval"
    blocks: tuple[int, ...]
    p_in: float
    p_out: float
    features: str = "onehot"  # "onehot" (block indicator + noise) or "words"
    vocab: int = 0
    words_per_node: int = 0
    topic_share: float = 0.0
    seeds: tuple[int, ...] = (0,)
    args: tuple[str, ...] = ()  # extra train flags
    checkpoint_args: tuple[str, ...] = ()  # eval: how set-up trains the model
    quality_gate: bool = True  # q >= 0.9 planted Q and NMI >= 0.8

    @property
    def n(self) -> int:
        return sum(self.blocks)


def _sbm(n: int, blocks: int, within_degree: float = 10.0, cross_degree: float = 2.0):
    """Equal blocks at a fixed expected degree (the program's scaling shape)."""
    size = n // blocks
    return (size,) * blocks, within_degree / (size - 1), cross_degree / (n - size)


_S16K, _S16K_PIN, _S16K_POUT = _sbm(16000, 4)
_B64, _B64_PIN, _B64_POUT = _sbm(16000, 64)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sbm400-seeds10",
            why="criterion-6 shape, 10 seeds on n=400: tiny arrays, so per-call "
            "numpy overhead and the per-seed loop dominate; seed batching shows here",
            command="train",
            blocks=(100,) * 4,
            p_in=0.1,
            p_out=0.01,
            seeds=tuple(range(10)),
            args=("--epochs", "20"),
        ),
        Workload(
            name="sbm16k",
            why="one seed on a 16k-node 4-block SBM at degree 12: arithmetic-bound "
            "SpMM, GEMM and SELU, where hot-path work in the epoch shows",
            command="train",
            blocks=_S16K,
            p_in=_S16K_PIN,
            p_out=_S16K_POUT,
            args=("--epochs", "15"),
        ),
        Workload(
            name="cora-sparse-aux",
            why="Cora-shaped graph with 1433 sparse binary features and the label "
            "auxiliary loss: layer-0 GEMM, sparse loader, aux loss and checkpoint writes",
            command="train",
            blocks=CORA_BLOCKS,
            p_in=0.0082,
            p_out=0.00045,
            features="words",
            vocab=1433,
            words_per_node=18,
            topic_share=0.5,
            seeds=(0, 1),
            args=(
                "--epochs", "12",
                "--aux-mode", "labels",
                "--label-fraction", "0.1",
                "--lambda", "0.8",
            ),
            quality_gate=False,
        ),
        Workload(
            name="eval-sbm16k-b64",
            why="eval of a saved model on a 16k-node 64-block SBM: no training, so "
            "BIRCH, checkpoint loading and the tapeless forward pass dominate",
            command="eval",
            blocks=_B64,
            p_in=_B64_PIN,
            p_out=_B64_POUT,
            checkpoint_args=("--epochs", "8", "--lr", "0.01", "--seeds", "0"),
        ),
    )
}


@dataclass
class Inputs:
    """Generated files plus what the correctness gate needs to know about them."""

    workload: Workload
    edges: np.ndarray
    labels: np.ndarray
    planted_q: float
    files: dict[str, Path] = field(default_factory=dict)

    @property
    def input_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.files.values())


def _digest(paths: list[Path]) -> dict[str, str]:
    out = {}
    for p in paths:
        h = hashlib.sha256()
        with open(p, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[p.name] = h.hexdigest()
    return out


def generate(workload: Workload, seed: int, directory: Path) -> None:
    """Write the workload's input files for ``seed`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    edges = inputs.sbm_edges(seed, list(workload.blocks), workload.p_in, workload.p_out)
    labels = inputs.planted_labels(list(workload.blocks))
    inputs.write_edges(directory / "edges.tsv", edges)
    inputs.write_labels(directory / "labels.tsv", labels)
    if workload.features == "words":
        cells = inputs.bag_of_words(
            seed, labels, workload.vocab, workload.words_per_node, workload.topic_share
        )
        inputs.write_sparse(directory / "features.tsv", workload.n, workload.vocab, cells)
    else:
        inputs.write_dense(directory / "features.tsv", inputs.onehot_noise_features(seed, labels))
    np.save(directory / "edges.npy", edges)
    np.save(directory / "labels.npy", labels)


INPUT_FILES = ("edges.tsv", "features.tsv", "labels.tsv")
KEEP_SEEDS = 4  # cached input sets kept per workload


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def cli_env() -> dict[str, str]:
    """Environment for a modcluster process: the checkout's src first on the path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _input_dir(workload: Workload, seed: int, cache: Path) -> Path:
    """The directory holding the workload's input files for ``seed``,
    generated unless a copy whose digests still match is cached."""
    directory = cache / f"{workload.name}-seed{seed}"
    manifest = directory / "manifest.json"
    paths = [directory / f for f in INPUT_FILES]
    try:
        cached = json.loads(manifest.read_text()) == _digest(paths)
    except (OSError, ValueError):
        cached = False
    if not cached:
        shutil.rmtree(directory, ignore_errors=True)
        generate(workload, seed, directory)
        manifest.write_text(json.dumps(_digest(paths)))
        siblings = sorted(cache.glob(f"{workload.name}-seed*"), key=lambda p: p.stat().st_mtime)
        for old in siblings[:-KEEP_SEEDS]:
            shutil.rmtree(old, ignore_errors=True)
    return directory


def prepare(workload: Workload, seed: int, cache: Path) -> Inputs:
    """Generate (or reuse from the cache) the inputs of one workload and seed.

    An eval workload also needs a checkpoint: set-up trains it on the same
    inputs with the program's own ``train`` command and caches it per
    source tree.
    """
    directory = _input_dir(workload, seed, cache)
    paths = [directory / f for f in INPUT_FILES]
    edges = np.load(directory / "edges.npy")
    labels = np.load(directory / "labels.npy")
    files = dict(zip(("edges", "features", "labels"), paths))
    if workload.command == "eval":
        files["checkpoint"] = _checkpoint(workload, directory)
    return Inputs(workload, edges, labels, inputs.modularity(edges, labels), files)


def _checkpoint(workload: Workload, directory: Path) -> Path:
    model_dir = directory / f"model-{_source_digest()}"
    checkpoint = model_dir / "checkpoint_seed0.tsv"
    if not checkpoint.exists():
        shutil.rmtree(model_dir, ignore_errors=True)
        args = [
            "train",
            "--edges", str(directory / "edges.tsv"),
            "--features", str(directory / "features.tsv"),
            "--out", str(model_dir),
            *workload.checkpoint_args,
        ]
        subprocess.run(
            [sys.executable, "-m", "modcluster.cli", *args],
            env=cli_env(), check=True, stdout=subprocess.DEVNULL, timeout=170,
        )
    return checkpoint


def command_args(inp: Inputs, out_dir: Path) -> list[str]:
    """The modcluster command line a user would type for this workload."""
    w, f = inp.workload, inp.files
    common = ["--edges", str(f["edges"]), "--features", str(f["features"]),
              "--labels", str(f["labels"])]
    if w.command == "eval":
        return ["eval", "--checkpoint", str(f["checkpoint"]), *common]
    seeds = ",".join(str(s) for s in w.seeds)
    return ["train", *common, "--seeds", seeds, "--out", str(out_dir), *w.args]
