"""Correctness gate: checks each command's outputs, seed by seed.

An operation is one seed of one command. It fails when the seed did not
finish, when its partition does not cover all n nodes, when its artifacts
differ from those of the first command (the determinism contract: same
inputs and config give byte-identical partition, loss and checkpoint
files), when the program's printed scores disagree with the benchmark's own
recomputation, or, on SBM workloads, when the command's mean Q is below 0.9
of the planted partition's Q or its mean NMI is below 0.8.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .inputs import modularity

Q_SHARE = 0.9  # of the planted partition's Q (criterion 6)
NMI_MIN = 0.8  # criterion 6
SCORE_SLACK = 0.051  # the program prints scores x100 with one decimal


def nmi(a: np.ndarray, b: np.ndarray) -> float:
    """Mutual information normalized by the mean of the entropies (natural log)."""
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    joint = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(joint, (ai, bi), 1.0)
    joint /= joint.sum()
    pa, pb = joint.sum(axis=1), joint.sum(axis=0)
    ha = -float(np.sum(pa * np.log(pa)))
    hb = -float(np.sum(pb * np.log(pb)))
    if ha + hb == 0.0:
        return 1.0
    nz = joint > 0
    info = float(np.sum(joint[nz] * np.log(joint[nz] / np.outer(pa, pb)[nz])))
    return 2.0 * info / (ha + hb)


@dataclass
class SeedScore:
    q: float
    nmi: float
    k: int


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    q_mean: list[float] = field(default_factory=list)  # one per command
    nmi_mean: list[float] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def reported_scores(command) -> dict[int, dict[str, float]]:
    """Per-seed k, Q and NMI as the program printed them (x100 scale)."""
    if command.kind == "eval":
        fields = dict(line.split(": ", 1) for line in command.stdout.splitlines() if ": " in line)
        return {command.seeds[0]: {"k": float(fields["k_found"]), "Q": float(fields["Q"]),
                                   "NMI": float(fields["NMI"])}}
    text = (command.out_dir / "metrics.csv").read_text()
    out = {}
    for row in csv.DictReader(io.StringIO(text)):
        if row["seed"].isdigit():
            out[int(row["seed"])] = {"k": float(row["k_found"]), "Q": float(row["Q"]),
                                     "NMI": float(row["NMI"])}
    return out


def _partition_file(command, seed: int) -> list[int] | None:
    path = command.out_dir / f"partition_seed{seed}.tsv"
    if command.kind == "eval":
        return None
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        raise ValueError(f"{path}: node ids are not 0..n-1 in order")
    return [int(r[1]) for r in rows]


def check(commands, inputs) -> Verdict:
    """Gate every command of one run against the inputs it was given."""
    w = inputs.workload
    n = w.n
    verdict = Verdict()
    reference = None
    for index, cmd in enumerate(commands):
        seeds = cmd.seeds
        verdict.attempted += len(seeds)
        label = f"command {index}"
        if cmd.rc != 0 or cmd.record is None:
            verdict.fail(len(seeds), f"{label}: exit code {cmd.rc}, see {cmd.directory}")
            continue
        partitions = cmd.record["partitions"]
        if len(partitions) != len(seeds):
            verdict.fail(len(seeds), f"{label}: {len(partitions)} of {len(seeds)} seeds finished")
            continue
        try:
            reported = reported_scores(cmd)
            written = {s: _partition_file(cmd, s) for s in seeds}
        except (OSError, KeyError, ValueError, IndexError) as exc:
            verdict.fail(len(seeds), f"{label}: unreadable output ({exc})")
            continue
        if reference is None:
            reference = cmd.artifacts
        scores, bad = [], set()
        for seed, part in zip(seeds, partitions):
            assignment = np.asarray(part, dtype=np.int64)
            if len(assignment) != n or assignment.min() < 0:
                bad.add(seed)
                verdict.problems.append(f"{label} seed {seed}: partition does not cover {n} nodes")
                continue
            if written[seed] is not None and written[seed] != part:
                bad.add(seed)
                verdict.problems.append(f"{label} seed {seed}: partition file differs from BIRCH output")
            score = SeedScore(modularity(inputs.edges, assignment),
                              nmi(assignment, inputs.labels), int(np.unique(assignment).size))
            scores.append(score)
            got = reported.get(seed)
            if got is None or got["k"] != score.k or any(
                abs(got[key] - 100.0 * value) > SCORE_SLACK
                for key, value in (("Q", score.q), ("NMI", score.nmi))
            ):
                bad.add(seed)
                verdict.problems.append(
                    f"{label} seed {seed}: printed scores {got} disagree with "
                    f"k={score.k} Q={score.q:.4f} NMI={score.nmi:.4f}"
                )
            if cmd.artifacts.get(seed) != reference.get(seed):
                bad.add(seed)
                verdict.problems.append(f"{label} seed {seed}: artifacts differ from command 0")
        if scores:
            q_mean = float(np.mean([s.q for s in scores]))
            nmi_mean = float(np.mean([s.nmi for s in scores]))
            verdict.q_mean.append(q_mean)
            verdict.nmi_mean.append(nmi_mean)
            if w.quality_gate and (q_mean < Q_SHARE * inputs.planted_q or nmi_mean < NMI_MIN):
                bad.update(seeds)
                verdict.problems.append(
                    f"{label}: q_mean {q_mean:.4f} (bar {Q_SHARE * inputs.planted_q:.4f}) "
                    f"nmi_mean {nmi_mean:.4f} (bar {NMI_MIN})"
                )
        verdict.failed += len(bad)
    return verdict
