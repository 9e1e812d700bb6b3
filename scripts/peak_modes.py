"""Per-process peak memory of `modcluster train` or `eval`, over fresh processes and hash seeds.

A process's peak resident set can depend on the heap's history as well as on the
arrays the program holds: the same command on the same input may land in one of
several modes. This script runs N fresh `python -m modcluster.cli train`
processes (`eval` of a saved model with --checkpoint) on one input directory
(edges.tsv and features.tsv, plus labels.tsv when present), the i-th under
PYTHONHASHSEED=i, and prints each process's peak
(`ru_maxrss`, read with os.wait4) and the modes the peaks fall into: peaks within
--gap MB of their sorted neighbour share a mode. It gates nothing.

    python3 scripts/peak_modes.py .perfbench/inputs/sbm16k-seed1 --runs 20
    python3 scripts/peak_modes.py DIR --src ../parent/src -- --epochs 15 --seeds 0
    python3 scripts/peak_modes.py DIR --checkpoint DIR/model-*/checkpoint_seed0.tsv

Arguments after `--` replace the default options: `--seeds 0 --epochs 15` for
train, none for eval.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DEFAULT_TRAIN_ARGS = ["--seeds", "0", "--epochs", "15"]


def peak_mb(command: list[str], env: dict) -> float:
    """Run ``command`` to its end and return its peak resident set in MB."""
    proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"{' '.join(command)} exited with {proc.returncode}")
    return usage.ru_maxrss / 1024  # KiB on Linux


def modes(peaks: list[float], gap: float) -> list[list[float]]:
    """The peaks, sorted and cut wherever neighbours lie more than ``gap`` apart."""
    groups: list[list[float]] = []
    for p in sorted(peaks):
        if groups and p - groups[-1][-1] <= gap:
            groups[-1].append(p)
        else:
            groups.append([p])
    return groups


def main(argv: list[str] | None = None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("inputs", type=Path, help="directory with edges.tsv and features.tsv")
    parser.add_argument("--runs", type=int, default=20, help="processes, hash seeds 1..N")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src directory of the checkout to run")
    parser.add_argument("--gap", type=float, default=1.0, help="MB between two modes")
    parser.add_argument("--checkpoint", type=Path, help="run eval of this model instead of train")
    args = parser.parse_args(argv[:cut])
    extra = argv[cut + 1 :] or ([] if args.checkpoint else DEFAULT_TRAIN_ARGS)

    files = ["--edges", str(args.inputs / "edges.tsv"), "--features", str(args.inputs / "features.tsv")]
    if (args.inputs / "labels.tsv").exists():
        files += ["--labels", str(args.inputs / "labels.tsv")]
    peaks = []
    for seed in range(1, args.runs + 1):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(args.src.resolve())}
        with tempfile.TemporaryDirectory() as out:
            command = [sys.executable, "-m", "modcluster.cli"]
            if args.checkpoint:
                command += ["eval", "--checkpoint", str(args.checkpoint), *files]
            else:
                command += ["train", *files, "--out", out]
            peaks.append(peak_mb(command + extra, env))
        print(f"PYTHONHASHSEED={seed}\t{peaks[-1]:.1f} MB", flush=True)
    groups = modes(peaks, args.gap)
    print(f"{len(groups)} mode(s) within {args.gap:g} MB:")
    for group in groups:
        print(f"  {group[0]:.1f}-{group[-1]:.1f} MB\t{len(group)} process(es)")


if __name__ == "__main__":
    main()
