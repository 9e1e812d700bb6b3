"""Tests of the benchmark itself: inputs, the metric catalogue, the gate and
a miniature end-to-end run through the same code path as a real run.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of a plain ``pytest`` run of the repository on
purpose: generating the 16k-node inputs in the pytest process leaves the
allocator warm, which makes the small graph of the program's linear-scaling
acceptance test (criterion 8) faster and its t(4000)/t(1000) ratio exceed 6.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench import catalog, gate, inputs, layers
from perfbench.run import run, run_command, tail_percentile
from perfbench.workloads import INPUT_FILES, ROOT, WORKLOADS, Workload, generate, prepare

TINY_TRAIN = Workload(
    name="tiny-train",
    why="test",
    command="train",
    blocks=(30, 30),
    p_in=0.3,
    p_out=0.02,
    seeds=(0, 1),
    args=("--epochs", "3"),
    quality_gate=False,
)
TINY_EVAL = replace(
    TINY_TRAIN, name="tiny-eval", command="eval", seeds=(0,), args=(),
    checkpoint_args=("--epochs", "2", "--seeds", "0"),
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_input_files(tmp_path, name):
    w = WORKLOADS[name]
    generate(w, 7, tmp_path / "a")
    generate(w, 7, tmp_path / "b")
    generate(w, 8, tmp_path / "c")
    for f in INPUT_FILES:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
    assert (tmp_path / "a" / "edges.tsv").read_bytes() != (tmp_path / "c" / "edges.tsv").read_bytes()


def test_sbm_edges_are_distinct_in_range_and_planted():
    sizes = [50, 70, 40]
    edges = inputs.sbm_edges(3, sizes, 0.2, 0.01)
    n = sum(sizes)
    assert np.all(edges[:, 0] < edges[:, 1])
    assert edges.min() >= 0 and edges.max() < n
    assert len(np.unique(edges[:, 0] * n + edges[:, 1])) == len(edges)
    labels = inputs.planted_labels(sizes)
    within = labels[edges[:, 0]] == labels[edges[:, 1]]
    expected_within = 0.2 * sum(s * (s - 1) / 2 for s in sizes)
    assert abs(within.sum() - expected_within) < 4 * np.sqrt(expected_within)
    assert inputs.modularity(edges, labels) > 0.4


def test_sbm_edges_leave_no_node_isolated():
    sizes = [40, 60]
    edges = inputs.sbm_edges(1, sizes, 0.01, 0.0)  # sparse enough to isolate many
    degree = np.bincount(edges.ravel(), minlength=100)
    assert degree.min() >= 1
    labels = inputs.planted_labels(sizes)
    assert np.all(labels[edges[:, 0]] == labels[edges[:, 1]])
    assert np.all(edges[:, 0] < edges[:, 1])
    assert len(np.unique(edges, axis=0)) == len(edges)


def test_cora_shaped_sparse_file_loads_through_load_features(tmp_path):
    from modcluster.graph import load_features

    w = WORKLOADS["cora-sparse-aux"]
    generate(w, 5, tmp_path)
    path = tmp_path / "features.tsv"
    assert path.read_text().split("\n", 1)[0] == f"sparse {w.n} {w.vocab}"
    x = load_features(path, w.n)
    assert x.shape == (w.n, w.vocab)
    assert set(np.unique(x)) == {0.0, 1.0}
    cells = [tuple(map(int, line.split()[:2])) for line in path.read_text().splitlines()[1:]]
    assert int(x.sum()) == len(cells)
    assert x[cells[0]] == 1.0
    assert 15 < x.sum(axis=1).mean() <= w.words_per_node


def test_benchmark_json_matches_the_catalogue():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == catalog.benchmark_json(WORKLOADS.values())
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["bound"] == max(x["bound"] for x in declared["end_to_end"])
               for m in declared["end_to_end"])


@pytest.mark.parametrize("workload", [TINY_TRAIN, TINY_EVAL], ids=lambda w: w.name)
def test_printed_metric_names_are_those_of_benchmark_json(tmp_path, workload):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run(workload, 1, 0.0, trace, state=tmp_path)
        summary = result["summary"]
        assert summary["correct"], result["problems"]
        assert summary["failed"] == 0 and summary["attempted"] >= 2 * len(workload.seeds)
        assert set(summary["metrics"]) == {m["name"] for m in declared[section]}
        for m in declared[section]:
            assert summary["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["machine"]["numpy"] == np.__version__


def test_gate_fails_a_command_whose_artifacts_differ(tmp_path):
    inp = prepare(TINY_TRAIN, 2, tmp_path / "inputs")
    deadline = time.perf_counter() + 120
    commands = [run_command(inp, tmp_path / f"cmd{i}", False, deadline) for i in range(2)]
    assert not gate.check(commands, inp).problems
    commands[1].artifacts[1] = "changed"
    verdict = gate.check(commands, inp)
    assert verdict.failed == 1 and verdict.attempted == 4
    assert "artifacts differ" in verdict.problems[0]


def test_nmi_and_modularity_reference_values():
    a = np.array([0, 0, 1, 1, 2, 2])
    assert gate.nmi(a, a) == pytest.approx(1.0)
    assert gate.nmi(a, np.array([5, 5, 7, 7, 9, 9])) == pytest.approx(1.0)
    assert gate.nmi(np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])) == pytest.approx(0.0, abs=1e-12)
    # two triangles joined by one edge: Q = 2 * (3/7 - (7/14)^2)
    edges = np.array([[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5], [2, 3]])
    assert inputs.modularity(edges, np.array([0, 0, 0, 1, 1, 1])) == pytest.approx(2 * (3 / 7 - 0.25))


def test_layer_costs_follow_the_aggregate_then_transform_order():
    costs = layers.layer_costs(n=10, nnz=30, dims=[4, 8, 2])
    assert costs[0]["fwd_gflop"] == pytest.approx((2 * 30 * 4 + 2 * 10 * 4 * 8) / 1e9)
    assert costs[0]["bwd_gflop"] == pytest.approx(2 * 10 * 4 * 8 / 1e9)
    assert costs[1]["bwd_gflop"] == pytest.approx((2 * 2 * 10 * 8 * 2 + 2 * 30 * 8) / 1e9)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(40) == 75.0
    assert tail_percentile(780) == 95.0
    assert tail_percentile(1000) == 99.0
    for n in (20, 38, 66, 780, 5000, 20000):
        assert n * (1 - tail_percentile(n) / 100) >= 10 - 1e-9


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sbm400-seeds10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (Path(tmp_path) / ".perfbench").exists()
