import csv
import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import modcluster as mc
from modcluster import gcn, pipeline
from modcluster.cli import main
from modcluster.pipeline import (
    RunConfig,
    build_aux,
    cmd_eval,
    cmd_generate,
    cmd_scaling,
    cmd_train,
    derive_seed,
    read_aux_rows,
)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("sbm")
    result = cmd_generate([20, 20], 0.5, 0.05, seed=7, out_dir=out)
    return out, result


def small_config(out, run_dir, **overrides):
    base = dict(
        edges=str(out / "edges.tsv"),
        features=str(out / "features.tsv"),
        labels=str(out / "labels.tsv"),
        hidden_dims=[16, 8],
        epochs=40,
        seeds=[0, 1],
        out_dir=str(run_dir),
    )
    base.update(overrides)
    return RunConfig(**base)


class TestGenerate:
    def test_triangle_block(self, tmp_path):
        result = cmd_generate([3], 1.0, 0.0, seed=0, out_dir=tmp_path)
        edges = (tmp_path / "edges.tsv").read_text().strip().splitlines()
        assert len(edges) == 3

    def test_byte_identical_per_seed(self, tmp_path):
        cmd_generate([10, 10], 0.4, 0.1, seed=5, out_dir=tmp_path / "a")
        cmd_generate([10, 10], 0.4, 0.1, seed=5, out_dir=tmp_path / "b")
        for name in ("edges.tsv", "features.tsv", "labels.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_label_count(self, tmp_path):
        cmd_generate([10] * 4, 0.5, 0.05, seed=3, out_dir=tmp_path)
        labels = mc.load_labels(tmp_path / "labels.tsv", 40)
        assert len(np.unique(labels)) == 4

    def test_files_round_trip(self, small_dataset):
        out, result = small_dataset
        g = mc.load_graph(out / "edges.tsv")
        assert g.m == result["graph"].m
        feats = mc.load_features(out / "features.tsv", g.n)
        assert feats.shape == (40, 2)
        labels = mc.load_labels(out / "labels.tsv", g.n)
        assert np.array_equal(labels, result["partition"].assignment)


class TestBuildAux:
    def test_none_mode(self):
        config = RunConfig(aux_mode="none", alpha=0.0)
        assert read_aux_rows(config, 10, None) is None
        assert build_aux(config, None, seed=0) is None

    def test_none_mode_with_regularizer(self):
        config = RunConfig(aux_mode="none", alpha=0.5)
        aux = build_aux(config, read_aux_rows(config, 10, None), seed=0)
        assert aux.variant == "none" and aux.alpha == 0.5

    def test_labels_mode_fraction(self):
        labels = np.array([0, 0, 1, 1, 0, 1, 0, 1, 0, 1])
        config = RunConfig(aux_mode="labels", label_fraction=0.5, lam=0.2)
        aux = build_aux(config, read_aux_rows(config, 10, labels), seed=1)
        assert aux.variant == "labels"
        assert len(aux.subset) == 5
        assert aux.onehot.shape == (5, 2)

    def test_subset_deterministic_per_seed(self):
        labels = np.arange(20) % 3
        config = RunConfig(aux_mode="labels", label_fraction=0.3, lam=0.2)
        rows = read_aux_rows(config, 20, labels)
        a = build_aux(config, rows, seed=4).subset
        b = build_aux(config, rows, seed=4).subset
        c = build_aux(config, rows, seed=5).subset
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_pairs_mode(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("0\t1\n2\t3\n")
        config = RunConfig(aux_mode="pairs", pairs=str(path), lam=0.2)
        aux = build_aux(config, read_aux_rows(config, 5, None), seed=0)
        assert aux.variant == "pairs"
        assert aux.pairs.shape == (2, 2)

    @pytest.mark.parametrize("mode", ["pairs", "external-partition"])
    def test_aux_file_read_once_per_run(self, tmp_path, monkeypatch, mode):
        data = tmp_path / "data"
        cmd_generate([10, 10], 0.6, 0.05, 1, data)
        (tmp_path / "aux.tsv").write_text("0\t1\n2\t3\n" if mode == "pairs" else
                                          "".join(f"{i}\t{i // 10}\n" for i in range(20)))
        loader = "load_pairs" if mode == "pairs" else "load_labels"
        real, calls = getattr(pipeline, loader), []
        monkeypatch.setattr(pipeline, loader, lambda *args: calls.append(args) or real(*args))
        flag = "--pairs" if mode == "pairs" else "--partition"
        assert main([
            "train", "--edges", str(data / "edges.tsv"), "--features", str(data / "features.tsv"),
            "--aux-mode", mode, flag, str(tmp_path / "aux.tsv"), "--lambda", "0.5",
            "--seeds", "0,1,2", "--epochs", "2", "--dims", "4", "--out", str(tmp_path / "run"),
        ]) == 0
        assert len(calls) == 1

    def test_external_partition_mode(self, tmp_path):
        path = tmp_path / "partition.tsv"
        path.write_text("0\t0\n1\t0\n2\t1\n3\t1\n")
        config = RunConfig(
            aux_mode="external-partition", partition=str(path), lam=0.2
        )
        aux = build_aux(config, read_aux_rows(config, 6, None), seed=0)
        assert aux.variant == "labels"
        assert len(aux.subset) == 4

    def test_labels_mode_requires_labels(self):
        config = RunConfig(aux_mode="labels", lam=0.2)
        with pytest.raises(ValueError, match="labels"):
            read_aux_rows(config, 10, None)


class TestCmdTrain:
    def test_artifacts_exist_and_round_trip(self, small_dataset, tmp_path):
        out, _ = small_dataset
        config = small_config(out, tmp_path / "run")
        artifacts = cmd_train(config)
        for seed in (0, 1):
            assert (artifacts.out_dir / f"loss_seed{seed}.csv").exists()
            part = mc.load_partition(
                artifacts.out_dir / f"partition_seed{seed}.tsv", 40
            )
            part.validate()
            model = mc.load_checkpoint(artifacts.out_dir / f"checkpoint_seed{seed}.tsv")
            assert model.layer_dims == [2, 16, 8]
        with open(artifacts.metrics_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "run_id", "seed", "lambda", "alpha", "k_found", "Q", "C", "NMI", "F1",
        ]
        assert [r[1] for r in rows[1:]] == ["0", "1", "mean", "std"]

    def test_lambda_zero_l2_column_is_zero(self, small_dataset, tmp_path):
        out, _ = small_dataset
        artifacts = cmd_train(small_config(out, tmp_path / "run", seeds=[0]))
        with open(artifacts.out_dir / "loss_seed0.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        assert all(float(r["l2"]) == 0.0 for r in rows)
        assert all(
            float(r["total"]) == pytest.approx(float(r["l1"]), abs=1e-9) for r in rows
        )

    def test_deterministic_across_runs(self, small_dataset, tmp_path):
        out, _ = small_dataset
        a = cmd_train(small_config(out, tmp_path / "a", seeds=[3]))
        b = cmd_train(small_config(out, tmp_path / "b", seeds=[3]))
        for name in ("partition_seed3.tsv", "checkpoint_seed3.tsv", "metrics.csv"):
            assert (a.out_dir / name).read_bytes() == (b.out_dir / name).read_bytes()
        assert a.results[0].report == b.results[0].report

    def test_aux_labels_run_reports_l2(self, small_dataset, tmp_path):
        out, _ = small_dataset
        config = small_config(
            out,
            tmp_path / "run",
            seeds=[0],
            lam=0.5,
            aux_mode="labels",
            label_fraction=0.5,
        )
        artifacts = cmd_train(config)
        with open(artifacts.out_dir / "loss_seed0.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert any(float(r["l2"]) > 0.0 for r in rows)

    def test_mean_computed_from_raw_scale(self, small_dataset, tmp_path):
        out, _ = small_dataset
        artifacts = cmd_train(small_config(out, tmp_path / "run"))
        qs = [r.report.q for r in artifacts.results]
        assert artifacts.mean["q"] == pytest.approx(np.mean(qs))
        assert artifacts.std["q"] == pytest.approx(np.std(qs))

    def test_external_partition_aux_run(self, small_dataset, tmp_path):
        out, result = small_dataset
        heuristic = tmp_path / "heuristic.tsv"
        mc.write_partition(heuristic, result["partition"])
        config = small_config(
            out,
            tmp_path / "run",
            seeds=[0],
            lam=0.3,
            aux_mode="external-partition",
            partition=str(heuristic),
            label_fraction=0.5,
        )
        artifacts = cmd_train(config)
        with open(artifacts.out_dir / "loss_seed0.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert any(float(r["l2"]) > 0.0 for r in rows)

    def test_unlabeled_run_leaves_metric_cells_empty(self, small_dataset, tmp_path):
        out, _ = small_dataset
        config = small_config(out, tmp_path / "run", seeds=[0], labels=None)
        artifacts = cmd_train(config)
        assert artifacts.results[0].report.nmi is None
        with open(artifacts.metrics_path) as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:  # seed row plus mean/std rows
            assert row[7] == "" and row[8] == ""
            assert row[5] != ""  # Q still reported

    @pytest.mark.parametrize("isolated", ["first", "last"])
    def test_isolated_node_survives_training(self, tmp_path, isolated):
        # the first or last node appears in no edge line: it stays isolated
        # but inside n, which comes from the features file
        g, planted = mc.generate_sbm([12, 12], 0.6, 0.1, seed=4)
        shift = 1 if isolated == "first" else 0
        lines = [
            f"{u + shift}\t{v + shift}"
            for u in range(g.n)
            for v in g.neighbors(u)
            if u < v
        ]
        edges = tmp_path / "edges.tsv"
        edges.write_text("\n".join(lines) + "\n")
        rng = np.random.default_rng(0)
        blocks = np.insert(planted.assignment, 0 if shift else g.n, 0)
        features = np.eye(2)[blocks] + rng.normal(0, 1, (g.n + 1, 2))
        np.savetxt(tmp_path / "features.tsv", features, fmt="%.17g", delimiter="\t")
        config = RunConfig(
            edges=str(edges),
            features=str(tmp_path / "features.tsv"),
            hidden_dims=[8, 4],
            epochs=20,
            seeds=[0],
            out_dir=str(tmp_path / "run"),
        )
        with pytest.warns(UserWarning, match="isolated"):
            artifacts = cmd_train(config)
        part = mc.load_partition(artifacts.out_dir / "partition_seed0.tsv", g.n + 1)
        part.validate()
        assert len(part.assignment) == g.n + 1

    def test_diverged_seed_recorded_not_fatal(self, small_dataset, tmp_path, monkeypatch):
        import modcluster.pipeline as pipeline

        out, _ = small_dataset
        real = pipeline.train_single_seed

        def flaky(g, a_norm, feats, config, seed, labels=None, aux_rows=None):
            if seed == 0:
                raise pipeline.DivergenceError("non-finite loss at epoch 3")
            return real(g, a_norm, feats, config, seed, labels, aux_rows)

        monkeypatch.setattr(pipeline, "train_single_seed", flaky)
        with pytest.warns(UserWarning, match="diverged"):
            artifacts = cmd_train(small_config(out, tmp_path / "run"))
        log = (artifacts.out_dir / "failures.log").read_text()
        assert log == "seed 0: non-finite loss at epoch 3\n"
        assert artifacts.failures == ["seed 0: non-finite loss at epoch 3"]
        assert [r.seed for r in artifacts.results] == [1]
        assert not (artifacts.out_dir / "partition_seed0.tsv").exists()
        assert (artifacts.out_dir / "partition_seed1.tsv").exists()
        with open(artifacts.metrics_path) as fh:
            rows = list(csv.reader(fh))
        assert [r[1] for r in rows[1:]] == ["1", "mean", "std"]

    def test_clean_rerun_removes_stale_failures_log(self, small_dataset, tmp_path, monkeypatch):
        out, _ = small_dataset
        config = small_config(out, tmp_path / "run", epochs=5)
        real = pipeline.train_single_seed

        def flaky(g, a_norm, feats, config, seed, labels=None, aux_rows=None):
            if seed == 0:
                raise pipeline.DivergenceError("non-finite loss at epoch 3")
            return real(g, a_norm, feats, config, seed, labels, aux_rows)

        with monkeypatch.context() as patched, pytest.warns(UserWarning, match="diverged"):
            patched.setattr(pipeline, "train_single_seed", flaky)
            assert cmd_train(config).failures
        assert (tmp_path / "run" / "failures.log").exists()
        assert cmd_train(config).failures == []
        assert not (tmp_path / "run" / "failures.log").exists()

    def test_diverged_seed_removes_its_files_from_an_earlier_run(
        self, small_dataset, tmp_path, monkeypatch
    ):
        out, _ = small_dataset
        config = small_config(out, tmp_path / "run", epochs=5, seeds=[0, 1])
        assert cmd_train(config).failures == []
        real = pipeline.train_single_seed

        def flaky(g, a_norm, feats, config, seed, labels=None, aux_rows=None):
            if seed == 1:
                raise pipeline.DivergenceError("non-finite loss at epoch 3")
            return real(g, a_norm, feats, config, seed, labels, aux_rows)

        monkeypatch.setattr(pipeline, "train_single_seed", flaky)
        with pytest.warns(UserWarning, match="diverged"):
            assert cmd_train(config).failures == ["seed 1: non-finite loss at epoch 3"]
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            "checkpoint_seed0.tsv", "failures.log", "loss_seed0.csv", "metrics.csv",
            "partition_seed0.tsv",
        ]

    @staticmethod
    def nan_total(monkeypatch):
        """Make every loss report a NaN total, its gradient left as computed."""
        real = pipeline.total_loss

        def nan_loss(x, g, aux=None):
            report, grad = real(x, g, aux)
            return dataclasses.replace(report, total=np.nan), grad

        monkeypatch.setattr(pipeline, "total_loss", nan_loss)

    def test_non_finite_loss_stops_the_epoch_before_the_update(
        self, small_dataset, monkeypatch
    ):
        out, _ = small_dataset
        g, a_norm, features, _ = pipeline.load_inputs(out / "edges.tsv", out / "features.tsv")
        model = mc.init_model([features.shape[1], 8, 4], seed=0)
        adam = mc.init_adam(model)
        weights = [w.copy() for w in model.weights]
        self.nan_total(monkeypatch)
        with pytest.raises(pipeline.DivergenceError, match=r"^non-finite loss at epoch 1$"):
            pipeline.train_epoch(model, adam, g, a_norm, features, None)
        assert adam.step == 0
        assert all(np.array_equal(a, b) for a, b in zip(model.weights, weights))

    def test_non_finite_loss_is_logged(self, small_dataset, tmp_path, monkeypatch):
        out, _ = small_dataset
        self.nan_total(monkeypatch)
        with pytest.warns(UserWarning, match="diverged"):
            artifacts = cmd_train(small_config(out, tmp_path / "run", epochs=5, seeds=[0]))
        assert (artifacts.out_dir / "failures.log").read_text() == (
            "seed 0: non-finite loss at epoch 1\n"
        )

    def test_nan_weight_ends_only_its_seed(self, small_dataset, tmp_path, monkeypatch):
        import modcluster.gcn as gcn

        out, _ = small_dataset
        real = gcn.init_model

        def poisoned(dims, seed):
            model = real(dims, seed)
            if seed == derive_seed(0, "init"):
                model.weights[0][0, 0] = np.nan
            return model

        monkeypatch.setattr(gcn, "init_model", poisoned)
        with pytest.warns(UserWarning, match="diverged"):
            artifacts = cmd_train(small_config(out, tmp_path / "run"))
        log = (artifacts.out_dir / "failures.log").read_text()
        assert log == "seed 0: non-finite activation in layer 0\n"
        assert not (artifacts.out_dir / "partition_seed0.tsv").exists()
        assert (artifacts.out_dir / "partition_seed1.tsv").exists()


class TestCmdEval:
    def test_matches_training_report(self, small_dataset, tmp_path):
        out, _ = small_dataset
        artifacts = cmd_train(small_config(out, tmp_path / "run", seeds=[2]))
        trained = artifacts.results[0].report
        evaluated = cmd_eval(
            artifacts.out_dir / "checkpoint_seed2.tsv",
            out / "edges.tsv",
            out / "features.tsv",
            labels_path=out / "labels.tsv",
            seed=2,
        )
        assert evaluated == trained

    def test_different_threshold_reclusters(self, small_dataset, tmp_path):
        out, _ = small_dataset
        artifacts = cmd_train(small_config(out, tmp_path / "run", seeds=[2]))
        loose = cmd_eval(
            artifacts.out_dir / "checkpoint_seed2.tsv",
            out / "edges.tsv",
            out / "features.tsv",
            birch_threshold=0.5,
        )
        tight = cmd_eval(
            artifacts.out_dir / "checkpoint_seed2.tsv",
            out / "edges.tsv",
            out / "features.tsv",
            birch_threshold=0.02,
        )
        assert tight.k_found >= loose.k_found
        assert -0.5 <= tight.q <= 1.0

    def test_wrong_feature_dim_rejected(self, small_dataset, tmp_path):
        out, _ = small_dataset
        model = mc.init_model([5, 4], seed=0)
        path = tmp_path / "bad.tsv"
        mc.save_checkpoint(path, model)
        with pytest.raises(ValueError, match="dim"):
            cmd_eval(path, out / "edges.tsv", out / "features.tsv")


class TestCmdScaling:
    def test_rows_and_csv(self, tmp_path):
        out_csv = tmp_path / "timing.csv"
        rows = cmd_scaling([120, 240], out_csv, seed=0, hidden_dims=[8, 4], epochs_timed=2)
        assert [r[0] for r in rows] == [120, 240]
        assert all(r[2] > 0 for r in rows)
        with open(out_csv) as fh:
            parsed = list(csv.DictReader(fh))
        assert [int(r["n"]) for r in parsed] == [120, 240]

    def test_single_size_one_row(self, tmp_path):
        rows = cmd_scaling([150], tmp_path / "t.csv", hidden_dims=[8, 4], epochs_timed=1)
        assert len(rows) == 1

    def test_sizes_must_ascend(self, tmp_path):
        with pytest.raises(ValueError, match="ascending"):
            cmd_scaling([200, 100], tmp_path / "t.csv")


class TestConfigValidation:
    def test_bad_epochs(self):
        with pytest.raises(ValueError):
            RunConfig(epochs=0).validate()

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            RunConfig(label_fraction=1.5).validate()

    def test_bad_aux_mode(self):
        with pytest.raises(ValueError):
            RunConfig(aux_mode="magic").validate()

    def test_derive_seed_roles_distinct(self):
        assert derive_seed(3, "init") != derive_seed(3, "f1")
        assert derive_seed(3, "init") == derive_seed(3, "init")


class TestCli:
    def test_generate_train_eval_flow(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main([
            "generate", "--blocks", "15,15", "--p-in", "0.5", "--p-out", "0.05",
            "--seed", "3", "--out", str(data),
        ]) == 0
        run = tmp_path / "run"
        assert main([
            "train", "--edges", str(data / "edges.tsv"),
            "--features", str(data / "features.tsv"),
            "--labels", str(data / "labels.tsv"),
            "--dims", "8,4", "--epochs", "30", "--seeds", "0",
            "--out", str(run),
        ]) == 0
        assert main([
            "eval", "--checkpoint", str(run / "checkpoint_seed0.tsv"),
            "--edges", str(data / "edges.tsv"),
            "--features", str(data / "features.tsv"),
            "--labels", str(data / "labels.tsv"), "--seed", "0",
        ]) == 0
        output = capsys.readouterr().out
        assert "Q:" in output

    # perfbench's gate parses these lines: each score is its raw value x100, one decimal
    def test_train_prints_the_run_means_x100(self, small_dataset, tmp_path, capsys):
        out, _ = small_dataset
        run = tmp_path / "run"
        assert main([
            "train", "--edges", str(out / "edges.tsv"), "--features", str(out / "features.tsv"),
            "--labels", str(out / "labels.tsv"), "--dims", "16,8", "--epochs", "40",
            "--seeds", "0,1", "--out", str(run),
        ]) == 0
        again = cmd_train(small_config(out, tmp_path / "again"))
        mean, std = again.mean, again.std
        scores = (("q", "Q"), ("conductance", "C"), ("nmi", "NMI"), ("f1", "F1"))
        assert capsys.readouterr().out.splitlines() == [
            "run run: 2/2 seeds finished",
            *(f"  {label}: {100 * mean[name]:.1f} +/- {100 * std[name]:.1f}"
              for name, label in scores),
            f"  clusters found (mean): {mean['k_found']:.1f}",
            f"  artifacts in {run}",
        ]

    @pytest.mark.parametrize("labeled", [True, False], ids=["labels", "no-labels"])
    def test_eval_prints_the_report_x100(self, small_dataset, tmp_path, capsys, labeled):
        out, _ = small_dataset
        cmd_train(small_config(out, tmp_path, seeds=[0]))
        files = [str(tmp_path / "checkpoint_seed0.tsv"), str(out / "edges.tsv"),
                 str(out / "features.tsv"), *([str(out / "labels.tsv")] if labeled else [])]
        flags = ["--checkpoint", "--edges", "--features", "--labels"]
        argv = [item for pair in zip(flags, files) for item in pair]
        assert main(["eval", *argv, "--seed", "2"]) == 0
        report = cmd_eval(*files, seed=2)
        want = [f"k_found: {report.k_found}", f"Q: {100 * report.q:.1f}",
                f"C: {100 * report.conductance:.1f}"]
        if labeled:
            want += [f"NMI: {100 * report.nmi:.1f}", f"F1: {100 * report.f1:.1f}"]
        assert capsys.readouterr().out.splitlines() == want

    def test_missing_required_flags(self, capsys):
        assert main(["train"]) == 2

    def test_json_config_with_flag_override(self, tmp_path, capsys):
        data = tmp_path / "data"
        main([
            "generate", "--blocks", "12,12", "--p-in", "0.5", "--p-out", "0.05",
            "--seed", "1", "--out", str(data),
        ])
        config = {
            "edges": str(data / "edges.tsv"),
            "features": str(data / "features.tsv"),
            "dims": "8,4",
            "epochs": 25,
            "seeds": "0",
            "out": str(tmp_path / "from_config"),
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        assert main([
            "train", "--config", str(config_path), "--out", str(tmp_path / "cli_wins"),
        ]) == 0
        assert (tmp_path / "cli_wins" / "metrics.csv").exists()
        assert not (tmp_path / "from_config").exists()

    def test_json_config_rejects_unknown_key(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"epoch": 1}))
        assert main(["train", "--config", str(config_path)]) == 2
        assert re.search(r"run\.json: unknown config key 'epoch'", capsys.readouterr().err)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("unknown-key", r"run\.json: unknown config key 'epoch'"),
            ("comment-only-edges", r"edges\.tsv: empty edge file"),
            ("missing-file", r"No such file or directory: '.*features\.tsv'"),
            ("missing-edges", r"train: \[Errno 2\] No such file or directory: '.*edges\.tsv'$"),
            ("birch-threshold-0", r"threshold must be positive"),
            ("birch-threshold-nan", r"threshold must be positive"),
            ("branching-1", r"branching_factor must be at least 2"),
            ("f1-sample-0", r"f1_sample_size must be at least 2"),
            ("lr-nan", r"learning_rate must be a positive finite number"),
            ("eval-branching-1", r"branching_factor must be at least 2"),
            ("labels-without-file", r"aux_mode labels requires --labels"),
            ("pairs-without-file", r"aux_mode pairs requires --pairs"),
            ("partition-without-file", r"aux_mode external-partition requires --partition"),
            ("dims-0", r"layer dimensions must be positive"),
            ("eval-f1-sample-0", r"f1_sample_size must be at least 2"),
            ("edge-beyond-int64", r"edges\.tsv:\d+: integer out of range"),
            ("pairs-out-of-range", r"aux\.tsv:2: node id out of range"),
            ("pairs-empty", r"aux\.tsv: empty pair file"),
            ("partition-non-numeric", r"aux\.tsv:1: non-numeric field"),
            ("labels-none-labeled", r"auxiliary source has no labeled nodes"),
            ("label-fraction-empty", r"label_fraction selects an empty auxiliary subset"),
            ("seeds-negative", r"distinct non-negative integers, got \[-1\]"),
            ("seeds-repeated", r"distinct non-negative integers, got \[1, 1\]"),
            ("alpha-inf", r"lambda and alpha must be nonnegative finite numbers"),
            ("eval-seed-negative", r"distinct non-negative integers, got \[-1\]"),
            ("scaling-epochs-0", r"epochs must be >= 1"),
            ("scaling-epochs-negative", r"epochs must be >= 1"),
            ("scaling-sizes-empty", r"argument --sizes: expected comma-separated integers, got ','$"),
            ("scaling-sizes-3", r"sizes must be at least 4 nodes, one per block, got n=3$"),
            ("scaling-sizes-0", r"sizes must be at least 4 nodes, one per block, got n=0$"),
            ("config-float-dims", r"run\.json: dims: expected comma-separated integers,"
                                  r" got '8\.9,4'"),
            ("config-float-epochs", r"run\.json: epochs: .*'2\.7'"),
            ("config-float-seeds", r"run\.json: seeds: expected comma-separated integers,"
                                   r" got '0\.5'"),
            ("config-bool-epochs", r"run\.json: epochs: .*'true'"),
            ("config-number-edges", r"train: \[Errno 2\] No such file or directory: '5'$"),
            ("config-not-json", r"train: .*run\.json: Expecting property name .* column 14"),
            ("config-null-epochs", r"branching_factor must be at least 2"),
            ("config-list", r"run\.json: expected a JSON object of train options$"),
            ("pairs-unread", r"--pairs is only read by aux_mode pairs$"),
            ("partition-unread", r"--partition is only read by aux_mode external-partition$"),
            ("lambda-unread", r"--lambda is only read by an aux mode$"),
            ("self-loop-edges", r"edges\.tsv: no edges besides self-loops$"),
            ("label-fraction-unread",
             r"--label-fraction is only read by aux_mode labels or external-partition$"),
            ("blocks-zero", r"generate: block sizes must be positive$"),
        ],
        ids=[
            "unknown-key", "comment-only-edges", "missing-file", "missing-edges",
            "birch-threshold-0",
            "birch-threshold-nan", "branching-1", "f1-sample-0", "lr-nan", "eval-branching-1",
            "labels-without-file", "pairs-without-file", "partition-without-file", "dims-0",
            "eval-f1-sample-0", "edge-beyond-int64", "pairs-out-of-range", "pairs-empty",
            "partition-non-numeric", "labels-none-labeled", "label-fraction-empty",
            "seeds-negative", "seeds-repeated", "alpha-inf", "eval-seed-negative",
            "scaling-epochs-0", "scaling-epochs-negative", "scaling-sizes-empty",
            "scaling-sizes-3", "scaling-sizes-0", "config-float-dims", "config-float-epochs",
            "config-float-seeds", "config-bool-epochs", "config-number-edges",
            "config-not-json",
            "config-null-epochs", "config-list", "pairs-unread", "partition-unread",
            "lambda-unread", "self-loop-edges", "label-fraction-unread", "blocks-zero",
        ],
    )
    def test_bad_input_prints_one_line_and_exits_2(self, tmp_path, capsys, case, message):
        data = tmp_path / "data"
        main([
            "generate", "--blocks", "6,6", "--p-in", "0.5", "--p-out", "0.1",
            "--seed", "1", "--out", str(data),
        ])
        capsys.readouterr()
        argv = ["train", "--edges", str(data / "edges.tsv"),
                "--features", str(data / "features.tsv"), "--out", str(tmp_path / "run")]
        aux = tmp_path / "aux.tsv"
        bad_flags = {
            "birch-threshold-0": ["--birch-threshold", "0"],
            "birch-threshold-nan": ["--birch-threshold", "nan"],
            "branching-1": ["--branching", "1"],
            "f1-sample-0": ["--labels", str(data / "labels.tsv"), "--f1-sample", "0"],
            "lr-nan": ["--lr", "nan"],
            "labels-without-file": ["--aux-mode", "labels", "--lambda", "0.5"],
            "pairs-without-file": ["--aux-mode", "pairs", "--lambda", "0.5"],
            "partition-without-file": ["--aux-mode", "external-partition"],
            "dims-0": ["--dims", "0"],
            "eval-branching-1": ["--branching", "1"],
            "eval-f1-sample-0": ["--labels", str(data / "labels.tsv"), "--f1-sample", "0"],
            "pairs-out-of-range": ["--aux-mode", "pairs", "--pairs", str(aux), "--lambda", "0.5"],
            "pairs-empty": ["--aux-mode", "pairs", "--pairs", str(aux), "--lambda", "0.5"],
            "partition-non-numeric": ["--aux-mode", "external-partition", "--partition", str(aux)],
            "labels-none-labeled": ["--aux-mode", "labels", "--labels", str(aux), "--lambda", "0.5"],
            "label-fraction-empty": ["--aux-mode", "labels", "--labels", str(data / "labels.tsv"),
                                     "--label-fraction", "0.01", "--lambda", "0.5"],
            "seeds-negative": ["--seeds=-1"],
            "seeds-repeated": ["--seeds", "1,1"],
            "alpha-inf": ["--alpha", "inf"],
            "eval-seed-negative": ["--seed", "-1"],
            "scaling-epochs-0": ["--epochs", "0"],
            "scaling-epochs-negative": ["--epochs=-1"],
            "scaling-sizes-empty": ["--sizes", ","],
            "scaling-sizes-3": ["--sizes", "3"],
            "scaling-sizes-0": ["--sizes", "0,40"],
            "pairs-unread": ["--pairs", str(tmp_path / "missing.tsv")],
            "partition-unread": ["--aux-mode", "pairs", "--pairs", str(aux), "--lambda", "0.5",
                                 "--partition", str(aux)],
            "lambda-unread": ["--lambda", "0.8"],
            "label-fraction-unread": ["--label-fraction", "0.2"],
        }
        # the --config file each config case gives
        config = {
            "unknown-key": {"epoch": 1},
            "config-float-dims": {"dims": [8.9, 4]},
            "config-float-epochs": {"epochs": 2.7},
            "config-float-seeds": {"seeds": [0.5]},
            "config-bool-epochs": {"epochs": True},
            "config-number-edges": {"edges": 5},
            "config-not-json": '{"epochs": 2,}',  # a str is written as it is
            "config-null-epochs": {"epochs": None, "branching": 1},
            "config-list": [1],
        }
        # the auxiliary input each aux case reads
        aux_text = {
            "pairs-out-of-range": "0\t1\n2\t12\n",
            "pairs-empty": "# no pairs\n",
            "partition-non-numeric": "0\tx\n",
            "labels-none-labeled": "# no labels\n",
        }
        if case in aux_text:
            aux.write_text(aux_text[case])
        if case in config:
            config_path = tmp_path / "run.json"
            body = config[case]
            config_path.write_text(body if isinstance(body, str) else json.dumps(body))
            if case == "config-number-edges":  # the file gives the edges
                argv = ["train", *argv[3:]]
            argv += ["--config", str(config_path)]
        elif case == "comment-only-edges":
            (data / "edges.tsv").write_text("# no edges\n")
        elif case == "self-loop-edges":
            (data / "edges.tsv").write_text("0 0\n1 1\n")
        elif case == "missing-file":
            (data / "features.tsv").unlink()
        elif case == "missing-edges":
            (data / "edges.tsv").unlink()
        elif case == "edge-beyond-int64":
            with open(data / "edges.tsv", "a") as fh:
                fh.write("0 99999999999999999999\n")
        elif case.startswith("eval-"):
            # the option is checked before the (missing) checkpoint is read
            argv = ["eval", "--checkpoint", str(tmp_path / "missing.tsv"),
                    "--edges", str(data / "edges.tsv"),
                    "--features", str(data / "features.tsv")] + bad_flags[case]
        elif case == "blocks-zero":
            argv = ["generate", "--blocks", "0,5", "--p-in", "0.5", "--p-out", "0.1",
                    "--out", str(tmp_path / "run")]
        elif case.startswith("scaling-"):
            # the option is checked before any graph is built or timed
            argv = ["scaling", "--sizes", "40", "--dims", "4",
                    "--out", str(tmp_path / "run")] + bad_flags[case]
        else:
            argv += bad_flags[case]
        try:
            code = main(argv)
        except SystemExit as exit_:  # refused by the parser
            code = exit_.code
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"modcluster {argv[0]}: ")
        assert err.count("\n") == 1
        assert re.search(message, err)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--epochs", "x"],
             "modcluster train: argument --epochs: invalid int value: 'x'"),
            (["train", "--bogus", "1"], "modcluster train: unrecognized arguments: --bogus 1"),
            (["generate", "--blocks", "5,x", "--p-in", "0.5", "--p-out", "0.1", "--out", "d"],
             "modcluster generate: argument --blocks: expected comma-separated integers,"
             " got '5,x'"),
            (["scaling", "--sizes", "40", "--out", "s.csv", "--dims", "8,1.5"],
             "modcluster scaling: argument --dims: expected comma-separated integers,"
             " got '8,1.5'"),
            (["train", "--dims", "8,,4"],
             "modcluster train: argument --dims: expected comma-separated integers, got '8,,4'"),
            (["train", "--seeds", "0,,1"],
             "modcluster train: argument --seeds: expected comma-separated integers, got '0,,1'"),
            (["generate", "--blocks", "100,,100"],
             "modcluster generate: argument --blocks: expected comma-separated integers,"
             " got '100,,100'"),
            (["scaling", "--sizes", "1000,"],
             "modcluster scaling: argument --sizes: expected comma-separated integers,"
             " got '1000,'"),
            (["eval", "--checkpoint"],
             "modcluster eval: argument --checkpoint: expected one argument"),
            ([], "modcluster: the following arguments are required: command"),
        ],
        ids=["int", "unknown-flag", "int-list", "int-list-float", "dims-empty-item",
             "seeds-empty-item", "blocks-empty-item", "sizes-trailing-comma", "missing-value",
             "no-command"],
    )
    def test_parse_error_prints_one_line_and_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert capsys.readouterr().err == message + "\n"

    def test_bad_config_list_prints_one_line(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"dims": "8,x"}))
        assert main(["train", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            f"modcluster train: {config_path}: dims:"
            " expected comma-separated integers, got '8,x'\n"
        )

    def test_warning_prints_one_line(self, tmp_path, capsys):
        # node 1 of this graph has no edge; train warns about it on stderr
        data = tmp_path / "data"
        main([
            "generate", "--blocks", "6,6", "--p-in", "0.5", "--p-out", "0.1",
            "--seed", "1", "--out", str(data),
        ])
        src = str(Path(mc.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "modcluster.cli", "train",
             "--edges", str(data / "edges.tsv"), "--features", str(data / "features.tsv"),
             "--dims", "8,4", "--epochs", "5", "--seeds", "0", "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert all(line.startswith("modcluster train: warning: ") for line in lines), lines
        assert [line for line in lines if "isolated" in line] == [
            "modcluster train: warning: 1 isolated node(s): their normalized-adjacency rows"
            " are all zero"
        ]

    def test_warning_prints_one_line_in_process(self, tmp_path, capsys):
        # the graph of test_warning_prints_one_line, whose node 1 has no edge
        data = tmp_path / "data"
        main([
            "generate", "--blocks", "6,6", "--p-in", "0.5", "--p-out", "0.1",
            "--seed", "1", "--out", str(data),
        ])
        capsys.readouterr()

        def show(message, category, filename, lineno, file=None, line=None):
            sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

        # pytest records warnings unformatted; show them as the interpreter's default does
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            warnings.showwarning = show
            assert main([
                "train", "--edges", str(data / "edges.tsv"),
                "--features", str(data / "features.tsv"),
                "--dims", "8,4", "--epochs", "5", "--seeds", "0", "--out", str(tmp_path / "run"),
            ]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert all(line.startswith("modcluster train: warning: ") for line in lines), lines
        assert [line for line in lines if "isolated" in line] == [
            "modcluster train: warning: 1 isolated node(s): their normalized-adjacency rows"
            " are all zero"
        ]

    def test_json_config_accepts_list_dims(self, tmp_path, capsys):
        data = tmp_path / "data"
        main([
            "generate", "--blocks", "12,12", "--p-in", "0.5", "--p-out", "0.05",
            "--seed", "1", "--out", str(data),
        ])
        config = {
            "edges": str(data / "edges.tsv"),
            "features": str(data / "features.tsv"),
            "dims": [8, 4],
            "epochs": 5,
            "seeds": [0],
            "out": str(tmp_path / "run"),
        }
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        assert main(["train", "--config", str(config_path)]) == 0
        model = mc.load_checkpoint(tmp_path / "run" / "checkpoint_seed0.tsv")
        assert model.layer_dims == [2, 8, 4]

    def test_config_file_writes_the_bytes_of_its_flags(self, small_dataset, tmp_path, capsys):
        """A --config value is read as its flag's text, and null keeps the default."""
        out, _ = small_dataset
        inputs = ["--edges", str(out / "edges.tsv"), "--features", str(out / "features.tsv"),
                  "--labels", str(out / "labels.tsv")]
        assert main(["train", *inputs, "--dims", "16,8", "--epochs", "15", "--seeds", "0,1",
                     "--lr", "0.005", "--alpha", "0.1", "--birch-threshold", "0.4",
                     "--out", str(tmp_path / "flags")]) == 0
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "dims": [16, 8], "epochs": 15, "seeds": "0,1", "lr": 5e-3, "alpha": 0.1,
            "birch_threshold": 0.4, "aux_mode": None, "out": str(tmp_path / "config"),
        }))
        assert main(["train", *inputs, "--config", str(config_path)]) == 0
        names = sorted(p.name for p in (tmp_path / "flags").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "config").iterdir())
        for name in names:
            flags = (tmp_path / "flags" / name).read_bytes()
            assert (tmp_path / "config" / name).read_bytes() == flags

    def test_scaling_subcommand(self, tmp_path, capsys):
        out_csv = tmp_path / "scaling.csv"
        assert main([
            "scaling", "--sizes", "100,200", "--out", str(out_csv),
            "--dims", "8,4", "--epochs", "2",
        ]) == 0
        assert out_csv.exists()


class TestAllocatorPolicy:
    SCALING = ["scaling", "--sizes", "100,200", "--dims", "8,4", "--epochs", "2"]

    @staticmethod
    def fake_libc(monkeypatch, libc):
        """Serve ``libc`` for the process's own symbols; other libraries load as usual."""
        real = pipeline.ctypes.CDLL

        def cdll(name, *args, **kwargs):
            return libc if name is None else real(name, *args, **kwargs)

        monkeypatch.setattr(pipeline.ctypes, "CDLL", cdll)

    def test_main_sets_both_thresholds(self, tmp_path, monkeypatch, capsys):
        calls = []

        class Libc:
            def mallopt(param, value):
                calls.append((param, value))
                return 1

        self.fake_libc(monkeypatch, Libc)
        assert main([*self.SCALING, "--out", str(tmp_path / "scaling.csv")]) == 0
        assert calls == [
            (pipeline.M_MMAP_THRESHOLD, 1 << 30), (pipeline.M_TRIM_THRESHOLD, 1 << 30)
        ]

    def test_silent_without_mallopt(self, tmp_path, monkeypatch, capsys):
        self.fake_libc(monkeypatch, object())
        assert main([*self.SCALING, "--out", str(tmp_path / "scaling.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_cli_train_writes_the_bytes_of_cmd_train(self, small_dataset, tmp_path, capsys):
        out, _ = small_dataset
        config = small_config(out, tmp_path / "direct", epochs=15)
        cmd_train(config)
        assert main([
            "train", "--edges", config.edges, "--features", config.features,
            "--labels", config.labels, "--dims", "16,8", "--epochs", "15", "--seeds", "0,1",
            "--out", str(tmp_path / "cli"),
        ]) == 0
        names = sorted(p.name for p in (tmp_path / "direct").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "cli").iterdir())
        for name in names:
            direct = (tmp_path / "direct" / name).read_bytes()
            assert (tmp_path / "cli" / name).read_bytes() == direct


class TestPeakMemory:
    """An epoch's and the tapeless inference pass's traced peaks match the live sets
    that ``gcn.backward`` and ``gcn.gcn_forward`` count: elementwise kernels run in
    row blocks at every size, so their temporaries stay small. An epoch frees all it
    allocates."""

    N = 6000

    @pytest.fixture(scope="class")
    def sbm(self):
        g, _, features = pipeline.sbm_dataset(*pipeline.scaling_sbm_params(self.N), 0)
        return g, mc.normalized_adjacency(g), features

    @pytest.mark.parametrize("phase", ["epoch", "inference", "pooled-inference"])
    def test_peak_is_the_counted_live_set(self, sbm, phase, monkeypatch):
        g, a_norm, features = sbm
        r = features.shape[1]
        model = gcn.init_model([r, *RunConfig().hidden_dims], 0)
        adam = gcn.init_adam(model)
        blocks = 0  # product blocks of 2^18 values live at the peak, one per busy worker
        if phase == "pooled-inference":  # the smallest graph whose forward is chained
            monkeypatch.setattr(gcn, "_POOL_MIN_ROWS", self.N)
            # on one worker, so whether two workers' blocks overlap in time cannot move it
            monkeypatch.setattr(gcn, "_WORKERS", 1)
            blocks = 1
        tracemalloc.start()  # counts only what the pass allocates
        try:
            if phase == "epoch":  # backward's peak
                pipeline.train_epoch(model, adam, g, a_norm, features, None)
                columns = r + 640
            else:  # the tapeless forward's: the loop's, or the chained steps'
                pipeline.transform_forward(model, a_norm, features)
                columns = 256 if blocks else 384
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        count = self.N * columns + blocks * gcn._PRODUCT_ELEMENTS
        assert peak == pytest.approx(8 * count, rel=0.05)

    @pytest.mark.parametrize("labelled", [False, True], ids=["no-aux", "labels-aux"])
    def test_an_epoch_leaves_nothing_behind(self, sbm, labelled):
        # with the cycle collector off, a reference cycle over an n-row array (say, a
        # recursive closure over the loss's operands) would outlive its epoch
        g, a_norm, features = sbm
        model = gcn.init_model([features.shape[1], *RunConfig().hidden_dims], 0)
        adam = gcn.init_adam(model)
        aux = None
        if labelled:
            subset = np.arange(0, self.N, 10)
            onehot = mc.onehot_from_labels(np.arange(self.N) % 4, subset)
            aux = mc.AuxiliaryInfo("labels", subset, onehot, lam=0.8, alpha=0.1)
        sizes, collecting = [], gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            for _ in range(3):
                pipeline.train_epoch(model, adam, g, a_norm, features, aux)
                sizes.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
            if collecting:
                gc.enable()
        assert abs(sizes[2] - sizes[1]) < 4096  # an n-row column alone is 48 KB


@pytest.fixture(autouse=True)
def quiet_expected_warnings():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*near-zero.*")
        warnings.filterwarnings("ignore", message=".*degenerate.*")
        yield
