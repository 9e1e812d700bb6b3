import csv
import json
import re
import warnings

import numpy as np
import pytest

import modcluster as mc
from modcluster import pipeline
from modcluster.cli import main
from modcluster.pipeline import (
    RunConfig,
    build_aux,
    cmd_eval,
    cmd_generate,
    cmd_scaling,
    cmd_train,
    derive_seed,
)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("sbm")
    result = cmd_generate([20, 20], 0.5, 0.05, seed=7, out_dir=out, noise_std=1.0)
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
        assert build_aux(config, 10, None, seed=0) is None

    def test_none_mode_with_regularizer(self):
        config = RunConfig(aux_mode="none", alpha=0.5)
        aux = build_aux(config, 10, None, seed=0)
        assert aux.variant == "none" and aux.alpha == 0.5

    def test_labels_mode_fraction(self):
        labels = np.array([0, 0, 1, 1, 0, 1, 0, 1, 0, 1])
        config = RunConfig(aux_mode="labels", label_fraction=0.5, lam=0.2)
        aux = build_aux(config, 10, labels, seed=1)
        assert aux.variant == "labels"
        assert len(aux.subset) == 5
        assert aux.onehot.shape == (5, 2)

    def test_subset_deterministic_per_seed(self):
        labels = np.arange(20) % 3
        config = RunConfig(aux_mode="labels", label_fraction=0.3, lam=0.2)
        a = build_aux(config, 20, labels, seed=4).subset
        b = build_aux(config, 20, labels, seed=4).subset
        c = build_aux(config, 20, labels, seed=5).subset
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_pairs_mode(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("0\t1\n2\t3\n")
        config = RunConfig(aux_mode="pairs", pairs=str(path), lam=0.2)
        aux = build_aux(config, 5, None, seed=0)
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
        aux = build_aux(config, 6, None, seed=0)
        assert aux.variant == "labels"
        assert len(aux.subset) == 4

    def test_labels_mode_requires_labels(self):
        config = RunConfig(aux_mode="labels", lam=0.2)
        with pytest.raises(ValueError, match="labels"):
            build_aux(config, 10, None, seed=0)


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

        def flaky(g, a_norm, feats, config, seed, labels=None):
            if seed == 0:
                raise pipeline.DivergenceError("non-finite loss at epoch 3")
            return real(g, a_norm, feats, config, seed, labels)

        monkeypatch.setattr(pipeline, "train_single_seed", flaky)
        with pytest.warns(UserWarning, match="diverged"):
            artifacts = cmd_train(small_config(out, tmp_path / "run"))
        log = (artifacts.out_dir / "failures.log").read_text()
        assert "seed 0" in log
        assert not (artifacts.out_dir / "partition_seed0.tsv").exists()
        assert (artifacts.out_dir / "partition_seed1.tsv").exists()
        with open(artifacts.metrics_path) as fh:
            rows = list(csv.reader(fh))
        assert [r[1] for r in rows[1:]] == ["1", "mean", "std"]

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
        ],
        ids=[
            "unknown-key", "comment-only-edges", "missing-file", "birch-threshold-0",
            "birch-threshold-nan", "branching-1", "f1-sample-0", "lr-nan", "eval-branching-1",
            "labels-without-file", "pairs-without-file", "partition-without-file", "dims-0",
            "eval-f1-sample-0", "edge-beyond-int64",
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
        }
        if case == "unknown-key":
            config_path = tmp_path / "run.json"
            config_path.write_text(json.dumps({"epoch": 1}))
            argv += ["--config", str(config_path)]
        elif case == "comment-only-edges":
            (data / "edges.tsv").write_text("# no edges\n")
        elif case == "missing-file":
            (data / "features.tsv").unlink()
        elif case == "edge-beyond-int64":
            with open(data / "edges.tsv", "a") as fh:
                fh.write("0 99999999999999999999\n")
        elif case.startswith("eval-"):
            # the option is checked before the (missing) checkpoint is read
            argv = ["eval", "--checkpoint", str(tmp_path / "missing.tsv"),
                    "--edges", str(data / "edges.tsv"),
                    "--features", str(data / "features.tsv")] + bad_flags[case]
        else:
            argv += bad_flags[case]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"modcluster {argv[0]}: ")
        assert err.count("\n") == 1
        assert re.search(message, err)
        assert not (tmp_path / "run").exists()

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

    def test_scaling_subcommand(self, tmp_path, capsys):
        out_csv = tmp_path / "scaling.csv"
        assert main([
            "scaling", "--sizes", "100,200", "--out", str(out_csv),
            "--dims", "8,4", "--epochs", "2",
        ]) == 0
        assert out_csv.exists()


@pytest.fixture(autouse=True)
def quiet_expected_warnings():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*near-zero.*")
        warnings.filterwarnings("ignore", message=".*degenerate.*")
        yield
