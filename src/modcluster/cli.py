"""Command-line interface: train / eval / generate / scaling.

Each flag's dest names a parameter of its command's ``pipeline`` function,
which holds the defaults. Every train flag can also come from a JSON config
file (--config), keyed by its dest name, as the text its flag would take
(null keeps the default); explicit flags win over the file, which wins over
the RunConfig defaults. A key that names no flag is an error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from .pipeline import (
    AUX_FILES, RunArtifacts, RunConfig, cmd_eval, cmd_generate, cmd_scaling, cmd_train,
)

# train flags whose RunConfig field has another name; every other flag
# (and JSON key) is named after its field
FLAG_FIELDS = {
    "dims": "hidden_dims",
    "lr": "learning_rate",
    "branching": "branching_factor",
    "out": "out_dir",
    "f1_sample": "f1_sample_size",
}


def _parse_int_list(value: str) -> list[int]:
    try:
        return [int(p) for p in value.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {value!r}"
        ) from None


def _train_config(flags: dict) -> RunConfig:
    """RunConfig from the given flags, else the --config JSON values, else
    the RunConfig defaults."""
    path = flags.pop("config", None)
    config = {}
    if path:
        with open(path) as fh:
            try:
                config = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: {exc}") from None
        if not isinstance(config, dict):
            raise ValueError(f"{path}: expected a JSON object of train options")
    actions = {a.dest: a for a in _add_train_parser(_Parser().add_subparsers())._actions}
    values = {}
    for key, value in config.items():
        if key not in actions or key in ("help", "config"):
            raise ValueError(f"{path}: unknown config key {key!r}")
        # the text its flag would take: a list joined by commas, JSON text for a non-string
        items = value if isinstance(value, list) else [value]
        text = ",".join(v if isinstance(v, str) else json.dumps(v) for v in items)
        try:
            if value is not None:  # null keeps the default
                values[key] = (actions[key].type or str)(text)
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise ValueError(f"{path}: {key}: {exc}") from None
    return RunConfig(**{FLAG_FIELDS.get(k, k): v for k, v in {**values, **flags}.items()})


def _add_train_parser(sub) -> argparse.ArgumentParser:
    p = sub.add_parser(
        "train",
        help="train models and cluster the embeddings",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--config", help="JSON file with any of the train options")
    p.add_argument("--edges", help="edge list TSV (required)")
    p.add_argument("--features", help="feature matrix TSV (required)")
    p.add_argument("--labels", help="optional node label TSV (enables NMI/F1)")
    p.add_argument("--partition", help="external partition TSV for aux_mode=external-partition")
    p.add_argument("--pairs", help="same-cluster pair TSV for aux_mode=pairs")
    p.add_argument("--lambda", dest="lam", type=float, help="auxiliary loss weight")
    p.add_argument("--alpha", type=float, help="collapse regularizer weight")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float, help="Adam learning rate")
    p.add_argument("--dims", type=_parse_int_list, help="hidden layer sizes after the input dim")
    p.add_argument("--aux-mode", dest="aux_mode", choices=["none", *AUX_FILES])
    p.add_argument(
        "--label-fraction",
        dest="label_fraction",
        type=float,
        help="fraction of labeled nodes used as the auxiliary subset",
    )
    p.add_argument("--birch-threshold", dest="birch_threshold", type=float)
    p.add_argument("--branching", type=int, help="BIRCH branching factor")
    p.add_argument("--seeds", type=_parse_int_list, help="comma-separated run seeds")
    p.add_argument("--out", help="output directory")
    p.add_argument("--run-id", dest="run_id")
    p.add_argument("--f1-sample", dest="f1_sample", type=int, help="F1 node sample size")
    return p


def _train(**flags) -> tuple[RunConfig, RunArtifacts]:
    config = _train_config(flags)
    return config, cmd_train(config)


def _print_train(result: tuple[RunConfig, RunArtifacts], flags: dict) -> int:
    config, artifacts = result
    print(f"run {config.run_id}: {len(artifacts.results)}/{len(config.seeds)} seeds finished")
    for name, label in (("q", "Q"), ("conductance", "C"), ("nmi", "NMI"), ("f1", "F1")):
        if artifacts.mean.get(name) is not None:
            print(
                f"  {label}: {100 * artifacts.mean[name]:.1f}"
                f" +/- {100 * artifacts.std[name]:.1f}"
            )
    if artifacts.mean.get("k_found") is not None:
        print(f"  clusters found (mean): {artifacts.mean['k_found']:.1f}")
    print(f"  artifacts in {artifacts.out_dir}")
    return 1 if artifacts.failures else 0


def _print_eval(report, flags: dict) -> int:
    print(f"k_found: {report.k_found}")
    print(f"Q: {100 * report.q:.1f}")
    print(f"C: {100 * report.conductance:.1f}")
    if report.nmi is not None:
        print(f"NMI: {100 * report.nmi:.1f}")
        print(f"F1: {100 * report.f1:.1f}")
    return 0


def _print_generate(result: dict, flags: dict) -> int:
    g = result["graph"]
    print(f"generated SBM: n={g.n}, m={g.m}, blocks={result['partition'].k}")
    print(f"  files in {flags['out_dir']}")
    return 0


def _print_scaling(rows, flags: dict) -> int:
    for n, _, sec in rows:
        print(f"n={n}: {sec:.4f} s/epoch")
    base = rows[0][2]
    for n, _, sec in rows[1:]:
        print(f"  t({n})/t({rows[0][0]}) = {sec / base:.2f}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser (and its subcommands' parsers) that prints a parse
    error as one line, ``modcluster <command>: <message>``, and exits 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # an unknown flag is named by the parser of the command it was given to
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="modcluster",
        description="Modularity-maximizing GCN clustering with BIRCH extraction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_train_parser(sub)

    p = sub.add_parser(
        "eval",
        help="cluster and score a dataset with a saved model",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--checkpoint", dest="checkpoint_path", required=True)
    p.add_argument("--edges", dest="edges_path", required=True)
    p.add_argument("--features", dest="features_path", required=True)
    p.add_argument("--labels", dest="labels_path")
    p.add_argument("--birch-threshold", dest="birch_threshold", type=float)
    p.add_argument("--branching", dest="branching_factor", type=int)
    p.add_argument("--f1-sample", dest="f1_sample_size", type=int)
    p.add_argument("--seed", type=int, help="seed for F1 sampling")

    p = sub.add_parser("generate", help="write a synthetic SBM dataset")
    p.add_argument(
        "--blocks", dest="block_sizes", type=_parse_int_list, required=True,
        help="comma-separated block sizes",
    )
    p.add_argument("--p-in", dest="p_in", type=float, required=True)
    p.add_argument("--p-out", dest="p_out", type=float, required=True)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--out", dest="out_dir", required=True, help="output directory")

    p = sub.add_parser(
        "scaling",
        help="time per-epoch cost at increasing graph sizes",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument(
        "--sizes", type=_parse_int_list, required=True,
        help="comma-separated ascending node counts",
    )
    p.add_argument("--out", dest="out_csv", required=True, help="output CSV path")
    p.add_argument("--seed", type=int)
    p.add_argument("--dims", dest="hidden_dims", type=_parse_int_list, help="hidden sizes")
    p.add_argument("--epochs", dest="epochs_timed", type=int, help="timed epochs per size")
    return parser


def main(argv=None) -> int:
    """Run one command. Bad input or a missing file prints one line and returns 2;
    each warning prints as one line, ``modcluster <command>: warning: <message>``."""
    flags = vars(build_parser().parse_args(argv))
    command = flags.pop("command")
    # the command's function, called with its flags, and its result's printer
    run, show = {
        "train": (_train, _print_train),
        "eval": (cmd_eval, _print_eval),
        "generate": (cmd_generate, _print_generate),
        "scaling": (cmd_scaling, _print_scaling),
    }[command]

    def one_line(message, category, filename, lineno, line=None):
        return f"modcluster {command}: warning: {message}\n"

    formatwarning, warnings.formatwarning = warnings.formatwarning, one_line
    try:
        return show(run(**flags), flags)
    except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"modcluster {command}: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
