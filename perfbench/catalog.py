"""Names, units and bounds of every metric the benchmark prints.

BENCHMARK.json at the repository root lists the same metrics; a test keeps
the two in step.
"""

from __future__ import annotations

from .layers import NUM_LAYERS

RUN_SECONDS = 20  # measured seconds per run

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("epoch_ms.p50", "ms", "lower", 0.25),
    ("epoch_ms.tail", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("q_mean", "score", "higher", 0.15),
    ("nmi_mean", "score", "higher", 0.15),
]


def _per_layer_names() -> list[str]:
    names = [
        "gcn.forward_ms", "gcn.forward_self_ms", "gcn.transform_ms",
        "gcn.backward_ms", "gcn.backward_self_ms", "gcn.transform_grad_ms", "gcn.adam_ms",
    ]
    for layer in range(NUM_LAYERS):
        names += [
            f"gcn.layer{layer}.{part}"
            for part in ("spmm_ms", "gemm_ms", "selu_ms", "selu_grad_ms",
                         "bwd_spmm_ms", "bwd_gemm_ms", "fwd_gflop", "fwd_mb")
        ]
    names += [
        "gcn.forward_gflop", "gcn.backward_gflop", "gcn.forward_mb", "gcn.forward_gflops",
        "gcn.transform_rows_patched", "gcn.save_checkpoint_s", "gcn.load_checkpoint_s",
        "losses.total_ms", "losses.total_self_ms", "losses.modularity_ms", "losses.aux_ms",
        "birch.fit_s", "birch.build_s", "birch.readout_s", "birch.inserts", "birch.splits",
        "birch.leaf_subclusters", "birch.depth", "birch.k_found",
        "graph.load_graph_s", "graph.load_features_s", "graph.load_labels_s",
        "graph.normalized_adjacency_s", "graph.input_mb",
        "metrics.evaluate_ms",
        "pipeline.seed_s", "pipeline.inference_ms", "pipeline.write_s", "pipeline.self_s",
        "cli.import_s", "cli.self_s",
        "trace.overhead_s",
    ]
    return names


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
                         ("_gflops", "GFLOP/s"), ("_gflop", "GFLOP")):
        if name.endswith(suffix):
            return unit
    return "count"


# computed from shapes and nnz(A_norm) by layers.layer_costs, not measured
COMPUTED = {
    name for name in _per_layer_names()
    if name.endswith(("_gflop", "_mb")) and name.startswith("gcn.")
}

PER_LAYER = [
    (name, unit_of(name), "higher" if name.endswith("_gflops") else "lower")
    for name in _per_layer_names()
]


def benchmark_json(workloads) -> dict:
    """The BENCHMARK.json document for these workloads."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }

