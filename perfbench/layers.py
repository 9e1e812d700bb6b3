"""Per-layer metrics of one traced command, from its spans and counters.

Layers are the package modules: graph, gcn, losses, birch, metrics,
pipeline and cli. ``*_ms`` metrics are means per call (per epoch for the
training steps), ``*_s`` metrics are totals per command unless stated.
A self time is a span's duration minus the time its child spans cover.

Inside one GCN layer only the sparse product and SELU are calls the tracer
can see; the dense GEMM is the gap between them (forward: SpMM end to SELU
start; backward: SELU-gradient end to the next SpMM start, or to the end of
backward for layer 0, which holds both of that layer's GEMMs).
"""

from __future__ import annotations

from collections import defaultdict

NUM_LAYERS = 3  # every workload uses the default dims, r -> 256 -> 128 -> 64
INDEX_BYTES = 4  # scipy CSR int32 indices
VALUE_BYTES = 8


def layer_costs(n: int, nnz: int, dims: list[int]) -> list[dict]:
    """Computed (not measured) flops and bytes per layer, in the code's
    ``(A H) W`` order. Counts multiply-adds as 2 flops; SELU counts bytes only.
    Bytes are the minimum traffic: each operand read once, each result
    written once."""
    out = []
    csr_bytes = nnz * (VALUE_BYTES + INDEX_BYTES) + (n + 1) * INDEX_BYTES
    for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        spmm_flop = 2.0 * nnz * d_in
        gemm_flop = 2.0 * n * d_in * d_out
        fwd_bytes = (
            csr_bytes + 2 * n * d_in * VALUE_BYTES  # SpMM: A, H in, AH out
            + (n * d_in + d_in * d_out + n * d_out) * VALUE_BYTES  # GEMM
            + 2 * n * d_out * VALUE_BYTES  # SELU in and out
        )
        # backward: weight gradient GEMM; below the top layer also
        # dpre @ W^T and the SpMM that carries the gradient to layer i-1
        bwd_flop = gemm_flop + (gemm_flop + spmm_flop if i > 0 else 0.0)
        out.append({
            "layer": i,
            "d_in": d_in,
            "d_out": d_out,
            "fwd_gflop": (spmm_flop + gemm_flop) / 1e9,
            "bwd_gflop": bwd_flop / 1e9,
            "fwd_mb": fwd_bytes / 1e6,
        })
    return out


class _Spans:
    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children: dict[int, list[int]] = defaultdict(list)
        self.total: dict[str, float] = defaultdict(float)
        self.self_total: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, parent, _seed) in enumerate(spans):
            if parent is not None:
                self.children[parent].append(i)
            self.total[name] += end - start
            self.calls[name] += 1
        for i, (name, start, end, _parent, _seed) in enumerate(spans):
            covered = sum(spans[c][2] - spans[c][1] for c in self.children[i])
            self.self_total[name] += end - start - covered

    def dur(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def mean(self, name: str) -> float:
        return self.total[name] / self.calls[name] if self.calls[name] else 0.0

    def self_mean(self, name: str) -> float:
        return self.self_total[name] / self.calls[name] if self.calls[name] else 0.0

    def child_total(self, parent_name: str, child_name: str) -> float:
        return sum(
            self.dur(c)
            for i, s in enumerate(self.spans) if s[0] == parent_name
            for c in self.children[i] if self.spans[c][0] == child_name
        )

    def of(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == name]


def _gcn_layers(sp: _Spans) -> dict[str, float]:
    """Per-layer SpMM / GEMM / SELU / SELU-gradient times, ms per pass."""
    acc: dict[str, float] = defaultdict(float)
    forwards, backwards = sp.of("gcn.forward"), sp.of("gcn.backward")
    for f in forwards:
        kids = sp.children[f]
        spmm = [c for c in kids if sp.spans[c][0] == "gcn.spmm"]
        selu = [c for c in kids if sp.spans[c][0] == "gcn.selu"]
        for layer, c in enumerate(spmm):
            acc[f"gcn.layer{layer}.spmm_ms"] += sp.dur(c)
        for layer, c in enumerate(selu):
            acc[f"gcn.layer{layer}.selu_ms"] += sp.dur(c)
            if layer < len(spmm):
                acc[f"gcn.layer{layer}.gemm_ms"] += sp.spans[c][1] - sp.spans[spmm[layer]][2]
    for b in backwards:
        kids = [c for c in sp.children[b] if sp.spans[c][0] in ("gcn.selu_grad", "gcn.spmm")]
        grads = [k for k, c in enumerate(kids) if sp.spans[c][0] == "gcn.selu_grad"]
        if grads:
            acc["gcn.transform_grad_ms"] += sp.spans[kids[grads[0]]][1] - sp.spans[b][1]
        layer = len(grads) - 1
        for pos in grads:
            c = kids[pos]
            acc[f"gcn.layer{layer}.selu_grad_ms"] += sp.dur(c)
            nxt = kids[pos + 1] if pos + 1 < len(kids) else None
            if nxt is not None and sp.spans[nxt][0] == "gcn.spmm":
                acc[f"gcn.layer{layer}.bwd_spmm_ms"] += sp.dur(nxt)
                acc[f"gcn.layer{layer}.bwd_gemm_ms"] += sp.spans[nxt][1] - sp.spans[c][2]
            else:
                acc[f"gcn.layer{layer}.bwd_gemm_ms"] += sp.spans[b][2] - sp.spans[c][2]
            layer -= 1
    out = {}
    for name, total in acc.items():
        backward = "bwd_" in name or "grad" in name
        passes = len(backwards) if backward else len(forwards)
        out[name] = 1e3 * total / passes if passes else 0.0
    return out


def command_metrics(record: dict) -> dict[str, float]:
    """Every per-layer metric of one traced command (trace overhead excluded)."""
    sp = _Spans(record["spans"])
    counters = record.get("counters", {})
    m: dict[str, float] = {}

    m["gcn.forward_ms"] = 1e3 * sp.mean("gcn.forward")
    m["gcn.forward_self_ms"] = 1e3 * sp.self_mean("gcn.forward")
    m["gcn.transform_ms"] = 1e3 * sp.mean("gcn.transform")
    m["gcn.backward_ms"] = 1e3 * sp.mean("gcn.backward")
    m["gcn.backward_self_ms"] = 1e3 * sp.self_mean("gcn.backward")
    m["gcn.adam_ms"] = 1e3 * sp.mean("gcn.adam")
    m["gcn.transform_grad_ms"] = 0.0
    for layer in range(NUM_LAYERS):
        for part in ("spmm", "gemm", "selu", "selu_grad", "bwd_spmm", "bwd_gemm"):
            m[f"gcn.layer{layer}.{part}_ms"] = 0.0
    m.update(_gcn_layers(sp))
    m["gcn.transform_rows_patched"] = float(counters.get("gcn.transform_rows_patched", 0))

    dims = counters.get("gcn.layer_dims") or []
    costs = layer_costs(int(counters.get("graph.n", 0)), int(counters.get("graph.a_norm_nnz", 0)), dims)
    m["gcn.forward_gflop"] = sum(c["fwd_gflop"] for c in costs)
    m["gcn.backward_gflop"] = sum(c["bwd_gflop"] for c in costs)
    m["gcn.forward_mb"] = sum(c["fwd_mb"] for c in costs)
    m["gcn.forward_gflops"] = (
        m["gcn.forward_gflop"] / (m["gcn.forward_ms"] / 1e3) if m["gcn.forward_ms"] else 0.0
    )
    for layer in range(NUM_LAYERS):
        cost = costs[layer] if layer < len(costs) else {"fwd_gflop": 0.0, "fwd_mb": 0.0}
        m[f"gcn.layer{layer}.fwd_gflop"] = cost["fwd_gflop"]
        m[f"gcn.layer{layer}.fwd_mb"] = cost["fwd_mb"]

    m["gcn.save_checkpoint_s"] = sp.total["gcn.save_checkpoint"]
    m["gcn.load_checkpoint_s"] = sp.total["gcn.load_checkpoint"]

    losses = sp.calls["losses.total"]
    m["losses.total_ms"] = 1e3 * sp.mean("losses.total")
    m["losses.total_self_ms"] = 1e3 * sp.self_mean("losses.total")
    m["losses.modularity_ms"] = 1e3 * sp.total["losses.modularity"] / losses if losses else 0.0
    m["losses.aux_ms"] = 1e3 * sp.total["losses.aux"] / losses if losses else 0.0

    fits = sp.calls["birch.fit"]
    trees = counters.get("birch.trees", 0)
    build = sp.child_total("birch.fit", "birch.insert")
    m["birch.fit_s"] = sp.mean("birch.fit")
    m["birch.build_s"] = build / fits if fits else 0.0
    m["birch.readout_s"] = (sp.total["birch.fit"] - build) / fits if fits else 0.0
    m["birch.inserts"] = sp.calls["birch.insert"] / fits if fits else 0.0
    m["birch.splits"] = sp.calls["birch.split"] / fits if fits else 0.0
    m["birch.leaf_subclusters"] = counters.get("birch.leaf_subclusters", 0) / trees if trees else 0.0
    m["birch.depth"] = counters.get("birch.depth", 0) / trees if trees else 0.0
    parts = record.get("partitions") or []
    m["birch.k_found"] = sum(max(p) + 1 for p in parts) / len(parts) if parts else 0.0

    for name in ("load_graph", "load_features", "load_labels", "normalized_adjacency"):
        m[f"graph.{name}_s"] = sp.total[f"graph.{name}"]

    m["metrics.evaluate_ms"] = 1e3 * sp.mean("metrics.evaluate")

    m["pipeline.seed_s"] = sp.mean("pipeline.seed")
    m["pipeline.inference_ms"] = 1e3 * sp.mean("pipeline.inference")
    m["pipeline.write_s"] = sp.total["pipeline.write"]
    m["pipeline.self_s"] = sum(
        sp.self_total[name]
        for name in ("pipeline.cmd_train", "pipeline.cmd_eval", "pipeline.seed", "pipeline.inference")
    )
    m["cli.import_s"] = record["import_s"]
    m["cli.self_s"] = sp.self_total["cli.main"]
    return m
