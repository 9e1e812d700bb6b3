"""Spans and counters recorded around the package's module attributes.

The benchmark never edits the program: it replaces module attributes that
the code resolves at call time (``gcn.gcn_forward``, ``pipeline.birch_fit``,
``birch.CfTree.insert`` ...) with wrappers that record a span and call the
original. A hook whose attribute no longer exists is skipped, so a refactor
of the program leaves the benchmark running and the affected metric at 0.
"""

from __future__ import annotations

import functools
import sys
import time
from types import ModuleType

# (module that defines the function, attribute, span name). The function is
# wrapped in every package module that holds a reference to it, so a call
# site that moves between modules is still seen.
FUNCTION_HOOKS = [
    ("cli", "main", "cli.main"),
    ("pipeline", "cmd_train", "pipeline.cmd_train"),
    ("pipeline", "cmd_eval", "pipeline.cmd_eval"),
    ("pipeline", "train_single_seed", "pipeline.seed"),
    ("pipeline", "transform_forward", "pipeline.inference"),
    ("pipeline", "_write_loss_csv", "pipeline.write"),
    ("pipeline", "write_metrics_csv", "pipeline.write"),
    ("graph", "write_partition", "pipeline.write"),
    ("graph", "load_graph", "graph.load_graph"),
    ("graph", "load_features", "graph.load_features"),
    ("graph", "load_labels", "graph.load_labels"),
    ("graph", "normalized_adjacency", "graph.normalized_adjacency"),
    ("gcn", "gcn_forward", "gcn.forward"),
    ("gcn", "selu", "gcn.selu"),
    ("gcn", "transform_embeddings", "gcn.transform"),
    ("gcn", "backward", "gcn.backward"),
    ("gcn", "_selu_grad", "gcn.selu_grad"),
    ("gcn", "adam_step", "gcn.adam"),
    ("gcn", "save_checkpoint", "gcn.save_checkpoint"),
    ("gcn", "load_checkpoint", "gcn.load_checkpoint"),
    ("losses", "total_loss", "losses.total"),
    ("losses", "modularity_loss", "losses.modularity"),
    ("losses", "aux_loss_labels", "losses.aux"),
    ("losses", "aux_loss_pairs", "losses.aux"),
    ("losses", "collapse_regularizer", "losses.regularizer"),
    ("birch", "birch_fit", "birch.fit"),
    ("metrics", "evaluate", "metrics.evaluate"),
]

METHOD_HOOKS = [
    ("birch", "CfTree", "insert", "birch.insert"),
    ("birch", "CfTree", "_split", "birch.split"),
]

SPMM_SPAN = "gcn.spmm"


def package_modules(package: str = "modcluster") -> dict[str, ModuleType]:
    prefix = package + "."
    return {
        name[len(prefix):]: mod
        for name, mod in list(sys.modules.items())
        if name.startswith(prefix) and mod is not None
    }


def replace_everywhere(modules: dict, defining: str, attr: str, make_wrapper) -> bool:
    """Swap ``defining.attr`` for ``make_wrapper(original)`` in every module
    holding that same object. Returns False when the attribute is gone."""
    original = getattr(modules.get(defining), attr, None)
    if original is None:
        return False
    wrapper = functools.wraps(original)(make_wrapper(original))
    for mod in modules.values():
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)
    return True


class Tracer:
    """Keeps spans in memory: [name, start, end, parent index, seed]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._matrix_classes: dict[type, type] = {}
        self.seed = None

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None, self.seed])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def _timed_matrix_class(self, base: type) -> type:
        """Subclass of the adjacency's sparse class whose ``@`` records a span."""
        if base not in self._matrix_classes:
            spmm = self.span(SPMM_SPAN, lambda a, h: base.__matmul__(a, h))

            def __matmul__(a, other):
                return spmm(a, other)

            self._matrix_classes[base] = type(
                "Timed" + base.__name__, (base,), {"__matmul__": __matmul__}
            )
        return self._matrix_classes[base]

    def install(self, modules: dict) -> None:
        for defining, attr, name in FUNCTION_HOOKS:
            replace_everywhere(modules, defining, attr, lambda fn, name=name: self.span(name, fn))
        for defining, cls_name, attr, name in METHOD_HOOKS:
            cls = getattr(modules.get(defining), cls_name, None)
            if cls is not None and hasattr(cls, attr):
                setattr(cls, attr, self.span(name, getattr(cls, attr)))
        self._install_observers(modules)

    def _install_observers(self, modules: dict) -> None:
        """Counters that need the arguments or results of a call."""
        gcn, birch = modules.get("gcn"), modules.get("birch")

        def seed_scope(fn):
            def run_seed(g, a_norm, features, config, seed, *args, **kwargs):
                self.seed = int(seed)
                try:
                    return fn(g, a_norm, features, config, seed, *args, **kwargs)
                finally:
                    self.seed = None

            return run_seed

        replace_everywhere(modules, "pipeline", "train_single_seed", seed_scope)

        def timed_adjacency(fn):
            def build(*args, **kwargs):
                a_norm = fn(*args, **kwargs)
                a_norm.__class__ = self._timed_matrix_class(type(a_norm))
                self.counters["graph.a_norm_nnz"] = int(a_norm.nnz)
                self.counters["graph.n"] = int(a_norm.shape[0])
                return a_norm

            return build

        replace_everywhere(modules, "graph", "normalized_adjacency", timed_adjacency)

        if gcn is not None and hasattr(gcn, "GradientTape"):

            def patched_rows(fn):
                def transform(x_raw, tape=None, *args, **kwargs):
                    own = tape if tape is not None else gcn.GradientTape()
                    out = fn(x_raw, own, *args, **kwargs)
                    skipped = getattr(own, "divided_mask", None)
                    degenerate = getattr(own, "degenerate_mask", None)
                    if skipped is not None and degenerate is not None:
                        self.count("gcn.transform_rows_patched",
                                   int((~skipped).sum()) + int(degenerate.sum()))
                    return out

                return transform

            replace_everywhere(modules, "gcn", "transform_embeddings", patched_rows)

        def forward_shapes(fn):
            def forward(model, a_norm, x0, *args, **kwargs):
                self.counters["gcn.layer_dims"] = list(getattr(model, "layer_dims", []))
                return fn(model, a_norm, x0, *args, **kwargs)

            return forward

        replace_everywhere(modules, "gcn", "gcn_forward", forward_shapes)

        cf_tree = getattr(birch, "CfTree", None)
        if cf_tree is not None and hasattr(cf_tree, "leaf_entries"):
            leaf_entries = cf_tree.leaf_entries

            def counted_leaves(tree):
                entries = list(leaf_entries(tree))
                self.count("birch.leaf_subclusters", len(entries))
                self.count("birch.depth", _tree_depth(getattr(tree, "root", None)))
                self.count("birch.trees")
                return iter(entries)

            cf_tree.leaf_entries = counted_leaves


def _tree_depth(node) -> int:
    depth = 0
    while node is not None:
        depth += 1
        if getattr(node, "is_leaf", True) or not node.entries:
            break
        node = node.entries[0].child
    return depth


class Recorder:
    """The few timestamps an untraced run needs: the first forward pass (end
    of set-up) and the end of every Adam step (epoch boundaries), plus each
    partition BIRCH returns (for the correctness gate). Its wrappers cost
    about a microsecond per call."""

    def __init__(self):
        self.first_forward: float | None = None
        self.epoch_ends: list[tuple[int | None, float]] = []
        self.partitions: list[list[int]] = []

    def install(self, modules: dict) -> None:
        clock = time.perf_counter

        def forward(fn):
            def run(*args, **kwargs):
                if self.first_forward is None:
                    self.first_forward = clock()
                return fn(*args, **kwargs)

            return run

        def adam(fn):
            def step(model, grads, state, *args, **kwargs):
                out = fn(model, grads, state, *args, **kwargs)
                self.epoch_ends.append((getattr(state, "step", None), clock()))
                return out

            return step

        def fit(fn):
            def run(*args, **kwargs):
                partition = fn(*args, **kwargs)
                self.partitions.append([int(c) for c in partition.assignment])
                return partition

            return run

        for defining, attr, make in (
            ("gcn", "gcn_forward", forward),
            ("gcn", "adam_step", adam),
            ("birch", "birch_fit", fit),
        ):
            if not replace_everywhere(modules, defining, attr, make):
                raise RuntimeError(f"modcluster.{defining}.{attr} not found")
