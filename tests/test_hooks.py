"""The call-time hooks that the benchmark in perfbench/ relies on.

The benchmark never edits the package: it swaps module attributes for
wrappers while a command runs. These tests pin what that needs: the
epoch's Adam step and the BIRCH fit are looked up through module
attributes, ``AdamState.step`` counts the steps, ``CfTree.insert`` and
``CfTree._split`` are looked up on the class once per row and once per
split, ``CfTree.leaf_entries`` takes only the tree, so a one-argument
wrapper can replace it, an internal CF-tree node's ``entries[i].child``
is its i-th child (the tree-depth probe walks it), a bare
``GradientTape()`` records the transform's row masks, the normalized
adjacency is a matrix of its own, train and eval read their inputs through
the loaders' module attributes, and an epoch large enough for the worker
pool still makes each GCN SpMM and SELU call on the calling thread, where
the tracer's span stack lives.
"""

import inspect
import sys
import threading

import numpy as np
import pytest

import modcluster as mc
from modcluster import birch, gcn, graph, pipeline


def wrap_everywhere(monkeypatch, module, attr):
    """Replace ``module.attr`` in every package module holding it with a
    wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, attr)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("modcluster.") and getattr(mod, attr, None) is original:
            monkeypatch.setattr(mod, attr, recorded)
    return calls


@pytest.fixture(scope="module")
def sbm():
    g, planted, features = pipeline.sbm_dataset([15, 15], 0.5, 0.05, seed=2)
    return g, mc.normalized_adjacency(g), features, planted.assignment


def test_train_single_seed_signature():
    params = list(inspect.signature(pipeline.train_single_seed).parameters)
    assert params == ["g", "a_norm", "features", "config", "seed", "labels", "aux_rows"]


def test_epoch_and_fit_hooks_see_every_call(sbm, monkeypatch):
    g, a_norm, features, labels = sbm
    adam_calls = wrap_everywhere(monkeypatch, gcn, "adam_step")
    forward_calls = wrap_everywhere(monkeypatch, gcn, "gcn_forward")
    fit_calls = wrap_everywhere(monkeypatch, birch, "birch_fit")
    config = mc.RunConfig(hidden_dims=[8, 4], epochs=3)
    pipeline.train_single_seed(g, a_norm, features, config, 0, labels)
    assert len(adam_calls) == 3
    assert adam_calls[-1][2].step == 3  # the AdamState the benchmark reads
    assert len(forward_calls) == 4  # three epochs plus the inference pass
    assert len(fit_calls) == 1


def test_one_argument_leaf_entries_wrapper(monkeypatch):
    rng = np.random.default_rng(5)
    x = mc.transform_embeddings(rng.normal(0, 1, (150, 5)))
    params = mc.BirchParams(threshold=0.1, branching_factor=3)
    expected = mc.birch_fit(x, params)
    original = birch.CfTree.leaf_entries
    seen = []

    def counted(tree):
        entries = list(original(tree))
        seen.append(len(entries))
        return iter(entries)

    monkeypatch.setattr(birch.CfTree, "leaf_entries", counted)
    got = mc.birch_fit(x, params)
    assert np.array_equal(got.assignment, expected.assignment)
    assert seen and seen[0] >= got.k > 3


def test_insert_and_split_method_hooks_count_every_call(monkeypatch):
    # the benchmark's birch.inserts, birch.splits and birch.build_s come from
    # wrappers set on these class attributes
    rng = np.random.default_rng(5)
    x = mc.transform_embeddings(rng.normal(0, 1, (150, 5)))
    params = mc.BirchParams(threshold=0.1, branching_factor=3)
    expected = mc.birch_fit(x, params)
    calls = {"insert": 0, "_split": 0}
    for attr in calls:
        original = getattr(birch.CfTree, attr)

        def counted(self, *args, original=original, attr=attr):
            calls[attr] += 1
            return original(self, *args)

        monkeypatch.setattr(birch.CfTree, attr, counted)
    got = mc.birch_fit(x, params)
    assert calls["insert"] == len(x)
    assert calls["_split"] >= 1
    assert np.array_equal(got.assignment, expected.assignment)


def test_internal_node_entries_hold_children(monkeypatch):
    rng = np.random.default_rng(5)
    x = mc.transform_embeddings(rng.normal(0, 1, (150, 5)))
    original = birch.CfTree.leaf_entries
    trees = []

    def captured(tree):
        trees.append(tree)
        return original(tree)

    monkeypatch.setattr(birch.CfTree, "leaf_entries", captured)
    mc.birch_fit(x, mc.BirchParams(threshold=0.1, branching_factor=3))
    (tree,) = trees
    assert tree.root.is_leaf is False
    assert isinstance(tree.root.entries[0].child, birch.CfNode)


def test_tape_exposes_transform_masks():
    tape = gcn.GradientTape()
    with pytest.warns(UserWarning, match="near-zero"):
        mc.transform_embeddings(np.array([[1.0, 2.0], [1.0, -1.0]]), tape)
    assert tape.divided_mask.tolist() == [True, False]
    assert tape.degenerate_mask.tolist() == [False, False]


def test_normalized_adjacency_is_not_the_graph_matrix(sbm):
    # the tracer swaps a_norm's class to time GCN SpMM; sharing g.adj would
    # time the loss's A @ X as GCN work too
    g = sbm[0]
    assert mc.normalized_adjacency(g) is not g.adj


def test_train_and_eval_load_through_module_attributes(tmp_path, monkeypatch):
    data = tmp_path / "data"
    pipeline.cmd_generate([10, 10], 0.6, 0.05, 1, data)
    inputs = {name: str(data / f"{name}.tsv") for name in ("edges", "features", "labels")}
    loads = [
        wrap_everywhere(monkeypatch, graph, name)
        for name in ("load_features", "load_graph", "load_labels")
    ]
    checkpoints = wrap_everywhere(monkeypatch, gcn, "load_checkpoint")
    config = mc.RunConfig(
        **inputs, hidden_dims=[4], epochs=2, seeds=[0], out_dir=str(tmp_path / "out")
    )
    pipeline.cmd_train(config)
    assert [len(calls) for calls in loads] == [1, 1, 1]
    pipeline.cmd_eval(tmp_path / "out" / "checkpoint_seed0.tsv", *inputs.values())
    assert [len(calls) for calls in loads] == [2, 2, 2]
    assert len(checkpoints) == 1


def test_pooled_epoch_calls_hooks_on_the_calling_thread(monkeypatch):
    n = 4096
    monkeypatch.setattr(gcn, "_POOL_MIN_ROWS", n)  # the smallest graph whose epoch is pooled
    rng = np.random.default_rng(0)
    ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    g = graph.from_edges(np.concatenate([ring, rng.integers(0, n, (4 * n, 2))]), n)
    a_norm = mc.normalized_adjacency(g)
    calls = []
    base = type(a_norm)

    class Recording(base):  # as the tracer times the GCN SpMM
        def __matmul__(self, other):
            calls.append(("@", threading.get_ident()))
            return base.__matmul__(self, other)

    a_norm.__class__ = Recording
    for attr in ("selu", "_selu_grad"):
        original = getattr(gcn, attr)

        def recorded(*args, original=original, attr=attr):
            calls.append((attr, threading.get_ident()))
            return original(*args)

        monkeypatch.setattr(gcn, attr, recorded)
    model = mc.init_model([4, 256, 128], seed=0)  # (A H) W, then A (H W)
    tape = gcn.GradientTape()
    raw = gcn.gcn_forward(model, a_norm, rng.normal(0, 1, (n, 4)), tape)
    forward = [name for name, _ in calls]
    gcn.backward(tape, np.ones_like(raw))
    assert forward == ["@", "selu", "@", "selu"]
    assert [name for name, _ in calls[4:]] == ["_selu_grad", "@", "_selu_grad"]
    assert {thread for _, thread in calls} == {threading.get_ident()}
