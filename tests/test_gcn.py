import ctypes
import sys
import threading
import types
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import modcluster as mc
from modcluster import gcn, losses
from modcluster.gcn import SELU_ALPHA, SELU_SCALE, GradientTape
from modcluster.graph import from_edges
from reference import (
    fd_weight_grads,
    max_rel_error,
    random_graph,
    total_loss_value,
)


class TestSelu:
    def test_zero(self):
        assert mc.selu(0.0) == 0.0

    def test_one(self):
        assert mc.selu(1.0) == pytest.approx(1.0507009873554804, abs=1e-16)

    def test_deep_negative_limit(self):
        assert mc.selu(-20.0) == pytest.approx(-SELU_SCALE * SELU_ALPHA, abs=1e-8)

    def test_elementwise(self):
        x = np.array([-1.0, 0.0, 2.0])
        out = mc.selu(x)
        assert out[1] == 0.0
        assert out[2] == pytest.approx(2 * SELU_SCALE)
        assert out[0] == pytest.approx(SELU_SCALE * SELU_ALPHA * np.expm1(-1.0))

    @staticmethod
    def inputs():
        rng = np.random.default_rng(11)
        tiny = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308]
        return np.concatenate(
            [rng.normal(0, 3, 1993), rng.uniform(-750, 750, 200), tiny]
        ).reshape(-1, 11)

    def test_matches_where_form(self):
        x = self.inputs()
        expected = np.where(
            x >= 0, SELU_SCALE * x, SELU_SCALE * SELU_ALPHA * np.expm1(np.minimum(x, 0))
        )
        # equal values; only the sign of an exact zero may differ
        np.testing.assert_array_equal(mc.selu(x), expected)

    def test_grad_from_output(self):
        x = self.inputs()
        expected = np.where(
            x >= 0, SELU_SCALE, SELU_SCALE * SELU_ALPHA * np.exp(np.minimum(x, 0))
        )
        y = mc.selu(x)
        got = gcn._selu_grad(y, np.ones_like(y))
        np.testing.assert_allclose(
            got, expected, rtol=0, atol=4 * np.spacing(SELU_SCALE * SELU_ALPHA)
        )

    def test_in_place_forms_match_out_of_place(self):
        x = self.inputs()
        want = mc.selu(x)
        y = x.copy()
        assert mc.selu(y, y) is y
        assert y.tobytes() == want.tobytes()
        g = np.random.default_rng(12).normal(0, 1, x.shape)
        want = ((y + (SELU_SCALE * SELU_ALPHA - SELU_SCALE)) * (y < 0.0) + SELU_SCALE) * g
        assert gcn._selu_grad(y, g) is g
        assert g.tobytes() == want.tobytes()


class TestInitModel:
    def test_glorot_bound(self):
        model = mc.init_model([4, 2], seed=3)
        bound = np.sqrt(6.0 / 6.0)
        assert np.all(np.abs(model.weights[0]) <= bound)

    def test_deterministic(self):
        w1 = mc.init_model([5, 4, 3], seed=7).weights
        w2 = mc.init_model([5, 4, 3], seed=7).weights
        for a, b in zip(w1, w2):
            assert np.array_equal(a, b)

    def test_default_architecture_shapes(self):
        model = mc.init_model([1433, 256, 128, 64], seed=0)
        assert [w.shape for w in model.weights] == [(1433, 256), (256, 128), (128, 64)]

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            mc.init_model([4], seed=0)
        with pytest.raises(ValueError):
            mc.init_model([4, 0], seed=0)


def k2_graph():
    from modcluster.graph import from_edges

    return from_edges(np.array([[0, 1]]), 2)


class TestForward:
    def test_isolated_node_zero_output(self):
        from modcluster.graph import from_edges

        g = from_edges(np.zeros((0, 2), dtype=np.int64), 1)
        model = mc.init_model([3, 2], seed=0)
        with pytest.warns(UserWarning, match="isolated"):
            a_norm = mc.normalized_adjacency(g)
        out = mc.gcn_forward(model, a_norm, np.ones((1, 3)))
        assert np.all(out == 0.0)

    def test_single_layer_hand_value(self):
        g = k2_graph()
        a_norm = mc.normalized_adjacency(g)
        model = mc.GcnModel([1, 1], [np.array([[1.0]])])
        out = mc.gcn_forward(model, a_norm, np.array([[1.0], [1.0]]))
        np.testing.assert_allclose(out, [[SELU_SCALE], [SELU_SCALE]])

    def test_dim_mismatch(self):
        g = k2_graph()
        model = mc.init_model([3, 2], seed=0)
        with pytest.raises(ValueError, match="dim"):
            mc.gcn_forward(model, mc.normalized_adjacency(g), np.ones((2, 4)))

    def test_non_finite_names_layer(self):
        g = k2_graph()
        model = mc.GcnModel([1, 1], [np.array([[np.inf]])])
        with pytest.raises(ValueError, match="layer 0"):
            mc.gcn_forward(model, mc.normalized_adjacency(g), np.ones((2, 1)))

    @pytest.mark.filterwarnings("ignore::UserWarning")  # sparse draw leaves isolated nodes
    def test_full_architecture_forward_stays_finite(self):
        # citation-network scale: 2708 nodes, 1433-dim features, 3 layers
        rng = np.random.default_rng(0)
        g = random_graph(2708, 0.0015, 1)
        a_norm = mc.normalized_adjacency(g)
        feats = (rng.random((2708, 1433)) < 0.01).astype(np.float64)
        model = mc.init_model([1433, 256, 128, 64], seed=0)
        out = mc.gcn_forward(model, a_norm, feats)
        assert out.shape == (2708, 64)
        assert np.all(np.isfinite(out))
        x = mc.transform_embeddings(out)
        np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-9)


class TestTransform:
    def test_constant_row_becomes_uniform(self):
        out = mc.transform_embeddings(np.full((1, 4), 3.7))
        np.testing.assert_allclose(out, np.full((1, 4), 0.5), atol=1e-12)

    def test_hand_chain(self):
        # [1,1,2] -> /4 -> tanh [0.2449187, 0.2449187, 0.4621172]
        #          -> square [0.0599852, 0.0599852, 0.2135523] -> unit norm
        out = mc.transform_embeddings(np.array([[1.0, 1.0, 2.0]]))
        np.testing.assert_allclose(
            out, [[0.2610494, 0.2610494, 0.9293581]], atol=1e-6
        )

    def test_zero_row_replaced_by_uniform(self):
        with pytest.warns(UserWarning):
            out = mc.transform_embeddings(np.zeros((1, 9)))
        np.testing.assert_allclose(out, np.full((1, 9), 1.0 / 3.0))

    def test_near_zero_sum_skips_division(self):
        row = np.array([[5.0, -5.0 + 1e-12, 1e-13]])
        with pytest.warns(UserWarning, match="near-zero"):
            out = mc.transform_embeddings(row)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(1, 6)),
            elements=st.floats(-50, 50, allow_nan=False),
        )
    )
    def test_rows_unit_and_nonnegative(self, raw):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = mc.transform_embeddings(raw)
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)

    def test_cosine_euclidean_identity(self):
        rng = np.random.default_rng(0)
        out = mc.transform_embeddings(rng.normal(0, 1, (40, 8)))
        i = rng.integers(0, 40, size=200)
        j = rng.integers(0, 40, size=200)
        lhs = np.sum((out[i] - out[j]) ** 2, axis=1)
        rhs = 2.0 * (1.0 - np.einsum("ij,ij->i", out[i], out[j]))
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="2-d"):
            mc.transform_embeddings(np.ones(3))


class TestAdam:
    def test_zero_gradients_keep_weights(self):
        model = mc.init_model([3, 2], seed=1)
        before = [w.copy() for w in model.weights]
        state = mc.init_adam(model)
        mc.adam_step(model, [np.zeros_like(w) for w in model.weights], state)
        for a, b in zip(model.weights, before):
            assert np.array_equal(a, b)

    def test_first_step_magnitude_is_learning_rate(self):
        model = mc.GcnModel([1, 1], [np.array([[0.5]])])
        state = mc.init_adam(model, learning_rate=0.001)
        mc.adam_step(model, [np.array([[3.0]])], state)
        # fresh moments make m_hat/sqrt(v_hat) = sign(g) up to eps rounding
        assert model.weights[0][0, 0] == pytest.approx(0.5 - 0.001, rel=1e-6)

    def test_constant_gradient_moves_monotonically(self):
        model = mc.GcnModel([1, 1], [np.array([[0.0]])])
        state = mc.init_adam(model)
        values = [0.0]
        for _ in range(3):
            mc.adam_step(model, [np.array([[1.0]])], state)
            values.append(model.weights[0][0, 0])
        assert values == sorted(values, reverse=True)

    def test_in_place_step_matches_textbook(self):
        rng = np.random.default_rng(6)
        model = mc.init_model([5, 4, 3], seed=6)
        state = mc.init_adam(model, learning_rate=0.01)
        w = [x.copy() for x in model.weights]
        m = [np.zeros_like(x) for x in w]
        v = [np.zeros_like(x) for x in w]
        b1, b2, eps, lr = gcn.ADAM_BETA1, gcn.ADAM_BETA2, gcn.ADAM_EPS, 0.01
        for t in range(1, 6):
            grads = [rng.normal(0, 1, x.shape) for x in w]
            mc.adam_step(model, grads, state)
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * g * g
                m_hat, v_hat = m[i] / (1.0 - b1**t), v[i] / (1.0 - b2**t)
                w[i] = w[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
            for got, want in zip([*model.weights, *state.m, *state.v], [*w, *m, *v]):
                assert got.tobytes() == want.tobytes()

    def test_non_finite_gradient_raises(self):
        model = mc.init_model([2, 2], seed=0)
        state = mc.init_adam(model)
        bad = [np.full_like(w, np.nan) for w in model.weights]
        with pytest.raises(ValueError, match="non-finite"):
            mc.adam_step(model, bad, state)

    @pytest.mark.parametrize(
        "shapes, message",
        [([(3, 4)], "gradient count does not match weight count"),
         ([(3, 4), (2, 4)], "gradient shape mismatch at layer 1")],
        ids=["count", "shape"],
    )
    def test_gradients_must_match_the_weights(self, shapes, message):
        model = mc.init_model([3, 4, 2], seed=0)
        with pytest.raises(ValueError, match=message):
            mc.adam_step(model, [np.zeros(s) for s in shapes], mc.init_adam(model))

    @pytest.mark.parametrize(
        "bad, message",
        [(np.zeros((2, 4)), "gradient shape mismatch at layer 1"),
         (np.full((4, 2), np.nan), "non-finite gradient at layer 1")],
        ids=["shape", "nan"],
    )
    def test_bad_gradient_changes_nothing(self, bad, message):
        rng = np.random.default_rng(1)
        model = mc.init_model([3, 4, 2], seed=1)
        state = mc.init_adam(model)
        mc.adam_step(model, [rng.normal(0, 1, w.shape) for w in model.weights], state)
        before = [a.tobytes() for a in (*model.weights, *state.m, *state.v)]
        with pytest.raises(ValueError, match=message):
            mc.adam_step(model, [rng.normal(0, 1, (3, 4)), bad], state)
        assert state.step == 1
        assert [a.tobytes() for a in (*model.weights, *state.m, *state.v)] == before


class TestBackward:
    def setup_small(self, seed=0, dims=(4, 3, 2), n=6):
        rng = np.random.default_rng(seed)
        g = random_graph(n, 0.6, seed + 100)
        a_norm = mc.normalized_adjacency(g)
        feats = rng.normal(0, 1, (n, dims[0]))
        model = mc.init_model(list(dims), seed)
        return g, a_norm, feats, model

    def test_sum_loss_matches_fd(self):
        g, a_norm, feats, model = self.setup_small()
        tape = GradientTape()
        raw = mc.gcn_forward(model, a_norm, feats, tape)
        x = mc.transform_embeddings(raw, tape)
        analytic = mc.backward(tape, np.ones_like(x))

        def loss(m):
            return float(
                np.sum(mc.transform_embeddings(mc.gcn_forward(m, a_norm, feats)))
            )

        numeric = fd_weight_grads(loss, model)
        assert max_rel_error(analytic, numeric) < 1e-5

    def test_zero_upstream_gives_zero_grads(self):
        g, a_norm, feats, model = self.setup_small(seed=2)
        tape = GradientTape()
        raw = mc.gcn_forward(model, a_norm, feats, tape)
        x = mc.transform_embeddings(raw, tape)
        grads = mc.backward(tape, np.zeros_like(x))
        assert all(np.all(gr == 0.0) for gr in grads)

    def test_modularity_loss_matches_fd(self):
        g, a_norm, feats, model = self.setup_small(seed=4)
        tape = GradientTape()
        raw = mc.gcn_forward(model, a_norm, feats, tape)
        x = mc.transform_embeddings(raw, tape)
        _, dldx = mc.total_loss(x, g, None)
        analytic = mc.backward(tape, dldx)
        numeric = fd_weight_grads(
            lambda m: total_loss_value(m, a_norm, feats, g, None), model
        )
        assert max_rel_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize(
        "dims, csr, aggregate_last",
        [
            ((2, 3, 4), False, [False, False]),
            ((3, 5, 2), False, [False, True]),
            ((4, 3, 2), False, [True, True]),
            ((4, 5, 6), True, [True, False]),
        ],
        ids=["aggregate-first", "mixed", "aggregate-last", "csr-x0"],
    )
    def test_every_layer_order_matches_fd(self, dims, csr, aggregate_last):
        g, a_norm, feats, model = self.setup_small(seed=6, dims=dims)
        if csr:
            feats = sp.csr_matrix(np.where(np.abs(feats) > 0.7, feats, 0.0))
        tape = GradientTape()
        raw = mc.gcn_forward(model, a_norm, feats, tape)
        x = mc.transform_embeddings(raw, tape)
        _, dldx = mc.total_loss(x, g, None)
        analytic = mc.backward(tape, dldx)
        assert tape.aggregate_last == aggregate_last
        numeric = fd_weight_grads(
            lambda m: total_loss_value(m, a_norm, feats, g, None), model
        )
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_backward_follows_the_recorded_order(self):
        # a narrowing layer recorded as (A H) W, an order gcn_forward never
        # picks for it: backward takes the order from the tape, not the widths
        g, a_norm, feats, model = self.setup_small(seed=7, dims=(4, 2))
        upstream = np.random.default_rng(7).normal(0, 1, (g.n, 2))
        tape = GradientTape()
        mc.gcn_forward(model, a_norm, feats, tape)
        assert tape.aggregate_last == [True]
        ah = a_norm @ feats
        out = mc.selu(ah @ model.weights[0])
        hand = GradientTape(a_norm, [ah], [out], model.weights, aggregate_last=[False])
        (got,), (want,) = mc.backward(hand, upstream), mc.backward(tape, upstream)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_csr_and_dense_x0_agree(self):
        # dense X0 runs layer 0 as (A X0) W, CSR X0 as A (X0 W)
        g, a_norm, feats, model = self.setup_small(seed=8, dims=(4, 6, 3), n=12)
        feats[np.abs(feats) < 0.7] = 0.0
        runs = []
        for x0 in (feats, sp.csr_matrix(feats)):
            tape = GradientTape()
            raw = mc.gcn_forward(model, a_norm, x0, tape)
            x = mc.transform_embeddings(raw, tape)
            _, dldx = mc.total_loss(x, g, None)
            runs.append((raw, mc.backward(tape, dldx)))
        (raw_dense, grads_dense), (raw_csr, grads_csr) = runs
        np.testing.assert_allclose(raw_csr, raw_dense, rtol=0, atol=1e-12)
        for got, want in zip(grads_csr, grads_dense):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_untransformed_upstream_left_unchanged(self):
        g, a_norm, feats, model = self.setup_small(seed=5)
        tape = GradientTape()
        raw = mc.gcn_forward(model, a_norm, feats, tape)
        upstream = np.random.default_rng(5).normal(0, 1, raw.shape)
        before = upstream.copy()
        mc.backward(tape, upstream)
        assert upstream.tobytes() == before.tobytes()

    def test_transformed_upstream_overwritten(self):
        # the transform's gradient is written over a float64 upstream, not a new array
        g, a_norm, feats, model = self.setup_small(seed=5)
        tapes = [GradientTape(), GradientTape()]
        for tape in tapes:
            x = mc.transform_embeddings(mc.gcn_forward(model, a_norm, feats, tape), tape)
        upstream = np.random.default_rng(5).normal(0, 1, x.shape)
        before = upstream.copy()
        want = mc.backward(tapes[0], before.copy())
        assert_same_bits(mc.backward(tapes[1], upstream), want)
        assert upstream.tobytes() != before.tobytes()

    def test_empty_tape_rejected(self):
        with pytest.raises(ValueError, match="tape has no recorded forward pass"):
            mc.backward(GradientTape(), np.zeros((2, 2)))

    @pytest.mark.parametrize("transformed", [False, True], ids=["raw", "transformed"])
    def test_backward_consumes_the_tape(self, transformed):
        g, a_norm, feats, model = self.setup_small(seed=9)
        tape = GradientTape()
        x = mc.gcn_forward(model, a_norm, feats, tape)
        if transformed:
            x = mc.transform_embeddings(x, tape)
        mc.backward(tape, np.ones_like(x))
        # the n-long row masks and sums may stay; no n x k array does
        left = [v for v in vars(tape).values() if isinstance(v, np.ndarray)]
        left += [*tape.inputs, *tape.outputs]
        assert not [v for v in left if v.ndim == 2 and v.shape[0] == g.n]
        with pytest.raises(ValueError, match="tape was consumed by an earlier backward"):
            mc.backward(tape, np.ones_like(x))

    @pytest.mark.parametrize("transformed", [False, True], ids=["raw", "transformed"])
    def test_wrong_shape_upstream_rejected(self, transformed):
        g, a_norm, feats, model = self.setup_small(seed=3)
        tape = GradientTape()
        raw = mc.gcn_forward(model, a_norm, feats, tape)
        if transformed:
            mc.transform_embeddings(raw, tape)
        with pytest.raises(ValueError, match="gradient shape does not match"):
            mc.backward(tape, np.zeros((raw.shape[0], raw.shape[1] + 1)))


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        model = mc.init_model([7, 5, 3], seed=13)
        path = tmp_path / "model.tsv"
        mc.save_checkpoint(path, model)
        loaded = mc.load_checkpoint(path)
        assert loaded.layer_dims == model.layer_dims
        for a, b in zip(loaded.weights, model.weights):
            assert np.array_equal(a, b)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "model.tsv"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError, match="header"):
            mc.load_checkpoint(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        model = mc.init_model([3, 2], seed=4)
        path = tmp_path / "model.tsv"
        mc.save_checkpoint(path, model)
        header, dims, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, "# saved by a test", dims, "", *rows, "# end"]) + "\n")
        loaded = mc.load_checkpoint(path)
        assert loaded.layer_dims == [3, 2]
        assert np.array_equal(loaded.weights[0], model.weights[0])

    def test_truncated(self, tmp_path):
        model = mc.init_model([4, 3], seed=0)
        path = tmp_path / "model.tsv"
        mc.save_checkpoint(path, model)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            mc.load_checkpoint(path)

    def test_read_in_one_streaming_pass(self, tmp_path, monkeypatch):
        """Every layer comes from one ``read_records`` pass; numpy's C reader is not used."""
        model = mc.init_model([5, 4, 3], seed=2)
        path = tmp_path / "model.tsv"
        mc.save_checkpoint(path, model)
        read_records, calls = gcn.read_records, []

        def counted(*args):
            calls.append(args)
            return read_records(*args)

        monkeypatch.setattr(gcn, "read_records", counted)
        loadtxt = mock.Mock(side_effect=ValueError)
        monkeypatch.setattr(np, "loadtxt", loadtxt)
        loaded = mc.load_checkpoint(path)
        assert calls == [(path,)] and not loadtxt.called
        assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, model.weights))


def force_blocks(monkeypatch, workers, block=6, product=0):
    """Send every kernel down the row-block path in blocks of ``block``
    elements (dense products and SpMMs in blocks of ``product``, when given),
    shared out over ``workers`` cores as when the input is large."""
    monkeypatch.setattr(gcn, "_POOL_MIN_ROWS", 0)
    monkeypatch.setattr(gcn, "_WORKERS", workers)
    monkeypatch.setattr(gcn, "_BLOCK_ELEMENTS", block)
    if product:
        monkeypatch.setattr(gcn, "_PRODUCT_ELEMENTS", product)


def epoch_arrays(model, a_norm, x0, upstream):
    """Every array a forward, transform and backward from ``upstream`` produce;
    the tape's are taken before backward consumes it."""
    tape = GradientTape()
    raw = mc.gcn_forward(model, a_norm, x0, tape)
    x = mc.transform_embeddings(raw, tape)
    recorded = [v for v in vars(tape).values() if isinstance(v, np.ndarray)]
    recorded += [*tape.inputs, *tape.outputs]
    grads = mc.backward(tape, upstream.copy())  # backward writes over its upstream
    return [raw, x, *grads, *recorded]


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = (v.toarray() if sp.issparse(v) else v for v in (a, b))
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestRowBlocks:
    def test_vector_product_falls_back_to_scipy(self):
        a_norm = mc.normalized_adjacency(random_graph(12, 0.5, 3))
        assert type(a_norm) is gcn.RowBlockCsr
        v = np.random.default_rng(3).normal(0, 1, 12)
        got = a_norm @ v
        assert got.shape == (12,)
        assert got.tobytes() == (sp.csr_matrix(a_norm) @ v).tobytes()

    def test_blocks_cover_rows_in_order(self, monkeypatch):
        force_blocks(monkeypatch, workers=3)
        main = threading.get_ident()
        blocks = gcn._blocks(lambda lo, hi: (lo, hi, threading.get_ident()), 7, 2)
        assert [b[:2] for b in blocks] == [(0, 2), (2, 4), (4, 6), (6, 7)]
        # runs of blocks 0, 1 and 2-3: the calling thread takes the first only
        threads = [b[2] for b in blocks]
        assert threads[0] == main
        if gcn._pool() is not None:
            assert main not in threads[1:]
        assert gcn._blocks(lambda lo, hi: 1 / 0, 0, 5) == []
        # one block, as in an n x 4 SpMM of 16000 rows: no hand-off to a worker
        assert gcn._blocks(lambda lo, hi: (lo, hi, threading.get_ident()), 7, 8) == [(0, 7, main)]

    @pytest.mark.parametrize("pooled", [False, True], ids=["below-pool-rows", "at-pool-rows"])
    def test_pool_decided_by_the_row_count(self, monkeypatch, pooled):
        # layer 0 runs (A H) W and layer 1 A (H W); both H have 128 or more
        # columns, so each H' P can split as well
        n = 20
        g = random_graph(n, 0.4, 90)
        x0 = np.random.default_rng(9).normal(0, 1, (n, 128))
        model = mc.init_model([128, 130, 129], seed=9)
        monkeypatch.setattr(gcn, "_WORKERS", 2)
        monkeypatch.setattr(gcn, "_BLOCK_ELEMENTS", 64)
        monkeypatch.setattr(gcn, "_PRODUCT_ELEMENTS", 64)
        if pooled:
            monkeypatch.setattr(gcn, "_POOL_MIN_ROWS", n)
        assert (n >= gcn._POOL_MIN_ROWS) == pooled
        pools, calls = [], []  # calls: [n-row kernel, its operand is sparse, blocks it ran in]
        monkeypatch.setattr(gcn, "_pool", lambda: pools.append(1))  # None: blocks run here
        kernels = {gcn: ("_row_runs", "_matmul", "_gram"), losses: ("_row_runs", "_matmul")}
        for module, names in kernels.items():
            for name in names:

                def tracked(*args, original=getattr(module, name), name=name):
                    calls.append([name, sp.issparse(args[0]), 0])
                    return original(*args)

                monkeypatch.setattr(module, name, tracked)
        blocks = gcn._blocks

        def counted(*args):
            calls[-1][2] += len(result := blocks(*args))
            return result

        monkeypatch.setattr(gcn, "_blocks", counted)
        tape = GradientTape()
        raw = mc.gcn_forward(model, mc.normalized_adjacency(g), x0, tape)
        x = mc.transform_embeddings(raw, tape)
        mc.backward(tape, mc.total_loss(x, g, None)[1])
        assert {name for name, *_ in calls} == {"_row_runs", "_matmul", "_gram"}
        assert [name for name, *_ in calls].count("_gram") == 2
        assert {sparse for name, sparse, _ in calls if name == "_matmul"} == {False, True}
        if pooled:  # every kernel split, and the pool was asked for
            assert min(count for *_, count in calls) >= 2 and pools
        else:  # elementwise kernels and dense products split on this thread, SpMMs and
            # H' P whole, no pool
            whole = [count for name, sparse, count in calls if name == "_gram" or sparse]
            split = [count for name, sparse, count in calls if not (name == "_gram" or sparse)]
            assert min(split) >= 2 and max(whole) == 0 and not pools

    @pytest.mark.parametrize("lib", ["unloadable", "no-setter"])
    def test_no_pool_without_the_blas_thread_setter(self, monkeypatch, lib):
        opened = []

        def cdll(path):
            opened.append(path)
            if lib == "unloadable":
                raise OSError(path)
            # a library without the 64-bit setter; the plain one must not be called
            return types.SimpleNamespace(openblas_set_num_threads=lambda k: pytest.fail("set"))

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        monkeypatch.setattr(gcn, "ThreadPoolExecutor", lambda *a, **k: pytest.fail("pool"))
        assert gcn._pool.__wrapped__() is None
        assert opened  # numpy's OpenBLAS was found and tried

    @pytest.mark.parametrize("n", [1, 5, 23])
    @pytest.mark.parametrize("csr", [False, True], ids=["dense-x0", "csr-x0"])
    @pytest.mark.parametrize("product", [0, 12], ids=["whole-products", "split-products"])
    @pytest.mark.filterwarnings("ignore::UserWarning")  # isolated node, degenerate rows
    def test_epoch_same_bits_on_any_core_count(self, monkeypatch, n, csr, product):
        # layers 0 and 1 widen, (A H) W; layer 2 narrows, A (H W). Blocks of
        # 6 elements hold 2 rows of the 3-wide arrays and 1 of the wider ones;
        # layer 2's H' P takes H's 150 columns in blocks of 64, 64 and 22
        rng = np.random.default_rng(n)
        g = random_graph(n, 0.5, 200 + n) if n > 1 else from_edges(np.zeros((0, 2)), 1)
        a_norm = mc.normalized_adjacency(g)
        x0 = rng.normal(0, 1, (n, 3))
        x0[np.abs(x0) < 0.5] = 0.0
        x0 = sp.csr_matrix(x0) if csr else x0
        model = mc.init_model([3, 70, 150, 2], seed=n)
        upstream = rng.normal(0, 1, (n, 2))
        serial = epoch_arrays(model, a_norm, x0, upstream)
        runs = []
        for workers in (1, 3):
            force_blocks(monkeypatch, workers, product=product)
            runs.append(epoch_arrays(model, a_norm, x0, upstream))
        assert_same_bits(runs[1], runs[0])
        if not product:  # elementwise kernels give the same bits in any blocks
            assert_same_bits(runs[1], serial)
        for got, want in zip(runs[1], serial):  # BLAS may round a smaller block apart
            got, want = (v.toarray() if sp.issparse(v) else v for v in (got, want))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_patched_rows_counted_over_all_blocks(self, monkeypatch):
        x = np.random.default_rng(3).normal(0, 1, (9, 3))
        # near-zero sums: the last two are also degenerate, the last with
        # tanh values that still carry a gradient
        x[[1, 4, 8]] = [[1.0, -1.0, 0.0], [0.0, 0.0, 0.0], [1e-9, -1e-9, 1e-9]]
        g = np.random.default_rng(4).normal(0, 1, x.shape)

        def run():
            # one layer whose output is x; with A = H = I its weight
            # gradient is SELU'(x) times the gradient the transform passes on
            tape = GradientTape(
                sp.identity(9, format="csr"), [np.eye(9)], [x], [np.eye(3)], aggregate_last=[True]
            )
            with pytest.warns(UserWarning) as caught:
                out = mc.transform_embeddings(x, tape)
            arrays = [v for v in vars(tape).values() if isinstance(v, np.ndarray)]
            # consumes the tape, so its arrays are taken first, and writes over g's copy
            grads = mc.backward(tape, g.copy())
            messages = [str(w.message) for w in caught]
            return messages, [out, *grads, *arrays]

        serial_messages, serial = run()
        force_blocks(monkeypatch, workers=3)  # blocks of 2 rows
        messages, pooled = run()
        assert messages == serial_messages == [
            "3 row(s) with near-zero sum: row-sum normalization skipped for them",
            "2 degenerate row(s) replaced by the uniform unit vector",
        ]
        assert_same_bits(pooled, serial)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_in_a_later_block_raises(self, monkeypatch, bad):
        n = 9
        g = from_edges(np.stack([np.arange(n - 1), np.arange(1, n)], axis=1), n)
        x0 = np.ones((n, 2))
        x0[n - 1, 0] = bad
        # A X0 is non-finite in row 7 only: blocks of 2 rows, row 7 in a worker's run
        force_blocks(monkeypatch, workers=3)
        model = mc.GcnModel([2, 3], [np.ones((2, 3))])
        with pytest.raises(gcn.DivergenceError, match="non-finite activation in layer 0"):
            mc.gcn_forward(model, mc.normalized_adjacency(g), x0)

    def test_selu_scalar_and_vector_in_blocks(self, monkeypatch):
        x = TestSelu.inputs()
        want = [mc.selu(v) for v in (0.0, -20.0, x[:, 0], x)]
        force_blocks(monkeypatch, workers=3, block=4)
        assert mc.selu(0.0) == 0.0
        assert mc.selu(-20.0) == pytest.approx(-SELU_SCALE * SELU_ALPHA, abs=1e-8)
        assert_same_bits([mc.selu(v) for v in (0.0, -20.0, x[:, 0], x)], want)
        TestSelu().test_matches_where_form()
        TestSelu().test_grad_from_output()


class TestChainedForward:
    """A tapeless forward chains the row-local steps between two products with
    A_norm, one row block at a time; it gives the taped loop's bits, and calls no
    ``selu``."""

    N = 90

    @staticmethod
    def forward_both(monkeypatch, model, x0, workers=3, product=4096):
        g = random_graph(TestChainedForward.N, 0.1, 31)
        a_norm = mc.normalized_adjacency(g)
        # products in blocks of 8 to 64 rows at product=4096, SELU in blocks of 1 to 8
        force_blocks(monkeypatch, workers, block=512, product=product)
        selus = []
        monkeypatch.setattr(gcn, "selu", lambda *a, f=gcn.selu: selus.append(1) or f(*a))
        taped = mc.gcn_forward(model, a_norm, x0, GradientTape())
        assert selus == [1] * len(model.weights)
        chained = mc.gcn_forward(model, a_norm, x0)
        assert len(selus) == len(model.weights)
        return taped, chained

    @pytest.mark.parametrize(
        "dims, sparse",
        [
            ([16, 256, 128, 64], False),  # (A H) W, then A (H W): scratch between GEMMs
            ([40, 256, 128, 64], True),  # sparse x0: A (H W) throughout
            ([300, 256, 128, 64], False),  # dense r > 256: A (H W) throughout
            ([8, 64, 128, 256], False),  # widening: (A H) W throughout
            ([20, 300, 200, 50], False),  # product blocks of 13 and 20 rows unless rounded
        ],
        ids=["dense", "sparse-x0", "dense-r300", "widening", "odd-widths"],
    )
    def test_same_bits_as_the_taped_loop(self, monkeypatch, dims, sparse):
        x0 = np.random.default_rng(7).normal(0, 1, (self.N, dims[0]))
        if sparse:
            x0[np.abs(x0) < 1.2] = 0.0
            x0 = sp.csr_matrix(x0)
        taped, chained = self.forward_both(monkeypatch, mc.init_model(dims, seed=5), x0)
        assert_same_bits([chained], [taped])

    @pytest.mark.parametrize(
        "dims, sparse",
        [([16, 256, 128, 64], False), ([40, 256, 128, 64], True), ([20, 300, 200, 50], False)],
        ids=["dense", "sparse-x0", "odd-widths"],
    )
    def test_below_the_pool_rows(self, monkeypatch, dims, sparse):
        # the real constants: products of 3000 rows split into blocks of 512 to 2048
        # rows on this thread (of 64 or 50 columns, one block), and no pool starts
        n = 3000
        assert n < gcn._POOL_MIN_ROWS
        a_norm = mc.normalized_adjacency(random_graph(n, 0.003, 31))
        x0 = np.random.default_rng(7).normal(0, 1, (n, dims[0]))
        if sparse:
            x0[np.abs(x0) < 1.2] = 0.0
            x0 = sp.csr_matrix(x0)
        model = mc.init_model(dims, seed=5)
        monkeypatch.setattr(gcn, "_pool", lambda: pytest.fail("pool"))
        taped = mc.gcn_forward(model, a_norm, x0, GradientTape())
        monkeypatch.setattr(gcn, "selu", lambda *a: pytest.fail("selu"))
        assert_same_bits([mc.gcn_forward(model, a_norm, x0)], [taped])

    def test_scratch_blocks_with_more_workers_than_cores(self, monkeypatch):
        # more runs than cores, each kernel writing its own scratch block: runs that
        # shared one would mix rows
        model = mc.init_model([16, 256, 128, 64], seed=5)
        x0 = np.random.default_rng(7).normal(0, 1, (self.N, 16))
        interval = sys.getswitchinterval()
        with ThreadPoolExecutor(7) as pool:
            monkeypatch.setattr(gcn, "_pool", lambda: pool)
            sys.setswitchinterval(1e-6)
            try:  # layer 0's chain: 12 blocks of 8 rows over 8 runs
                taped, chained = self.forward_both(monkeypatch, model, x0, workers=8, product=1024)
            finally:
                sys.setswitchinterval(interval)
        assert_same_bits([chained], [taped])

    def test_same_divergence_error(self, monkeypatch):
        model = mc.init_model([16, 256, 128, 64], seed=5)
        # layer 0's activations are positive and finite; layer 1's H W overflows to +inf
        np.abs(model.weights[0], out=model.weights[0])
        model.weights[1][:] = 1e308
        x0 = np.abs(np.random.default_rng(7).normal(0, 1, (self.N, 16)))
        g = random_graph(self.N, 0.1, 31)
        force_blocks(monkeypatch, workers=3, block=512, product=4096)
        messages = []
        for tape in (GradientTape(), None):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(gcn.DivergenceError, match="^non-finite activation in layer 1$"):
                    mc.gcn_forward(model, mc.normalized_adjacency(g), x0, tape)
            messages.append({str(w.message) for w in caught})
        assert messages[0] == messages[1] == {"overflow encountered in matmul"}

    @pytest.mark.parametrize("cols", [1, 3, 64, 100, 128, 256, 300, 1433, 1 << 19])
    def test_product_blocks_nest(self, cols):
        rows = gcn._product_rows(cols)
        assert rows & (rows - 1) == 0  # a power of two
        assert rows <= max(gcn._PRODUCT_ELEMENTS // cols, 1) < 2 * rows
