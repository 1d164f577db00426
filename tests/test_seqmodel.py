import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import grad_check
from affectseq import lanes, model, seqmodel
from affectseq.errors import ConfigError, DimensionError, DomainError
from affectseq.fusion import FusionConfig
from affectseq.model import ModelConfig, init_model_params, predict_batch, training_loss
from affectseq.numerics import ParamStore
from affectseq.rng import generator
from affectseq.seqmodel import (
    EncoderConfig,
    encode_batch_graph,
    gru_sequence,
    init_encoder_params,
    lstm_sequence,
)


def zero_cell(h, d, kind="gru", forget_bias=0.0):
    gates = ("z", "r", "h") if kind == "gru" else ("i", "f", "g", "o")
    cell = {}
    for gate in gates:
        cell[f"W_{gate}"] = np.zeros((h, d))
        cell[f"U_{gate}"] = np.zeros((h, h))
        cell[f"b_{gate}"] = np.full(h, forget_bias) if gate == "f" else np.zeros(h)
    return cell


def random_cell(h, d, kind, rng):
    return {k: rng.normal(size=v.shape) for k, v in zero_cell(h, d, kind).items()}


def make_encoder(config, seed=0, prefix="enc.m"):
    store = ParamStore()
    init_encoder_params(store, prefix, config, generator(seed, "init"))
    return store


def params_of(store):
    return dict(store.items())


SEQUENCE_OPS = {"gru": gru_sequence, "lstm": lstm_sequence}


class TestGruCell:
    """The GRU cell equations through ``gru_sequence``. A state other than
    zero needs a step to write it, so the cases about the previous state
    run two steps."""

    def test_one_step_matches_oracle(self):
        rng = np.random.default_rng(0)
        cell = random_cell(4, 3, "gru", rng)
        x = rng.normal(size=(5, 1, 3))
        hs = gru_sequence(x, cell)
        assert hs.shape == (5, 1, 4)
        for i in range(5):
            np.testing.assert_allclose(hs[i, 0], oracles.gru_step(x[i, 0], np.zeros(4), cell),
                                       atol=1e-15)

    def test_zero_weights_halve_state(self):
        # Step 1 writes a state through W_h alone. With every other weight
        # and bias zero, z = 1/2 and a zero input gives hc = 0, so step 2
        # halves the state.
        cell = zero_cell(3, 2)
        cell["W_h"] = np.array([[0.3, -0.8], [1.0, 0.5], [-2.0, 0.1]])
        x = np.array([[[1.0, 0.5], [0.0, 0.0]], [[-0.4, 2.0], [0.0, 0.0]]])
        hs = gru_sequence(x, cell)
        assert np.all(hs[:, 0] != 0.0)
        np.testing.assert_allclose(hs[:, 0], [oracles.gru_step(v, np.zeros(3), cell)
                                              for v in x[:, 0]], atol=1e-15)
        np.testing.assert_allclose(hs[:, 1], 0.5 * hs[:, 0], atol=1e-15)

    def test_zero_everything(self):
        hs = gru_sequence(np.zeros((1, 1, 2)), zero_cell(3, 2))
        np.testing.assert_array_equal(hs, np.zeros((1, 1, 3)))

    def test_saturated_update_gate_forgets_state(self):
        # z = sigmoid(50) takes the candidate wholesale: step 1 writes
        # tanh(W_h x), step 2's zero input has candidate 0 and wipes it.
        cell = zero_cell(3, 2)
        cell["b_z"] = np.full(3, 50.0)
        cell["W_h"] = np.array([[0.9, 0.0], [-0.7, 0.0], [0.2, 0.0]])
        hs = gru_sequence(np.array([[[1.0, 1.0], [0.0, 0.0]]]), cell)
        assert np.all(np.abs(hs[0, 0]) > 0.1)
        np.testing.assert_allclose(hs[:, 1], np.zeros((1, 3)), atol=1e-20)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            gru_sequence(np.zeros((1, 1, 4)), zero_cell(3, 2))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_state_bounded_from_zero_init(self, seed):
        # h is a convex combination of tanh outputs and zero-initialized
        # history, so every component stays strictly inside (-1, 1). Draws
        # stay moderate because float64 tanh rounds to exactly 1.0 once the
        # pre-activation passes ~19.
        rng = np.random.default_rng(seed)
        cell = random_cell(4, 3, "gru", rng)
        hs = gru_sequence(rng.normal(scale=2.0, size=(2, 20, 3)), cell)
        assert np.all(np.abs(hs) < 1.0)


class TestLstmCell:
    """The LSTM cell equations through ``lstm_sequence``; the cell state is
    read through the next step's output."""

    def test_one_step_matches_oracle(self):
        rng = np.random.default_rng(1)
        cell = random_cell(4, 3, "lstm", rng)
        x = rng.normal(size=(5, 1, 3))
        hs = lstm_sequence(x, cell)
        assert hs.shape == (5, 1, 4)
        for i in range(5):
            h, _ = oracles.lstm_step(x[i, 0], np.zeros(4), np.zeros(4), cell)
            np.testing.assert_allclose(hs[i, 0], h, atol=1e-15)

    def test_zero_params_zero_state(self):
        hs = lstm_sequence(np.zeros((1, 2, 2)), zero_cell(3, 2, "lstm", forget_bias=0.0))
        np.testing.assert_array_equal(hs, np.zeros((1, 2, 3)))

    def test_zero_params_half_cell(self):
        # Step 1 writes a cell state c through W_g alone; with every other
        # weight and bias zero, i = f = o = 1/2 and a zero input gives g = 0,
        # so step 2 halves the cell state: h = tanh(c / 2) / 2.
        cell = zero_cell(3, 2, "lstm", forget_bias=0.0)
        cell["W_g"] = np.array([[0.6, -1.0], [2.0, 0.1], [0.3, -0.4]])
        x = np.array([[[1.0, 0.5], [0.0, 0.0]], [[-0.3, 1.5], [0.0, 0.0]]])
        hs = lstm_sequence(x, cell)
        for i in range(2):
            h, c = oracles.lstm_step(x[i, 0], np.zeros(3), np.zeros(3), cell)
            assert np.all(c != 0.0)
            np.testing.assert_allclose(hs[i, 0], h, atol=1e-15)
            np.testing.assert_allclose(hs[i, 1], 0.5 * np.tanh(0.5 * c), atol=1e-15)

    def test_forget_bias_initialized_to_one(self):
        config = EncoderConfig(input_dim=2, hidden_units=(3,), cell_kind="lstm")
        store = make_encoder(config)
        np.testing.assert_array_equal(store.value("enc.m.l0.b_f"), np.ones(3))
        np.testing.assert_array_equal(store.value("enc.m.l0.b_i"), np.zeros(3))


def sequence_gradcheck(kind, batch, steps, last_only):
    # The input is a parameter too and every output is probed: each step's
    # state, or the final state alone with ``last_only``.
    rng = np.random.default_rng(2)
    store = ParamStore()
    store.add("x", rng.normal(size=(batch, steps, 3)))
    for name, value in random_cell(4, 3, kind, rng).items():
        store.add(name, 0.5 * value)
    probe = rng.normal(size=(batch, 4) if last_only else (batch, steps, 4))

    def loss(s):
        cell = params_of(s)
        x = cell.pop("x")
        out, bptt = SEQUENCE_OPS[kind](x, cell, last_only=last_only, keep=True)
        grads, dx = bptt(probe, True)
        return float((out * probe).sum()), {**grads, "x": dx}

    return grad_check(loss, store, eps=1e-5)


class TestSequenceOps:
    """``gru_sequence`` / ``lstm_sequence`` and their backward closures."""

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    @pytest.mark.parametrize("batch, steps", [(1, 4), (3, 1), (2, 5)])
    def test_gradcheck(self, kind, batch, steps):
        assert sequence_gradcheck(kind, batch, steps, last_only=False) < 1e-4

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    @pytest.mark.parametrize("batch, steps", [(1, 4), (3, 1), (2, 5)])
    def test_gradcheck_last_only(self, kind, batch, steps):
        assert sequence_gradcheck(kind, batch, steps, last_only=True) < 1e-4

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_keep_gives_the_plain_states(self, kind):
        rng = np.random.default_rng(3)
        cell = random_cell(4, 3, kind, rng)
        x = rng.normal(size=(2, 6, 3))
        const = SEQUENCE_OPS[kind](x, cell)
        assert type(const) is np.ndarray and const.shape == (2, 6, 4)
        last = SEQUENCE_OPS[kind](x, cell, last_only=True)
        np.testing.assert_array_equal(last, const[:, -1])
        for last_only, plain in ((False, const), (True, last)):
            kept, bptt = SEQUENCE_OPS[kind](x, cell, last_only=last_only, keep=True)
            assert callable(bptt)
            np.testing.assert_array_equal(kept, plain)


def mask_of(states, rng, rate):
    """An inverted-dropout mask for ``states``, drawn as one [T, B, D] block."""
    batch, steps, dim = states.shape
    return ((rng.random((steps, batch, dim)) >= rate) / (1.0 - rate)).transpose(1, 0, 2)


class TestLastOnly:
    """An encoder's top layer outputs only its final state. Its value and
    every gradient must be, bit for bit, those of the full-sequence op
    whose states meet a probe that is zero except at the last step."""

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    @pytest.mark.parametrize("hidden, rate", [((5,), 0.0), ((4, 5), 0.0), ((5,), 0.5),
                                              ((4, 5), 0.5)],
                             ids=["one-layer", "two-layer", "one-layer-dropout",
                                  "two-layer-dropout"])
    def test_matches_full_sequence_with_last_step_probe(self, kind, hidden, rate):
        config = EncoderConfig(input_dim=3, hidden_units=hidden, cell_kind=kind,
                               dropout_rate=rate)
        store = make_encoder(config, seed=13)
        seqs = generator(14, "seqs").normal(size=(6, 7, 3))
        probe = generator(15, "probe").normal(size=(6, hidden[-1]))

        final, backward = encode_batch_graph(seqs, config, params_of(store), "enc.m",
                                             rng=generator(16, "d"), keep=True)
        grads = backward(probe)

        # the same layers run over every step, then backpropagated by hand
        rng = generator(16, "d")
        states, layers = seqs, []
        for layer in range(len(hidden)):
            mask = mask_of(states, rng, rate) if rate > 0.0 else 1.0
            states = states * mask
            cell = {name.rpartition(".")[2]: value for name, value in store.items()
                    if name.startswith(f"enc.m.l{layer}.")}
            states, bptt = SEQUENCE_OPS[kind](states, cell, keep=True)
            layers.append((mask, bptt))
        g = np.zeros((6, 7, hidden[-1]))
        g[:, -1] = probe
        full_grads = {}
        for layer in reversed(range(len(hidden))):
            mask, bptt = layers[layer]
            cell_grads, g = bptt(g, layer > 0)
            full_grads.update((f"enc.m.l{layer}.{key}", grad) for key, grad in cell_grads.items())
            if layer:
                g = g * mask

        np.testing.assert_array_equal(final, states[:, -1])
        assert sorted(grads) == sorted(full_grads) == store.names()
        for name in store.names():
            np.testing.assert_array_equal(grads[name], full_grads[name], err_msg=name)


class TestDropout:
    """Inverted dropout on each layer's input inside ``encode_batch_graph``."""

    def _config(self, rate, **kw):
        base = dict(input_dim=3, hidden_units=(4, 3), dropout_rate=rate)
        base.update(kw)
        return EncoderConfig(**base)

    def test_eval_is_identity(self):
        config = self._config(0.5)
        store = make_encoder(config, seed=1)
        seqs = generator(2, "seqs").normal(size=(4, 5, 3))
        dropped = encode_batch_graph(seqs, config, params_of(store), "enc.m", rng=None)
        plain = encode_batch_graph(seqs, self._config(0.0), params_of(store), "enc.m")
        np.testing.assert_array_equal(dropped, plain)

    def test_zero_rate_is_identity(self):
        config = self._config(0.0)
        store = make_encoder(config, seed=1)
        seqs = generator(2, "seqs").normal(size=(4, 5, 3))
        train = encode_batch_graph(seqs, config, params_of(store), "enc.m",
                                   rng=generator(0, "d"))
        plain = encode_batch_graph(seqs, config, params_of(store), "enc.m")
        np.testing.assert_array_equal(train, plain)

    def test_rate_domain(self):
        with pytest.raises(DomainError):
            self._config(1.0)

    def test_preserves_expectation(self):
        # Inverted dropout: E[mask * x] = x, checked by Monte Carlo. With
        # every weight zero, z = 1/2 and hc = 0, so d(sum h)/dW_h[0, j] is
        # exactly half the sum of the masked inputs x_j * mask_j over the
        # batch: the gradient reads the masks back out of the backward pass. The
        # per-entry bound is a max over 1000 entries, so the trial count
        # leaves the [0.9, 1.1] window several sigma of headroom.
        config = EncoderConfig(input_dim=1000, hidden_units=(1,),
                               dropout_rate=0.5)
        store = make_encoder(config)
        for name in store.names():
            store.value(name)[...] = 0.0
        rng = generator(123, "dropout-mc")
        total = np.zeros(1000)
        trials, batch = 4000, 500
        for _ in range(trials // batch):
            h, backward = encode_batch_graph(np.ones((batch, 1, 1000)), config,
                                             params_of(store), "enc.m", rng=rng, keep=True)
            total += 2.0 * backward(np.ones_like(h))["enc.m.l0.W_h"][0]
        mean = total / trials
        assert mean.min() > 0.9 and mean.max() < 1.1


class TestEncodeSequence:
    """``encode_batch_graph`` over [B, T, D] windows."""

    def _config(self, **kw):
        base = dict(input_dim=3, hidden_units=(4,), cell_kind="gru")
        base.update(kw)
        return EncoderConfig(**base)

    def test_t1_equals_single_step(self):
        config = self._config()
        store = make_encoder(config, seed=2)
        x = np.array([[[0.3, -0.2, 0.8]], [[1.0, 0.5, -0.1]]])
        h = encode_batch_graph(x, config, params_of(store), "enc.m")
        cell = oracles.cell_params(store, "enc.m.l0")
        for i in range(2):
            np.testing.assert_allclose(h[i], oracles.gru_step(x[i, 0], np.zeros(4), cell),
                                       atol=1e-15)

    def test_eval_deterministic_with_dropout_rate(self):
        config = self._config(dropout_rate=0.5)
        store = make_encoder(config, seed=3)
        seqs = generator(1, "seq").normal(size=(2, 5, 3))
        a = encode_batch_graph(seqs, config, params_of(store), "enc.m", rng=None)
        b = encode_batch_graph(seqs, config, params_of(store), "enc.m", rng=None)
        np.testing.assert_array_equal(a, b)

    def test_train_deterministic_given_seed(self):
        config = self._config(dropout_rate=0.5)
        store = make_encoder(config, seed=3)
        seqs = generator(1, "seq").normal(size=(2, 5, 3))

        def run():
            return encode_batch_graph(seqs, config, params_of(store), "enc.m",
                                      rng=generator(7, "encoder-dropout"))

        np.testing.assert_array_equal(run(), run())

    def test_unroll_matches_manual_steps(self):
        config = self._config()
        store = make_encoder(config, seed=4)
        seqs = generator(2, "seq").normal(size=(3, 3, 3))
        p = oracles.cell_params(store, "enc.m.l0")
        for batch in (1, 3):
            out = encode_batch_graph(seqs[:batch], config, params_of(store), "enc.m")
            for i in range(batch):
                h = np.zeros(4)
                for t in range(3):
                    h = oracles.gru_step(seqs[i, t], h, p)
                np.testing.assert_allclose(out[i], h, atol=1e-15)

    def test_two_layer_lstm_matches_manual(self):
        config = self._config(cell_kind="lstm", hidden_units=(4, 2))
        store = make_encoder(config, seed=5)
        seqs = generator(3, "seq").normal(size=(3, 4, 3))
        p0 = oracles.cell_params(store, "enc.m.l0")
        p1 = oracles.cell_params(store, "enc.m.l1")
        for batch in (1, 3):
            out = encode_batch_graph(seqs[:batch], config, params_of(store), "enc.m")
            for i in range(batch):
                h0, cc0 = np.zeros(4), np.zeros(4)
                h1, cc1 = np.zeros(2), np.zeros(2)
                for t in range(4):
                    h0, cc0 = oracles.lstm_step(seqs[i, t], h0, cc0, p0)
                    h1, cc1 = oracles.lstm_step(h0, h1, cc1, p1)
                np.testing.assert_allclose(out[i], h1, atol=1e-15)

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_batched_graph_matches_pure_path(self, kind):
        config = self._config(cell_kind=kind, hidden_units=(4, 3))
        store = make_encoder(config, seed=6)
        seqs = generator(4, "seqs").normal(size=(5, 6, 3))
        batched = encode_batch_graph(seqs, config, params_of(store), "enc.m")
        single = encode_batch_graph(seqs[:1], config, params_of(store), "enc.m")
        for i in range(5):
            np.testing.assert_allclose(batched[i], oracles.encode(seqs[i], config, store, "enc.m"),
                                       atol=1e-14)
        np.testing.assert_allclose(single[0], oracles.encode(seqs[0], config, store, "enc.m"),
                                   atol=1e-14)

    def test_batched_dropout_deterministic_per_generator_seed(self):
        config = self._config(dropout_rate=0.5, hidden_units=(4, 3))
        store = make_encoder(config, seed=8)
        seqs = generator(9, "seqs").normal(size=(4, 5, 3))

        def run(seed):
            return encode_batch_graph(seqs, config, params_of(store), "enc.m",
                                      rng=generator(seed, "d"))

        np.testing.assert_array_equal(run(1), run(1))
        assert not np.array_equal(run(1), run(2))
        eval_out = encode_batch_graph(seqs, config, params_of(store), "enc.m")
        assert not np.array_equal(run(1), eval_out)


    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_train_dropout_matches_oracle_with_per_step_masks(self, kind):
        config = self._config(cell_kind=kind, hidden_units=(4, 3), dropout_rate=0.5)
        store = make_encoder(config, seed=10)
        seqs = generator(11, "seqs").normal(size=(5, 6, 3))
        out = encode_batch_graph(seqs, config, params_of(store), "enc.m",
                                 rng=generator(12, "d"))
        # The masks in the order a per-step unroll draws them: layer by
        # layer, one [B, D] draw per step.
        rng = generator(12, "d")
        masks = [np.stack([(rng.random((5, d)) >= 0.5) / 0.5 for _ in range(6)], axis=1)
                 for d in (3, 4)]
        for i in range(5):
            np.testing.assert_allclose(
                out[i], oracles.encode(seqs[i], config, store, "enc.m", [m[i] for m in masks]),
                atol=1e-14)


class TestEncoderGradients:
    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    @pytest.mark.parametrize("batch, steps, hidden, rate", [
        (2, 5, (3, 3), 0.0), (1, 5, (3, 3), 0.0), (2, 1, (3, 3), 0.0), (2, 4, (3,), 0.0),
        (2, 5, (3, 3), 0.4),
    ], ids=["two-layer", "b1", "t1", "one-layer", "train-dropout"])
    def test_gradcheck(self, kind, batch, steps, hidden, rate):
        # Training-pass dropout draws its masks from a fresh generator with
        # a fixed seed on every call, so the loss is deterministic; without
        # dropout the pass is an inference pass.
        config = EncoderConfig(input_dim=4, hidden_units=hidden, cell_kind=kind,
                               dropout_rate=rate)
        store = make_encoder(config, seed=7)
        seqs = generator(5, "seqs").normal(size=(batch, steps, 4))
        probe = generator(6, "probe").normal(size=(batch, hidden[-1]))

        def loss(s):
            h, backward = encode_batch_graph(seqs, config, params_of(s), "enc.m",
                                             rng=generator(8, "dropout") if rate > 0.0 else None,
                                             keep=True)
            return float((h * probe).sum()), backward(probe)

        assert grad_check(loss, store, eps=1e-5) < 1e-4


class TestEncoderConfig:
    def test_layer_count_bounds(self):
        with pytest.raises(ConfigError):
            EncoderConfig(input_dim=3, hidden_units=(4, 4, 4))

    def test_bad_cell(self):
        with pytest.raises(ConfigError):
            EncoderConfig(input_dim=3, hidden_units=(4,), cell_kind="tcn")


class TestStridedWindows:
    """Prediction hands an encoder the overlapping windows of a movie as one
    strided view, whose first layer projects each distinct row once. The
    states must be those of the same windows copied, bit for bit, whenever
    BLAS rounds the shared projection's rows as it rounds the copy's
    (``oracles.projections_agree``; the GEMMs differ in their row count). A
    row count that sends one GEMM to another BLAS kernel changes how its
    sums round, so there each state must lie within the drift bound of
    ``oracles.encoder_drift``: a row projection's rounding, carried to first
    order through the steps and layers. The pinned example, a two-layer
    GRU at H=128, drifts by 1.9e-12."""

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["gru", "lstm"]), batch=st.integers(1, 16),
           steps=st.integers(1, 16),
           dim=st.one_of(st.integers(1, 80), st.sampled_from([1582, 2048])),
           hidden=st.one_of(st.integers(1, 12), st.just(128)),
           layers=st.integers(1, 2), seed=st.integers(0, 2**16))
    @example(kind="gru", batch=2, steps=7, dim=57, hidden=128, layers=2, seed=0)
    def test_view_matches_copied_windows(self, kind, batch, steps, dim, hidden, layers, seed):
        rng = np.random.default_rng(seed)
        view = oracles.sliding_windows(rng.normal(size=(batch + steps - 1, dim)), steps)
        assert view.strides[0] == view.strides[1] and view.shape == (batch, steps, dim)
        cells = [random_cell(hidden, dim if layer == 0 else hidden, kind, rng)
                 for layer in range(layers)]
        copy = oracles.copied_windows(view)
        strided, copied = view, copy
        for cell in cells:
            strided = SEQUENCE_OPS[kind](strided, cell)
            copied = SEQUENCE_OPS[kind](copied, cell)
        if oracles.projections_agree(view, cells[0], kind):
            event("projection rows agree: states compared bit for bit")
            np.testing.assert_array_equal(strided, copied)
        else:
            event("BLAS rounds the row counts differently: states within the drift bound")
            _, bound = oracles.encoder_drift(copy, cells, kind)
            assert np.all(np.abs(strided - copied) <= bound)

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_encoder_reads_the_view_without_copying_it(self, kind, monkeypatch):
        """The first layer projects the view's [B+T-1, D] table in place."""
        rows = np.random.default_rng(1).normal(size=(12, 5))
        view = oracles.sliding_windows(rows, 4)
        projected = []
        project = seqmodel._project

        def recorded(table, ws, b):
            projected.append(table)
            return project(table, ws, b)

        monkeypatch.setattr(seqmodel, "_project", recorded)
        config = EncoderConfig(input_dim=5, hidden_units=(3,), cell_kind=kind)
        encode_batch_graph(view, config, dict(make_encoder(config).items()), "enc.m")
        assert projected[0].shape == (12, 5) and np.shares_memory(projected[0], rows)


class TestPerStepProjection:
    """A copied batch's input projection runs inside the recurrence, one
    [B, D] GEMM per gate on each step's rows. No budget cuts the steps into
    blocks, so an encoder's bits depend neither on T nor on how many
    encoders run beside it."""

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    @pytest.mark.parametrize("last_only", [False, True], ids=["sequence", "last-only"])
    @pytest.mark.parametrize("batch, steps, dim, hidden", [(16, 12, 8, 32), (40, 6, 24, 4),
                                                           (9, 8, 3, 5)])
    def test_copied_batch_projects_each_step_once(self, monkeypatch, kind, last_only, batch,
                                                  steps, dim, hidden):
        """An op that keeps its state, over a copied batch, projects B rows a step, and its
        first k states are those of the batch's first k steps alone, bit
        for bit."""
        rng = np.random.default_rng(17)
        x = rng.normal(size=(batch, steps, dim))
        cell = {name: 0.5 * value for name, value in random_cell(hidden, dim, kind, rng).items()}
        rows = []
        project = seqmodel._project

        def recorded(table, ws, b):
            rows.append(table.shape[0])
            return project(table, ws, b)

        monkeypatch.setattr(seqmodel, "_project", recorded)
        out, _ = SEQUENCE_OPS[kind](x, cell, last_only=last_only, keep=True)
        assert rows == [batch] * steps
        states = SEQUENCE_OPS[kind](x, cell)
        np.testing.assert_array_equal(out, states[:, -1] if last_only else states)
        for k in (1, steps // 2, steps - 1):
            prefix = SEQUENCE_OPS[kind](x[:, :k], cell, last_only=last_only)
            np.testing.assert_array_equal(prefix, states[:, k - 1] if last_only
                                          else states[:, :k], err_msg=f"{k} steps")

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_each_layer_projects_each_step_once(self, monkeypatch, kind, training):
        batch, steps, dim, hidden = 9, 7, 4, (5, 3)
        shapes = []
        project = seqmodel._project

        def recorded(table, ws, b):
            shapes.append(table.shape)
            return project(table, ws, b)

        monkeypatch.setattr(seqmodel, "_project", recorded)
        config = EncoderConfig(input_dim=dim, hidden_units=hidden, cell_kind=kind,
                               dropout_rate=0.5)
        store = make_encoder(config)
        seqs = np.random.default_rng(3).normal(size=(batch, steps, dim))
        encode_batch_graph(seqs, config, params_of(store), "enc.m",
                           generator(2, "masks") if training else None, keep=training)
        assert shapes == [(batch, width) for width in (dim, hidden[0]) for _ in range(steps)]

    @staticmethod
    def first_encoder(kind, batch, steps, dim, hidden, count):
        """The first encoder's training-pass state and its parameters'
        gradients from a fixed probe, in a model of ``count`` modalities
        whose encoders all run at once."""
        encoders = tuple((name, EncoderConfig(input_dim=dim, hidden_units=(hidden,),
                                              cell_kind=kind, dropout_rate=0.5))
                         for name in ("audio", "image", "face")[:count])
        config = ModelConfig(encoders, FusionConfig(), sequence_length=steps)
        params = params_of(init_model_params(config, 3))
        rng = generator(5, "windows")
        windows = {name: rng.normal(size=(batch, steps, dim)) for name, _ in encoders}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lanes, "usable_cpus", lambda: 8)
            state, backward = model.encode_states(params, config, windows, generator(9, "step"),
                                                  keep=True)[0]
        return state, backward(generator(6, "probe").normal(size=(batch, hidden)))

    @settings(max_examples=12, deadline=None)
    @given(kind=st.sampled_from(["gru", "lstm"]), batch=st.sampled_from([24, 64, 128]),
           steps=st.sampled_from([10, 30]), dim=st.sampled_from([40, 57, 64]),
           hidden=st.sampled_from([4, 16, 32]))
    @example(kind="gru", batch=24, steps=30, dim=64, hidden=4)
    def test_first_encoder_does_not_depend_on_the_modality_count(self, kind, batch, steps,
                                                                 dim, hidden):
        """Each of a model's encoders draws from the ``rng.spawn`` child of
        its position, the same child at any modality count, and projects
        its own rows. The pinned example is one where a projection budget
        shared among the encoders moved the first state by 6.0e-16 between
        one and three modalities."""
        state, grads = self.first_encoder(kind, batch, steps, dim, hidden, 1)
        for count in (2, 3):
            other, other_grads = self.first_encoder(kind, batch, steps, dim, hidden, count)
            np.testing.assert_array_equal(other, state, err_msg=f"{count} modalities")
            assert sorted(other_grads) == sorted(grads)
            for name, grad in grads.items():
                np.testing.assert_array_equal(other_grads[name], grad,
                                              err_msg=f"{count} modalities: {name}")


class TestTrainingMemory:
    """One training step holds the state its fused ops keep and little
    more. With D-wide modalities, one layer of H units, dropout and
    batch norm (run3), that state is float64 [B, T, D + 5H] per modality
    for the GRU (the masked input, the state before each step, r * h and
    three gate activations) and [B, T, D + 6H] for the LSTM (the cell
    states in place of r * h, and four gates). The bound adds 4 MiB for
    transients: each running encoder's [B, G*H] projection of one step and
    that step's temporaries, and the graph's own arrays. Keeping state
    time-major, or a separate array of pre-activation gradients, or a zero
    [B, T, H] gradient for the top layer's output, breaks it."""

    @staticmethod
    def peak(kind, hidden, batch, steps, dim, modalities=2):
        """tracemalloc peak of one run3-like ``training_loss`` over
        ``modalities`` encoders, all running at once whatever the host's
        CPU count."""
        encoders = tuple((name, EncoderConfig(input_dim=dim, hidden_units=hidden,
                                              cell_kind=kind, dropout_rate=0.5))
                         for name in ("audio", "image", "face")[:modalities])
        config = ModelConfig(encoders, FusionConfig(enable_batchnorm=True, dropout_rate=0.5),
                             sequence_length=steps)
        store = init_model_params(config, 3)
        rng = generator(5, "windows")
        windows = {name: rng.normal(size=(batch, steps, dim)) for name, _ in encoders}
        targets = rng.uniform(-0.9, 0.9, size=(batch, 2))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lanes, "usable_cpus", lambda: modalities)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                training_loss(windows, targets, store, config, generator(9, "mask"))
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

    @pytest.mark.parametrize("kind, per_row, modalities", [("gru", 5, 2), ("lstm", 6, 2),
                                                           ("gru", 5, 3)],
                             ids=["gru-5", "lstm-6", "gru-5-three-modalities"])
    def test_training_loss_peak(self, kind, per_row, modalities):
        batch, steps, dim, hidden = 64, 30, 8, 64
        state = modalities * 8 * batch * steps * (dim + per_row * hidden)
        peak = self.peak(kind, (hidden,), batch, steps, dim, modalities)
        assert peak < state + (4 << 20)

    def test_two_layer_backward_peak(self):
        """Two LSTM layers keep [B, T, D + 15H] per modality: the masked
        input, layer 0's state before each step, cell states, four gates
        and output, the mask on that output and the masked result, then
        layer 1's state, cell states and gates. Backward adds a few
        [B, T, H] arrays: per encoder, the gradient of the masked output,
        which the mask scales in place and layer 0 reads as it is, and the
        two encoders backpropagate at once."""
        batch, steps, dim, hidden = 64, 30, 8, 64
        state = 2 * 8 * batch * steps * (dim + 15 * hidden)
        in_flight = 3 * 8 * batch * steps * hidden
        peak = self.peak("lstm", (hidden, hidden), batch, steps, dim)
        assert peak < state + in_flight + (4 << 20)

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_masked_gradient_scaled_in_place(self, kind):
        """Backward through a two-layer encoder with dropout allocates
        less than two [B, T, H] arrays beyond what its forward kept: one
        for the gradient of layer 0's output, and less than one of
        temporaries. The mask on that output scales the gradient in
        place; a scaled copy would sit beside it while layer 1's state is
        still alive, and break the bound."""
        batch, steps, dim, hidden = 64, 30, 8, 64
        config = EncoderConfig(input_dim=dim, hidden_units=(hidden, hidden), cell_kind=kind,
                               dropout_rate=0.5)
        params = params_of(make_encoder(config))
        seqs = generator(5, "windows").normal(size=(batch, steps, dim))
        h, backward = encode_batch_graph(seqs, config, params, "enc.m", generator(9, "mask"),
                                         keep=True)
        g = np.ones_like(h)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            backward(g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * batch * steps * hidden


class TestPredictionMemory:
    """A prediction pass keeps no per-step state for a backward pass, and
    projects a copied input one step at a time. Over copied windows a
    two-layer encoder's peak stays below the lower layer's [B, T, H]
    output, the upper layer's input, plus the upper layer's whole
    [B, T, G*H] projection: projecting the copied batch whole breaks it."""

    @pytest.mark.parametrize("kind, gates", [("gru", 3), ("lstm", 4)])
    def test_predict_batch_projects_no_whole_layer(self, kind, gates):
        batch, steps, dim, hidden = 64, 30, 8, 64
        encoder = EncoderConfig(input_dim=dim, hidden_units=(hidden, hidden), cell_kind=kind)
        config = ModelConfig((("audio", encoder),), FusionConfig(enable_batchnorm=True),
                             sequence_length=steps)
        store = init_model_params(config, 3)
        windows = {"audio": generator(5, "windows").normal(size=(batch, steps, dim))}
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            predict_batch(store, config, windows)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 8 * batch * steps * hidden + 8 * batch * steps * gates * hidden
