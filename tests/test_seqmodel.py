import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from affectseq import autodiff as ad
from affectseq.errors import ConfigError, DataError, DimensionError, DomainError
from affectseq.numerics import ParamStore, grad_check
from affectseq.rng import generator
from affectseq.seqmodel import (
    BatchNormState,
    EncoderConfig,
    batch_norm_graph,
    encode_batch_graph,
    gru_step_graph,
    init_encoder_params,
    lstm_step_graph,
)


def zero_cell(h, d, kind="gru", forget_bias=0.0):
    gates = ("z", "r", "h") if kind == "gru" else ("i", "f", "g", "o")
    cell = {}
    for gate in gates:
        cell[f"W_{gate}"] = np.zeros((h, d))
        cell[f"U_{gate}"] = np.zeros((h, h))
        cell[f"b_{gate}"] = np.full(h, forget_bias) if gate == "f" else np.zeros(h)
    return cell


def make_encoder(config, seed=0, prefix="enc.m"):
    store = ParamStore()
    init_encoder_params(store, prefix, config, generator(seed, "init"))
    return store


def leaves_of(store):
    return {n: ad.Var(store.value(n)) for n in store.names()}


def gru_step(x, h_prev, cell):
    """One step of the graph op on [B, D] / [B, H] rows."""
    return ad.value(gru_step_graph(x, h_prev, cell))


def lstm_step(x, h_prev, c_prev, cell):
    h, c = lstm_step_graph(x, h_prev, c_prev, cell)
    return ad.value(h), ad.value(c)


class TestGruCell:
    def test_zero_weights_halve_state(self):
        v = np.array([[0.3, -0.8, 0.5], [1.0, 0.0, -2.0]])
        h = gru_step(np.zeros((2, 2)), v, zero_cell(3, 2))
        np.testing.assert_allclose(h, 0.5 * v, atol=1e-15)

    def test_zero_everything(self):
        h = gru_step(np.zeros((1, 2)), np.zeros((1, 3)), zero_cell(3, 2))
        np.testing.assert_array_equal(h, np.zeros((1, 3)))

    def test_saturated_update_gate_forgets_state(self):
        cell = zero_cell(3, 2)
        cell["b_z"] = np.full(3, 50.0)
        h = gru_step(np.ones((1, 2)), np.array([[0.9, -0.7, 0.2]]), cell)
        np.testing.assert_allclose(h, np.zeros((1, 3)), atol=1e-20)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            gru_step(np.zeros((1, 4)), np.zeros((1, 3)), zero_cell(3, 2))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_state_bounded_from_zero_init(self, seed):
        # h is a convex combination of tanh outputs and zero-initialized
        # history, so every component stays strictly inside (-1, 1). Draws
        # stay moderate because float64 tanh rounds to exactly 1.0 once the
        # pre-activation passes ~19.
        rng = np.random.default_rng(seed)
        cell = {k: rng.normal(scale=1.0, size=v.shape)
                for k, v in zero_cell(4, 3).items()}
        h = np.zeros((2, 4))
        for _ in range(20):
            h = gru_step(rng.normal(scale=2.0, size=(2, 3)), h, cell)
            assert np.all(np.abs(h) < 1.0)


class TestLstmCell:
    def test_zero_params_zero_state(self):
        h, c = lstm_step(np.zeros((1, 2)), np.zeros((1, 3)), np.zeros((1, 3)),
                         zero_cell(3, 2, "lstm", forget_bias=0.0))
        np.testing.assert_array_equal(h, np.zeros((1, 3)))
        np.testing.assert_array_equal(c, np.zeros((1, 3)))

    def test_zero_params_half_cell(self):
        v = np.array([[0.6, -1.2, 0.1], [2.0, 0.0, -0.4]])
        h, c = lstm_step(np.zeros((2, 2)), np.zeros((2, 3)), v,
                         zero_cell(3, 2, "lstm", forget_bias=0.0))
        np.testing.assert_allclose(c, 0.5 * v, atol=1e-15)
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * v), atol=1e-15)

    def test_forget_bias_initialized_to_one(self):
        config = EncoderConfig(input_dim=2, hidden_units=(3,), cell_kind="lstm",
                               sequence_length=4)
        store = make_encoder(config)
        np.testing.assert_array_equal(store.value("enc.m.l0.b_f"), np.ones(3))
        np.testing.assert_array_equal(store.value("enc.m.l0.b_i"), np.zeros(3))


class TestDropout:
    """Inverted dropout on each layer's input inside ``encode_batch_graph``."""

    def _config(self, rate, **kw):
        base = dict(input_dim=3, hidden_units=(4, 3), sequence_length=5, dropout_rate=rate)
        base.update(kw)
        return EncoderConfig(**base)

    def test_eval_is_identity(self):
        config = self._config(0.5)
        store = make_encoder(config, seed=1)
        seqs = generator(2, "seqs").normal(size=(4, 5, 3))
        dropped = encode_batch_graph(seqs, config, leaves_of(store), "enc.m", mode="eval").value
        plain = encode_batch_graph(seqs, self._config(0.0), leaves_of(store), "enc.m").value
        np.testing.assert_array_equal(dropped, plain)

    def test_zero_rate_is_identity(self):
        config = self._config(0.0)
        store = make_encoder(config, seed=1)
        seqs = generator(2, "seqs").normal(size=(4, 5, 3))
        train = encode_batch_graph(seqs, config, leaves_of(store), "enc.m", mode="train",
                                   mask_rng=generator(0, "d")).value
        plain = encode_batch_graph(seqs, config, leaves_of(store), "enc.m").value
        np.testing.assert_array_equal(train, plain)

    def test_rate_domain(self):
        with pytest.raises(DomainError):
            self._config(1.0)

    def test_preserves_expectation(self):
        # Inverted dropout: E[mask * x] = x, checked by Monte Carlo. With
        # every weight zero, z = 1/2 and hc = 0, so d(sum h)/dW_h[0, j] is
        # exactly half the sum of the masked inputs x_j * mask_j over the
        # batch: the gradient reads the masks back out of the graph. The
        # per-entry bound is a max over 1000 entries, so the trial count
        # leaves the [0.9, 1.1] window several sigma of headroom.
        config = EncoderConfig(input_dim=1000, hidden_units=(1,), sequence_length=1,
                               dropout_rate=0.5)
        store = make_encoder(config)
        for name in store.names():
            store.value(name)[...] = 0.0
        rng = generator(123, "dropout-mc")
        total = np.zeros(1000)
        trials, batch = 4000, 500
        for _ in range(trials // batch):
            leaves = leaves_of(store)
            h = encode_batch_graph(np.ones((batch, 1, 1000)), config, leaves, "enc.m",
                                   mode="train", mask_rng=rng)
            ad.backward(ad.sum_all(h))
            total += 2.0 * leaves["enc.m.l0.W_h"].grad[0]
        mean = total / trials
        assert mean.min() > 0.9 and mean.max() < 1.1


class TestEncodeSequence:
    """``encode_batch_graph`` over [B, T, D] windows."""

    def _config(self, **kw):
        base = dict(input_dim=3, hidden_units=(4,), cell_kind="gru", sequence_length=5)
        base.update(kw)
        return EncoderConfig(**base)

    def test_t1_equals_single_step(self):
        config = self._config(sequence_length=1)
        store = make_encoder(config, seed=2)
        x = np.array([[[0.3, -0.2, 0.8]], [[1.0, 0.5, -0.1]]])
        h = encode_batch_graph(x, config, leaves_of(store), "enc.m").value
        cell = oracles.cell_params(store, "enc.m.l0")
        np.testing.assert_array_equal(h, gru_step(x[:, 0], np.zeros((2, 4)), cell))

    def test_eval_deterministic_with_dropout_rate(self):
        config = self._config(dropout_rate=0.5)
        store = make_encoder(config, seed=3)
        seqs = generator(1, "seq").normal(size=(2, 5, 3))
        a = encode_batch_graph(seqs, config, leaves_of(store), "enc.m", mode="eval").value
        b = encode_batch_graph(seqs, config, leaves_of(store), "enc.m", mode="eval").value
        np.testing.assert_array_equal(a, b)

    def test_train_deterministic_given_seed(self):
        config = self._config(dropout_rate=0.5)
        store = make_encoder(config, seed=3)
        seqs = generator(1, "seq").normal(size=(2, 5, 3))

        def run():
            return encode_batch_graph(seqs, config, leaves_of(store), "enc.m", mode="train",
                                      mask_rng=generator(7, "encoder-dropout")).value

        np.testing.assert_array_equal(run(), run())

    def test_unroll_matches_manual_steps(self):
        config = self._config(sequence_length=3)
        store = make_encoder(config, seed=4)
        seqs = generator(2, "seq").normal(size=(3, 3, 3))
        p = oracles.cell_params(store, "enc.m.l0")
        for batch in (1, 3):
            out = encode_batch_graph(seqs[:batch], config, leaves_of(store), "enc.m").value
            for i in range(batch):
                h = np.zeros(4)
                for t in range(3):
                    h = oracles.gru_step(seqs[i, t], h, p)
                np.testing.assert_allclose(out[i], h, atol=1e-15)

    def test_two_layer_lstm_matches_manual(self):
        config = self._config(cell_kind="lstm", hidden_units=(4, 2), sequence_length=4)
        store = make_encoder(config, seed=5)
        seqs = generator(3, "seq").normal(size=(3, 4, 3))
        p0 = oracles.cell_params(store, "enc.m.l0")
        p1 = oracles.cell_params(store, "enc.m.l1")
        for batch in (1, 3):
            out = encode_batch_graph(seqs[:batch], config, leaves_of(store), "enc.m").value
            for i in range(batch):
                h0, cc0 = np.zeros(4), np.zeros(4)
                h1, cc1 = np.zeros(2), np.zeros(2)
                for t in range(4):
                    h0, cc0 = oracles.lstm_step(seqs[i, t], h0, cc0, p0)
                    h1, cc1 = oracles.lstm_step(h0, h1, cc1, p1)
                np.testing.assert_allclose(out[i], h1, atol=1e-15)

    def test_wrong_length_rejected(self):
        config = self._config()
        store = make_encoder(config)
        with pytest.raises(DimensionError):
            encode_batch_graph(np.zeros((1, 4, 3)), config, leaves_of(store), "enc.m")

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_batched_graph_matches_pure_path(self, kind):
        config = self._config(cell_kind=kind, hidden_units=(4, 3), sequence_length=6)
        store = make_encoder(config, seed=6)
        seqs = generator(4, "seqs").normal(size=(5, 6, 3))
        batched = encode_batch_graph(seqs, config, leaves_of(store), "enc.m").value
        single = encode_batch_graph(seqs[:1], config, leaves_of(store), "enc.m").value
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
            return encode_batch_graph(seqs, config, leaves_of(store), "enc.m",
                                      mode="train", mask_rng=generator(seed, "d")).value

        np.testing.assert_array_equal(run(1), run(1))
        assert not np.array_equal(run(1), run(2))
        eval_out = encode_batch_graph(seqs, config, leaves_of(store), "enc.m").value
        assert not np.array_equal(run(1), eval_out)


class TestEncoderGradients:
    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_two_layer_gradcheck(self, kind):
        config = EncoderConfig(input_dim=4, hidden_units=(3, 3), cell_kind=kind,
                               sequence_length=5)
        store = make_encoder(config, seed=7)
        seqs = generator(5, "seqs").normal(size=(2, 5, 4))
        probe = generator(6, "probe").normal(size=(2, 3))

        def loss(s):
            leaves = {n: ad.Var(s.value(n)) for n in s.names()}
            h = encode_batch_graph(seqs, config, leaves, "enc.m")
            out = ad.sum_all(ad.mul(h, probe))
            ad.backward(out)
            for n, leaf in leaves.items():
                if leaf.grad is not None:
                    s.grad(n)[...] += leaf.grad
            return float(out.value)

        assert grad_check(loss, store, eps=1e-5) < 1e-4


def batch_norm(x, state, mode):
    return ad.value(batch_norm_graph(x, state, state.gamma, state.beta, mode))


class TestBatchNorm:
    def _state(self, f=3, **kw):
        return BatchNormState(
            gamma=np.ones(f), beta=np.zeros(f),
            running_mean=np.zeros(f), running_var=np.ones(f), **kw,
        )

    def test_identity_on_standardized_batch(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 3))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        state = self._state(epsilon=1e-5)
        out = batch_norm(x, state, "train")
        assert np.max(np.abs(out - x)) < 1e-4

    def test_constant_column_collapses_to_beta(self):
        state = self._state()
        state.beta = np.full(3, 0.3)
        out = batch_norm(np.full((8, 3), 7.7), state, "train")
        np.testing.assert_allclose(out, 0.3, atol=1e-12)

    def test_running_stats_match_hand_ema(self):
        state = self._state(momentum=0.9)
        rng = np.random.default_rng(1)
        b1 = rng.normal(size=(16, 3))
        b2 = rng.normal(size=(16, 3))
        batch_norm(b1, state, "train")
        batch_norm(b2, state, "train")
        mean = 0.9 * (0.9 * 0.0 + 0.1 * b1.mean(axis=0)) + 0.1 * b2.mean(axis=0)
        var = 0.9 * (0.9 * 1.0 + 0.1 * b1.var(axis=0)) + 0.1 * b2.var(axis=0)
        np.testing.assert_allclose(state.running_mean, mean, atol=1e-12)
        np.testing.assert_allclose(state.running_var, var, atol=1e-12)

    def test_train_output_moments(self):
        # Output variance is gamma^2 * v/(v+eps): the 1e-6 bound needs the
        # input variance to dominate epsilon, hence the scale-10 draws.
        rng = np.random.default_rng(2)
        state = self._state()
        state.gamma = np.array([2.0, 0.5, 1.0])
        state.beta = np.array([1.0, -1.0, 0.0])
        for batch in (16, 64, 256):
            out = batch_norm(rng.normal(2.0, 10.0, size=(batch, 3)), state, "train")
            np.testing.assert_allclose(out.mean(axis=0), state.beta, atol=1e-9)
            np.testing.assert_allclose(out.var(axis=0), state.gamma ** 2, atol=1e-6)

    def test_degenerate_train_batch_rejected(self):
        with pytest.raises(DataError):
            batch_norm(np.ones((1, 3)), self._state(), "train")

    def test_eval_uses_batch_stats_by_default(self):
        state = self._state()
        x = np.array([[1.0, 10.0, -3.0], [3.0, 12.0, -1.0]])
        out = batch_norm(x, state, "eval")
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)

    def test_eval_with_running_stats(self):
        state = self._state(use_batch_stats_at_inference=False)
        state.running_mean = np.array([1.0, 2.0, 3.0])
        state.running_var = np.array([4.0, 4.0, 4.0])
        x = np.array([[1.0, 2.0, 3.0]])
        out = batch_norm(x, state, "eval")
        np.testing.assert_allclose(out, 0.0, atol=1e-9)

    def test_graph_matches_apply_and_gradchecks(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 3))
        store = ParamStore()
        store.add("g", rng.normal(1.0, 0.1, size=3))
        store.add("b", rng.normal(size=3))
        probe = rng.normal(size=(8, 3))

        def fresh_state(s):
            return BatchNormState(gamma=s.value("g"), beta=s.value("b"),
                                  running_mean=np.zeros(3), running_var=np.ones(3))

        for batch in (2, 8):
            out = batch_norm_graph(x[:batch], fresh_state(store), ad.Var(store.value("g")),
                                   ad.Var(store.value("b")), "train")
            direct = oracles.batch_norm_train(x[:batch], store.value("g"), store.value("b"), 1e-5)
            np.testing.assert_allclose(out.value, direct, atol=1e-12)

        def loss(s):
            g, b = ad.Var(s.value("g")), ad.Var(s.value("b"))
            y = batch_norm_graph(x, fresh_state(s), g, b, "train")
            total = ad.sum_all(ad.mul(y, probe))
            ad.backward(total)
            s.grad("g")[...] += g.grad
            s.grad("b")[...] += b.grad
            return float(total.value)

        assert grad_check(loss, store) < 1e-4


class TestEncoderConfig:
    def test_layer_count_bounds(self):
        with pytest.raises(ConfigError):
            EncoderConfig(input_dim=3, hidden_units=(4, 4, 4))

    def test_bad_cell(self):
        with pytest.raises(ConfigError):
            EncoderConfig(input_dim=3, hidden_units=(4,), cell_kind="tcn")
