import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from affectseq import autodiff as ad
from affectseq.errors import ConfigError, DataError, DimensionError
from affectseq.fusion import (
    FusionConfig,
    batch_norm_graph,
    context_gate_graph,
    fusion_head_graph,
    init_fusion_params,
    map_to_range,
    moe_graph,
)
from affectseq.model import (
    ModelConfig,
    forward_graph,
    init_model_params,
    predict_batch,
    training_loss,
    wrap_leaves,
)
from affectseq.numerics import ParamStore, grad_check
from affectseq.rng import generator
from affectseq.seqmodel import EncoderConfig


def zeroed_head_store(config, experts_value=0.0):
    """All weights/biases zero so every sigmoid sits at 1/2."""
    store = ParamStore()
    init_fusion_params(store, config, 6, generator(0, "init"))
    for name in store.names():
        if name.endswith("running_var") or name.endswith("gamma"):
            continue
        store.value(name)[...] = 0.0
    return store


def leaves_of(store):
    return {n: ad.Var(store.value(n)) for n in store.names()}


def context_gate(x, w, b):
    return ad.value(context_gate_graph(x, w, b))


def moe(v, dim_params):
    """``moe_graph`` over (expert_W, expert_b, gate_W, gate_b) per output dimension."""
    leaves = {}
    for dim, params in zip(("valence", "arousal"), dim_params):
        for key, value in zip(("expert_W", "expert_b", "gate_W", "gate_b"), params):
            leaves[f"fusion.moe.{dim}.{key}"] = ad.Var(value)
    return ad.value(moe_graph(v, leaves))


def bn_leaves(f=3):
    """Identity scale/shift and unit running statistics under ``fusion.bn.``."""
    return {"fusion.bn.gamma": np.ones(f), "fusion.bn.beta": np.zeros(f),
            "fusion.bn.running_mean": np.zeros(f), "fusion.bn.running_var": np.ones(f)}


def batch_norm(x, leaves, mode, **kw):
    config = FusionConfig(enable_batchnorm=True, **kw)
    return ad.value(batch_norm_graph(x, leaves, config, mode))


class TestBatchNorm:
    def test_identity_on_standardized_batch(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 3))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        out = batch_norm(x, bn_leaves(), "train", bn_epsilon=1e-5)
        assert np.max(np.abs(out - x)) < 1e-4

    def test_constant_column_collapses_to_beta(self):
        leaves = bn_leaves()
        leaves["fusion.bn.beta"] = np.full(3, 0.3)
        out = batch_norm(np.full((8, 3), 7.7), leaves, "train")
        np.testing.assert_allclose(out, 0.3, atol=1e-12)

    def test_running_stats_match_hand_ema(self):
        leaves = bn_leaves()
        rng = np.random.default_rng(1)
        b1 = rng.normal(size=(16, 3))
        b2 = rng.normal(size=(16, 3))
        batch_norm(b1, leaves, "train", bn_momentum=0.9)
        batch_norm(b2, leaves, "train", bn_momentum=0.9)
        mean = 0.9 * (0.9 * 0.0 + 0.1 * b1.mean(axis=0)) + 0.1 * b2.mean(axis=0)
        var = 0.9 * (0.9 * 1.0 + 0.1 * b1.var(axis=0)) + 0.1 * b2.var(axis=0)
        np.testing.assert_allclose(leaves["fusion.bn.running_mean"], mean, atol=1e-12)
        np.testing.assert_allclose(leaves["fusion.bn.running_var"], var, atol=1e-12)

    def test_train_output_moments(self):
        # Output variance is gamma^2 * v/(v+eps): the 1e-6 bound needs the
        # input variance to dominate epsilon, hence the scale-10 draws.
        rng = np.random.default_rng(2)
        leaves = bn_leaves()
        leaves["fusion.bn.gamma"] = np.array([2.0, 0.5, 1.0])
        leaves["fusion.bn.beta"] = np.array([1.0, -1.0, 0.0])
        for batch in (16, 64, 256):
            out = batch_norm(rng.normal(2.0, 10.0, size=(batch, 3)), leaves, "train")
            np.testing.assert_allclose(out.mean(axis=0), leaves["fusion.bn.beta"], atol=1e-9)
            np.testing.assert_allclose(out.var(axis=0), leaves["fusion.bn.gamma"] ** 2,
                                       atol=1e-6)

    def test_degenerate_train_batch_rejected(self):
        with pytest.raises(DataError):
            batch_norm(np.ones((1, 3)), bn_leaves(), "train")

    def test_eval_uses_batch_stats_by_default(self):
        x = np.array([[1.0, 10.0, -3.0], [3.0, 12.0, -1.0]])
        out = batch_norm(x, bn_leaves(), "eval")
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)

    def test_eval_with_running_stats(self):
        leaves = bn_leaves()
        leaves["fusion.bn.running_mean"] = np.array([1.0, 2.0, 3.0])
        leaves["fusion.bn.running_var"] = np.array([4.0, 4.0, 4.0])
        x = np.array([[1.0, 2.0, 3.0]])
        out = batch_norm(x, leaves, "eval", use_batch_stats_at_inference=False)
        np.testing.assert_allclose(out, 0.0, atol=1e-9)

    def test_graph_matches_apply_and_gradchecks(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 3))
        store = ParamStore()
        store.add("fusion.bn.gamma", rng.normal(1.0, 0.1, size=3))
        store.add("fusion.bn.beta", rng.normal(size=3))
        probe = rng.normal(size=(8, 3))
        config = FusionConfig(enable_batchnorm=True)

        def fresh_leaves(s):
            leaves = bn_leaves()
            for key in ("gamma", "beta"):
                leaves[f"fusion.bn.{key}"] = ad.Var(s.value(f"fusion.bn.{key}"))
            return leaves

        for batch in (2, 8):
            out = batch_norm_graph(x[:batch], fresh_leaves(store), config, "train")
            direct = oracles.batch_norm_train(x[:batch], store.value("fusion.bn.gamma"),
                                              store.value("fusion.bn.beta"), 1e-5)
            np.testing.assert_allclose(out.value, direct, atol=1e-12)

        def loss(s):
            leaves = fresh_leaves(s)
            y = batch_norm_graph(x, leaves, config, "train")
            total = ad.sum_all(ad.mul(y, probe))
            ad.backward(total)
            for key in ("gamma", "beta"):
                s.grad(f"fusion.bn.{key}")[...] += leaves[f"fusion.bn.{key}"].grad
            return float(total.value)

        assert grad_check(loss, store) < 1e-4


class TestFusionConfig:
    @pytest.mark.parametrize("setting", [{"bn_momentum": 1.0}, {"bn_epsilon": 0.0}],
                             ids=["bn_momentum", "bn_epsilon"])
    def test_bad_batch_norm_setting_rejected_when_built(self, setting):
        with pytest.raises(ConfigError, match=next(iter(setting))):
            FusionConfig(**setting)


class TestContextGate:
    def test_zero_gate_halves(self):
        x = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -0.25]])
        np.testing.assert_allclose(context_gate(x, np.zeros((3, 3)), np.zeros(3)),
                                   0.5 * x, atol=1e-15)

    def test_zero_input_stays_zero(self):
        rng = np.random.default_rng(0)
        y = context_gate(np.zeros((2, 4)), rng.normal(size=(4, 4)), rng.normal(size=4))
        np.testing.assert_array_equal(y, np.zeros((2, 4)))

    def test_saturated_gate_passes_through(self):
        x = np.array([[0.3, -1.5, 2.0]])
        y = context_gate(x, np.zeros((3, 3)), np.full(3, 50.0))
        assert np.all(np.abs(y - x) < 1e-15 * np.abs(x) + 1e-20)

    def test_shape_check(self):
        with pytest.raises(DimensionError):
            context_gate(np.zeros((1, 3)), np.zeros((2, 3)), np.zeros(3))

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6),
           st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_never_grows_magnitude(self, xs, seed):
        x = np.array([xs])
        rng = np.random.default_rng(seed)
        y = context_gate(x, rng.normal(size=(x.size, x.size)), rng.normal(size=x.size))
        assert np.all(np.abs(y) <= np.abs(x))
        assert np.all((np.sign(y) == np.sign(x)) | (y == 0.0))


class TestMoe:
    def test_single_expert_is_logistic_regression(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(3, 5))
        params = []
        for _ in range(2):
            ew, eb = rng.normal(size=(1, 5)), rng.normal(size=1)
            gw, gb = rng.normal(size=(1, 5)), rng.normal(size=1)
            params.append((ew, eb, gw, gb))
        p = moe(v, params)
        for d in range(2):
            ew, eb, _, _ = params[d]
            np.testing.assert_array_equal(p[:, d], ad.value(ad.sigmoid(ad.linear(v, ew, eb)))[:, 0])

    def test_zero_gating_means_uniform_mixture(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(3, 4))
        params = []
        for _ in range(2):
            ew, eb = rng.normal(size=(3, 4)), rng.normal(size=3)
            params.append((ew, eb, np.zeros((3, 4)), np.zeros(3)))
        p = moe(v, params)
        for d in range(2):
            ew, eb, _, _ = params[d]
            for i in range(3):
                np.testing.assert_allclose(p[i, d], oracles.sigmoid(ew @ v[i] + eb).mean(),
                                           atol=1e-15)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(4, 6))
        params = []
        for _ in range(2):
            params.append((rng.normal(size=(2, 6)), rng.normal(size=2),
                           rng.normal(size=(2, 6)), rng.normal(size=2)))
        for batch in (1, 4):
            p = moe(v[:batch], params)
            for i in range(batch):
                for d, (ew, eb, gw, gb) in enumerate(params):
                    gates = oracles.softmax(gw @ v[i] + gb)
                    direct = float(gates @ oracles.sigmoid(ew @ v[i] + eb))
                    np.testing.assert_allclose(p[i, d], direct, atol=1e-15)
            assert np.all((p > 0.0) & (p < 1.0))

    def test_gates_sum_to_one_inside_graph(self):
        config = FusionConfig(num_experts=3)
        store = ParamStore()
        init_fusion_params(store, config, 6, generator(9, "init"))
        v = generator(4, "v").normal(size=(7, 6))
        leaves = {n: ad.Var(store.value(n)) for n in store.names()}
        p = moe_graph(v, leaves).value
        assert np.all((p > 0.0) & (p < 1.0))


class TestFusionHead:
    def test_closed_form_composition(self):
        # Zero weights: CG1 halves, single zero expert gives p = 1/2,
        # CG2 halves again, and the default (-1, 1) range maps 1/4 to -1/2.
        config = FusionConfig(num_experts=1)
        store = zeroed_head_store(config)
        x = np.array([[0.4, -0.6, 1.0, 0.2, 0.0, -0.3]])
        p = fusion_head_graph(x, leaves_of(store), config).value
        np.testing.assert_allclose(p, [[0.25, 0.25]], atol=1e-15)
        np.testing.assert_allclose(map_to_range(p, config.output_range), [[-0.5, -0.5]],
                                   atol=1e-15)

    def test_affine_midpoint(self):
        np.testing.assert_allclose(map_to_range(np.array([0.5, 0.5]), (-1.0, 1.0)),
                                   [0.0, 0.0], atol=0)

    def test_predictions_strictly_inside_range(self):
        config = FusionConfig()
        store = ParamStore()
        init_fusion_params(store, config, 6, generator(5, "init"))
        x = generator(6, "states").normal(scale=3.0, size=(50, 6))
        p = fusion_head_graph(x, leaves_of(store), config).value
        pred = map_to_range(p, config.output_range)
        assert np.all((pred > -1.0) & (pred < 1.0))
        assert np.all((p > 0.0) & (p < 1.0))

    def test_graph_matches_pure_path(self):
        config = FusionConfig(num_experts=3)
        store = ParamStore()
        init_fusion_params(store, config, 6, generator(7, "init"))
        batch = generator(8, "x").normal(size=(5, 6))
        for size in (1, 5):
            graph_p = fusion_head_graph(batch[:size], leaves_of(store), config).value
            for i in range(size):
                p = oracles.fusion_head(batch[i], store, config)
                np.testing.assert_allclose(graph_p[i], p, atol=1e-14)

    def test_cg2_on_moe_input(self):
        config = FusionConfig(cg2_position="moe_input")
        store = ParamStore()
        init_fusion_params(store, config, 6, generator(11, "init"))
        assert store.value("fusion.cg2.W").shape == (6, 6)
        batch = generator(12, "x").normal(size=(4, 6))
        leaves = {n: ad.Var(store.value(n)) for n in store.names()}
        p = fusion_head_graph(batch, leaves, config).value
        assert np.all((p > 0.0) & (p < 1.0))

    def test_head_gradcheck(self):
        config = FusionConfig(num_experts=2)
        store = ParamStore()
        init_fusion_params(store, config, 6, generator(13, "init"))
        batch = generator(14, "x").normal(size=(3, 6))
        probe = generator(15, "probe").normal(size=(3, 2))

        def loss(s):
            leaves = {n: ad.Var(s.value(n)) for n in s.names()}
            p = fusion_head_graph(batch, leaves, config)
            out = ad.sum_all(ad.mul(p, probe))
            ad.backward(out)
            for n, leaf in leaves.items():
                if leaf.grad is not None:
                    s.grad(n)[...] += leaf.grad
            return float(out.value)

        assert grad_check(loss, store) < 1e-4


def tiny_model(seed=0, t=4, d=3, h=3, experts=2, **fusion_kw):
    encoders = (
        ("a", EncoderConfig(input_dim=d, hidden_units=(h,))),
        ("b", EncoderConfig(input_dim=d, hidden_units=(h,))),
    )
    fusion = FusionConfig(num_experts=experts, **fusion_kw)
    config = ModelConfig(encoders=encoders, fusion=fusion, sequence_length=t)
    return config, init_model_params(config, seed)


class TestTrainingLoss:
    def _windows(self, config, batch, seed=0):
        rng = generator(seed, "w")
        return {
            name: rng.normal(size=(batch, config.sequence_length, enc.input_dim))
            for name, enc in config.encoders
        }

    def test_entropy_lower_bound_at_matching_prediction(self):
        # For p' = t' the cross-entropy equals the entropy of t', which a
        # grid scan confirms is the minimum over p'.
        t = 0.35
        grid = np.linspace(0.01, 0.99, 197)
        xent = -(t * np.log(grid) + (1 - t) * np.log(1 - grid))
        entropy = -(t * np.log(t) + (1 - t) * np.log(1 - t))
        assert abs(grid[np.argmin(xent)] - t) < 0.006
        assert np.min(xent) >= entropy - 1e-12

    def test_loss_minimized_where_frozen_head_matches_target(self):
        # Frozen single-expert head with zero weights emits p' = sigmoid(b2)/2
        # uniformly; sweeping the CG2 bias sweeps p', and the batch loss
        # bottoms out where p' crosses t'.
        config, store = tiny_model(experts=1, l2_lambda=0.0)
        for name in store.names():
            if not name.endswith(("running_var", "gamma")):
                store.value(name)[...] = 0.0
        windows = self._windows(config, 2)
        target01 = 0.2
        targets = np.full((2, 2), -1.0 + 2.0 * target01)
        losses, probes = [], []
        for bias in np.linspace(-4.0, 2.0, 121):
            store.value("fusion.cg2.b")[...] = bias
            value = training_loss(windows, targets, store, config)
            probes.append(float(oracles.sigmoid(bias) * 0.5))
            losses.append(value.total)
        best = int(np.argmin(losses))
        assert abs(probes[best] - target01) < 0.01
        entropy = -2.0 * (target01 * np.log(target01)
                          + (1 - target01) * np.log(1 - target01))
        assert losses[best] >= entropy - 1e-9

    def test_l2_zero_gives_pure_cross_entropy(self):
        config, store = tiny_model(l2_lambda=0.0)
        windows = self._windows(config, 4)
        targets = np.full((4, 2), 0.25)
        value = training_loss(windows, targets, store, config)
        assert value.lambda_l2 == 0.0
        assert value.total == value.loss

    def test_matches_independent_summation(self):
        config, store = tiny_model(seed=3)
        windows = self._windows(config, 5, seed=4)
        targets = generator(5, "t").uniform(-0.8, 0.8, size=(5, 2))
        value = training_loss(windows, targets, store, config)

        # Per-sample oracle through the plain-numpy single-sample path.
        total = 0.0
        for i in range(5):
            x = np.concatenate([
                oracles.encode(windows[name][i], enc, store, f"enc.{name}")
                for name, enc in config.encoders
            ])
            p = oracles.fusion_head(x, store, config.fusion)
            t01 = (targets[i] + 1.0) / 2.0
            total += -np.sum(t01 * np.log(p) + (1 - t01) * np.log(1 - p))
        xent = total / 5
        penalty = sum(
            float(np.sum(store.value(n) ** 2))
            for n in store.names() if store.value(n).ndim == 2
        )
        np.testing.assert_allclose(value.loss, xent, atol=1e-12)
        np.testing.assert_allclose(value.l2_penalty, penalty, atol=1e-12)
        np.testing.assert_allclose(value.total, xent + config.fusion.l2_lambda * penalty,
                                   atol=1e-12)

    def test_targets_outside_range_rejected(self):
        config, store = tiny_model()
        windows = self._windows(config, 2)
        with pytest.raises(DataError):
            training_loss(windows, np.array([[0.0, 1.5], [0.0, 0.0]]), store, config)

    def test_targets_at_range_bounds_stay_finite(self):
        config, store = tiny_model(seed=22)
        windows = self._windows(config, 2, seed=23)
        targets = np.array([[-1.0, 1.0], [1.0, -1.0]])
        value = training_loss(windows, targets, store, config)
        assert np.isfinite(value.total)
        for name in store.names():
            assert np.all(np.isfinite(store.grad(name)))

    def test_end_to_end_gradcheck(self):
        config, store = tiny_model(seed=6)
        windows = self._windows(config, 3, seed=7)
        targets = generator(8, "t").uniform(-0.7, 0.7, size=(3, 2))

        def loss(s):
            return training_loss(windows, targets, s, config).total

        assert grad_check(loss, store, eps=1e-5) < 1e-4

    def test_end_to_end_gradcheck_with_input_side_cg2(self):
        config, store = tiny_model(seed=16, cg2_position="moe_input")
        windows = self._windows(config, 2, seed=17)
        targets = generator(18, "t").uniform(-0.7, 0.7, size=(2, 2))

        def loss(s):
            return training_loss(windows, targets, s, config).total

        assert grad_check(loss, store, eps=1e-5) < 1e-4

    def test_end_to_end_gradcheck_lstm_with_batchnorm(self):
        encoders = (
            ("a", EncoderConfig(input_dim=3, hidden_units=(3,), cell_kind="lstm")),
            ("b", EncoderConfig(input_dim=3, hidden_units=(3,), cell_kind="lstm")),
        )
        config = ModelConfig(encoders=encoders, fusion=FusionConfig(enable_batchnorm=True),
                             sequence_length=4)
        store = init_model_params(config, 19)
        rng = generator(20, "w")
        windows = {name: rng.normal(size=(3, 4, 3)) for name, _ in encoders}
        targets = generator(21, "t").uniform(-0.7, 0.7, size=(3, 2))

        def loss(s):
            return training_loss(windows, targets, s, config).total

        assert grad_check(loss, store, eps=1e-5) < 1e-4

    def test_predict_batch_range(self):
        config, store = tiny_model(seed=9)
        windows = self._windows(config, 6, seed=10)
        preds = predict_batch(store, config, windows)
        assert preds.shape == (6, 2)
        assert np.all((preds > -1.0) & (preds < 1.0))

    def test_wrong_length_rejected(self):
        config, store = tiny_model(t=5)
        windows = {name: np.zeros((2, 4, 3)) for name, _ in config.encoders}
        with pytest.raises(DimensionError, match="T=4"):
            predict_batch(store, config, windows)
        with pytest.raises(DimensionError, match="T=4"):
            training_loss(windows, np.zeros((2, 2)), store, config)


def cell_model(cell, units, seed=0, t=4, d=3, **fusion_kw):
    encoders = tuple(
        (name, EncoderConfig(input_dim=d, hidden_units=units, cell_kind=cell))
        for name in ("a", "b")
    )
    fusion = FusionConfig(**fusion_kw)
    config = ModelConfig(encoders=encoders, fusion=fusion, sequence_length=t)
    store = init_model_params(config, seed)
    if fusion.enable_batchnorm:
        rng = generator(seed, "bn-stats")
        store.value("fusion.bn.running_mean")[...] = rng.normal(size=2 * units[-1])
        store.value("fusion.bn.running_var")[...] = rng.uniform(0.5, 2.0, size=2 * units[-1])
    windows = {name: generator(seed, f"w-{name}").normal(size=(5, t, d))
               for name, _ in encoders}
    return config, store, windows


HEADS = {
    "plain": {},
    "bn-batch-stats": {"enable_batchnorm": True},
    "bn-running-stats": {"enable_batchnorm": True, "use_batch_stats_at_inference": False},
}


class TestConstantForward:
    @pytest.mark.parametrize("cg2", ["moe_input", "moe_output"])
    @pytest.mark.parametrize("head", sorted(HEADS))
    @pytest.mark.parametrize("units", [(3,), (4, 3)], ids=["1layer", "2layer"])
    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    def test_store_arrays_give_the_graph_values(self, cell, units, head, cg2):
        config, store, windows = cell_model(cell, units, seed=31, cg2_position=cg2,
                                            **HEADS[head])
        const = forward_graph(dict(store.items()), config, windows)
        graph = forward_graph(wrap_leaves(store), config, windows)
        assert type(const) is np.ndarray
        assert isinstance(graph, ad.Var)
        np.testing.assert_array_equal(const, graph.value)

    def test_predict_batch_builds_no_graph(self, monkeypatch):
        config, store, windows = cell_model("lstm", (4, 3), seed=32, enable_batchnorm=True,
                                            dropout_rate=0.5)
        built = []
        init = ad.Var.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ad.Var, "__init__", counted)
        preds = predict_batch(store, config, windows)
        assert preds.shape == (5, 2) and not built
        training_loss(windows, np.zeros((5, 2)), store, config, "train", generator(0, "d"))
        assert built

    def test_train_mode_moves_running_stats_by_the_batch_moments(self):
        config, store, windows = cell_model("gru", (3,), seed=33, enable_batchnorm=True,
                                            bn_momentum=0.7)
        mean0 = store.value("fusion.bn.running_mean").copy()
        var0 = store.value("fusion.bn.running_var").copy()
        x = np.array([
            np.concatenate([oracles.encode(windows[name][i], enc, store, f"enc.{name}")
                            for name, enc in config.encoders])
            for i in range(5)
        ])
        predict_batch(store, config, windows)
        training_loss(windows, np.zeros((5, 2)), store, config, mode="eval")
        np.testing.assert_array_equal(store.value("fusion.bn.running_mean"), mean0)
        np.testing.assert_array_equal(store.value("fusion.bn.running_var"), var0)
        training_loss(windows, np.zeros((5, 2)), store, config, mode="train")
        np.testing.assert_allclose(store.value("fusion.bn.running_mean"),
                                   0.7 * mean0 + 0.3 * x.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(store.value("fusion.bn.running_var"),
                                   0.7 * var0 + 0.3 * x.var(axis=0), atol=1e-12)
