"""The chain in :mod:`affectseq.autodiff`, and each check the engine's ops
once had, moved onto the layer whose hand-written backward now carries
that op's gradient (:mod:`affectseq.fusion`,
:func:`affectseq.model.cross_entropy_graph`)."""

import itertools

import numpy as np
import pytest

from oracles import grad_check
from affectseq import autodiff as ad
from affectseq.errors import DimensionError
from affectseq.fusion import (FusionConfig, batch_norm_graph, context_gate_graph,
                              fusion_head_graph, moe_graph)
from affectseq.model import ModelConfig, cross_entropy_graph, init_model_params, training_loss
from affectseq.numerics import ParamStore, sigmoid, softmax_rows
from affectseq.rng import generator
from affectseq.seqmodel import EncoderConfig

# fixed running statistics: an inference pass reads them, and they get no gradient
RUNNING = {"fusion.bn.running_mean": np.array([0.5, -1.0, 0.2]),
           "fusion.bn.running_var": np.array([0.3, 2.0, 1.1])}
TARGETS = np.array([[0.2, 0.9], [0.5, 0.0], [1.0, 0.35], [0.7, 0.1]])


def batch_norm(rng, eps=1e-5):
    config = FusionConfig(enable_batchnorm=True, bn_epsilon=eps)
    return lambda x, p: batch_norm_graph(x, {**p, **RUNNING}, config, rng)


def moe_shapes(experts, width=4):
    shapes = {"x": (5, width)}
    for dim in ("valence", "arousal"):
        for kind in ("expert", "gate"):
            shapes[f"fusion.moe.{dim}.{kind}_W"] = (experts, width)
            shapes[f"fusion.moe.{dim}.{kind}_b"] = (experts,)
    return shapes


BN = {"x": (6, 3), "fusion.bn.gamma": (3,), "fusion.bn.beta": (3,)}
GATE = {"x": (5, 4), "fusion.cg1.W": (4, 4), "fusion.cg1.b": (4,)}
PROBABILITIES = {"x": np.random.default_rng(9).uniform(0.05, 0.95, size=TARGETS.shape)}


def head(x, p):
    """The whole head in a training pass with batch norm and dropout, over
    parameters drawn for a 6-wide input."""
    config = FusionConfig(enable_batchnorm=True, dropout_rate=0.4)
    return fusion_head_graph(x, p, config, generator(1, "dropout"))


# Each layer, with its input shapes (the store's ``x`` is the layer's input).
LAYERS = {
    "batch_norm_running": (batch_norm(None), BN),
    "batch_norm_batch": (batch_norm(generator(0, "train")), BN),
    "context_gate": (lambda x, p: context_gate_graph(x, p, "cg1"), GATE),
    "moe": (moe_graph, moe_shapes(3)),
    "cross_entropy": (lambda x, p: cross_entropy_graph(x, TARGETS), PROBABILITIES),
    "head": (head, {"x": (5, 6)}),
}
# Each op the engine had, keyed to the layer that computes it now.
OPS = {
    "add": "batch_norm_running", "sub": "batch_norm_running", "mul": "head",
    "scale_shift": "cross_entropy", "linear": "context_gate", "sigmoid": "context_gate",
    "safe_log": "cross_entropy", "rsqrt_shift": "batch_norm_batch",
    "mean_axis0": "batch_norm_batch", "sum_axis1": "moe", "softmax_rows": "moe",
    "concat_cols": "moe", "sum_all": "cross_entropy",
}


def arrays(shapes, seed=0):
    """The store's values: a given array as is, a shape drawn normal."""
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for name, spec in shapes.items():
        store.add(name, spec if isinstance(spec, np.ndarray) else rng.normal(size=spec))
    return store


def head_params(x):
    """The head's parameters for a 6-wide input, with the layer input ``x``."""
    model = ModelConfig((("m", EncoderConfig(input_dim=2, hidden_units=(6,))),),
                        FusionConfig(enable_batchnorm=True), 4)
    params = {n: v for n, v in init_model_params(model, 0).items() if n.startswith("fusion.")}
    return {"x": x, **params}


def check_layer(build, shapes, seed=0):
    """grad_check ``build(x, params)``, a layer over the Var ``x`` (the
    store's ``x``) and the store's other arrays, through its dot product
    with a fixed probe: the layer's named gradients and x's are checked."""
    store = arrays(shapes, seed)
    probe = np.random.default_rng(seed + 1).normal(
        size=np.shape(build(store.value("x"), dict(store.items()))))

    def loss(s):
        params = dict(s.items())
        y = build(ad.Var(params["x"]), params)
        root = ad.layer(y, (y.value * probe).sum(), lambda g: (g * probe, {}))
        grads, dx = ad.backward(root)
        return float(root.value), {**grads, "x": dx}

    return grad_check(loss, store)


def chain(x, length):
    """``length`` layers over ``x``, each adding 1 and passing g through,
    recording the order their grad_fns run in; ends in a sum."""
    ran = []
    for k in range(length):
        x = ad.layer(x, ad.value(x) + 1.0,
                     lambda g, k=k: (ran.append(k) or g, {f"p{k}": np.full(1, float(k))}))
    shape = ad.value(x).shape
    return ad.layer(x, ad.value(x).sum(), lambda g: (np.broadcast_to(g, shape), {})), ran


class TestElementwise:
    def test_add_mul_broadcast(self):
        """Inference batch norm: a [B, F] input scaled and shifted by [F]
        rows of running statistics, gamma and beta."""
        assert check_layer(*LAYERS["batch_norm_running"]) < 1e-7

    def test_sub_neg_scale(self):
        """The loss's 1 - p and its -1/B scale, over probabilities."""
        assert check_layer(*LAYERS["cross_entropy"]) < 1e-6

    def test_constants_get_no_gradient(self):
        """The running statistics and the targets are constants of their
        layers: only gamma, beta and the input get gradients."""
        store = arrays(BN)
        grads, _ = ad.backward(ad.layer(batch_norm(None)(ad.Var(store.value("x")),
                                                         dict(store.items())),
                                        0.0, lambda g: (np.ones((6, 3)), {})))
        assert set(grads) == {"fusion.bn.gamma", "fusion.bn.beta"}
        grads, dp = ad.backward(cross_entropy_graph(ad.Var(PROBABILITIES["x"]), TARGETS))
        assert grads == {} and dp.shape == TARGETS.shape


class TestMatrixOps:
    def test_linear(self):
        """The context gate's x W^T + b."""
        assert check_layer(*LAYERS["context_gate"]) < 1e-7

    def test_linear_shape_check(self):
        store = arrays(GATE)
        params = dict(store.items())
        params["fusion.cg1.b"] = np.zeros(3)
        with pytest.raises(DimensionError, match="cg1"):
            context_gate_graph(ad.Var(store.value("x")), params, "cg1")

    def test_concat_cols(self):
        """The mixture joins its valence and arousal columns; each column's
        gradient reaches only its own experts and gates."""
        store = arrays(moe_shapes(2))
        x = ad.Var(store.value("x"))
        out = moe_graph(x, dict(store.items()))
        for d, dim in enumerate(("valence", "arousal")):
            probe = np.zeros((5, 2))
            probe[:, d] = 1.0
            grads, _ = ad.backward(ad.layer(out, (out.value * probe).sum(),
                                            lambda g: (g * probe, {})))
            other = "arousal" if dim == "valence" else "valence"
            assert all(np.any(g != 0.0) for n, g in grads.items() if dim in n)
            assert all(np.all(g == 0.0) for n, g in grads.items() if other in n)
        assert check_layer(moe_graph, moe_shapes(2)) < 1e-7


class TestNonlinear:
    def test_sigmoid(self):
        """A single expert per dimension: the mixture is logistic regression."""
        assert check_layer(moe_graph, moe_shapes(1), seed=1) < 1e-6

    def test_sigmoid_matches_logistic(self):
        # The tanh form is within one float64 epsilon of the logistic
        # function everywhere; far in the negative tail that is a large
        # relative error on a value below 1e-9.
        x = np.linspace(-40.0, 40.0, 20001)
        np.testing.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=0,
                                   atol=np.finfo(np.float64).eps)

    def test_sigmoid_saturates_without_overflow(self):
        x = np.array([[-1000.0, -50.0, -1.5, 0.0, 1.5, 50.0, 1000.0]])
        with np.errstate(over="raise"):
            out = sigmoid(x)
            mirrored = sigmoid(-x)
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert out[0, 3] == 0.5 and out[0, 0] == 0.0 and out[0, -1] == 1.0
        np.testing.assert_allclose(out + mirrored, 1.0, atol=1e-15)

    def test_safe_log(self):
        """The loss's logs, over probabilities, targets at 0 and 1 included."""
        assert check_layer(*LAYERS["cross_entropy"], seed=2) < 1e-6

    def test_safe_log_clamps_without_nan(self):
        p = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [0.25, 0.75]])
        out = cross_entropy_graph(ad.Var(p), TARGETS)
        _, dp = ad.backward(out)
        assert np.isfinite(out.value) and np.all(np.isfinite(dp))
        # where p is 0, the floor holds log p still: only log(1 - p) has a gradient
        assert dp[0, 0] == 0.25 * (1.0 - TARGETS[0, 0])

    def test_rsqrt_shift(self):
        """Training batch norm with an epsilon near the batch variance, so
        1 / sqrt(var + eps) is far from 1 / std."""
        assert check_layer(batch_norm(generator(0, "train"), eps=0.5), BN, seed=3) < 1e-6

    def test_softmax_rows(self):
        """Three experts per dimension under their softmax gate."""
        assert check_layer(*LAYERS["moe"], seed=4) < 1e-6

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = softmax_rows(rng.normal(scale=30, size=(8, 4)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


class TestReductions:
    def test_mean_axis0(self):
        """Training batch norm: the batch mean and variance feed back into
        every row's gradient."""
        assert check_layer(*LAYERS["batch_norm_batch"], seed=5) < 1e-7

    def test_sum_axis1(self):
        """The mixture's weighted row sum, over uniform gates (zero gate
        weights) and over trained ones."""
        shapes = moe_shapes(3)
        zero = {n: np.zeros(s) for n, s in shapes.items() if ".gate_" in n}
        assert check_layer(moe_graph, {**shapes, **zero}, seed=6) < 1e-7

    def test_mean_all_and_square_sum(self):
        """The loss is a batch mean: a batch repeated twice has the same
        loss and half each row's gradient."""
        p = PROBABILITIES["x"]
        once, twice = (cross_entropy_graph(ad.Var(np.tile(p, (k, 1))), np.tile(TARGETS, (k, 1)))
                       for k in (1, 2))
        np.testing.assert_allclose(twice.value, once.value, rtol=1e-15)
        np.testing.assert_allclose(ad.backward(twice)[1][:4], 0.5 * ad.backward(once)[1],
                                   rtol=1e-15)
        assert check_layer(*LAYERS["cross_entropy"], seed=7) < 1e-6

    def test_backward_requires_scalar(self):
        with pytest.raises(DimensionError):
            ad.backward(ad.Var(np.ones(3)))

    def test_backward_rejects_constant_root(self):
        root = cross_entropy_graph(PROBABILITIES["x"], TARGETS)
        assert type(root) is np.ndarray
        with pytest.raises(DimensionError, match="no graph"):
            ad.backward(root)


class TestGraphStructure:
    def test_shared_subexpression_accumulates(self):
        """The gate's input feeds both its product and its affine map, and
        stacked gates chain: the input's gradient sums both terms."""
        def stacked(x, p):
            return context_gate_graph(context_gate_graph(x, p, "cg1"), p, "cg2")

        shapes = {**GATE, "fusion.cg2.W": (4, 4), "fusion.cg2.b": (4,)}
        assert check_layer(stacked, shapes, seed=8) < 1e-7

    def test_deep_chain_does_not_recurse(self):
        root, ran = chain(ad.Var(np.zeros((1, 1))), 10_000)
        grads, dx = ad.backward(root)
        assert ran == list(range(9_999, -1, -1))  # once each, from the root down
        assert len(grads) == 10_000 and grads["p7"][0] == 7.0
        np.testing.assert_array_equal(dx, [[1.0]])

    def test_passed_through_and_sliced_gradients_are_copied(self, monkeypatch):
        """Each encoder's backward gets its own copy of its slice of the
        chain's first gradient."""
        from affectseq import model as model_module

        encoders = tuple((n, EncoderConfig(input_dim=3, hidden_units=(h,))) for n, h in
                         (("a", 2), ("b", 3)))
        config = ModelConfig(encoders, FusionConfig(), sequence_length=4)
        store = init_model_params(config, 3)
        windows = {n: generator(4, n).normal(size=(5, 4, 3)) for n, _ in encoders}
        given = []
        encode = model_module.encode_states

        def recorded(*args, **kwargs):
            def wrap(backward):
                return lambda g: given.append(g) or backward(g)
            return [(state, wrap(backward)) for state, backward in encode(*args, **kwargs)]

        monkeypatch.setattr(model_module, "encode_states", recorded)
        training_loss(windows, np.zeros((5, 2)), store, config, None)
        assert sorted(g.shape for g in given) == [(5, 2), (5, 3)]  # in either order
        assert all(g.flags.owndata and g.flags.c_contiguous for g in given)
        assert not np.shares_memory(*given)

    def test_backward_releases_interior_gradients_and_gives_leaves_their_own(self):
        """Every gradient training_loss returns is its own array: none
        shares memory with another or with a parameter."""
        encoders = (("a", EncoderConfig(input_dim=3, hidden_units=(3,))),)
        config = ModelConfig(encoders, FusionConfig(enable_batchnorm=True, dropout_rate=0.3),
                             sequence_length=4)
        store = init_model_params(config, 5)
        windows = {"a": generator(6, "a").normal(size=(4, 4, 3))}
        _, grads = training_loss(windows, np.zeros((4, 2)), store, config, generator(7, "s"))
        arrays_ = list(grads.values()) + [value for _, value in store.items()]
        for first, second in itertools.combinations(arrays_, 2):
            assert not np.shares_memory(first, second)


class TestConstants:
    def test_table_names_every_public_op(self):
        """autodiff keeps only the chain; each op it had is keyed above to
        the layer that computes it now, and none is left in the module."""
        public = {name for name, fn in vars(ad).items()
                  if callable(fn) and not name.startswith("_") and fn.__module__ == ad.__name__}
        assert public == {"Var", "value", "layer", "backward"}
        assert not set(OPS) & set(vars(ad)) and set(OPS.values()) == set(LAYERS)

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_constant_inputs_give_the_graph_value_as_an_array(self, name):
        """The layer over arrays returns its value as a plain float64 array;
        over a Var, a Var linked to that input, of the same value."""
        build, shapes = LAYERS[OPS[name]]
        params = dict(arrays(shapes, seed=4).items()) if OPS[name] != "head" else head_params(
            np.random.default_rng(4).normal(size=shapes["x"]))
        const = build(params["x"], params)
        x = ad.Var(params["x"])
        graph = build(x, params)
        assert type(const) is np.ndarray and const.dtype == np.float64
        assert isinstance(graph, ad.Var)
        np.testing.assert_array_equal(const, graph.value)
        if OPS[name] != "head":
            assert graph.input is x
