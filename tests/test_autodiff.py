"""Finite-difference checks for every reverse-mode op the models use."""

import itertools

import numpy as np
import pytest

from oracles import grad_check
from affectseq import autodiff as ad
from affectseq.errors import DimensionError
from affectseq.numerics import ParamStore


def check_op(build, shapes, seed=0, tol=1e-6):
    """grad_check a scalar-valued graph builder over named leaf shapes."""
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for name, shape in shapes.items():
        store.add(name, rng.normal(size=shape))

    def loss(s):
        leaves = {name: ad.Var(s.value(name)) for name in shapes}
        out = build(leaves)
        ad.backward(out)
        return float(out.value), {name: leaf.grad for name, leaf in leaves.items()
                                  if leaf.grad is not None}

    return grad_check(loss, store)


class TestElementwise:
    def test_add_mul_broadcast(self):
        err = check_op(
            lambda l: ad.sum_all(ad.mul(ad.add(l["x"], l["row"]), l["y"])),
            {"x": (4, 3), "y": (4, 3), "row": (3,)},
        )
        assert err < 1e-7

    def test_sub_neg_scale(self):
        err = check_op(
            lambda l: ad.sum_all(ad.scale_shift(ad.sub(l["x"], l["y"]), -2.5, 0.3)),
            {"x": (3, 2), "y": (3, 2)},
        )
        assert err < 1e-7

    def test_constants_get_no_gradient(self):
        x = ad.Var(np.ones((2, 2)))
        const = np.full((2, 2), 3.0)
        out = ad.sum_all(ad.mul(x, const))
        ad.backward(out)
        np.testing.assert_array_equal(x.grad, const)


class TestMatrixOps:
    def test_linear(self):
        err = check_op(
            lambda l: ad.sum_all(ad.linear(l["x"], l["w"], l["b"])),
            {"x": (5, 3), "w": (4, 3), "b": (4,)},
        )
        assert err < 1e-7

    def test_linear_without_bias(self):
        err = check_op(
            lambda l: ad.sum_all(ad.sigmoid(ad.linear(l["x"], l["w"]))),
            {"x": (5, 3), "w": (4, 3)},
        )
        assert err < 1e-7

    def test_linear_shape_check(self):
        with pytest.raises(DimensionError):
            ad.linear(ad.Var(np.ones((2, 3))), ad.Var(np.ones((4, 5))))

    def test_concat_cols(self):
        err = check_op(
            lambda l: ad.sum_all(ad.mul(ad.concat_cols([l["a"], l["b"]]), l["m"])),
            {"a": (3, 2), "b": (3, 4), "m": (3, 6)},
        )
        assert err < 1e-7


class TestNonlinear:
    def test_sigmoid(self):
        err = check_op(lambda l: ad.sum_all(ad.sigmoid(l["x"])), {"x": (4, 3)})
        assert err < 1e-6

    def test_sigmoid_matches_logistic(self):
        # The tanh form is within one float64 epsilon of the logistic
        # function everywhere; far in the negative tail that is a large
        # relative error on a value below 1e-9.
        x = np.linspace(-40.0, 40.0, 20001)
        np.testing.assert_allclose(ad.sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=0,
                                   atol=np.finfo(np.float64).eps)

    def test_sigmoid_saturates_without_overflow(self):
        x = np.array([[-1000.0, -50.0, -1.5, 0.0, 1.5, 50.0, 1000.0]])
        with np.errstate(over="raise"):
            out = ad.sigmoid(ad.Var(x)).value
            mirrored = ad.sigmoid(ad.Var(-x)).value
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert out[0, 3] == 0.5 and out[0, 0] == 0.0 and out[0, -1] == 1.0
        np.testing.assert_allclose(out + mirrored, 1.0, atol=1e-15)

    def test_safe_log(self):
        rng = np.random.default_rng(1)
        store = ParamStore()
        store.add("x", rng.uniform(0.1, 2.0, size=(3, 3)))

        def loss(s):
            leaf = ad.Var(s.value("x"))
            out = ad.sum_all(ad.safe_log(leaf))
            ad.backward(out)
            return float(out.value), {"x": leaf.grad}

        assert grad_check(loss, store) < 1e-6

    def test_safe_log_clamps_without_nan(self):
        out = ad.safe_log(ad.Var(np.array([0.0, 1.0])))
        assert np.isfinite(out.value).all()

    def test_rsqrt_shift(self):
        rng = np.random.default_rng(2)
        store = ParamStore()
        store.add("x", rng.uniform(0.5, 2.0, size=(2, 3)))

        def loss(s):
            leaf = ad.Var(s.value("x"))
            out = ad.sum_all(ad.rsqrt_shift(leaf, 1e-3))
            ad.backward(out)
            return float(out.value), {"x": leaf.grad}

        assert grad_check(loss, store) < 1e-6

    def test_softmax_rows(self):
        err = check_op(
            lambda l: ad.sum_all(ad.mul(ad.softmax_rows(l["x"]), l["m"])),
            {"x": (4, 5), "m": (4, 5)},
        )
        assert err < 1e-6

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = ad.softmax_rows(ad.Var(rng.normal(scale=30, size=(8, 4))))
        np.testing.assert_allclose(out.value.sum(axis=1), 1.0, atol=1e-12)


class TestReductions:
    def test_mean_axis0(self):
        err = check_op(
            lambda l: ad.sum_all(ad.mul(ad.mean_axis0(l["x"]), l["m"])),
            {"x": (6, 3), "m": (1, 3)},
        )
        assert err < 1e-7

    def test_sum_axis1(self):
        err = check_op(
            lambda l: ad.sum_all(ad.mul(ad.sum_axis1(l["x"]), l["m"])),
            {"x": (6, 3), "m": (6, 1)},
        )
        assert err < 1e-7

    def test_mean_all_and_square_sum(self):
        err = check_op(
            lambda l: ad.add(ad.scale_shift(ad.sum_all(l["x"]), 1.0 / 8),
                             ad.sum_all(ad.mul(l["w"], l["w"]))),
            {"x": (4, 2), "w": (3, 3)},
        )
        assert err < 1e-7

    def test_backward_requires_scalar(self):
        with pytest.raises(DimensionError):
            ad.backward(ad.Var(np.ones(3)))

    def test_backward_rejects_constant_root(self):
        root = ad.sum_all(ad.mul(np.ones((2, 2)), 3.0))
        with pytest.raises(DimensionError, match="no graph"):
            ad.backward(root)


class TestGraphStructure:
    def test_shared_subexpression_accumulates(self):
        # y = (x * x) requires both parent slots of mul to accumulate.
        x = ad.Var(np.array([3.0]))
        out = ad.sum_all(ad.mul(x, x))
        ad.backward(out)
        np.testing.assert_allclose(x.grad, [6.0])

    def test_deep_chain_does_not_recurse(self):
        x = ad.Var(np.ones((1, 1)))
        node = x
        for _ in range(5000):
            node = ad.scale_shift(node, 1.0, 0.0)
        ad.backward(ad.sum_all(node))
        np.testing.assert_allclose(x.grad, [[1.0]])

    def test_passed_through_and_sliced_gradients_are_copied(self):
        a, b = ad.Var(np.ones((2, 2))), ad.Var(np.ones((2, 2)))
        seed = np.arange(8.0).reshape(2, 4)
        out = ad.concat_cols([ad.add(a, b), ad.add(ad.mul(a, 3.0), a)])
        ad.backward(ad.sum_all(ad.mul(out, seed)))
        np.testing.assert_array_equal(a.grad, seed[:, :2] + 4.0 * seed[:, 2:])
        np.testing.assert_array_equal(b.grad, seed[:, :2])
        assert not np.shares_memory(a.grad, b.grad)
        np.testing.assert_array_equal(seed, np.arange(8.0).reshape(2, 4))

    def test_backward_releases_interior_gradients_and_gives_leaves_their_own(self):
        """After backward every interior node's gradient is dropped, and each
        reachable leaf holds a gradient that shares no memory with another's."""
        rng = np.random.default_rng(5)
        a, b, c = (ad.Var(rng.normal(size=(3, 2))) for _ in range(3))
        joined = ad.concat_cols([ad.add(a, b), ad.mul(b, c), ad.scale_shift(a, 2.0, 1.0)])
        root = ad.sum_all(ad.mul(ad.sum_axis1(joined), ad.sum_axis1(ad.mul(c, 0.5))))
        ad.backward(root)
        nodes = ad._topo_order(root)
        leaves = [node for node in nodes if not node.edges]
        assert {id(leaf) for leaf in leaves} == {id(a), id(b), id(c)}
        assert all(node.grad is None for node in nodes if node.edges)
        assert all(leaf.grad is not None for leaf in leaves)
        for first, second in itertools.combinations(leaves, 2):
            assert not np.shares_memory(first.grad, second.grad)


# Every public op, with the shapes of its array inputs.
OPS = {
    "add": (ad.add, [(3, 4), (4,)]),
    "sub": (ad.sub, [(3, 4), (3, 1)]),
    "mul": (ad.mul, [(3, 4), (3, 4)]),
    "scale_shift": (lambda x: ad.scale_shift(x, -2.5, 0.3), [(3, 4)]),
    "linear": (ad.linear, [(5, 3), (4, 3), (4,)]),
    "sigmoid": (ad.sigmoid, [(3, 4)]),
    "safe_log": (ad.safe_log, [(3, 4)]),
    "rsqrt_shift": (lambda x: ad.rsqrt_shift(x, 1e-3), [(3, 4)]),
    "mean_axis0": (ad.mean_axis0, [(6, 3)]),
    "sum_axis1": (ad.sum_axis1, [(6, 3)]),
    "softmax_rows": (ad.softmax_rows, [(4, 5)]),
    "concat_cols": (lambda a, b: ad.concat_cols([a, b]), [(3, 2), (3, 4)]),
    "sum_all": (ad.sum_all, [(3, 4)]),
}


class TestConstants:
    def test_table_names_every_public_op(self):
        public = {name for name, fn in vars(ad).items()
                  if callable(fn) and not name.startswith("_") and fn.__module__ == ad.__name__}
        assert public - {"Var", "value", "backward"} == set(OPS)

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_constant_inputs_give_the_graph_value_as_an_array(self, name):
        op, shapes = OPS[name]
        rng = np.random.default_rng(4)
        inputs = [rng.uniform(0.1, 2.0, size=shape) for shape in shapes]
        const = op(*inputs)
        graph = op(*[ad.Var(x) for x in inputs])
        assert type(const) is np.ndarray and const.dtype == np.float64
        assert isinstance(graph, ad.Var)
        np.testing.assert_array_equal(const, graph.value)
