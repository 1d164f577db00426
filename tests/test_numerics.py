import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectseq import autodiff as ad
from affectseq.errors import (
    ContractViolation,
    DataError,
    DimensionError,
    DomainError,
    NumericError,
)
from affectseq.numerics import (
    AdamState,
    LossValue,
    ParamStore,
    adam_step,
    grad_check,
)


def dense(x, w, b):
    """``ad.linear`` on one input row."""
    w, b = np.asarray(w, dtype=float), np.asarray(b, dtype=float)
    return ad.linear(np.atleast_2d(x), w, b).value[0]


def softmax(z):
    """``ad.softmax_rows`` on one row of logits."""
    return ad.softmax_rows(np.atleast_2d(np.asarray(z, dtype=float))).value[0]


class TestDense:
    def test_identity(self):
        y = dense([1.0, 2.0], np.eye(2), [0.0, 0.0])
        np.testing.assert_array_equal(y, [1.0, 2.0])

    def test_zero_weights_return_bias(self):
        y = dense([5.0, -3.0, 2.0], np.zeros((2, 3)), [3.0, -1.0])
        np.testing.assert_array_equal(y, [3.0, -1.0])

    def test_hand_multiply(self):
        y = dense([1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], [0.0, 0.0])
        np.testing.assert_allclose(y, [3.0, -1.0], atol=0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            dense([1.0, 2.0, 3.0], np.eye(2), [0.0, 0.0])

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=4)
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        g = rng.normal(size=3)

        def loss(xv, wv, bv):
            return float(g @ dense(xv, wv, bv))

        xs, ws, bs = ad.Var(x[None, :]), ad.Var(w), ad.Var(b)
        ad.backward(ad.sum_all(ad.mul(ad.linear(xs, ws, bs), g)))
        dx, dw, db = xs.grad[0], ws.grad, bs.grad
        eps = 1e-6
        for i in range(4):
            pert = x.copy()
            pert[i] += eps
            hi = loss(pert, w, b)
            pert[i] -= 2 * eps
            lo = loss(pert, w, b)
            np.testing.assert_allclose(dx[i], (hi - lo) / (2 * eps), rtol=1e-6)
        for i in range(3):
            for j in range(4):
                pert = w.copy()
                pert[i, j] += eps
                hi = loss(x, pert, b)
                pert[i, j] -= 2 * eps
                lo = loss(x, pert, b)
                np.testing.assert_allclose(dw[i, j], (hi - lo) / (2 * eps), rtol=1e-6)
        np.testing.assert_allclose(db, g)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_single_entry_normalizes(self):
        for c in (-1000.0, 0.0, 3.5, 1000.0):
            np.testing.assert_array_equal(softmax([c]), [1.0])

    def test_large_logits_do_not_overflow(self):
        out = softmax([1000.0, 0.0])
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0], 1.0, atol=1e-12)
        np.testing.assert_allclose(out[1], 0.0, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            z = rng.normal(scale=50.0, size=rng.integers(1, 9))
            assert abs(softmax(z).sum() - 1.0) <= 1e-12

    def test_shift_invariance_bitwise_on_exact_shifts(self):
        rng = np.random.default_rng(8)
        z = rng.integers(-20, 20, size=6).astype(float)
        for c in (-8.0, 1.0, 16.0):
            np.testing.assert_array_equal(softmax(z), softmax(z + c))

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=8),
           st.floats(-30, 30))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance_tolerance(self, logits, shift):
        z = np.array(logits)
        np.testing.assert_allclose(softmax(z + shift), softmax(z), atol=1e-12)


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(3))
        with pytest.raises(Exception):
            store.add("w", np.zeros(3))

    def test_names_sorted(self):
        store = ParamStore()
        store.add("b.x", [1.0])
        store.add("a.y", [2.0])
        assert store.names() == ["a.y", "b.x"]

    def test_checkpoint_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        store = ParamStore()
        store.add("enc.w", rng.normal(size=(3, 4)) * 1e-7)
        store.add("enc.b", rng.normal(size=3) * 1e7)
        store.add("odd", np.array([0.1, -0.0, 2.0 ** -1060, np.pi]))
        path = tmp_path / "model.ckpt"
        store.save(path)
        loaded = ParamStore.load(path)
        assert loaded.names() == store.names()
        for name in store.names():
            assert loaded.value(name).shape == store.value(name).shape
            np.testing.assert_array_equal(loaded.value(name), store.value(name))

    def test_checkpoint_header_checked(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("not-a-checkpoint\n")
        with pytest.raises(DataError):
            ParamStore.load(path)

    def test_checkpoint_value_count_checked(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("affectseq-params v1\nw 2 0x1.0p+0\n")
        with pytest.raises(DataError):
            ParamStore.load(path)

    @pytest.mark.parametrize("body", [
        "w x 0x1.0p+0",                 # non-integer shape token
        "w 2 0x1.0p+0 zzz",             # bad float literal
        "w",                            # missing fields
        "a 1 0x1.0p+0\na 1 0x1.0p+0",   # duplicate name
        "w 1 nan",                      # non-finite value
    ])
    def test_checkpoint_malformed_records_rejected(self, tmp_path, body):
        from affectseq.errors import AffectSeqError

        path = tmp_path / "bad.ckpt"
        path.write_text(f"affectseq-params v1\n{body}\n")
        with pytest.raises(AffectSeqError):
            ParamStore.load(path)

    def test_checkpoint_is_lexicographic(self, tmp_path):
        store = ParamStore()
        store.add("z", [1.0])
        store.add("a", [2.0])
        path = tmp_path / "model.ckpt"
        store.save(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "affectseq-params v1"
        assert lines[1].startswith("a ") and lines[2].startswith("z ")


class TestLossValue:
    def test_total(self):
        lv = LossValue(loss=1.5, l2_penalty=2.0, lambda_l2=0.1)
        assert lv.total == pytest.approx(1.7)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            LossValue(loss=float("nan"), l2_penalty=0.0, lambda_l2=0.0)


class TestAdam:
    def _store(self, value):
        store = ParamStore()
        store.add("p", np.array(value))
        return store

    def test_zero_gradient_is_fixed_point(self):
        store = self._store([1.0, -2.0])
        state = AdamState.for_params(store, lr=0.1)
        adam_step(store, state)
        np.testing.assert_array_equal(store.value("p"), [1.0, -2.0])
        assert state.t == 1

    def test_zero_learning_rate_is_identity(self):
        store = self._store([1.0, -2.0])
        store.grad("p")[:] = [3.0, -4.0]
        state = AdamState.for_params(store, lr=0.0)
        adam_step(store, state)
        np.testing.assert_array_equal(store.value("p"), [1.0, -2.0])

    def test_first_step_closed_form(self):
        # m_hat = g, v_hat = g^2, so the first step is lr * g / (|g| + eps).
        store = self._store([1.0])
        store.grad("p")[:] = 2.0
        state = AdamState.for_params(store, lr=0.1)
        adam_step(store, state)
        expected = 1.0 - 0.1 * 2.0 / (2.0 + 1e-8)
        np.testing.assert_allclose(store.value("p"), [expected], rtol=1e-15)
        np.testing.assert_allclose(store.value("p"), [0.9], atol=1e-8)

    def test_nan_gradient_aborts(self):
        store = self._store([1.0])
        store.grad("p")[:] = np.nan
        state = AdamState.for_params(store)
        with pytest.raises(NumericError):
            adam_step(store, state)

    def test_lr_zero_identity_for_random_gradients(self):
        rng = np.random.default_rng(5)
        store = ParamStore()
        store.add("a", rng.normal(size=(2, 3)))
        store.add("b", rng.normal(size=4))
        before = {n: store.value(n).copy() for n in store.names()}
        state = AdamState.for_params(store, lr=0.0)
        for _ in range(3):
            for n in store.names():
                store.grad(n)[:] = rng.normal(size=store.grad(n).shape)
            adam_step(store, state)
        for n in store.names():
            np.testing.assert_array_equal(store.value(n), before[n])


class TestGradCheck:
    def test_quadratic(self):
        store = ParamStore()
        rng = np.random.default_rng(11)
        store.add("p", rng.normal(size=5))

        def loss(s):
            p = s.value("p")
            s.grad("p")[:] += 2.0 * p
            return float(p @ p)

        assert grad_check(loss, store) < 1e-9

    def test_constant_loss(self):
        store = ParamStore()
        store.add("p", [1.0, 2.0])

        def loss(s):
            return 4.0

        assert grad_check(loss, store) == 0.0

    def test_nondeterministic_closure_rejected(self):
        store = ParamStore()
        store.add("p", [1.0])
        rng = np.random.default_rng(0)

        def loss(s):
            return float(rng.normal())

        with pytest.raises(ContractViolation):
            grad_check(loss, store)

    def test_eps_domain(self):
        store = ParamStore()
        store.add("p", [1.0])
        with pytest.raises(DomainError):
            grad_check(lambda s: 0.0, store, eps=0.0)
