import itertools
import math
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import ContractViolation, grad_check
from affectseq import autodiff as ad
from affectseq.errors import (
    ConfigError,
    DataError,
    DimensionError,
    DomainError,
    NumericError,
)
from affectseq.numerics import AdamState, LossValue, ParamStore, adam_step


def dense(x, w, b):
    """``ad.linear`` on one input row."""
    w, b = np.asarray(w, dtype=float), np.asarray(b, dtype=float)
    return ad.value(ad.linear(np.atleast_2d(x), w, b))[0]


def softmax(z):
    """``ad.softmax_rows`` on one row of logits."""
    return ad.value(ad.softmax_rows(np.atleast_2d(np.asarray(z, dtype=float))))[0]


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

    def test_loaded_store_holds_only_its_values(self, tmp_path):
        store = ParamStore()
        rng = np.random.default_rng(4)
        for name, shape in (("a.W", (300, 200)), ("a.b", (300,)), ("b.W", (100, 100)),
                            ("c", ())):
            store.add(name, rng.normal(size=shape))
        path = tmp_path / "model.ckpt"
        store.save(path)
        count = sum(value.size for _, value in store.items())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = ParamStore.load(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert loaded.names() == store.names()
        # the values themselves plus small change: no second per-value buffer
        assert held <= 1.05 * 8 * count

    def test_checkpoint_header_checked(self, tmp_path):
        store = ParamStore()
        store.add("w", [0.125])
        (tmp_path / "text.ckpt").write_text("not-a-checkpoint\n")
        oracles.write_v1_checkpoint(store, tmp_path / "v1.ckpt")
        for path in (tmp_path / "text.ckpt", tmp_path / "v1.ckpt"):
            with pytest.raises(DataError) as info:
                ParamStore.load(path)
            assert str(info.value) == (f"{path}: missing checkpoint header "
                                       f"'affectseq-params v2' (affectseq-params v1 "
                                       f"checkpoints are retired)")

    def test_checkpoint_value_count_checked(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(v2_bytes(["w 2"], [1.0]))
        with pytest.raises(DataError) as info:
            ParamStore.load(path)
        assert str(info.value) == f"{path}:2: payload has 8 bytes, expected 16"

    @pytest.mark.parametrize("index, values, line, text", [
        (["w x"], [1.0], 2, "bad shape 'x'"),
        (["w 1 zzz"], [1.0], 2, "malformed index line 'w 1 zzz'"),
        (["w"], [1.0], 2, "malformed index line 'w'"),
        (["a 1", "a 1"], [1.0, 1.0], 3, "duplicate parameter name: a"),
        (["w 1"], [np.nan], 2, "parameter w has non-finite values"),
    ], ids=["bad-shape", "extra-field", "missing-field", "duplicate", "non-finite"])
    def test_checkpoint_malformed_records_rejected(self, tmp_path, index, values, line, text):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(v2_bytes(index, values))
        with pytest.raises(DataError) as info:
            ParamStore.load(path)
        assert str(info.value) == f"{path}:{line}: {text}"

    def test_checkpoint_is_lexicographic(self, tmp_path):
        store = ParamStore()
        store.add("z", [1.0])
        store.add("a", [2.0])
        path = tmp_path / "model.ckpt"
        store.save(path)
        lines = path.read_bytes().split(b"\n")
        assert lines[0] == b"affectseq-params v2"
        assert lines[1] == b"a 1" and lines[2] == b"z 1"


def v2_bytes(index, values):
    """A v2 checkpoint from its index lines and its flat payload values."""
    return (("\n".join(["affectseq-params v2", *index]) + "\n\n").encode()
            + np.asarray(values, dtype="<f8").tobytes())


def wide_store():
    """Random values in the shapes of two LSTM encoders (H=128) over
    openSMILE (1582) and CNN (2048) feature widths."""
    rng = np.random.default_rng(5)
    store = ParamStore()
    for modality, width in (("audio", 1582), ("image", 2048)):
        for gate in "ifog":
            for kind, shape in (("W", (128, width)), ("U", (128, 128)), ("b", (128,))):
                store.add(f"enc.{modality}.l0.{kind}_{gate}", rng.normal(size=shape))
    return store


names = st.text(st.characters(codec="utf-8"), min_size=1, max_size=8).filter(
    lambda name: name.split() == [name])
values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.0 ** -1060, 2.0 ** -1022, 1e308, -1e308])


@st.composite
def stores(draw):
    store = ParamStore()
    for name in sorted(draw(st.sets(names, max_size=5))):
        shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
        size = math.prod(shape)
        store.add(name, np.array(draw(st.lists(values, min_size=size, max_size=size)),
                                 dtype=np.float64).reshape(shape))
    return store


class TestCheckpointFormat:
    """``affectseq-params v2``: header, ``<name> <dims>`` index lines in name
    order, a blank line, then raw little-endian float64 values. It is the
    only format read. Every fault names the file and the record's line."""

    def test_v2_bytes_exact(self, tmp_path):
        store = ParamStore()
        store.add("z", 2.5)
        store.add("a.w", [[1.0, -0.0, 3.0], [4.0, 5e-324, -1e308]])
        store.add("e", np.zeros((2, 0)))
        path = tmp_path / "model.ckpt"
        store.save(path)
        assert path.read_bytes() == v2_bytes(["a.w 2,3", "e 2,0", "z -"],
                                             [1.0, -0.0, 3.0, 4.0, 5e-324, -1e308, 2.5])

    def test_empty_store_round_trips(self, tmp_path):
        path = tmp_path / "model.ckpt"
        ParamStore().save(path)
        assert path.read_bytes() == b"affectseq-params v2\n\n"
        assert ParamStore.load(path).names() == []

    @given(store=stores())
    @settings(max_examples=60, deadline=None)
    def test_round_trips_bit_for_bit(self, tmp_path_factory, store):
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        store.save(path)
        loaded = ParamStore.load(path)
        assert loaded.names() == store.names()
        for name in store.names():
            assert loaded.value(name).shape == store.value(name).shape
            np.testing.assert_array_equal(loaded.value(name).view(np.int64),
                                          store.value(name).view(np.int64))

    @pytest.mark.parametrize("name", ["", "a b", "a\tb", "a\nb", "a\rb", "a\x1cb", "a\x85b",
                                      "a\u2028b", "a\u2029b", "\xa0", "w ", "w\ud800"])
    def test_names_that_cannot_round_trip_refused(self, name):
        with pytest.raises(ConfigError):
            ParamStore().add(name, [1.0])

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_file_names_path(self, tmp_path, kind):
        path = tmp_path / "model.ckpt"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"affectseq-params v2\nw 1\n\xff\xfe 1\n\n" + bytes(16))
        with pytest.raises(DataError) as info:
            ParamStore.load(path)
        expected = f"{path}:3: not UTF-8 text" if kind == "not-utf8" else f"missing file: {path}"
        assert str(info.value) == expected

    @pytest.mark.parametrize("dims", ["1000000000000000000000000000000",
                                      "3037000500,3037000500"])
    def test_v1_huge_shape_is_a_count_error(self, tmp_path, dims):
        """The huge shapes that the ``v1`` reader counted as Python ints stay
        a count error in ``v2``, with no int64 overflow; the ``v1`` file
        itself is refused at its header, before its shape is sized."""
        v1 = tmp_path / "v1.ckpt"
        v1.write_text(f"affectseq-params v1\nw {dims} 0x1p+0\n")
        with pytest.raises(DataError) as info:
            ParamStore.load(v1)
        assert str(info.value) == (f"{v1}: missing checkpoint header 'affectseq-params v2' "
                                   f"(affectseq-params v1 checkpoints are retired)")
        path = tmp_path / "bad.ckpt"
        path.write_bytes(v2_bytes([f"w {dims}"], [1.0]))
        with pytest.raises(DataError) as info:
            ParamStore.load(path)
        count = math.prod(int(d) for d in dims.split(","))
        assert str(info.value) == f"{path}:2: payload has 8 bytes, expected {8 * count}"

    @pytest.mark.parametrize("dims", ["+1", " 1", "1 ", "\u0661", "1,", ",1", "", "-1", "1e0",
                                      "1_0", "0x1", "9" * 5000, ",".join("1" * 65)],
                             ids=lambda dims: repr(dims) if len(dims) < 12 else f"{len(dims)}-chars")
    def test_strict_shape_tokens(self, tmp_path, dims):
        path = tmp_path / "model.ckpt"
        path.write_bytes(v2_bytes([f"w {dims}"], [1.0]))
        with pytest.raises(DataError) as info:
            ParamStore.load(path)
        assert str(info.value).startswith(f"{path}:2: "), str(info.value)

    def test_empty_shape_over_numpy_size_limit(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(v2_bytes(["w 0,99999999999,99999999999"], []))
        with pytest.raises(DataError) as info:
            ParamStore.load(path)
        assert str(info.value).startswith(f"{path}:2: bad shape (0, 99999999999, 99999999999)")

    def test_many_unit_dims_load(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(v2_bytes(["w " + ",".join("1" * 32)], [7.0]))
        assert ParamStore.load(path).value("w").shape == (1,) * 32

    @pytest.mark.parametrize("cut, line", [(0, 2), (8, 2), (15, 2), (16, 3), (23, 3)])
    def test_short_payload_names_bytes_and_record(self, tmp_path, cut, line):
        path = tmp_path / "model.ckpt"
        data = v2_bytes(["a 2", "b 1"], [1.0, 2.0, 3.0])
        path.write_bytes(data[:len(data) - 24 + cut])
        with pytest.raises(DataError) as info:
            ParamStore.load(path)
        assert str(info.value) == f"{path}:{line}: payload has {cut} bytes, expected 24"

    def test_short_read_names_the_file(self, tmp_path, monkeypatch):
        """A file that ends before the size taken of it is a short read."""
        path = tmp_path / "model.ckpt"
        path.write_bytes(v2_bytes(["a 2"], [1.0]))
        size = path.stat().st_size + 8
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=size))
        with pytest.raises(DataError) as info:
            ParamStore.load(path)
        assert str(info.value) == (f"{path}: short read: the payload ended after 8 of 16 "
                                   f"bytes (the file changed while it was read)")

    def test_load_holds_the_payload_once(self, tmp_path):
        """A checkpoint of LSTM encoders over openSMILE (1582) and CNN (2048)
        features loads at a traced peak of its payload plus small change:
        the file's bytes are never held beside the values."""
        store = wide_store()
        path = tmp_path / "wide.ckpt"
        store.save(path)
        payload = 8 * sum(value.size for _, value in store.items())
        assert payload >= 8 * 2 ** 20
        tracemalloc.start()
        try:
            loaded = ParamStore.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.names() == store.names()
        assert peak <= payload + 2 ** 20, (peak, payload)

    def test_loaded_parameters_are_disjoint_owned_views(self, tmp_path):
        rng = np.random.default_rng(6)
        store = ParamStore()
        for name, shape in (("a", (3, 4)), ("b", ()), ("c", (0, 5)), ("d", (7,)),
                            ("e", (2, 3, 2))):
            store.add(name, rng.normal(size=shape))
        path = tmp_path / "model.ckpt"
        store.save(path)
        values = [value for _, value in ParamStore.load(path).items()]
        for value in values:
            assert value.dtype == np.float64
            assert value.flags.aligned and value.flags.c_contiguous and value.flags.writeable
            assert isinstance(value.base, np.ndarray) and value.base.flags.owndata
        for x, y in itertools.combinations(values, 2):
            assert not np.shares_memory(x, y)
        for i, value in enumerate(values):
            value[...] = i
        assert [set(value.ravel().tolist()) for value in values] == \
            [{0.0}, {1.0}, set(), {3.0}, {4.0}]

    def test_adam_step_on_loaded_store_saves_as_on_added_store(self, tmp_path):
        rng = np.random.default_rng(7)
        built = ParamStore()
        for name, shape in (("a.W", (30, 20)), ("a.b", (30,)), ("c", ())):
            built.add(name, rng.normal(size=shape))
        built.save(tmp_path / "start.ckpt")
        loaded = ParamStore.load(tmp_path / "start.ckpt")
        grads = {name: rng.normal(size=value.shape) for name, value in built.items()}
        for side, store in (("built", built), ("loaded", loaded)):
            state = AdamState.for_params(store, lr=0.01)
            for _ in range(2):
                adam_step(store, state, grads)
            store.save(tmp_path / f"{side}.ckpt")
        stepped = (tmp_path / "built.ckpt").read_bytes()
        assert stepped != (tmp_path / "start.ckpt").read_bytes()
        assert (tmp_path / "loaded.ckpt").read_bytes() == stepped

    @pytest.mark.parametrize("extra", [b"\x00", b"\n", bytes(8)])
    def test_long_payload_names_bytes(self, tmp_path, extra):
        path = tmp_path / "model.ckpt"
        path.write_bytes(v2_bytes(["a 2"], [1.0, 2.0]) + extra)
        with pytest.raises(DataError) as info:
            ParamStore.load(path)
        assert str(info.value) == f"{path}: payload has {16 + len(extra)} bytes, expected 16"

    @pytest.mark.parametrize("index, payload, line, text", [
        (["a 1", "b 2"], [1.0, np.nan, 3.0], 3, "parameter b has non-finite values"),
        (["a 1", "b 2"], [-np.inf, 2.0, 3.0], 2, "parameter a has non-finite values"),
        (["a 1", "a 1"], [1.0, 2.0], 3, "duplicate parameter name: a"),
        (["a 1 x"], [1.0], 2, "malformed index line 'a 1 x'"),
        (["a"], [1.0], 2, "malformed index line 'a'"),
        (["a\t1"], [1.0], 2, "malformed index line 'a\\t1'"),
        (["a\x1cb 1"], [1.0], 2, "parameter names must be non-empty"),
        (["a 1", "b 99999999999999999999"], [1.0, 2.0], 3,
         "payload has 16 bytes, expected 800000000000000000000"),
        (["a 1", "b 3037000500,3037000500"], [1.0, 2.0], 3,
         "payload has 16 bytes, expected 73786976296002000008"),
    ])
    def test_v2_record_faults_name_line(self, tmp_path, index, payload, line, text):
        path = tmp_path / "model.ckpt"
        data = v2_bytes(index, payload)
        path.write_bytes(data)
        with pytest.raises(DataError) as info:
            ParamStore.load(path)
        assert str(info.value).startswith(f"{path}:{line}: {text}")

    @pytest.mark.parametrize("data", [
        b"affectseq-params v2\na 1" + np.float64(1.0).tobytes(),   # no blank line
        b"affectseq-params v2\n",
        b"affectseq-params v2",
        b"affectseq-params v3\n\n",
        b"",
        b"\xff\xfe",
        b"affectseq-params v2\na\xff 1\n\n" + bytes(8),     # index not UTF-8
    ])
    def test_v2_file_faults_name_path(self, tmp_path, data):
        path = tmp_path / "model.ckpt"
        path.write_bytes(data)
        with pytest.raises(DataError) as info:
            ParamStore.load(path)
        assert str(info.value).startswith(f"{path}")


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
        adam_step(store, state, {"p": np.zeros(2)})
        np.testing.assert_array_equal(store.value("p"), [1.0, -2.0])
        assert state.t == 1

    def test_zero_learning_rate_is_identity(self):
        store = self._store([1.0, -2.0])
        state = AdamState.for_params(store, lr=0.0)
        adam_step(store, state, {"p": np.array([3.0, -4.0])})
        np.testing.assert_array_equal(store.value("p"), [1.0, -2.0])

    def test_first_step_closed_form(self):
        # m_hat = g, v_hat = g^2, so the first step is lr * g / (|g| + eps).
        store = self._store([1.0])
        state = AdamState.for_params(store, lr=0.1)
        adam_step(store, state, {"p": np.array([2.0])})
        expected = 1.0 - 0.1 * 2.0 / (2.0 + 1e-8)
        np.testing.assert_allclose(store.value("p"), [expected], rtol=1e-15)
        np.testing.assert_allclose(store.value("p"), [0.9], atol=1e-8)

    def test_nan_gradient_aborts(self):
        store = self._store([1.0])
        state = AdamState.for_params(store)
        with pytest.raises(NumericError):
            adam_step(store, state, {"p": np.array([np.nan])})

    def test_parameters_without_gradient_keep_their_bits(self):
        # the same bits as a zero gradient: m stays 0, so p -= 0.0
        stores = [ParamStore(), ParamStore()]
        for store in stores:
            store.add("a", [1.0, -2.0])
            store.add("b", [-0.0, 3.0])
        states = [AdamState.for_params(store, lr=0.1) for store in stores]
        for _ in range(2):
            adam_step(stores[0], states[0], {"a": np.array([0.5, -1.5])})
            adam_step(stores[1], states[1], {"a": np.array([0.5, -1.5]), "b": np.zeros(2)})
        for name in ("a", "b"):
            for got, want in ((stores[0].value(name), stores[1].value(name)),
                              (states[0].m[name], states[1].m[name]),
                              (states[0].v[name], states[1].v[name])):
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        np.testing.assert_array_equal(stores[0].value("b").view(np.int64),
                                      np.array([-0.0, 3.0]).view(np.int64))

    @pytest.mark.parametrize("bad, error", [
        ({"b": np.array([np.nan])}, NumericError),
        ({"b": np.array([np.inf])}, NumericError),
        ({"c": np.array([1.0])}, ConfigError),
        ({"b": np.array([1.0, 1.0])}, DimensionError),
    ], ids=["nan", "inf", "unknown-name", "shape"])
    def test_bad_gradient_moves_nothing(self, bad, error):
        store = ParamStore()
        store.add("a", [1.0, -2.0])
        store.add("b", [3.0])
        state = AdamState.for_params(store, lr=0.1)
        adam_step(store, state, {"a": np.array([0.5, -0.5]), "b": np.array([2.0])})
        snapshot = [(store.value(n).copy(), state.m[n].copy(), state.v[n].copy())
                    for n in store.names()]
        with pytest.raises(error):
            adam_step(store, state, {"a": np.array([1.0, 1.0]), **bad})
        assert state.t == 1
        for name, arrays in zip(store.names(), snapshot):
            for got, want in zip((store.value(name), state.m[name], state.v[name]), arrays):
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_lr_zero_identity_for_random_gradients(self):
        rng = np.random.default_rng(5)
        store = ParamStore()
        store.add("a", rng.normal(size=(2, 3)))
        store.add("b", rng.normal(size=4))
        before = {n: store.value(n).copy() for n in store.names()}
        state = AdamState.for_params(store, lr=0.0)
        for _ in range(3):
            adam_step(store, state, {n: rng.normal(size=before[n].shape) for n in store.names()})
        for n in store.names():
            np.testing.assert_array_equal(store.value(n), before[n])


class TestGradCheck:
    def test_quadratic(self):
        store = ParamStore()
        rng = np.random.default_rng(11)
        store.add("p", rng.normal(size=5))

        def loss(s):
            p = s.value("p")
            return float(p @ p), {"p": 2.0 * p}

        assert grad_check(loss, store) < 1e-9

    def test_constant_loss(self):
        store = ParamStore()
        store.add("p", [1.0, 2.0])

        def loss(s):
            return 4.0, {}

        assert grad_check(loss, store) == 0.0

    def test_nondeterministic_closure_rejected(self):
        store = ParamStore()
        store.add("p", [1.0])
        rng = np.random.default_rng(0)

        def loss(s):
            return float(rng.normal()), {}

        with pytest.raises(ContractViolation):
            grad_check(loss, store)

    @pytest.mark.parametrize("grads", [{"q": np.zeros(1)}, {"p": np.zeros(2)}],
                             ids=["unknown-name", "shape"])
    def test_gradient_matching_no_parameter_rejected(self, grads):
        store = ParamStore()
        store.add("p", [1.0])
        with pytest.raises(ContractViolation):
            grad_check(lambda s: (float(s.value("p")[0]), grads), store)

    def test_eps_domain(self):
        store = ParamStore()
        store.add("p", [1.0])
        with pytest.raises(DomainError):
            grad_check(lambda s: (0.0, {}), store, eps=0.0)
