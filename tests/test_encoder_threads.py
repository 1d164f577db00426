"""Running the modality encoders on several threads changes no bit.

``lanes.in_threads`` runs the first encoder on the calling thread and
the others on threads the call starts, as many as the usable CPUs allow,
which these tests set by patching ``lanes.usable_cpus``: 1 forces every
encoder inline, 8 gives each modality but the first its own thread, more
threads than the host may have cores.
"""

import inspect
import sys
import threading
import time

import numpy as np
import pytest

from affectseq import lanes, model
from affectseq.cli import main
from affectseq.config import MANIFEST_NAME
from affectseq.dataio import SynthSpec, synth_generate
from affectseq.errors import DimensionError
from affectseq.fusion import FusionConfig
from affectseq.rng import generator
from affectseq.seqmodel import EncoderConfig

MODALITIES = ("audio", "image", "face")


def run3_model(cell, units, modalities, seed=0, batch=6, steps=5):
    """A dropout + batch-norm model over ``modalities`` encoders of
    different input widths, its parameters and one batch."""
    encoders = tuple((name, EncoderConfig(input_dim=2 + k, hidden_units=units, cell_kind=cell,
                                          dropout_rate=0.5))
                     for k, name in enumerate(MODALITIES[:modalities]))
    config = model.ModelConfig(encoders, FusionConfig(enable_batchnorm=True, dropout_rate=0.5),
                               sequence_length=steps)
    store = model.init_model_params(config, seed)
    rng = generator(seed, "windows")
    windows = {name: rng.normal(size=(batch, steps, enc.input_dim)) for name, enc in encoders}
    targets = rng.uniform(-0.9, 0.9, size=(batch, 2))
    return config, store, windows, targets


@pytest.fixture
def threads_seen(monkeypatch):
    """``(pass, thread name)`` of each encoder pass run: "train" for a
    forward pass given a generator, "eval" for one without, "backward"
    for a run of the backward closure a kept forward pass returns."""
    seen = set()
    encode = model.encode_batch_graph

    def encode_recorded(*args, **kwargs):
        arguments = inspect.signature(encode).bind(*args, **kwargs).arguments
        seen.add(("eval" if arguments.get("rng") is None else "train",
                  threading.current_thread().name))
        if not arguments.get("keep"):
            return encode(*args, **kwargs)
        state, backward = encode(*args, **kwargs)

        def backward_recorded(g):
            seen.add(("backward", threading.current_thread().name))
            return backward(g)
        return state, backward_recorded

    monkeypatch.setattr(model, "encode_batch_graph", encode_recorded)
    return seen


def outputs(monkeypatch, cpus, config, store, windows, targets):
    """Everything the model computes over one batch, at ``cpus`` usable CPUs."""
    monkeypatch.setattr(lanes, "usable_cpus", lambda: cpus)
    store = store.copy()
    results = {"predict": model.predict_batch(store, config, windows)}
    results["eval"] = model.training_loss(windows, targets, store, config, None)
    results["train"] = model.training_loss(windows, targets, store, config,
                                           generator(1, "masks-train"))
    results["store"] = dict(store.copy().items())
    return results


@pytest.mark.parametrize("modalities", [2, 3])
@pytest.mark.parametrize("units", [(4,), (4, 3)], ids=["1layer", "2layer"])
@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_pooled_run_is_bit_identical_to_inline(monkeypatch, threads_seen, cell, units,
                                               modalities):
    config, store, windows, targets = run3_model(cell, units, modalities)
    caller = threading.current_thread().name
    inline = outputs(monkeypatch, 1, config, store, windows, targets)
    assert {thread for _, thread in threads_seen} == {caller}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        pooled = outputs(monkeypatch, 8, config, store, windows, targets)
    finally:
        sys.setswitchinterval(interval)
    # some encoders ran on the pool: forward in either pass, and backward
    for kind in ("eval", "train", "backward"):
        assert {thread for seen, thread in threads_seen if seen == kind} - {caller}, kind
    np.testing.assert_array_equal(pooled["predict"], inline["predict"])
    for mode in ("eval", "train"):
        (value, grads), (value0, grads0) = pooled[mode], inline[mode]
        assert (value.loss, value.l2_penalty) == (value0.loss, value0.l2_penalty)
        # the batch-norm moments that train_run averages into the running statistics
        np.testing.assert_array_equal(value.batch_moments, value0.batch_moments)
        assert (value.batch_moments is None) == (mode == "eval")
        assert sorted(grads) == sorted(grads0)
        for name, grad in grads.items():
            np.testing.assert_array_equal(grad, grads0[name], err_msg=f"{mode} {name}")
    for name, value in pooled["store"].items():
        np.testing.assert_array_equal(value, inline["store"][name], err_msg=name)


@pytest.mark.parametrize("cpus", [1, 8])
def test_failure_in_a_later_modality_is_raised_as_inline(monkeypatch, cpus):
    config, store, windows, targets = run3_model("gru", (4,), 3)
    windows["face"] = windows["face"][:, :, :2]
    monkeypatch.setattr(lanes, "usable_cpus", lambda: cpus)
    message = "batch windows of width 2 do not match encoder input_dim 4"
    with pytest.raises(DimensionError, match=message):
        model.predict_batch(store, config, windows)
    with pytest.raises(DimensionError, match=message):
        model.training_loss(windows, targets, store, config, None)


def test_first_failure_in_job_order_is_raised_after_every_job(monkeypatch):
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 8)
    finished = []

    def fails(label, delay):
        def job():
            time.sleep(delay)
            finished.append(label)
            raise ValueError(label)
        return job

    def slow():
        time.sleep(0.2)
        finished.append("slow")
        return 1

    with pytest.raises(ValueError, match="^second$"):
        lanes.in_threads([lambda: 0, fails("second", 0.1), fails("third", 0.0), slow])
    assert sorted(finished) == ["second", "slow", "third"]
    finished.clear()
    with pytest.raises(ValueError, match="^first$"):
        lanes.in_threads([fails("first", 0.0), slow, fails("third", 0.0)])
    assert sorted(finished) == ["first", "slow", "third"]
    assert lanes.in_threads([lambda: 0, slow, lambda: 2]) == [0, 1, 2]


@pytest.mark.parametrize("cpus, modalities", [(8, 1), (1, 3)], ids=["one-modality", "one-cpu"])
def test_one_modality_or_one_cpu_starts_no_thread(monkeypatch, threads_seen, cpus, modalities):
    config, store, windows, targets = run3_model("lstm", (4, 3), modalities)
    monkeypatch.setattr(lanes, "usable_cpus", lambda: cpus)
    # a thread another test started may still be exiting, so the check is
    # that no thread appears, not that the count holds
    before = set(threading.enumerate())
    model.predict_batch(store, config, windows)
    model.training_loss(windows, targets, store, config, generator(1, "masks"))
    assert set(threading.enumerate()) <= before
    assert {kind for kind, _ in threads_seen} == {"eval", "train", "backward"}
    assert {thread for _, thread in threads_seen} == {threading.current_thread().name}


def test_encoder_threads_end_with_the_call(monkeypatch, threads_seen):
    """Each pooled call joins the threads it started: none outlives it."""
    config, store, windows, targets = run3_model("gru", (4,), 3)
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 8)
    model.predict_batch(store, config, windows)
    model.training_loss(windows, targets, store, config, generator(1, "masks"))
    caller = threading.current_thread().name
    for kind in ("eval", "train", "backward"):
        assert {thread for seen, thread in threads_seen if seen == kind} - {caller}, kind
    assert not [thread.name for thread in threading.enumerate()
                if thread.name.startswith("affectseq-encoder")]


def test_train_writes_the_same_bytes_at_one_and_two_cpus(monkeypatch, tmp_path):
    """run3 (dropout and batch norm) over three modalities with a
    validation movie, so both the training steps and the per-epoch
    validation pass run their encoders on the pool."""
    spec = SynthSpec(num_movies=3, length=40,
                     modalities=(("audio", 4), ("image", 3), ("face", 2)),
                     validation_movies=("m002",))
    manifest = synth_generate(spec, tmp_path / "data", 3).root / MANIFEST_NAME
    (tmp_path / "run.cfg").write_text(
        f"manifest = {manifest}\nprofile = run3\nseed = 5\nepochs = 2\nbatch_size = 16\n"
        "sequence_length = 6\nhidden_units = 5,3\ncell = lstm\n")
    written = []
    for cpus in (1, 2):
        monkeypatch.setattr(lanes, "usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["train", "--config", str(tmp_path / "run.cfg"), "--out", str(out)]) == 0
        written.append([(out / name).read_bytes()
                        for name in ("model.ckpt", "training_log.csv")])
    assert written[0] == written[1]
