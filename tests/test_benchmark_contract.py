"""The package interface that ``perfbench/tracing.py`` and
``perfbench/workloads.py`` read.

The benchmark wraps ``seqmodel.encode_batch_graph`` and computes the
encoder's work from its first two arguments and from ``EncoderConfig``,
and counts graph nodes by patching ``autodiff.Var.__init__``. It counts
the bytes parsed by ``dataio.load_features`` and ``load_predictions``
from their ``path`` argument and the samples smoothed by
``smoothing.filtfilt`` from its ``x``, replacing each function where a
module namespace holds it. Its set-up writes checkpoints with
``ParamStore.save(path)`` and it times ``ParamStore.load`` by that name.
It reads the batch and window sizes from ``np.shape(seqs)``, so during
``predict`` the encoder must still receive one ``[B, T, D]`` array per
batch, even though that array is a strided view. A refactor that renames any of these turns the benchmark's layers
"missing", or stops them counting; these tests make it fail here first.
Every layer ``tracing.py`` lists must also resolve to a function, and
every name ``workloads.py`` imports must exist where it imports it from.
"""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from affectseq import autodiff, dataio, model, smoothing
from affectseq.cli import main
from affectseq.config import MANIFEST_NAME, parse_config
from affectseq.fusion import FusionConfig
from affectseq.numerics import ParamStore
from affectseq.seqmodel import EncoderConfig, encode_batch_graph


def _load_perfbench(name):
    """``perfbench/<name>.py`` as the module ``perfbench_<name>``, registered
    in ``sys.modules`` before it runs, where ``dataclasses`` looks it up."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TRACING = _load_perfbench("tracing")


@pytest.mark.parametrize("name, module, path, work", TRACING.LAYERS + TRACING.SETUP_LAYERS,
                         ids=[row[0] for row in TRACING.LAYERS + TRACING.SETUP_LAYERS])
def test_every_traced_layer_resolves(name, module, path, work):
    _, _, fn = TRACING._resolve(module, path)
    assert callable(fn)


def test_every_declared_per_layer_metric_has_a_source():
    """Each ``per_layer`` metric ``BENCHMARK.json`` declares, less its last
    dotted part, names a layer of ``LAYERS`` or ``SETUP_LAYERS`` that
    resolves, a ``cli.*`` command span, or a ``trace.*`` figure; an
    ``autodiff.nodes_per_*`` count needs the node class to resolve. A traced
    result that lacks a declared metric would be malformed."""
    root = Path(__file__).resolve().parents[1]
    declared = [m["name"] for m in json.loads((root / "BENCHMARK.json").read_text())["per_layer"]]
    layers = {row[0]: row for row in TRACING.LAYERS + TRACING.SETUP_LAYERS}
    unsourced = []
    for metric in declared:
        layer = metric.rsplit(".", 1)[0]
        try:
            if layer in layers:
                TRACING._resolve(*layers[layer][1:3])
            elif metric.startswith("autodiff.nodes_per_"):
                TRACING._resolve(*TRACING.NODE_CLASS)
            elif not metric.startswith(("cli.", "trace.")):
                unsourced.append(f"{metric}: no source")
        except (ImportError, AttributeError) as exc:
            unsourced.append(f"{metric}: {exc}")
    assert declared and unsourced == []


def test_workloads_set_up_imports():
    """The benchmark's set-up imports its ``affectseq`` names by module
    (``SynthSpec``, ``synth_generate`` and ``save_prediction_dir`` from
    ``dataio``, ``parse_config`` from ``config``); loading it resolves
    every one."""
    workloads = _load_perfbench("workloads")
    assert sorted(workloads.WORKLOADS) == ["paper_train", "post_long", "wide_infer"]


def test_encoder_call_shape():
    params = list(inspect.signature(encode_batch_graph).parameters)
    assert params[:2] == ["seqs", "config"]


def test_predict_hands_the_encoder_batch_shaped_windows(monkeypatch, tmp_path):
    """Movies of 7 s, windows of T = 4, batches of 3: the encoder of each
    modality sees [B, 4, D] with B = 3, then 4 (a one-window remainder
    folds into the batch before it). A batch's encoders run at once, so
    they may start in either order; batches follow one another."""
    manifest = dataio.synth_generate(dataio.SynthSpec(
        num_movies=2, length=7, modalities=(("audio", 3), ("image", 2))), tmp_path / "data", 1)
    (tmp_path / "run.cfg").write_text(
        f"manifest = {manifest.root / MANIFEST_NAME}\nprofile = run1\n"
        "sequence_length = 4\nhidden_units = 2\nbatch_size = 3\n")
    config = parse_config(tmp_path / "run.cfg")
    model.init_model_params(config.model_config(), 0).save(tmp_path / "model.ckpt")
    shapes = []
    encode = model.encode_batch_graph

    def recorded(seqs, config, *args, **kwargs):
        shapes.append(np.shape(seqs))
        return encode(seqs, config, *args, **kwargs)

    monkeypatch.setattr(model, "encode_batch_graph", recorded)
    assert main(["predict", "--config", str(tmp_path / "run.cfg"), "--checkpoint",
                 str(tmp_path / "model.ckpt"), "--out", str(tmp_path / "out")]) == 0
    batches = [sorted(shapes[i:i + 2]) for i in range(0, len(shapes), 2)]
    assert batches == [[(b, 4, 2), (b, 4, 3)] for _ in range(2) for b in (3, 4)]


def test_checkpoint_call_shapes():
    assert list(inspect.signature(ParamStore.save).parameters) == ["self", "path"]
    assert list(inspect.signature(ParamStore.load).parameters) == ["path"]
    assert inspect.ismethod(ParamStore.load)  # a classmethod, bound to the class


def test_encoder_config_fields():
    config = EncoderConfig(input_dim=3, hidden_units=(4, 2), cell_kind="lstm")
    assert config.cell_kind == "lstm"
    assert config.hidden_units == (4, 2)
    assert [config.layer_input_dim(layer) for layer in range(2)] == [3, 4]


def test_graph_nodes_are_autodiff_vars(monkeypatch):
    """The node class resolves, a training step builds nodes of it (the
    benchmark's ``nodes_per_train_step``), and the encoder returns its
    final state as a plain [B, H] array."""
    _, _, cls = TRACING._resolve(*TRACING.NODE_CLASS)
    assert cls is autodiff.Var
    built = []
    init = autodiff.Var.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(autodiff.Var, "__init__", counted)
    config = EncoderConfig(input_dim=3, hidden_units=(4,))
    params = {
        f"enc.m.l0.{kind}_{gate}": np.zeros(shape)
        for gate in ("z", "r", "h")
        for kind, shape in (("W", (4, 3)), ("U", (4, 4)), ("b", (4,)))
    }
    h = encode_batch_graph(np.zeros((2, 5, 3)), config, params, "enc.m")
    assert type(h) is np.ndarray and h.shape == (2, 4)
    model_config = model.ModelConfig((("m", config),), FusionConfig(), sequence_length=5)
    store = model.init_model_params(model_config, 0)
    model.training_loss({"m": np.zeros((2, 5, 3))}, np.zeros((2, 2)), store, model_config, None)
    assert built


def test_track_reader_and_filter_call_shapes():
    for reader in (dataio.load_features, dataio.load_predictions):
        assert list(inspect.signature(reader).parameters)[0] == "path"
    assert list(inspect.signature(smoothing.filtfilt).parameters)[:2] == ["coeffs", "x"]


def test_prediction_dir_reads_through_module_global(monkeypatch, tmp_path):
    """perfbench counts ``load_prediction_dirs``' reads by patching
    ``dataio.load_predictions``, which each read job calls through the
    module global. This 2 x 3-row directory is below the fork floor, so it
    is read inline, where the patched global counts it."""
    dataio.save_prediction_dir({m: np.zeros((3, 2)) for m in ("m000", "m001")}, tmp_path)
    read = []
    load = dataio.load_predictions

    def counted(path):
        read.append(path)
        return load(path)

    monkeypatch.setattr(dataio, "load_predictions", counted)
    assert sorted(dataio.load_prediction_dirs(tmp_path)[0]) == ["m000", "m001"]
    assert read == [tmp_path / "m000.csv", tmp_path / "m001.csv"]
