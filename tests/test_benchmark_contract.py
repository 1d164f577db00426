"""The package interface that ``perfbench/tracing.py`` reads.

The benchmark wraps ``seqmodel.encode_batch_graph`` and computes the
encoder's work from its first two arguments and from ``EncoderConfig``,
and counts graph nodes by patching ``autodiff.Var.__init__``. A refactor
that renames any of these turns the benchmark's layers "missing"; these
tests make it fail here first.
"""

import inspect

import numpy as np

from affectseq import autodiff
from affectseq.seqmodel import EncoderConfig, encode_batch_graph


def test_encoder_call_shape():
    params = list(inspect.signature(encode_batch_graph).parameters)
    assert params[:2] == ["seqs", "config"]


def test_encoder_config_fields():
    config = EncoderConfig(input_dim=3, hidden_units=(4, 2), cell_kind="lstm")
    assert config.cell_kind == "lstm"
    assert config.hidden_units == (4, 2)
    assert [config.layer_input_dim(layer) for layer in range(2)] == [3, 4]


def test_graph_nodes_are_autodiff_vars(monkeypatch):
    assert autodiff.Var.__module__ == "affectseq.autodiff"
    config = EncoderConfig(input_dim=3, hidden_units=(4,))
    leaves = {
        f"enc.m.l0.{kind}_{gate}": autodiff.Var(np.zeros(shape))
        for gate in ("z", "r", "h")
        for kind, shape in (("W", (4, 3)), ("U", (4, 4)), ("b", (4,)))
    }
    built = []
    init = autodiff.Var.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(autodiff.Var, "__init__", counted)
    h = encode_batch_graph(np.zeros((2, 5, 3)), config, leaves, "enc.m")
    assert type(h) is autodiff.Var
    assert h in built
