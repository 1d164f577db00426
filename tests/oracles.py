"""Plain-numpy references for the batched model graph, one sample at a time.

Each function restates an equation from the docstrings of
``affectseq.seqmodel`` and ``affectseq.fusion`` with column-vector
products (``W @ x``), independently of the autodiff ops, so tests can
check ``encode_batch_graph``, ``batch_norm_graph`` and
``fusion_head_graph`` row by row against it. ``freq_response``
evaluates a designed filter's transfer function for the smoothing tests.
"""

import numpy as np


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))


def softmax(z):
    e = np.exp(z - np.max(z))
    return e / e.sum()


def cell_params(store, layer_prefix):
    """One layer's ``W_*``, ``U_*`` and ``b_*`` arrays, keyed without the prefix."""
    start = layer_prefix + "."
    return {n[len(start):]: store.value(n) for n in store.names() if n.startswith(start)}


def gru_step(x, h, p):
    z = sigmoid(p["W_z"] @ x + p["U_z"] @ h + p["b_z"])
    r = sigmoid(p["W_r"] @ x + p["U_r"] @ h + p["b_r"])
    hc = np.tanh(p["W_h"] @ x + p["U_h"] @ (r * h) + p["b_h"])
    return (1.0 - z) * h + z * hc


def lstm_step(x, h, c, p):
    i = sigmoid(p["W_i"] @ x + p["U_i"] @ h + p["b_i"])
    f = sigmoid(p["W_f"] @ x + p["U_f"] @ h + p["b_f"])
    o = sigmoid(p["W_o"] @ x + p["U_o"] @ h + p["b_o"])
    g = np.tanh(p["W_g"] @ x + p["U_g"] @ h + p["b_g"])
    c = f * c + i * g
    return o * np.tanh(c), c


def encode(seq, config, store, prefix, masks=None):
    """Unroll of one T x D sequence; returns the top layer's final h.

    ``masks`` (train mode) holds one T x D_layer array per layer that
    multiplies that layer's inputs step by step; without it this is eval
    mode.
    """
    inputs = list(seq)
    for layer, width in enumerate(config.hidden_units):
        p = cell_params(store, f"{prefix}.l{layer}")
        h, c = np.zeros(width), np.zeros(width)
        if masks is not None:
            inputs = [x * m for x, m in zip(inputs, masks[layer])]
        outputs = []
        for x in inputs:
            if config.cell_kind == "gru":
                h = gru_step(x, h, p)
            else:
                h, c = lstm_step(x, h, c, p)
            outputs.append(h)
        inputs = outputs
    return h


def batch_norm_train(x, gamma, beta, eps):
    """Train-mode batch norm of a [B, F] batch by its biased statistics."""
    return gamma * (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + eps) + beta


def context_gate(x, w, b):
    return sigmoid(w @ x + b) * x


def moe(v, store):
    out = []
    for dim in ("valence", "arousal"):
        ew, eb, gw, gb = (store.value(f"fusion.moe.{dim}.{k}")
                          for k in ("expert_W", "expert_b", "gate_W", "gate_b"))
        out.append(softmax(gw @ v + gb) @ sigmoid(ew @ v + eb))
    return np.array(out)


def fusion_head(x, store, config):
    """Eval-mode head on one concatenated state (no batch norm or dropout);
    returns the gated probabilities [2]."""
    v = context_gate(x, store.value("fusion.cg1.W"), store.value("fusion.cg1.b"))
    w2, b2 = store.value("fusion.cg2.W"), store.value("fusion.cg2.b")
    if config.cg2_position == "moe_input":
        return moe(context_gate(v, w2, b2), store)
    return context_gate(moe(v, store), w2, b2)


def freq_response(coeffs, omega):
    """Complex response H(e^{i*omega}) of ``IIRCoefficients`` on a radian
    frequency grid."""
    omega = np.asarray(omega, dtype=np.float64)
    zinv = np.exp(-1j * np.outer(omega, np.arange(coeffs.order + 1)))
    return (zinv @ coeffs.b) / (zinv @ coeffs.a)
