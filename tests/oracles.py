"""Plain-numpy references for the batched model graph, one sample at a time.

Each function restates an equation from the docstrings of
``affectseq.seqmodel`` and ``affectseq.fusion`` with column-vector
products (``W @ x``), independently of the autodiff ops, so tests can
check ``encode_batch_graph``, ``batch_norm_graph`` and
``fusion_head_graph`` row by row against it. ``freq_response``
evaluates a designed filter's transfer function and ``lfilter`` runs the
difference equation over numpy scalars, for the smoothing tests.
``track_text`` formats a track CSV row by row, as the track writer's
block formatter must.
``write_v1_checkpoint`` writes a ``ParamStore`` in the retired hex-text
checkpoint format, which ``ParamStore.load`` refuses. ``grad_check``
compares a loss closure's analytic gradients with central finite
differences. ``sliding_windows`` builds the strided window view that
prediction hands the encoders, ``copied_windows`` the batch that
training gathers from the same rows, and ``projections_agree`` says
whether BLAS rounds that view's shared input projection as it rounds a
copy's.
``encoder_drift`` and ``head_drift`` bound how far two evaluations of
the model can drift apart when BLAS rounds their products differently.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from affectseq import seqmodel
from affectseq.dataio import window_sequences
from affectseq.errors import DomainError


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


def lfilter(b, a, x, zi):
    """Transposed direct-form difference equation, one numpy scalar at a time."""
    n = b.size - 1
    z = np.array(zi, dtype=np.float64)
    y = np.zeros_like(x)
    for i in range(x.size):
        xi = x[i]
        yi = z[0] + b[0] * xi if n else b[0] * xi
        for j in range(n - 1):
            z[j] = z[j + 1] + b[j + 1] * xi - a[j + 1] * yi
        if n:
            z[n - 1] = b[n] * xi - a[n] * yi
        y[i] = yi
    return y


def track_text(movie_id, values, columns):
    """A track CSV as ``write_track`` lays it out, one row at a time: the
    header, then ``<id>,<t>,<repr of each value>`` for t = 0..L-1, each
    line ending in a newline."""
    lines = ["movie_id,t," + ",".join(columns)]
    for t, row in enumerate(values):
        lines.append(f"{movie_id},{t}," + ",".join(map(repr, row.tolist())))
    return "\n".join(lines) + "\n"


def write_v1_checkpoint(store, path):
    """``affectseq-params v1``: one line per parameter in name order,
    ``<name> <dims> <hex values>``, with ``-`` as the dims of a 0-d value."""
    lines = ["affectseq-params v1"]
    for name, arr in store.items():
        dims = ",".join(str(d) for d in arr.shape) or "-"
        values = " ".join(float(v).hex() for v in arr.ravel())
        lines.append(f"{name} {dims} {values}".rstrip())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class ContractViolation(Exception):
    """A loss closure handed to ``grad_check`` broke its contract."""


def grad_check(loss_fn, store, eps=1e-5):
    """Central finite differences against the analytic gradient.

    ``loss_fn(store)`` must return ``(loss, grads)``: a scalar loss and a
    ``{name: gradient}`` dict over the store's names, where a name left out
    has zero gradient. The closure must be deterministic; live dropout or
    any other source of run-to-run variation, or a gradient for a name the
    store lacks or of the wrong shape, raises :class:`ContractViolation`.
    Returns the max over parameter entries of
    ``|g_fd - g_an| / max(1e-8, |g_fd| + |g_an|)``.
    """
    if eps <= 0:
        raise DomainError("grad_check needs eps > 0")
    base, grads = loss_fn(store)
    if float(loss_fn(store)[0]) != float(base):
        raise ContractViolation("loss closure is not deterministic across calls")
    for name, g in grads.items():
        if name not in store.names() or np.shape(g) != store.value(name).shape:
            raise ContractViolation(f"gradient {name} of shape {np.shape(g)} matches no parameter")
    analytic = {name: np.array(g, dtype=np.float64).ravel() for name, g in grads.items()}

    worst = 0.0
    for name in store.names():
        flat = store.value(name).ravel()
        gan = analytic.get(name, np.zeros_like(flat))
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            lp = float(loss_fn(store)[0])
            flat[i] = keep - eps
            lm = float(loss_fn(store)[0])
            flat[i] = keep
            fd = (lp - lm) / (2.0 * eps)
            denom = max(1e-8, abs(fd) + abs(gan[i]))
            worst = max(worst, abs(fd - gan[i]) / denom)
    return worst


def sliding_windows(rows, steps):
    """The windows of ``steps`` consecutive [L, D] ``rows`` as one zero-copy
    [L-steps+1, steps, D] view whose window and step strides are equal."""
    return sliding_window_view(rows, steps, axis=0).transpose(0, 2, 1)


def copied_windows(view):
    """A copy of a window view laid out as a gathered batch, [B, T, D] with
    row-major strides. ``np.ascontiguousarray`` returns a one-window view
    itself, whose equal window and step strides the encoders read as a
    strided view."""
    copy = np.empty(view.shape)
    copy[...] = view
    return copy


def projections_agree(view, cell, kind):
    """Whether the input projection gives the strided ``view`` (one
    [B+T-1, D] table) and its contiguous copy (B rows a step) the same
    bits. BLAS may pick another kernel for another row count, which
    rounds differently: OpenBLAS's small-matrix kernel and gemv do."""
    gates = seqmodel.GRU_GATES if kind == "gru" else seqmodel._LSTM_STACK
    steps = zip(seqmodel._input_steps(view, cell, gates),
                seqmodel._input_steps(copied_windows(view), cell, gates))
    return all(np.array_equal(a, b) for a, b in steps)


# How far two evaluations of the model may drift apart when BLAS sums the
# terms of a product in another order: a kernel picked by the row count
# (a strided table against a copy, or one batch size against another).
# Higham (Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1):
# a computed n-term sum lies within gamma_n * sum |terms| of the exact
# one, with gamma_n = n u / (1 - n u), so two computations of one row's
# projection differ by at most 2 gamma_{D+1} |x| |W|^T (bias included).
# That drift is carried through every step and layer to first order, on
# the forward values of one evaluation: a pre-activation drift e moves
# sigmoid by s (1 - s) e and tanh by (1 - t^2) e, a product x y drifts by
# |x| e_y + |y| e_x, and every recurrent product adds its own rounding as
# the projection does. Each elementwise result may add a fresh rounding
# of at most FRESH times its magnitude (at least 1): numpy's exp and tanh
# lie within 2 ulp, and their vector and scalar loops may differ. Second
# order terms (drifts near 1e-12 squared) are left out.
UNIT_ROUNDOFF = 2.0 ** -53
FRESH = 8 * UNIT_ROUNDOFF


def _gamma(n):
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


def _fresh(value):
    return FRESH * np.maximum(np.abs(value), 1.0)


def _affine_drift(a, err, w, b):
    """``a @ w.T + b`` over the rows of ``a`` and its drift bound, when
    ``err`` bounds the drift of ``a``."""
    aw = np.abs(w).T
    bound = err @ aw + 2.0 * _gamma(a.shape[-1] + 1) * (np.abs(a) @ aw + np.abs(b))
    return a @ w.T + b, bound


def _sigmoid_drift(a, err):
    s = sigmoid(a)
    return s, s * (1.0 - s) * err + _fresh(s)


def _tanh_drift(a, err):
    t = np.tanh(a)
    return t, (1.0 - t * t) * err + _fresh(t)


def _product_drift(x, ex, y, ey):
    return x * y, np.abs(x) * ey + np.abs(y) * ex + _fresh(x * y)


def _gate_drift(x, err, p, gate, h, eh, nonlinearity=_sigmoid_drift):
    """One gate's activation over [B, D] inputs ``x`` and [B, H] states ``h``."""
    a, ea = _affine_drift(np.concatenate([x, h], axis=1), np.concatenate([err, eh], axis=1),
                          np.concatenate([p[f"W_{gate}"], p[f"U_{gate}"]], axis=1),
                          p[f"b_{gate}"])
    return nonlinearity(a, ea)


def encoder_drift(x, cells, kind):
    """A stacked GRU or LSTM over a [B, T, D] batch, each layer's cell a dict
    of ``W_*``, ``U_*``, ``b_*``: the top layer's states [B, T, H] and an
    elementwise bound on how far two evaluations of them can drift apart
    (see the derivation above)."""
    err = np.zeros_like(x)
    for p in cells:
        width = p["b_h" if kind == "gru" else "b_g"].size
        h, eh, c, ec = (np.zeros((x.shape[0], width)) for _ in range(4))
        states, drifts = [], []
        for t in range(x.shape[1]):
            xt, et = x[:, t], err[:, t]
            if kind == "gru":
                z, ez = _gate_drift(xt, et, p, "z", h, eh)
                r, er = _gate_drift(xt, et, p, "r", h, eh)
                rh, erh = _product_drift(r, er, h, eh)
                hc, ehc = _gate_drift(xt, et, p, "h", rh, erh, _tanh_drift)
                h_new = (1.0 - z) * h + z * hc
                eh = (np.abs(1.0 - z) * eh + np.abs(z) * ehc + np.abs(hc - h) * ez
                      + 3 * _fresh(h_new))
                h = h_new
            else:
                i, ei = _gate_drift(xt, et, p, "i", h, eh)
                f, ef = _gate_drift(xt, et, p, "f", h, eh)
                o, eo = _gate_drift(xt, et, p, "o", h, eh)
                g, eg = _gate_drift(xt, et, p, "g", h, eh, _tanh_drift)
                c_new = f * c + i * g
                ec = (np.abs(f) * ec + np.abs(c) * ef + np.abs(i) * eg + np.abs(g) * ei
                      + 3 * _fresh(c_new))
                c = c_new
                h, eh = _product_drift(o, eo, *_tanh_drift(c, ec))
            states.append(h)
            drifts.append(eh)
        x, err = np.stack(states, axis=1), np.stack(drifts, axis=1)
    return x, err


def _context_gate_drift(x, err, w, b):
    return _product_drift(*_sigmoid_drift(*_affine_drift(x, err, w, b)), x, err)


def head_drift(x, err, store, config):
    """Eval-mode predictions in annotation units [B, 2] from [B, F] encoder
    states ``x`` whose drift ``err`` bounds, and the predictions' drift
    bound, carried through the head as :func:`encoder_drift` carries it."""
    if config.enable_batchnorm:
        scale = store.value("fusion.bn.gamma") / np.sqrt(store.value("fusion.bn.running_var")
                                                         + config.bn_epsilon)
        shifted = x - store.value("fusion.bn.running_mean")
        x = shifted * scale + store.value("fusion.bn.beta")
        err = np.abs(scale) * err + 4 * _fresh(np.abs(shifted) * (1.0 + np.abs(scale)) + np.abs(x))
    w2, b2 = store.value("fusion.cg2.W"), store.value("fusion.cg2.b")
    v, ev = _context_gate_drift(x, err, store.value("fusion.cg1.W"), store.value("fusion.cg1.b"))
    if config.cg2_position == "moe_input":
        v, ev = _context_gate_drift(v, ev, w2, b2)
    columns = []
    for dim in ("valence", "arousal"):
        ew, eb, gw, gb = (store.value(f"fusion.moe.{dim}.{k}")
                          for k in ("expert_W", "expert_b", "gate_W", "gate_b"))
        s, es = _sigmoid_drift(*_affine_drift(v, ev, ew, eb))
        logits, el = _affine_drift(v, ev, gw, gb)
        g = np.exp(logits - logits.max(axis=1, keepdims=True))
        g /= g.sum(axis=1, keepdims=True)
        # softmax to first order: dg_k = g_k (dl_k - sum_j g_j dl_j)
        eg = g * (el + np.sum(g * el, axis=1, keepdims=True)) + 3 * _fresh(g)
        mix = np.sum(g * s, axis=1)
        columns.append((mix, np.sum(g * es + s * eg, axis=1)
                        + 2.0 * _gamma(g.shape[1]) * mix + _fresh(mix)))
    p, ep = np.stack([c[0] for c in columns], axis=1), np.stack([c[1] for c in columns], axis=1)
    if config.cg2_position == "moe_output":
        p, ep = _context_gate_drift(p, ep, w2, b2)
    lo, hi = config.output_range
    out = lo + (hi - lo) * p
    return out, (hi - lo) * ep + 2 * _fresh(out)


def prediction_drift(store, model_config, features):
    """Eval-mode predictions of each movie's windows, one window per second,
    computed in one batch per movie, with their drift bound: how far two
    evaluations of them, in any batches, can drift apart."""
    steps = model_config.sequence_length
    out = {}
    for movie in sorted(features):
        rows = window_sequences({movie: features[movie]}, None, steps).rows
        states = [encoder_drift(np.ascontiguousarray(sliding_windows(rows[name], steps)),
                                [cell_params(store, f"enc.{name}.l{layer}")
                                 for layer in range(len(enc.hidden_units))], enc.cell_kind)
                  for name, enc in model_config.encoders]
        out[movie] = head_drift(np.concatenate([h[:, -1] for h, _ in states], axis=1),
                                np.concatenate([e[:, -1] for _, e in states], axis=1),
                                store, model_config.fusion)
    return out
