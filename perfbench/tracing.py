"""Spans around the public functions of affectseq's modules.

The traced run replaces each function named in ``LAYERS`` by a wrapper,
in every module namespace (and class) of ``affectseq`` and of the
benchmark's set-up code that holds it, so the
calls are caught where they are made without touching the package's
source. Each wrapper records a span: layer name, start, end, the span
that was open when it started, and optional work units computed from the
call's arguments. A layer's self time is its span's duration minus the
durations of its child spans (the chain is single-threaded, so children
never overlap).

A boundary that no longer exists (renamed or removed by a refactor) is
listed in ``Tracer.missing`` and its metrics are left out of the result.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import sys
import time

import numpy as np


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _track_samples(args, kwargs, result):
    return np.asarray(args[1] if len(args) > 1 else kwargs["x"]).size


def _encoder_cost(args, kwargs, result):
    """Computed (flops, bytes moved) of one batch through the encoder.

    Per layer and time step, each of the G gates multiplies [B, D] and
    [B, H] inputs into H units: 2*B*G*H*(D+H) flops. Bytes moved count
    the gate weights read once per step, the [B, D] input and [B, H]
    state read, and the [B, G*H] pre-activations written, in float64;
    cache reuse is ignored.
    """
    seqs = args[0] if args else kwargs["seqs"]
    config = args[1] if len(args) > 1 else kwargs["config"]
    batch, steps, _ = np.shape(seqs)
    gates = 3 if config.cell_kind == "gru" else 4
    flops = moved = 0
    for layer, units in enumerate(config.hidden_units):
        width = config.layer_input_dim(layer)
        flops += 2 * batch * steps * gates * units * (width + units)
        moved += 8 * steps * (gates * units * (width + units)
                              + batch * (width + units) + batch * gates * units)
    return flops, moved


# (layer name, module, attribute path, work function)
LAYERS = (
    ("config.parse_config", "affectseq.config", "parse_config", None),
    ("training.train_run", "affectseq.training", "train_run", None),
    ("training.predict_tracks", "affectseq.training", "predict_tracks", None),
    ("model.training_loss", "affectseq.model", "training_loss", None),
    ("model.predict_batch", "affectseq.model", "predict_batch", None),
    ("seqmodel.encode", "affectseq.seqmodel", "encode_batch_graph", _encoder_cost),
    ("fusion.head", "affectseq.fusion", "fusion_head_graph", None),
    ("autodiff.backward", "affectseq.autodiff", "backward", None),
    ("numerics.adam_step", "affectseq.numerics", "adam_step", None),
    ("numerics.checkpoint_load", "affectseq.numerics", "ParamStore.load", None),
    ("numerics.checkpoint_save", "affectseq.numerics", "ParamStore.save", None),
    ("model.init_model_params", "affectseq.model", "init_model_params", None),
    ("dataio.load_features", "affectseq.dataio", "load_features", _file_bytes),
    ("dataio.load_predictions", "affectseq.dataio", "load_predictions", _file_bytes),
    ("dataio.save_prediction_dir", "affectseq.dataio", "save_prediction_dir", None),
    ("dataio.gather", "affectseq.dataio", "WindowSet.gather", None),
    ("smoothing.filtfilt", "affectseq.smoothing", "filtfilt", _track_samples),
    ("evalmetrics.evaluate_run", "affectseq.evalmetrics", "evaluate_run", None),
    ("evalmetrics.ensemble_average", "affectseq.evalmetrics", "ensemble_average", None),
)
# Spans the worker opens itself around each affectseq.cli.main call.
COMMAND_LAYERS = tuple((f"cli.{command}", None, None, None) for command in
                       ("train", "predict", "smooth", "ensemble", "evaluate"))
SETUP_LAYERS = (
    ("dataio.synth_generate", "affectseq.dataio", "synth_generate", None),
)
# Namespaces searched for references to a layer's function: the package
# itself and the benchmark's set-up code.
CALLER_MODULES = ("affectseq", "workloads")
# Every Var constructed counts as one autodiff graph node.
NODE_CLASS = ("affectseq.autodiff", "Var")


class Span:
    __slots__ = ("name", "start", "end", "parent", "work", "nodes")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.work = None
        self.nodes = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """In-memory span recorder; ``install`` patches, ``reset`` clears."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.counts_nodes = False
        self._stack: list[int] = []
        self._nodes = 0

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        nodes = self._nodes
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            record.nodes = self._nodes - nodes

    def _wrap(self, name: str, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if work is not None:
                try:
                    record.work = work(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError):
                    record.work = None
            return result
        return traced

    def _count_nodes(self, init):
        @functools.wraps(init)
        def counted(*args, **kwargs):
            self._nodes += 1
            init(*args, **kwargs)
        return counted

    @contextlib.contextmanager
    def install(self, layers):
        """Patch every layer boundary that exists; restore all on exit."""
        undo = []
        self.missing = []
        try:
            for name, module_name, path, work in layers:
                try:
                    owner, attr, fn = _resolve(module_name, path)
                except (ImportError, AttributeError):
                    self.missing.append(name)
                    continue
                if isinstance(owner, type):
                    raw = vars(owner).get(attr, fn)
                    if isinstance(raw, classmethod):
                        wrapper = classmethod(self._wrap(name, raw.__func__, work))
                    else:
                        wrapper = self._wrap(name, raw, work)
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, wrapper)
                    continue
                wrapper = self._wrap(name, fn, work)
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith(CALLER_MODULES):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            undo.append((module, key, value))
                            setattr(module, key, wrapper)
            try:
                _, _, cls = _resolve(*NODE_CLASS)
                init = cls.__init__
                undo.append((cls, "__init__", init))
                cls.__init__ = self._count_nodes(init)
                self.counts_nodes = True
            except (ImportError, AttributeError):
                self.counts_nodes = False
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def summarize(passes: list[list[Span]]) -> dict[str, dict]:
    """Per layer, over several traced passes of the same work.

    ``calls`` and ``self_s`` are medians over passes of the per-pass count
    and summed self time; ``durations`` pools every call's duration;
    ``work`` and ``busy_s`` pool work units and the self time of the calls
    that reported them; ``nodes`` pools per-call graph node counts.
    """
    names = sorted({s.name for spans in passes for s in spans})
    per_layer = {name: {"calls": [], "self_s": [], "durations": [], "work": [],
                        "busy_s": 0.0, "nodes": []} for name in names}
    for spans in passes:
        selfs = self_times(spans)
        calls = dict.fromkeys(names, 0)
        total = dict.fromkeys(names, 0.0)
        for span, own in zip(spans, selfs):
            entry = per_layer[span.name]
            calls[span.name] += 1
            total[span.name] += own
            entry["durations"].append(span.duration)
            entry["nodes"].append(span.nodes)
            if span.work is not None:
                entry["work"].append(span.work)
                entry["busy_s"] += own
        for name in names:
            per_layer[name]["calls"].append(calls[name])
            per_layer[name]["self_s"].append(total[name])
    for entry in per_layer.values():
        entry["calls"] = statistics.median(entry["calls"])
        entry["self_s"] = statistics.median(entry["self_s"])
    return per_layer


def span_records(spans: list[Span]) -> list[dict]:
    selfs = self_times(spans)
    return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "self_s": own, "nodes": s.nodes} for s, own in zip(spans, selfs)]
