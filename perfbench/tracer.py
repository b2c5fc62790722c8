"""Outside-in span tracer for the dwgan layers.

The tracer replaces public functions and methods of the package with
timing wrappers from the benchmark's side; no file of the package knows
about it. A function imported by name into another module (``conv2d`` in
``model``, ``encoders`` and ``metrics``; ``total_loss`` in ``train``; ...)
has one binding per importing module, and every binding is replaced, so
the call is traced whichever module makes it. ``uninstall`` puts every
original object back.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``op`` the index of the timed op
it belongs to (None outside the ops). Spans stay in memory and are written
once, by ``write``, when the run ends. A span's self time is its duration
minus the time its child spans cover.

Conv backward passes are attributed by wrapping the backward closure of
every recorded graph node (``tensor._make``); the closure of a conv node
is renamed to its conv kind, so ``tensor.backward`` self time is the graph
walk alone. The layers have no queues, so there is no waiting time to
trace: one caller runs one op at a time and every span is busy time.
"""

from __future__ import annotations

import functools
import gzip
import json
import logging
import sys
import time
from collections import defaultdict

# (module, attribute path, span name); a method is given as "Class.method".
TARGETS = (
    ("dwgan.tensor", "Tensor.backward", "tensor.backward"),
    ("dwgan.wavelet", "dwt2", "wavelet.dwt2"),
    ("dwgan.wavelet", "idwt2", "wavelet.idwt2"),
    ("dwgan.model", "Generator.__call__", "model.generator"),
    ("dwgan.model", "DwtBranch.__call__", "model.dwt_branch"),
    ("dwgan.model", "KaBranch.__call__", "model.ka_branch"),
    ("dwgan.model", "Discriminator.__call__", "model.discriminator"),
    ("dwgan.model", "load_checkpoint", "model.load_checkpoint"),
    ("dwgan.model", "save_checkpoint", "model.save_checkpoint"),
    ("dwgan.encoders", "ToyEncoder.stages", "encoders.stages"),
    ("dwgan.losses", "total_loss", "losses.total_loss"),
    ("dwgan.losses", "smooth_l1", "losses.smooth_l1"),
    ("dwgan.losses", "ms_ssim_loss", "losses.ms_ssim_loss"),
    ("dwgan.losses", "perceptual", "losses.perceptual"),
    ("dwgan.losses", "adversarial_gen", "losses.adversarial_gen"),
    ("dwgan.losses", "discriminator_loss", "losses.discriminator_loss"),
    ("dwgan.metrics", "ssim", "metrics.ssim"),
    ("dwgan.metrics", "ms_ssim", "metrics.ms_ssim"),
    ("dwgan.metrics", "psnr", "metrics.psnr"),
    ("dwgan.train", "Adam.step", "train.adam_step"),
    ("dwgan.train", "augment", "train.augment"),
    ("dwgan.train", "evaluate", "train.evaluate"),
    ("dwgan.train", "baseline_metrics", "train.baseline_metrics"),
    ("dwgan.hazesim", "make_base_images", "hazesim.make_base_images"),
    ("dwgan.hazesim", "make_dataset", "hazesim.make_dataset"),
    ("dwgan.datatool", "read_image", "datatool.read_image"),
    ("dwgan.datatool", "write_image", "datatool.write_image"),
    ("dwgan.cli", "main", "cli.main"),
)

# Every conv shape the three workloads run, as named by conv_kind.
CONV_KINDS = ("k7s1", "k3s1", "k3s2", "k4s2", "k1s1", "k11x1", "k1x11")

WARN_LOGGER = "dwgan.metrics"
WARN_TEXT = "reducing levels"


def conv_kind(kernel_shape, stride: int) -> str:
    """``k{k}s{stride}`` for a square kernel, ``k{kh}x{kw}`` otherwise
    (with ``s{stride}`` appended when the stride is not 1)."""
    kh, kw = kernel_shape[2], kernel_shape[3]
    if kh == kw:
        return f"k{kh}s{stride}"
    return f"k{kh}x{kw}" + (f"s{stride}" if stride != 1 else "")


def im2col_bytes(x_shape, kernel_shape, stride: int, padding: int) -> int:
    """Size of the (B*Ho*Wo) x (Cin*kh*kw) float64 matrix an im2col conv
    materialises, computed from the shapes (not measured)."""
    bn, cin, h, w = x_shape
    _, _, kh, kw = kernel_shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    return bn * ho * wo * cin * kh * kw * 8


class _Closure:
    """A graph node's backward closure, timed as a span when called."""

    __slots__ = ("tracer", "fn", "name")

    def __init__(self, tracer: "Tracer", fn, name: str):
        self.tracer, self.fn, self.name = tracer, fn, name

    def __call__(self, g):
        if not self.tracer.active:
            return self.fn(g)
        idx = self.tracer.open(self.name)
        try:
            return self.fn(g)
        finally:
            self.tracer.close(idx)


class _WarnCounter(logging.Filter):
    """Counts ms_ssim "reducing levels" records; lets every record pass,
    so what reaches stderr is unchanged."""

    def __init__(self, tracer: "Tracer"):
        super().__init__()
        self.tracer = tracer

    def filter(self, record: logging.LogRecord) -> bool:
        if WARN_TEXT in str(record.msg):
            self.tracer.count("metrics.ms_ssim_warnings")
        return True


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.child_s: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self.active = False
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._filter: _WarnCounter | None = None

    # -- spans and counts -------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.op])
        self.child_s.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = self.clock()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        if span[3] >= 0:
            self.child_s[span[3]] += end - span[1]

    def count(self, name: str, n: float = 1) -> None:
        if self.op is not None:
            self.counts[name] += n

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    # -- installation -----------------------------------------------------

    def _replace_bindings(self, orig, new) -> None:
        """Point every dwgan module attribute bound to ``orig`` at ``new``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "dwgan"
                                   or modname.startswith("dwgan.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, new)

    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self.active:
            raise RuntimeError("tracer already installed")
        self.missing = []
        tensor = sys.modules["dwgan.tensor"]
        self._install_graph_hooks(tensor)
        for modname, path, name in TARGETS:
            owner = sys.modules.get(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{modname}.{path}")
                continue
            orig = vars(owner)[attr]
            if cls_path:
                self._set(owner, attr, self.wrap(name, orig))
            else:
                self._replace_bindings(orig, self.wrap(name, orig))
        self._filter = _WarnCounter(self)
        logging.getLogger(WARN_LOGGER).addFilter(self._filter)
        self.active = True

    def _install_graph_hooks(self, tensor) -> None:
        tracer = self
        orig_make = vars(tensor).get("_make")
        if orig_make is None:
            self.missing.append("dwgan.tensor._make")
        else:
            @functools.wraps(orig_make)
            def traced_make(*args, **kwargs):
                out = orig_make(*args, **kwargs)
                if out._backward is not None:
                    tracer.count("tensor.graph_nodes")
                    out._backward = _Closure(tracer, out._backward,
                                             "tensor.closure")
                return out

            self._set(tensor, "_make", traced_make)

        orig_conv = vars(tensor)["conv2d"]

        @functools.wraps(orig_conv)
        def traced_conv(x, kernel, stride=1, padding=0):
            kind = conv_kind(kernel.shape, stride)
            tracer.count("tensor.conv2d.im2col_bytes",
                         im2col_bytes(x.shape, kernel.shape, stride, padding))
            idx = tracer.open(f"tensor.conv2d.{kind}.fwd")
            try:
                out = orig_conv(x, kernel, stride=stride, padding=padding)
            finally:
                tracer.close(idx)
            if isinstance(out._backward, _Closure):
                out._backward.name = f"tensor.conv2d.{kind}.bwd"
            return out

        self._replace_bindings(orig_conv, traced_conv)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
        if self._filter is not None:
            logging.getLogger(WARN_LOGGER).removeFilter(self._filter)
            self._filter = None
        self.op = None
        self.active = False

    # -- reports ------------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self and inclusive seconds, summed over
        the timed ops ("in_ops") and outside them ("outside")."""
        rows: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                     "calls_outside": 0, "self_s_outside": 0.0,
                     "incl_s_outside": 0.0})
        for (name, start, end, _, op), child in zip(self.spans, self.child_s):
            row = rows[name]
            sfx = "" if op is not None else "_outside"
            row["calls" + sfx] += 1
            row["self_s" + sfx] += end - start - child
            row["incl_s" + sfx] += end - start
        return dict(rows)

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: a header naming the fields, then
        one ``[name, start_s, end_s, parent, op]`` list per span."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["name", "start_s", "end_s",
                                            "parent", "op"],
                                 "counts": dict(self.counts),
                                 "missing": self.missing}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# Per-layer metrics: name -> (span, statistic, unit). Values are per timed
# op; "self" is span self time, "incl" includes child spans.
_SPAN_METRICS = {
    "tensor.backward_ms": ("tensor.backward", "incl_s"),
    "tensor.graph_walk_ms": ("tensor.backward", "self_s"),
    "wavelet.dwt2_ms": ("wavelet.dwt2", "self_s"),
    "wavelet.idwt2_ms": ("wavelet.idwt2", "self_s"),
    "model.generator_ms": ("model.generator", "self_s"),
    "model.dwt_branch_ms": ("model.dwt_branch", "self_s"),
    "model.ka_branch_ms": ("model.ka_branch", "self_s"),
    "model.discriminator_ms": ("model.discriminator", "self_s"),
    "model.load_checkpoint_ms": ("model.load_checkpoint", "self_s"),
    "encoders.stages_ms": ("encoders.stages", "self_s"),
    "losses.total_loss_ms": ("losses.total_loss", "self_s"),
    "losses.ms_ssim_loss_ms": ("losses.ms_ssim_loss", "self_s"),
    "losses.perceptual_ms": ("losses.perceptual", "self_s"),
    "losses.discriminator_loss_ms": ("losses.discriminator_loss", "self_s"),
    "metrics.ssim_ms": ("metrics.ssim", "self_s"),
    "metrics.ms_ssim_ms": ("metrics.ms_ssim", "self_s"),
    "metrics.psnr_ms": ("metrics.psnr", "self_s"),
    "train.adam_step_ms": ("train.adam_step", "self_s"),
    "train.augment_ms": ("train.augment", "self_s"),
    "hazesim.make_dataset_ms": ("hazesim.make_dataset", "self_s"),
    "datatool.read_image_ms": ("datatool.read_image", "self_s"),
    "datatool.write_image_ms": ("datatool.write_image", "self_s"),
}


def per_layer(tracer: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run with ``n_ops`` traced ops.

    ``train.evaluate_ms`` is the held-out evaluation, which runs once
    between two ops and outside their times, so it is a total, not a
    per-op value.
    """
    if n_ops < 1:
        raise ValueError("no traced ops")
    table = tracer.table()

    def stat(span: str, key: str) -> float:
        return table[span][key] if span in table else 0.0

    out: dict[str, tuple[float, str]] = {}
    for kind in CONV_KINDS:
        base = f"tensor.conv2d.{kind}"
        out[f"{base}.fwd_ms"] = (1e3 * stat(f"{base}.fwd", "self_s") / n_ops, "ms")
        out[f"{base}.bwd_ms"] = (1e3 * stat(f"{base}.bwd", "self_s") / n_ops, "ms")
        out[f"{base}.calls"] = (stat(f"{base}.fwd", "calls") / n_ops, "count")
    out["tensor.conv2d.im2col_mb"] = (
        tracer.counts["tensor.conv2d.im2col_bytes"] / 1e6 / n_ops, "MB")
    out["tensor.graph_nodes"] = (tracer.counts["tensor.graph_nodes"] / n_ops,
                                 "count")
    for metric, (span, key) in _SPAN_METRICS.items():
        out[metric] = (1e3 * stat(span, key) / n_ops, "ms")
    out["metrics.ms_ssim_warnings"] = (
        tracer.counts["metrics.ms_ssim_warnings"] / n_ops, "count")
    out["train.evaluate_ms"] = (1e3 * stat("train.evaluate", "incl_s_outside"),
                                "ms")
    return out
