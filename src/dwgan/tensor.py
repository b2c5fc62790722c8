"""Minimal dense-tensor engine with reverse-mode differentiation.

Conventions, fixed once and used everywhere:

- double precision (float64) throughout
- conv2d is cross-correlation: kernels are applied as stored, never flipped
  (a conv that runs as its transpose reads the kernel flipped internally;
  the result is the same cross-correlation)
- add/mul/div broadcast one way only: a size-1 operand against any tensor,
  or an operand of the same rank whose every axis equals the other's or is 1
  (a (1, C, 1, 1) bias, a (B, 1, H, W) gate); the result has the larger shape
- tensors are immutable once created except for gradient accumulation,
  which is confined to a single backward pass, and the optimizer's
  in-place parameter update (``train.Adam.step``), which runs after it

The engine is eager: every operation on a gradient-requiring tensor records
its backward closure immediately. There is no graph optimization.

The ops, 20 in all: pointwise ``add``, ``mul``, ``div``, ``power``,
``relu``, ``leaky_relu``, ``sigmoid``, ``log``, ``absval``, ``clip_min``;
reductions ``tsum``, ``tmean``, ``spatial_mean``; structural ``reshape``,
``subsample2``, ``interleave2``, ``pixel_shuffle``, ``avg_pool2``; and the
filters ``conv2d`` (the model's convolutions) and ``window`` (a separable
per-plane filter, SSIM's Gaussian window). ``no_grad`` is not an op.

The graph holds no forward data. A tensor that requires a gradient carries
a small ``_Node``: its gradient, its parents' nodes and its closure. A
closure keeps only the arrays its backward reads (relu's mask, the other
operand of a ``mul``, a conv's input windows and kernel, a window's band
matrix; only shapes for ``add``, ``reshape`` and the like) and returns one
gradient per parent, None where that parent needs none. So an
intermediate's array is freed as soon as the model code drops the tensor,
unless a closure kept it.

No op joins tensors: a conv reads a join along the channels from its
parts, given as a ``Channels`` (see ``conv2d``).

Inside a ``with no_grad():`` block nothing is recorded: every result has
requires_grad False, no parents and no backward closure, so nothing keeps
an op's intermediates (a conv's padded input) alive after it returns.
Forward values are bit-identical to a recording run. The block restores
the previous state on exit, also when it raises, and blocks nest.

``backward()`` releases the graph as it sweeps it: once a node's closure
has run, the node drops its parents, its gradient and the closure (and with
it whatever the closure kept alive), so one step's graph does not outlive
its backward. Leaves, the tensors with no closure (parameters and inputs),
keep their ``.grad``. A later backward that reaches a released node raises
RuntimeError instead of adding a partial gradient.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


class _Node:
    """A recorded tensor's place in the graph: its gradient, its parents'
    nodes (None for a parent that needs no gradient) and its backward
    closure (None for a leaf). It holds no forward data."""

    __slots__ = ("grad", "parents", "backward")

    def __init__(self, parents=(), backward=None):
        self.grad: np.ndarray | None = None
        self.parents: tuple[_Node | None, ...] = parents
        self.backward = backward


class Tensor:
    """Dense float64 array of rank <= 4 with optional gradient tracking.

    Rank-4 tensors are interpreted as (batch, channel, height, width).
    A tensor requires a gradient exactly when it has a graph node.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 4:
            raise ShapeError(f"rank {arr.ndim} > 4 not supported")
        self.data = arr
        self._node: _Node | None = _Node() if requires_grad else None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- graph plumbing ------------------------------------------------------

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @requires_grad.setter
    def requires_grad(self, flag: bool) -> None:
        if not flag:
            self._node = None
        elif self._node is None:
            self._node = _Node()

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        if self._node is not None:
            self._node.grad = g
        elif g is not None:
            raise ValueError("cannot set .grad of a tensor that does not "
                             "require a gradient")

    @property
    def _parents(self) -> tuple[_Node | None, ...]:
        return () if self._node is None else self._node.parents

    @property
    def _backward(self):
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, fn) -> None:
        self._node.backward = fn

    def detach(self) -> "Tensor":
        """Same data, cut off from the graph."""
        return Tensor(self.data)

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar root.

        Each closure's gradients are added into its parents' nodes in
        parent order, so a node used several times sums them. A gradient
        is stored as it comes only when it is C-contiguous and owns its
        memory, and, when it is the gradient the closure was given (as
        ``add`` hands it on), only for the last parent it goes to, since
        the node drops it right after; anything else is copied, so no two
        nodes share a gradient array. The sweep releases every node whose
        closure it runs (see the module docstring): afterwards only the
        leaves hold a ``.grad``, and a second backward through the same
        graph raises RuntimeError.
        """
        if self.data.size != 1:
            raise ShapeError(
                f"backward() requires a scalar root, got size {self.data.size}"
            )
        root = self._node
        if root is None:
            return
        topo: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if p is not None and id(p) not in seen:
                    stack.append((p, False))
        root.grad = np.ones_like(self.data)
        # popped, so a closure's arrays go as soon as it has run
        while topo:
            node = topo.pop()
            if node.backward is None:
                continue
            g = node.grad
            if g is not None:
                pairs = [(p, gp) for p, gp in
                         zip(node.parents, node.backward(g))
                         if p is not None and gp is not None]
                # g is dropped below, so the last parent handed g may keep it
                last = max((n for n, (_, gp) in enumerate(pairs) if gp is g),
                           default=-1)
                for n, (p, gp) in enumerate(pairs):
                    if p.grad is not None:
                        p.grad = p.grad + gp
                    elif ((gp is g and n != last) or not gp.flags.c_contiguous
                          or not gp.flags.owndata):
                        p.grad = gp.copy()
                    else:
                        p.grad = gp
            node.parents = ()
            node.grad = None
            node.backward = _released

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, mul(_coerce(other), -1.0))

    def __rsub__(self, other):
        return add(_coerce(other), mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, p):
        return power(self, p)

    def abs(self):
        return absval(self)

    def sum(self):
        return tsum(self)

    def mean(self):
        return tmean(self)

    def reshape(self, shape):
        return reshape(self, shape)


def _coerce(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _released(g: np.ndarray) -> None:
    raise RuntimeError(
        "backward() through a graph that an earlier backward() released")


_recording = True


@contextlib.contextmanager
def no_grad():
    """Run a block without recording the graph (see the module docstring)."""
    global _recording
    prev, _recording = _recording, False
    try:
        yield
    finally:
        _recording = prev


def _make(data: np.ndarray, parents: Sequence[Tensor],
          backward: Callable[[np.ndarray], Sequence]) -> Tensor:
    """Wrap an op's result; when recording and some parent requires a
    gradient, give it a node whose closure maps the result's gradient to
    one gradient (or None) per parent."""
    out = Tensor(data)
    if _recording and any(p._node is not None for p in parents):
        out._node = _Node(tuple(p._node for p in parents), backward)
    return out


def _broadcast_order(a: Tensor, b: Tensor) -> str:
    """Enforce the broadcasting rule; return the memory order of the result.

    A non-scalar broadcast is written in C order. numpy would follow the
    larger operand's layout, and conv2d returns a transposed view, so a
    conv bias would change the layout later ops read and the order in
    which later sums add."""
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return "K"
    if len(a.shape) == len(b.shape):
        pairs = list(zip(a.shape, b.shape))
        if (all(s == t or s == 1 for s, t in pairs)
                or all(s == t or t == 1 for s, t in pairs)):
            return "C"
    raise ShapeError(
        f"shapes {a.shape} and {b.shape} do not broadcast: need equal shapes, "
        f"a size-1 operand, or equal rank with only one side's axes at 1"
    )


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # grad of an operand broadcast against a larger tensor: sum over the
    # axes it was broadcast along (all of them for a size-1 operand)
    if g.shape == shape:
        return g
    if math.prod(shape) == 1:
        return np.sum(g).reshape(shape)
    axes = tuple(i for i, (s, t) in enumerate(zip(shape, g.shape)) if s != t)
    return g.sum(axis=axes, keepdims=True)


# -- pointwise ops -----------------------------------------------------------
#
# Each closure captures the arrays its backward reads and returns one
# gradient per parent. An operand's array is kept only when the other
# operand's gradient needs it.

def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = np.add(a.data, b.data, order=_broadcast_order(a, b))
    sa, sb = a.shape, b.shape
    na, nb = a.requires_grad, b.requires_grad

    def bwd(g):
        return (_reduce_to(g, sa) if na else None,
                _reduce_to(g, sb) if nb else None)

    return _make(data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = np.multiply(a.data, b.data, order=_broadcast_order(a, b))
    sa, sb = a.shape, b.shape
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def bwd(g):
        return (None if bd is None else _reduce_to(g * bd, sa),
                None if ad is None else _reduce_to(g * ad, sb))

    return _make(data, (a, b), bwd)


def div(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    data = np.divide(a.data, b.data, order=_broadcast_order(a, b))
    sa, sb = a.shape, b.shape
    na = a.requires_grad
    ad = a.data if b.requires_grad else None
    bd = b.data

    def bwd(g):
        return (_reduce_to(g / bd, sa) if na else None,
                None if ad is None else _reduce_to(-g * ad / (bd * bd), sb))

    return _make(data, (a, b), bwd)


def power(a, p: float) -> Tensor:
    """Elementwise a**p for a scalar exponent; caller guarantees a > 0 when
    p is non-integral."""
    a = _coerce(a)
    p = float(p)
    ad = a.data

    def bwd(g):
        return (g * p * ad ** (p - 1.0),)

    return _make(ad ** p, (a,), bwd)


def relu(a) -> Tensor:
    a = _coerce(a)
    mask = a.data > 0

    def bwd(g):
        return (g * mask,)

    return _make(a.data * mask, (a,), bwd)


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    a = _coerce(a)
    fac = np.where(a.data > 0, 1.0, slope)

    def bwd(g):
        return (g * fac,)

    return _make(a.data * fac, (a,), bwd)


def sigmoid(a) -> Tensor:
    a = _coerce(a)
    s = 1.0 / (1.0 + np.exp(-a.data))

    def bwd(g):
        return (g * s * (1.0 - s),)

    return _make(s, (a,), bwd)


def log(a) -> Tensor:
    a = _coerce(a)
    ad = a.data

    def bwd(g):
        return (g / ad,)

    return _make(np.log(ad), (a,), bwd)


def absval(a) -> Tensor:
    a = _coerce(a)
    s = np.sign(a.data)

    def bwd(g):
        return (g * s,)

    return _make(np.abs(a.data), (a,), bwd)


def clip_min(a, lo: float) -> Tensor:
    """max(a, lo) elementwise; gradient is zero where the floor is active."""
    a = _coerce(a)
    mask = a.data > lo

    def bwd(g):
        return (g * mask,)

    return _make(np.maximum(a.data, lo), (a,), bwd)


# -- reductions --------------------------------------------------------------

def tsum(a) -> Tensor:
    a = _coerce(a)
    shape = a.shape

    def bwd(g):
        return (np.full(shape, float(g.reshape(()))),)

    return _make(np.asarray(a.data.sum()), (a,), bwd)


def tmean(a) -> Tensor:
    a = _coerce(a)
    shape, n = a.shape, a.data.size

    def bwd(g):
        return (np.full(shape, float(g.reshape(())) / n),)

    return _make(np.asarray(a.data.mean()), (a,), bwd)


def spatial_mean(a) -> Tensor:
    """Mean over H and W of a rank-4 tensor, keeping (B, C, 1, 1)."""
    a = _coerce(a)
    if a.data.ndim != 4:
        raise ShapeError("spatial_mean expects rank 4")
    shape = a.shape
    _, _, h, w = shape
    data = a.data.mean(axis=(2, 3), keepdims=True)

    def bwd(g):
        return (np.broadcast_to(g / (h * w), shape),)

    return _make(data, (a,), bwd)


# -- structural ops ----------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    shape = tuple(int(s) for s in shape)
    old = a.shape

    def bwd(g):
        return (g.reshape(old),)

    return _make(a.data.reshape(shape), (a,), bwd)


def subsample2(a, oi: int, oj: int) -> Tensor:
    """Every second pixel of a rank-4 tensor starting at offset (oi, oj)."""
    a = _coerce(a)
    if a.data.ndim != 4:
        raise ShapeError("subsample2 expects rank 4")
    shape = a.shape
    data = a.data[:, :, oi::2, oj::2].copy()

    def bwd(g):
        full = np.zeros(shape)
        full[:, :, oi::2, oj::2] = g
        return (full,)

    return _make(data, (a,), bwd)


def interleave2(a, b, c, d) -> Tensor:
    """Inverse of the four subsample2 phases: a->(even,even), b->(even,odd),
    c->(odd,even), d->(odd,odd)."""
    a, b, c, d = map(_coerce, (a, b, c, d))
    if not (a.shape == b.shape == c.shape == d.shape):
        raise ShapeError("interleave2 requires four equal shapes")
    if a.data.ndim != 4:
        raise ShapeError("interleave2 expects rank 4")
    bn, ch, h, w = a.shape
    data = np.empty((bn, ch, 2 * h, 2 * w), dtype=np.float64)
    data[:, :, 0::2, 0::2] = a.data
    data[:, :, 0::2, 1::2] = b.data
    data[:, :, 1::2, 0::2] = c.data
    data[:, :, 1::2, 1::2] = d.data

    def bwd(g):
        return (g[:, :, 0::2, 0::2], g[:, :, 0::2, 1::2],
                g[:, :, 1::2, 0::2], g[:, :, 1::2, 1::2])

    return _make(data, (a, b, c, d), bwd)


class Channels(tuple):
    """Rank-4 tensors joined along the channels as conv2d reads them, with
    the join's (B, C_1 + C_2 + ..., H, W) ``shape``; no array holds it."""

    def __new__(cls, parts):
        parts = tuple(map(_coerce, parts))
        if ({p.data.ndim for p in parts} != {4}
                or len({p.shape[:1] + p.shape[2:] for p in parts}) > 1):
            raise ShapeError(f"channel parts need rank 4 and one B, H and W, "
                             f"got {[p.shape for p in parts]}")
        return super().__new__(cls, parts)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        bn, _, h, w = self[0].shape
        return bn, sum(p.shape[1] for p in self), h, w


# conv2d builds its im2col matrix one band of output rows at a time, each
# band about this many bytes or one row if a row is larger, so the copy
# and the product stay in cache and no call allocates the whole matrix:
# at 96 px the fusion conv's would be 115 MB of fresh pages per call.
_COL_BAND_BYTES = 1 << 20


def _pad(parts, ph, pw):
    """Join the (B, C_i, H, W) arrays ``parts`` along the channels and
    zero-pad rows by ph and columns by pw on each side; far cheaper than
    np.pad on the attention convs' small arrays."""
    if len(parts) == 1 and not ph and not pw:
        return parts[0]
    bn, _, h, w = parts[0].shape
    out = np.zeros((bn, sum(a.shape[1] for a in parts), h + 2 * ph, w + 2 * pw))
    c = 0
    for a in parts:
        out[:, c:c + a.shape[1], ph:ph + h, pw:pw + w] = a
        c += a.shape[1]
    return out


def _gather(windows, k, g=None, correlate=True):
    """The products of a channel-major im2col of the (B, C, Ho, Wo, kh, kw)
    ``windows`` of a padded input under the (C', C, kh, kw) kernel ``k``,
    built one band of output rows at a time. Returns ``(y, dk)``: ``y`` is
    the (C', B, Ho, Wo) cross-correlation, ``kmat @ col`` per band (None
    unless ``correlate``); ``dk`` is the gradient with respect to ``k`` of
    a result whose gradient is the (C', B, Ho, Wo) array ``g``, the sum of
    ``gmat @ col.T`` over the bands (None without ``g``). Asking for both
    builds each band once."""
    bn, c, ho, wo, kh, kw = windows.shape
    cp = k.shape[0]
    rows = max(1, _COL_BAND_BYTES // (c * kh * kw * bn * wo * windows.itemsize))
    kmat = k.reshape(cp, c * kh * kw)
    y = np.empty((cp, bn, ho, wo)) if correlate else None
    dk = 0 if g is not None else None
    for y0 in range(0, ho, rows):
        # channel-major im2col of output rows y0:y0 + rows: row (c, i, j)
        # holds tap (i, j) of channel c at each of those output pixels,
        # columns ordered (b, y, x). Each run the copy writes is a
        # contiguous output row, not a scattered C*kh*kw gather.
        col = np.ascontiguousarray(
            windows[:, :, y0:y0 + rows].transpose(1, 4, 5, 0, 2, 3)) \
            .reshape(c * kh * kw, -1)
        if correlate:
            y[:, :, y0:y0 + rows] = (kmat @ col).reshape(cp, bn, -1, wo)
        if g is not None:
            dk = dk + g[:, :, y0:y0 + rows].reshape(cp, -1) @ col.T
        # freed before the next band is built, which then reuses its pages
        del col
    return y, None if g is None else dk.reshape(k.shape)


def _scatter(g, k, stride, size):
    """The adjoint of ``_gather``'s correlation: spread the (C', B, Ho, Wo)
    array ``g`` back through the (C', C, kh, kw) kernel ``k`` into a
    (C, B) + ``size`` array, one tap at a time. The (C, B*Ho*Wo) product
    of tap (i, j) lands on every input pixel under that tap, so no call
    forms the im2col-sized ``kmat.T @ gmat``.

    A (C, C') product with C much smaller than C' (the fusion conv's C = 3)
    runs badly in BLAS, so ``t = C' // 2C`` consecutive taps run as one
    (t*C, C') product, at most half the size of ``g``; each tap's slice is
    still added in (i, j) order. On the model's shapes each slice has the
    bits of that tap's own product; BLAS may round a product with few
    columns differently. A lone tap keeps the transposed view
    ``k[:, :, i, j].T``: a contiguous copy changes the bits of the
    attention convs' gradients on 1x1 inputs."""
    cp, c, kh, kw = k.shape
    _, bn, ho, wo = g.shape
    gmat = g.reshape(cp, bn * ho * wo)
    out = np.zeros((c, bn) + tuple(size))
    taps = [(i, j) for i in range(kh) for j in range(kw)]
    t = max(1, cp // (2 * c))
    # rows ordered (tap, C): a group's kernel is one contiguous slice
    kstack = k.transpose(2, 3, 1, 0).reshape(-1, cp) if t > 1 else None
    for n in range(0, len(taps), t):
        group = taps[n:n + t]
        if len(group) == 1:
            i, j = group[0]
            prod = k[:, :, i, j].T @ gmat
        else:
            prod = kstack[n * c:(n + len(group)) * c] @ gmat
        for s, (i, j) in enumerate(group):
            out[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += \
                prod[s * c:(s + 1) * c].reshape(c, bn, ho, wo)
        # freed before the next group's product is formed
        del prod
    return out


def conv2d(x, kernel, stride: int = 1, padding: int = 0) -> Tensor:
    """2D cross-correlation of a (B, Cin, H, W) input with a
    (Cout, Cin, kh, kw) kernel; zero padding.

    The input is a tensor or a ``Channels``, read as its join: each part
    is copied into the padded input or, in a transposed conv, the
    (Cin, B, H, W) operand, and its gradient is its channels of ``dx``.
    The closures keep the parts' offsets, never the parts' arrays.

    Output spatial size is floor((H + 2*padding - kh)/stride) + 1 and
    analogously for width.

    Each product runs on the conv's narrower side. A stride-1 conv is the
    transpose of the Cout -> Cin conv whose kernel is flipped in space and
    has its in and out channels swapped, ``kt``, padded by
    ``q = kh - 1 - padding`` (and likewise for width). So when Cout < Cin
    (and padding < kh, kw) the forward spreads ``x`` through ``kt`` tap by
    tap and crops at ``q``; ``dx`` correlates the gradient, padded by
    ``q``, with ``kt``; and ``dW`` is that correlation's kernel gradient
    with ``x`` in the gradient's place, flipped and transposed back. Every
    im2col then has Cout*kh*kw rows, not Cin*kh*kw. Any other conv builds
    the im2col of ``x``.
    """
    xs = x if isinstance(x, Channels) else Channels((x,))
    kernel = _coerce(kernel)
    if kernel.data.ndim != 4:
        raise ShapeError(f"conv2d expects a rank-4 kernel, got {kernel.shape}")
    bn, cin, h, w = xs.shape
    cout, ck, kh, kw = kernel.shape
    if ck != cin:
        raise ShapeError(f"kernel expects {ck} input channels, input has {cin}")
    if stride < 1 or padding < 0:
        raise ValueError("stride must be >= 1 and padding >= 0")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError("input smaller than kernel after padding")
    kd = kernel.data
    offs = [0, *accumulate(p.shape[1] for p in xs)]
    # what the backward reads: the kernel for dx, the input for dW
    nxs = [p.requires_grad for p in xs]
    nx, nk = any(nxs), kernel.requires_grad

    if stride == 1 and cout < cin and padding < kh and padding < kw:
        kt = kd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        qh, qw = kh - 1 - padding, kw - 1 - padding
        # one part is read in place, more are joined in C order
        xc = (xs[0].data.transpose(1, 0, 2, 3) if len(xs) == 1 else
              np.concatenate([p.data.transpose(1, 0, 2, 3) for p in xs],
                             out=np.empty((cin, bn, h, w))))
        out = _scatter(xc, kt, 1, (h + kh - 1, w + kw - 1))
        # the output's Ho = H + 2*padding - kh + 1 rows start at row qh
        data = out[:, :, qh:h + padding, qw:w + padding].transpose(1, 0, 2, 3)
        xc = xc if nk else None

        def grads(g):
            gw = np.lib.stride_tricks.sliding_window_view(
                _pad([g], qh, qw), (kh, kw), axis=(2, 3))
            gx, dkt = _gather(gw, kt, g=xc, correlate=nx)
            return gx, (None if dkt is None
                        else dkt[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    else:
        xp = _pad([p.data for p in xs], padding, padding)
        windows = np.lib.stride_tricks.sliding_window_view(
            xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
        # (Cout, B, Ho, Wo) in memory, returned as a (B, Cout, Ho, Wo) view
        data = _gather(windows, kd)[0].transpose(1, 0, 2, 3)
        hp, wp = xp.shape[2:]
        windows = windows if nk else None

        def grads(g):
            gt = g.transpose(1, 0, 2, 3)
            # the bands are built again, not kept from the forward, so that
            # no call holds the whole matrix either
            dk = _gather(windows, kd, g=gt, correlate=False)[1] if nk else None
            # gx is laid out (Cin, B, Hp, Wp), as the products come out
            gx = _scatter(gt, kd, stride, (hp, wp)) if nx else None
            return (None if gx is None else gx[:, :, padding:padding + h,
                                               padding:padding + w]), dk

    def bwd(g):
        gx, dk = grads(g)
        return (*[gx[a:b].transpose(1, 0, 2, 3) if need else None
                  for a, b, need in zip(offs, offs[1:], nxs)], dk)

    return _make(data, (*xs, kernel), bwd)


def pixel_shuffle(x, r: int) -> Tensor:
    """Depth-to-space: (B, C, H, W) -> (B, C/r^2, H*r, W*r).

    Element mapping (the standard sub-pixel rearrangement):
        out[b, c, h*r + i, w*r + j] = in[b, c*r^2 + i*r + j, h, w]
    """
    x = _coerce(x)
    if x.data.ndim != 4:
        raise ShapeError("pixel_shuffle expects rank 4")
    bn, c, h, w = x.shape
    if r < 1:
        raise ValueError("r must be positive")
    if c % (r * r) != 0:
        raise ShapeError(f"channels {c} not divisible by r^2 = {r * r}")
    co = c // (r * r)
    data = (x.data.reshape(bn, co, r, r, h, w)
            .transpose(0, 1, 4, 2, 5, 3)
            .reshape(bn, co, h * r, w * r))

    def bwd(g):
        return (g.reshape(bn, co, h, r, w, r)
                .transpose(0, 1, 3, 5, 2, 4)
                .reshape(bn, c, h, w),)

    return _make(data, (x,), bwd)


def avg_pool2(x) -> Tensor:
    """2x2 mean pooling with stride 2; requires even spatial dims.

    Each block is summed as (x00 + x01) + (x10 + x11) and divided by 4,
    whatever the input's memory layout. numpy's mean over a C-ordered
    block adds in that order when the rows are at least 4 wide; at width 2,
    or in another layout, it adds in another order."""
    x = _coerce(x)
    if x.data.ndim != 4:
        raise ShapeError("avg_pool2 expects rank 4")
    bn, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"avg_pool2 needs even dims, got {h}x{w}")
    xd = x.data
    data = ((xd[:, :, 0::2, 0::2] + xd[:, :, 0::2, 1::2])
            + (xd[:, :, 1::2, 0::2] + xd[:, :, 1::2, 1::2])) / 4.0

    def bwd(g):
        return (np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) / 4.0,)

    return _make(data, (x,), bwd)


# window() filters this many output rows (then columns) per product
_WINDOW_ROWS = 32


def window(x, taps) -> Tensor:
    """The valid correlation of each (H, W) plane of a rank-4 tensor with
    the 1-D ``taps``, along H and then along W: for k taps the result is
    the (B, C, H - k + 1, W - k + 1) array

        out[b, c, i, j] = sum over s, t of taps[s] * taps[t] * x[b, c, i + s, j + t]

    A block of ``_WINDOW_ROWS`` output rows at a time is filtered along H
    as one batched matmul with the (R, R + k - 1) band matrix whose row r
    holds the taps in columns r..r + k - 1, and then along W,
    ``_WINDOW_ROWS`` columns at a time, with the transposed band. The band
    is built once per call; a tail block uses its leading sub-block. Only
    one block's H pass is held at a time, so the result is the one array
    as large as the input. The backward applies the transposed blocks in
    the same order and adds where they overlap; the closure keeps only the
    band and the shapes. The input is read in C order, so its layout does
    not change the sums."""
    x = _coerce(x)
    taps = np.asarray(taps, dtype=np.float64)
    if x.data.ndim != 4 or taps.ndim != 1 or taps.size < 1:
        raise ShapeError(f"window expects a rank-4 input and 1-D taps, "
                         f"got {x.shape} and {taps.shape}")
    bn, c, h, w = x.shape
    k = taps.size
    ho, wo = h - k + 1, w - k + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"input {h}x{w} smaller than {k} taps")
    r = min(_WINDOW_ROWS, max(ho, wo))
    band = np.zeros((r, r + k - 1))
    idx = np.arange(r)
    for t, v in enumerate(taps):
        band[idx, idx + t] = v
    row_blocks = [(s, min(r, ho - s)) for s in range(0, ho, r)]
    col_blocks = [(s, min(r, wo - s)) for s in range(0, wo, r)]

    xd = np.ascontiguousarray(x.data)
    data = np.empty((bn, c, ho, wo))
    for s, n in row_blocks:
        rows = band[:n, :n + k - 1] @ xd[:, :, s:s + n + k - 1]
        for t, m in col_blocks:
            np.matmul(rows[..., t:t + m + k - 1], band[:m, :m + k - 1].T,
                      out=data[:, :, s:s + n, t:t + m])

    def bwd(g):
        g = np.ascontiguousarray(g)
        gx = np.zeros((bn, c, h, w))
        for s, n in row_blocks:
            grows = np.zeros((bn, c, n, w))
            for t, m in col_blocks:
                grows[..., t:t + m + k - 1] += \
                    g[:, :, s:s + n, t:t + m] @ band[:m, :m + k - 1]
            gx[:, :, s:s + n + k - 1] += band[:n, :n + k - 1].T @ grows
        return (gx,)

    return _make(data, (x,), bwd)


# -- gradient verification ---------------------------------------------------

@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5,
               tol: float = 1e-4) -> GradCheckReport:
    """Compare the analytic gradient of a scalar-valued f against central
    differences, coordinate by coordinate.

    rel err per coordinate = |a - n| / max(|a|, |n|, 1e-8).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    xt = Tensor(x.data.copy(), requires_grad=True)
    out = f(xt)
    out.backward()
    analytic = (xt.grad if xt.grad is not None else np.zeros_like(xt.data)).copy()

    numeric = np.zeros_like(x.data)
    flat = x.data.copy().reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(Tensor(flat.reshape(x.data.shape))).item()
        flat[i] = orig - h
        fm = f(Tensor(flat.reshape(x.data.shape))).item()
        flat[i] = orig
        num_flat[i] = (fp - fm) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    max_rel = float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0
    return GradCheckReport(max_rel_err=max_rel, passed=max_rel < tol)


# -- serialization -----------------------------------------------------------

_MAGIC = b"DWT0"


def save_tensor(path, t: Tensor) -> None:
    """Flat binary format: magic "DWT0", u32 rank, u32 extents,
    little-endian f64 payload. Rank > 4 is a ShapeError, raised before the
    file is opened, as load_tensor could not read it back."""
    arr = _coerce(t).data
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        for s in arr.shape:
            fh.write(struct.pack("<I", s))
        fh.write(arr.astype("<f8").tobytes())


def load_tensor(path, shape: tuple[int, ...] | None = None) -> Tensor:
    """Read a save_tensor file; anything but that exact layout (bad magic,
    a short header or payload, bytes after the payload) is a ValueError,
    and so is a header of another shape than ``shape`` when it is given.

    The header is checked against ``shape`` and the sizes against the
    file's length before anything is allocated, and the payload is read
    straight into the result."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(8)
        if prefix[:4] != _MAGIC:
            raise ValueError(f"bad magic {prefix[:4]!r}, expected {_MAGIC!r}")
        if size < 8:
            raise ValueError(f"truncated header: got {size} of 8 bytes")
        (rank,) = struct.unpack("<I", prefix[4:8])
        head = 8 + 4 * rank
        if size < head:
            raise ValueError(f"truncated header: got {size} of {head} bytes")
        got_shape = struct.unpack(f"<{rank}I", fh.read(4 * rank))
        if shape is not None and got_shape != tuple(shape):
            raise ValueError(f"{path}: shape {got_shape} != expected {tuple(shape)}")
        nbytes = 8 * math.prod(got_shape)
        if size - head < nbytes:
            raise ValueError(
                f"truncated payload: got {size - head} of {nbytes} bytes")
        if size - head > nbytes:
            raise ValueError(
                f"size mismatch: {size - head - nbytes} bytes after the payload")
        arr = np.empty(got_shape, dtype="<f8")
        got = fh.readinto(arr)
    if got != nbytes:
        raise ValueError(f"truncated payload: got {got} of {nbytes} bytes")
    return Tensor(arr)
