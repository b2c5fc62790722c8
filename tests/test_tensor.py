import ast
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dwgan import tensor
from dwgan.model import Generator, ModelConfig
from dwgan.tensor import (Channels, GradCheckReport, ShapeError, Tensor,
                          absval, add, avg_pool2, clip_min, conv2d, div,
                          grad_check, interleave2, leaky_relu, load_tensor,
                          log, mul, no_grad, pixel_shuffle, power, relu,
                          reshape, save_tensor, sigmoid, spatial_mean,
                          subsample2, tsum, window)


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestConv2d:
    def test_hand_dot_product(self):
        x = Tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        k = Tensor(np.ones((1, 1, 2, 2)))
        out = conv2d(x, k, stride=2, padding=0)
        assert out.data.tolist() == [[[[10.0]]]]

    def test_identity_kernel(self):
        x = Tensor(rand((2, 1, 5, 5)))
        k = Tensor(np.ones((1, 1, 1, 1)))
        out = conv2d(x, k, stride=1, padding=0)
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_input(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        k = Tensor(rand((2, 3, 3, 3)))
        assert np.all(conv2d(x, k, padding=1).data == 0)

    def test_output_shape_formula(self):
        x = Tensor(rand((1, 2, 13, 9)))
        k = Tensor(rand((4, 2, 3, 3), seed=1))
        out = conv2d(x, k, stride=2, padding=1)
        assert out.shape == (1, 4, (13 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)

    def test_same_padding_preserves_shape(self):
        for k in (1, 3, 5, 7):
            x = Tensor(rand((1, 2, 8, 8)))
            w = Tensor(rand((2, 2, k, k), seed=k))
            assert conv2d(x, w, stride=1, padding=(k - 1) // 2).shape == x.shape

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(rand((1, 2, 4, 4))), Tensor(rand((1, 3, 2, 2))))

    def test_rank_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(rand((2, 4, 4))), Tensor(rand((1, 1, 2, 2))))


def conv_reference(x, k, g, stride, padding):
    """Output, kernel gradient and input gradient of a cross-correlation,
    one output pixel at a time; g is the gradient arriving at the output."""
    bn, _, h, w = x.shape
    cout, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((bn, cout, ho, wo))
    dk = np.zeros_like(k)
    dxp = np.zeros_like(xp)
    for b in range(bn):
        for o in range(cout):
            for y in range(ho):
                for z in range(wo):
                    win = (b, slice(None), slice(y * stride, y * stride + kh),
                           slice(z * stride, z * stride + kw))
                    out[b, o, y, z] = np.sum(xp[win] * k[o])
                    dk[o] += g[b, o, y, z] * xp[win]
                    dxp[win] += g[b, o, y, z] * k[o]
    return out, dk, dxp[:, :, padding:padding + h, padding:padding + w]


class TestConv2dReference:
    """conv2d against the per-pixel loop at batch 2, Cin != Cout and a
    non-square input, for every kernel kind the model and metrics run.

    With Cin 3 and Cout 2 the stride-1 kinds run as the transpose of a
    Cout -> Cin conv; with Cout 4 (the ``wide`` tests) every kind builds
    the im2col of the input."""

    KINDS = pytest.mark.parametrize("kh, kw, stride, padding", [
        (7, 7, 1, 3), (3, 3, 1, 1), (3, 3, 2, 1), (4, 4, 2, 1), (1, 1, 1, 0),
        (11, 1, 1, 0), (1, 11, 1, 0),
    ], ids=["k7s1", "k3s1", "k3s2", "k4s2", "k1s1", "k11x1", "k1x11"])
    LAYOUTS = pytest.mark.parametrize("layout", ["c_order", "transposed"])
    ROWS = pytest.mark.parametrize("rows", [1, 5])

    @staticmethod
    def check(kh, kw, stride, padding, layout, cout):
        xd = rand((2, 3, 12, 14), seed=20)
        if layout == "transposed":
            # laid out as a conv output is: channels outermost in memory
            xd = np.ascontiguousarray(xd.transpose(1, 0, 2, 3)) \
                .transpose(1, 0, 2, 3)
            assert not xd.flags.c_contiguous
        kd = rand((cout, 3, kh, kw), seed=21)
        x = Tensor(xd, requires_grad=True)
        k = Tensor(kd, requires_grad=True)
        y = conv2d(x, k, stride=stride, padding=padding)
        g = rand(y.shape, seed=22)
        (y * Tensor(g)).sum().backward()
        out, dk, dx = conv_reference(xd, kd, g, stride, padding)
        assert y.shape == out.shape
        for got, want in ((y.data, out), (k.grad, dk), (x.grad, dx)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @staticmethod
    def shrink_bands(monkeypatch, rows, kh, kw, stride, padding, cout):
        # shrink the band so the 12-row im2col takes several: one row each,
        # or five rows each with a shorter last band. A transposed conv
        # builds it from the gradient (Cout rows per tap, 14 columns),
        # any other from the input (3 rows per tap, Wo columns).
        if stride == 1 and cout < 3:
            row_bytes = cout * kh * kw * 2 * 14 * 8
        else:
            row_bytes = 3 * kh * kw * 2 * ((14 + 2 * padding - kw) // stride + 1) * 8
        monkeypatch.setattr(tensor, "_COL_BAND_BYTES", rows * row_bytes)

    @KINDS
    @LAYOUTS
    def test_matches_loop(self, kh, kw, stride, padding, layout):
        self.check(kh, kw, stride, padding, layout, cout=2)

    @KINDS
    @LAYOUTS
    @ROWS
    def test_bands_match_loop(self, kh, kw, stride, padding, layout, rows,
                              monkeypatch):
        self.shrink_bands(monkeypatch, rows, kh, kw, stride, padding, cout=2)
        self.check(kh, kw, stride, padding, layout, cout=2)

    @KINDS
    @LAYOUTS
    def test_wide_matches_loop(self, kh, kw, stride, padding, layout):
        self.check(kh, kw, stride, padding, layout, cout=4)

    @KINDS
    @LAYOUTS
    @ROWS
    def test_wide_bands_match_loop(self, kh, kw, stride, padding, layout,
                                   rows, monkeypatch):
        self.shrink_bands(monkeypatch, rows, kh, kw, stride, padding, cout=4)
        self.check(kh, kw, stride, padding, layout, cout=4)


class TestConv2dProperties:
    """conv2d against the per-pixel float64 loop on drawn shapes: batch,
    channel parts and their widths, Cout, kernel size, stride and padding
    (so both modes, and padding at and above the kernel size), input size,
    part layouts, and a band size that splits the im2col of ``_gather`` and
    the rows of ``_scatter`` into several bands."""

    TOL = dict(rtol=1e-12, atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_loop(self, data):
        bn = data.draw(st.integers(1, 3), label="B")
        widths = data.draw(st.lists(st.integers(1, 4), min_size=1,
                                    max_size=3), label="part widths")
        cout = data.draw(st.integers(1, 6), label="Cout")
        kh = data.draw(st.integers(1, 4), label="kh")
        kw = data.draw(st.integers(1, 4), label="kw")
        stride = data.draw(st.sampled_from([1, 2]), label="stride")
        padding = data.draw(st.integers(0, max(kh, kw)), label="padding")
        h = data.draw(st.integers(max(1, kh - 2 * padding), 9), label="H")
        w = data.draw(st.integers(max(1, kw - 2 * padding), 9), label="W")
        band = data.draw(st.integers(8, 4096), label="_COL_BAND_BYTES")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        xds = []
        for c in widths:
            xd = rng.normal(size=(bn, c, h, w))
            if data.draw(st.booleans(), label="conv-output layout"):
                xd = np.ascontiguousarray(xd.transpose(1, 0, 2, 3)) \
                    .transpose(1, 0, 2, 3)
            xds.append(xd)
        kd = rng.normal(size=(cout, sum(widths), kh, kw))
        xs = [Tensor(xd, requires_grad=True) for xd in xds]
        k = Tensor(kd, requires_grad=True)
        with mock.patch.object(tensor, "_COL_BAND_BYTES", band):
            y = conv2d(Channels(xs), k, stride=stride, padding=padding)
            g = rng.normal(size=y.shape)
            (y * Tensor(g)).sum().backward()
        out, dk, dx = conv_reference(np.concatenate(xds, axis=1), kd, g,
                                     stride, padding)
        np.testing.assert_allclose(y.data, out, **self.TOL)
        np.testing.assert_allclose(k.grad, dk, **self.TOL)
        for x, a, b in zip(xs, np.cumsum([0] + widths), np.cumsum(widths)):
            np.testing.assert_allclose(x.grad, dx[:, a:b], **self.TOL)


class TestChannels:
    """A conv over channel parts against the same conv over their
    np.concatenate'd join: the same products, so the same bits."""

    MODES = pytest.mark.parametrize("cout", [6, 2],
                                    ids=["im2col", "transposed"])

    @staticmethod
    def run(cout, parts_grad=(True, True)):
        ad, bd = rand((2, 3, 5, 7), seed=50), rand((2, 2, 5, 7), seed=51)
        kd, gd = rand((cout, 5, 3, 3), seed=52), rand((2, cout, 5, 7), seed=53)
        a, b = (Tensor(d, requires_grad=n) for d, n in zip((ad, bd), parts_grad))
        k = Tensor(kd, requires_grad=True)
        y = conv2d(Channels((a, b)), k, padding=1)
        (y * Tensor(gd)).sum().backward()
        x = Tensor(np.concatenate([ad, bd], axis=1), requires_grad=True)
        kr = Tensor(kd, requires_grad=True)
        yr = conv2d(x, kr, padding=1)
        (yr * Tensor(gd)).sum().backward()
        np.testing.assert_array_equal(y.data, yr.data)
        np.testing.assert_array_equal(k.grad, kr.grad)
        return a.grad, b.grad, x.grad[:, :3], x.grad[:, 3:]

    @MODES
    def test_matches_conv_of_join(self, cout):
        ga, gb, want_a, want_b = self.run(cout)
        np.testing.assert_array_equal(ga, want_a)
        np.testing.assert_array_equal(gb, want_b)

    @MODES
    def test_part_without_grad_gets_none(self, cout):
        for first in (True, False):
            ga, gb, want_a, want_b = self.run(cout, (first, not first))
            got, none, want = (ga, gb, want_a) if first else (gb, ga, want_b)
            assert none is None
            np.testing.assert_array_equal(got, want)

    def test_shape_is_the_joins(self):
        parts = Channels((Tensor(rand((2, 3, 4, 5))), rand((2, 1, 4, 5))))
        assert parts.shape == (2, 4, 4, 5)
        assert all(isinstance(p, Tensor) for p in parts)

    @pytest.mark.parametrize("other", [(3, 2, 4, 5), (2, 2, 3, 5),
                                       (2, 2, 4, 6), (2, 4, 5)],
                             ids=["batch", "height", "width", "rank"])
    def test_mismatch_rejected(self, other):
        a = Tensor(rand((2, 3, 4, 5)))
        with pytest.raises(ShapeError):
            Channels((a, Tensor(rand(other))))
        with pytest.raises(ShapeError):
            Channels(())

    def test_parts_freed_before_backward(self):
        # the closure keeps the parts' offsets, not the parts, so their
        # arrays go when the caller drops them before backward
        def grads(drop):
            xa = Tensor(rand((2, 3, 6, 6), seed=54), requires_grad=True)
            xb = Tensor(rand((2, 2, 6, 6), seed=55), requires_grad=True)
            k = Tensor(rand((2, 5, 3, 3), seed=56), requires_grad=True)
            a, b = xa * 2.0, xb * 3.0
            loss = relu(conv2d(Channels((a, b)), k, padding=1)).mean()
            refs = [weakref.ref(a.data), weakref.ref(b.data)]
            if drop:
                del a, b
                assert all(r() is None for r in refs)
            loss.backward()
            return xa.grad, xb.grad, k.grad

        for got, want in zip(grads(True), grads(False)):
            assert got is not None and np.any(got)
            np.testing.assert_array_equal(got, want)


class TestConv2dBackwardMemory:
    """A conv's working memory, forward and backward, is a few copies of
    the input, not an im2col-sized matrix kh*kw times larger (1 MB input,
    so a 5 MB bound). Both cases narrow the channels, so they run as the
    transpose of a Cout -> Cin conv."""

    @pytest.mark.parametrize("cout, k, padding", [(3, 7, 3), (16, 3, 1)],
                             ids=["fusion_k7", "k3"])
    def test_peak_bounded_by_input(self, cout, k, padding):
        x = Tensor(rand((4, 32, 32, 32), seed=40), requires_grad=True)
        w = Tensor(rand((cout, 32, k, k), seed=41), requires_grad=True)
        tracemalloc.start()
        try:
            conv2d(x, w, padding=padding).sum().backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.grad is not None and w.grad is not None
        bound = 4 * x.data.nbytes + tensor._COL_BAND_BYTES
        assert peak <= bound, (peak, bound)


class TestScatter:
    """``_scatter`` runs one stacked product per band of rows, the last band
    first, and adds the same products in the same order as one product per
    tap over the whole join. The shapes are the model's: they give the same
    bits with the BLAS the bits are pinned for, in one band or several."""

    @staticmethod
    def per_tap(g, k, stride, size):
        cp, c, kh, kw = k.shape
        _, bn, ho, wo = g.shape
        gmat = g.reshape(cp, bn * ho * wo)
        out = np.zeros((c, bn) + tuple(size))
        for i in range(kh):
            for j in range(kw):
                out[:, :, i:i + stride * ho:stride,
                    j:j + stride * wo:stride] += \
                    (k[:, :, i, j].T @ gmat).reshape(c, bn, ho, wo)
        return out

    @staticmethod
    def operands(g_shape, k_shape, stride, layout):
        g, k = rand(g_shape, seed=43), rand(k_shape, seed=44)
        if layout == "conv_input":
            # a conv input as conv2d hands it on, (B, C', H, W) in memory:
            # for the pooled squeeze, an F-ordered (C', B) matrix
            g = np.ascontiguousarray(g.transpose(1, 0, 2, 3)) \
                .transpose(1, 0, 2, 3)
        _, _, ho, wo = g_shape
        _, _, kh, kw = k_shape
        return g, k, (stride * (ho - 1) + kh, stride * (wo - 1) + kw)

    SHAPES = pytest.mark.parametrize("g_shape, k_shape, stride", [
        ((32, 4, 32, 32), (32, 3, 7, 7), 1),
        ((16, 4, 16, 16), (16, 3, 3, 3), 2),
        ((16, 4, 16, 16), (16, 3, 4, 4), 2),
        ((32, 1, 48, 48), (32, 16, 3, 3), 1),
        ((128, 1, 12, 12), (128, 64, 3, 3), 1),
        ((16, 4, 1, 1), (16, 2, 1, 1), 1),
    ], ids=["fusion_k7", "k3s2_c3", "k4s2_c3", "mix_k3", "fuse_k3",
            "k1_on_1x1"])

    @SHAPES
    def test_grouped_taps_equal_per_tap(self, g_shape, k_shape, stride):
        g, k, size = self.operands(g_shape, k_shape, stride, "c_order")
        np.testing.assert_array_equal(tensor._scatter([g], k, stride, size),
                                      self.per_tap(g, k, stride, size))

    @SHAPES
    @pytest.mark.parametrize("layout", ["c_order", "conv_input"])
    @pytest.mark.parametrize("rows", [None, 1, 5],
                             ids=["one_band", "rows1", "rows5"])
    def test_bands_equal_per_tap(self, g_shape, k_shape, stride, layout,
                                 rows, monkeypatch):
        g, k, size = self.operands(g_shape, k_shape, stride, layout)
        cp, c, kh, kw = k_shape
        _, bn, ho, wo = g_shape
        if rows is None:
            monkeypatch.setattr(tensor, "_COL_BAND_BYTES", 1 << 40)
        else:
            monkeypatch.setattr(tensor, "_COL_BAND_BYTES",
                                rows * max(kh * kw * c, cp) * bn * wo * 8)
        np.testing.assert_array_equal(tensor._scatter([g], k, stride, size),
                                      self.per_tap(g, k, stride, size))

    @pytest.mark.parametrize("g_shape, k_shape", [
        ((32, 1, 48, 48), (32, 16, 3, 3)), ((32, 4, 32, 32), (32, 3, 7, 7)),
    ], ids=["mix_k3", "fusion_k7"])
    @pytest.mark.parametrize("rows", [1, 5])
    def test_parts_equal_their_join(self, g_shape, k_shape, rows,
                                    monkeypatch):
        # a band of several parts is copied; it gives the join's bits
        g, k, size = self.operands(g_shape, k_shape, 1, "conv_input")
        cp, c, kh, kw = k_shape
        monkeypatch.setattr(tensor, "_COL_BAND_BYTES",
                            rows * kh * kw * c * g_shape[1] * g_shape[3] * 8)
        parts = [g[:cp // 2], g[cp // 2:]]
        np.testing.assert_array_equal(tensor._scatter(parts, k, 1, size),
                                      self.per_tap(g, k, 1, size))

    @pytest.mark.parametrize("rows", [1, 3, 5])
    def test_bands_equal_one_band(self, rows, monkeypatch):
        # rows of 100 columns: a band takes rows in steps of 2, so every
        # band but the last is whole blocks of 8 columns, which BLAS rounds
        # as it does inside one product (in steps of 1 the bits move)
        g, k, size = self.operands((32, 1, 60, 100), (32, 16, 3, 3), 1,
                                   "conv_input")
        monkeypatch.setattr(tensor, "_COL_BAND_BYTES", 1 << 40)
        one = tensor._scatter([g], k, 1, size)
        monkeypatch.setattr(tensor, "_COL_BAND_BYTES", rows * 144 * 100 * 8)
        np.testing.assert_array_equal(tensor._scatter([g], k, 1, size), one)


class TestPixelShuffle:
    def test_rearrangement_by_definition(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1))
        out = pixel_shuffle(x, 2)
        np.testing.assert_array_equal(out.data[0, 0],
                                      [[1.0, 2.0], [3.0, 4.0]])

    def test_r1_identity(self):
        x = Tensor(rand((1, 3, 4, 4)))
        np.testing.assert_array_equal(pixel_shuffle(x, 1).data, x.data)

    def test_shape_only(self):
        assert pixel_shuffle(Tensor(rand((1, 8, 2, 2))), 2).shape == (1, 2, 4, 4)

    def test_indivisible_channels(self):
        with pytest.raises(ShapeError):
            pixel_shuffle(Tensor(rand((1, 3, 2, 2))), 2)


class TestElementwise:
    def test_relu_values(self):
        out = relu(Tensor([-1.0, 2.0]))
        assert out.data.tolist() == [0.0, 2.0]

    def test_relu_zero_signs(self):
        # a negative input times the zero mask gives -0.0
        out = relu(Tensor([-1.0, -0.0, 0.0, 2.0]))
        assert np.signbit(out.data).tolist() == [True, True, False, False]

    def test_sigmoid_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_add_zero(self):
        x = Tensor(rand((3, 3)))
        np.testing.assert_array_equal(
            add(x, Tensor(np.zeros((3, 3)))).data, x.data)

    def test_scale(self):
        out = mul(Tensor([1.0, -2.0]), 3.0)
        assert out.data.tolist() == [3.0, -6.0]

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            add(Tensor(rand((2, 3))), Tensor(rand((3, 2))))

    def test_scalar_broadcast(self):
        x = Tensor(rand((2, 2)))
        np.testing.assert_allclose((x + 1.0).data, x.data + 1.0)


_BIG = (2, 3, 4, 4)
# the small operand's shape in each broadcast form the tensor module
# allows, given the large operand's shape
_FORMS = {
    "scalar": lambda big: (),
    "same": lambda big: big,
    "bias": lambda big: (1, big[1], 1, 1),
    "gate": lambda big: (big[0], 1, *big[2:]),
}


class TestBroadcast:
    @pytest.mark.parametrize("op", [add, mul, div])
    @pytest.mark.parametrize("small",
                             [_FORMS[f](_BIG) for f in ("bias", "gate")],
                             ids=["bias", "gate"])
    @pytest.mark.parametrize("small_first", [True, False],
                             ids=["small_left", "small_right"])
    def test_grad_check_both_operands(self, op, small, small_first):
        # offset away from 0 so div stays smooth; w makes each output count
        s = Tensor(rand(small, seed=20) + 4.0)
        b = Tensor(rand(_BIG, seed=21) + 4.0)
        w = Tensor(rand(_BIG, seed=22))

        def out(s, b):
            return op(s, b) if small_first else op(b, s)

        assert out(s, b).shape == _BIG
        for rep in (grad_check(lambda t: (out(t, b) * w).sum(), s),
                    grad_check(lambda t: (out(s, t) * w).sum(), b)):
            assert rep.passed, rep.max_rel_err

    @pytest.mark.parametrize("op", [add, mul, div])
    def test_result_c_ordered(self, op):
        # conv2d returns a transposed view; its biased output keeps C order
        x = Tensor(rand((2, 4, 4, 3)).transpose(0, 3, 1, 2))
        assert op(x, Tensor(rand((1, 3, 1, 1)) + 4.0)).data.flags.c_contiguous

    @pytest.mark.parametrize("op", [add, mul, div])
    @pytest.mark.parametrize("sa, sb", [
        ((2, 1, 4, 4), (2, 3, 1, 1)),
        ((3,), (2, 3)),
        ((2, 3, 4, 4), (2, 2, 1, 1)),
    ], ids=["two_sided", "rank_mismatch", "unequal_axes"])
    def test_rejected(self, op, sa, sb):
        for x, y in ((sa, sb), (sb, sa)):
            with pytest.raises(ShapeError):
                op(Tensor(rand(x)), Tensor(rand(y)))


def _broadcast_examples(test):
    # TestBroadcast's shapes, for each binary op and side
    for op in ("add", "mul", "div"):
        for form in ("bias", "gate"):
            for small_first in (True, False):
                test = example(op=op, big=_BIG, form=form,
                               small_first=small_first, margin=0.1,
                               seed=0)(test)
    return test


class TestPointwiseGradients:
    """grad_check of every pointwise op on drawn shapes and values. The
    binary ops run under each broadcast form, with the small operand on
    either side; the unary ops take the large shape alone. Inputs keep a
    drawn margin from the kinks of relu, leaky_relu, absval and clip_min
    and from 0 (a denominator, log, a fractional power). Each operand of a
    binary op has one sign, and the output weights are positive, so no
    broadcast operand's gradient sums to near 0, where a relative error
    says nothing."""

    BINARY = {"add": add, "mul": mul, "div": div}
    UNARY = ("power", "log", "absval", "clip_min", "relu", "leaky_relu",
             "sigmoid")

    @staticmethod
    def away(rng, shape, margin, sign):
        # magnitudes in [margin, margin + 2]; sign is +-1 or an array of it
        return sign * (margin + rng.uniform(0.0, 2.0, shape))

    @settings(max_examples=150, deadline=None)
    @given(op=st.sampled_from(sorted(BINARY) + list(UNARY)),
           big=st.tuples(st.integers(1, 2), st.integers(1, 3),
                         st.integers(1, 4), st.integers(1, 4)),
           form=st.sampled_from(sorted(_FORMS)),
           small_first=st.booleans(),
           margin=st.floats(0.05, 0.5),
           seed=st.integers(0, 2 ** 16))
    @_broadcast_examples
    def test_grad_check(self, op, big, form, small_first, margin, seed):
        rng = np.random.default_rng(seed)
        w = Tensor(0.5 + rng.uniform(0.0, 1.0, big))
        if op in self.BINARY:
            fn = self.BINARY[op]
            sd = self.away(rng, _FORMS[form](big), margin, rng.choice([-1, 1]))
            bd = self.away(rng, big, margin, rng.choice([-1, 1]))

            def out(s, b):
                return fn(s, b) if small_first else fn(b, s)

            assert out(Tensor(sd), Tensor(bd)).shape == big
            checks = [(lambda t: (out(t, Tensor(bd)) * w).sum(), sd),
                      (lambda t: (out(Tensor(sd), t) * w).sum(), bd)]
        else:
            positive = op in ("power", "log")
            xd = self.away(rng, big, margin,
                           1 if positive else rng.choice([-1, 1], big))
            p = rng.choice([-1.5, 0.5, 2.0, 3.0])
            lo = rng.uniform(-1.0, 1.0)
            slope = rng.uniform(0.01, 0.5)
            fn = {"power": lambda t: power(t, p), "log": log,
                  "absval": absval, "clip_min": lambda t: clip_min(t, lo),
                  "relu": relu, "leaky_relu": lambda t: leaky_relu(t, slope),
                  "sigmoid": sigmoid}[op]
            if op == "clip_min":
                xd = xd + lo
            checks = [(lambda t: (fn(t) * w).sum(), xd)]
        for f, xd in checks:
            rep = grad_check(f, Tensor(xd))
            assert rep.passed, (op, rep.max_rel_err)


def _small(side=1):
    """(B, C, H, W) with H and W at least ``side`` and at most
    2 * 3 * 6 * 6 = 216 elements."""
    return st.tuples(st.integers(1, 2), st.integers(1, 3),
                     st.integers(side, 6), st.integers(side, 6))


class TestStructuralGradients:
    """grad_check of the reductions, the structural ops and ``window`` on
    drawn small shapes. Each output is weighted by a drawn positive array,
    so each input's gradient is its own weight (or sum of weights), not one
    shared constant that a wrong index map would also produce."""

    @staticmethod
    def check(fn, xd, rng):
        w = Tensor(rng.uniform(0.5, 1.5, fn(Tensor(xd)).shape))
        rep = grad_check(lambda t: (fn(t) * w).sum(), Tensor(xd))
        assert rep.passed, rep.max_rel_err

    @settings(max_examples=20, deadline=None)
    @given(shape=_small(), axes=st.sampled_from([None, (2, 3)]),
           seed=st.integers(0, 2 ** 16))
    def test_tsum(self, shape, axes, seed):
        rng = np.random.default_rng(seed)
        self.check(lambda t: tsum(t, axes), rng.normal(size=shape), rng)

    @settings(max_examples=20, deadline=None)
    @given(shape=_small(), form=st.sampled_from(["flat", "rows", "column"]),
           seed=st.integers(0, 2 ** 16))
    def test_reshape(self, shape, form, seed):
        rng = np.random.default_rng(seed)
        b, c, h, w = shape
        to = {"flat": (b * c * h * w,), "rows": (b * c, h * w),
              "column": (b, c * h * w, 1)}[form]
        self.check(lambda t: reshape(t, to), rng.normal(size=shape), rng)

    @settings(max_examples=20, deadline=None)
    @given(shape=_small(2),
           oi=st.integers(0, 1), oj=st.integers(0, 1),
           seed=st.integers(0, 2 ** 16))
    def test_subsample2(self, shape, oi, oj, seed):
        rng = np.random.default_rng(seed)
        self.check(lambda t: subsample2(t, oi, oj), rng.normal(size=shape),
                   rng)

    @settings(max_examples=20, deadline=None)
    @given(shape=st.tuples(st.integers(1, 2), st.integers(1, 3),
                           st.integers(1, 3), st.integers(1, 3)),
           which=st.integers(0, 3), seed=st.integers(0, 2 ** 16))
    def test_interleave2(self, shape, which, seed):
        # the gradient of one of the four phases, the other three fixed
        rng = np.random.default_rng(seed)
        parts = [Tensor(rng.normal(size=shape)) for _ in range(4)]

        def fn(t):
            return interleave2(*parts[:which], t, *parts[which + 1:])

        self.check(fn, rng.normal(size=shape), rng)

    @settings(max_examples=20, deadline=None)
    @given(shape=st.tuples(st.integers(1, 2), st.sampled_from([4, 8]),
                           st.integers(1, 3), st.integers(1, 3)),
           seed=st.integers(0, 2 ** 16))
    def test_pixel_shuffle(self, shape, seed):
        rng = np.random.default_rng(seed)
        self.check(lambda t: pixel_shuffle(t, 2), rng.normal(size=shape), rng)

    @settings(max_examples=20, deadline=None)
    @given(shape=_small(3),
           k=st.sampled_from([1, 3]), seed=st.integers(0, 2 ** 16))
    def test_window(self, shape, k, seed):
        rng = np.random.default_rng(seed)
        taps = rng.uniform(0.1, 1.0, k)
        self.check(lambda t: window(t, taps), rng.normal(size=shape), rng)


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        (x * x).sum().backward()
        assert x.grad.tolist() == [2.0, 4.0, 6.0]

    def test_sum_gives_ones(self):
        x = Tensor(rand((2, 3)), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_relu_subgradient(self):
        x = Tensor([-1.0, 2.0], requires_grad=True)
        relu(x).sum().backward()
        assert x.grad.tolist() == [0.0, 1.0]

    def test_non_scalar_root_rejected(self):
        x = Tensor(rand((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            (x * x).backward()

    def test_fanout_gradients_sum(self):
        # y = x used twice: d/dx (x*x + 3x) = 2x + 3, hand expanded
        x = Tensor([2.0], requires_grad=True)
        y = x * x + x * 3.0
        y.sum().backward()
        assert x.grad.tolist() == [7.0]

    def test_accumulation_across_consumers(self):
        x = Tensor(rand((4,), seed=3), requires_grad=True)
        a = x * 2.0
        (a.sum() + a.sum()).backward()
        np.testing.assert_allclose(x.grad, np.full(4, 4.0))

    def test_graph_released_leaves_keep_grads(self):
        x = Tensor(rand((1, 2, 6, 6), seed=34), requires_grad=True)
        k = Tensor(rand((3, 2, 3, 3), seed=35), requires_grad=True)
        y = conv2d(x, k, padding=1)
        z = relu(y)
        loss = z.mean()
        loss.backward()
        for t in (y, z, loss):
            assert t._node.parents == () and t.grad is None
        assert x.grad.shape == x.shape and k.grad.shape == k.shape
        assert np.any(x.grad) and np.any(k.grad)

    def test_second_backward_through_released_graph_raises(self):
        x = Tensor(rand((3,), seed=36), requires_grad=True)
        y = x * x
        loss = y.sum()
        loss.backward()
        first = x.grad.copy()
        for again in (lambda: loss.backward(), lambda: y.sum().backward()):
            with pytest.raises(RuntimeError, match="released"):
                again()
        np.testing.assert_array_equal(x.grad, first)

    @pytest.mark.parametrize("cout", [5, 2], ids=["im2col", "transposed"])
    def test_pre_bias_conv_output_freed_before_backward(self, cout):
        # no closure reads a conv's output or the bias add's input, so the
        # array goes with the last reference the caller drops, while the
        # graph that produced it is still alive
        def grads(drop):
            x = Tensor(rand((2, 3, 6, 6), seed=37), requires_grad=True)
            k = Tensor(rand((cout, 3, 3, 3), seed=38), requires_grad=True)
            b = Tensor(rand((1, cout, 1, 1), seed=39), requires_grad=True)
            y = conv2d(x, k, padding=1)
            refs = [weakref.ref(y.data), weakref.ref(y.data.base)]
            loss = relu(y + b).mean()
            if drop:
                del y
                assert all(r() is None for r in refs)
            loss.backward()
            return x.grad, k.grad, b.grad

        for got, want in zip(grads(True), grads(False)):
            assert got is not None and np.any(got)
            np.testing.assert_array_equal(got, want)

    def test_leaf_grads_share_no_memory(self):
        # add hands both parents the gradient it was given; reshape and
        # interleave2 hand back views of it, and a conv views of its dx
        a, b, c, d, e, f = (Tensor(rand(s, seed=40 + i), requires_grad=True)
                            for i, s in enumerate([(1, 2, 3, 3)] * 4
                                                  + [(1, 1, 3, 3)] * 2))
        eye = Tensor(np.eye(2).reshape(2, 2, 1, 1))
        out = interleave2(add(a, b), reshape(reshape(c, (2, 9)), c.shape),
                          d, conv2d(Channels((e, f)), eye))
        (out * 3.0).sum().backward()
        leaves = (a, b, c, d, e, f)
        for t in leaves:
            np.testing.assert_array_equal(t.grad, np.full(t.shape, 3.0))
        for i, s in enumerate(leaves):
            for t in leaves[i + 1:]:
                assert not np.shares_memory(s.grad, t.grad)

    def test_tensor_added_to_itself(self):
        # add hands the gradient it was given to both parents; only the
        # last may keep that array, so a's two terms are summed, not shared
        a = Tensor(rand((1, 2, 3, 3), seed=48), requires_grad=True)
        b = Tensor(rand((1, 2, 3, 3), seed=49), requires_grad=True)
        (add(add(a, a), b) * 3.0).sum().backward()
        np.testing.assert_array_equal(a.grad, np.full(a.shape, 6.0))
        np.testing.assert_array_equal(b.grad, np.full(b.shape, 3.0))
        assert not np.shares_memory(a.grad, b.grad)

    def test_wrapped_make_is_what_backward_calls(self, monkeypatch):
        # an op profiler wraps _make from outside and swaps each node's
        # closure for a wrapper that calls the original; backward must run
        # the wrapper, and pass on what it returns
        def run():
            x = Tensor(rand((1, 2, 6, 6), seed=46), requires_grad=True)
            k = Tensor(rand((3, 2, 3, 3), seed=47), requires_grad=True)
            y = conv2d(x, k, padding=1)
            relu(y * x.sum()).mean().backward()
            return x.grad, k.grad

        want = run()
        called = []
        make = tensor._make

        def traced_make(*args, **kwargs):
            out = make(*args, **kwargs)
            if out._backward is not None:
                fn = out._backward

                def traced(g):
                    called.append(fn)
                    return fn(g)

                out._backward = traced
                assert out._backward is traced
            return out

        monkeypatch.setattr(tensor, "_make", traced_make)
        got = run()
        # conv, mul, relu, tsum, and mean's tsum and div
        assert len(called) == 6
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


class TestNoGrad:
    def test_generator_output_bit_identical(self):
        gen = Generator(ModelConfig(base_channels=4, depth=2,
                                    encoder_channels=(4, 8, 8)), seed=3)
        x = Tensor(rand((1, 3, 16, 16), seed=30))
        recorded = gen(x)
        assert recorded._backward is not None
        with no_grad():
            plain = gen(x)
        np.testing.assert_array_equal(plain.data, recorded.data)

    def test_nothing_recorded_inside(self):
        x = Tensor(rand((1, 2, 6, 6), seed=31), requires_grad=True)
        k = Tensor(rand((3, 2, 3, 3), seed=32), requires_grad=True)
        with no_grad():
            made = [conv2d(x, k, padding=1)]
            made += [relu(made[0]), made[0] * x.sum(), made[0].mean()]
        for t in made:
            assert not t.requires_grad
            assert t._node is None and t._backward is None

    def test_state_restored_after_raise_and_nesting(self):
        x = Tensor(rand((3,), seed=33), requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside")
        assert (x * 2.0)._backward is not None
        with no_grad():
            with no_grad():
                assert (x * 2.0)._backward is None
            assert (x * 2.0)._backward is None
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data)


class TestGradCheck:
    def test_sum_of_squares_tight(self):
        x = Tensor(rand((3, 4), seed=5))
        rep = grad_check(lambda t: (t * t).sum(), x, h=1e-5, tol=1e-6)
        assert isinstance(rep, GradCheckReport)
        assert rep.passed, rep.max_rel_err

    def test_conv_passes(self):
        k = Tensor(rand((2, 2, 3, 3), seed=6))
        x = Tensor(rand((1, 2, 6, 6), seed=7))
        rep = grad_check(lambda t: conv2d(t, k, stride=1, padding=1).sum(),
                         x, tol=1e-4)
        assert rep.passed, rep.max_rel_err

    def test_conv_kernel_grad(self):
        x = Tensor(rand((1, 2, 6, 6), seed=8))
        k = Tensor(rand((2, 2, 3, 3), seed=9))
        rep = grad_check(lambda t: conv2d(x, t, stride=2, padding=1).sum(),
                         k, tol=1e-4)
        assert rep.passed, rep.max_rel_err

    def test_constant_function(self):
        rep = grad_check(lambda t: Tensor([0.0]).sum() + t.sum() * 0.0,
                         Tensor(rand((3,))), tol=1e-6)
        assert rep.passed and rep.max_rel_err == 0.0

    @pytest.mark.parametrize("fn", [
        lambda t: sigmoid(t).sum(),
        lambda t: (leaky_relu(t, 0.2) * t).sum(),
        lambda t: pixel_shuffle(t, 2).abs().sum(),
        lambda t: avg_pool2(t).sum(),
        lambda t: spatial_mean(t * t).sum(),
        lambda t: subsample2(t, 1, 0).sum(),
    ])
    def test_structural_ops(self, fn):
        x = Tensor(rand((1, 4, 4, 4), seed=11) + 2.0)
        rep = grad_check(fn, x, tol=1e-4)
        assert rep.passed, rep.max_rel_err


def window_loop(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Per-pixel float64 oracle: each output pixel is its k x k patch
    weighted by the outer product of the taps."""
    k = taps.size
    bn, c, h, w = x.shape
    win = np.outer(taps, taps)
    out = np.empty((bn, c, h - k + 1, w - k + 1))
    for i in range(h - k + 1):
        for j in range(w - k + 1):
            out[:, :, i, j] = (win * x[:, :, i:i + k, j:j + k]).sum(axis=(2, 3))
    return out


def window_by_conv(x: Tensor, taps: np.ndarray) -> Tensor:
    """The same filter as the (k, 1) then (1, k) single-channel conv pair."""
    bn, c, h, w = x.shape
    cols = conv2d(reshape(x, (bn * c, 1, h, w)),
                  Tensor(taps.reshape(1, 1, -1, 1)))
    out = conv2d(cols, Tensor(taps.reshape(1, 1, 1, -1)))
    return reshape(out, (bn, c) + out.shape[2:])


class TestWindow:
    # output extents drawn from 1..70 cover one partial block, exactly one
    # 32-row block, and two or three blocks with and without a tail
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), k=st.sampled_from([1, 3, 5, 11]),
           bn=st.integers(1, 2), c=st.integers(1, 3),
           ho=st.integers(1, 70), wo=st.integers(1, 70),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_conv_pair_and_loop(self, data, k, bn, c, ho, wo, seed):
        taps = np.array(data.draw(st.lists(
            st.floats(-1.0, 1.0, allow_nan=False), min_size=k, max_size=k)))
        x = np.random.default_rng(seed).uniform(0.0, 1.0,
                                                (bn, c, ho + k - 1, wo + k - 1))
        got = window(Tensor(x), taps).data
        assert got.shape == (bn, c, ho, wo)
        # each output sums k*k products of magnitude <= 1
        tol = 1e-14 * k * k
        np.testing.assert_allclose(got, window_by_conv(Tensor(x), taps).data,
                                   rtol=0, atol=tol)
        np.testing.assert_allclose(got, window_loop(x, taps), rtol=0, atol=tol)

    def test_backward_matches_conv_pair(self):
        taps = rand((5,), seed=60)
        x = rand((2, 3, 40, 70), seed=61)
        g = Tensor(rand((2, 3, 36, 66), seed=62))
        a, b = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
        (window(a, taps) * g).sum().backward()
        (window_by_conv(b, taps) * g).sum().backward()
        np.testing.assert_allclose(a.grad, b.grad, rtol=0, atol=1e-13)

    def test_grad_check(self):
        # 34 output rows and columns: a full block and a 2-row tail each way
        taps = rand((3,), seed=63)
        g = Tensor(rand((1, 2, 34, 34), seed=64))
        rep = grad_check(lambda t: (window(t, taps) * g).sum(),
                         Tensor(rand((1, 2, 36, 36), seed=65)), tol=1e-6)
        assert rep.passed, rep.max_rel_err

    def test_input_freed_before_backward(self):
        # the closure keeps the band and the shapes, not the input
        x = Tensor(rand((1, 2, 40, 40), seed=66), requires_grad=True)
        y = x * 2.0
        ref = weakref.ref(y.data)
        taps = rand((5,), seed=67)
        out = window(y, taps)
        del y
        assert ref() is None
        out.sum().backward()
        want = Tensor(x.data, requires_grad=True)
        window(want * 2.0, taps).sum().backward()
        np.testing.assert_array_equal(x.grad, want.grad)

    def test_layout_does_not_change_bits(self):
        x = rand((2, 3, 45, 50), seed=68)
        # the same values, laid out (H, W, B, C) in memory
        strided = np.ascontiguousarray(
            x.transpose(2, 3, 0, 1)).transpose(2, 3, 0, 1)
        taps = rand((11,), seed=69)
        np.testing.assert_array_equal(window(Tensor(strided), taps).data,
                                      window(Tensor(x), taps).data)

    @pytest.mark.parametrize("shape, taps", [
        ((1, 1, 4, 12), np.ones(5)), ((1, 1, 12, 4), np.ones(5)),
        ((1, 12, 12), np.ones(3)), ((1, 1, 8, 8), np.ones((3, 1))),
        ((1, 1, 8, 8), np.ones(0)),
    ], ids=["short", "narrow", "rank3", "taps2d", "no_taps"])
    def test_bad_shapes_rejected(self, shape, taps):
        with pytest.raises(ShapeError):
            window(Tensor(np.zeros(shape)), taps)


def assert_adjoint(y, v, pairs):
    """<y, v> = <x, g> for each (x, g) of ``pairs``, to 1e-12 of |y| |v|,
    the Cauchy-Schwarz bound of either side. ``y`` is A x from a forward
    and ``g`` is A^T v, the gradient of a backward seeded with ``v``."""
    lhs = float(np.vdot(y, v))
    scale = float(np.linalg.norm(y) * np.linalg.norm(v))
    for x, g in pairs:
        assert abs(lhs - float(np.vdot(x, g))) <= 1e-12 * scale


class TestAdjoints:
    """Dot-product tests of the linear ops' backwards: one forward gives
    A x and one backward seeded with v gives A^T v. conv2d is linear in
    its input and in its kernel, so one pass checks both transposes; for
    conv2d and window the band sizes are shrunk so that several bands run,
    the last one short."""

    @pytest.mark.parametrize("transposed", [True, False],
                             ids=["transposed", "im2col"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_conv2d(self, transposed, data):
        bn = data.draw(st.integers(1, 3), label="B")
        widths = data.draw(st.lists(st.integers(1, 4), min_size=1,
                                    max_size=3), label="part widths")
        cin = sum(widths)
        kh = data.draw(st.integers(1, 4), label="kh")
        kw = data.draw(st.integers(1, 4), label="kw")
        # conv2d runs as a transposed conv exactly when stride is 1,
        # Cout < Cin and the padding is below the kernel on both axes
        if transposed:
            assume(cin > 1)
            stride = 1
            padding = data.draw(st.integers(0, min(kh, kw) - 1),
                                label="padding")
            cout = data.draw(st.integers(1, cin - 1), label="Cout")
        else:
            stride = data.draw(st.sampled_from([1, 2]), label="stride")
            padding = data.draw(st.integers(0, max(kh, kw)), label="padding")
            lo = cin if stride == 1 and padding < min(kh, kw) else 1
            cout = data.draw(st.integers(lo, max(lo, 6)), label="Cout")
        # H and Ho of at least 3, so that a band of 2 to n - 1 of the n
        # rows banded below can leave a short last band
        h_lo = max(3, 2 * stride + kh - 2 * padding)
        h = data.draw(st.integers(h_lo, h_lo + 6), label="H")
        w = data.draw(st.integers(max(1, kw - 2 * padding), 9), label="W")
        ho = (h + 2 * padding - kh) // stride + 1
        wo = (w + 2 * padding - kw) // stride + 1
        # the im2col that _gather bands: the input's, over Ho rows, or in
        # the transposed mode dx's, over H rows of Cout*kh*kw (_scatter's
        # bands follow from the same small size)
        n, row_bytes = ((h, cout * kh * kw * bn * w * 8) if transposed
                        else (ho, cin * kh * kw * bn * wo * 8))
        rows = data.draw(st.sampled_from([r for r in range(2, n) if n % r]),
                         label="rows per band")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        xs = [Tensor(rng.normal(size=(bn, c, h, w)), requires_grad=True)
              for c in widths]
        k = Tensor(rng.normal(size=(cout, cin, kh, kw)), requires_grad=True)
        with mock.patch.object(tensor, "_COL_BAND_BYTES", rows * row_bytes):
            y = conv2d(Channels(xs), k, stride=stride, padding=padding)
            v = rng.normal(size=y.shape)
            (y * Tensor(v)).sum().backward()
        x = np.concatenate([p.data for p in xs], axis=1)
        dx = np.concatenate([p.grad for p in xs], axis=1)
        assert_adjoint(y.data, v, [(x, dx), (k.data, k.grad)])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), k=st.sampled_from([1, 3, 5, 11]),
           bn=st.integers(1, 2), c=st.integers(1, 3),
           rows=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1))
    def test_window(self, data, k, bn, c, rows, seed):
        # several row blocks, the last one short; any number of columns
        ho = data.draw(st.integers(rows + 1, 4 * rows).filter(
            lambda n: n % rows), label="Ho")
        wo = data.draw(st.integers(1, 4 * rows), label="Wo")
        rng = np.random.default_rng(seed)
        taps = rng.normal(size=k)
        x = Tensor(rng.normal(size=(bn, c, ho + k - 1, wo + k - 1)),
                   requires_grad=True)
        with mock.patch.object(tensor, "_WINDOW_ROWS", rows):
            y = window(x, taps)
            v = rng.normal(size=y.shape)
            (y * Tensor(v)).sum().backward()
        assert_adjoint(y.data, v, [(x.data, x.grad)])

    @staticmethod
    def forward_backward(fn, x, rng):
        """A x for ``x`` (a leaf that needs a gradient), a drawn v, and
        A^T v in ``x.grad``, from one forward and one backward."""
        y = fn(x)
        v = rng.normal(size=y.shape)
        (y * Tensor(v)).sum().backward()
        assert_adjoint(y.data, v, [(x.data, x.grad)])

    @settings(max_examples=30, deadline=None)
    @given(shape=_small(2), oi=st.integers(0, 1), oj=st.integers(0, 1),
           seed=st.integers(0, 2 ** 16))
    def test_subsample2(self, shape, oi, oj, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        self.forward_backward(lambda t: subsample2(t, oi, oj), x, rng)

    @settings(max_examples=30, deadline=None)
    @given(shape=_small(), which=st.integers(0, 3),
           seed=st.integers(0, 2 ** 16))
    def test_interleave2(self, shape, which, seed):
        # linear in the four phases together: with the other three zero,
        # the output is the one phase's A x
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        zeros = [Tensor(np.zeros(shape)) for _ in range(3)]
        self.forward_backward(
            lambda t: interleave2(*zeros[:which], t, *zeros[which:]), x, rng)

    @settings(max_examples=30, deadline=None)
    @given(shape=st.tuples(st.integers(1, 2), st.sampled_from([4, 8]),
                           st.integers(1, 6), st.integers(1, 6)),
           seed=st.integers(0, 2 ** 16))
    def test_pixel_shuffle(self, shape, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        self.forward_backward(lambda t: pixel_shuffle(t, 2), x, rng)

    @settings(max_examples=30, deadline=None)
    @given(shape=_small(), form=st.sampled_from(["flat", "rows", "column"]),
           seed=st.integers(0, 2 ** 16))
    def test_reshape(self, shape, form, seed):
        rng = np.random.default_rng(seed)
        b, c, h, w = shape
        to = {"flat": (b * c * h * w,), "rows": (b * c, h * w),
              "column": (b, c * h * w, 1)}[form]
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        self.forward_backward(lambda t: reshape(t, to), x, rng)

    @settings(max_examples=30, deadline=None)
    @given(shape=_small(), axes=st.sampled_from([None, (2, 3)]),
           seed=st.integers(0, 2 ** 16))
    def test_tsum(self, shape, axes, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        self.forward_backward(lambda t: tsum(t, axes), x, rng)


def conv_layout(shape, seed):
    """Random values of ``shape`` in a conv2d output's memory layout: a
    (B, C, H, W) view of (C, B, H, W) memory."""
    bn, c, h, w = shape
    out = conv2d(Tensor(rand((bn, 2, h, w), seed=seed)),
                 Tensor(rand((c, 2, 1, 1), seed=seed + 1))).data
    assert not out.flags.c_contiguous
    return out


def pool_reference(x):
    return ((x[:, :, 0::2, 0::2] + x[:, :, 0::2, 1::2])
            + (x[:, :, 1::2, 0::2] + x[:, :, 1::2, 1::2])) / 4.0


class TestComposedFunctions:
    """tmean, spatial_mean, absval, leaky_relu and avg_pool2 are built from
    the ops and keep the bits of the ops they replaced."""

    def test_op_inventory_matches_docstring(self):
        tree = ast.parse(Path(tensor.__file__).read_text())
        ops = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)
               and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                       and n.func.id == "_make" for n in ast.walk(f))}
        para = re.search(r"The ops, (\d+) in all:(.*?)\n\n",
                         ast.get_docstring(tree), re.S)
        listed = re.findall(r"``(\w+)``", para.group(2))
        assert sorted(listed) == sorted(ops)
        assert len(ops) == int(para.group(1))
        assert not ops & {"tmean", "spatial_mean", "absval", "leaky_relu",
                          "avg_pool2"}

    # (function, forward oracle, backward oracle given the upstream g)
    CASES = {
        "tmean": (tensor.tmean, np.mean,
                  lambda x, g: np.full(x.shape, float(g) / x.size)),
        "spatial_mean": (
            spatial_mean, lambda x: x.mean(axis=(2, 3), keepdims=True),
            lambda x, g: np.broadcast_to(g / (x.shape[2] * x.shape[3]),
                                         x.shape)),
        "absval": (absval, np.abs, lambda x, g: g * np.sign(x)),
        "leaky_relu": (lambda t: leaky_relu(t, 0.2),
                       lambda x: x * np.where(x > 0, 1.0, 0.2),
                       lambda x, g: g * np.where(x > 0, 1.0, 0.2)),
        "avg_pool2": (avg_pool2, pool_reference,
                      lambda x, g: np.repeat(np.repeat(g, 2, axis=2), 2,
                                             axis=3) / 4.0),
    }

    @pytest.mark.parametrize("layout", ["c_order", "conv_output"])
    @pytest.mark.parametrize("name", list(CASES))
    def test_bits_equal_numpy(self, name, layout):
        fn, forward, backward = self.CASES[name]
        shape = (2, 3, 6, 8)
        xd = rand(shape, seed=70) if layout == "c_order" \
            else conv_layout(shape, 70)
        x = Tensor(xd, requires_grad=True)
        y = fn(x)
        want = forward(xd)
        g = rand(np.shape(want), seed=72)
        (y * Tensor(g)).sum().backward()
        for got, ref in ((y.data, want), (x.grad, backward(xd, g))):
            assert got.shape == np.shape(ref)
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_absval_gradient_zero_at_zero(self):
        x = Tensor([-0.0, 0.0, -2.0, 3.0], requires_grad=True)
        y = absval(x)
        assert y.data.tolist() == [0.0, 0.0, 2.0, 3.0]
        y.sum().backward()
        assert x.grad.tolist() == [0.0, 0.0, -1.0, 1.0]

    @pytest.mark.parametrize("shape", [(1, 1, 3, 4), (1, 1, 4, 5), (1, 4, 4)],
                             ids=["odd_h", "odd_w", "rank3"])
    def test_avg_pool2_bad_shapes_rejected(self, shape):
        with pytest.raises(ShapeError):
            avg_pool2(Tensor(np.zeros(shape)))


class TestStructural:
    def test_interleave_inverts_subsample(self):
        x = Tensor(rand((1, 2, 6, 6), seed=12))
        parts = [subsample2(x, i, j) for i in (0, 1) for j in (0, 1)]
        out = interleave2(parts[0], parts[1], parts[2], parts[3])
        np.testing.assert_array_equal(out.data, x.data)

    def test_concat_backward_splits(self):
        # a join read by a conv hands each part its own channels of dx
        a = Tensor(rand((1, 2, 2, 2), seed=13), requires_grad=True)
        b = Tensor(rand((1, 3, 2, 2), seed=14), requires_grad=True)
        eye = Tensor(np.eye(5).reshape(5, 5, 1, 1))
        (conv2d(Channels((a, b)), eye) * 2.0).sum().backward()
        np.testing.assert_array_equal(a.grad, np.full(a.shape, 2.0))
        np.testing.assert_array_equal(b.grad, np.full(b.shape, 2.0))

    def test_broadcast_backward_sums(self):
        g = Tensor(rand((1, 3, 1, 1), seed=15), requires_grad=True)
        (g * Tensor(np.ones((1, 3, 4, 4)))).sum().backward()
        np.testing.assert_allclose(g.grad, np.full((1, 3, 1, 1), 16.0))

    @settings(max_examples=80, deadline=None)
    @given(shape=st.tuples(st.integers(1, 2), st.integers(1, 3),
                           st.integers(1, 8).map(lambda n: 2 * n),
                           st.integers(2, 8).map(lambda n: 2 * n)),
           data=st.data())
    def test_avg_pool2_equals_block_mean(self, shape, data):
        # numpy's mean over a C-ordered block adds (00 + 01) + (10 + 11)
        # once the rows are at least 4 wide; at width 2, or in another
        # layout, it adds in another order (see test_avg_pool2_any_layout)
        x = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(
            -1e300, 1e300, allow_nan=False)))
        bn, c, h, w = shape
        want = x.reshape(bn, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
        np.testing.assert_array_equal(avg_pool2(Tensor(x)).data, want)

    @pytest.mark.parametrize("w", [2, 8])
    def test_avg_pool2_any_layout(self, w):
        # the pooled bits depend on the values only, not on the layout
        # (read_image returns (H, W, 3)-ordered memory) or the width
        x = rand((2, 3, 6, w), seed=18)
        hwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(
            0, 3, 1, 2)
        want = pool_reference(x)
        for arr in (x, hwc):
            np.testing.assert_array_equal(avg_pool2(Tensor(arr)).data, want)

    def test_detach_cuts_graph(self):
        x = Tensor(rand((3,)), requires_grad=True)
        (x.detach() * x).sum().backward()
        np.testing.assert_allclose(x.grad, x.data)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        t = Tensor(rand((2, 3, 4, 5), seed=16))
        save_tensor(tmp_path / "t.bin", t)
        loaded = load_tensor(tmp_path / "t.bin")
        assert loaded.shape == t.shape
        np.testing.assert_array_equal(loaded.data, t.data)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.bin").write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_tensor(tmp_path / "bad.bin")

    def test_truncated(self, tmp_path):
        t = Tensor(rand((4, 4)))
        save_tensor(tmp_path / "t.bin", t)
        data = (tmp_path / "t.bin").read_bytes()
        (tmp_path / "t.bin").write_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_tensor(tmp_path / "t.bin")

    def test_trailing_bytes_rejected(self, tmp_path):
        save_tensor(tmp_path / "t.bin", Tensor(rand((2, 3))))
        with open(tmp_path / "t.bin", "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(ValueError, match="size mismatch"):
            load_tensor(tmp_path / "t.bin")

    def test_expected_shape_checked(self, tmp_path):
        save_tensor(tmp_path / "t.bin", Tensor(rand((2, 3))))
        assert load_tensor(tmp_path / "t.bin", shape=(2, 3)).shape == (2, 3)
        with pytest.raises(ValueError, match=r"\(2, 3\) != expected \(3, 2\)"):
            load_tensor(tmp_path / "t.bin", shape=(3, 2))

    def test_rank5_rejected_before_writing(self, tmp_path):
        path = tmp_path / "r5.bin"
        with pytest.raises(ShapeError):
            save_tensor(path, np.zeros((1, 1, 1, 1, 2)))
        assert not path.exists()


_arrays = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=4,
                                                  min_side=0, max_side=4))


@pytest.fixture(scope="module")
def bin_path(tmp_path_factory):
    # one file rewritten by every example; hypothesis does not re-run
    # function-scoped fixtures between examples
    return tmp_path_factory.mktemp("fuzz") / "t.bin"


def _saved_bytes(path, arr) -> bytes:
    save_tensor(path, Tensor(arr))
    return path.read_bytes()


def _rejects(path, blob: bytes) -> None:
    path.write_bytes(blob)
    with pytest.raises(ValueError):
        load_tensor(path)


class TestSerializationProperties:
    @settings(max_examples=200, deadline=None)
    @given(arr=_arrays)
    def test_round_trip_exact(self, bin_path, arr):
        save_tensor(bin_path, Tensor(arr))
        back = load_tensor(bin_path).data
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()  # bitwise, NaNs too

    @settings(max_examples=200, deadline=None)
    @given(arr=_arrays, suffix=st.binary(min_size=1, max_size=24))
    def test_any_suffix_rejected(self, bin_path, arr, suffix):
        _rejects(bin_path, _saved_bytes(bin_path, arr) + suffix)

    @settings(max_examples=200, deadline=None)
    @given(arr=_arrays, data=st.data())
    def test_any_truncation_rejected(self, bin_path, arr, data):
        blob = _saved_bytes(bin_path, arr)
        _rejects(bin_path, blob[:data.draw(st.integers(0, len(blob) - 1))])

    @settings(max_examples=300, deadline=None)
    @given(blob=st.one_of(st.binary(max_size=64),
                          st.binary(max_size=60).map(lambda b: b"DWT0" + b)))
    def test_arbitrary_bytes_raise_only_value_error(self, bin_path, blob):
        bin_path.write_bytes(blob)
        try:
            load_tensor(bin_path)
        except ValueError:
            pass


def _on_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


# minor page faults of a second 256 px SSIM of the same pair
_SECOND_SSIM_FAULTS = """
import resource
import numpy as np
from dwgan.metrics import ssim
a, b = np.random.default_rng(0).uniform(0, 1, (2, 1, 3, 256, 256))
ssim(a, b)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
ssim(a, b)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _on_glibc(), reason="the heap setting is glibc's")
class TestFreedHeapKept:
    """Importing dwgan keeps freed heap pages in the process, so a repeated
    op faults no pages in again, unless the process was started with a
    malloc setting of its own. Each case runs in a fresh interpreter whose
    environment names no malloc setting but the one given."""

    @staticmethod
    def second_ssim_faults(**malloc_env) -> int:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
        env["PYTHONPATH"] = str(Path(tensor.__file__).parents[1])
        env.update(malloc_env)
        run = subprocess.run([sys.executable, "-c", _SECOND_SSIM_FAULTS],
                             env=env, capture_output=True, text=True,
                             check=True, timeout=120)
        return int(run.stdout)

    def test_repeated_op_faults_little(self):
        # about 3,500 faults without the setting
        assert self.second_ssim_faults() < 100

    @pytest.mark.parametrize("malloc_env", [
        {"MALLOC_TRIM_THRESHOLD_": "131072"},
        {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"},
    ], ids=["MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"])
    def test_explicit_setting_left_alone(self, malloc_env):
        assert self.second_ssim_faults(**malloc_env) > 1000
