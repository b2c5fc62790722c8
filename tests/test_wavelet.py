import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwgan.tensor import ShapeError, Tensor, grad_check
from dwgan.wavelet import HAAR_FILTERS, Subbands, dwt2, idwt2


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def dwt2_direct(x: np.ndarray) -> dict:
    """Quadruple-loop oracle: stride-2 valid cross-correlation with each
    of the four 2x2 filters, per channel."""
    b, c, h, w = x.shape
    out = {name: np.zeros((b, c, h // 2, w // 2)) for name in HAAR_FILTERS}
    for name, f in HAAR_FILTERS.items():
        for bi in range(b):
            for ci in range(c):
                for i in range(h // 2):
                    for j in range(w // 2):
                        acc = 0.0
                        for di in range(2):
                            for dj in range(2):
                                acc += f[di, dj] * x[bi, ci, 2 * i + di, 2 * j + dj]
                        out[name][bi, ci, i, j] = acc
    return out


class TestFilters:
    def test_exact_entries(self):
        assert HAAR_FILTERS["ll"].tolist() == [[1, 1], [1, 1]]
        assert HAAR_FILTERS["lh"].tolist() == [[-1, -1], [1, 1]]
        assert HAAR_FILTERS["hl"].tolist() == [[-1, 1], [-1, 1]]
        assert HAAR_FILTERS["hh"].tolist() == [[1, -1], [-1, 1]]

    def test_orthogonal_norm4(self):
        vecs = [f.reshape(-1) for f in HAAR_FILTERS.values()]
        for i, v in enumerate(vecs):
            assert v @ v == 4
            for w in vecs[i + 1:]:
                assert v @ w == 0


class TestDwt2:
    def test_hand_example(self):
        s = dwt2(Tensor([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert s.ll.data.tolist() == [[[[10.0]]]]
        assert s.lh.data.tolist() == [[[[4.0]]]]
        assert s.hl.data.tolist() == [[[[2.0]]]]
        assert s.hh.data.tolist() == [[[[0.0]]]]

    def test_constant_image(self):
        c = 0.7
        s = dwt2(Tensor(np.full((1, 2, 4, 4), c)))
        np.testing.assert_allclose(s.ll.data, 4 * c)
        for band in (s.lh, s.hl, s.hh):
            np.testing.assert_allclose(band.data, 0.0)

    def test_energy_identity(self):
        x = rand((2, 3, 8, 8), seed=1)
        s = dwt2(Tensor(x))
        lhs = sum(float((t.data ** 2).sum()) for t in s.as_tuple())
        assert abs(lhs - 4 * (x ** 2).sum()) < 1e-12 * abs(lhs)

    def test_matches_direct_oracle_exactly(self):
        x = rand((1, 2, 8, 8), seed=2)
        s = dwt2(Tensor(x))
        oracle = dwt2_direct(x)
        for name, band in zip(("ll", "lh", "hl", "hh"), s.as_tuple()):
            np.testing.assert_array_equal(band.data, oracle[name])

    def test_odd_extent_errors_without_pad(self):
        with pytest.raises(ShapeError, match="needs even"):
            dwt2(Tensor(rand((1, 1, 5, 4))))

    def test_linearity(self):
        x, y = rand((1, 1, 6, 6), seed=4), rand((1, 1, 6, 6), seed=5)
        a, b = 2.5, -1.25
        s_mix = dwt2(Tensor(a * x + b * y))
        sx, sy = dwt2(Tensor(x)), dwt2(Tensor(y))
        for mixed, bx, by in zip(s_mix.as_tuple(), sx.as_tuple(), sy.as_tuple()):
            np.testing.assert_allclose(mixed.data, a * bx.data + b * by.data,
                                       atol=1e-12)


class TestIdwt2:
    def test_perfect_reconstruction_hand(self):
        x = Tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        np.testing.assert_allclose(idwt2(dwt2(x)).data, x.data, atol=1e-12)

    def test_constant_inverse(self):
        zeros = Tensor(np.zeros((1, 1, 1, 1)))
        s = Subbands(ll=Tensor([[[[4.0]]]]), lh=zeros, hl=zeros, hh=zeros)
        np.testing.assert_array_equal(idwt2(s).data, np.ones((1, 1, 2, 2)))

    def test_zero_subbands(self):
        z = Tensor(np.zeros((1, 2, 3, 3)))
        assert np.all(idwt2(Subbands(ll=z, lh=z, hl=z, hh=z)).data == 0)

    def test_inconsistent_shapes(self):
        with pytest.raises(ShapeError):
            Subbands(ll=Tensor(np.zeros((1, 1, 2, 2))),
                     lh=Tensor(np.zeros((1, 1, 3, 3))),
                     hl=Tensor(np.zeros((1, 1, 2, 2))),
                     hh=Tensor(np.zeros((1, 1, 2, 2))))

    def test_perfect_reconstruction_random(self):
        for seed in range(10):
            h, w = 2 * (seed % 5 + 1), 2 * (seed % 3 + 2)
            x = rand((1, 3, h, w), seed=seed)
            err = np.max(np.abs(idwt2(dwt2(Tensor(x))).data - x))
            assert err < 1e-10


class TestGradients:
    def test_dwt2_linear_map_gradient(self):
        x = Tensor(rand((1, 2, 6, 6), seed=8))
        w = [Tensor(rand((1, 2, 3, 3), seed=20 + i)) for i in range(4)]
        rep = grad_check(
            lambda t: sum((wi * b).sum()
                          for wi, b in zip(w, dwt2(t).as_tuple())),
            x, tol=1e-6)
        assert rep.passed, rep.max_rel_err

    def test_idwt2_gradient(self):
        x = Tensor(rand((1, 1, 6, 6), seed=9))
        w = Tensor(rand((1, 1, 6, 6), seed=24))
        rep = grad_check(lambda t: (w * idwt2(dwt2(t))).sum(), x, tol=1e-6)
        assert rep.passed, rep.max_rel_err

    def test_dwt2_quadratic_composite(self):
        x = Tensor(rand((1, 2, 6, 6), seed=8))
        rep = grad_check(
            lambda t: sum((b * b).sum() for b in dwt2(t).as_tuple()),
            x, tol=1e-4)
        assert rep.passed, rep.max_rel_err


class TestAdjoint:
    """A dot-product test of dwt2's backward, <dwt2 x, v> = <x, dwt2^T v>
    from one forward and one backward seeded with the bands v, and the
    inverse as the transpose: idwt2 = dwt2^T / 4."""

    @settings(max_examples=30, deadline=None)
    @given(bn=st.integers(1, 2), c=st.integers(1, 3), h=st.integers(1, 6),
           w=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
    def test_dwt2_transpose_is_four_idwt2(self, bn, c, h, w, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(bn, c, 2 * h, 2 * w)), requires_grad=True)
        bands = dwt2(x).as_tuple()
        vs = [rng.normal(size=b.shape) for b in bands]
        total = (bands[0] * Tensor(vs[0])).sum()
        for b, v in zip(bands[1:], vs[1:]):
            total = total + (b * Tensor(v)).sum()
        total.backward()
        # to 1e-12 of |dwt2 x| |v|, the Cauchy-Schwarz bound of either side
        y, v = np.stack([b.data for b in bands]), np.stack(vs)
        scale = float(np.linalg.norm(y) * np.linalg.norm(v))
        assert abs(np.vdot(y, v) - np.vdot(x.data, x.grad)) <= 1e-12 * scale
        np.testing.assert_allclose(
            idwt2(Subbands(*map(Tensor, vs))).data, x.grad / 4,
            rtol=1e-12, atol=1e-12)
