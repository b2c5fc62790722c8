"""2D Haar discrete wavelet transform on (B, C, H, W) tensors.

The four 2x2 filters are unnormalized (entries +-1, sums not averages), so
the forward transform scales energy by 4 and the inverse carries a 1/4
factor. Filters are applied per channel with the cross-correlation
convention and stride 2, which for the LL band gives

    ll(i, j) = x(2i, 2j) + x(2i, 2j+1) + x(2i+1, 2j) + x(2i+1, 2j+1)

(0-based). All transforms are differentiable through the tensor engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor, interleave2, subsample2

# The four fixed analysis filters (low-low, low-high, high-low, high-high).
F_LL = np.array([[1.0, 1.0], [1.0, 1.0]])
F_LH = np.array([[-1.0, -1.0], [1.0, 1.0]])
F_HL = np.array([[-1.0, 1.0], [-1.0, 1.0]])
F_HH = np.array([[1.0, -1.0], [-1.0, 1.0]])

HAAR_FILTERS = {"ll": F_LL, "lh": F_LH, "hl": F_HL, "hh": F_HH}


@dataclass
class Subbands:
    """One level of decomposition: four tensors of equal (B, C, H/2, W/2)."""

    ll: Tensor
    lh: Tensor
    hl: Tensor
    hh: Tensor

    def __post_init__(self):
        shapes = {t.shape for t in (self.ll, self.lh, self.hl, self.hh)}
        if len(shapes) != 1:
            raise ShapeError(f"subband shapes differ: {shapes}")

    def as_tuple(self) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        return self.ll, self.lh, self.hl, self.hh


def dwt2(x: Tensor) -> Subbands:
    """One-level Haar decomposition of a rank-4 tensor with even H and W."""
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"dwt2 expects rank 4, got {x.shape}")
    _, _, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"odd spatial extent {h}x{w}; dwt2 needs even H, W")
    a = subsample2(x, 0, 0)  # x(2i,   2j)
    b = subsample2(x, 0, 1)  # x(2i,   2j+1)
    c = subsample2(x, 1, 0)  # x(2i+1, 2j)
    d = subsample2(x, 1, 1)  # x(2i+1, 2j+1)
    ll = a + b + c + d
    lh = -a - b + c + d
    hl = -a + b - c + d
    hh = a - b - c + d
    return Subbands(ll=ll, lh=lh, hl=hl, hh=hh)


def idwt2(s: Subbands) -> Tensor:
    """Exact left-inverse of dwt2: the transpose transform scaled by 1/4.

    Phase formulas, e.g. x(2i, 2j) = (ll - lh - hl + hh) / 4.
    """
    ll, lh, hl, hh = s.as_tuple()
    a = (ll - lh - hl + hh) * 0.25
    b = (ll - lh + hl - hh) * 0.25
    c = (ll + lh - hl - hh) * 0.25
    d = (ll + lh + hl + hh) * 0.25
    return interleave2(a, b, c, d)
