"""Multi-stage feature encoder and the weight initializer it shares with
the model.

The knowledge-adaptation branch and the perceptual loss both consume an
encoder that maps a 3-channel image to a pyramid of feature stages, each
at half the previous resolution. It is a fixed strided-convolution
pyramid standing in for a pretrained backbone, drawn from seed 0, so its
weights follow from its channel widths alone, and it is never trained.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, conv2d, relu


def _unset(*shape: int) -> np.ndarray:
    """The stand-in for a parameter the caller overwrites (the checkpoint
    loader): a read-only zero view of ``shape`` that allocates nothing, so
    a config with absurd widths fails on a file's header, not in malloc."""
    try:
        return np.broadcast_to(np.float64(0.0), shape)
    except ValueError:
        raise ValueError(f"parameter shape {shape} is too large for an "
                         "array") from None


def _kaiming(rng: np.random.Generator | None, cout: int, cin: int, kh: int,
             kw: int) -> np.ndarray:
    """A (cout, cin, kh, kw) weight drawn uniformly within the fan-in
    bound sqrt(6 / (cin kh kw)), or ``_unset`` when ``rng`` is None."""
    if rng is None:
        return _unset(cout, cin, kh, kw)
    bound = np.sqrt(6.0 / (cin * kh * kw))
    return rng.uniform(-bound, bound, size=(cout, cin, kh, kw))


class ToyEncoder:
    """Seeded strided-conv feature pyramid.

    Each stage is a 3x3 stride-2 convolution followed by ReLU, so stage j
    has spatial extent H / 2^(j+1). Weights are drawn from seed 0 and
    frozen.
    """

    def __init__(self, channels: tuple[int, ...] = (16, 32, 64, 64), *,
                 draw: bool = True):
        """``draw=False`` neither draws nor allocates the weights: each is
        an ``_unset`` view, for the checkpoint loader, which draws the
        encoder only once the files' headers have confirmed its widths."""
        self.channels = tuple(int(c) for c in channels)
        rng = np.random.default_rng(0) if draw else None
        self.weights: list[Tensor] = []
        cin = 3
        for cout in self.channels:
            self.weights.append(Tensor(_kaiming(rng, cout, cin, 3, 3)))
            cin = cout

    def stages(self, x: Tensor) -> list[Tensor]:
        """Feature maps for every stage, finest first."""
        feats = []
        cur = x
        for w in self.weights:
            cur = relu(conv2d(cur, w, stride=2, padding=1))
            feats.append(cur)
        return feats
