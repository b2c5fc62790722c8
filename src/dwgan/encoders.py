"""Multi-stage feature encoder.

The knowledge-adaptation branch and the perceptual loss both consume an
encoder that maps a 3-channel image to a pyramid of feature stages, each
at half the previous resolution. It is a fixed, seeded
strided-convolution pyramid standing in for a pretrained backbone, so its
weights follow from (channels, seed) alone.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, conv2d, relu


class ToyEncoder:
    """Seeded strided-conv feature pyramid.

    Each stage is a 3x3 stride-2 convolution followed by ReLU, so stage j
    has spatial extent H / 2^(j+1). Weights are deterministic in the seed
    and frozen unless ``trainable=True``.
    """

    def __init__(self, channels: tuple[int, ...] = (16, 32, 64, 64),
                 seed: int = 0, trainable: bool = False, *,
                 draw: bool = True):
        """``draw=False`` neither draws nor allocates the weights: each is
        a read-only zero view, for the checkpoint loader, which overwrites
        a trainable encoder's weights and draws a frozen one only once the
        files' headers have confirmed its widths."""
        self.channels = tuple(int(c) for c in channels)
        self.trainable = trainable
        rng = np.random.default_rng(seed)
        self.weights: list[Tensor] = []
        cin = 3
        for cout in self.channels:
            fan_in = cin * 9
            bound = np.sqrt(6.0 / fan_in)
            shape = (cout, cin, 3, 3)
            w = (rng.uniform(-bound, bound, size=shape) if draw
                 else np.broadcast_to(np.float64(0.0), shape))
            self.weights.append(Tensor(w, requires_grad=trainable))
            cin = cout

    @property
    def num_stages(self) -> int:
        return len(self.channels)

    def stages(self, x: Tensor) -> list[Tensor]:
        """Feature maps for every stage, finest first."""
        feats = []
        cur = x
        for w in self.weights:
            cur = relu(conv2d(cur, w, stride=2, padding=1))
            feats.append(cur)
        return feats

    def named_parameters(self, prefix: str = "encoder"):
        for i, w in enumerate(self.weights):
            yield f"{prefix}.stage{i}.weight", w
