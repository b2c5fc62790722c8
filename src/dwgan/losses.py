"""Training losses and their weighted combination.

total = smooth_l1 + alpha * (1 - MS-SSIM) + beta * perceptual
        + gamma * adversarial
with defaults alpha=0.2, beta=0.001, gamma=0.005. All terms are
differentiable through the tensor engine; the adversarial term averages
patch probabilities to one probability per sample before the log, and
probabilities are clamped at 1e-8 to keep the logs finite. The perceptual
term reads the three stages of one frozen ``ToyEncoder``, 16, 32 and 64
channels wide (``encoder()``), drawn on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .encoders import ToyEncoder
from .metrics import ms_ssim_tensor
from .tensor import ShapeError, Tensor, clip_min, log, reshape, spatial_mean

PROB_EPS = 1e-8


@cache
def encoder() -> ToyEncoder:
    """The perceptual distance's feature extractor, drawn on first use, so
    that a command which computes no loss draws no weights."""
    return ToyEncoder((16, 32, 64))


@dataclass
class LossWeights:
    alpha: float = 0.2    # MS-SSIM weight
    beta: float = 0.001   # perceptual weight
    gamma: float = 0.005  # adversarial weight

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise ValueError("loss weights must be non-negative")


def smooth_l1(pred: Tensor, target: Tensor) -> Tensor:
    """Mean over the 3N per-channel terms of the Huber-style penalty
    0.5*e^2 for |e| < 1, |e| - 0.5 otherwise.

    Both branches and their derivatives agree at |e| = 1, so the loss is
    C1-continuous there.
    """
    if pred.shape != target.shape:
        raise ShapeError(f"shape mismatch {pred.shape} vs {target.shape}")
    if pred.data.ndim != 4 or pred.shape[1] != 3:
        raise ShapeError(f"expected (B, 3, H, W), got {pred.shape}")
    e = pred - target
    quad_mask = Tensor((np.abs(e.data) < 1.0).astype(np.float64))
    quad = e * e * 0.5
    lin = e.abs() - 0.5
    return (quad_mask * quad + (1.0 - quad_mask) * lin).mean()


def perceptual(pred: Tensor, target: Tensor) -> Tensor:
    """Sum over every stage of ``encoder()`` of the per-element mean
    squared feature distance (equivalently 1/(C_j H_j W_j) *
    ||phi_j(target) - phi_j(pred)||^2 averaged over the batch). Gradient
    flows to pred only."""
    feats_pred = encoder().stages(pred)
    feats_tgt = encoder().stages(target.detach())
    total: Tensor | None = None
    for fp, ft in zip(feats_pred, feats_tgt):
        diff = fp - ft.detach()
        term = (diff * diff).mean()
        total = term if total is None else total + term
    assert total is not None
    return total


def ms_ssim_loss(pred: Tensor, target: Tensor,
                 levels: int | None = None) -> Tensor:
    """1 - MS-SSIM over ``levels`` levels (None: ``fit_levels``); zero for
    identical inputs, at most 2."""
    return 1.0 - ms_ssim_tensor(pred, target, levels)


def _per_sample_prob(d_out: Tensor) -> Tensor:
    """Average a patch probability map to one probability per sample."""
    if d_out.data.ndim == 4:
        b = d_out.shape[0]
        return reshape(spatial_mean(d_out), (b,))
    if d_out.data.ndim == 1:
        return d_out
    raise ShapeError(f"expected (B,) or (B, 1, h, w) probabilities, got {d_out.shape}")


def adversarial_gen(d_out: Tensor) -> Tensor:
    """Generator-side non-saturating term: sum over the batch of
    -log D(G(hazy)), with patch outputs averaged per sample first."""
    p = clip_min(_per_sample_prob(d_out), PROB_EPS)
    return -log(p).sum()


def discriminator_loss(d_real: Tensor, d_fake: Tensor) -> Tensor:
    """Mean of -log(d_real) - log(1 - d_fake) over the batch."""
    pr = clip_min(_per_sample_prob(d_real), PROB_EPS)
    pf_inv = clip_min(1.0 - _per_sample_prob(d_fake), PROB_EPS)
    return (-log(pr) - log(pf_inv)).mean()


def total_loss(pred: Tensor, target: Tensor, d_out: Tensor | None,
               weights: LossWeights | None = None,
               levels: int | None = None) -> tuple[Tensor, dict[str, float]]:
    """Weighted sum with a per-term breakdown for logging.

    ``levels`` is the MS-SSIM term's level count (None: ``fit_levels``).
    Terms with zero weight (or a missing discriminator output) are skipped
    and reported as 0. Breakdown values are the unweighted terms; the
    'total' entry always equals l1 + alpha*ms_ssim + beta*perceptual
    + gamma*adv exactly.
    """
    w = weights or LossWeights()
    total = smooth_l1(pred, target)
    breakdown = {"l1": total.item(), "ms_ssim": 0.0, "perceptual": 0.0,
                 "adv": 0.0}
    if w.alpha > 0:
        term = ms_ssim_loss(pred, target, levels)
        breakdown["ms_ssim"] = term.item()
        total = total + w.alpha * term
    if w.beta > 0:
        term = perceptual(pred, target)
        breakdown["perceptual"] = term.item()
        total = total + w.beta * term
    if w.gamma > 0 and d_out is not None:
        term = adversarial_gen(d_out)
        breakdown["adv"] = term.item()
        total = total + w.gamma * term
    breakdown["total"] = total.item()
    return total, breakdown
