"""GAN training loop, optimizer, schedule, augmentation and the ablation
harness, all scaled to desk size.

The schedule keeps the shape of the full-scale reference recipe: the
learning rate starts at lr0 and halves at the 3/8, 5/8 and 6/8 points of
the run (3000/5000/6000 of 8000 epochs, expressed as step fractions so
toy runs inherit it). Both networks use Adam with its default betas
(0.9, 0.999) and eps 1e-8. Alternation is one discriminator update then
one generator update per batch. The held-out split is the last 20% of the
generated pairs (at least one pair, so a run needs two), never augmented,
scored whole by ``Generator.dehaze``. Sizes are checked before an output
directory is made; given one, the run writes one checkpoint, at the end.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from .hazesim import HazePair, make_base_images, make_dataset
from .losses import LossWeights, discriminator_loss, total_loss
from .metrics import fit_levels, psnr, ssim
from .model import Discriminator, Generator, ModelConfig, save_checkpoint
from .tensor import Tensor


@dataclass
class TrainConfig:
    crop: int = 64
    batch: int = 4
    lr0: float = 1e-4
    total_steps: int = 800
    seed: int = 0
    # a term is off exactly when its weight is 0; a gamma above 0 trains
    # the discriminator
    weights: LossWeights = field(default_factory=LossWeights)
    eval_every: int = 200
    # the trailing share of the dataset held out for evaluation
    holdout_fraction: ClassVar[float] = 0.2

    def __post_init__(self):
        if self.crop < 1 or self.batch < 1:
            raise ValueError("crop and batch must be >= 1")
        if self.total_steps < 0 or self.eval_every < 0:
            raise ValueError("total_steps and eval_every must be >= 0")
        if not (math.isfinite(self.lr0) and self.lr0 > 0):
            raise ValueError(f"lr0 must be finite and > 0, got {self.lr0}")


# the fractions of the run at which the learning rate is multiplied by
# LR_FACTOR
MILESTONES = (3 / 8, 5 / 8, 6 / 8)
LR_FACTOR = 0.5


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Piecewise-constant schedule: lr0 * LR_FACTOR^(milestones passed)."""
    passed = sum(1 for m in MILESTONES if step >= m * cfg.total_steps)
    return cfg.lr0 * LR_FACTOR ** passed


def augment(pair: HazePair, rng: np.random.Generator,
            crop: int) -> tuple[np.ndarray, np.ndarray]:
    """Identical random crop, rotation (multiple of 90 degrees) and
    horizontal flip applied to hazy and clear."""
    _, h, w = pair.clear.shape
    if h < crop or w < crop:
        raise ValueError(f"image {h}x{w} smaller than crop {crop}")
    y0 = int(rng.integers(0, h - crop + 1))
    x0 = int(rng.integers(0, w - crop + 1))
    k = int(rng.integers(0, 4))
    flip = bool(rng.integers(0, 2))

    def xf(img: np.ndarray) -> np.ndarray:
        out = img[:, y0:y0 + crop, x0:x0 + crop]
        out = np.rot90(out, k=k, axes=(1, 2))
        if flip:
            out = out[:, :, ::-1]
        return np.ascontiguousarray(out)

    return xf(pair.hazy), xf(pair.clear)


class Adam:
    """Standard bias-corrected Adam over a named parameter dict.

    The moments and the parameters are updated in place, with the
    elementwise order of the textbook update, so the result is
    bit-identical to it. Its two intermediates are temporaries of each
    parameter's shape, freed before the next parameter's are made, so
    between steps the optimizer holds only its moments.
    """

    B1, B2 = 0.9, 0.999
    EPS = 1e-8

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr: float) -> None:
        """One update from the parameters' ``.grad``.

        Call it after the backward that produced those gradients, as
        ``train_gan`` does: the parameters change in place, so a graph
        recorded before the step and swept after it would read the new
        values.
        """
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.B1, self.B2
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient in {name!r}")
            m, v = self.m[name], self.v[name]
            a, b = np.empty_like(g), np.empty_like(g)
            # m = b1*m + (1-b1)*g
            np.multiply(m, b1, out=m)
            np.add(m, np.multiply(g, 1 - b1, out=a), out=m)
            # v = b2*v + ((1-b2)*g)*g
            np.multiply(v, b2, out=v)
            np.multiply(np.multiply(g, 1 - b2, out=a), g, out=a)
            np.add(v, a, out=v)
            # p = p - lr*mhat / (sqrt(vhat) + eps)
            np.multiply(np.divide(m, 1 - b1 ** t, out=a), lr, out=a)
            np.add(np.sqrt(np.divide(v, 1 - b2 ** t, out=b), out=b),
                   self.EPS, out=b)
            np.subtract(p.data, np.divide(a, b, out=a), out=p.data)
            del a, b

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


@dataclass
class EvalResult:
    step: int
    psnr: float
    ssim: float


@dataclass
class TrainResult:
    log_rows: list[dict]
    evals: list[EvalResult]
    final_psnr: float
    final_ssim: float
    baseline_psnr: float
    baseline_ssim: float
    checkpoint_dir: Path | None


def _mean_scores(outputs, pairs: list[HazePair]) -> tuple[float, float]:
    """Mean PSNR/SSIM of each output image against its pair's clear one."""
    ps, ss = [], []
    for out, pair in zip(outputs, pairs):
        ps.append(psnr(out, pair.clear))
        ss.append(ssim(out[None], pair.clear[None])[0])
    return float(np.mean(ps)), float(np.mean(ss))


def evaluate(gen: Generator, pairs: list[HazePair]) -> tuple[float, float]:
    """Mean PSNR/SSIM of ``gen.dehaze`` of each hazy image against clear."""
    return _mean_scores((gen.dehaze(p.hazy) for p in pairs), pairs)


def baseline_metrics(pairs: list[HazePair]) -> tuple[float, float]:
    """Identity baseline: the hazy input scored against clear."""
    return _mean_scores((p.hazy for p in pairs), pairs)


def train_gan(gen: Generator, disc: Discriminator | None,
              dataset: list[HazePair], cfg: TrainConfig,
              out_dir: str | Path | None = None) -> TrainResult:
    """Train the generator (and the discriminator when the adversarial
    weight ``cfg.weights.gamma`` is above 0) on the leading split of the
    dataset; the trailing ``holdout_fraction`` is held out for evaluation.

    Deterministic under (cfg.seed, model seeds). Aborts on a non-finite
    total loss.
    """
    if len(dataset) < 2:
        raise ValueError(f"dataset of {len(dataset)} pairs: training needs "
                         "at least 2, since one pair must be held out")
    rng = np.random.default_rng(cfg.seed)
    n_hold = max(1, int(len(dataset) * cfg.holdout_fraction))
    train_pairs = dataset[:len(dataset) - n_hold]
    hold_pairs = dataset[len(dataset) - n_hold:]

    weights = cfg.weights
    gen_opt = Adam(gen.parameters())
    disc_opt = None
    if weights.gamma > 0:
        if disc is None:
            raise ValueError("adversarial term enabled but no discriminator")
        disc_opt = Adam(disc.parameters())

    # every crop has the same size, so fit the MS-SSIM pyramid (and warn
    # about a reduction) once rather than on every step
    levels = fit_levels(cfg.crop, cfg.crop) if weights.alpha > 0 else None
    for pair in train_pairs:
        _, h, w = pair.clear.shape
        if h < cfg.crop or w < cfg.crop:
            raise ValueError(f"image {h}x{w} smaller than crop {cfg.crop}")
    pad, _ = gen.padding(cfg.crop, cfg.crop)  # crops are not padded
    if pad:
        raise ValueError(f"crop {cfg.crop} is not a size the generator "
                         f"takes unpadded; the next one is {cfg.crop + pad}")
    for pair in hold_pairs:
        gen.padding(*pair.hazy.shape[1:])

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    log_rows: list[dict] = []
    evals: list[EvalResult] = []
    for step in range(cfg.total_steps):
        lr = lr_at(step, cfg)
        idx = rng.integers(0, len(train_pairs), size=cfg.batch)
        crops = [augment(train_pairs[int(i)], rng, cfg.crop) for i in idx]
        hazy = Tensor(np.stack([hz for hz, _ in crops]))
        clear = Tensor(np.stack([cl for _, cl in crops]))

        pred = gen(hazy)

        if weights.gamma > 0:
            assert disc is not None and disc_opt is not None
            d_real = disc(clear)
            d_fake = disc(pred.detach())
            d_loss = discriminator_loss(d_real, d_fake)
            d_loss.backward()
            disc_opt.step(lr)
            disc_opt.zero_grad()
            # D only passes the gradient on to pred here: recording its
            # parameters would compute weight gradients nothing reads
            for param in disc_opt.params.values():
                param.requires_grad = False
            try:
                d_out = disc(pred)
            finally:
                for param in disc_opt.params.values():
                    param.requires_grad = True
        else:
            d_out = None

        loss, breakdown = total_loss(pred, clear, d_out, weights,
                                     levels=levels)
        if not math.isfinite(breakdown["total"]):
            raise FloatingPointError(f"total loss diverged at step {step}")
        loss.backward()
        gen_opt.step(lr)
        gen_opt.zero_grad()

        row = {"step": step, "lr": lr, **breakdown}
        log_rows.append(row)

        if cfg.eval_every and (step + 1) % cfg.eval_every == 0:
            p, s = evaluate(gen, hold_pairs)
            evals.append(EvalResult(step=step + 1, psnr=p, ssim=s))

    # a last step on the schedule has just been evaluated
    if evals and evals[-1].step == cfg.total_steps:
        final_psnr, final_ssim = evals[-1].psnr, evals[-1].ssim
    else:
        final_psnr, final_ssim = evaluate(gen, hold_pairs)
    base_psnr, base_ssim = baseline_metrics(hold_pairs)
    ckpt_dir = None
    if out_path is not None:
        ckpt_dir = out_path / "final"
        save_checkpoint(ckpt_dir, gen, disc, step=cfg.total_steps)
        with open(out_path / "log.csv", "w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["step", "lr", "l1", "ms_ssim", "perceptual",
                                "adv", "total"])
            writer.writeheader()
            writer.writerows(log_rows)
    return TrainResult(log_rows=log_rows, evals=evals,
                       final_psnr=final_psnr, final_ssim=final_ssim,
                       baseline_psnr=base_psnr, baseline_ssim=base_ssim,
                       checkpoint_dir=ckpt_dir)


def checkpoint_hash(directory) -> str:
    """SHA-256 over the sorted parameter files; used to assert determinism."""
    directory = Path(directory)
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.bin")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# -- ablation harness ---------------------------------------------------------

# (label, dwt branch, ka branch, dwt modules, perceptual, ms-ssim, adv,
#  full-scale reference PSNR/SSIM)
ABLATION_CONFIGS = [
    ("(1) vanilla DWT branch",        True,  False, False, False, False, False, 18.15, 0.7483),
    ("(2) knowledge adaptation branch", False, True, False, False, False, False, 20.15, 0.8156),
    ("(3) Two-branch",                True,  True,  False, False, False, False, 21.35, 0.8273),
    ("(4) Two-branch+DWT",            True,  True,  True,  False, False, False, 21.52, 0.8403),
    ("(5) Two-branch+DWT",            True,  True,  True,  True,  False, False, 21.67, 0.852),
    ("(6) Two-branch+DWT",            True,  True,  True,  True,  True,  False, 21.86, 0.8555),
    ("(7) Two-branch+DWT",            True,  True,  True,  True,  True,  True,  21.99, 0.856),
]


@dataclass
class AblationRow:
    label: str
    losses: dict[str, bool]
    psnr: float
    ssim: float
    ref_psnr: float
    ref_ssim: float
    reference_reproduced: bool = False  # reference values are context only


def ablation_run(base_train_cfg: TrainConfig, model_cfg: ModelConfig,
                 n_pairs: int) -> list[AblationRow]:
    """Run the seven branch/loss configurations at toy scale, on n_pairs
    homogeneous pairs twice the crop a side drawn from seed + 1000, and
    report a reference-style table. No ordering guarantee is made at this
    scale; the full-scale numbers ride along as a fixed reference column."""
    rng = np.random.default_rng(base_train_cfg.seed + 1000)
    base = make_base_images(rng, 8, 2 * base_train_cfg.crop,
                            2 * base_train_cfg.crop)
    dataset = make_dataset(n_pairs, "homogeneous", base, rng)
    rows: list[AblationRow] = []
    for (label, dwt_b, ka_b, dwt_m, use_per, use_ms, use_adv,
         ref_p, ref_s) in ABLATION_CONFIGS:
        mcfg = replace(model_cfg, use_dwt_branch=dwt_b, use_ka_branch=ka_b,
                       use_dwt_modules=dwt_m)
        # a loss the row leaves out gets weight 0
        w = base_train_cfg.weights
        w = LossWeights(alpha=w.alpha if use_ms else 0.0,
                        beta=w.beta if use_per else 0.0,
                        gamma=w.gamma if use_adv else 0.0)
        tcfg = replace(base_train_cfg, weights=w)
        gen = Generator(mcfg, seed=tcfg.seed)
        disc = Discriminator(mcfg, seed=tcfg.seed + 1) if w.gamma > 0 else None
        result = train_gan(gen, disc, dataset, tcfg)
        rows.append(AblationRow(
            label=label,
            losses={"l1": True, "perceptual": w.beta > 0,
                    "ms_ssim": w.alpha > 0, "adv": w.gamma > 0},
            psnr=result.final_psnr, ssim=result.final_ssim,
            ref_psnr=ref_p, ref_ssim=ref_s))
    return rows
