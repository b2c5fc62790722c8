"""Desk-scale wavelet dehazing GAN: tensor engine, Haar DWT layers,
haze synthesis, quality metrics, losses, two-branch model, training and CLI."""

from .tensor import Tensor, ShapeError, grad_check, load_tensor, save_tensor
from .wavelet import Subbands, dwt2, idwt2
from .hazesim import (HazePair, HazeParams, apply_haze, invert_haze,
                      make_base_images, make_dataset, transmission)
from .metrics import gray_stats, ms_ssim, psnr, ssim
from .losses import LossWeights, smooth_l1, total_loss
from .model import (Discriminator, Generator, ModelConfig, load_checkpoint,
                    load_generator, save_checkpoint)
from .train import Adam, TrainConfig, ablation_run, augment, lr_at, train_gan

__all__ = [
    "Tensor", "ShapeError", "grad_check", "load_tensor", "save_tensor",
    "Subbands", "dwt2", "idwt2",
    "HazePair", "HazeParams", "apply_haze", "invert_haze",
    "make_base_images", "make_dataset", "transmission",
    "gray_stats", "ms_ssim", "psnr", "ssim",
    "LossWeights", "smooth_l1", "total_loss",
    "Discriminator", "Generator", "ModelConfig", "load_checkpoint",
    "load_generator", "save_checkpoint",
    "Adam", "TrainConfig", "ablation_run", "augment", "lr_at", "train_gan",
]
