"""Two-branch dehazing generator and patch discriminator.

The generator has a wavelet U-Net branch (down blocks concatenate the
low-frequency DWT band with a strided convolution; up blocks reassemble
through the inverse transform with the high-frequency bands fed back by
skip connection) and a knowledge-adaptation branch (frozen feature-pyramid
encoder, pixel-shuffle decoder with channel and pixel attention). A 7x7
fusion convolution maps the concatenated branch features to the output
image, squashed to [0, 1] by a sigmoid.

Widths, depths and the branches are configurable; the rest is fixed:
every conv has a bias and is padded by (k - 1) // 2, the attention
bottlenecks divide the width by 8, and the frozen encoder is drawn from
seed 0. Initialization is uniform Kaiming-style fan-in scaling, fully
determined by the seed. Generator activations are ReLU, discriminator
activations leaky ReLU with slope 0.2; no normalization layers are used.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .encoders import ToyEncoder, _kaiming, _unset
from .tensor import (Channels, ShapeError, Tensor, conv2d, leaky_relu,
                     no_grad, pixel_shuffle, relu, save_tensor, sigmoid,
                     spatial_mean, load_tensor)
from .wavelet import Subbands, dwt2, idwt2


@dataclass
class ModelConfig:
    base_channels: int = 16
    depth: int = 3
    use_dwt_modules: bool = True
    use_dwt_branch: bool = True
    use_ka_branch: bool = True
    encoder_channels: tuple[int, ...] = (16, 32, 64, 64)

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.base_channels < 4:
            raise ValueError("base_channels must be >= 4")
        if not (self.use_dwt_branch or self.use_ka_branch):
            raise ValueError("at least one branch must be enabled")
        if min(self.encoder_channels, default=1) < 1:
            raise ValueError("encoder_channels must all be >= 1")


class Module:
    """Minimal parameter container; parameters are discovered by walking
    attributes (tensors, child modules, lists of modules) in creation order,
    so naming and ordering are deterministic for a fixed config."""

    def named_parameters(self, prefix: str = ""):
        for name, value in self.__dict__.items():
            full = f"{prefix}.{name}" if prefix else name
            if isinstance(value, Tensor):
                if value.requires_grad:
                    yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(full)
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}")

    def parameters(self) -> dict[str, Tensor]:
        return dict(self.named_parameters())


# the attention bottlenecks' width divisor
REDUCTION = 8


class Conv(Module):
    """A k x k conv with a bias, padded by (k - 1) // 2 on each side."""

    def __init__(self, rng, cin: int, cout: int, k: int = 3, stride: int = 1):
        self.stride = stride
        self.padding = (k - 1) // 2
        self.weight = Tensor(_kaiming(rng, cout, cin, k, k), requires_grad=True)
        self.bias = Tensor(
            _unset(1, cout, 1, 1) if rng is None else np.zeros((1, cout, 1, 1)),
            requires_grad=True)

    def __call__(self, *xs: Tensor) -> Tensor:
        """The conv of the join of ``xs`` along the channels."""
        x = xs[0] if len(xs) == 1 else Channels(xs)
        return conv2d(x, self.weight, stride=self.stride,
                      padding=self.padding) + self.bias


class ChannelAttention(Module):
    """Global average pool -> bottleneck 1x1 convs -> sigmoid gate in (0,1)
    applied per channel."""

    def __init__(self, rng, channels: int):
        mid = max(1, channels // REDUCTION)
        self.squeeze = Conv(rng, channels, mid, k=1)
        self.excite = Conv(rng, mid, channels, k=1)

    def __call__(self, x: Tensor) -> Tensor:
        gate = sigmoid(self.excite(relu(self.squeeze(spatial_mean(x)))))
        return x * gate


class PixelAttention(Module):
    """1x1 convs -> one sigmoid gate per pixel, applied across channels."""

    def __init__(self, rng, channels: int):
        mid = max(1, channels // REDUCTION)
        self.squeeze = Conv(rng, channels, mid, k=1)
        self.excite = Conv(rng, mid, 1, k=1)

    def __call__(self, x: Tensor) -> Tensor:
        gate = sigmoid(self.excite(relu(self.squeeze(x))))
        return x * gate


class DwtDown(Module):
    """Half-resolution block: a mixing conv over (strided conv, LL band)
    joined on channels; also emits (LH, HL, HH) for the up block."""

    def __init__(self, rng, cin: int, cout: int):
        self.down = Conv(rng, cin, cout, k=3, stride=2)
        self.mix = Conv(rng, cout + cin, cout, k=3)

    def __call__(self, x: Tensor) -> tuple[Tensor, tuple[Tensor, Tensor, Tensor]]:
        s = dwt2(x)
        y = relu(self.mix(self.down(x), s.ll))
        return y, (s.lh, s.hl, s.hh)


class PlainDown(Module):
    def __init__(self, rng, cin: int, cout: int):
        self.down = Conv(rng, cin, cout, k=3, stride=2)
        self.mix = Conv(rng, cout, cout, k=3)

    def __call__(self, x: Tensor) -> tuple[Tensor, None]:
        return relu(self.mix(self.down(x))), None


class DwtUp(Module):
    """Double-resolution block: inverse transform over (projected input as
    LL, skip-fed high-frequency bands) alongside a learned pixel-shuffle
    path, then a mixing conv. A block runs as ``merge(*split(x, hf))``:
    ``split`` gives the mixing conv's two inputs and ``merge`` runs it, so
    that a caller can drop the block's input before the full-resolution
    conv runs."""

    def __init__(self, rng, cin: int, cout: int, c_hf: int):
        self.proj = Conv(rng, cin, c_hf, k=1)
        self.up = Conv(rng, cin, cout * 4, k=3)
        self.mix = Conv(rng, c_hf + cout, cout, k=3)

    def split(self, x: Tensor, hf: tuple[Tensor, Tensor, Tensor]
              ) -> tuple[Tensor, Tensor]:
        # Subbands raises ShapeError unless each hf band has proj(x)'s shape
        freq = idwt2(Subbands(self.proj(x), *hf))
        del hf  # the bands go before up(x) runs
        return freq, pixel_shuffle(self.up(x), 2)

    def merge(self, freq: Tensor, learned: Tensor) -> Tensor:
        return relu(self.mix(freq, learned))


class PlainUp(Module):
    def __init__(self, rng, cin: int, cout: int):
        self.up = Conv(rng, cin, cout * 4, k=3)
        self.mix = Conv(rng, cout, cout, k=3)

    def split(self, x: Tensor, hf=None) -> tuple[Tensor]:
        return (pixel_shuffle(self.up(x), 2),)

    def merge(self, learned: Tensor) -> Tensor:
        return relu(self.mix(learned))


class DwtBranch(Module):
    """U-Net over the wavelet blocks with per-scale skip connections.

    The forward drops each map after its last use: the deepest down
    output, which is no skip, once the middle convs have read it; each hf
    band once its up stage's inverse transform has run, and each skip
    after its skip conv (both lists are popped, finest last); and each up
    stage's input before the stage's mixing conv runs, as the loop rebinds
    it to the block's ``split``. Under a recorded graph the closures keep
    what their backward reads anyway."""

    def __init__(self, rng, cfg: ModelConfig):
        bc, d = cfg.base_channels, cfg.depth
        self.stem = Conv(rng, 3, bc, k=3)
        self.downs: list[Module] = []
        self.ups: list[Module] = []
        self.skips: list[Module] = []
        for i in range(d):
            cin, cout = bc << i, bc << (i + 1)
            if cfg.use_dwt_modules:
                self.downs.append(DwtDown(rng, cin, cout))
            else:
                self.downs.append(PlainDown(rng, cin, cout))
        cd = bc << d
        self.mid1 = Conv(rng, cd, cd, k=3)
        self.mid2 = Conv(rng, cd, cd, k=3)
        for i in reversed(range(d)):
            cin, cout = bc << (i + 1), bc << i
            if cfg.use_dwt_modules:
                self.ups.append(DwtUp(rng, cin, cout, c_hf=cout))
            else:
                self.ups.append(PlainUp(rng, cin, cout))
            self.skips.append(Conv(rng, 2 * cout, cout, k=3))

    def __call__(self, x: Tensor) -> Tensor:
        skips = [relu(self.stem(x))]
        hfs = []
        for down in self.downs:
            cur, hf = down(skips[-1])
            skips.append(cur)
            hfs.append(hf)
        # the deepest map feeds the middle convs, not a skip conv
        skips.pop()
        cur = relu(self.mid2(relu(self.mid1(cur))))
        for up, skip in zip(self.ups, self.skips):
            cur = up.split(cur, hfs.pop())
            cur = up.merge(*cur)
            cur = relu(skip(cur, skips.pop()))
        return cur


class KaBranch(Module):
    """Pyramid-encoder branch: per-stage pixel-shuffle upsampling with
    channel and pixel attention and encoder skip connections."""

    def __init__(self, rng, cfg: ModelConfig):
        self.encoder = ToyEncoder(channels=cfg.encoder_channels,
                                  draw=rng is not None)
        ch = list(self.encoder.channels)
        if len(ch) < 3:
            raise ValueError("knowledge-adaptation encoder needs >= 3 stages")
        bc = cfg.base_channels
        self.ups: list[Module] = []
        self.cattn: list[Module] = []
        self.pattn: list[Module] = []
        self.fuse: list[Module] = []
        for k in reversed(range(1, len(ch))):
            cout = ch[k - 1]
            self.ups.append(Conv(rng, ch[k], cout * 4, k=3))
            self.cattn.append(ChannelAttention(rng, cout))
            self.pattn.append(PixelAttention(rng, cout))
            self.fuse.append(Conv(rng, 2 * cout, cout, k=3))
        self.final_up = Conv(rng, ch[0], bc * 4, k=3)
        self.final_cattn = ChannelAttention(rng, bc)
        self.final_pattn = PixelAttention(rng, bc)
        self.final_conv = Conv(rng, bc, bc, k=3)

    def __call__(self, x: Tensor) -> Tensor:
        # popped, finest last, so each stage goes after its last use
        stages = self.encoder.stages(x)
        cur = stages.pop()
        for up, ca, pa, fuse in zip(self.ups, self.cattn, self.pattn,
                                    self.fuse):
            cur = pixel_shuffle(up(cur), 2)
            cur = pa(ca(cur))
            cur = relu(fuse(cur, stages.pop()))
        cur = pixel_shuffle(self.final_up(cur), 2)
        cur = self.final_pattn(self.final_cattn(cur))
        return relu(self.final_conv(cur))


class Generator(Module):
    """The dehazing generator. ``draw=False`` neither draws nor allocates
    its conv weights and biases or the encoder's weights (each is a
    read-only zero view), for a caller that overwrites every parameter and
    then draws the frozen encoder (the checkpoint loader)."""

    def __init__(self, cfg: ModelConfig, seed: int = 0, *, draw: bool = True):
        self.cfg = cfg
        self.seed = seed
        rng = np.random.default_rng(seed) if draw else None
        if cfg.use_dwt_branch:
            self.dwt_branch = DwtBranch(rng, cfg)
        if cfg.use_ka_branch:
            self.ka_branch = KaBranch(rng, cfg)
        n_branches = cfg.use_dwt_branch + cfg.use_ka_branch
        self.fusion = Conv(rng, cfg.base_channels * n_branches, 3, k=7)

    @property
    def size_multiple(self) -> int:
        """What H and W must be multiples of: 2^depth for the wavelet
        branch, 2^(encoder stages) for the knowledge-adaptation branch."""
        cfg = self.cfg
        return 1 << max(cfg.depth if cfg.use_dwt_branch else 0,
                        len(cfg.encoder_channels) if cfg.use_ka_branch else 0)

    def __call__(self, x: Tensor) -> Tensor:
        _, _, h, w = x.shape
        m = self.size_multiple
        if h % m or w % m:
            raise ShapeError(f"{h}x{w} not divisible by {m}")
        feats = []
        if self.cfg.use_dwt_branch:
            feats.append(self.dwt_branch(x))
        if self.cfg.use_ka_branch:
            feats.append(self.ka_branch(x))
        return sigmoid(self.fusion(*feats))

    def padding(self, h: int, w: int) -> tuple[int, int]:
        """The rows and columns that pad an h x w image at the bottom and
        right to multiples of ``size_multiple`` m. They are made by one
        reflection, so a side needs at least m/2 + 1 px (9 px by default); a
        shorter side is a ValueError."""
        m = self.size_multiple
        ph, pw = -h % m, -w % m
        if ph >= h or pw >= w:
            raise ValueError(f"{h}x{w} image too small: dehaze pads each side "
                             f"to a multiple of {m} by reflection, which needs "
                             f"at least {m // 2 + 1} px")
        return ph, pw

    def dehaze(self, img: np.ndarray) -> np.ndarray:
        """The output for one (3, H, W) image of a size ``padding`` takes:
        reflect-padded only when needed, run whole under ``no_grad`` (tiles
        would differ in channel attention's global mean), cropped back."""
        _, h, w = img.shape
        ph, pw = self.padding(h, w)
        if ph or pw:
            img = np.pad(img, ((0, 0), (0, ph), (0, pw)), mode="reflect")
        with no_grad():
            return self(Tensor(img[None])).data[0, :, :h, :w]


class Discriminator(Module):
    """Patch discriminator: four stride-2 conv stages (leaky ReLU 0.2)
    followed by a 1x1 conv and sigmoid, giving one probability per
    H/16 x W/16 patch. Receptive field is 46 px at these kernel sizes.
    ``draw=False`` neither draws nor allocates the weights, as for the
    generator."""

    def __init__(self, cfg: ModelConfig, seed: int = 1, *, draw: bool = True):
        self.cfg = cfg
        self.seed = seed
        rng = np.random.default_rng(seed) if draw else None
        bc = cfg.base_channels
        chans = [3, bc, 2 * bc, 4 * bc, 4 * bc]
        self.convs = [Conv(rng, chans[i], chans[i + 1], k=4, stride=2)
                      for i in range(4)]
        self.head = Conv(rng, 4 * bc, 1, k=1)

    def __call__(self, x: Tensor) -> Tensor:
        cur = x
        for conv in self.convs:
            cur = leaky_relu(conv(cur), 0.2)
        return sigmoid(self.head(cur))


# -- checkpointing -----------------------------------------------------------

def save_checkpoint(directory, generator: Generator,
                    discriminator: Discriminator | None = None,
                    step: int = 0) -> None:
    """Checkpoint layout: manifest.json plus one binary tensor per
    parameter under params/ (and disc_params/ for the discriminator)."""
    directory = Path(directory)
    (directory / "params").mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": asdict(generator.cfg),
        "seed": generator.seed,
        "step": step,
    }
    for name, p in generator.named_parameters():
        save_tensor(directory / "params" / f"{name}.bin", p)
    if discriminator is not None:
        (directory / "disc_params").mkdir(exist_ok=True)
        manifest["disc_seed"] = discriminator.seed
        for name, p in discriminator.named_parameters():
            save_tensor(directory / "disc_params" / f"{name}.bin", p)
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


def _load_params(module: Module, directory: Path) -> None:
    for name, p in module.named_parameters():
        path = directory / f"{name}.bin"
        if not path.is_file():
            raise ValueError(f"{path}: missing; the manifest's config needs it")
        p.data = load_tensor(path, shape=p.shape).data


def _fits(default, value) -> bool:
    """Whether a JSON value has the type of a ModelConfig default: exactly
    int for an int (a bool is not one), bool for a bool, and a list of ints
    for a tuple."""
    if isinstance(default, tuple):
        return type(value) is list and all(type(v) is int for v in value)
    return type(value) is type(default)


def load_generator(directory) -> tuple[Generator, dict]:
    """The generator of a checkpoint directory and its manifest; the
    discriminator's files are not read."""
    directory = Path(directory)
    path = directory / "manifest.json"
    with open(path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: not a JSON object")
    for key in ("config", "seed"):
        if key not in manifest:
            raise ValueError(f"{path}: missing key {key!r}")
    if not isinstance(manifest["config"], dict):
        raise ValueError(f"{path}: key 'config' is not a table")
    cfg_dict = dict(manifest["config"])
    names = [f.name for f in fields(ModelConfig)]
    for key in cfg_dict:
        if key not in names:
            raise ValueError(f"{path}: unknown config key {key!r}")
    for f in fields(ModelConfig):
        if f.name not in cfg_dict:
            raise ValueError(f"{path}: missing config key {f.name!r}")
        if not _fits(f.default, cfg_dict[f.name]):
            raise ValueError(f"{path}: config key {f.name!r} has a bad value "
                             f"{cfg_dict[f.name]!r}")
    for key in ("seed", "disc_seed"):
        if key in manifest and type(manifest[key]) is not int:
            raise ValueError(f"{path}: key {key!r} has a bad value "
                             f"{manifest[key]!r}")
    cfg_dict["encoder_channels"] = tuple(cfg_dict["encoder_channels"])
    cfg = ModelConfig(**cfg_dict)
    gen = Generator(cfg, seed=manifest["seed"], draw=False)
    _load_params(gen, directory / "params")
    if cfg.use_ka_branch:
        # drawn only now: the KA branch's headers, which imply the encoder's
        # widths, have matched, so absurd widths fail before any is drawn
        gen.ka_branch.encoder = ToyEncoder(cfg.encoder_channels)
    return gen, manifest


def load_checkpoint(directory) -> tuple[Generator, Discriminator | None, dict]:
    """The generator, the discriminator (None when the directory has no
    ``disc_params/``) and the manifest of a checkpoint directory."""
    directory = Path(directory)
    gen, manifest = load_generator(directory)
    disc = None
    if (directory / "disc_params").exists():
        disc = Discriminator(gen.cfg, seed=manifest.get("disc_seed", 1),
                             draw=False)
        _load_params(disc, directory / "disc_params")
    return gen, disc, manifest
