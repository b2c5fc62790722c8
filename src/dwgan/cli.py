"""Unified command-line surface.

Subcommands: synthesize, dwt, metrics, gamma, train, ablate, dehaze.
Every subcommand taking --seed is bit-deterministic across runs; the
environment variable DWGAN_SEED is used when --seed is omitted. File
formats are documented in docs/formats.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import datatool, hazesim
from .metrics import fit_levels, psnr, ssim_and_ms_ssim
from .model import Discriminator, Generator, ModelConfig, load_generator
from .tensor import ShapeError, Tensor, load_tensor, save_tensor
from .train import TrainConfig, ablation_run, train_gan
from .wavelet import Subbands, dwt2, idwt2


def _default_seed(value) -> int:
    if value is not None:
        return int(value)
    return int(os.environ.get("DWGAN_SEED", "0"))


# -- synthesize ---------------------------------------------------------------

def cmd_synthesize(args) -> int:
    seed = _default_seed(args.seed)
    rng = np.random.default_rng(seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base = hazesim.make_base_images(rng, max(4, args.n), args.size, args.size)
    pairs = hazesim.make_dataset(args.n, args.mode, base, rng)
    with open(out / "pairs.jsonl", "w") as fh:
        for i, pair in enumerate(pairs):
            datatool.write_image(out / f"clear_{i:04d}.ppm", pair.clear)
            datatool.write_image(out / f"hazy_{i:04d}.ppm", pair.hazy)
            fh.write(json.dumps({
                "seed": seed, "index": i, "mode": args.mode,
                "beta": pair.params.beta,
                "A": pair.params.a.tolist(),
            }) + "\n")
    print(f"wrote {args.n} pairs to {out}")
    return 0


# -- dwt ----------------------------------------------------------------------

_BANDS = ("ll", "lh", "hl", "hh")


def cmd_dwt(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.inverse:
        bands = {b: load_tensor(Path(args.input) / f"{b}.bin") for b in _BANDS}
        img = idwt2(Subbands(**bands)).data[0]
        datatool.write_image(out / "reconstructed.ppm", np.clip(img, 0, 1))
        print(f"wrote {out / 'reconstructed.ppm'}")
        return 0
    img = datatool.read_image(args.input)
    sub = dwt2(Tensor(img[None]))
    sidecar = {}
    for band in _BANDS:
        t = getattr(sub, band)
        save_tensor(out / f"{band}.bin", t)
        lo, hi = float(t.data.min()), float(t.data.max())
        scale = hi - lo if hi > lo else 1.0
        datatool.write_image(out / f"{band}.ppm", (t.data[0] - lo) / scale)
        sidecar[band] = {"offset": lo, "scale": scale}
    with open(out / "scaling.json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
    print(f"wrote subbands to {out}")
    return 0


# -- metrics ------------------------------------------------------------------

_METRIC_FIELDS = ["filename", "psnr_db", "ssim", "ms_ssim"]


def _fitted(pred: np.ndarray, tgt: np.ndarray, ms_levels: dict) -> int:
    """The MS-SSIM level count of a pair's size, from ``ms_levels``, which
    maps an image size to ``fit_levels`` of it, so a command fits (and
    warns about a level reduction) once per size rather than once per pair.
    Raises ShapeError when the two sizes differ or a side is shorter than
    the SSIM window."""
    if pred.shape != tgt.shape:
        raise ShapeError(f"image {pred.shape[1]}x{pred.shape[2]} and its "
                         f"target {tgt.shape[1]}x{tgt.shape[2]} differ in "
                         "size")
    size = pred.shape[1:]
    if size not in ms_levels:
        ms_levels[size] = fit_levels(*size)
    return ms_levels[size]


def _metrics_row(filename: str, pred: np.ndarray, tgt: np.ndarray,
                 ms_levels: dict) -> dict:
    """One metrics.csv row, scored with ``_fitted``'s level count. SSIM and
    MS-SSIM share their level-0 maps (``ssim_and_ms_ssim``)."""
    levels = _fitted(pred, tgt, ms_levels)
    psnr_db = psnr(pred, tgt)
    s, ms = ssim_and_ms_ssim(pred[None], tgt[None], levels)
    return {"filename": filename, "psnr_db": f"{psnr_db:.6f}",
            "ssim": f"{s:.6f}", "ms_ssim": f"{ms:.6f}"}


def cmd_metrics(args) -> int:
    if len(args.images) % 2:
        raise ValueError("metrics expects PRED TARGET file pairs")
    rows, ms_levels = [], {}
    for i in range(0, len(args.images), 2):
        pred_path, tgt_path = args.images[i], args.images[i + 1]
        rows.append(_metrics_row(Path(pred_path).name,
                                 datatool.read_image(pred_path),
                                 datatool.read_image(tgt_path), ms_levels))
    _write_csv(args.out, _METRIC_FIELDS, rows)
    return 0


def _write_csv(out, fieldnames, rows) -> None:
    fh = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if out:
            fh.close()


# -- gamma --------------------------------------------------------------------

def cmd_gamma(args) -> int:
    images = [datatool.read_image(p) for p in args.images]
    if args.target_mean is not None:
        match = datatool.match_brightness(images, args.target_mean)
        print(f"gamma={match.gamma:.6f} achieved_mean={match.achieved_mean:.3f} "
              f"iterations={match.iterations}")
        gamma = match.gamma
    else:
        gamma = args.gamma
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for path, img in zip(args.images, images):
            datatool.write_image(out / Path(path).name,
                                 datatool.gamma_correct(img, gamma))
        print(f"wrote {len(images)} corrected images to {out}")
    return 0


# -- train / ablate -----------------------------------------------------------

# config-file key -> (command-line dest, default); the one list both of the
# keys a file may set and of what applies when neither file nor flag does
_CONFIG_KEYS = {
    "base_channels": ("base_channels", 16), "depth": ("depth", 2),
    "crop": ("crop", 32), "batch": ("batch", 4), "steps": ("steps", 200),
    "lr0": ("lr", 1e-4),
}


def _build_configs(args) -> tuple[ModelConfig, TrainConfig]:
    values = {}
    lines = Path(args.config).read_text().splitlines() if args.config else []
    for n, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{args.config}:{n}: unknown config key {key!r} "
                             f"(known: {', '.join(_CONFIG_KEYS)})")
        cast = type(_CONFIG_KEYS[key][1])
        try:
            values[key] = cast(value)
        except ValueError:
            raise ValueError(f"{args.config}:{n}: {key} = {value!r} is not "
                             f"{cast.__name__}") from None
    for key, (dest, default) in _CONFIG_KEYS.items():
        flag = getattr(args, dest)
        values[key] = flag if flag is not None else values.get(key, default)
    mcfg = ModelConfig(base_channels=values["base_channels"],
                       depth=values["depth"])
    tcfg = TrainConfig(crop=values["crop"], batch=values["batch"],
                       total_steps=values["steps"], lr0=values["lr0"],
                       seed=_default_seed(args.seed))
    return mcfg, tcfg


def cmd_train(args) -> int:
    mcfg, tcfg = _build_configs(args)
    if args.no_adv:
        tcfg = replace(tcfg, weights=replace(tcfg.weights, gamma=0.0))
    rng = np.random.default_rng(tcfg.seed)
    base = hazesim.make_base_images(rng, 8, args.image_size, args.image_size)
    dataset = hazesim.make_dataset(args.n_pairs, args.mode, base, rng)
    gen = Generator(mcfg, seed=tcfg.seed)
    disc = (Discriminator(mcfg, seed=tcfg.seed + 1)
            if tcfg.weights.gamma > 0 else None)
    result = train_gan(gen, disc, dataset, tcfg, out_dir=args.out)
    print(f"held-out PSNR {result.final_psnr:.2f} dB "
          f"(baseline {result.baseline_psnr:.2f}), "
          f"SSIM {result.final_ssim:.4f} (baseline {result.baseline_ssim:.4f})")
    print(f"checkpoint: {result.checkpoint_dir}")
    return 0


def cmd_ablate(args) -> int:
    mcfg, tcfg = _build_configs(args)
    rows = [{"config": r.label,
             "psnr": f"{r.psnr:.2f}", "ssim": f"{r.ssim:.4f}",
             "ref_psnr": f"{r.ref_psnr:.2f}", "ref_ssim": f"{r.ref_ssim:.4f}",
             "reference_reproduced": "no"}
            for r in ablation_run(tcfg, mcfg, n_pairs=args.n_pairs)]
    # the header is the rows' keys (there are always seven rows)
    _write_csv(args.out, list(rows[0]), rows)
    return 0


# -- dehaze -------------------------------------------------------------------

def cmd_dehaze(args) -> int:
    gen, _ = load_generator(args.checkpoint)
    targets = args.target or []
    if targets and len(targets) != len(args.images):
        raise ValueError("number of --target files must match inputs")
    # every input and pair is read and checked before any image is
    # dehazed, so one that cannot be dehazed or scored writes nothing,
    # not even the output directory
    images = [datatool.read_image(path) for path in args.images]
    tgts = [datatool.read_image(path) for path in targets]
    rows, ms_levels = [], {}
    for img in images:
        gen.padding(*img.shape[1:])
    for img, tgt in zip(images, tgts):
        _fitted(img, tgt, ms_levels)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, path in enumerate(args.images):
        dehazed = gen.dehaze(images[i])
        datatool.write_image(out / Path(path).name, dehazed)
        if tgts:
            rows.append(_metrics_row(Path(path).name, dehazed, tgts[i],
                                     ms_levels))
    if rows:
        _write_csv(str(out / "metrics.csv"), _METRIC_FIELDS, rows)
    print(f"wrote {len(args.images)} dehazed images to {out}")
    return 0


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dwgan")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="generate hazy/clear pairs")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--mode", choices=[hazesim.HOMOGENEOUS,
                                      hazesim.NONHOMOGENEOUS],
                   default=hazesim.HOMOGENEOUS)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("dwt", help="decompose an image into Haar subbands")
    p.add_argument("input", help="P6 image (or subband dir with --inverse)")
    p.add_argument("--out", required=True)
    p.add_argument("--inverse", action="store_true",
                   help="reassemble from raw subband tensors")
    p.set_defaults(func=cmd_dwt)

    p = sub.add_parser("metrics", help="PSNR/SSIM/MS-SSIM for image pairs")
    p.add_argument("images", nargs="+", metavar="PRED TARGET")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("gamma", help="apply or solve gamma correction")
    p.add_argument("images", nargs="+")
    p.add_argument("--gamma", type=float, default=0.65)
    p.add_argument("--target-mean", type=float, default=None,
                   help="solve for gamma matching this gray mean")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gamma)

    for name, fn in (("train", cmd_train), ("ablate", cmd_ablate)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="flat key=value config file")
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--crop", type=int, default=None)
        p.add_argument("--batch", type=int, default=None)
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--base-channels", type=int, default=None)
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--n-pairs", type=int, default=16)
        if name == "train":
            p.add_argument("--image-size", type=int, default=64)
            p.add_argument("--mode", default=hazesim.HOMOGENEOUS)
            p.add_argument("--no-adv", action="store_true")
            p.add_argument("--out", required=True)
        else:
            p.add_argument("--out", default=None)
        p.set_defaults(func=fn)

    p = sub.add_parser("dehaze", help="run a checkpoint on images")
    p.add_argument("images", nargs="+")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--target", nargs="*", default=None,
                   help="ground-truth images for a metrics report")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dehaze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
