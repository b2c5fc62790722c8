"""The three benchmark workloads. Each loads a different layer of dwgan.

- ``train_gate``: ``train_gan`` at the trainability-gate config. The only
  workload with backward passes and Adam; conv2d forward and backward,
  the graph walk and the losses dominate. One op is one train step.
- ``dehaze_96``: the user's per-image inference path, one in-process
  ``dwgan.cli.main(["dehaze", ...])`` per op on a 96x96 non-homogeneous
  image with a seeded base-16/depth-2 checkpoint. Forward only, large
  spatial extent, graph recorded though nothing calls backward.
- ``synth_score_256``: synthesize one non-homogeneous 256x256 pair, write
  and read it back as P6, ``dwt2``->``idwt2`` round trip, then PSNR, SSIM
  and MS-SSIM. conv2d runs single-channel 11-tap windows with no graph,
  so this is the workload that bypasses the model and backward.

Inputs come from the seed alone; the package only receives them. Every
op checks its outputs (a failing check counts the op as failed), and a
reference case with a fixed seed is compared against the values kept in
``reference/`` after the timed ops.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
import traceback
from pathlib import Path

import numpy as np

import dwgan.cli as cli
import dwgan.losses as losses
import dwgan.train as train
from dwgan import datatool, hazesim, metrics, wavelet
from dwgan.model import (Discriminator, Generator, ModelConfig,
                         save_checkpoint)
from dwgan.tensor import Tensor

REF_SEED = 0
HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# The loss identity every train step must satisfy, with the weights the
# paper uses (total = l1 + 0.2 ms_ssim + 0.001 perceptual + 0.005 adv).
LOSS_WEIGHTS = {"l1": 1.0, "ms_ssim": 0.2, "perceptual": 0.001, "adv": 0.005}
REL_TOL = 1e-9


class Stop(Exception):
    """Raised from an op-boundary hook to end a loop the package runs."""


def _record_failure(clock, op: int, exc: BaseException) -> None:
    traceback.print_exception(exc, file=sys.stderr)
    clock.fail(op, f"{type(exc).__name__}: {exc}")


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(1.0, abs(b))


def read_p6(path) -> tuple[int, int, bytes]:
    """Width, height and payload of a binary P6 file with maxval 255;
    written here so the check does not rely on the codec it checks."""
    buf = Path(path).read_bytes()
    tokens, pos = [], 0
    while len(tokens) < 4:
        while buf[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while not buf[pos:pos + 1].isspace():
            pos += 1
        tokens.append(buf[start:pos])
    if tokens[0] != b"P6" or tokens[3] != b"255":
        raise ValueError(f"not a P6/255 file: {tokens}")
    w, h = int(tokens[1]), int(tokens[2])
    payload = buf[pos + 1:]
    if len(payload) != w * h * 3:
        raise ValueError(f"payload {len(payload)} bytes, want {w * h * 3}")
    return w, h, payload


class TrainGate:
    """crop 32, batch 4, base 16, depth 2, full loss, homogeneous haze,
    no periodic eval, lr 1e-3: the tier-1 trainability gate's config.

    The run stops on time, not on a step count, so ``total_steps`` is set
    beyond reach; the learning rate stays at lr0, as in the gate's first
    300 steps. Per-step times are taken outside ``train_gan``, at its
    once-per-step call to ``dwgan.train.lr_at``.
    """

    name = "train_gate"
    size = "crop 32, batch 4, base 16, depth 2"
    ref_ops = 3
    # (step, callback): called once that many steps are done, between ops
    after_step: tuple[int, object] | None = None

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        base = hazesim.make_base_images(rng, 8, 64, 64)
        self.data = hazesim.make_dataset(64, hazesim.HOMOGENEOUS, base, rng)
        mcfg = ModelConfig(base_channels=16, depth=2)
        self.gen = Generator(mcfg, seed=seed)
        self.disc = Discriminator(mcfg, seed=seed + 1)
        self.cfg = train.TrainConfig(crop=32, batch=4, total_steps=10 ** 9,
                                     eval_every=0, seed=seed, lr0=1e-3)
        self.rows: list[dict] = []

    def _check_step(self, clock, step: int) -> None:
        if len(self.rows) != step + 1:
            clock.fail(step, f"{len(self.rows)} loss rows after step {step}")
            return
        row = self.rows[step]
        expect = sum(w * row[k] for k, w in LOSS_WEIGHTS.items())
        if not all(math.isfinite(v) for v in row.values()):
            clock.fail(step, f"non-finite loss terms {row}")
        elif abs(row["total"] - expect) > 1e-12 * max(1.0, abs(expect)):
            clock.fail(step, f"total {row['total']!r} != weighted sum "
                             f"{expect!r}")

    def run(self, clock) -> None:
        orig_lr_at, orig_total_loss = train.lr_at, train.total_loss

        def lr_hook(step, cfg):
            if clock.running:
                self._check_step(clock, clock.end())
                if self.after_step and clock.ops == self.after_step[0]:
                    self.after_step[1]()
            if not clock.start():
                raise Stop
            return orig_lr_at(step, cfg)

        def loss_hook(*args, **kwargs):
            # looked up at call time, so a tracer's wrapper is used
            loss, breakdown = losses.total_loss(*args, **kwargs)
            self.rows.append(dict(breakdown))
            return loss, breakdown

        train.lr_at, train.total_loss = lr_hook, loss_hook
        try:
            train.train_gan(self.gen, self.disc, self.data, self.cfg)
        except Stop:
            pass
        except Exception as exc:  # a failed step ends the loop
            if clock.running:
                _record_failure(clock, clock.end(), exc)
            else:
                raise
        finally:
            train.lr_at, train.total_loss = orig_lr_at, orig_total_loss

    def holdout_gain(self) -> float:
        """Held-out PSNR gain over the hazy input, evaluated the way
        ``train_gan`` does after its last step."""
        n_hold = max(1, int(len(self.data) * self.cfg.holdout_fraction))
        hold = self.data[-n_hold:]
        final_psnr, _ = train.evaluate(self.gen, hold)
        base_psnr, _ = train.baseline_metrics(hold)
        return final_psnr - base_psnr

    def fingerprint(self) -> dict:
        return {"totals": [row["total"] for row in self.rows[:self.ref_ops]]}

    @staticmethod
    def compare(got: dict, ref: dict) -> list[str]:
        if len(got["totals"]) != len(ref["totals"]):
            return [f"{len(got['totals'])} reference steps, want "
                    f"{len(ref['totals'])}"]
        return [f"step {i} total {g!r} != reference {r!r}"
                for i, (g, r) in enumerate(zip(got["totals"], ref["totals"]))
                if not _close(g, r)]


class Dehaze:
    """One CLI dehaze per op: load the checkpoint, dehaze one P6 image,
    write it and a metrics.csv against its target."""

    name = "dehaze_96"
    px = 96
    n_images = 4
    size = f"{px}x{px} px, base 16, depth 2"
    ref_ops = 1

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        base = hazesim.make_base_images(rng, self.n_images, self.px, self.px)
        pairs = hazesim.make_dataset(self.n_images, hazesim.NONHOMOGENEOUS,
                                     base, rng)
        self.inputs = []
        for k, pair in enumerate(pairs):
            hazy, clear = workdir / f"hazy_{k}.ppm", workdir / f"clear_{k}.ppm"
            datatool.write_image(hazy, pair.hazy)
            datatool.write_image(clear, pair.clear)
            self.inputs.append((str(hazy), str(clear)))
        self.ckpt = workdir / "ckpt"
        save_checkpoint(self.ckpt, Generator(
            ModelConfig(base_channels=16, depth=2), seed=seed))
        self.out = workdir / "out"
        self.first: dict[int, bytes] = {}
        self.first_csv: list[float] | None = None

    def _check(self, clock, op: int, k: int, rc: int) -> None:
        if rc != 0:
            clock.fail(op, f"dehaze exited {rc}")
            return
        name = Path(self.inputs[k][0]).name
        w, h, payload = read_p6(self.out / name)
        if (w, h) != (self.px, self.px):
            clock.fail(op, f"output is {w}x{h}, input {self.px}x{self.px}")
        if self.first.setdefault(k, payload) != payload:
            clock.fail(op, f"output for image {k} differs from its first run")
        with open(self.out / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        values = [float(rows[0][c]) for c in ("psnr_db", "ssim", "ms_ssim")]
        if len(rows) != 1 or rows[0]["filename"] != name:
            clock.fail(op, f"metrics.csv rows {rows}")
        elif not all(math.isfinite(v) for v in values):
            clock.fail(op, f"non-finite metrics {values}")
        if self.first_csv is None:
            self.first_csv = values

    def run(self, clock) -> None:
        while clock.start():
            k = clock.ops % self.n_images
            hazy, clear = self.inputs[k]
            try:
                rc = cli.main(["dehaze", hazy, "--checkpoint", str(self.ckpt),
                               "--target", clear, "--out", str(self.out)])
            except Exception as exc:
                _record_failure(clock, clock.end(), exc)
                continue
            op = clock.end()
            try:
                self._check(clock, op, k, rc)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                _record_failure(clock, op, exc)

    def fingerprint(self) -> dict:
        return {"image": self.first.get(0), "metrics": self.first_csv}

    @staticmethod
    def compare(got: dict, ref: dict) -> list[str]:
        if got["image"] is None or got["metrics"] is None:
            return ["reference op produced no output"]
        errors = []
        a = np.frombuffer(got["image"], dtype=np.uint8).astype(int)
        b = np.frombuffer(ref["image"], dtype=np.uint8).astype(int)
        if a.shape != b.shape or np.max(np.abs(a - b)) > 1:
            errors.append("dehazed reference image differs by more than "
                          "one 8-bit step")
        # metrics.csv carries 6 decimals
        errors += [f"metrics.csv {g} != reference {r}"
                   for g, r in zip(got["metrics"], ref["metrics"])
                   if abs(g - r) > 2e-6]
        return errors


class SynthScore:
    """Per op: synthesize, P6 round trip, Haar round trip, score."""

    name = "synth_score_256"
    px = 256
    size = f"{px}x{px} px pair"
    ref_ops = 1

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.dir = workdir
        self.scores: list[tuple[float, float, float]] = []

    def _op(self, clock, op: int) -> None:
        # inputs depend on (seed, op) only, so any op can be replayed
        rng = np.random.default_rng([self.seed, op])
        base = hazesim.make_base_images(rng, 4, self.px, self.px)
        pair = hazesim.make_dataset(1, hazesim.NONHOMOGENEOUS, base, rng)[0]
        hazy_path, clear_path = self.dir / "hazy.ppm", self.dir / "clear.ppm"
        datatool.write_image(hazy_path, pair.hazy)
        datatool.write_image(clear_path, pair.clear)
        hazy = datatool.read_image(hazy_path)
        clear = datatool.read_image(clear_path)
        x = Tensor(hazy[None])
        back = wavelet.idwt2(wavelet.dwt2(x))
        psnr = metrics.psnr(hazy, clear)
        ssim = metrics.ssim(hazy[None], clear[None])[0]
        ms_ssim = metrics.ms_ssim(hazy[None], clear[None])
        op_end = clock.end()
        # checks, outside the op's time
        half_step = 0.5 / 255 + 1e-12
        for label, got, want in (("hazy", hazy, pair.hazy),
                                 ("clear", clear, pair.clear)):
            if got.shape != want.shape or np.max(np.abs(got - want)) > half_step:
                clock.fail(op_end, f"P6 round trip moved {label} by more "
                                   "than half a step")
        if np.max(np.abs(back.data - x.data)) > 1e-10:
            clock.fail(op_end, "idwt2(dwt2(x)) differs from x by > 1e-10")
        mse = float(np.mean((hazy - clear) ** 2))
        want_psnr = 100.0 if mse == 0 else min(100.0, 10 * math.log10(1 / mse))
        if not _close(psnr, want_psnr):
            clock.fail(op_end, f"psnr {psnr!r} != 10 log10(1/mse) "
                               f"{want_psnr!r}")
        if not (-1 <= ssim <= 1 and 0 <= ms_ssim <= 1):
            clock.fail(op_end, f"ssim {ssim!r} / ms_ssim {ms_ssim!r} out "
                               "of range")
        self.scores.append((psnr, ssim, ms_ssim))

    def run(self, clock) -> None:
        while clock.start():
            op = clock.ops
            try:
                self._op(clock, op)
            except Exception as exc:
                if clock.running:
                    clock.end()
                _record_failure(clock, op, exc)

    def fingerprint(self) -> dict:
        return {"scores": list(self.scores[:self.ref_ops])}

    @staticmethod
    def compare(got: dict, ref: dict) -> list[str]:
        if len(got["scores"]) != len(ref["scores"]):
            return ["reference op produced no scores"]
        return [f"op {i} scores {g} != reference {r}"
                for i, (g, r) in enumerate(zip(got["scores"], ref["scores"]))
                if not all(_close(a, b) for a, b in zip(g, r))]


WORKLOADS = {w.name: w for w in (TrainGate, Dehaze, SynthScore)}


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def load_reference(name: str) -> dict:
    ref = json.loads((REFERENCE_DIR / "reference.json").read_text())[name]
    if name == Dehaze.name:
        ref["image"] = read_p6(REFERENCE_DIR / ref["image"])[2]
    return ref


def reference_record(name: str, fingerprint: dict) -> dict:
    """The JSON-ready form of a fingerprint; the dehazed image is kept as
    its own P6 file next to reference.json."""
    record = dict(fingerprint)
    if name == Dehaze.name:
        image_name = f"{name}_seed{REF_SEED}.ppm"
        w = Dehaze.px
        with open(REFERENCE_DIR / image_name, "wb") as fh:
            fh.write(f"P6\n{w} {w}\n255\n".encode())
            fh.write(record["image"])
        record["image"] = image_name
    return record
