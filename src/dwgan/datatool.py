"""Image file I/O and gamma-based brightness matching.

The one mandatory image format is binary portable pixmap (P6, maxval
255): zero-dependency and bit-exactly specified. Values are scaled by
1/255 on read and rounded to nearest on write, so a round trip moves each
channel by at most half a quantization step.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .metrics import gray_stats


class PpmParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


def _read_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comments between header tokens
    n = len(buf)
    while pos < n:
        ch = buf[pos:pos + 1]
        if ch == b"#":
            while pos < n and buf[pos:pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise PpmParseError("unexpected end of header", start)
    return buf[start:pos], pos


def read_image(path) -> np.ndarray:
    """Decode a P6 pixmap to a C-ordered (3, H, W) float64 array in
    [0, 1]."""
    buf = Path(path).read_bytes()
    if buf[:2] != b"P6":
        raise PpmParseError(f"expected magic b'P6', got {buf[:2]!r}", 0)
    if not buf[2:3].isspace():
        raise PpmParseError("expected whitespace after the magic", 2)
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _read_token(buf, pos)
        # ASCII digits only (int() would take b"+2" and b"1_0"); a leading
        # '-' is read so that a negative size is reported as one
        if re.fullmatch(rb"-?[0-9]+", tok) is None:
            raise PpmParseError(f"non-numeric header field {tok!r}",
                                pos - len(tok))
        fields.append(int(tok))
    width, height, maxval = fields
    if maxval != 255:
        raise PpmParseError(f"unsupported maxval {maxval}, expected 255", pos)
    if width < 1 or height < 1:
        raise PpmParseError(f"image size {width}x{height} is not positive", pos)
    pos += 1  # single whitespace byte after maxval
    need = width * height * 3
    payload = buf[pos:pos + need]
    if len(payload) != need:
        raise PpmParseError(
            f"truncated payload: got {len(payload)} of {need} bytes", pos)
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return arr.transpose(2, 0, 1).astype(np.float64, order="C") / 255.0


def write_image(path, img: np.ndarray) -> None:
    """Encode a (3, H, W) array in [0, 1] as P6, round-to-nearest."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"expected (3, H, W) image, got {img.shape}")
    q = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    _, h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(q.transpose(1, 2, 0).tobytes())


def gamma_correct(img: np.ndarray, gamma: float) -> np.ndarray:
    """Per-channel power law v -> v**gamma; gamma < 1 brightens."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    img = np.asarray(img, dtype=np.float64)
    if np.any(img < 0) or np.any(img > 1):
        raise ValueError("image values must lie in [0, 1]")
    return img ** gamma


@dataclass
class BrightnessMatch:
    gamma: float
    achieved_mean: float
    iterations: int


def corrected_mean(images: list[np.ndarray], gamma: float) -> float:
    return gray_stats([gamma_correct(img, gamma) for img in images])[0]


def match_brightness(images: list[np.ndarray], target_mean: float,
                     lo: float = 0.1, hi: float = 5.0,
                     tol: float = 0.5, max_iter: int = 40) -> BrightnessMatch:
    """Bisection on gamma in [lo, hi] so the post-correction pooled gray
    mean hits ``target_mean`` within ``tol`` gray levels.

    The mean is strictly decreasing in gamma (for images not entirely 0/1),
    so bisection converges; 40 iterations narrow the bracket below 1e-11.
    """
    if not images:
        raise ValueError("no source images")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not 0 < target_mean < 255:
        raise ValueError("target mean must lie in (0, 255)")
    mean_hi = corrected_mean(images, hi)   # darkest achievable
    mean_lo = corrected_mean(images, lo)   # brightest achievable
    if not mean_hi <= target_mean <= mean_lo:
        raise ValueError(
            f"target {target_mean:.2f} outside achievable "
            f"[{mean_hi:.2f}, {mean_lo:.2f}] for gamma in [{lo}, {hi}]"
        )
    g_lo, g_hi = lo, hi
    for it in range(1, max_iter + 1):
        gamma = (g_lo + g_hi) / 2
        mean = corrected_mean(images, gamma)
        if abs(mean - target_mean) <= tol:
            break
        if mean > target_mean:
            g_lo = gamma   # too bright: increase gamma
        else:
            g_hi = gamma
    return BrightnessMatch(gamma=gamma, achieved_mean=mean, iterations=it)
