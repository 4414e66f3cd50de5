"""Input corruptions for the robustness experiments: additive white Gaussian
noise and a codec-free JPEG proxy (8x8 block DCT quantization).

The proxy quantizes AC coefficients against the standard luminance table
scaled by the usual quality factor; the DC coefficient passes through
unquantized so flat regions round-trip exactly.  Bit-exact JPEG
compatibility is not claimed.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, asdict, fields

import numpy as np

from .tensor import Rng

# standard luminance quantization table
_LUMA_TABLE = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99]], dtype=np.float64)


def _dct_matrix():
    n = 8
    k = np.arange(n)[:, None]
    x = np.arange(n)[None, :]
    m = np.cos((2 * x + 1) * k * np.pi / (2 * n))
    m[0] *= np.sqrt(1.0 / n)
    m[1:] *= np.sqrt(2.0 / n)
    return m


_DCT = _dct_matrix()

SIGMA_RANGE = (0.02, 0.20)
QUALITY_RANGE = (20, 80)


@dataclass
class DistortionSpec:
    kind: str                      # "awgn" or "dct_quant"
    sigma: float = None            # awgn strength, intensity units
    quality: int = None            # dct_quant quality, 1..100
    sigma_range: tuple = SIGMA_RANGE
    quality_range: tuple = QUALITY_RANGE
    seed: int = 0

    def __post_init__(self):
        """Reject an unknown kind or a field of the wrong type or out of
        range, naming the field; the ranges become tuples."""
        if self.kind not in ("awgn", "dct_quant"):
            raise ValueError(f"unknown distortion kind {self.kind!r}")
        checks = {
            "sigma": (self.sigma is None or _number(self.sigma) and self.sigma >= 0,
                      "a non-negative number or null"),
            "quality": (self.quality is None or _number(self.quality, int)
                        and 1 <= self.quality <= 100, "an integer in [1, 100] or null"),
            "sigma_range": (_range(self.sigma_range), "two numbers, low first"),
            "quality_range": (_range(self.quality_range), "two numbers, low first"),
            "seed": (_number(self.seed, int), "an integer"),
        }
        for name, (ok, want) in checks.items():
            if not ok:
                raise ValueError(f"distortion {name} must be {want}, "
                                 f"got {getattr(self, name)!r}")
        self.sigma_range = tuple(self.sigma_range)
        self.quality_range = tuple(self.quality_range)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """The spec of a JSON object; a ValueError names an unknown key or
        a missing ``kind``."""
        for key in sorted(set(d) - {f.name for f in fields(cls)}):
            raise ValueError(f"unknown distortion key {key!r}")
        if "kind" not in d:
            raise ValueError("missing distortion key 'kind'")
        return cls(**d)


def _number(value, kind=float) -> bool:
    """A real number (an integer for ``kind=int``) that is not a bool."""
    want = numbers.Integral if kind is int else numbers.Real
    return isinstance(value, want) and not isinstance(value, bool)


def _range(value) -> bool:
    return (isinstance(value, (list, tuple)) and len(value) == 2
            and all(_number(v) for v in value) and value[0] <= value[1])


def awgn(image, sigma: float, rng: Rng) -> np.ndarray:
    """clip(image + sigma * N(0, 1), 0, 1), independent per element."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    img = np.asarray(image, dtype=np.float64)
    return np.clip(img + rng.normal(img.shape, std=1.0) * sigma, 0.0, 1.0)


def _quant_table(quality: int) -> np.ndarray:
    if not 1 <= quality <= 100:
        raise ValueError(f"quality must be in [1, 100], got {quality}")
    scale = 5000.0 / quality if quality < 50 else 200.0 - 2.0 * quality
    q = np.floor((_LUMA_TABLE * scale + 50.0) / 100.0)
    return np.clip(q, 1.0, 255.0)


def dct_quant(image, quality: int) -> np.ndarray:
    """Per channel: 8x8 block DCT, AC quantization against the scaled
    luminance table, inverse DCT, clip to [0, 1].  Deterministic."""
    q = _quant_table(int(quality))
    img = np.asarray(image, dtype=np.float64)
    squeeze = img.ndim == 2
    if squeeze:
        img = img[None]
    c, h, w = img.shape
    hp, wp = -(-h // 8) * 8, -(-w // 8) * 8
    x = np.zeros((c, hp, wp))
    x[:, :h, :w] = img * 255.0 - 128.0
    blocks = x.reshape(c, hp // 8, 8, wp // 8, 8).transpose(0, 1, 3, 2, 4)
    coef = np.einsum("ij,cbdjk,lk->cbdil", _DCT, blocks, _DCT)
    if quality >= 100:
        # the quality scale reaches zero here, so no rounding is applied
        quant = coef
    else:
        quant = np.round(coef / q) * q
        quant[..., 0, 0] = coef[..., 0, 0]  # DC passes through
    rec = np.einsum("ji,cbdjk,kl->cbdil", _DCT, quant, _DCT)
    out = rec.transpose(0, 1, 3, 2, 4).reshape(c, hp, wp)[:, :h, :w]
    out = np.clip((out + 128.0) / 255.0, 0.0, 1.0)
    return out[0] if squeeze else out


def random_strength(spec: DistortionSpec, rng: Rng) -> DistortionSpec:
    """Draw a concrete strength from the spec's randomization range."""
    if spec.kind == "awgn":
        lo, hi = spec.sigma_range
        return DistortionSpec(kind="awgn", sigma=float(rng.uniform(lo, hi)),
                              sigma_range=spec.sigma_range, seed=spec.seed)
    lo, hi = spec.quality_range
    quality = int(rng.integers(lo, hi + 1))
    return DistortionSpec(kind="dct_quant", quality=quality,
                          quality_range=spec.quality_range, seed=spec.seed)


def apply(image, spec: DistortionSpec, rng: Rng = None) -> np.ndarray:
    if spec.kind == "awgn":
        if spec.sigma is None:
            raise ValueError("awgn spec has no concrete sigma; use random_strength")
        return awgn(image, spec.sigma, rng or Rng(spec.seed))
    if spec.quality is None:
        raise ValueError("dct_quant spec has no concrete quality; use random_strength")
    return dct_quant(image, spec.quality)
