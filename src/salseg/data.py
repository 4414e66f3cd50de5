"""Synthetic dataset generation, augmentation and image/mask I/O.

Images are channel-first (3, H, W) floats in [0, 1]; masks are (H, W) binary
uint8.  On disk: binary PPM (P6) for images and binary PGM (P5) for masks
(0 or 255) and gray maps, all through one codec (``_write_pnm`` and
``_read_pnm``); images and gray maps are stored at the 8-bit levels of
``metrics.quantize_8bit``.  A JSON manifest, together with the generation
seed and version, fully determines a dataset's pixels.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .metrics import quantize_8bit
from .tensor import Rng

GENERATOR_VERSION = 1
AREA_RANGE = (0.05, 0.6)


@dataclass
class SampleRecord:
    image: np.ndarray   # (3, H, W) float in [0, 1]
    mask: np.ndarray    # (H, W) uint8 in {0, 1}
    id: str


@dataclass
class DatasetManifest:
    split: str
    ids: list
    seed: int
    size: int
    version: int = GENERATOR_VERSION

    def save(self, path):
        with open(path, "w") as f:
            json.dump(asdict(self), f, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path):
        """Read a manifest; anything but a JSON object with exactly the
        record's keys, and a list of string ids, is a ``FormatError``."""
        d = read_json_object(path, "manifest")
        for key in sorted(set(d) ^ {k.name for k in fields(cls)}):
            what = "unknown" if key in d else "missing"
            raise FormatError(f"{path}: {what} manifest key {key!r}")
        if not (isinstance(d["ids"], list) and all(isinstance(i, str) for i in d["ids"])):
            raise FormatError(f"{path}: manifest key 'ids' must be a list of strings")
        return cls(**d)


class FormatError(ValueError):
    """Malformed on-disk data: an image, mask, manifest, config or spec."""


def read_json_object(path, what) -> dict:
    """The JSON object in the file ``path``; a ``FormatError`` when the file
    is not valid JSON or holds anything else (``what`` names the object)."""
    try:
        with open(path) as f:
            d = json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: invalid JSON ({e})")
    if not isinstance(d, dict):
        raise FormatError(f"{path}: {what} must be a JSON object")
    return d


# -- resizing ------------------------------------------------------------------

def resize(image, target: int) -> np.ndarray:
    """Bilinear resize of an (C, H, W) or (H, W) array to target x target;
    exact identity when the size already matches."""
    if target < 1:
        raise ValueError("target size must be >= 1")
    img = np.asarray(image, dtype=np.float64)
    squeeze = img.ndim == 2
    if squeeze:
        img = img[None]
    c, h, w = img.shape
    if h == target and w == target:
        out = img.copy()
        return out[0] if squeeze else out
    out = _bilinear(img, target, target)
    return out[0] if squeeze else out


def _bilinear(img, th, tw):
    c, h, w = img.shape
    ys = (np.arange(th) + 0.5) * (h / th) - 0.5
    xs = (np.arange(tw) + 0.5) * (w / tw) - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.clip(y0 + 1, 0, h - 1)
    x1 = np.clip(x0 + 1, 0, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :]
    top = img[:, y0][:, :, x0] * (1 - wx) + img[:, y0][:, :, x1] * wx
    bot = img[:, y1][:, :, x0] * (1 - wx) + img[:, y1][:, :, x1] * wx
    return top * (1 - wy) + bot * wy


def _resize_nearest(mask, th, tw):
    h, w = mask.shape
    ys = np.minimum(((np.arange(th) + 0.5) * (h / th)).astype(int), h - 1)
    xs = np.minimum(((np.arange(tw) + 0.5) * (w / tw)).astype(int), w - 1)
    return mask[ys][:, xs]


# -- synthetic generation --------------------------------------------------------

def _low_freq_field(rng, size, channels, grid, lo, hi):
    coarse = rng.uniform(lo, hi, (channels, grid, grid))
    return _bilinear(coarse, size, size)


def _ellipse_mask(rng, size):
    cy, cx = rng.uniform(0.25, 0.75, (2,)) * size
    ry = rng.uniform(size / 8, size / 3)
    rx = rng.uniform(size / 8, size / 3)
    theta = rng.uniform(0, np.pi)
    yy, xx = np.mgrid[0:size, 0:size]
    y, x = yy - cy, xx - cx
    u = x * np.cos(theta) + y * np.sin(theta)
    v = -x * np.sin(theta) + y * np.cos(theta)
    return (u / rx) ** 2 + (v / ry) ** 2 <= 1.0


def _rectangle_mask(rng, size):
    cy, cx = rng.uniform(0.25, 0.75, (2,)) * size
    hh = rng.uniform(size / 10, size / 4)
    hw = rng.uniform(size / 10, size / 4)
    theta = rng.uniform(0, np.pi)
    yy, xx = np.mgrid[0:size, 0:size]
    y, x = yy - cy, xx - cx
    u = x * np.cos(theta) + y * np.sin(theta)
    v = -x * np.sin(theta) + y * np.cos(theta)
    return (np.abs(u) <= hw) & (np.abs(v) <= hh)


def _polygon_mask(rng, size):
    cy, cx = rng.uniform(0.3, 0.7, (2,)) * size
    k = int(rng.integers(3, 7))
    angles = np.sort(rng.uniform(0, 2 * np.pi, (k,)))
    radii = rng.uniform(size / 8, size / 3, (k,))
    pts = np.stack([cx + radii * np.cos(angles), cy + radii * np.sin(angles)], axis=1)
    yy, xx = np.mgrid[0:size, 0:size]
    inside = np.ones((size, size), dtype=bool)
    # convex by construction (angle-sorted star polygon around the centroid is
    # not guaranteed convex, so intersect half-planes of the convex hull edges)
    hull = _convex_hull(pts)
    for i in range(len(hull)):
        x0, y0 = hull[i]
        x1, y1 = hull[(i + 1) % len(hull)]
        inside &= ((x1 - x0) * (yy - y0) - (y1 - y0) * (xx - x0)) >= 0
    return inside


def _convex_hull(pts):
    pts = sorted(map(tuple, pts))

    def half(points):
        out = []
        for p in points:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


_SHAPES = (_ellipse_mask, _rectangle_mask, _polygon_mask)


def _make_sample(rng, size, sample_id):
    lo, hi = AREA_RANGE
    for _ in range(100):
        mask = np.zeros((size, size), dtype=bool)
        for _ in range(int(rng.integers(1, 3))):
            shape_fn = _SHAPES[int(rng.integers(0, len(_SHAPES)))]
            mask |= shape_fn(rng, size)
        frac = mask.mean()
        if lo <= frac <= hi:
            break
    else:
        raise RuntimeError("could not generate a mask within the area range")

    bg = _low_freq_field(rng, size, 3, 4, 0.2, 0.8)
    bg += _low_freq_field(rng, size, 3, size // 4, -0.06, 0.06)
    bg += rng.normal((3, size, size), std=0.02)

    # object colors deliberately overlap the background's: a bounded offset
    # from the local background plus its own texture
    offset = rng.uniform(0.15, 0.45, (3, 1, 1)) * np.where(
        rng.uniform(shape=(3, 1, 1)) < 0.5, -1.0, 1.0)
    obj = bg + offset + _low_freq_field(rng, size, 3, max(2, size // 8), -0.05, 0.05)
    obj += rng.normal((3, size, size), std=0.02)

    image = np.where(mask[None], obj, bg)
    image = np.clip(image, 0.02, 0.98)
    return SampleRecord(image=image, mask=mask.astype(np.uint8), id=sample_id)


def generate_synthetic(n: int, size: int, rng: Rng):
    """n samples of shapes on textured backgrounds; deterministic per rng
    seed and independent of n (sample i uses stream split i)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if size < 8 or size & (size - 1):
        raise ValueError("size must be a power of two >= 8")
    return [_make_sample(rng.split(1000 + i), size, f"sample_{i:05d}")
            for i in range(n)]


def augment(sample: SampleRecord, rng: Rng) -> SampleRecord:
    """Random horizontal flip plus a random crop of scale 0.8..1.0 resized
    back; the crop is resampled up to 5 times if it would erase a class,
    after which the sample is returned unaugmented."""
    size = sample.mask.shape[0]
    image, mask = sample.image, sample.mask
    if rng.uniform() < 0.5:
        image = image[:, :, ::-1].copy()
        mask = mask[:, ::-1].copy()

    for _ in range(5):
        scale = float(rng.uniform(0.8, 1.0))
        cs = max(1, int(round(scale * size)))
        oy = int(rng.integers(0, size - cs + 1))
        ox = int(rng.integers(0, size - cs + 1))
        cm = mask[oy:oy + cs, ox:ox + cs]
        if cm.any() and not cm.all():
            ci = image[:, oy:oy + cs, ox:ox + cs]
            out_img = resize(ci, size)
            out_mask = _resize_nearest(cm, size, size)
            if out_mask.any() and not out_mask.all():
                return SampleRecord(image=np.clip(out_img, 0.0, 1.0),
                                    mask=out_mask.astype(np.uint8), id=sample.id)
    return SampleRecord(image=sample.image.copy(), mask=sample.mask.copy(),
                        id=sample.id)


# -- PPM / PGM I/O ----------------------------------------------------------------

def _write_pnm(path, magic, pixels) -> None:
    """Binary PNM with maxval 255: ``pixels`` is (H, W) uint8 for P5 and
    (H, W, 3) for P6."""
    h, w = pixels.shape[:2]
    with open(path, "wb") as f:
        f.write(magic + f"\n{w} {h}\n255\n".encode())
        f.write(pixels.tobytes())


def _read_pnm(path, magic, channels) -> np.ndarray:
    """(H, W, channels) uint8 pixels of a binary PNM with maxval 255."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:2] != magic:
        raise FormatError(f"{path}: expected {magic.decode()} magic at byte 0, "
                          f"got {buf[:2]!r}")
    values = []
    pos = 2
    while len(values) < 3:
        while pos < len(buf) and buf[pos:pos + 1].isspace():
            pos += 1
        if pos < len(buf) and buf[pos:pos + 1] == b"#":
            while pos < len(buf) and buf[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos:pos + 1].isspace():
            pos += 1
        token = buf[start:pos]
        if not token.isdigit():
            raise FormatError(f"{path}: malformed header token {token!r} at byte {start}")
        values.append(int(token))
    pos += 1  # single whitespace after maxval
    w, h, maxval = values
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 supported, got {maxval}")
    need = w * h * channels
    payload = buf[pos:pos + need]
    if len(payload) != need:
        raise FormatError(f"{path}: expected {need} pixel bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, channels)


def save_image(path, image) -> None:
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError("image must be (3, H, W)")
    _write_pnm(path, b"P6", quantize_8bit(img).transpose(1, 2, 0))


def load_image(path) -> np.ndarray:
    return _read_pnm(path, b"P6", 3).transpose(2, 0, 1).astype(np.float64) / 255.0


def save_mask(path, mask) -> None:
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ValueError("mask must be (H, W)")
    _write_pnm(path, b"P5", np.where(m > 0, 255, 0).astype(np.uint8))


def load_mask(path) -> np.ndarray:
    return (_read_pnm(path, b"P5", 1)[:, :, 0] >= 128).astype(np.uint8)


def save_gray(path, field) -> None:
    """8-bit grayscale PGM of a [0, 1] map (saliency/feature emission)."""
    data = quantize_8bit(field)
    if data.ndim != 2:
        raise ValueError("gray map must be (H, W)")
    _write_pnm(path, b"P5", data)


def load_gray(path) -> np.ndarray:
    return _read_pnm(path, b"P5", 1)[:, :, 0].astype(np.float64) / 255.0


# -- dataset directories ------------------------------------------------------------

def save_dataset(records, out_dir, split, seed, size) -> DatasetManifest:
    os.makedirs(out_dir, exist_ok=True)
    for rec in records:
        save_image(os.path.join(out_dir, f"{rec.id}.ppm"), rec.image)
        save_mask(os.path.join(out_dir, f"{rec.id}_mask.pgm"), rec.mask)
    manifest = DatasetManifest(split=split, ids=[r.id for r in records],
                               seed=seed, size=size)
    manifest.save(os.path.join(out_dir, "manifest.json"))
    return manifest


def load_dataset(in_dir):
    manifest = DatasetManifest.load(os.path.join(in_dir, "manifest.json"))
    records = []
    for sid in manifest.ids:
        image = load_image(os.path.join(in_dir, f"{sid}.ppm"))
        mask = load_mask(os.path.join(in_dir, f"{sid}_mask.pgm"))
        if image.shape[1:] != mask.shape:
            raise FormatError(f"{sid}: image {image.shape[1:]} and mask "
                              f"{mask.shape} dimensions differ")
        records.append(SampleRecord(image=image, mask=mask, id=sid))
    return manifest, records
