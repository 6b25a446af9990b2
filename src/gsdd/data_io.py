"""Dataset ingestion, distilled-set persistence, bf16 rounding, and image
export.

The on-disk container stores Gaussian parameters as raw bfloat16 bit
patterns, whose values :func:`bf16_round` gives, so save/load round-trips
are bit-exact:

    offset  size        field
    0       4           magic "GSDD"
    4       2           version (currently 1), u16 little-endian
    6       2           width, u16
    8       2           height, u16
    10      1           channels, u8
    11      2           image count N_S, u16
    13      2           Gaussians per image M, u16
    15      2           class count, u16
    17      2*N_S       labels, u16 each
    ...     2*N_S*M*9   parameters as bf16 bit patterns, u16 little-endian,
                        in flat (image, Gaussian, field) order

Total size is exactly 17 + 2*N_S + 2*N_S*M*9 bytes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import PARAMS_PER_GAUSSIAN, DistilledSet

GSD_MAGIC = b"GSDD"
GSD_VERSION = 1
_GSD_HEADER = struct.Struct("<4sHHHBHHH")  # 17 bytes

# bf16_round takes a float64 to float32 first, rounding ties to even, and
# then keeps the float32's top 16 bits, rounding ties to even. The largest
# float32 that keeps a finite bf16 value is 0x7F7F7FFF; a float64 halfway
# between it and 0x7F7F8000 or beyond becomes 0x7F7F8000, and then inf.
BF16_INF_FROM = float(np.array([0x7F7F7FFF, 0x7F7F8000], dtype=np.uint32)
                      .view(np.float32).astype(np.float64).mean())

CIFAR10_RECORD = 3073   # 1 label byte + 32*32*3 pixels
CIFAR100_RECORD = 3074  # coarse + fine label bytes + pixels


@dataclass
class LabeledImageDataset:
    """Images plus labels and the per-channel normalization that produced them.

    ``images`` is (N, H, W, C) float32 in normalized units; ``mean``/``std``
    are the per-channel statistics of the raw [0, 1] pixels, kept so renders
    can be mapped back to displayable values.
    """

    images: np.ndarray
    labels: np.ndarray
    class_count: int
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        self.images = np.asarray(self.images, dtype=np.float32)
        if self.images.ndim != 4:
            raise ValueError("images must be (N, H, W, C)")
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if self.labels.size != self.images.shape[0]:
            raise ValueError("labels length != image count")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.class_count):
            raise ValueError("labels out of range")
        self.mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        self.std = np.asarray(self.std, dtype=np.float64).reshape(-1)

    @property
    def width(self) -> int:
        return self.images.shape[2]

    @property
    def height(self) -> int:
        return self.images.shape[1]

    @property
    def channels(self) -> int:
        return self.images.shape[3]


def normalize_images(raw: np.ndarray, labels, class_count: int,
                     stats: tuple[np.ndarray, np.ndarray] | None = None
                     ) -> LabeledImageDataset:
    """Per-channel normalization of [0, 1] images.

    Statistics are computed from ``raw`` unless explicit ``stats`` (from the
    training split) are supplied.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if stats is None:
        mean = raw.mean(axis=(0, 1, 2))
        std = raw.std(axis=(0, 1, 2))
        std = np.where(std < 1e-8, 1.0, std)
    else:
        mean, std = (np.asarray(s, dtype=np.float64) for s in stats)
    normalized = (raw - mean) / std
    return LabeledImageDataset(normalized.astype(np.float32),
                               labels, class_count, mean, std)


def load_cifar_binary(paths, classes: int = 10,
                      stats: tuple[np.ndarray, np.ndarray] | None = None
                      ) -> LabeledImageDataset:
    """Read CIFAR binary batch files (32x32 RGB, plane-ordered).

    CIFAR-10 records are 1 label byte + 3072 pixel bytes (R plane, then G,
    then B, each row-major); CIFAR-100 records carry a coarse and a fine
    label byte and the fine label is kept. Pixels are scaled to [0, 1] and
    per-channel normalized.
    """
    if classes == 10:
        record = CIFAR10_RECORD
        label_offset = 0
    elif classes == 100:
        record = CIFAR100_RECORD
        label_offset = 1
    else:
        raise ValueError("classes must be 10 or 100")

    if isinstance(paths, (str, Path)):
        paths = [paths]
    blobs = []
    for path in paths:
        data = Path(path).read_bytes()
        if len(data) == 0 or len(data) % record != 0:
            raise ValueError(
                f"{path}: size {len(data)} is not a multiple of the "
                f"{record}-byte record")
        blobs.append(np.frombuffer(data, dtype=np.uint8).reshape(-1, record))
    records = np.concatenate(blobs, axis=0)

    labels = records[:, label_offset].astype(np.int64)
    if labels.size and labels.max() >= classes:
        raise ValueError(f"label {labels.max()} out of range for {classes} "
                         "classes")
    pixels = records[:, label_offset + 1:].reshape(-1, 3, 32, 32)
    raw = pixels.transpose(0, 2, 3, 1).astype(np.float64) / 255.0
    return normalize_images(raw, labels, classes, stats)


def write_cifar_binary(images_uint8: np.ndarray, labels, path,
                       classes: int = 10) -> None:
    """Write images back out in CIFAR binary layout (test/demo helper)."""
    images_uint8 = np.asarray(images_uint8, dtype=np.uint8)
    n, h, w, c = images_uint8.shape
    if (h, w, c) != (32, 32, 3):
        raise ValueError("CIFAR layout requires 32x32x3 images")
    # load_cifar_binary rejects the empty file this would write
    if n == 0:
        raise ValueError("no images to write")
    labels = np.asarray(labels, dtype=np.uint8).reshape(n, 1)
    # CIFAR-100 records lead with a coarse label, written as 0
    head = [np.zeros_like(labels), labels] if classes == 100 else [labels]
    planes = images_uint8.transpose(0, 3, 1, 2).reshape(n, -1)
    Path(path).write_bytes(np.hstack(head + [planes]).tobytes())


def _bf16_bits(values) -> np.ndarray:
    """Each value's bfloat16 pattern, flat, as little-endian u16: the top 16
    bits of its float32 pattern, rounding ties to even; NaNs come back
    quieted."""
    f32 = np.asarray(values).astype(np.float32).reshape(-1)
    bits = f32.view(np.uint32)
    rounded = bits + np.uint32(0x7FFF) + ((bits >> 16) & np.uint32(1))
    return (np.where(np.isnan(f32), bits | np.uint32(0x400000), rounded)
            >> 16).astype("<u2")


def _bf16_values(bits) -> np.ndarray:
    """The float32 value of each bfloat16 pattern."""
    return (np.asarray(bits).astype(np.uint32) << 16).view(np.float32)


def bf16_round(values) -> np.ndarray:
    """Round to bfloat16 and widen back, to the values the container
    stores: float32 stays float32, anything else is taken to float32
    (rounding ties to even) and comes back float64. Infinities survive;
    NaNs come back quieted."""
    arr = np.asarray(values)
    out = _bf16_values(_bf16_bits(arr)).reshape(arr.shape)
    return out if arr.dtype == np.float32 else out.astype(np.float64)


def check_gsd_limits(width: int, height: int, channels: int,
                     num_images: int, gaussians_per_image: int,
                     num_classes: int) -> None:
    """Raise ``ValueError`` naming the first header field that a set of
    this shape would overflow; training runs call it before they start."""
    for name, value, kind, limit in (
            ("width", width, "u16", 0xFFFF),
            ("height", height, "u16", 0xFFFF),
            ("channel count", channels, "u8", 0xFF),
            ("image count", num_images, "u16", 0xFFFF),
            ("Gaussians per image", gaussians_per_image, "u16", 0xFFFF),
            ("class count", num_classes, "u16", 0xFFFF)):
        if value > limit:
            raise ValueError(
                f"{name} {value} exceeds the {kind} container limit")


def check_gsd_params(dset: DistilledSet) -> None:
    """Raise ``ValueError`` naming the image and the Gaussian of the first
    parameter the bf16 container cannot hold: NaN, +-inf, or a finite value
    that bf16 rounding takes to +-inf (magnitude ``BF16_INF_FROM`` or
    more)."""
    held = np.abs(dset.params) < BF16_INF_FROM
    bad = np.flatnonzero(~held.reshape(-1, PARAMS_PER_GAUSSIAN).all(axis=1))
    if bad.size:
        image, k = divmod(int(bad[0]), dset.gaussians_per_image)
        raise ValueError(
            f"image {image}, Gaussian {k}: the bf16 container holds only "
            f"finite parameters of magnitude below {BF16_INF_FROM:.8g}")


def save_gsd(dset: DistilledSet, path) -> None:
    """Persist a distilled set in the bf16 container format above; a set
    that :func:`check_gsd_limits` or :func:`check_gsd_params` rejects
    raises before the file is opened."""
    check_gsd_limits(dset.width, dset.height, dset.channels, dset.num_images,
                     dset.gaussians_per_image, dset.num_classes)
    check_gsd_params(dset)
    header = _GSD_HEADER.pack(GSD_MAGIC, GSD_VERSION, dset.width, dset.height,
                              dset.channels, dset.num_images,
                              dset.gaussians_per_image, dset.num_classes)
    labels = dset.labels.astype("<u2")
    payload = _bf16_bits(dset.params)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(labels.tobytes())
        fh.write(payload.tobytes())


def load_gsd(path) -> DistilledSet:
    """Load a distilled set; validates magic, version, and exact file size."""
    data = Path(path).read_bytes()
    if len(data) < _GSD_HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, version, width, height, channels, n_s, m, class_count = \
        _GSD_HEADER.unpack_from(data, 0)
    if magic != GSD_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != GSD_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    expected = (_GSD_HEADER.size + 2 * n_s
                + 2 * n_s * m * PARAMS_PER_GAUSSIAN)
    if len(data) != expected:
        raise ValueError(f"{path}: size {len(data)} != header-implied "
                         f"{expected}")
    off = _GSD_HEADER.size
    labels = np.frombuffer(data, dtype="<u2", count=n_s, offset=off
                           ).astype(np.int64)
    off += 2 * n_s
    bits = np.frombuffer(data, dtype="<u2",
                         count=n_s * m * PARAMS_PER_GAUSSIAN, offset=off)
    params = _bf16_values(bits).astype(np.float64)
    return DistilledSet(width, height, channels, n_s, m, params, labels,
                        max(class_count, 1))


def save_stats(path, mean: np.ndarray, std: np.ndarray) -> None:
    """Sidecar with the normalization statistics a set was trained under."""
    Path(path).write_text(json.dumps({
        "mean": [float(x) for x in np.asarray(mean).reshape(-1)],
        "std": [float(x) for x in np.asarray(std).reshape(-1)],
    }, indent=2) + "\n")


def load_stats(path) -> tuple[np.ndarray, np.ndarray]:
    obj = json.loads(Path(path).read_text())
    return np.asarray(obj["mean"], dtype=np.float64), \
        np.asarray(obj["std"], dtype=np.float64)


def denormalize_to_bytes(img, stats: tuple[np.ndarray, np.ndarray] | None
                         ) -> np.ndarray:
    """Undo normalization, clamp to [0, 1], quantize round-half-up to u8."""
    arr = np.asarray(img, dtype=np.float64)
    if stats is not None:
        mean, std = stats
        arr = arr * np.asarray(std).reshape(1, 1, -1) \
            + np.asarray(mean).reshape(1, 1, -1)
    arr = np.clip(arr, 0.0, 1.0)
    return np.floor(arr * 255.0 + 0.5).astype(np.uint8)


def export_image(img, stats, path) -> None:
    """Write a rendered (H, W, C) image, an array or an
    :class:`ImageBuffer`, as binary PPM (P6) or, with Pillow, PNG.

    Grayscale images are replicated to RGB. The PPM layout is exactly
    ``b"P6\\n{w} {h}\\n255\\n"`` followed by row-major RGB bytes.
    """
    data = denormalize_to_bytes(img, stats)
    if data.shape[2] == 1:
        data = np.repeat(data, 3, axis=2)
    elif data.shape[2] != 3:
        raise ValueError("export supports 1- or 3-channel images")
    path = Path(path)
    if path.suffix.lower() == ".png":
        try:
            from PIL import Image
        except ImportError as exc:
            raise RuntimeError("PNG export needs Pillow; use .ppm instead"
                               ) from exc
        Image.fromarray(data, mode="RGB").save(path)
        return
    header = f"P6\n{data.shape[1]} {data.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def load_ppm(path) -> np.ndarray:
    """Read back a binary PPM written by :func:`export_image`; (H, W, 3) u8."""
    data = Path(path).read_bytes()
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P6":
        raise ValueError(f"{path}: not a binary PPM")
    w, h = (int(x) for x in parts[1].split())
    if parts[2] != b"255":
        raise ValueError(f"{path}: unsupported maxval {parts[2]!r}")
    pixels = np.frombuffer(parts[3], dtype=np.uint8, count=w * h * 3)
    return pixels.reshape(h, w, 3).copy()


def write_csv(path, header: str, rows) -> None:
    """Plain comma-separated emission for traces and benchmark tables."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")
