"""Core domain types, coordinate conventions, and the flat parameter layout.

Positions live in the normalized square [-1, 1]^2; Cholesky factors are
expressed in the same normalized units. Everything downstream (rendering,
gradients, storage) addresses Gaussians through the single contiguous
parameter buffer defined here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PARAMS_PER_GAUSSIAN = 9
# bytes per stored scalar: the .gsd container holds every parameter as bf16
BYTES_PER_PARAM = 2

# Field offsets inside one Gaussian's 9-scalar block.
F_U, F_V, F_L11, F_L21, F_L22, F_R, F_G, F_B, F_ALPHA = range(PARAMS_PER_GAUSSIAN)

# Diagonal Cholesky entries are floored to |l| >= CHOLESKY_FLOOR before a
# covariance is formed, keeping it invertible.
CHOLESKY_FLOOR = 1e-6

# Default half-width of the exclusion band that keeps positions off the border.
DEFAULT_CLIP_EPS = 1e-3

VALID_TILE_SIZES = (8, 16, 32)

# Sharpness of the smooth cutoff window exp(tau/c^2 - tau/(c^2 - q)), 1 at the
# mean, at every cutoff c: an infinite one makes both terms exactly 0.
CUTOFF_WINDOW_TAU = 1.0

# The finite cutoffs that keep tau/cutoff^2 and 2 tau/margin^2 finite for every
# margin cutoff^2 - q inside the window, in float32 and so in float64 too (the
# tiles of a float32 render compute in float32): the narrowest, the float
# spacing below cutoff^2, exceeds cutoff^2 * eps/4; the widest, cutoff^2 (a
# little more for a q rounded below 0), squares below max/2, leaving a factor
# 2 for rounding.
_FLOAT32 = np.finfo(np.float32)
MIN_CUTOFF_SIGMA = (32.0 * CUTOFF_WINDOW_TAU / (
    float(_FLOAT32.eps) ** 2 * float(_FLOAT32.max))) ** 0.25
MAX_CUTOFF_SIGMA = (float(_FLOAT32.max) / 2.0) ** 0.25


@dataclass
class DistilledSet:
    """All Gaussians of all synthetic images in one contiguous flat buffer.

    Layout is image-major, Gaussian-major, field-major: the scalar for field
    ``f`` of Gaussian ``k`` of image ``i`` lives at ``(i*M + k)*9 + f``.
    Colors and opacities are unconstrained reals; negative values are
    meaningful (normalized image targets can be negative).
    """

    width: int
    height: int
    channels: int
    num_images: int
    gaussians_per_image: int
    params: np.ndarray
    labels: np.ndarray
    num_classes: int = 1

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1 or self.channels < 1:
            raise ValueError("image geometry must be positive")
        if self.num_images < 0 or self.gaussians_per_image < 0:
            raise ValueError("counts must be nonnegative")
        expected = self.num_images * self.gaussians_per_image * PARAMS_PER_GAUSSIAN
        self.params = np.ascontiguousarray(self.params, dtype=np.float64).reshape(-1)
        if self.params.size != expected:
            raise ValueError(
                f"params length {self.params.size} != N_S*M*9 = {expected}")
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64).reshape(-1)
        if self.labels.size != self.num_images:
            raise ValueError(
                f"labels length {self.labels.size} != num_images {self.num_images}")
        if self.num_images and self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.num_classes):
            raise ValueError("labels must lie in [0, num_classes)")

    @classmethod
    def zeros(cls, width: int, height: int, channels: int, num_images: int,
              gaussians_per_image: int, labels=None, num_classes: int = 1
              ) -> "DistilledSet":
        if labels is None:
            labels = np.zeros(num_images, dtype=np.int64)
        params = np.zeros(num_images * gaussians_per_image * PARAMS_PER_GAUSSIAN)
        return cls(width, height, channels, num_images, gaussians_per_image,
                   params, labels, num_classes)

    def copy(self) -> "DistilledSet":
        return DistilledSet(self.width, self.height, self.channels,
                            self.num_images, self.gaussians_per_image,
                            self.params.copy(), self.labels.copy(),
                            self.num_classes)

    def subset(self, indices) -> "DistilledSet":
        """New set holding copies of the selected images, in the given order."""
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        m9 = self.gaussians_per_image * PARAMS_PER_GAUSSIAN
        blocks = self.params.reshape(self.num_images, m9)[indices]
        return DistilledSet(self.width, self.height, self.channels,
                            len(indices), self.gaussians_per_image,
                            blocks.reshape(-1).copy(), self.labels[indices].copy(),
                            self.num_classes)

    def field_view(self, f: int) -> np.ndarray:
        """Strided view of one field across every Gaussian (mutating it
        mutates the set)."""
        return self.params[f::PARAMS_PER_GAUSSIAN]


@dataclass
class RenderConfig:
    """Output geometry plus the anti-aliasing and scheduling knobs."""

    width: int
    height: int
    channels: int = 3
    prefilter: bool = True
    ssaa_factor: int = 2
    cutoff_sigma: float = 3.0
    tile_size: int = 16

    def __post_init__(self) -> None:
        if self.ssaa_factor < 1:
            raise ValueError("ssaa_factor must be >= 1")
        if self.tile_size not in VALID_TILE_SIZES:
            raise ValueError(f"tile_size must be one of {VALID_TILE_SIZES}")
        if not (self.cutoff_sigma == np.inf or
                MIN_CUTOFF_SIGMA <= self.cutoff_sigma <= MAX_CUTOFF_SIGMA):
            raise ValueError("cutoff_sigma must be inf or lie in "
                             f"[{MIN_CUTOFF_SIGMA!r}, {MAX_CUTOFF_SIGMA!r}]")


@dataclass
class BudgetSpec:
    """Storage accounting that fixes the Gaussian count per synthetic image.

    The baseline stores ``ipc`` raw images per class at 4 bytes per pixel
    value; the Gaussian side stores ``gpc`` images per class at
    ``BYTES_PER_PARAM`` per scalar, as the bf16 ``.gsd`` container does.
    """

    resolution: int
    channels: int
    ipc: int
    gpc: int

    def __post_init__(self) -> None:
        for name in ("resolution", "channels", "ipc", "gpc"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class TileLayout:
    """Tile grid of one image plus the batch size, defining global tile ids."""

    tiles_x: int
    tiles_y: int
    batch: int

    @property
    def tiles_per_image(self) -> int:
        return self.tiles_x * self.tiles_y

    @classmethod
    def for_geometry(cls, width: int, height: int, tile_size: int,
                     batch: int) -> "TileLayout":
        return cls(tiles_x=-(-width // tile_size),
                   tiles_y=-(-height // tile_size),
                   batch=batch)


def budget_points(spec: BudgetSpec) -> int:
    """Gaussians per image under the byte budget of ``ipc`` raw images.

    Raw pixels are budgeted at 4 bytes, Gaussian scalars at the 2 bytes of
    bf16 (``BYTES_PER_PARAM``); the ratio contributes the factor of 2 in
    res*res*channels*ipc*2 / (gpc*9).
    """
    raw_bytes = spec.resolution * spec.resolution * spec.channels * spec.ipc * 4
    per_gaussian = PARAMS_PER_GAUSSIAN * BYTES_PER_PARAM
    m = raw_bytes // (spec.gpc * per_gaussian)
    if m < 1:
        raise ValueError(
            f"budget too small: {spec.gpc} images per class under an "
            f"ipc={spec.ipc} budget leaves no room for a single Gaussian")
    return int(m)


def normalized_to_pixel(u, v, width: int, height: int):
    """Map normalized coordinates to pixel coordinates.

    Pixel ``i`` has its center at ``i`` in pixel coordinates, which
    corresponds to ``2*(i + 0.5)/width - 1`` in normalized coordinates; the
    map is affine and exact in double precision.
    """
    px = (np.asarray(u, dtype=np.float64) + 1.0) * 0.5 * width - 0.5
    py = (np.asarray(v, dtype=np.float64) + 1.0) * 0.5 * height - 0.5
    return px, py


def cholesky_factor(params: np.ndarray):
    """Floored Cholesky factor ``L = [[l11, 0], [l21, l22]]`` of every
    Gaussian, whose covariance is ``L L^T``.

    ``params`` holds whole 9-scalar blocks. The diagonal entries are floored
    to ``max(|l|, CHOLESKY_FLOOR)``, which keeps ``L L^T`` symmetric positive
    definite for any input. Returns ``(l11, l21, l22)`` in normalized units,
    one value per Gaussian.
    """
    p = np.asarray(params, dtype=np.float64).reshape(-1, PARAMS_PER_GAUSSIAN)
    a = np.maximum(np.abs(p[:, F_L11]), CHOLESKY_FLOOR)
    b = p[:, F_L21]
    c = np.maximum(np.abs(p[:, F_L22]), CHOLESKY_FLOOR)
    return a, b, c


def clip_positions(dset: DistilledSet, eps: float = DEFAULT_CLIP_EPS
                   ) -> DistilledSet:
    """Clamp every position into [-1+eps, 1-eps], in place. Idempotent."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    lo, hi = -1.0 + eps, 1.0 - eps
    for f in (F_U, F_V):
        view = dset.field_view(f)
        np.clip(view, lo, hi, out=view)
    return dset
