"""Forward splatting of Gaussian sets onto pixel grids.

Two render paths share one sample-evaluation routine:

* ``render_reference`` — single-threaded brute force, every Gaussian
  evaluated at every (sub)sample of one image, no cutoff. This is the oracle.
* ``render_batched`` — the whole batch rendered as one flat workload: each
  Gaussian emits intersection records against the tiles its conservative
  bounding box touches, records are sorted by global tile id, and every tile
  is an independent work unit that owns its pixel block. The backward pass
  in ``gradients`` walks the same tile schedule.

With ``cutoff_sigma = inf`` both paths perform identical arithmetic per
sample (same contribution values reduced along the same axis), so they agree
bitwise. At finite cutoff the batched path windows the kernel smoothly to
compact support: inside the Mahalanobis ball ``q = d^T Sigma'^-1 d <
cutoff^2`` the contribution is ``alpha * g * exp(-tau/(cutoff^2 - q)) *
color`` and exactly zero outside. The window and all its derivatives vanish
at the boundary, so values never depend on which over-inclusive tile lists a
Gaussian landed in, and finite differences through the renderer stay well
behaved for gradient checking.

All accumulation happens in double precision; outputs are stored as float32
unless a wider ``out_dtype`` is requested (the gradient-check harness needs
float64 outputs).

A tile evaluates dense (samples x records) intermediates. Each worker of a
call owns one ``_TileScratch`` sized for the largest tile, and every tile
writes its intermediates into views of it through ``out=`` arguments. The
operations and their order are those of plain array expressions, so values
do not change by a bit. The scratch exists because of page faults: fresh
0.2-1 MB temporaries freed after every tile went back to the kernel and the
next tile faulted them in again. A
``gsdd render`` of eight 128x128 images at M=170 took about 610 000 minor
faults and 1.0-1.3 s of system time beside 1.2-1.4 s of user time (2-vCPU
x86-64 host); with the scratch it takes about 2 000 faults and 0.04 s.

A block's (h, w, f, f) samples (f = ssaa factor) take only w * f distinct x
and h * f distinct y coordinates. ``_sample_grid`` returns them per axis,
and the tile kernel forms the offsets from each Gaussian's mean, and their
products with the inverse covariance, on those (w, f, records) and (h, f,
records) grids, broadcasting them into the (h, w, f, f, records) view of
the scratch. Only the cross terms and the sums of q run over every sample.
The cutoff window is applied by branch-free ``fmax`` selects against the
outside mask instead of masked copies. IEEE add and multiply are exact per
element, so q and every pixel keep their bits. Against full-size arrays
for every term and masked copies, this takes about a third off the
forward and the backward (100 images of 32x32 at M=68, ssaa 2, 2 workers,
2-vCPU x86-64 host: 0.59 -> 0.41 s and 0.77 -> 0.48 s).
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    F_ALPHA,
    F_B,
    F_L11,
    F_L22,
    F_R,
    F_U,
    F_V,
    PARAMS_PER_GAUSSIAN,
    DistilledSet,
    RenderConfig,
    TileLayout,
    cholesky_cov,
    normalized_to_pixel,
)

PREFILTER_VARIANCE = 1.0 / 12.0  # variance of a unit pixel box filter, per axis

# Sharpness of the smooth compact cutoff window
# exp(tau/cutoff^2 - tau/(cutoff^2 - q)), normalized to 1 at the mean.
CUTOFF_WINDOW_TAU = 1.0


@dataclass
class ImageBuffer:
    """One rendered image: flat buffer, row-major, channel-minor."""

    width: int
    height: int
    channels: int
    pixels: np.ndarray

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels).reshape(-1)
        if self.pixels.size != self.width * self.height * self.channels:
            raise ValueError("pixel buffer length != width*height*channels")

    def as_array(self) -> np.ndarray:
        """(height, width, channels) view of the flat buffer."""
        return self.pixels.reshape(self.height, self.width, self.channels)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "ImageBuffer":
        arr = np.asarray(arr)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        h, w, c = arr.shape
        return cls(width=w, height=h, channels=c, pixels=arr.reshape(-1))

    @classmethod
    def zeros(cls, width: int, height: int, channels: int,
              dtype=np.float32) -> "ImageBuffer":
        return cls(width, height, channels,
                   np.zeros(width * height * channels, dtype=dtype))


@dataclass
class IntersectionRecords:
    """(tile, Gaussian) pairs, sorted nondecreasing in global tile id.

    ``gaussian_flat_indices`` index into the batch-wide Gaussian table
    (image-major), so a record pins down both the pixel block and the
    primitive to evaluate there.
    """

    global_tile_ids: np.ndarray
    gaussian_flat_indices: np.ndarray

    def __len__(self) -> int:
        return self.global_tile_ids.size


def _ssaa_steps(factor: int) -> np.ndarray:
    """Per-axis subpixel offsets (factor,) of the factor x factor grid."""
    if factor < 1:
        raise ValueError("ssaa factor must be >= 1")
    return np.array([(2 * t + 1) / (2 * factor) - 0.5 for t in range(factor)])


def ssaa_offsets(factor: int) -> list[tuple[float, float]]:
    """Subpixel sample offsets of a regular factor x factor grid.

    Offsets are relative to the pixel center and average to (0, 0);
    ``factor=1`` degenerates to the center sample. Offset ``ix * factor +
    iy`` is ``(steps[ix], steps[iy])``.
    """
    steps = _ssaa_steps(factor).tolist()
    return [(dx, dy) for dx in steps for dy in steps]


def prefilter_cov(sigma_px: np.ndarray) -> np.ndarray:
    """Convolve a pixel-space covariance with the unit pixel box filter.

    Adds diag(1/12, 1/12), establishing a minimum rendering variance so
    arbitrarily narrow Gaussians stay resolvable on the grid.
    """
    sigma_px = np.asarray(sigma_px, dtype=np.float64)
    out = sigma_px.copy()
    out[0, 0] += PREFILTER_VARIANCE
    out[1, 1] += PREFILTER_VARIANCE
    return out


def check_geometry(dset: DistilledSet, cfg: RenderConfig) -> None:
    if (dset.width, dset.height, dset.channels) != (cfg.width, cfg.height,
                                                    cfg.channels):
        raise ValueError(
            f"geometry mismatch: set is {dset.width}x{dset.height}x"
            f"{dset.channels}, config is {cfg.width}x{cfg.height}x{cfg.channels}")


class _GaussianTable:
    """Per-Gaussian quantities derived once per render/backward call.

    Everything is pixel-space: means, inverse covariances (after the optional
    prefilter), determinants, and conservative bounding-box radii
    ``cutoff * sqrt(lambda_max(Sigma'))``. Every render path builds this
    table, so each rejects the same Gaussians: a non-finite parameter, or a
    pixel-space covariance that overflows or has no positive determinant,
    raises a ``ValueError`` naming the image and the Gaussian.
    """

    def __init__(self, dset: DistilledSet, cfg: RenderConfig) -> None:
        p = dset.params.reshape(-1, PARAMS_PER_GAUSSIAN)
        self.count = p.shape[0]

        sx = cfg.width / 2.0
        sy = cfg.height / 2.0
        self.scale_x = sx
        self.scale_y = sy

        self.l11_raw = p[:, F_L11]
        self.l22_raw = p[:, F_L22]
        # a huge finite Cholesky entry may overflow to inf or NaN here; the
        # check below rejects what that leaves unusable
        with np.errstate(over="ignore", invalid="ignore"):
            (self.l11, self.l21, self.l22), (s00, s01, s11) = cholesky_cov(p)
            # normalized covariance L L^T, then pixel space via diag(sx, sy)
            c00 = s00 * (sx * sx)
            c01 = s01 * (sx * sy)
            c11 = s11 * (sy * sy)
            if cfg.prefilter:
                c00 = c00 + PREFILTER_VARIANCE
                c11 = c11 + PREFILTER_VARIANCE
            det = c00 * c11 - c01 * c01
        # finite parameters whose covariance overflows leave det inf or NaN
        finite = np.isfinite(p).all(axis=1)
        bad = np.flatnonzero(~(finite & np.isfinite(det) & (det > 0.0)))
        if bad.size:
            image, k = divmod(int(bad[0]), dset.gaussians_per_image)
            what = ("pixel-space covariance is not finite with a positive "
                    "determinant" if finite[bad[0]]
                    else "parameters must be finite")
            raise ValueError(f"image {image}, Gaussian {k}: {what}")
        self.inv00 = c11 / det
        self.inv01 = -c01 / det
        self.inv11 = c00 / det

        self.mu_x, self.mu_y = normalized_to_pixel(p[:, F_U], p[:, F_V],
                                                   cfg.width, cfg.height)

        self.alpha = p[:, F_ALPHA]
        self.colors = p[:, F_R:F_B + 1]

        if np.isfinite(cfg.cutoff_sigma):
            # an accepted but huge covariance gets an inf radius, which bins
            # the Gaussian to every tile of its image
            with np.errstate(over="ignore", invalid="ignore"):
                half_tr = 0.5 * (c00 + c11)
                lam_max = half_tr + np.sqrt(
                    np.maximum(0.25 * (c00 - c11) ** 2 + c01 * c01, 0.0))
                self.radius = cfg.cutoff_sigma * np.sqrt(lam_max)
            self.cutoff_q = cfg.cutoff_sigma ** 2
            self.window_tau = CUTOFF_WINDOW_TAU
            self.window_gain = float(np.exp(CUTOFF_WINDOW_TAU / self.cutoff_q))
        else:
            self.radius = None
            self.cutoff_q = np.inf
            self.window_tau = 0.0
            self.window_gain = 1.0

    def kernel(self, q: np.ndarray, v: np.ndarray, mask: np.ndarray,
               slope: np.ndarray | None = None):
        """Windowed kernel value v at squared Mahalanobis distance q.

        Writes v into ``v`` and returns it. With a ``slope`` array also
        writes ``v_geo = -2 dv/dq`` there and returns ``(v, v_geo)``;
        ``v_geo`` is ``v * (1 + 2 tau / (cutoff^2 - q)^2)`` inside the window
        and v itself at infinite cutoff. ``q`` is overwritten and ``mask`` is
        boolean work space, both of v's shape. Outside the window (q >=
        cutoff^2, or q NaN) both are exactly +0.0.
        """
        np.exp(np.multiply(-0.5, q, out=v), out=v)
        if self.window_tau == 0.0:
            return v if slope is None else (v, v)
        # the margin cutoff^2 - q, set to 1 outside the window by fmax, which
        # returns its other operand for a NaN margin; branch-free selects
        # cost a fraction of a masked copy
        safe = np.subtract(self.cutoff_q, q, out=q if slope is None else slope)
        outside = np.logical_not(np.greater(safe, 0.0, out=mask), out=mask)
        np.fmax(safe, outside, out=safe)
        np.multiply(v, np.exp(np.divide(-self.window_tau, safe, out=q), out=q),
                    out=v)
        np.multiply(v, self.window_gain, out=v)
        # v * 0 is +0.0 or NaN outside the window; fmax takes both to +0.0
        inside = np.logical_not(outside, out=mask)
        np.fmax(np.multiply(v, inside, out=v), 0.0, out=v)
        if slope is None:
            return v
        np.divide(2.0 * self.window_tau, np.multiply(safe, safe, out=slope),
                  out=slope)
        np.multiply(v, np.add(1.0, slope, out=slope), out=slope)
        return v, slope


class _TileScratch:
    """Work buffers for one worker's (samples x records) intermediates.

    ``views(*shape)`` returns views of ``shape`` at the start of each buffer,
    so the tiles a worker runs in one call reuse the same pages (see the
    module docstring for why).
    """

    SLOTS = 5

    def __init__(self, samples: int, records: int) -> None:
        size = samples * records
        self._slots = [np.empty(size) for _ in range(self.SLOTS)]
        self._mask = np.empty(size, dtype=bool)

    def views(self, *shape: int):
        """``([SLOTS float64 arrays], bool mask)``, each of ``shape``."""
        k = math.prod(shape)
        return ([s[:k].reshape(shape) for s in self._slots],
                self._mask[:k].reshape(shape))


def _axis_offsets(gx: np.ndarray, gy: np.ndarray, tbl: _GaussianTable,
                  idx: np.ndarray):
    """``(dx, dy)``: sample minus mean per axis, shaped (1, w, f, 1, m) and
    (h, 1, 1, f, m) so they broadcast over a block's (h, w, f, f, m)
    samples x records."""
    dx = np.subtract(gx[:, :, None], tbl.mu_x[idx])
    dy = np.subtract(gy[:, :, None], tbl.mu_y[idx])
    return dx[None, :, :, None], dy[:, None, None]


def _evaluate_samples(gx: np.ndarray, gy: np.ndarray, tbl: _GaussianTable,
                      idx: np.ndarray, channels: int,
                      scratch: _TileScratch) -> np.ndarray:
    """Sum Gaussian contributions at the samples of one pixel block.

    ``gx`` (w, f) and ``gy`` (h, f) are the block's per-axis sample
    coordinates from :func:`_sample_grid`, ``idx`` selects the contributing
    Gaussians (m,). Returns (h * w * f * f, channels) float64, samples in
    raster order with the ssaa offsets innermost. The per-sample reduction
    runs over the trailing record axis so that any caller that presents the
    same records in the same order gets bitwise-identical sums. The
    (samples x records) intermediates live in ``scratch``.
    """
    (w, f), h, m = gx.shape, gy.shape[0], idx.size
    n = h * w * f * f
    (q, term, v, _, _), mask = scratch.views(h, w, f, f, m)
    dx, dy = _axis_offsets(gx, gy, tbl, idx)
    # q = inv00 dx dx + 2 inv01 dx dy + inv11 dy dy, summed left to right;
    # each factor is formed on its axis's grid, so only the cross term and
    # the two sums run over every sample
    np.add(tbl.inv00[idx] * dx * dx,
           np.multiply(2.0 * tbl.inv01[idx] * dx, dy, out=term), out=q)
    np.add(q, tbl.inv11[idx] * dy * dy, out=q)
    wts = np.multiply(tbl.alpha[idx], tbl.kernel(q, v, mask),
                      out=v).reshape(n, m)
    term = term.reshape(n, m)
    out = np.empty((n, channels), dtype=np.float64)
    for ch in range(channels):
        out[:, ch] = np.sum(np.multiply(wts, tbl.colors[idx, ch], out=term),
                            axis=1)
    return out


def _sample_grid(x0: int, x1: int, y0: int, y1: int, steps: np.ndarray):
    """Per-axis sample coordinates of the pixel block [x0,x1) x [y0,y1).

    Returns ``gx`` (w, f) and ``gy`` (h, f) for the per-axis ssaa
    ``steps`` (f,). The block's samples are (h, w, f, f) in raster order:
    pixel (y, x) at offset ``ix * f + iy`` (see :func:`ssaa_offsets`) sits
    at ``(gx[x, ix], gy[y, iy])``, so a trailing reshape to (npix, f * f)
    recovers the per-pixel groups.
    """
    gx = np.add.outer(np.arange(x0, x1, dtype=np.float64), steps)
    gy = np.add.outer(np.arange(y0, y1, dtype=np.float64), steps)
    return gx, gy


def render_reference(dset: DistilledSet, image_index: int, cfg: RenderConfig,
                     out_dtype=np.float32) -> ImageBuffer:
    """Brute-force render of one image: every Gaussian at every sample.

    Ignores the cutoff by contract (this path is the oracle), honors
    prefilter and ssaa. Single-threaded.
    """
    check_geometry(dset, cfg)
    if not 0 <= image_index < dset.num_images:
        raise ValueError("image index out of range")

    # cutoff disabled: evaluate the plain kernel everywhere
    ref_cfg = cfg if not np.isfinite(cfg.cutoff_sigma) else RenderConfig(
        cfg.width, cfg.height, cfg.channels, cfg.prefilter, cfg.ssaa_factor,
        np.inf, cfg.tile_size)
    tbl = _GaussianTable(dset, ref_cfg)
    m = dset.gaussians_per_image
    idx = np.arange(image_index * m, (image_index + 1) * m)

    steps = _ssaa_steps(cfg.ssaa_factor)
    n_off = cfg.ssaa_factor ** 2
    out = np.empty((cfg.height * cfg.width, cfg.channels), dtype=np.float64)

    # evaluate in row blocks to bound the (samples x gaussians) scratch
    rows_per_block = max(1, 2_000_000 // max(1, cfg.width * n_off * max(m, 1)))
    scratch = _TileScratch(
        min(rows_per_block, cfg.height) * cfg.width * n_off, m)
    for y0 in range(0, cfg.height, rows_per_block):
        y1 = min(y0 + rows_per_block, cfg.height)
        gx, gy = _sample_grid(0, cfg.width, y0, y1, steps)
        vals = _evaluate_samples(gx, gy, tbl, idx, cfg.channels, scratch)
        vals = vals.reshape(-1, n_off, cfg.channels).mean(axis=1)
        out[y0 * cfg.width:y1 * cfg.width] = vals

    img = out.reshape(cfg.height, cfg.width, cfg.channels).astype(out_dtype)
    return ImageBuffer.from_array(img)


def build_intersection_records(dset: DistilledSet, cfg: RenderConfig,
                               tbl: _GaussianTable | None = None
                               ) -> tuple[IntersectionRecords, TileLayout]:
    """Map every Gaussian to the tiles its bounding box touches.

    With an infinite cutoff every Gaussian maps to every tile of its image.
    Records come out sorted by global tile id; within a tile, Gaussian
    indices ascend, matching the reference path's accumulation order.
    """
    check_geometry(dset, cfg)
    if tbl is None:
        tbl = _GaussianTable(dset, cfg)
    layout = TileLayout.for_geometry(cfg.width, cfg.height, cfg.tile_size,
                                     dset.num_images)
    n = tbl.count
    ts = cfg.tile_size

    if tbl.radius is None:
        tx0 = np.zeros(n, dtype=np.int64)
        ty0 = np.zeros(n, dtype=np.int64)
        tx1 = np.full(n, layout.tiles_x - 1, dtype=np.int64)
        ty1 = np.full(n, layout.tiles_y - 1, dtype=np.int64)
        valid = np.ones(n, dtype=bool)
    else:
        # pixel i's samples live in [i-0.5, i+0.5); pad the radius accordingly
        px0 = np.floor(tbl.mu_x - tbl.radius - 0.5)
        px1 = np.ceil(tbl.mu_x + tbl.radius + 0.5)
        py0 = np.floor(tbl.mu_y - tbl.radius - 0.5)
        py1 = np.ceil(tbl.mu_y + tbl.radius + 0.5)
        valid = (px1 >= 0) & (px0 <= cfg.width - 1) & \
                (py1 >= 0) & (py0 <= cfg.height - 1)
        tx0 = (np.clip(px0, 0, cfg.width - 1) // ts).astype(np.int64)
        tx1 = (np.clip(px1, 0, cfg.width - 1) // ts).astype(np.int64)
        ty0 = (np.clip(py0, 0, cfg.height - 1) // ts).astype(np.int64)
        ty1 = (np.clip(py1, 0, cfg.height - 1) // ts).astype(np.int64)

    nx = np.where(valid, tx1 - tx0 + 1, 0)
    ny = np.where(valid, ty1 - ty0 + 1, 0)
    counts = nx * ny
    total = int(counts.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return IntersectionRecords(empty, empty.copy()), layout

    gauss_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
    # enumerate each Gaussian's (ty, tx) tile rectangle in row-major order
    local = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts)
    rect_w = np.repeat(nx, counts)
    tile_x = np.repeat(tx0, counts) + local % np.maximum(rect_w, 1)
    tile_y = np.repeat(ty0, counts) + local // np.maximum(rect_w, 1)
    image_idx = gauss_idx // dset.gaussians_per_image
    tile_ids = (image_idx * layout.tiles_per_image
                + tile_y * layout.tiles_x + tile_x)

    order = np.argsort(tile_ids, kind="stable")
    return IntersectionRecords(tile_ids[order], gauss_idx[order]), layout


def _tile_pixel_block(layout: TileLayout, cfg: RenderConfig, tile_id: int):
    image_index, local = divmod(tile_id, layout.tiles_per_image)
    ty, tx = divmod(local, layout.tiles_x)
    x0 = tx * cfg.tile_size
    y0 = ty * cfg.tile_size
    x1 = min(x0 + cfg.tile_size, cfg.width)
    y1 = min(y0 + cfg.tile_size, cfg.height)
    return image_index, x0, x1, y0, y1


class _TileSchedule:
    """The tiles of one render or backward call, in ascending global tile id.

    Holds the Gaussian table and the intersection records. Tile ``t`` owns
    one pixel block of one image, its sample grid, and the contiguous slice
    of records that land on it. Forward and backward walk the same schedule,
    so every tile sees the same records in the same order on both passes.
    """

    def __init__(self, dset: DistilledSet, cfg: RenderConfig) -> None:
        self.cfg = cfg
        self.tbl = _GaussianTable(dset, cfg)
        self.records, self.layout = build_intersection_records(dset, cfg,
                                                               self.tbl)
        self.steps = _ssaa_steps(cfg.ssaa_factor)
        ids = self.records.global_tile_ids
        self.tile_ids, starts = np.unique(ids, return_index=True)
        self.bounds = np.append(starts, ids.size)

    def tile(self, t: int):
        """``((image, x0, x1, y0, y1), gx, gy, idx)`` of tile ``t``: its
        pixel block, its per-axis sample coordinates (see
        :func:`_sample_grid`) and its Gaussian indices."""
        block = _tile_pixel_block(self.layout, self.cfg, int(self.tile_ids[t]))
        gx, gy = _sample_grid(*block[1:], self.steps)
        idx = self.records.gaussian_flat_indices[
            self.bounds[t]:self.bounds[t + 1]]
        return block, gx, gy, idx

    def map(self, run_tile, workers: int) -> list:
        """``run_tile(t, scratch)`` for every tile, results in tile order.

        Runs serially, or on a pool of ``workers`` threads. Each thread gets
        its own :class:`_TileScratch` for this call, sized for the largest
        tile: its samples times the most records any tile holds. A tile
        writes every scratch entry it reads and returns no view of it, so
        each tile is one independent work unit and the results do not depend
        on ``workers``.
        """
        cfg = self.cfg
        samples = (min(cfg.tile_size, cfg.width) * min(cfg.tile_size, cfg.height)
                   * cfg.ssaa_factor ** 2)
        records = int(np.diff(self.bounds).max(initial=0))
        n_tiles = self.tile_ids.size
        if workers <= 1 or n_tiles <= 1:
            scratch = _TileScratch(samples, records)
            return [run_tile(t, scratch) for t in range(n_tiles)]
        per_thread = threading.local()

        def run(t: int):
            if not hasattr(per_thread, "scratch"):
                per_thread.scratch = _TileScratch(samples, records)
            return run_tile(t, per_thread.scratch)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, range(n_tiles)))


def render_batched(dset: DistilledSet, cfg: RenderConfig, workers: int = 1,
                   out_dtype=np.float32) -> list[ImageBuffer]:
    """Render every image of the batch through the tile pipeline.

    Each global tile is one work unit owning its pixel block, so the output
    is bitwise independent of ``workers``. With ``cutoff_sigma = inf`` the
    result matches :func:`render_reference` bitwise for every image.
    """
    sched = _TileSchedule(dset, cfg)
    n_off = cfg.ssaa_factor ** 2
    images = [np.zeros((cfg.height, cfg.width, cfg.channels), dtype=out_dtype)
              for _ in range(dset.num_images)]

    def run_tile(t: int, scratch: _TileScratch) -> None:
        (image_index, x0, x1, y0, y1), gx, gy, idx = sched.tile(t)
        vals = _evaluate_samples(gx, gy, sched.tbl, idx, cfg.channels, scratch)
        vals = vals.reshape(-1, n_off, cfg.channels).mean(axis=1)
        block = vals.reshape(y1 - y0, x1 - x0, cfg.channels)
        images[image_index][y0:y1, x0:x1, :] = block.astype(out_dtype)

    sched.map(run_tile, workers)
    return [ImageBuffer.from_array(a) for a in images]
