"""Forward splatting of Gaussian sets onto pixel grids.

Two render paths share one tile front end (``_tile_kernel``) and one block
shading routine (``_shade``):

* ``render_reference`` — single-threaded brute force, every Gaussian
  evaluated at every (sub)sample of one image, no cutoff. This is the oracle.
  It walks the image in the tiles' ``tile_size`` blocks, placed by its own
  loops, so both paths hand per-block products the same shapes (a BLAS
  product may give a row different bits when the row count changes).
* ``render_batched`` — the whole batch rendered as one flat workload: each
  Gaussian emits intersection records against the tiles its window
  reaches (the tiles of its bounding box whose sample rectangle the
  window's ellipse meets), records are sorted by global tile id, and every
  tile is an independent work unit that owns its pixel block. The backward
  pass in ``gradients`` walks the same tile schedule, built once per
  training step. Given a fit's targets, the call is the fit step's one
  tile pass, which also reduces the backward (see ``gradients``).

Each block is shaded by one BLAS product: its (samples x records) kernel
values times the (records x 3) matrix of alpha times colour. With
``cutoff_sigma = inf`` both paths perform identical arithmetic per sample
(same kernel values, same product on the same block shapes), so they agree
bitwise. The batched path windows the kernel smoothly to compact support:
inside the Mahalanobis ball ``q = d^T Sigma'^-1 d < cutoff^2`` the
contribution is ``alpha * exp(-q/2 + tau/cutoff^2 - tau/(cutoff^2 - q)) *
color``, one ``exp`` of the summed exponent, and exactly zero outside. An
infinite cutoff is an infinite bounding box, which bins every Gaussian to
every tile of its image, and makes both window terms exactly 0 in the same
formula.
The window and all its derivatives vanish at the boundary, so values never
depend on which over-inclusive tile lists a Gaussian landed in, and finite
differences through the renderer stay well behaved for gradient checking.

All accumulation happens in double precision; outputs are stored as float32
unless a wider ``out_dtype`` is requested (the gradient-check harness needs
float64 outputs). Both paths reject an image with a pixel that leaves
``out_dtype``'s range.

A tile evaluates dense (samples x records) intermediates. A call runs one
task per worker, and each task owns one ``_TileScratch`` sized for the
largest tile and pulls tiles from an iterator that all tasks share. Every
tile writes its intermediates into views of the scratch through ``out=``
arguments, in the order of plain array expressions, so values do not
change by a bit. Fresh 0.2-1 MB temporaries per tile went back to the
kernel and were faulted in again by the next tile (see the README).

A block's (h, w, f, f) samples (f = ssaa factor) take only w * f distinct x
and h * f distinct y coordinates. ``_axis_grids`` returns them per axis,
and the schedule builds them once per tile column and tile row. A tile
gathers its records' means and whitening entries in one fancy index from
the table's packed ``front`` columns.
One tile front end, ``_tile_kernel``, serves the forward, the oracle and
the backward. It whitens each offset d = x - mu by the Gaussian's
pixel-space Cholesky factor, Sigma' = L'L'^T with L' = [[p, 0], [r, s]],
whose inverse entries 1/p, 1/s and r/(p s) the table holds: z1 = dx/p
forms on the (w, f, records) x grid, and z2 = dy/s - r/(p s) dx, broadcast
into the (h, w, f, f, records) view of the scratch, is the only full-size
offset. q = z2^2 + z1^2 then takes three passes over every sample (the
difference, the square and the sum), as the expanded quadratic form did,
with less cancellation for thin Gaussians. The cutoff window is applied by
branch-free ``fmax`` selects against the outside mask instead of masked
copies. So the backward differentiates, bit for bit, the kernel values the
forward shaded. A pixel's f * f shaded samples are added in offset order
and then divided by f * f, the same order at every channel count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    CUTOFF_WINDOW_TAU,
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
    cholesky_factor,
    normalized_to_pixel,
)

# variance of a unit pixel box filter, per axis: the prefilter adds it to
# every pixel-space covariance, so narrow Gaussians stay resolvable
PREFILTER_VARIANCE = 1.0 / 12.0


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

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The (H, W, C) view, cast or copied only when asked, so
        ``np.asarray`` of a list of buffers is the (N, H, W, C) batch.
        ``astype`` does both, as NumPy 1.x's ``asarray`` has no ``copy``."""
        arr = self.pixels.reshape(self.height, self.width, self.channels)
        return arr.astype(arr.dtype if dtype is None else dtype,
                          copy=bool(copy))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "ImageBuffer":
        arr = np.asarray(arr)
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


class _GaussianTable:
    """Per-Gaussian quantities derived once per render/backward call.

    Everything is pixel-space and comes from one factor per Gaussian:
    L' = [[p, 0], [r, s]] with L'L'^T = S L L^T S + beta I, for S =
    diag(W/2, H/2), L the floored factor and beta the prefilter's box
    variance (0 without it). The table holds the means, the whitening
    entries 1/p, 1/s and r/(p s), and bounding-box half-widths ``cutoff *
    p`` and ``cutoff * hypot(r, s)``, the x and y extents of the window's
    ellipse q < cutoff^2 (inf at an infinite cutoff). Every render path
    builds this table, so each rejects the same inputs: a set whose
    geometry differs from the config's raises a ``ValueError`` first, and a
    non-finite parameter, or a pixel-space mean, covariance or squared
    Mahalanobis distance (at a sample of the image) that overflows, or an
    opacity times colour that overflows (each factor may be finite while
    their product is not), raises one naming the image and the Gaussian.
    """

    def __init__(self, dset: DistilledSet, cfg: RenderConfig) -> None:
        if (dset.width, dset.height, dset.channels) != (
                cfg.width, cfg.height, cfg.channels):
            raise ValueError(
                f"geometry mismatch: set is {dset.width}x{dset.height}x"
                f"{dset.channels}, config is "
                f"{cfg.width}x{cfg.height}x{cfg.channels}")
        p = dset.params.reshape(-1, PARAMS_PER_GAUSSIAN)
        self.count = p.shape[0]

        self.scale_x = sx = cfg.width / 2.0
        self.scale_y = sy = cfg.height / 2.0

        self.l11_raw = p[:, F_L11]
        self.l22_raw = p[:, F_L22]
        self.alpha = p[:, F_ALPHA]
        self.colors = p[:, F_R:F_B + 1]
        beta = PREFILTER_VARIANCE if cfg.prefilter else 0.0
        # a huge finite parameter may overflow to inf or NaN here; the
        # check below rejects what that leaves unusable
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # alpha times colour, the (count, 3) matrix the tiles shade with
            self.shade = self.alpha[:, None] * self.colors
            self.l11, self.l21, self.l22 = cholesky_factor(p)
            self.mu_x, self.mu_y = normalized_to_pixel(
                p[:, F_U], p[:, F_V], cfg.width, cfg.height)
            # L' from S L = [[xa, 0], [yb, yc]] and beta: p^2 = xa^2 + beta,
            # r = xa yb/p and s^2 = yc^2 + beta + (yb sqrt(beta)/p)^2, sums of
            # positive terms, so s > 0 and nothing cancels; at beta = 0 it
            # is S L itself. The tiles whiten an offset d into z = L'^-1 d,
            # z1 = dx/p and z2 = dy/s - r/(p s) dx, so that q = z1^2 + z2^2
            xa, yb, yc = sx * self.l11, sy * self.l21, sy * self.l22
            p_ = np.sqrt(xa * xa + beta)
            r_ = yb * (xa / p_)
            s_ = np.sqrt(yc * yc + beta + (yb * math.sqrt(beta) / p_) ** 2)
            self.inv_p = 1.0 / p_
            self.inv_s = 1.0 / s_
            self.shear = r_ / (p_ * s_)
            # a bound on |z1| and |z2|, and so on q and every term of it, over
            # the image's samples, which lie in [-0.5, W - 0.5] x [-0.5,
            # H - 0.5]: a finite mean far off the image would overflow q to
            # inf, or to NaN through z2's difference
            ex = np.maximum(np.abs(self.mu_x + 0.5),
                            np.abs(cfg.width - 0.5 - self.mu_x))
            ey = np.maximum(np.abs(self.mu_y + 0.5),
                            np.abs(cfg.height - 0.5 - self.mu_y))
            q_max = ((ex * self.inv_p) ** 2
                     + (ey * self.inv_s + np.abs(self.shear) * ex) ** 2)
        # finite parameters whose covariance overflows leave p or s inf or
        # NaN; a finite floored factor always gives p, s > 0
        finite = np.isfinite(p).all(axis=1)
        mean_ok = np.isfinite(self.mu_x) & np.isfinite(self.mu_y)
        cov_ok = np.isfinite(p_) & np.isfinite(s_)
        q_ok = np.isfinite(q_max)
        shade_ok = np.isfinite(self.shade).all(axis=1)
        bad = np.flatnonzero(~(finite & mean_ok & cov_ok & q_ok & shade_ok))
        if bad.size:
            b = bad[0]
            image, k = divmod(int(b), dset.gaussians_per_image)
            what = ("parameters must be finite" if not finite[b] else
                    "pixel-space mean is not finite" if not mean_ok[b] else
                    "pixel-space covariance is not finite" if not cov_ok[b]
                    else "Mahalanobis distance overflows over the image"
                    if not q_ok[b] else "opacity times colour overflows")
            raise ValueError(f"image {image}, Gaussian {k}: {what}")

        # the five columns every tile reads, packed so that one fancy index
        # gathers a tile's records from all of them; the named columns are
        # views of its rows
        self.front = np.stack([self.mu_x, self.mu_y, self.inv_p, self.inv_s,
                               self.shear])
        self.mu_x, self.mu_y, self.inv_p, self.inv_s, self.shear = self.front

        # sqrt(Sigma'_00) = p and sqrt(Sigma'_11) = hypot(r, s); an infinite
        # cutoff, or an accepted but huge covariance, gives inf, which bins
        # the Gaussian to every tile of its image along that axis
        with np.errstate(over="ignore"):
            self.radius_x = cfg.cutoff_sigma * p_
            self.radius_y = cfg.cutoff_sigma * np.hypot(r_, s_)
        self.cutoff_q = cfg.cutoff_sigma ** 2

    def kernel(self, q: np.ndarray, v: np.ndarray, mask: np.ndarray,
               slope: np.ndarray | None = None):
        """Windowed kernel value v at squared Mahalanobis distance q.

        Inside the window v is one ``exp`` of the summed exponent
        ``(-q/2 + tau/cutoff^2) - tau/(cutoff^2 - q)``, which is exactly 0
        at the mean; at infinite cutoff both window terms are exactly 0, so
        v is ``exp(-q/2)``. Writes v into ``v`` and returns it. With a
        ``slope`` array also writes ``v_geo = -2 dv/dq`` there and returns
        ``(v, v_geo)``; ``v_geo`` is ``v * (1 + 2 tau / (cutoff^2 - q)^2)``
        inside the window. ``q`` is overwritten and ``mask`` is boolean work
        space, both of v's shape. Outside the window (q >= cutoff^2, or q
        NaN) both are exactly +0.0.
        """
        tau = CUTOFF_WINDOW_TAU
        np.multiply(-0.5, q, out=v)
        # the margin cutoff^2 - q, set to 1 outside the window by fmax, which
        # returns its other operand for a NaN margin (an infinite q at an
        # infinite cutoff leaves inf - inf); branch-free selects cost a
        # fraction of a masked copy
        with np.errstate(invalid="ignore"):
            safe = np.subtract(self.cutoff_q, q,
                               out=q if slope is None else slope)
        outside = np.logical_not(np.greater(safe, 0.0, out=mask), out=mask)
        np.fmax(safe, outside, out=safe)
        np.add(v, tau / self.cutoff_q, out=v)
        np.subtract(v, np.divide(tau, safe, out=q), out=v)
        # outside the window the exponent is tau/cutoff^2 - tau - q/2, which
        # exp overflows below a cutoff of about 0.0375, or NaN for a NaN q;
        # fmin caps both at 700, so exp stays finite and v * 0 is exactly
        # +0.0. Inside, the exponent is at most about -q/2.
        np.exp(np.fmin(v, 700.0, out=v), out=v)
        np.multiply(v, np.logical_not(outside, out=mask), out=v)
        if slope is None:
            return v
        np.divide(2.0 * tau, np.multiply(safe, safe, out=slope), out=slope)
        np.multiply(v, np.add(1.0, slope, out=slope), out=slope)
        return v, slope


class _TileScratch:
    """Work buffers for one worker's (samples x records) intermediates.

    Sized for the largest tile of ``cfg``, whose samples are its tile_size
    x tile_size pixels (fewer on a smaller image) times ssaa^2, with
    ``records`` records. ``views(shape)`` returns views of that shape at the
    start of each buffer, so the tiles a worker runs in one call reuse the
    same pages (see the module docstring for why).
    """

    SLOTS = 4

    def __init__(self, cfg: RenderConfig, records: int) -> None:
        samples = (min(cfg.tile_size, cfg.width)
                   * min(cfg.tile_size, cfg.height) * cfg.ssaa_factor ** 2)
        size = samples * records
        self._slots = [np.empty(size) for _ in range(self.SLOTS)]
        self._mask = np.empty(size, dtype=bool)

    def views(self, shape: tuple):
        """``([SLOTS float64 arrays], bool mask)``, each of ``shape``."""
        k = math.prod(shape)
        return ([s[:k].reshape(shape) for s in self._slots],
                self._mask[:k].reshape(shape))


def _tile_kernel(gx: np.ndarray, gy: np.ndarray, tbl: _GaussianTable,
                 idx: np.ndarray, scratch: _TileScratch, geo: bool = False):
    """The one tile front end of the forward, the oracle and the backward.

    ``gx`` (w, f) and ``gy`` (h, f) are a block's per-axis sample
    coordinates from :func:`_axis_grids`, ``idx`` its Gaussians (m,).
    Returns ``(v, v_geo, dx, z2, free)``: v (n, m) is the windowed kernel at
    the block's n = h * w * f * f samples; v_geo (n, m) is ``-2 dv/dq`` if
    ``geo``, else None; dx (1, w, f, 1, m) is sample minus mean along x and
    z2 (h, w, f, f, m) the second whitened offset (see
    :class:`_GaussianTable`); ``free`` (n, m) is the slot that held q.
    """
    (w, f), h, m = gx.shape, gy.shape[0], idx.size
    n = h * w * f * f
    (q, z2, v, slope), mask = scratch.views((h, w, f, f, m))
    mu_x, mu_y, inv_p, inv_s, shear = tbl.front[:, idx]
    dx = np.subtract(gx[:, :, None], mu_x)[None, :, :, None]
    dy = np.subtract(gy[:, :, None], mu_y)[:, None, None]
    # q = z2^2 + z1^2: z1 = dx/p lives on the x grid, so only z2's
    # difference, its square and the sum run over every sample
    z1 = dx * inv_p
    np.subtract(dy * inv_s, shear * dx, out=z2)
    np.add(np.multiply(z2, z2, out=q), z1 * z1, out=q)
    out = tbl.kernel(q, v, mask, slope=slope if geo else None)
    v_geo = out[1].reshape(n, m) if geo else None
    return v.reshape(n, m), v_geo, dx, z2, q.reshape(n, m)


def _shade(v: np.ndarray, tbl: _GaussianTable, idx: np.ndarray,
           out: np.ndarray) -> None:
    """Write the pixels of one block into ``out`` (h, w, channels), each the
    mean of its f * f samples, from the block's (samples x records) kernel
    values ``v`` of :func:`_tile_kernel`, accumulated in float64. The kernel
    values are shaded by one BLAS product with the (records x 3) matrix of
    alpha times colour. Every render path shades a block of the same shape,
    so they agree bitwise with each other on one BLAS build. A sum, or the
    cast to ``out``'s dtype, may overflow to inf or NaN;
    :func:`_check_range` rejects that.
    """
    h, w, channels = out.shape
    ff = v.shape[0] // (h * w)
    # errstate is per thread, so each tile sets its own
    with np.errstate(over="ignore", invalid="ignore"):
        # as (3 x records) times (records x rows): in this orientation every
        # row's bits held across row counts and positions on OpenBLAS 0.3.31
        # below about 390 records (at 389-399 a pixel moved by up to 8.1e-16
        # relative across tile sizes), while (rows x records) times (records
        # x 3) varied with the row count at some record counts
        shaded = (tbl.shade[idx].T @ v.T)[:channels]
        # a pixel's f * f samples are adjacent columns: add them in offset
        # order, one strided add each, the same order at every channel count
        pix = shaded[:, ::ff].copy()
        for o in range(1, ff):
            pix += shaded[:, o::ff]
        pix /= ff
        out[...] = pix.T.reshape(h, w, channels)


def _check_range(image: np.ndarray, index: int) -> None:
    """Reject a rendered image with a pixel outside its dtype's range. Every
    table entry is finite, so only an overflowing sum or cast leaves one."""
    if not np.isfinite(image).all():
        raise ValueError(f"image {index}: a rendered pixel overflows "
                         f"{image.dtype}")


def _axis_grids(extent: int, tile_size: int, steps: np.ndarray) -> list:
    """Per-axis sample coordinates of each tile_size block along an axis.

    Block ``k`` covers pixels [k * tile_size, min((k + 1) * tile_size,
    extent)) and gets a (pixels, f) grid for the per-axis ssaa ``steps``
    (f,). A block's samples are (h, w, f, f) in raster order: pixel (y, x)
    at offset ``ix * f + iy`` (see :func:`ssaa_offsets`) sits at ``(gx[x,
    ix], gy[y, iy])`` of its column's grid ``gx`` and its row's grid
    ``gy``, so a trailing reshape to (npix, f * f) recovers the per-pixel
    groups.
    """
    return [np.add.outer(np.arange(a, min(a + tile_size, extent),
                                   dtype=np.float64), steps)
            for a in range(0, extent, tile_size)]


def render_reference(dset: DistilledSet, image_index: int, cfg: RenderConfig,
                     out_dtype=np.float32) -> ImageBuffer:
    """Brute-force render of one image: every Gaussian at every sample.

    Ignores the cutoff by contract (this path is the oracle), honors
    prefilter and ssaa. Single-threaded. Walks the image in ``tile_size``
    blocks placed by its own loops, not by binning or the tile schedule, so
    the batched path's block placement is still checked independently.
    """
    tbl = _GaussianTable(dset, replace(cfg, cutoff_sigma=np.inf))
    if not 0 <= image_index < dset.num_images:
        raise ValueError("image index out of range")
    m = dset.gaussians_per_image
    idx = np.arange(image_index * m, (image_index + 1) * m)
    steps = _ssaa_steps(cfg.ssaa_factor)
    ts = cfg.tile_size
    scratch = _TileScratch(cfg, m)
    out = np.empty((cfg.height, cfg.width, cfg.channels), dtype=out_dtype)
    grids_x = _axis_grids(cfg.width, ts, steps)
    for y0, gy in zip(range(0, cfg.height, ts),
                      _axis_grids(cfg.height, ts, steps)):
        for x0, gx in zip(range(0, cfg.width, ts), grids_x):
            v = _tile_kernel(gx, gy, tbl, idx, scratch)[0]
            _shade(v, tbl, idx, out[y0:y0 + gy.shape[0], x0:x0 + gx.shape[0]])
    _check_range(out, image_index)
    return ImageBuffer.from_array(out)


def build_intersection_records(dset: DistilledSet, cfg: RenderConfig,
                               tbl: _GaussianTable | None = None
                               ) -> tuple[IntersectionRecords, TileLayout]:
    """Map every Gaussian to the tiles its window reaches.

    The candidates are the tiles its box touches: the box spans the
    window's ellipse along each axis (half-widths ``radius_x`` and
    ``radius_y`` of the table), padded to whole pixels. A candidate is kept
    only if the ellipse ``q < cutoff^2`` reaches the tile's sample rectangle
    (see :func:`_window_reaches`); outside it every sample's window is
    exactly 0. With an infinite cutoff the box and the ellipse are
    infinite, so every Gaussian maps to every tile of its image. Records
    come out sorted by global tile id; within a tile, Gaussian indices
    ascend, matching the reference path's accumulation order.
    """
    if tbl is None:
        tbl = _GaussianTable(dset, cfg)
    layout = TileLayout.for_geometry(cfg.width, cfg.height, cfg.tile_size,
                                     dset.num_images)
    n = tbl.count
    ts = cfg.tile_size

    # pixel i's samples live in [i-0.5, i+0.5); pad the box accordingly
    px0 = np.floor(tbl.mu_x - tbl.radius_x - 0.5)
    px1 = np.ceil(tbl.mu_x + tbl.radius_x + 0.5)
    py0 = np.floor(tbl.mu_y - tbl.radius_y - 0.5)
    py1 = np.ceil(tbl.mu_y + tbl.radius_y + 0.5)
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
    gauss_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
    # enumerate each Gaussian's (ty, tx) tile rectangle in row-major order
    local = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts)
    rect_w = np.repeat(nx, counts)
    tile_x = np.repeat(tx0, counts) + local % rect_w
    tile_y = np.repeat(ty0, counts) + local // rect_w
    keep = _window_reaches(tbl, cfg, gauss_idx, tile_x, tile_y)
    gauss_idx, tile_x, tile_y = gauss_idx[keep], tile_x[keep], tile_y[keep]
    image_idx = gauss_idx // dset.gaussians_per_image
    tile_ids = (image_idx * layout.tiles_per_image
                + tile_y * layout.tiles_x + tile_x)

    order = np.argsort(tile_ids, kind="stable")
    return IntersectionRecords(tile_ids[order], gauss_idx[order]), layout


# candidate records tested at once by _window_reaches: it holds about a
# dozen float64 temporaries of this length, so binning's memory stays small
# (and at 128^2 larger chunks ran slower)
_REACH_CHUNK = 4096


def _window_reaches(tbl: _GaussianTable, cfg: RenderConfig, gauss: np.ndarray,
                    tile_x: np.ndarray, tile_y: np.ndarray) -> np.ndarray:
    """Whether each candidate's ellipse ``q < cutoff^2`` reaches its tile's
    sample rectangle, the hull of the tile's ssaa samples.

    q is a convex quadratic, least (0) at the mean. Over the rectangle it is
    least on the line at the mean's x clamped into the rectangle, or on the
    one at the mean's clamped y: the edges that face the mean when it lies
    outside the rectangle along that axis, or lines through the mean when it
    lies inside. Along each line q is a 1-D quadratic, least at a clamped
    point. The test keeps a record whose minimum is below cutoff^2 (1 +
    1e-9), which covers rounding: the window is exactly 0 once cutoff^2 - q
    is below about tau/745. A NaN, left by the overflow of an accepted but
    huge Gaussian, keeps the record.
    """
    steps = _ssaa_steps(cfg.ssaa_factor)
    ts = cfg.tile_size
    limit = tbl.cutoff_q * (1.0 + 1e-9)
    keep = np.empty(gauss.size, dtype=bool)
    for lo in range(0, gauss.size, _REACH_CHUNK):
        part = slice(lo, lo + _REACH_CHUNK)
        mu_x, mu_y, inv_p, inv_s, shear = tbl.front[:, gauss[part]]
        x0, y0 = tile_x[part] * ts, tile_y[part] * ts
        # offsets from the mean to the rectangle's sides, as the tiles form
        # a sample's offset
        dx0 = (x0 + steps[0]) - mu_x
        dx1 = (np.minimum(x0 + ts, cfg.width) - 1 + steps[-1]) - mu_x
        dy0 = (y0 + steps[0]) - mu_y
        dy1 = (np.minimum(y0 + ts, cfg.height) - 1 + steps[-1]) - mu_y
        with np.errstate(over="ignore", invalid="ignore"):
            # at dx = ax, q = (ax/p)^2 + (dy/s - r/(p s) ax)^2 is least at
            # dy = r ax/p; at dy = ay, q = (dx/p)^2 + (ay/s - r/(p s) dx)^2
            # is least at dx = (r/(p s)) (ay/s) / h^2 with h^2 = 1/p^2 +
            # (r/(p s))^2, formed through hypot so that no square overflows
            ax = np.clip(0.0, dx0, dx1)
            ay = np.clip(0.0, dy0, dy1)
            h = np.hypot(inv_p, shear)
            line_x = (ax, np.clip(shear * ax / inv_s, dy0, dy1))
            line_y = (np.clip(shear / h * (ay * inv_s / h), dx0, dx1), ay)
            q = [(dy * inv_s - shear * dx) ** 2 + (dx * inv_p) ** 2
                 for dx, dy in (line_x, line_y)]
            keep[part] = ~(np.minimum(*q) >= limit)
    return keep


class _TileSchedule:
    """The tiles of one render or backward call, in ascending global tile id.

    Tile ``t`` owns the pixel block ``blocks[t] = (image, x0, x1, y0, y1)``,
    its sample grid and the contiguous slice of records that land on it. The
    per-axis grids are built once per tile column and tile row. The
    training step builds one schedule, which its one or two passes walk; a
    pass given one checks that it was built from its set object and an
    equal config.
    """

    def __init__(self, dset: DistilledSet, cfg: RenderConfig) -> None:
        self.dset = dset
        self.cfg = cfg
        self.tbl = _GaussianTable(dset, cfg)
        self.records, self.layout = build_intersection_records(dset, cfg,
                                                               self.tbl)
        steps = _ssaa_steps(cfg.ssaa_factor)
        ts = cfg.tile_size
        self.grids_x = _axis_grids(cfg.width, ts, steps)
        self.grids_y = _axis_grids(cfg.height, ts, steps)
        ids = self.records.global_tile_ids
        self.tile_ids, starts = np.unique(ids, return_index=True)
        self.bounds = np.append(starts, ids.size)
        image, local = np.divmod(self.tile_ids, self.layout.tiles_per_image)
        y0, x0 = (a * ts for a in np.divmod(local, self.layout.tiles_x))
        self.blocks = np.stack([image, x0, np.minimum(x0 + ts, cfg.width), y0,
                                np.minimum(y0 + ts, cfg.height)], 1).tolist()

    @classmethod
    def of(cls, dset: DistilledSet, cfg: RenderConfig, schedule=None):
        """``schedule`` if built from ``dset`` and ``cfg``; new if None."""
        if schedule is None:
            return cls(dset, cfg)
        if schedule.dset is not dset or schedule.cfg != cfg:
            raise ValueError("tile schedule of another set or render config")
        return schedule

    def tile(self, t: int):
        """``((image, x0, x1, y0, y1), gx, gy, idx)`` of tile ``t``: its
        pixel block, its per-axis sample coordinates (see
        :func:`_axis_grids`) and its Gaussian indices."""
        block = self.blocks[t]
        ts = self.cfg.tile_size
        idx = self.records.gaussian_flat_indices[
            self.bounds[t]:self.bounds[t + 1]]
        return (block, self.grids_x[block[1] // ts],
                self.grids_y[block[3] // ts], idx)

    def map(self, run_tile, workers: int) -> list:
        """``run_tile(t, scratch)`` for every tile, results in tile order.

        Runs serially, or as one task per worker on a pool of ``workers``
        threads. Each task gets its own :class:`_TileScratch` for this call,
        sized for the largest tile: its samples times the most records any
        tile holds. A tile writes every scratch entry it reads and returns
        no view of it, so each tile is one independent work unit and the
        results do not depend on ``workers``, which must be at least 1.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        records = int(np.diff(self.bounds).max(initial=0))
        n_tiles = self.tile_ids.size
        results = [None] * n_tiles
        # the tasks share one iterator over the tile indices; next() on a
        # range iterator is one C call, atomic under the GIL, so each tile
        # is taken by exactly one task without a lock
        tiles = iter(range(n_tiles))

        def drain() -> None:
            scratch = _TileScratch(self.cfg, records)
            for t in tiles:
                results[t] = run_tile(t, scratch)

        if workers == 1 or n_tiles <= 1:
            drain()
            return results
        with ThreadPoolExecutor(max_workers=workers) as pool:
            tasks = [pool.submit(drain) for _ in range(min(workers, n_tiles))]
            for task in tasks:
                task.result()
        return results


def render_batched(dset: DistilledSet, cfg: RenderConfig, workers: int = 1,
                   out_dtype=np.float32, schedule=None, targets=None):
    """Render every image of the batch through the tile pipeline.

    Each global tile is one work unit owning its pixel block, so the output
    is bitwise independent of ``workers``. With ``cutoff_sigma = inf`` the
    result matches :func:`render_reference` bitwise for every image. A
    ``schedule`` (see :meth:`_TileSchedule.of`) gives the same result.

    With the (N, H, W, C) ``targets`` the call is a fit step's one tile
    pass: each tile also reduces the backward of the MSE against them from
    the kernel values it has just shaded, and the call returns the (N, H,
    W, C) images and the flat gradient, with the bits of this call,
    ``optimize.mse_loss_grad`` and ``gradients.render_backward`` in turn.
    So a step's render stage is one ``render_batched`` call whatever its
    loss, and a wrapper on it (perfbench's tracer) sees every step.
    """
    sched = _TileSchedule.of(dset, cfg, schedule)
    if targets is not None:
        # gradients imports this module, so the pass is imported at call time
        from .gradients import _render_mse_backward
        return _render_mse_backward(sched, targets, workers, out_dtype)
    images = [np.zeros((cfg.height, cfg.width, cfg.channels), dtype=out_dtype)
              for _ in range(dset.num_images)]

    def run_tile(t: int, scratch: _TileScratch) -> None:
        (image_index, x0, x1, y0, y1), gx, gy, idx = sched.tile(t)
        v = _tile_kernel(gx, gy, sched.tbl, idx, scratch)[0]
        _shade(v, sched.tbl, idx, images[image_index][y0:y1, x0:x1])

    sched.map(run_tile, workers)
    for i, image in enumerate(images):
        _check_range(image, i)
    return [ImageBuffer.from_array(a) for a in images]
