"""Splatting of Gaussian sets onto pixel grids, and its backward.

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
  tile is an independent work unit that owns its pixel block.

One tile pass, ``_tile_pass``, walks a training step's one schedule for
the forward, the backward and the fit step: each tile runs the front end
once, shades its block when images are asked for and reduces the
backward's moments when an upstream is given. ``render_batched``,
``render_backward`` (a given upstream) and ``render_batched(...,
targets=)`` (a fit step's one pass, the MSE's upstream per block) call it.

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

A pass computes its tiles in one dtype. A pass that returns only images,
with a float32 ``out_dtype`` (the default), runs them in float32: the
offsets, q, the kernel and the shading product, from table columns and axis
grids cast once, with its schedule. Every other pass runs them in float64: a
float64 ``out_dtype`` (training's forward, the fit's final render, the
gradient-check harness) and every pass that reduces a gradient
(``render_backward`` and the fit pass). So the backward differentiates the
float64 kernel values of training's float64 forward. The table, binning,
the scatter and the pullback are float64 at every precision. Both paths
reject an image with a pixel that leaves ``out_dtype``'s range.

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
    CHOLESKY_FLOOR,
    CUTOFF_WINDOW_TAU,
    F_ALPHA,
    F_B,
    F_L11,
    F_L21,
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
        ``astype`` does both, as NumPy 1.x's ``asarray`` has no ``copy``;
        ``copy=False`` with a cast raises, as it does for an ndarray."""
        arr = self.pixels.reshape(self.height, self.width, self.channels)
        dtype = arr.dtype if dtype is None else np.dtype(dtype)
        if copy is False and dtype != arr.dtype:
            raise ValueError(f"Unable to avoid copy: casting {arr.dtype} to "
                             f"{dtype} needs one")
        return arr.astype(dtype, copy=bool(copy))

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

    Binning and the pullback read its float64 columns, the tiles its
    ``tile_front`` and ``tile_shade``: ``front`` and ``shade`` themselves
    at the default tile ``dtype``, float64, copies cast once at float32. A
    float32 table also rejects a Gaussian whose cast mean or whitening
    entries overflow, or whose squared Mahalanobis distance over the image
    may exceed half of float32's largest value (the rest is left for the
    tiles' rounding), so no tile overflows. An opacity times colour beyond
    float32 casts to inf quietly; :func:`_check_range` rejects its pixels.
    """

    def __init__(self, dset: DistilledSet, cfg: RenderConfig,
                 dtype=np.float64) -> None:
        if (dset.width, dset.height, dset.channels) != (
                cfg.width, cfg.height, cfg.channels):
            raise ValueError(
                f"geometry mismatch: set is {dset.width}x{dset.height}x"
                f"{dset.channels}, config is "
                f"{cfg.width}x{cfg.height}x{cfg.channels}")
        p = dset.params.reshape(-1, PARAMS_PER_GAUSSIAN)
        self.count = p.shape[0]
        self.per_image = dset.gaussians_per_image

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
            self.q_max = ((ex * self.inv_p) ** 2
                          + (ey * self.inv_s + np.abs(self.shear) * ex) ** 2)
        # finite parameters whose covariance overflows leave p or s inf or
        # NaN; a finite floored factor always gives p, s > 0
        self._reject([
            (np.isfinite(p).all(axis=1), "parameters must be finite"),
            (np.isfinite(self.mu_x) & np.isfinite(self.mu_y),
             "pixel-space mean is not finite"),
            (np.isfinite(p_) & np.isfinite(s_),
             "pixel-space covariance is not finite"),
            (np.isfinite(self.q_max),
             "Mahalanobis distance overflows over the image"),
            (np.isfinite(self.shade).all(axis=1),
             "opacity times colour overflows")])

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

        self.tile_front, self.tile_shade = self.front, self.shade
        if dtype != np.float64:
            with np.errstate(over="ignore"):
                self.tile_front = self.front.astype(dtype)
                self.tile_shade = self.shade.astype(dtype)
            self._reject([
                (np.isfinite(self.tile_front).all(axis=0),
                 f"pixel-space mean or whitening overflows {np.dtype(dtype)}"),
                (self.q_max <= float(np.finfo(dtype).max) / 2.0,
                 f"Mahalanobis distance overflows {np.dtype(dtype)} over the "
                 "image")])

    def _reject(self, checks: list) -> None:
        """Raise a ``ValueError`` naming the first Gaussian that fails any
        of ``checks``, ``(ok, what)`` pairs of (count,) masks, with the
        ``what`` of the first check it fails."""
        bad = np.flatnonzero(~np.logical_and.reduce([ok for ok, _ in checks]))
        if bad.size:
            b = bad[0]
            image, k = divmod(int(b), self.per_image)
            what = next(what for ok, what in checks if not ok[b])
            raise ValueError(f"image {image}, Gaussian {k}: {what}")

    def kernel(self, q: np.ndarray, v: np.ndarray, mask: np.ndarray,
               slope: np.ndarray | None = None):
        """Windowed kernel value v at squared Mahalanobis distance q.

        Inside the window v is one ``exp`` of the summed exponent
        ``(-q/2 + tau/cutoff^2) - tau/(cutoff^2 - q)``, which is exactly 0
        at the mean; at infinite cutoff both window terms are exactly 0, so
        v is ``exp(-q/2)``. Every step runs in v's dtype, ``tau/cutoff^2``
        included. Writes v into ``v`` and returns it. With a
        ``slope`` array also writes ``v_geo = -2 dv/dq`` there and returns
        ``(v, v_geo)``; ``v_geo`` is ``v * (1 + 2 tau / (cutoff^2 - q)^2)``
        inside the window. ``q`` is overwritten and ``mask`` is boolean work
        space, both of v's shape. Outside the window (q >= cutoff^2, or q
        NaN) both are exactly +0.0.
        """
        tau = CUTOFF_WINDOW_TAU
        edge = v.dtype.type(self.cutoff_q)
        np.multiply(-0.5, q, out=v)
        # the margin cutoff^2 - q, set to 1 outside the window by fmax, which
        # returns its other operand for a NaN margin (an infinite q at an
        # infinite cutoff leaves inf - inf); branch-free selects cost a
        # fraction of a masked copy
        with np.errstate(invalid="ignore"):
            safe = np.subtract(edge, q, out=q if slope is None else slope)
        outside = np.logical_not(np.greater(safe, 0.0, out=mask), out=mask)
        np.fmax(safe, outside, out=safe)
        np.add(v, tau / edge, out=v)
        np.subtract(v, np.divide(tau, safe, out=q), out=v)
        # outside the window the exponent is tau/cutoff^2 - tau - q/2, which
        # exp overflows below a cutoff of about 0.0375 (float64), or NaN for
        # a NaN q; fmin caps both at 0, so exp stays finite and v * 0 is
        # exactly +0.0. Inside, rounding is monotone, so with q >= 0 and
        # 0 < margin <= cutoff^2 the exponent rounds to at most 0 and the cap
        # moves no value at any precision.
        np.exp(np.fmin(v, 0.0, out=v), out=v)
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
    ``records`` records, in the pass's tile ``dtype``. ``views(shape)``
    returns views of that shape at the start of each buffer, so the tiles a
    worker runs in one call reuse the same pages (see the module docstring
    for why).
    """

    SLOTS = 4

    def __init__(self, cfg: RenderConfig, records: int, dtype) -> None:
        samples = (min(cfg.tile_size, cfg.width)
                   * min(cfg.tile_size, cfg.height) * cfg.ssaa_factor ** 2)
        size = samples * records
        self._slots = [np.empty(size, dtype=dtype) for _ in range(self.SLOTS)]
        self._mask = np.empty(size, dtype=bool)

    def views(self, shape: tuple):
        """``([SLOTS arrays of the tile dtype], bool mask)``, each of
        ``shape``."""
        k = math.prod(shape)
        return ([s[:k].reshape(shape) for s in self._slots],
                self._mask[:k].reshape(shape))


def _tile_kernel(gx: np.ndarray, gy: np.ndarray, tbl: _GaussianTable,
                 idx: np.ndarray, scratch: _TileScratch, geo: bool = False):
    """The one tile front end of the forward, the oracle and the backward.

    ``gx`` (w, f) and ``gy`` (h, f) are a block's per-axis sample
    coordinates from :func:`_axis_grids`, ``idx`` its Gaussians (m,). It
    computes in the tile dtype of the table, grids and scratch, float32 or
    float64 (see the module docstring).
    Returns ``(v, v_geo, dx, z2, free)``: v (n, m) is the windowed kernel at
    the block's n = h * w * f * f samples; v_geo (n, m) is ``-2 dv/dq`` if
    ``geo``, else None; dx (1, w, f, 1, m) is sample minus mean along x and
    z2 (h, w, f, f, m) the second whitened offset (see
    :class:`_GaussianTable`); ``free`` (n, m) is the slot that held q.
    """
    (w, f), h, m = gx.shape, gy.shape[0], idx.size
    n = h * w * f * f
    (q, z2, v, slope), mask = scratch.views((h, w, f, f, m))
    mu_x, mu_y, inv_p, inv_s, shear = tbl.tile_front[:, idx]
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
    values ``v`` of :func:`_tile_kernel`, accumulated in the tile dtype:
    float32 for an image-only float32 pass, float64 for every other. The
    kernel values are shaded by one BLAS product (one float32 GEMM per block
    in a float32 pass) with the (records x 3) matrix of alpha times colour.
    Every render path shades a block of the same shape in the same dtype,
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
        # x 3) varied with the row count at some record counts; one row
        # (a 1 x 1 block at ssaa 1) is repeated, as numpy would hand it to
        # GEMV, whose sums round unlike GEMM's
        n = v.shape[0]
        vt = v.T if n > 1 else np.repeat(v.T, 2, axis=1)
        shaded = (tbl.tile_shade[idx].T @ vt)[:channels, :n]
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


def _axis_grids(extent: int, tile_size: int, steps: np.ndarray,
                dtype=np.float64) -> list:
    """Per-axis sample coordinates of each tile_size block along an axis,
    formed in float64 and cast to ``dtype``.

    Block ``k`` covers pixels [k * tile_size, min((k + 1) * tile_size,
    extent)) and gets a (pixels, f) grid for the per-axis ssaa ``steps``
    (f,). A block's samples are (h, w, f, f) in raster order: pixel (y, x)
    at offset ``ix * f + iy`` (see :func:`ssaa_offsets`) sits at ``(gx[x,
    ix], gy[y, iy])`` of its column's grid ``gx`` and its row's grid
    ``gy``, so a trailing reshape to (npix, f * f) recovers the per-pixel
    groups.
    """
    return [np.add.outer(np.arange(a, min(a + tile_size, extent),
                                   dtype=np.float64), steps).astype(dtype)
            for a in range(0, extent, tile_size)]


def _tile_dtype(out_dtype) -> type:
    """The dtype the tiles of a pass that returns only images compute in:
    float32 for a float32 ``out_dtype``, else float64. A pass that reduces
    a gradient computes in float64."""
    return np.float32 if np.dtype(out_dtype) == np.float32 else np.float64


def render_reference(dset: DistilledSet, image_index: int, cfg: RenderConfig,
                     out_dtype=np.float32) -> ImageBuffer:
    """Brute-force render of one image: every Gaussian at every sample.

    Ignores the cutoff by contract (this path is the oracle), honors
    prefilter and ssaa. Single-threaded. Walks the image in ``tile_size``
    blocks placed by its own loops, not by binning or the tile schedule, so
    the batched path's block placement is still checked independently. Its
    tiles compute in :func:`render_batched`'s dtype for the same
    ``out_dtype``.
    """
    dtype = _tile_dtype(out_dtype)
    tbl = _GaussianTable(dset, replace(cfg, cutoff_sigma=np.inf), dtype)
    if not 0 <= image_index < dset.num_images:
        raise ValueError("image index out of range")
    m = dset.gaussians_per_image
    idx = np.arange(image_index * m, (image_index + 1) * m)
    steps = _ssaa_steps(cfg.ssaa_factor)
    ts = cfg.tile_size
    scratch = _TileScratch(cfg, m, dtype)
    out = np.empty((cfg.height, cfg.width, cfg.channels), dtype=out_dtype)
    grids_x = _axis_grids(cfg.width, ts, steps, dtype)
    for y0, gy in zip(range(0, cfg.height, ts),
                      _axis_grids(cfg.height, ts, steps, dtype)):
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
    per-axis grids are built once per tile column and tile row, as the
    table is, in the tile ``dtype`` of the passes that walk the schedule.
    The training step builds one float64 schedule for its one or two
    passes; a pass given one checks that it was built from its set object,
    an equal config and the pass's tile dtype.
    """

    def __init__(self, dset: DistilledSet, cfg: RenderConfig,
                 dtype=np.float64) -> None:
        self.dset = dset
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self.shape = (dset.num_images, cfg.height, cfg.width, cfg.channels)
        self.tbl = _GaussianTable(dset, cfg, dtype)
        self.records, self.layout = build_intersection_records(dset, cfg,
                                                               self.tbl)
        steps = _ssaa_steps(cfg.ssaa_factor)
        ts = cfg.tile_size
        self.grids_x = _axis_grids(cfg.width, ts, steps, dtype)
        self.grids_y = _axis_grids(cfg.height, ts, steps, dtype)
        ids = self.records.global_tile_ids
        self.tile_ids, starts = np.unique(ids, return_index=True)
        self.bounds = np.append(starts, ids.size)
        image, local = np.divmod(self.tile_ids, self.layout.tiles_per_image)
        y0, x0 = (a * ts for a in np.divmod(local, self.layout.tiles_x))
        self.blocks = np.stack([image, x0, np.minimum(x0 + ts, cfg.width), y0,
                                np.minimum(y0 + ts, cfg.height)], 1).tolist()

    @classmethod
    def of(cls, dset: DistilledSet, cfg: RenderConfig, schedule=None,
           dtype=np.float64):
        """``schedule`` if built from ``dset``, ``cfg`` and tile ``dtype``;
        new if None."""
        if schedule is None:
            return cls(dset, cfg, dtype)
        if (schedule.dset is not dset or schedule.cfg != cfg
                or schedule.dtype != dtype):
            raise ValueError("tile schedule of another set or render config "
                             "or tile dtype")
        return schedule

    def batch(self, arr, what: str, dtype=None) -> np.ndarray:
        """``arr`` as an array of the (N, H, W, C) ``shape`` of this
        schedule's images; otherwise a ``ValueError`` that names it as
        ``what`` ("upstream has", "targets have")."""
        arr = np.asarray(arr, dtype=dtype)
        if arr.shape != self.shape:
            raise ValueError(f"{what} shape {arr.shape}, expected "
                             f"{self.shape}")
        return arr

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
        tile holds, in the schedule's tile dtype. A tile writes
        every scratch entry it reads and returns no view of it, so each
        tile is one independent work unit and the results do not depend on
        ``workers``, which must be at least 1.
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
            scratch = _TileScratch(self.cfg, records, self.dtype)
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


def _mse_upstream(images, targets, size: int) -> np.ndarray:
    """The MSE's upstream 2 (images - targets) / size at each pixel, for
    images of ``size`` values each, in float64; inf or NaN where it
    overflows, without a warning, for the caller's checks to stop."""
    with np.errstate(over="ignore", invalid="ignore"):
        return 2.0 * (images - targets) / size


# The backward. Each tile reduces its (samples x records) matrices over the
# sample axis into per-record partial sums (_tile_moments). One sequential
# scatter, in ascending global tile id, adds them into per-Gaussian sums,
# and the chain rule to the nine parameters then runs once per Gaussian
# (_pullback). A tile's partials do not depend on which thread computed
# them and the scatter order is fixed, so the result is bitwise independent
# of the worker count. From the front end's whitened offsets z1 = dx/p and
# z2 (see the module docstring), a tile forms only w and w z2 over every
# sample and reduces five per-record moments, sum w dx, w dx^2, w z2,
# w z2 dx and w z2^2. Those in dx first sum w and w z2 over the y axes, to
# (w, f) per record, and then weight that by the block's (w, f) dx grid, so
# they cost two plain sums over every sample. After the scatter, the (A d)
# moments are rebuilt once per Gaussian through A d = L'^-T z.
#
# Derivation sketch, per contributing sample x and Gaussian k (pixel space,
# A = Sigma'^-1, d = x - mu, q = d^T A d, kernel value v = exp(-q/2) times
# the smooth cutoff window, g = sum_ch upstream_ch * color_ch). The whole
# q-chain factors through dv/dq = -v * (1/2 + tau/(cutoff^2 - q)^2),
# written below as v_geo = v * (1 + 2 tau / (cutoff^2 - q)^2), which is v
# at infinite cutoff:
#
#     d/d color_ch = alpha * v * upstream_ch
#     d/d alpha    = v * g                  = sum_ch color_ch * v * upstream_ch
#     d/d mu       = alpha * g * v_geo * (A d)
#     d/d Sigma'   = alpha * g * v_geo * 1/2 * (A d)(A d)^T
#
# Summed over samples, every factor that belongs to the Gaussian alone
# (alpha, color, L') moves out of the sum, so a tile keeps only the sums of
# v * upstream_ch and of w = g * v_geo times z and its outer product, in
# which z1 = dx/p lets 1/p move out too. The Sigma' gradient is pulled back
# through Sigma' = S (L L^T) S + box (S = diag(width/2, height/2)) to the
# three Cholesky entries and through the normalized-to-pixel map to (u, v).
# The diagonal floor max(|l|, delta) is piecewise identity: sign(l) passes
# through outside the floored region, zero inside it.


def _tile_moments(kernel: tuple, ub: np.ndarray, sched: _TileSchedule,
                  idx: np.ndarray) -> np.ndarray:
    """Per-record sums over one tile's samples: five moments of w = v_geo *
    g in dx and the whitened offset z2, then v * upstream_ch per channel,
    from the tile's ``_tile_kernel(..., geo=True)`` (its v_geo and q slots
    are overwritten) and the float64 (h, w, channels) upstream ``ub`` of its
    block, spread evenly over each pixel's ssaa samples. An inf or NaN
    moment is left to the caller's checks, without a warning."""
    v, v_geo, dx, z2, free = kernel
    n, m = v_geo.shape
    channels = ub.shape[2]
    n_off = sched.cfg.ssaa_factor ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        ub = np.repeat(ub.reshape(-1, channels), n_off, axis=0) / n_off
        part = np.empty((m, 5 + channels))
        part[:, 5:] = (ub.T @ v).T
        colors = sched.tbl.colors[idx, :channels]
        w = np.multiply(v_geo, np.matmul(ub, colors.T, out=free), out=v_geo)
        wz = np.multiply(w, z2.reshape(n, m), out=free)
        # the moments in dx sum the y axes first, each a plain sum to
        # (w, f, m), and then weight that by the block's (w, f, m) dx grid
        dx = dx[0, :, :, 0]
        w_y, wz_y = (a.reshape(z2.shape).sum(axis=0).sum(axis=2)
                     for a in (w, wz))
        part[:, 0] = (w_y * dx).sum(axis=(0, 1))
        part[:, 1] = (w_y * dx * dx).sum(axis=(0, 1))
        part[:, 2] = wz_y.sum(axis=(0, 1))
        part[:, 3] = (wz_y * dx).sum(axis=(0, 1))
        part[:, 4] = np.einsum("sr,sr->r", wz, z2.reshape(n, m))
    return part


def _pullback(sched: _TileSchedule, parts: list) -> np.ndarray:
    """The flat gradient from the tiles' :func:`_tile_moments`: one
    sequential scatter in ascending global tile id, then the chain rule
    once per Gaussian. A huge accepted opacity (1e306) may overflow it to
    inf or NaN, without a warning; the training step's check stops that."""
    tbl = sched.tbl
    grads = np.zeros(tbl.count * PARAMS_PER_GAUSSIAN)
    if not parts:
        return grads
    channels = sched.cfg.channels
    parts = np.concatenate(parts)
    gauss = sched.records.gaussian_flat_indices
    w_x, w_xx, w_z, w_zx, w_zz, *col = (
        np.bincount(gauss, weights=parts[:, j], minlength=tbl.count)
        for j in range(parts.shape[1]))
    col = np.stack(col, axis=1)

    with np.errstate(over="ignore", invalid="ignore"):
        # the (A d) moments from the whitened ones, A d = L'^-T z with
        # z1 = dx/p: sum w z1 = w_x/p, sum w z1^2 = w_xx/p^2 and
        # sum w z1 z2 = w_zx/p
        ip, sh, i_s = tbl.inv_p, tbl.shear, tbl.inv_s
        z1, z11, z12 = ip * w_x, ip * ip * w_xx, ip * w_zx
        # L'^-T = [[1/p, -r/(p s)], [0, 1/s]], applied to the moment vector
        # and on both sides of the second moment
        mx, my = ip * z1 - sh * w_z, i_s * w_z
        tx1, tx2 = ip * z11 - sh * z12, ip * z12 - sh * w_zz
        mxx, mxy, myy = ip * tx1 - sh * tx2, i_s * tx2, i_s * i_s * w_zz
        sx, sy = tbl.scale_x, tbl.scale_y
        alpha = tbl.alpha
        g = grads.reshape(-1, PARAMS_PER_GAUSSIAN)
        g[:, F_U] = alpha * mx * sx
        g[:, F_V] = alpha * my * sy
        # d/d Sigma' = alpha/2 * sum w (A d)(A d)^T, then the S ... S pullback
        g00 = 0.5 * alpha * mxx * (sx * sx)
        g01 = 0.5 * alpha * mxy * (sx * sy)
        g11 = 0.5 * alpha * myy * (sy * sy)
        # through Sigma = L L^T with L = [[a, 0], [b, c]]; the diagonal floor
        # passes sign(l) outside the floored band and zero inside it
        a, b, c = tbl.l11, tbl.l21, tbl.l22
        g[:, F_L11] = 2.0 * (g00 * a + g01 * b) * np.where(
            np.abs(tbl.l11_raw) > CHOLESKY_FLOOR, np.sign(tbl.l11_raw), 0.0)
        g[:, F_L21] = 2.0 * (g01 * a + g11 * b)
        g[:, F_L22] = 2.0 * g11 * c * np.where(
            np.abs(tbl.l22_raw) > CHOLESKY_FLOOR, np.sign(tbl.l22_raw), 0.0)
        g[:, F_R:F_R + channels] = alpha[:, None] * col
        g[:, F_ALPHA] = np.einsum("kc,kc->k", tbl.colors[:, :channels], col)
    return grads


def _tile_pass(sched: _TileSchedule, workers: int, images=None,
               upstream=None):
    """Walk the schedule's tiles once: each runs the front end, shades its
    block into the (N, H, W, C) ``images`` when they are given and, when
    ``upstream(at)`` is, reduces the moments of the float64 (h, w, C)
    upstream it returns for the block ``images[at]``, called after the
    shading. Then rejects an image with a pixel out of its dtype's range
    and returns the flat gradient, or None without an upstream."""

    def run_tile(t: int, scratch: _TileScratch):
        (i, x0, x1, y0, y1), gx, gy, idx = sched.tile(t)
        kernel = _tile_kernel(gx, gy, sched.tbl, idx, scratch,
                              geo=upstream is not None)
        at = (i, slice(y0, y1), slice(x0, x1))
        if images is not None:
            _shade(kernel[0], sched.tbl, idx, images[at])
        if upstream is not None:
            return _tile_moments(kernel, upstream(at), sched, idx)

    parts = sched.map(run_tile, workers)
    if images is not None:
        for i, image in enumerate(images):
            _check_range(image, i)
    return None if upstream is None else _pullback(sched, parts)


def render_batched(dset: DistilledSet, cfg: RenderConfig, workers: int = 1,
                   out_dtype=np.float32, schedule=None, targets=None):
    """Render every image of the batch through the tile pipeline.

    Each global tile is one work unit owning its pixel block, so the output
    is bitwise independent of ``workers``. With ``cutoff_sigma = inf`` the
    result matches :func:`render_reference` bitwise for every image, at the
    same ``out_dtype``. A ``schedule`` (see :meth:`_TileSchedule.of`) built
    for the call's tile dtype gives the same result.

    Without ``targets`` and with a float32 ``out_dtype`` the tiles compute
    in float32; with a float64 ``out_dtype``, or with ``targets``, they
    compute in float64, so a training step's images keep their bits and the
    backward differentiates its forward's kernel values.

    With the (N, H, W, C) ``targets`` the call is a fit step's one tile
    pass: each tile also reduces the backward of the MSE against them from
    the kernel values it has just shaded, and the call returns the (N, H,
    W, C) images and the flat gradient, with the bits of this call,
    ``optimize.mse_loss_grad`` and :func:`render_backward` in turn.
    So a step's render stage is one ``render_batched`` call whatever its
    loss, and a wrapper on it (perfbench's tracer) sees every step.
    """
    dtype = np.float64 if targets is not None else _tile_dtype(out_dtype)
    sched = _TileSchedule.of(dset, cfg, schedule, dtype)
    images = np.zeros(sched.shape, dtype=out_dtype)
    if targets is None:
        _tile_pass(sched, workers, images)
        return [ImageBuffer.from_array(a) for a in images]
    targets = sched.batch(targets, "targets have", np.float64)
    size = math.prod(sched.shape[1:])
    grads = _tile_pass(sched, workers, images, lambda at: _mse_upstream(
        images[at], targets[at], size))
    return images, grads


@dataclass
class GradBuffer:
    """The flat float64 gradient :func:`render_backward` returns, one-to-one
    with DistilledSet.params."""

    grads: np.ndarray

    def per_gaussian(self) -> np.ndarray:
        """(num_gaussians, 9) view."""
        return self.grads.reshape(-1, PARAMS_PER_GAUSSIAN)


def render_backward(dset: DistilledSet, cfg: RenderConfig, upstream,
                    workers: int = 1, schedule=None) -> GradBuffer:
    """Propagate per-pixel upstream gradients to all nine Gaussian parameters.

    ``upstream`` is the (N, H, W, C) gradient of the forward call's images,
    as an array or a list of one :class:`ImageBuffer` per image; ``cfg``
    must equal the forward configuration. Subsample gradients carry the
    ssaa averaging weight 1/factor^2. The forward's ``schedule`` (see
    :meth:`_TileSchedule.of`) gives the same result as none.
    """
    sched = _TileSchedule.of(dset, cfg, schedule)
    upstream = sched.batch(upstream, "upstream has")
    # widen only a tile's block of the upstream
    grads = _tile_pass(sched, workers, upstream=lambda at: np.asarray(
        upstream[at], dtype=np.float64))
    return GradBuffer(grads)
