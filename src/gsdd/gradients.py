"""Analytic backward pass through the renderer, bf16 casting, and the
finite-difference verification harness.

The backward pass walks the forward's tile schedule. Each tile evaluates its
dense (samples x records) matrices in views of its worker's scratch buffers
(``raster._TileScratch``, reused by every tile of the call so the pages are
not faulted in again per tile) and reduces them over the sample axis into
per-record partial sums. One sequential scatter, in ascending global tile id,
adds the partials into per-Gaussian sums, and the chain rule to the nine
parameters then runs once per Gaussian. A tile's partials do not depend on
which thread computed them and the scatter order is fixed, so the result is
bitwise independent of the worker count. As in the forward, the per-axis
products of A with d = x - mu (inv00 dx, inv01 dy, inv01 dx, inv11 dy) are
formed on the block's (w, f) and (h, f) sample grids and broadcast into the
dense matrices, so only (A d), q and what follows run over every sample.

Derivation sketch, per contributing sample x and Gaussian k (pixel space,
A = Sigma'^-1, d = x - mu, q = d^T A d, kernel value v = exp(-q/2) times the
smooth cutoff window, s = sum_ch upstream_ch * color_ch). The whole q-chain
factors through dv/dq = -v * (1/2 + tau/(cutoff^2 - q)^2), written below as
v_geo = v * (1 + 2 tau / (cutoff^2 - q)^2), which degenerates to v at
infinite cutoff:

    d/d color_ch = alpha * v * upstream_ch
    d/d alpha    = v * s                  = sum_ch color_ch * v * upstream_ch
    d/d mu       = alpha * s * v_geo * (A d)
    d/d Sigma'   = alpha * s * v_geo * 1/2 * (A d)(A d)^T

Summed over samples, every factor that belongs to the Gaussian alone (alpha,
color) moves out of the sum, so a tile keeps only the sums of v * upstream_ch
and of w = s * v_geo times (A d) and its outer product. The Sigma' gradient
is pulled back through Sigma' = S (L L^T) S + box (S = diag(width/2,
height/2)) to the three Cholesky entries and through the normalized-to-pixel
map to (u, v). The diagonal floor max(|l|, delta) is piecewise identity:
sign(l) passes through outside the floored region, zero inside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CHOLESKY_FLOOR,
    F_ALPHA,
    F_L11,
    F_L21,
    F_L22,
    F_R,
    F_U,
    F_V,
    PARAMS_PER_GAUSSIAN,
    DistilledSet,
    RenderConfig,
)
from .raster import (
    ImageBuffer,
    _axis_offsets,
    _TileSchedule,
    _TileScratch,
    check_geometry,
    render_batched,
)


@dataclass
class GradBuffer:
    """Per-parameter gradient accumulator, one-to-one with DistilledSet.params."""

    grads: np.ndarray

    def __post_init__(self) -> None:
        self.grads = np.ascontiguousarray(self.grads, dtype=np.float64).reshape(-1)

    @classmethod
    def zeros_like(cls, dset: DistilledSet) -> "GradBuffer":
        return cls(np.zeros(dset.params.size, dtype=np.float64))

    def per_gaussian(self) -> np.ndarray:
        """(num_gaussians, 9) view."""
        return self.grads.reshape(-1, PARAMS_PER_GAUSSIAN)


def render_backward(dset: DistilledSet, cfg: RenderConfig,
                    upstream: list[ImageBuffer], workers: int = 1
                    ) -> GradBuffer:
    """Propagate per-pixel upstream gradients to all nine Gaussian parameters.

    ``upstream`` holds one buffer per image with the forward call's geometry;
    ``cfg`` must equal the forward configuration. Subsample gradients carry
    the ssaa averaging weight 1/factor^2.
    """
    check_geometry(dset, cfg)
    if len(upstream) != dset.num_images:
        raise ValueError(
            f"expected {dset.num_images} upstream buffers, got {len(upstream)}")
    for buf in upstream:
        if (buf.width, buf.height, buf.channels) != (cfg.width, cfg.height,
                                                     cfg.channels):
            raise ValueError("upstream buffer geometry mismatch")

    sched = _TileSchedule(dset, cfg)
    tbl = sched.tbl
    out = GradBuffer.zeros_like(dset)
    if len(sched.records) == 0:
        return out
    channels = cfg.channels
    n_off = cfg.ssaa_factor ** 2

    def run_tile(t: int, scratch: _TileScratch) -> np.ndarray:
        """Per-record sums over the tile's samples: the five moments of
        w = v_geo * s against (A d), then v * upstream_ch per channel."""
        (image_index, x0, x1, y0, y1), gx, gy, idx = sched.tile(t)
        # widen only the tile's block of the upstream image
        ub = np.asarray(upstream[image_index].as_array()[y0:y1, x0:x1, :],
                        dtype=np.float64)
        ub = np.repeat(ub.reshape(-1, channels), n_off, axis=0) / n_off
        # slot reuse: the kernel overwrites q and writes v to vq and v_geo
        # to work (to vq at infinite cutoff), then w and w * ay overwrite q
        # and w * ax goes to work
        (nx, f), ny, m = gx.shape, gy.shape[0], idx.size
        (q, vq, ax, ay, work), mask = scratch.views(ny, nx, f, f, m)
        dx, dy = _axis_offsets(gx, gy, tbl, idx)
        # the four products of A d form on their axis's grid
        np.add(tbl.inv00[idx] * dx, tbl.inv01[idx] * dy, out=ax)   # (A d)_x
        np.add(tbl.inv01[idx] * dx, tbl.inv11[idx] * dy, out=ay)
        np.add(np.multiply(dx, ax, out=q), np.multiply(dy, ay, out=vq), out=q)
        v, v_geo = tbl.kernel(q, vq, mask, slope=work)
        q, v, v_geo, ax, ay, work = (a.reshape(ub.shape[0], m)
                                     for a in (q, v, v_geo, ax, ay, work))
        w = np.multiply(v_geo, np.matmul(ub, tbl.colors[idx, :channels].T,
                                         out=q), out=q)
        wax = np.multiply(w, ax, out=work)
        way = np.multiply(w, ay, out=q)
        part = np.empty((idx.size, 5 + channels))
        part[:, 0] = wax.sum(axis=0)
        part[:, 1] = way.sum(axis=0)
        part[:, 2] = np.einsum("sr,sr->r", wax, ax)
        part[:, 3] = np.einsum("sr,sr->r", wax, ay)
        part[:, 4] = np.einsum("sr,sr->r", way, ay)
        part[:, 5:] = (ub.T @ v).T
        return part

    # one sequential scatter in ascending global tile id, then the pullback
    # once per Gaussian
    parts = np.concatenate(sched.map(run_tile, workers))
    gauss = sched.records.gaussian_flat_indices
    mx, my, mxx, mxy, myy, *col = (
        np.bincount(gauss, weights=parts[:, j], minlength=tbl.count)
        for j in range(parts.shape[1]))
    col = np.stack(col, axis=1)

    sx, sy = tbl.scale_x, tbl.scale_y
    alpha = tbl.alpha
    g = out.per_gaussian()
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
    return out


def bf16_round(values: np.ndarray) -> np.ndarray:
    """Round to bfloat16 (round-to-nearest-even) and widen back.

    The rounding is defined on the single-precision representation: keep the
    top 16 bits of the float32 pattern, rounding ties to even. Infinities
    survive unchanged; NaNs come back quieted.
    """
    arr = np.asarray(values)
    f32 = arr.astype(np.float32, copy=True)
    bits = f32.view(np.uint32)
    nan_mask = np.isnan(f32)
    rounded = (bits + np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))
               ) & np.uint32(0xFFFF0000)
    rounded = np.where(nan_mask, (bits | np.uint32(0x00400000))
                       & np.uint32(0xFFFF0000), rounded)
    out32 = rounded.view(np.float32)
    if arr.dtype == np.float32:
        return out32.reshape(arr.shape)
    return out32.astype(np.float64).reshape(arr.shape)


def _rel_error(analytic: np.ndarray, fd: np.ndarray,
               rel_floor: float = 1e-3) -> float:
    """max |a - f| / max(|f|, rel_floor).

    The floor folds the absolute criterion into the relative one: an error
    of 1e-3 * rel_floor passes where both sides are essentially zero.
    """
    if analytic.size == 0:
        return 0.0
    denom = np.maximum(np.abs(fd), rel_floor)
    return float(np.max(np.abs(analytic - fd) / denom))


def gradcheck(dset: DistilledSet, cfg: RenderConfig, loss_fn,
              step: float = 1e-4, grad_scale: float = 1.0) -> float:
    """Max relative error of the analytic gradient vs central differences.

    ``loss_fn(images) -> (loss, upstream)`` maps rendered images to a scalar
    and its per-pixel gradient. Finite differences perturb every parameter by
    ``+-step`` through a float64 forward. ``grad_scale`` multiplies the
    analytic gradient before comparison (the deliberately-wrong-gradient
    control uses 2.0).
    """
    images = render_batched(dset, cfg, out_dtype=np.float64)
    _, upstream = loss_fn(images)
    analytic = render_backward(dset, cfg, upstream).grads * grad_scale

    work = dset.copy()
    fd = np.zeros_like(analytic)
    for i in range(work.params.size):
        orig = work.params[i]
        work.params[i] = orig + step
        lp, _ = loss_fn(render_batched(work, cfg, out_dtype=np.float64))
        work.params[i] = orig - step
        lm, _ = loss_fn(render_batched(work, cfg, out_dtype=np.float64))
        work.params[i] = orig
        fd[i] = (lp - lm) / (2.0 * step)

    return _rel_error(analytic, fd)


def _random_case(rng: np.random.Generator, case_index: int):
    """One randomized gradcheck case: small set, config, and MSE targets."""
    width = int(rng.integers(4, 17))
    height = int(rng.integers(4, 17))
    channels = int(rng.choice([1, 3]))
    m = int(rng.integers(1, 9))
    n_images = int(rng.integers(1, 3))

    prefilter = bool((case_index >> 0) & 1)
    ssaa = 1 + ((case_index >> 1) & 1)
    cutoff = np.inf if (case_index >> 2) & 1 else 3.0
    cfg = RenderConfig(width, height, channels, prefilter=prefilter,
                       ssaa_factor=ssaa, cutoff_sigma=cutoff, tile_size=8)

    n = n_images * m
    params = np.zeros((n, PARAMS_PER_GAUSSIAN))
    params[:, 0] = rng.uniform(-0.8, 0.8, n)
    params[:, 1] = rng.uniform(-0.8, 0.8, n)
    params[:, 2] = rng.uniform(0.15, 0.6, n) * rng.choice([-1.0, 1.0], n)
    params[:, 3] = rng.uniform(-0.3, 0.3, n)
    params[:, 4] = rng.uniform(0.15, 0.6, n) * rng.choice([-1.0, 1.0], n)
    params[:, 5:8] = rng.uniform(-1.0, 1.0, (n, 3))
    params[:, 8] = rng.uniform(0.3, 1.5, n) * rng.choice([-1.0, 1.0], n)
    dset = DistilledSet(width, height, channels, n_images, m,
                        params.reshape(-1), np.zeros(n_images, dtype=np.int64))

    targets = [rng.normal(0.0, 0.5, (height, width, channels))
               for _ in range(n_images)]

    def loss_fn(images: list[ImageBuffer]):
        total = 0.0
        upstream = []
        scale = 1.0 / (width * height * channels * n_images)
        for img, tgt in zip(images, targets):
            diff = img.as_array().astype(np.float64) - tgt
            total += float(np.sum(diff * diff)) * scale
            upstream.append(ImageBuffer.from_array(2.0 * diff * scale))
        return total, upstream

    return dset, cfg, loss_fn


def gradcheck_suite(cases: int, seed: int, step: float = 1e-4,
                    grad_scale: float = 1.0) -> float:
    """Run randomized gradcheck cases spanning all anti-aliasing modes and
    both finite and infinite cutoffs; returns the worst relative error."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for c in range(cases):
        dset, cfg, loss_fn = _random_case(rng, c)
        worst = max(worst, gradcheck(dset, cfg, loss_fn, step=step,
                                     grad_scale=grad_scale))
    return worst
