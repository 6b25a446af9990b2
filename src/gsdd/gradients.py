"""Analytic backward pass through the renderer and the finite-difference
verification harness.

Both passes walk one tile schedule per training step, with its per-axis
sample grids and the table's packed columns, which a tile gathers in one
fancy index. Each tile evaluates its dense (samples x records) matrices in
views of its task's scratch buffers (``raster._TileScratch``: one task per
worker, reused by every tile that task takes, so the pages are not faulted
in again per tile) and reduces them over the sample axis into
per-record partial sums. One sequential scatter, in ascending global tile id,
adds the partials into per-Gaussian sums, and the chain rule to the nine
parameters then runs once per Gaussian. A tile's partials do not depend on
which thread computed them and the scatter order is fixed, so the result is
bitwise independent of the worker count. A tile takes its offsets, q and
its kernel values from the forward's tile front end
(``raster._tile_kernel``), so it differentiates bit for bit the values the
forward shaded. The front end whitens d = x - mu into z = L'^-1 d, with
Sigma' = L'L'^T and L' = [[p, 0], [r, s]]: z1 = dx/p depends only on the
sample's column, and z2 = dy/s - r/(p s) dx is the one full-size offset.
A tile forms only w and w z2 over every sample and reduces five per-record
moments, sum w dx, w dx^2, w z2, w z2 dx and w z2^2. Those in dx first sum
w and w z2 over the y axes, to (w, f) per record, and then weight that by
the block's (w, f) dx grid, so they cost two plain sums over every sample.
After the scatter, the (A d) moments are rebuilt once per Gaussian through
A d = L'^-T z.

Derivation sketch, per contributing sample x and Gaussian k (pixel space,
A = Sigma'^-1, d = x - mu, q = d^T A d, kernel value v = exp(-q/2) times the
smooth cutoff window, g = sum_ch upstream_ch * color_ch). The whole q-chain
factors through dv/dq = -v * (1/2 + tau/(cutoff^2 - q)^2), written below as
v_geo = v * (1 + 2 tau / (cutoff^2 - q)^2), which is v at infinite
cutoff:

    d/d color_ch = alpha * v * upstream_ch
    d/d alpha    = v * g                  = sum_ch color_ch * v * upstream_ch
    d/d mu       = alpha * g * v_geo * (A d)
    d/d Sigma'   = alpha * g * v_geo * 1/2 * (A d)(A d)^T

Summed over samples, every factor that belongs to the Gaussian alone (alpha,
color, L') moves out of the sum, so a tile keeps only the sums of v *
upstream_ch and of w = g * v_geo times z and its outer product, in which
z1 = dx/p lets 1/p move out too. The Sigma' gradient
is pulled back through Sigma' = S (L L^T) S + box (S = diag(width/2,
height/2)) to the three Cholesky entries and through the normalized-to-pixel
map to (u, v). The diagonal floor max(|l|, delta) is piecewise identity:
sign(l) passes through outside the floored region, zero inside it.
"""

from __future__ import annotations

import math
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
    _tile_kernel,
    _TileSchedule,
    _TileScratch,
    render_batched,
)


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
    ``raster._TileSchedule.of``) gives the same result as none.
    """
    sched = _TileSchedule.of(dset, cfg, schedule)
    upstream = np.asarray(upstream)
    expected = (dset.num_images, cfg.height, cfg.width, cfg.channels)
    if upstream.shape != expected:
        raise ValueError(f"upstream has shape {upstream.shape}, expected "
                         f"{expected}")

    tbl = sched.tbl
    out = GradBuffer(np.zeros(dset.params.size))
    if len(sched.records) == 0:
        return out
    channels = cfg.channels
    n_off = cfg.ssaa_factor ** 2

    def run_tile(t: int, scratch: _TileScratch) -> np.ndarray:
        """Per-record sums over the tile's samples: five moments of w =
        v_geo * g in dx and the whitened offset z2, then v * upstream_ch per
        channel."""
        (image_index, x0, x1, y0, y1), gx, gy, idx = sched.tile(t)
        # widen only the tile's block of the upstream image
        ub = np.asarray(upstream[image_index, y0:y1, x0:x1, :],
                        dtype=np.float64)
        ub = np.repeat(ub.reshape(-1, channels), n_off, axis=0) / n_off
        v, v_geo, dx, z2, free = _tile_kernel(gx, gy, tbl, idx, scratch,
                                              geo=True)
        n, m = v_geo.shape
        part = np.empty((m, 5 + channels))
        part[:, 5:] = (ub.T @ v).T
        w = np.multiply(v_geo, np.matmul(ub, tbl.colors[idx, :channels].T,
                                         out=free), out=v_geo)
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

    # one sequential scatter in ascending global tile id, then the pullback
    # once per Gaussian
    parts = np.concatenate(sched.map(run_tile, workers))
    gauss = sched.records.gaussian_flat_indices
    w_x, w_xx, w_z, w_zx, w_zz, *col = (
        np.bincount(gauss, weights=parts[:, j], minlength=tbl.count)
        for j in range(parts.shape[1]))
    col = np.stack(col, axis=1)

    # the (A d) moments from the whitened ones, A d = L'^-T z with z1 = dx/p:
    # sum w z1 = w_x/p, sum w z1^2 = w_xx/p^2 and sum w z1 z2 = w_zx/p
    ip, sh, i_s = tbl.inv_p, tbl.shear, tbl.inv_s
    z1, z11, z12 = ip * w_x, ip * ip * w_xx, ip * w_zx
    # L'^-T = [[1/p, -r/(p s)], [0, 1/s]], applied to the moment vector and
    # on both sides of the second moment
    mx, my = ip * z1 - sh * w_z, i_s * w_z
    tx1, tx2 = ip * z11 - sh * z12, ip * z12 - sh * w_zz
    mxx, mxy, myy = ip * tx1 - sh * tx2, i_s * tx2, i_s * i_s * w_zz
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


def gradcheck(dset: DistilledSet, cfg: RenderConfig, loss_fn,
              step: float = 1e-4) -> float:
    """Max relative error max |a - f| / max(|f|, 1e-3) of the analytic
    gradient a vs central differences f; 0.0 for a set without parameters.

    ``loss_fn(images) -> (loss, upstream)`` maps the rendered float64
    (N, H, W, C) batch to a scalar and its (N, H, W, C) gradient, as the
    training step's loss callbacks do. Finite differences perturb every
    parameter by ``+-step`` through a float64 forward.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError("step must be finite and > 0")

    def loss(s: DistilledSet):
        return loss_fn(np.asarray(render_batched(s, cfg, out_dtype=np.float64)))

    _, upstream = loss(dset)
    analytic = render_backward(dset, cfg, upstream).grads

    work = dset.copy()
    fd = np.zeros_like(analytic)
    for i in range(work.params.size):
        orig = work.params[i]
        work.params[i] = orig + step
        lp, _ = loss(work)
        work.params[i] = orig - step
        lm, _ = loss(work)
        work.params[i] = orig
        fd[i] = (lp - lm) / (2.0 * step)

    # the floor of 1e-3 folds the absolute criterion into the relative one:
    # an error of 1e-6 passes where both sides are essentially zero
    denom = np.maximum(np.abs(fd), 1e-3)
    return float(np.max(np.abs(analytic - fd) / denom, initial=0.0))


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

    targets = rng.normal(0.0, 0.5, (n_images, height, width, channels))
    scale = 1.0 / (width * height * channels * n_images)

    def loss_fn(images: np.ndarray):
        diff = images - targets
        # summed per image, in image order
        total = sum(float(np.sum(d * d)) * scale for d in diff)
        return total, 2.0 * diff * scale

    return dset, cfg, loss_fn


def gradcheck_suite(cases: int, seed: int, step: float = 1e-4) -> float:
    """Run randomized gradcheck cases spanning all anti-aliasing modes and
    both finite and infinite cutoffs; returns the worst relative error."""
    if cases < 1:
        raise ValueError("cases must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for c in range(cases):
        dset, cfg, loss_fn = _random_case(rng, c)
        worst = max(worst, gradcheck(dset, cfg, loss_fn, step=step))
    return worst
