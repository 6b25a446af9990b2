"""Analytic backward pass through the renderer, bf16 casting, and the
finite-difference verification harness.

The backward pass reuses the forward's tile schedule, flattened: every
(record, sample) pair of every tile becomes one slot in a flat work array,
per-record partials are segment-reduced, placed into one array ordered by
ascending global tile id, and a single sequential scatter-add reduces them
into the flat gradient buffer. Work is chunked at record boundaries, and
each record's segment is reduced sequentially over the same pair order no
matter how chunks are split, so the result is bitwise independent of the
worker count.

Derivation sketch, per contributing sample x and Gaussian k (pixel space,
A = Sigma'^-1, d = x - mu, q = d^T A d, kernel value v = exp(-q/2) times the
smooth cutoff window, s = sum_ch upstream_ch * color_ch). The whole q-chain
factors through dv/dq = -v * (1/2 + tau/(cutoff^2 - q)^2), written below as
v_geo = v * (1 + 2 tau / (cutoff^2 - q)^2), which degenerates to v at
infinite cutoff:

    d/d color_ch = alpha * v * upstream_ch
    d/d alpha    = v * s
    d/d mu       = alpha * s * v_geo * (A d)
    d/d Sigma'   = alpha * s * v_geo * 1/2 * (A d)(A d)^T

The Sigma' gradient is pulled back through Sigma' = S (L L^T) S + box
(S = diag(width/2, height/2)) to the three Cholesky entries and through the
normalized-to-pixel map to (u, v). The diagonal floor max(|l|, delta) is
piecewise identity: sign(l) passes through outside the floored region, zero
inside it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    CHOLESKY_FLOOR,
    PARAMS_PER_GAUSSIAN,
    DistilledSet,
    RenderConfig,
)
from .raster import (
    ImageBuffer,
    _GaussianTable,
    _sample_grid,
    _tile_pixel_block,
    build_intersection_records,
    check_geometry,
    render_batched,
    ssaa_offsets,
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

    tbl = _GaussianTable(dset, cfg)
    records, layout = build_intersection_records(dset, cfg, tbl)
    out = GradBuffer.zeros_like(dset)
    n_rec = len(records)
    if n_rec == 0:
        return out

    offsets = np.asarray(ssaa_offsets(cfg.ssaa_factor), dtype=np.float64)
    n_off = offsets.shape[0]
    sample_w = 1.0 / n_off
    channels = cfg.channels

    # sign of the diagonal floor, zero where the floor clamps
    d_floor11 = np.where(np.abs(tbl.l11_raw) > CHOLESKY_FLOOR,
                         np.sign(tbl.l11_raw), 0.0)
    d_floor22 = np.where(np.abs(tbl.l22_raw) > CHOLESKY_FLOOR,
                         np.sign(tbl.l22_raw), 0.0)

    tile_ids = records.global_tile_ids
    unique_tiles, starts = np.unique(tile_ids, return_index=True)
    ends = np.append(starts[1:], tile_ids.size)
    n_tiles = unique_tiles.size

    # flatten every tile's sample block into one table (coords + weighted
    # upstream); the subsample weight 1/factor^2 is folded in here
    xs_parts, ys_parts, ub_parts = [], [], []
    sample_start = np.zeros(n_tiles + 1, dtype=np.int64)
    for t in range(n_tiles):
        image_index, x0, x1, y0, y1 = _tile_pixel_block(
            layout, cfg, int(unique_tiles[t]))
        xs, ys = _sample_grid(x0, x1, y0, y1, offsets)
        ub = np.asarray(upstream[image_index].as_array(),
                        dtype=np.float64)[y0:y1, x0:x1, :]
        ub_parts.append(np.repeat(ub.reshape(-1, channels), n_off, axis=0)
                        * sample_w)
        xs_parts.append(xs)
        ys_parts.append(ys)
        sample_start[t + 1] = sample_start[t] + xs.size
    xs_all = np.concatenate(xs_parts)
    ys_all = np.concatenate(ys_parts)
    ub_all = np.concatenate(ub_parts, axis=0)

    rec_gauss = records.gaussian_flat_indices
    rec_tile = np.repeat(np.arange(n_tiles), ends - starts)
    ns_per_rec = (sample_start[rec_tile + 1] - sample_start[rec_tile])
    pair_start = np.concatenate([[0], np.cumsum(ns_per_rec)])
    total_pairs = int(pair_start[-1])

    rec_grads = np.empty((n_rec, PARAMS_PER_GAUSSIAN), dtype=np.float64)

    def run_chunk(r0: int, r1: int) -> None:
        n_local = r1 - r0
        ns = ns_per_rec[r0:r1]
        npairs = int(pair_start[r1] - pair_start[r0])
        rec_of_pair = np.repeat(np.arange(n_local), ns)
        seg_start = (pair_start[r0:r1] - pair_start[r0]).astype(np.int64)
        within = np.arange(npairs, dtype=np.int64) - seg_start[rec_of_pair]
        samp = sample_start[rec_tile[r0:r1]][rec_of_pair] + within
        gi = rec_gauss[r0:r1][rec_of_pair]

        dx = xs_all[samp] - tbl.mu_x[gi]
        dy = ys_all[samp] - tbl.mu_y[gi]
        ax = tbl.inv00[gi] * dx + tbl.inv01[gi] * dy            # (A d)_x
        ay = tbl.inv01[gi] * dx + tbl.inv11[gi] * dy
        q = dx * ax + dy * ay
        v, v_geo = tbl.kernel(q, slope=True)

        block = np.empty((n_local, PARAMS_PER_GAUSSIAN), dtype=np.float64)

        def seg_sum(values: np.ndarray) -> np.ndarray:
            return np.add.reduceat(values, seg_start)

        # color-weighted upstream per pair
        s_w = ub_all[samp, 0] * tbl.colors[gi, 0]
        for ch in range(1, channels):
            s_w += ub_all[samp, ch] * tbl.colors[gi, ch]

        av = tbl.alpha[gi] * v
        for ch in range(channels):
            block[:, 5 + ch] = seg_sum(av * ub_all[samp, ch])
        for ch in range(channels, 3):
            block[:, 5 + ch] = 0.0
        block[:, 8] = seg_sum(v * s_w)

        common = tbl.alpha[gi] * (v_geo * s_w)
        block[:, 0] = seg_sum(common * ax) * tbl.scale_x
        block[:, 1] = seg_sum(common * ay) * tbl.scale_y

        # d/d Sigma' = 1/2 * common * (A d)(A d)^T, then S ... S pullback
        g00 = 0.5 * seg_sum(common * ax * ax) * tbl.scale_x ** 2
        g01 = 0.5 * seg_sum(common * ax * ay) * tbl.scale_x * tbl.scale_y
        g11 = 0.5 * seg_sum(common * ay * ay) * tbl.scale_y ** 2

        # through Sigma = L L^T with L = [[a, 0], [b, c]]
        a = tbl.l11[rec_gauss[r0:r1]]
        b = tbl.l21[rec_gauss[r0:r1]]
        c = tbl.l22[rec_gauss[r0:r1]]
        block[:, 2] = 2.0 * (g00 * a + g01 * b) * d_floor11[rec_gauss[r0:r1]]
        block[:, 3] = 2.0 * (g01 * a + g11 * b)
        block[:, 4] = 2.0 * g11 * c * d_floor22[rec_gauss[r0:r1]]

        rec_grads[r0:r1] = block

    # chunk at record boundaries: a record's segment is always reduced whole,
    # so any split yields bitwise-identical results
    target_chunks = max(1, workers, -(-total_pairs // 1_000_000))
    budget = -(-total_pairs // target_chunks)
    chunks = []
    r0 = 0
    while r0 < n_rec:
        r1 = int(np.searchsorted(pair_start, pair_start[r0] + budget, "left"))
        r1 = max(r1, r0 + 1)
        chunks.append((r0, min(r1, n_rec)))
        r0 = chunks[-1][1]

    if workers <= 1 or len(chunks) <= 1:
        for lo, hi in chunks:
            run_chunk(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda c: run_chunk(*c), chunks))

    # single sequential reduction in ascending global-tile-id order
    np.add.at(out.per_gaussian(), rec_gauss, rec_grads)
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
