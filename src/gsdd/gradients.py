"""The renderer's backward pass and the finite-difference verification
harness.

``raster`` owns the one tile pass that renders and back-propagates
(``raster._tile_pass``, with the derivation beside its moments and
pullback); this module keeps ``GradBuffer``, ``render_backward`` (that pass
with a given upstream), ``gradcheck`` and its randomized suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PARAMS_PER_GAUSSIAN, DistilledSet, RenderConfig
from .raster import _tile_pass, _TileSchedule, render_batched


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
    upstream = sched.batch(upstream, "upstream has")
    # widen only a tile's block of the upstream
    grads = _tile_pass(sched, workers, upstream=lambda at: np.asarray(
        upstream[at], dtype=np.float64))
    return GradBuffer(grads)


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
