"""The finite-difference harness of the renderer's backward: ``gradcheck``
and its randomized suite on the fit's loss, ``optimize.mse_loss_grad``. It
looks ``render_batched`` and ``render_backward`` up here at call time, so a
wrapper installed on this module sees both."""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .core import PARAMS_PER_GAUSSIAN, DistilledSet, RenderConfig
from .optimize import mse_loss_grad
from .raster import render_backward, render_batched


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
    """One randomized gradcheck case: set, config and the fit's MSE loss."""
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
    return dset, cfg, partial(mse_loss_grad, targets=targets)


def gradcheck_suite(cases: int, seed: int, step: float = 1e-4) -> float:
    """Run randomized gradcheck cases of the fit's MSE over all anti-aliasing
    modes and both finite and infinite cutoffs; returns the worst error."""
    if cases < 1:
        raise ValueError("cases must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for c in range(cases):
        dset, cfg, loss_fn = _random_case(rng, c)
        worst = max(worst, gradcheck(dset, cfg, loss_fn, step=step))
    return worst
