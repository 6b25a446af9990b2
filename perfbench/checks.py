"""Run-level output checks, made once per run outside the timed phase.

They use gsdd functions bound at import, before the tracer wraps module
attributes, so they never show up in a trace.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from gsdd.data_io import denormalize_to_bytes, load_ppm
from gsdd.gradients import render_backward
from gsdd.raster import ImageBuffer, render_batched, render_reference


def oracle_check(dset, cfg, images) -> str | None:
    """Batched output equals the reference bitwise at ``cutoff_sigma=inf``."""
    batched = render_batched(dset.subset(images),
                             replace(cfg, cutoff_sigma=math.inf))
    for img, i in zip(batched, images):
        if not np.array_equal(img.pixels,
                              render_reference(dset, i, cfg).pixels):
            return f"batched != reference at cutoff inf on image {i}"
    return None


def workers_check(dset, cfg, images, rng) -> str | None:
    """Forward and backward are bitwise equal at workers 1 and 2."""
    sub = dset.subset(images)
    fwd = [render_batched(sub, cfg, workers=w, out_dtype=np.float64)
           for w in (1, 2)]
    if not all(np.array_equal(a.pixels, b.pixels) for a, b in zip(*fwd)):
        return "forward differs between workers 1 and 2"
    upstream = [ImageBuffer.from_array(
        rng.normal(0.0, 1.0, (cfg.height, cfg.width, cfg.channels)))
        for _ in images]
    grads = [render_backward(sub, cfg, upstream, workers=w).grads
             for w in (1, 2)]
    if not np.array_equal(*grads):
        return "backward differs between workers 1 and 2"
    return None


def render_loss(dset, cfg, stats, ppm_paths) -> float:
    """Relative squared error of the PPMs the CLI wrote against the exact
    Gaussian sum (no cutoff) exported the same way:
    sum (got - exact)^2 / sum (exact - zero)^2 over every byte, where
    ``zero`` is the byte a zero-valued pixel exports to."""
    exact = render_batched(dset, replace(cfg, cutoff_sigma=math.inf),
                           workers=2)
    zero = denormalize_to_bytes(
        ImageBuffer.zeros(1, 1, cfg.channels), stats).astype(np.float64)
    err = sig = 0.0
    for img, path in zip(exact, ppm_paths):
        want = denormalize_to_bytes(img, stats).astype(np.float64)
        got = load_ppm(path).astype(np.float64)
        err += float(np.sum((got - want) ** 2))
        sig += float(np.sum((want - zero) ** 2))
    return err / sig

