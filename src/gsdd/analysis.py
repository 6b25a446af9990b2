"""Pruning experiments, downstream evaluation, and render benchmarking."""

from __future__ import annotations

import math
import time
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    F_ALPHA,
    PARAMS_PER_GAUSSIAN,
    DistilledSet,
    RenderConfig,
    cholesky_factor,
)
from .data_io import LabeledImageDataset
from .gradients import render_backward
from .optimize import AdamState, adam_step
from .raster import render_batched, render_reference

PRUNE_MODES = ("large_opaque_first", "small_transparent_first", "random")


@dataclass
class PruneStrategy:
    """Which Gaussians to drop and how many."""

    mode: str
    ratio: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in PRUNE_MODES:
            raise ValueError(f"mode must be one of {PRUNE_MODES}")
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError("ratio must lie in [0, 1]")


def importance_score(dset: DistilledSet) -> np.ndarray:
    """|opacity| * sqrt(det covariance) of every Gaussian, in flat order:
    spatial extent times opacity, formed as |opacity| * l11 * l22 of the
    floored factor, so nothing cancels. Rotation of the covariance leaves
    the score unchanged; the score scales linearly with |opacity|.
    """
    l11, _, l22 = cholesky_factor(dset.params)
    return np.abs(dset.field_view(F_ALPHA)) * l11 * l22


def prune_dataset(dset: DistilledSet, strategy: PruneStrategy) -> DistilledSet:
    """Remove floor(ratio*M) Gaussians per image by importance-score order."""
    n, m = dset.num_images, dset.gaussians_per_image
    keep = m - int(np.floor(strategy.ratio * m))
    if strategy.mode == "random":
        order = np.array([np.random.default_rng([strategy.seed, i])
                          .permutation(m) for i in range(n)],
                         dtype=np.int64).reshape(n, m)
    else:
        order = np.argsort(importance_score(dset).reshape(n, m), axis=1,
                           kind="stable")
    # large_opaque_first keeps the low scores, dropping the tail; the kept
    # Gaussians stay in their original order
    lo = m - keep if strategy.mode == "small_transparent_first" else 0
    keep_idx = np.sort(order[:, lo:lo + keep], axis=1)
    kept = np.take_along_axis(
        dset.params.reshape(n, m, PARAMS_PER_GAUSSIAN), keep_idx[:, :, None],
        axis=1)
    return DistilledSet(dset.width, dset.height, dset.channels, n, keep,
                        kept.reshape(-1), dset.labels.copy(), dset.num_classes)


@dataclass
class EvalSpec:
    """Two-layer MLP probe: flatten -> dense -> ReLU -> dense -> softmax CE."""

    hidden_width: int = 128
    epochs: int = 200
    lr: float = 1e-2
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("hidden_width", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (math.isfinite(self.lr) and self.lr >= 0.0):
            raise ValueError("lr must be finite and >= 0")


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def train_eval_classifier(train: LabeledImageDataset,
                          test: LabeledImageDataset,
                          spec: EvalSpec) -> float:
    """Train the probe on (rendered) train images, return test accuracy.

    Gradients are written out by hand; optimization is full-batch Adam for
    ``epochs`` steps, deterministic for a fixed seed.
    """
    if train.images.shape[0] == 0:
        raise ValueError("empty training set")
    classes = train.class_count
    present = np.unique(train.labels)
    missing = set(range(classes)) - set(int(c) for c in present)
    if missing:
        raise ValueError(f"classes missing from train set: {sorted(missing)}")

    x = train.images.reshape(train.images.shape[0], -1).astype(np.float64)
    y = train.labels
    x_test = test.images.reshape(test.images.shape[0], -1).astype(np.float64)

    d = x.shape[1]
    h = spec.hidden_width
    rng = np.random.default_rng(spec.seed)
    theta = np.concatenate([rng.normal(0.0, np.sqrt(2.0 / d), d * h),
                            np.zeros(h),
                            rng.normal(0.0, np.sqrt(2.0 / h), h * classes),
                            np.zeros(classes)])
    # views into theta, which adam_step updates in place
    w1, b1, w2, b2 = np.split(theta, np.cumsum([d * h, h, h * classes]))
    w1 = w1.reshape(d, h)
    w2 = w2.reshape(h, classes)

    onehot = np.zeros((y.size, classes))
    onehot[np.arange(y.size), y] = 1.0
    n = y.size

    adam = AdamState.new(theta.size, lr=spec.lr)
    for _ in range(spec.epochs):
        z1 = x @ w1 + b1
        a1 = np.maximum(z1, 0.0)
        probs = _softmax(a1 @ w2 + b2)
        dz2 = (probs - onehot) / n
        dw2 = a1.T @ dz2
        db2 = dz2.sum(axis=0)
        da1 = dz2 @ w2.T
        dz1 = np.where(z1 > 0.0, da1, 0.0)
        dw1 = x.T @ dz1
        db1 = dz1.sum(axis=0)
        grad = np.concatenate([dw1.reshape(-1), db1, dw2.reshape(-1), db2])
        adam_step(adam, theta, grad)

    logits = np.maximum(x_test @ w1 + b1, 0.0) @ w2 + b2
    pred = logits.argmax(axis=1)
    return float(np.mean(pred == test.labels))


def rendered_dataset(dset: DistilledSet, cfg: RenderConfig,
                     workers: int = 1) -> LabeledImageDataset:
    """Render a distilled set into a labeled dataset (normalized units)."""
    images = np.asarray(render_batched(dset, cfg, workers=workers))
    return LabeledImageDataset(images, dset.labels, dset.num_classes,
                               np.zeros(cfg.channels), np.ones(cfg.channels))


BENCH_CSV_HEADER = "res,batch,M,path,fwd_ms,fwdbwd_ms,peak_bytes"
BENCH_WARMUP = 2


def _bench_set(res: int, batch: int, m: int, seed: int) -> DistilledSet:
    rng = np.random.default_rng(seed)
    n = batch * m
    p = np.zeros((n, PARAMS_PER_GAUSSIAN))
    p[:, 0:2] = rng.uniform(-0.9, 0.9, (n, 2))
    p[:, 2] = rng.uniform(0.05, 0.3, n)
    p[:, 3] = rng.uniform(-0.1, 0.1, n)
    p[:, 4] = rng.uniform(0.05, 0.3, n)
    p[:, 5:8] = rng.uniform(-1.0, 1.0, (n, 3))
    p[:, 8] = rng.uniform(0.2, 1.0, n)
    return DistilledSet(res, res, 3, batch, m, p.reshape(-1),
                        np.zeros(batch, dtype=np.int64))


def _peak_bytes(fn) -> int:
    """Peak bytes allocated during one call of ``fn``, as traced by
    tracemalloc (numpy reports its array buffers to it)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _bench_passes(path, dset, cfg, workers):
    """(forward, forward+backward) of one grid entry; the reference path
    renders image by image at infinite cutoff and runs its backward on one
    worker."""
    ones = np.ones((dset.num_images, cfg.height, cfg.width, cfg.channels))
    if path == "reference":
        cfg, workers = replace(cfg, cutoff_sigma=np.inf), 1

        def fwd():
            for i in range(dset.num_images):
                render_reference(dset, i, cfg)
    else:
        def fwd():
            render_batched(dset, cfg, workers=workers)

    def fwdbwd():
        fwd()
        render_backward(dset, cfg, ones, workers=workers)
    return fwd, fwdbwd


def bench_render(grid, seed: int = 0, runs: int = 5, workers: int = 1,
                 cutoff_sigma: float = RenderConfig.cutoff_sigma):
    """Time forward and forward+backward for each grid entry.

    ``grid`` rows are dicts with keys ``res``, ``batch``, ``m`` and ``path``
    in {"reference", "batched"}. Each distinct geometry gets one set, whose
    two paths are first checked against each other at infinite cutoff
    (where they must agree bitwise) before anything is timed. Each of the
    ``BENCH_WARMUP`` untimed and then ``runs`` timed rounds calls every
    entry's forward in turn, then every entry's forward+backward, so host
    drift reaches all entries alike; a row holds the medians of its timed
    calls.
    Returns one result row per grid entry, in order, matching
    ``BENCH_CSV_HEADER``; ``peak_bytes`` is the tracemalloc peak of one
    forward call made after the timed runs, so tracing never slows them.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("empty benchmark grid")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    for entry in grid:
        for key in ("res", "batch", "m"):
            if int(entry[key]) < 1:
                raise ValueError(f"{key} must be >= 1, got {entry[key]}")
        if entry["path"] not in ("reference", "batched"):
            raise ValueError(f"unknown path {entry['path']!r}")

    keys = [(int(e["res"]), int(e["batch"]), int(e["m"])) for e in grid]
    sets = {}
    for res, batch, m in dict.fromkeys(keys):
        dset = _bench_set(res, batch, m, seed)
        cfg = RenderConfig(res, res, ssaa_factor=1, cutoff_sigma=cutoff_sigma)
        exact_cfg = replace(cfg, cutoff_sigma=np.inf)
        bat = render_batched(dset, exact_cfg, workers=workers)
        for i in range(batch):
            if not np.array_equal(render_reference(dset, i, exact_cfg).pixels,
                                  bat[i].pixels):
                raise AssertionError(
                    f"paths disagree at {(res, batch, m)}, image {i}")
        sets[res, batch, m] = dset, cfg
    passes = [_bench_passes(e["path"], *sets[key], workers)
              for e, key in zip(grid, keys)]

    times = np.empty((BENCH_WARMUP + runs, 2, len(grid)))
    for r in range(BENCH_WARMUP + runs):
        for kind in (0, 1):
            for i, pair in enumerate(passes):
                t0 = time.perf_counter()
                pair[kind]()
                times[r, kind, i] = (time.perf_counter() - t0) * 1000.0
    fwd_ms, fwdbwd_ms = np.median(times[BENCH_WARMUP:], axis=0)
    return [(*key, e["path"], round(float(fwd_ms[i]), 3),
             round(float(fwdbwd_ms[i]), 3), _peak_bytes(passes[i][0]))
            for i, (e, key) in enumerate(zip(grid, keys))]
