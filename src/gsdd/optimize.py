"""Losses, the Adam optimizer, and the fitting / distillation loops.

Fitting recovers Gaussian parameters for individual target images by
minimizing mean squared error; distillation optimizes a whole synthetic set
against a real dataset by matching per-class mean features under a fixed
random convolutional extractor, resampled every iteration. Both run the same
training step and differ only in the loss callback: optional bf16 forward
casting, the render, the loss, the renderer's analytic backward pass plus the
boundary regularizer that keeps Gaussian centers inside the frame, Adam, and
position clipping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    F_U,
    F_V,
    PARAMS_PER_GAUSSIAN,
    DistilledSet,
    RenderConfig,
    clip_positions,
    normalized_to_pixel,
)
from .gradients import GradBuffer, bf16_round, render_backward
from .raster import ImageBuffer, render_batched


@dataclass
class AdamState:
    """First/second moment buffers plus hyperparameters."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def new(cls, n_params: int, lr: float = 1e-2, beta1: float = 0.9,
            beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params),
                   lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray
              ) -> np.ndarray:
    """Standard bias-corrected Adam update, in place on ``params``."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError("parameter/gradient/state shape mismatch")
    state.step_count += 1
    t = state.step_count
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    m_hat = state.m / (1.0 - state.beta1 ** t)
    v_hat = state.v / (1.0 - state.beta2 ** t)
    params -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params


def mse_loss_grad(rendered: ImageBuffer, target: ImageBuffer
                  ) -> tuple[float, ImageBuffer]:
    """Mean squared error over all elements and its per-pixel gradient."""
    if (rendered.width, rendered.height, rendered.channels) != (
            target.width, target.height, target.channels):
        raise ValueError("rendered/target geometry mismatch")
    x = rendered.pixels.astype(np.float64)
    t = target.pixels.astype(np.float64)
    diff = x - t
    n = diff.size
    loss = float(np.dot(diff, diff)) / n
    grad = ImageBuffer(rendered.width, rendered.height, rendered.channels,
                       2.0 * diff / n)
    return loss, grad


def psnr(a: np.ndarray, b: np.ndarray, data_range: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; inf for identical inputs."""
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(data_range * data_range / mse)


def boundary_loss(dset: DistilledSet, lam: float, per_image: bool = False
                  ) -> tuple[float, GradBuffer]:
    """Boundary regularizer, averaged over every Gaussian of the set.

    The per-Gaussian term -[log(1-u^2)+log(1-v^2)] grows without bound as a
    center approaches the frame edge; its gradient always points inward, so
    centers cannot drift into the zero-gradient region outside the frame.
    With ``per_image`` each image's terms are averaged over that image's
    Gaussians alone and the per-image losses summed, so a multi-target fit
    decomposes into independent single-target fits. Returns the weighted
    loss and a gradient buffer touching only u and v.
    """
    grads = GradBuffer.zeros_like(dset)
    count = dset.gaussians_per_image * (1 if per_image else dset.num_images)
    if count == 0:
        return 0.0, grads
    u = dset.field_view(F_U)
    v = dset.field_view(F_V)
    if np.any(np.abs(u) >= 1.0) or np.any(np.abs(v) >= 1.0):
        raise ValueError("positions must be clipped into (-1, 1) before the "
                         "boundary loss; found |u| or |v| >= 1")
    one_u = 1.0 - u * u
    one_v = 1.0 - v * v
    terms = -(np.log(one_u) + np.log(one_v))
    scale = lam / count
    g = grads.per_gaussian()
    g[:, F_U] = 2.0 * u / one_u * scale
    g[:, F_V] = 2.0 * v / one_v * scale
    return float(lam * (terms.sum() / count)), grads


@dataclass
class TrainConfig:
    """Knobs shared by the fitting and distillation loops."""

    steps: int = 1000
    lr: float = 1e-2
    batch_real: int = 32
    batch_syn: int = 0            # 0: use every synthetic image each step
    lambda_boundary: float = 0.1
    epsilon_clip: float = 1e-3
    bf16_forward: bool = False
    seed: int = 0
    init_steps: int = 300         # fitting steps for distillation warm start
    feature_depth: int = 2
    feature_channels: int = 32

    def __post_init__(self) -> None:
        if self.lambda_boundary < 0:
            raise ValueError("lambda_boundary must be >= 0")
        if not 0.0 < self.epsilon_clip < 1.0:
            raise ValueError("epsilon_clip must lie in (0, 1)")


def seed_for_image(seed: int, image_index: int) -> np.random.Generator:
    """Per-image RNG stream, stable under batching."""
    return np.random.default_rng([seed, image_index])


def _init_gaussians(target: np.ndarray, m: int, rng: np.random.Generator,
                    width: int, height: int) -> np.ndarray:
    """Initial parameters for one image: uniform positions, isotropic
    footprints sized so ~m of them tile the frame, colors sampled from the
    target under each center, opacity one."""
    p = np.zeros((m, PARAMS_PER_GAUSSIAN))
    p[:, 0] = rng.uniform(-0.9, 0.9, m)
    p[:, 1] = rng.uniform(-0.9, 0.9, m)
    scale = 2.0 * 1.5 / math.sqrt(m)
    p[:, 2] = scale
    p[:, 4] = scale
    px, py = normalized_to_pixel(p[:, 0], p[:, 1], width, height)
    ix = np.clip(np.round(px).astype(int), 0, width - 1)
    iy = np.clip(np.round(py).astype(int), 0, height - 1)
    channels = target.shape[2]
    p[:, 5:5 + channels] = target[iy, ix, :]
    p[:, 8] = 1.0
    return p.reshape(-1)


def _forward_set(dset: DistilledSet, cfg: TrainConfig) -> DistilledSet:
    """The set the forward pass renders: with ``bf16_forward`` a copy holding
    bf16-rounded parameters (straight-through: gradients still update the
    full-precision masters), otherwise the set itself."""
    if not cfg.bf16_forward:
        return dset
    return replace(dset, params=bf16_round(dset.params))


def _descend(dset: DistilledSet, cfg: TrainConfig, render_cfg: RenderConfig,
             workers: int, loss_fn, per_image: bool):
    """The training step, ``cfg.steps`` times, in place on ``dset``.

    One step: bf16 cast -> render -> ``loss_fn(images) -> (loss, upstream)``
    -> backward plus boundary term -> Adam -> position clip. A non-finite
    loss (checked before the backward) or gradient raises a ``ValueError``
    naming the step, before Adam touches the parameters. The module-level
    names are looked up on every call, so wrappers installed on this module
    see each stage. Returns the ``(step, total, loss, boundary)`` trace.
    """
    adam = AdamState.new(dset.params.size, lr=cfg.lr)
    trace = []
    for step in range(cfg.steps):
        fwd_set = _forward_set(dset, cfg)
        images = render_batched(fwd_set, render_cfg, workers=workers,
                                out_dtype=np.float64)
        loss, upstream = loss_fn(images)
        bnd_loss, bnd_grads = boundary_loss(dset, cfg.lambda_boundary,
                                            per_image=per_image)
        # a non-finite loss stops the step before its backward runs
        finite = math.isfinite(loss + bnd_loss)
        if finite:
            grads = render_backward(fwd_set, render_cfg, upstream,
                                    workers=workers).grads + bnd_grads.grads
            finite = bool(np.isfinite(grads).all())
        if not finite:
            raise ValueError(f"step {step}: the loss or its gradient is not "
                             "finite")
        adam_step(adam, dset.params, grads)
        clip_positions(dset, cfg.epsilon_clip)
        trace.append((step, loss + bnd_loss, loss, bnd_loss))
    return trace


def fit_images(targets: list[ImageBuffer], m: int, cfg: TrainConfig,
               render_cfg: RenderConfig, labels=None, num_classes: int = 1,
               image_seed_offset: int = 0, workers: int = 1):
    """Fit a Gaussian set to target images by per-image MSE descent.

    Every image is an independent problem: its own init stream, its own MSE
    and per-image boundary terms, and (because Adam is elementwise) updates
    identical to fitting it alone. Returns the fitted set, per-image final
    PSNR (against each target's value range), and a loss trace of
    ``(step, total, mse, boundary)`` rows.
    """
    if m < 1:
        raise ValueError("cannot fit with zero Gaussians per image")
    if not targets:
        raise ValueError("no target images")
    for t in targets:
        if (t.width, t.height, t.channels) != (render_cfg.width,
                                               render_cfg.height,
                                               render_cfg.channels):
            raise ValueError("target geometry does not match render config")

    n = len(targets)
    tgt = [t.as_array().astype(np.float64) for t in targets]
    params = np.concatenate([
        _init_gaussians(tgt[j], m,
                        seed_for_image(cfg.seed, image_seed_offset + j),
                        render_cfg.width, render_cfg.height)
        for j in range(n)])
    dset = DistilledSet(render_cfg.width, render_cfg.height,
                        render_cfg.channels, n, m, params,
                        labels if labels is not None
                        else np.zeros(n, dtype=np.int64),
                        num_classes)
    clip_positions(dset, cfg.epsilon_clip)

    def mse(images):
        pairs = [mse_loss_grad(img, t) for img, t in zip(images, targets)]
        return sum(loss for loss, _ in pairs), [grad for _, grad in pairs]

    trace = _descend(dset, cfg, render_cfg, workers, mse, per_image=True)
    final = render_batched(_forward_set(dset, cfg), render_cfg,
                           workers=workers, out_dtype=np.float64)
    # data range floors at 1.0 so flat targets still use the [0, 1] scale
    psnrs = np.array([
        psnr(final[j].as_array(), tgt[j],
             data_range=max(float(np.ptp(tgt[j])), 1.0))
        for j in range(n)])
    return dset, psnrs, trace


@dataclass
class FeatureNetSpec:
    """Fixed random convolutional feature extractor.

    ``depth`` blocks of {3x3 conv (stride 1, pad 1) -> ReLU -> 2x2 average
    pool}; weights are He-scaled draws fully determined by ``seed`` and are
    never trained. ``depth=0`` degenerates to flattened pixels.
    """

    depth: int = 2
    channels: int = 32
    seed: int = 0


def _feature_weights(spec: FeatureNetSpec, in_channels: int) -> list[np.ndarray]:
    rng = np.random.default_rng(spec.seed)
    weights = []
    cin = in_channels
    for _ in range(spec.depth):
        std = math.sqrt(2.0 / (9.0 * cin))
        weights.append(rng.normal(0.0, std, (3, 3, cin, spec.channels)))
        cin = spec.channels
    return weights


def _conv3x3(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    n, h, w, cin = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
    cols = np.ascontiguousarray(win).reshape(n * h * w, cin * 9)
    kmat = k.transpose(2, 0, 1, 3).reshape(cin * 9, -1)
    return (cols @ kmat).reshape(n, h, w, -1)


def _conv3x3_input_grad(dy: np.ndarray, k: np.ndarray) -> np.ndarray:
    n, h, w, cout = dy.shape
    cin = k.shape[2]
    flat = dy.reshape(-1, cout)
    dxp = np.zeros((n, h + 2, w + 2, cin))
    for di in range(3):
        for dj in range(3):
            dxp[:, di:di + h, dj:dj + w, :] += \
                (flat @ k[di, dj].T).reshape(n, h, w, cin)
    return dxp[:, 1:h + 1, 1:w + 1, :]


def feature_forward(x: np.ndarray, spec: FeatureNetSpec):
    """Run the extractor; returns (features (N, D), cache for the backward)."""
    x = np.asarray(x, dtype=np.float64)
    weights = _feature_weights(spec, x.shape[3])
    cache = []
    for k in weights:
        n, h, w, _ = x.shape
        if h % 2 or w % 2:
            raise ValueError("feature net needs even spatial dims at every "
                             f"pooling stage, got {h}x{w}")
        z = _conv3x3(x, k)
        mask = z > 0.0
        a = np.where(mask, z, 0.0)
        x = a.reshape(n, h // 2, 2, w // 2, 2, a.shape[3]).mean(axis=(2, 4))
        cache.append((mask, k))
    n = x.shape[0]
    return x.reshape(n, -1), (cache, x.shape)


def feature_input_grad(dfeat: np.ndarray, cache) -> np.ndarray:
    """Gradient of the features w.r.t. the input images (weights are fixed,
    so only the input path is differentiated)."""
    layers, out_shape = cache
    dy = np.asarray(dfeat, dtype=np.float64).reshape(out_shape)
    for mask, k in reversed(layers):
        # average pool spreads uniformly over its 2x2 window
        dy = np.repeat(np.repeat(dy, 2, axis=1), 2, axis=2) / 4.0
        dy = np.where(mask, dy, 0.0)
        dy = _conv3x3_input_grad(dy, k)
    return dy


def dm_loss_grad(real_by_class: dict[int, np.ndarray],
                 syn_by_class: dict[int, np.ndarray],
                 net: FeatureNetSpec):
    """Squared distance between per-class mean features, summed over classes.

    Returns the loss and, per class, the gradient on each synthetic image's
    pixels (real images are data). Swapping the two sides flips the gradient
    sign for equal batch sizes.
    """
    loss = 0.0
    grads: dict[int, np.ndarray] = {}
    for cls, syn in syn_by_class.items():
        if cls not in real_by_class or len(real_by_class[cls]) == 0:
            raise ValueError(f"no real images for class {cls}")
        if len(syn) == 0:
            raise ValueError(f"no synthetic images for class {cls}")
        real_f, _ = feature_forward(real_by_class[cls], net)
        syn_f, cache = feature_forward(syn, net)
        diff = syn_f.mean(axis=0) - real_f.mean(axis=0)
        loss += float(np.dot(diff, diff))
        n_syn = syn.shape[0]
        dsyn_f = np.broadcast_to(2.0 * diff / n_syn, syn_f.shape)
        grads[cls] = feature_input_grad(dsyn_f, cache)
    return loss, grads


def distill_dm(real, budget, cfg: TrainConfig, render_cfg: RenderConfig,
               workers: int = 1):
    """Distill a labeled dataset into a Gaussian-parameterized synthetic set.

    Initializes by fitting randomly sampled real images (one per synthetic
    slot), then descends the distribution-matching loss under a freshly
    seeded random feature extractor each iteration. Returns the final set and
    the ``(step, total, dm, boundary)`` loss trace.
    """
    from .core import budget_points  # local import keeps module load light

    m = budget_points(budget)
    classes = real.class_count
    if (real.width, real.height, real.channels) != (render_cfg.width,
                                                    render_cfg.height,
                                                    render_cfg.channels):
        raise ValueError("dataset geometry does not match render config")

    rng = np.random.default_rng([cfg.seed, 101])
    targets = []
    labels = []
    for cls in range(classes):
        pool = np.flatnonzero(real.labels == cls)
        if pool.size == 0:
            raise ValueError(f"class {cls} absent from real data")
        picks = rng.choice(pool, size=budget.gpc, replace=pool.size < budget.gpc)
        for i in picks:
            targets.append(ImageBuffer.from_array(real.images[i]))
            labels.append(cls)
    labels = np.asarray(labels, dtype=np.int64)

    fit_cfg = replace(cfg, steps=cfg.init_steps)
    dset, _, _ = fit_images(targets, m, fit_cfg, render_cfg, labels=labels,
                            num_classes=classes, workers=workers)
    loop_rng = np.random.default_rng([cfg.seed, 202])
    zero_up = np.zeros((render_cfg.height, render_cfg.width,
                        render_cfg.channels))

    def dm(images):
        # loop_rng draws in a fixed order (net seed, real batches, then
        # synthetic picks) so a seed reproduces the same trace
        net = FeatureNetSpec(depth=cfg.feature_depth,
                             channels=cfg.feature_channels,
                             seed=int(loop_rng.integers(2 ** 31)))
        real_batch = {}
        for cls in range(classes):
            pool = np.flatnonzero(real.labels == cls)
            take = min(cfg.batch_real, pool.size)
            picks = loop_rng.choice(pool, size=take, replace=False)
            real_batch[cls] = real.images[picks].astype(np.float64)

        syn_by_class = {}
        members = {}
        for cls in range(classes):
            idx = np.flatnonzero(dset.labels == cls)
            if cfg.batch_syn > 0 and cfg.batch_syn < idx.size:
                idx = np.sort(loop_rng.choice(idx, size=cfg.batch_syn,
                                              replace=False))
            members[cls] = idx
            syn_by_class[cls] = np.stack([images[i].as_array() for i in idx])

        # non-finite real data makes the features inf or NaN; _descend then
        # stops the run with a ValueError naming the step
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grads = dm_loss_grad(real_batch, syn_by_class, net)
        upstream = [zero_up] * dset.num_images
        for cls, idx in members.items():
            for pos, i in enumerate(idx):
                upstream[i] = grads[cls][pos]
        return loss, [ImageBuffer.from_array(a) for a in upstream]

    trace = _descend(dset, cfg, render_cfg, workers, dm, per_image=False)
    return dset, trace
