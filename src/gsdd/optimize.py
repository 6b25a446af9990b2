"""Losses, the Adam optimizer, and the fitting / distillation loops.

Fitting recovers Gaussian parameters for individual target images by
minimizing mean squared error; distillation optimizes a whole synthetic set
against a real dataset by matching per-class mean features under a fixed
random convolutional extractor, resampled every iteration. Both run the same
training step and differ only in the loss: optional bf16 forward casting, the
render, the loss, the renderer's analytic backward pass plus the boundary
regularizer that keeps Gaussian centers inside the frame, Adam, and position
clipping. A fit step renders and back-propagates its per-pixel MSE in one tile
pass; a distillation step makes two, as its loss needs the whole batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DEFAULT_CLIP_EPS,
    F_U,
    F_V,
    PARAMS_PER_GAUSSIAN,
    DistilledSet,
    RenderConfig,
    budget_points,
    clip_positions,
    normalized_to_pixel,
)
from .data_io import bf16_round
from .raster import (_mse_upstream, _TileSchedule, render_backward,
                     render_batched)


# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment buffers plus the learning rate."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    lr: float = 1e-2

    @classmethod
    def new(cls, n_params: int, lr: float = 1e-2) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params), lr=lr)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray
              ) -> np.ndarray:
    """Standard bias-corrected Adam update, in place on ``params``."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError("parameter/gradient/state shape mismatch")
    state.step_count += 1
    t = state.step_count
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = state.m / (1.0 - ADAM_BETA1 ** t)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** t)
    params -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params


def _mse(diff: np.ndarray) -> float:
    """Mean of the squared entries of ``diff``, summed by one dot product;
    inf, without a warning, for a sum beyond float64."""
    flat = diff.reshape(-1)
    with np.errstate(over="ignore"):
        return float(np.dot(flat, flat)) / flat.size


def _summed_mse(images: np.ndarray, targets: np.ndarray) -> float:
    """Each image's mean squared error of the (N, H, W, C) ``images``
    against ``targets``, summed in image order; inf or NaN, without a
    warning, where the difference overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = images - targets
    return sum(_mse(d) for d in diff)


def mse_loss_grad(images, targets) -> tuple[float, np.ndarray]:
    """Each image's mean squared error, summed over the (N, H, W, C) batch,
    and its (N, H, W, C) gradient: the fit's loss, ``gradcheck_suite``'s
    too, and the upstream the fit pass forms per block (``_mse_upstream``)."""
    images = np.asarray(images, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if images.shape != targets.shape:
        raise ValueError(f"shapes differ: {images.shape} vs {targets.shape}")
    return (_summed_mse(images, targets),
            _mse_upstream(images, targets, math.prod(images.shape[1:])))


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB of ``a`` against the reference ``b``;
    inf for identical inputs and -inf, without a warning, for a squared
    error beyond float64. The peak is ``b``'s value range, floored at 1.0
    so flat references still use the [0, 1] scale."""
    with np.errstate(over="ignore"):
        peak = max(float(np.ptp(b)), 1.0)
        mse = _mse(np.asarray(a, dtype=np.float64)
                   - np.asarray(b, dtype=np.float64))
    if mse == 0.0:
        return math.inf
    if mse == math.inf:
        return -math.inf
    return 10.0 * math.log10(peak * peak / mse)


def boundary_loss(dset: DistilledSet, lam: float, per_image: bool = False
                  ) -> tuple[float, np.ndarray]:
    """Boundary regularizer, averaged over every Gaussian of the set.

    The per-Gaussian term -[log(1-u^2)+log(1-v^2)] grows without bound as a
    center approaches the frame edge; its gradient always points inward, so
    centers cannot drift into the zero-gradient region outside the frame.
    With ``per_image`` each image's terms are averaged over that image's
    Gaussians alone and the per-image losses summed, so a multi-target fit
    decomposes into independent single-target fits. Returns the weighted
    loss and its flat gradient, one-to-one with ``dset.params`` and zero
    outside u and v.
    """
    grads = np.zeros(dset.params.size)
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
    g = grads.reshape(-1, PARAMS_PER_GAUSSIAN)
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
    epsilon_clip: float = DEFAULT_CLIP_EPS
    bf16_forward: bool = False
    seed: int = 0
    init_steps: int = 300         # fitting steps for distillation warm start
    feature_depth: int = 2
    feature_channels: int = 32

    def __post_init__(self) -> None:
        for name, low in (("steps", 0), ("init_steps", 0), ("batch_real", 1),
                          ("batch_syn", 0), ("feature_depth", 0),
                          ("feature_channels", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        for name in ("lr", "lambda_boundary"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0")
        if not 0.0 < self.epsilon_clip < 1.0:
            raise ValueError("epsilon_clip must lie in (0, 1)")


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


def _check_finite_images(images: np.ndarray, what: str) -> None:
    """Reject (N, H, W, C) images with a NaN or inf pixel, naming the first."""
    finite = np.isfinite(images).all(axis=(1, 2, 3))
    if not finite.all():
        raise ValueError(f"{what} {np.argmin(finite)}: pixels must be finite")


def _forward_set(dset: DistilledSet, cfg: TrainConfig) -> DistilledSet:
    """The set the forward pass renders: with ``bf16_forward`` a copy holding
    bf16-rounded parameters (straight-through: gradients still update the
    full-precision masters), otherwise the set itself."""
    if not cfg.bf16_forward:
        return dset
    return replace(dset, params=bf16_round(dset.params))


def _descend(dset: DistilledSet, cfg: TrainConfig, render_cfg: RenderConfig,
             workers: int, targets=None, loss_fn=None):
    """The training step, ``cfg.steps`` times, in place on ``dset``.

    A fit passes its float64 (N, H, W, C) ``targets``. The MSE's upstream
    at a pixel needs that pixel alone, so its step is: bf16 cast -> one
    tile pass, ``render_batched(..., targets=)``, for the images and the
    gradient -> the loss, summed as :func:`mse_loss_grad` sums it ->
    per-image boundary term -> Adam -> position clip. Distillation passes
    ``loss_fn(images) -> (loss, upstream)`` on the float64 batch, and its
    step renders, calls it and runs the backward over the same schedule.
    A non-finite loss (checked before a separate backward) or gradient
    raises a ``ValueError`` naming the step, before Adam touches the
    parameters. The module-level names are looked up on every call, so
    wrappers installed on this module see each stage. Returns the
    ``(step, total, loss, boundary)`` trace.
    """
    adam = AdamState.new(dset.params.size, lr=cfg.lr)
    per_image = targets is not None
    trace = []
    for step in range(cfg.steps):
        fwd_set = _forward_set(dset, cfg)
        sched = _TileSchedule(fwd_set, render_cfg)
        grads = None
        if per_image:
            images, grads = render_batched(
                fwd_set, render_cfg, workers=workers, out_dtype=np.float64,
                schedule=sched, targets=targets)
            loss = _summed_mse(images, targets)
        else:
            images = np.asarray(render_batched(
                fwd_set, render_cfg, workers=workers, out_dtype=np.float64,
                schedule=sched))
            loss, upstream = loss_fn(images)
        bnd_loss, bnd_grads = boundary_loss(dset, cfg.lambda_boundary,
                                            per_image=per_image)
        # a non-finite loss stops the step before a separate backward runs
        finite = math.isfinite(loss + bnd_loss)
        if finite:
            if grads is None:
                grads = render_backward(fwd_set, render_cfg, upstream,
                                        workers=workers, schedule=sched
                                        ).grads
            grads = grads + bnd_grads
            finite = bool(np.isfinite(grads).all())
        if not finite:
            raise ValueError(f"step {step}: the loss or its gradient is not "
                             "finite")
        adam_step(adam, dset.params, grads)
        clip_positions(dset, cfg.epsilon_clip)
        trace.append((step, loss + bnd_loss, loss, bnd_loss))
    return trace


def fit_images(targets, m: int, cfg: TrainConfig, render_cfg: RenderConfig,
               labels=None, num_classes: int = 1, workers: int = 1):
    """Fit a Gaussian set to target images by per-image MSE descent.

    ``targets`` is an (N, H, W, C) array or a list of ``ImageBuffer``. Every
    image is an independent problem: its own init stream (image j draws
    from ``default_rng([cfg.seed, j])``), its own MSE and per-image boundary
    terms, and (because Adam is elementwise) updates identical to fitting
    it alone. Returns the fitted set, per-image final PSNR (against each
    target's value range), and a loss trace of ``(step, total, mse,
    boundary)`` rows.
    """
    if m < 1:
        raise ValueError("cannot fit with zero Gaussians per image")
    if len(targets) == 0:
        raise ValueError("no target images")
    tgt = np.asarray(targets, dtype=np.float64)
    if tgt.shape[1:] != (render_cfg.height, render_cfg.width,
                         render_cfg.channels):
        raise ValueError("target geometry does not match render config")
    _check_finite_images(tgt, "target image")

    n = tgt.shape[0]
    params = np.concatenate([
        _init_gaussians(tgt[j], m, np.random.default_rng([cfg.seed, j]),
                        render_cfg.width, render_cfg.height)
        for j in range(n)])
    dset = DistilledSet(render_cfg.width, render_cfg.height,
                        render_cfg.channels, n, m, params,
                        labels if labels is not None
                        else np.zeros(n, dtype=np.int64),
                        num_classes)
    clip_positions(dset, cfg.epsilon_clip)

    trace = _descend(dset, cfg, render_cfg, workers, targets=tgt)
    final = render_batched(_forward_set(dset, cfg), render_cfg,
                           workers=workers, out_dtype=np.float64)
    psnrs = np.array([psnr(final[j], tgt[j]) for j in range(n)])
    return dset, psnrs, trace


def feature_weights(depth: int, channels: int, seed: int, in_channels: int
                    ) -> list[np.ndarray]:
    """Conv weights of the fixed random feature extractor: ``depth`` blocks
    of {3x3 conv (stride 1, pad 1) -> ReLU -> 2x2 average pool} with
    ``channels`` outputs, He-scaled draws fully determined by ``seed`` and
    never trained. ``depth=0`` degenerates to flattened pixels."""
    rng = np.random.default_rng(seed)
    weights = []
    cin = in_channels
    for _ in range(depth):
        std = math.sqrt(2.0 / (9.0 * cin))
        weights.append(rng.normal(0.0, std, (3, 3, cin, channels)))
        cin = channels
    return weights


def _tap_windows(xp: np.ndarray) -> np.ndarray:
    """Every 3x3 window of the (n, h+2, w+2, cin) ``xp`` as a read-only
    strided view of shape (n, h, w, 3, 3*cin): per output pixel, the
    window's three rows, each one contiguous run of 3*cin elements of
    ``xp``, so its last axis runs in (dj, cin) order."""
    xp = np.ascontiguousarray(xp)
    n, hp, wp, cin = xp.shape
    s_n, s_h, s_w, s_c = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, (n, hp - 2, wp - 2, 3, 3 * cin), (s_n, s_h, s_w, s_h, s_c),
        writeable=False)


def _conv3x3(xp: np.ndarray, k: np.ndarray) -> np.ndarray:
    """3x3 convolution (stride 1) of the zero-bordered (n, h+2, w+2, cin)
    ``xp`` with the (3, 3, cin, cout) ``k``; returns (n, h, w, cout).

    The im2col matrix is one copy of :func:`_tap_windows`, and its columns
    run in (di, dj, cin) order. That is the memory order of a window row in
    ``xp``, so the copy moves runs of 3*cin elements (a (cin, di, dj) order
    moves runs of 3), and the order of the weights that
    :func:`feature_weights` draws, so ``k.reshape(9*cin, cout)`` is a view.
    The GEMM sums each output over the columns in that order.
    """
    win = _tap_windows(xp)
    n, h, w, _, row = win.shape
    cols = np.ascontiguousarray(win).reshape(n * h * w, 3 * row)
    return (cols @ k.reshape(3 * row, -1)).reshape(n, h, w, -1)


def _conv3x3_input_grad(dy: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Gradient of :func:`_conv3x3` w.r.t. its input's interior: the
    (n, h, w, cout) ``dy`` through the (3, 3, cin, cout) ``k`` gives
    (n, h, w, cin) in ``dy``'s dtype.

    Tap (di, dj) is one (n*h*w, cout) @ (cout, cin) product, added into a
    zero-bordered (n, h+2, w+2, cin) buffer at offset (di, dj); the interior
    is returned, so the border's share is dropped. The nine products share
    one buffer, and the adds run in (di, dj) order. Written instead as
    :func:`_conv3x3` of the bordered ``dy`` with the flipped kernel, the
    first layer (cin = 3) runs about three times slower.
    """
    n, h, w, cout = dy.shape
    cin = k.shape[2]
    flat = dy.reshape(-1, cout)
    # the nine products, one buffer
    taps = np.empty((3, 3, n * h * w, cin), dtype=dy.dtype)
    dxp = np.zeros((n, h + 2, w + 2, cin), dtype=dy.dtype)
    for di in range(3):
        for dj in range(3):
            tap = np.matmul(flat, k[di, dj].T, out=taps[di, dj])
            dxp[:, di:di + h, dj:dj + w, :] += tap.reshape(n, h, w, cin)
    return dxp[:, 1:h + 1, 1:w + 1, :]


def _check_pooled_sides(height: int, width: int, depth: int) -> None:
    """The net halves both sides at each of its ``depth`` pooling stages."""
    side = 2 ** depth
    if height % side or width % side:
        raise ValueError(f"feature net of depth {depth} needs height and "
                         f"width divisible by {side}, got {height}x{width}")


def feature_forward(x: np.ndarray, weights: list[np.ndarray]):
    """Run the extractor with the conv ``weights`` of
    :func:`feature_weights`; returns (features (N, D), cache for the
    backward).

    The net computes in its weights' dtype: ``x`` is cast to it, so float32
    weights (``distill_dm`` casts its draw) give float32 features, and a
    float32 cast turns a pixel beyond float32's range into inf. Without
    weights (depth 0) the features are the pixels in float64.

    Each conv reads a zero-bordered buffer, (n, h+2, w+2, c) for an h x w
    layer input: ``x`` is cast once into the first layer's, and each
    block's pool writes into the interior of the next layer's, so no layer
    input is padded by a copy. The last block pools into a plain array.

    Each block's ReLU is ``np.maximum(z, 0.0)`` in place on the fresh conv
    output, which gives +0.0 for -0.0 as ``np.where(z > 0, z, 0.0)`` does,
    and its pool adds the four strided window corners as ``((z00 + z01) +
    z10) + z11`` and divides by 4, the order in which ``mean(axis=(2, 4))``
    of the (n, h/2, 2, w/2, 2, c) view adds; any other order moves the last
    bits. The ReLU passes a NaN on, so callers reject non-finite inputs
    first (``distill_dm`` does).
    """
    x = np.asarray(x, dtype=None if weights else np.float64)
    _check_pooled_sides(x.shape[1], x.shape[2], len(weights))
    if not weights:
        return x.reshape(x.shape[0], -1), ([], x.shape)
    dtype = weights[0].dtype
    n, h, w, c = x.shape
    xp = np.zeros((n, h + 2, w + 2, c), dtype=dtype)
    xp[:, 1:h + 1, 1:w + 1] = x
    cache = []
    for layer, k in enumerate(weights, 1):
        z = _conv3x3(xp, k)
        mask = z > 0.0
        np.maximum(z, 0.0, out=z)
        n, h, w, c = z.shape
        h, w = h // 2, w // 2
        b = int(layer < len(weights))   # border width of the pool's output
        xp = np.zeros((n, h + 2 * b, w + 2 * b, c), dtype=dtype)
        x = xp[:, b:h + b, b:w + b]
        np.add(z[:, 0::2, 0::2], z[:, 0::2, 1::2], out=x)
        x += z[:, 1::2, 0::2]
        x += z[:, 1::2, 1::2]
        x /= 4.0
        cache.append((mask, k))
    return xp.reshape(n, -1), (cache, xp.shape)


def feature_input_grad(dfeat: np.ndarray, cache) -> np.ndarray:
    """Gradient of the features w.r.t. the input images (weights are fixed,
    so only the input path is differentiated), in the dtype of the weights
    that ``cache`` holds, float64 without weights.

    Each block's unpool writes ``dy / 4`` once into its 2x2 windows by a
    broadcast and multiplies it by the ReLU's mask in place. A masked
    negative entry gives -0.0 there, but the conv's tap sums start from
    +0.0, so a signed zero never reaches the result. A NaN or inf in
    ``dfeat`` is not cleared by the mask, so it reaches the gradient.
    """
    layers, out_shape = cache
    dtype = layers[0][1].dtype if layers else np.float64
    dy = np.asarray(dfeat, dtype=dtype).reshape(out_shape)
    for mask, k in reversed(layers):
        n, h, w, c = mask.shape
        up = np.empty((n, h // 2, 2, w // 2, 2, c), dtype=dtype)
        up[...] = (dy / 4.0)[:, :, None, :, None, :]
        up = up.reshape(mask.shape)
        up *= mask
        dy = _conv3x3_input_grad(up, k)
    return dy


def dm_loss_grad(images, real_batches, members, weights: list[np.ndarray]
                 ) -> tuple[float, np.ndarray]:
    """Squared distance between per-class mean features, summed over classes.

    ``images`` is the float64 (N, H, W, C) synthetic batch, ``real_batches``
    one real batch per class and ``members`` one index array into
    ``images`` per class, both through the net whose conv ``weights``
    :func:`feature_weights` drew. The net computes in the weights' dtype,
    and each class's squared feature distance is summed into a float64
    loss. Returns the loss and its float64 (N, H, W, C) gradient on the
    synthetic pixels, zero outside ``members`` (real images are data).
    Swapping the two sides leaves the loss unchanged; for equal batch sizes
    it flips the gradient sign only for the identity net (no weights),
    since deeper nets mask by the input's ReLUs.
    """
    images = np.asarray(images, dtype=np.float64)
    if len(real_batches) != len(members):
        raise ValueError(f"{len(real_batches)} real batches for "
                         f"{len(members)} classes")
    loss = 0.0
    upstream = np.zeros_like(images)
    for cls, (real, idx) in enumerate(zip(real_batches, members)):
        if len(real) == 0:
            raise ValueError(f"no real images for class {cls}")
        if len(idx) == 0:
            raise ValueError(f"no synthetic images for class {cls}")
        real_f, _ = feature_forward(real, weights)
        syn_f, cache = feature_forward(images[idx], weights)
        diff = syn_f.mean(axis=0) - real_f.mean(axis=0)
        diff64 = diff.astype(np.float64, copy=False)
        loss += float(np.dot(diff64, diff64))
        dsyn_f = np.broadcast_to(2.0 * diff / len(idx), syn_f.shape)
        upstream[idx] = feature_input_grad(dsyn_f, cache)
    return loss, upstream


def distill_dm(real, budget, cfg: TrainConfig, render_cfg: RenderConfig,
               workers: int = 1):
    """Distill a labeled dataset into a Gaussian-parameterized synthetic set.

    Initializes by fitting randomly sampled real images (one per synthetic
    slot), then descends the distribution-matching loss under a freshly
    seeded random feature extractor each iteration. Class pools and members
    are fixed for the run; each step draws before it reads a rendered image.
    Returns the final set and the ``(step, total, dm, boundary)`` trace.
    """
    classes = real.class_count
    if (real.width, real.height, real.channels) != (
            render_cfg.width, render_cfg.height, render_cfg.channels):
        raise ValueError("dataset geometry does not match render config")
    _check_pooled_sides(real.height, real.width, cfg.feature_depth)
    pools = [np.flatnonzero(real.labels == cls) for cls in range(classes)]
    for cls, pool in enumerate(pools):
        if pool.size == 0:
            raise ValueError(f"class {cls} absent from real data")
    # checked before the warm start, so that NaN and inf fail alike and do
    # not depend on what the fit or the feature net's ReLU make of them
    _check_finite_images(real.images, "real image")

    rng = np.random.default_rng([cfg.seed, 101])
    warm_picks = np.concatenate([
        rng.choice(pool, size=budget.gpc, replace=pool.size < budget.gpc)
        for pool in pools])
    fit_cfg = replace(cfg, steps=cfg.init_steps)
    dset, _, _ = fit_images(real.images[warm_picks], budget_points(budget),
                            fit_cfg, render_cfg,
                            labels=real.labels[warm_picks],
                            num_classes=classes, workers=workers)
    members = [np.flatnonzero(dset.labels == cls) for cls in range(classes)]
    loop_rng = np.random.default_rng([cfg.seed, 202])

    def dm(images):
        # loop_rng draws in a fixed order (net seed, real batches, then
        # synthetic picks) so a seed reproduces the same trace; the net
        # runs in float32, as DM's ConvNet does, on the float64 draw
        weights = [k.astype(np.float32) for k in feature_weights(
            cfg.feature_depth, cfg.feature_channels,
            int(loop_rng.integers(2 ** 31)), real.channels)]
        real_batches = [real.images[loop_rng.choice(
            pool, size=min(cfg.batch_real, pool.size), replace=False)]
            for pool in pools]
        chosen = [np.sort(loop_rng.choice(idx, size=cfg.batch_syn,
                                          replace=False))
                  if 0 < cfg.batch_syn < idx.size else idx
                  for idx in members]
        # a synthetic pixel beyond float32's range becomes inf in the net
        # and makes the loss inf or NaN; _descend then stops the run with a
        # ValueError naming the step
        with np.errstate(over="ignore", invalid="ignore"):
            return dm_loss_grad(images, real_batches, chosen, weights)

    trace = _descend(dset, cfg, render_cfg, workers, loss_fn=dm)
    return dset, trace
