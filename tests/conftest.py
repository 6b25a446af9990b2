import numpy as np
import pytest

from gsdd.core import (
    CHOLESKY_FLOOR,
    F_L11,
    F_L22,
    PARAMS_PER_GAUSSIAN,
    BudgetSpec,
    DistilledSet,
    RenderConfig,
)
from gsdd import gradients
from gsdd.data_io import LabeledImageDataset, normalize_images
from gsdd.optimize import TrainConfig, distill_dm
from gsdd.raster import render_batched, render_reference

# the render configuration of the toy distillations
TOY_DISTILL_RENDER = RenderConfig(16, 16, 3, ssaa_factor=1,
                                  cutoff_sigma=np.inf)


def thin_rotated_factors(rng: np.random.Generator, n: int,
                         ratio: float | None = None) -> np.ndarray:
    """Cholesky entries (n, 3) of thin Gaussians at random angles.

    The long axis has a standard deviation of 0.1-0.6 and the short one is
    ``ratio`` times shorter. Without a ratio it is 1e2 to 1e6 times shorter,
    and half of the Gaussians instead have l22 at exactly
    ``CHOLESKY_FLOOR``. Both diagonal signs are drawn, as the floor acts on
    magnitude.
    """
    long = rng.uniform(0.1, 0.6, n)
    short = long / (10.0 ** rng.uniform(2.0, 6.0, n) if ratio is None
                    else ratio)
    angle = rng.uniform(0.0, np.pi, n)
    # Sigma = R diag(long^2, short^2) R^T; l22 = sqrt(det Sigma) / l11
    l11 = np.hypot(long * np.cos(angle), short * np.sin(angle))
    l21 = (long - short) * (long + short) * np.cos(angle) * np.sin(angle) / l11
    l22 = long * short / l11
    if ratio is None:
        l22 = np.where(rng.random(n) < 0.5, CHOLESKY_FLOOR, l22)
    signs = rng.choice([-1.0, 1.0], (2, n))
    return np.stack([signs[0] * l11, l21, signs[1] * l22], axis=1)


def double_backward(monkeypatch) -> None:
    """Make ``gradcheck`` see twice the analytic gradient, for the
    deliberately wrong control: ``gsdd.gradients.render_backward``, which
    gradcheck looks up at call time, returns the real gradient times 2,
    which is exact."""
    real = gradients.render_backward
    monkeypatch.setattr(gradients, "render_backward", lambda *args, **kwargs:
                        gradients.GradBuffer(2.0 * real(*args, **kwargs).grads))


def make_random_set(rng: np.random.Generator, width: int, height: int,
                    channels: int = 3, n_images: int = 2, m: int = 8,
                    num_classes: int = 1, thin: bool = False) -> DistilledSet:
    """Random but well-conditioned Gaussians for renderer/gradient tests;
    with ``thin``, Gaussians of :func:`thin_rotated_factors` instead."""
    n = n_images * m
    p = np.zeros((n, PARAMS_PER_GAUSSIAN))
    p[:, 0] = rng.uniform(-0.85, 0.85, n)
    p[:, 1] = rng.uniform(-0.85, 0.85, n)
    p[:, 2] = rng.uniform(0.1, 0.6, n)
    p[:, 3] = rng.uniform(-0.3, 0.3, n)
    p[:, 4] = rng.uniform(0.1, 0.6, n)
    p[:, 5:8] = rng.uniform(-1.0, 1.0, (n, 3))
    p[:, 8] = rng.uniform(-1.5, 1.5, n)
    labels = rng.integers(0, num_classes, n_images)
    if thin:
        p[:, F_L11:F_L22 + 1] = thin_rotated_factors(rng, n)
    return DistilledSet(width, height, channels, n_images, m, p.reshape(-1),
                        labels, num_classes)


def make_blob_dataset(n_per_class: int, size: int = 16, seed: int = 0,
                      jitter: float = 0.22) -> LabeledImageDataset:
    """Two-class toy dataset: one soft blob per image, class = blob position.

    Position and size jitter make a single example per class a poor summary
    of its class, so more (or better-placed) training images genuinely help.
    """
    rng = np.random.default_rng(seed)
    centers = {0: (-0.35, -0.25), 1: (0.35, 0.25)}
    ys, xs = np.meshgrid(np.linspace(-1, 1, size), np.linspace(-1, 1, size),
                         indexing="ij")
    images = []
    labels = []
    for cls in (0, 1):
        cx, cy = centers[cls]
        for _ in range(n_per_class):
            jx = cx + rng.normal(0.0, jitter)
            jy = cy + rng.normal(0.0, jitter)
            s = 0.22 + rng.uniform(-0.05, 0.05)
            blob = np.exp(-(((xs - jx) ** 2 + (ys - jy) ** 2) / (2 * s * s)))
            img = np.empty((size, size, 3))
            img[:, :, 0] = 0.15 + 0.7 * blob
            img[:, :, 1] = 0.15 + 0.5 * blob
            img[:, :, 2] = 0.2 + 0.1 * blob
            img += rng.normal(0.0, 0.03, img.shape)
            images.append(np.clip(img, 0.0, 1.0))
            labels.append(cls)
    order = rng.permutation(len(images))
    raw = np.stack(images)[order]
    labels = np.asarray(labels)[order]
    return normalize_images(raw, labels, 2)


def make_field_dataset(n_per_class: int, size: int = 16, seed: int = 0
                       ) -> LabeledImageDataset:
    """Two-class dataset whose class evidence is large-scale by construction.

    Each image is a broad oriented shading field (direction encodes the
    class) plus a few small class-independent clutter dots, so fitted
    Gaussians with large spatial extent carry the discriminative content
    while small ones carry clutter.
    """
    rng = np.random.default_rng(seed)
    ys, xs = np.meshgrid(np.linspace(-1, 1, size), np.linspace(-1, 1, size),
                         indexing="ij")
    images, labels = [], []
    for cls in (0, 1):
        direction = 1.0 if cls == 0 else -1.0
        for _ in range(n_per_class):
            angle = direction * (0.8 + 0.4 * rng.uniform())
            field = 0.5 + 0.35 * np.tanh(angle * (xs + ys)
                                         + rng.normal(0.0, 0.15))
            img = np.stack([field * 0.9, field * 0.7, 0.3 + 0.4 * field],
                           axis=-1)
            for _ in range(4):
                dx, dy = rng.uniform(-0.8, 0.8, 2)
                dot = np.exp(-(((xs - dx) ** 2 + (ys - dy) ** 2) / 0.024))
                img += rng.choice([-0.25, 0.25]) * dot[:, :, None]
            img += rng.normal(0.0, 0.02, img.shape)
            images.append(np.clip(img, 0.0, 1.0))
            labels.append(cls)
    order = rng.permutation(len(images))
    return normalize_images(np.stack(images)[order],
                            np.asarray(labels)[order], 2)


def make_natural_image(size: int = 32, seed: int = 3) -> np.ndarray:
    """Procedural target with smooth shading plus hard edges, values in [0, 1]."""
    rng = np.random.default_rng(seed)
    ys, xs = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size),
                         indexing="ij")
    img = np.empty((size, size, 3))
    img[:, :, 0] = 0.3 + 0.5 * xs
    img[:, :, 1] = 0.2 + 0.5 * ys * (1 - xs)
    img[:, :, 2] = 0.5 + 0.3 * np.sin(4.0 * xs) * np.cos(3.0 * ys)
    disk = ((xs - 0.4) ** 2 + (ys - 0.55) ** 2) < 0.04
    img[disk] = [0.85, 0.3, 0.2]
    bar = (xs > 0.7) & (xs < 0.82)
    img[bar] = [0.1, 0.15, 0.6]
    img += rng.normal(0.0, 0.005, img.shape)
    return np.clip(img, 0.0, 1.0)


def closed_form_error(l11: float, l21: float, l22: float, sigma_px,
                      prefilter: bool, size: int = 32) -> float:
    """Largest relative error, over every pixel of both render paths, of one
    centred Gaussian with Cholesky entries ``l`` against the closed form
    ``alpha * color * exp(-d^T sigma_px^-1 d / 2)`` at the pixel centres
    (ssaa 1, infinite cutoff, float64 output)."""
    color, alpha = np.array([1.0, 0.5, -0.25]), 0.8
    dset = DistilledSet(size, size, 3, 1, 1,
                        np.array([0.0, 0.0, l11, l21, l22, *color, alpha]),
                        np.zeros(1, dtype=np.int64))
    cfg = RenderConfig(size, size, 3, prefilter=prefilter, ssaa_factor=1,
                       cutoff_sigma=np.inf)
    (a, b), (_, c) = sigma_px
    d = np.arange(size) - (size - 1) / 2.0
    dx, dy = d[None, :], d[:, None]
    q = (c * dx * dx - 2.0 * b * dx * dy + a * dy * dy) / (a * c - b * b)
    expected = alpha * np.exp(-0.5 * q)[:, :, None] * color
    rendered = [render_batched(dset, cfg, out_dtype=np.float64)[0],
                render_reference(dset, 0, cfg, out_dtype=np.float64)]
    return max(float(np.max(np.abs(np.asarray(img) - expected)
                            / np.abs(expected))) for img in rendered)


@pytest.fixture(scope="session")
def blob_dataset() -> LabeledImageDataset:
    return make_blob_dataset(n_per_class=64, seed=11)


@pytest.fixture(scope="session")
def toy_distillations(blob_dataset) -> list:
    """Acceptance 08's five distillations of ``blob_dataset``, one ``(set,
    trace)`` per seed 0-4. TestDistill's loss check reads seeds 0-2, the
    same runs, so a tier-1 run makes each of them once."""
    budget = BudgetSpec(16, 3, ipc=1, gpc=10)
    return [distill_dm(blob_dataset, budget,
                       TrainConfig(steps=1000, lr=2e-2, batch_real=32,
                                   seed=seed, init_steps=200,
                                   feature_depth=2, feature_channels=8),
                       TOY_DISTILL_RENDER)
            for seed in range(5)]
