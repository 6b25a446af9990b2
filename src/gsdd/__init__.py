"""Sparse 2D-Gaussian parameterization of image datasets.

Images are represented as small sets of 2D Gaussian primitives (position,
Cholesky covariance factor, color, opacity) rendered by a batched
differentiable splatter with analytic gradients, anti-aliasing, and bf16
quantization; fitting and distribution-matching distillation loops build
synthetic datasets under explicit storage budgets.
"""

from .core import BudgetSpec, DistilledSet, RenderConfig, budget_points
from .raster import ImageBuffer, render_batched, render_reference
from .gradients import gradcheck, gradcheck_suite, render_backward
from .optimize import TrainConfig, distill_dm, fit_images, psnr
from .data_io import (
    LabeledImageDataset,
    bf16_round,
    export_image,
    load_cifar_binary,
    load_gsd,
    save_gsd,
)
from .analysis import (
    EvalSpec,
    PruneStrategy,
    bench_render,
    importance_score,
    prune_dataset,
    rendered_dataset,
    train_eval_classifier,
)

__all__ = [
    "BudgetSpec", "DistilledSet", "RenderConfig", "budget_points",
    "ImageBuffer", "render_batched", "render_reference",
    "gradcheck", "gradcheck_suite", "render_backward",
    "TrainConfig", "distill_dm", "fit_images", "psnr",
    "LabeledImageDataset", "bf16_round", "export_image", "load_cifar_binary",
    "load_gsd", "save_gsd",
    "EvalSpec", "PruneStrategy", "bench_render", "importance_score",
    "prune_dataset", "rendered_dataset", "train_eval_classifier",
]

__version__ = "0.1.0"
