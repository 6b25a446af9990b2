"""The benchmark's three workloads.

Each workload generates its inputs from the workload seed, writes them to
files with gsdd's own writers, and defines one operation: a single
``gsdd`` CLI call driven in-process through ``gsdd.cli.dispatch``. Render
knobs are never passed, so the CLI defaults (prefilter on, ssaa 2, cutoff 3,
tile 16) are what gets measured.

Every operation of a run is the same call on the same inputs, so its
outputs, including the final loss, must repeat exactly.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from gsdd import cli
# bound at import, so the tracer's module-attribute wrappers never see the
# benchmark's own reads and writes
from gsdd.data_io import load_gsd, save_gsd, save_stats, write_cifar_binary
from gsdd.core import PARAMS_PER_GAUSSIAN, DistilledSet

GSD_HEADER_BYTES = 17
CLASS_LAYOUT_SEED = 0
# The CLI's own --seed (Gaussian init, DM sampling) stays fixed, so the
# workload seed changes only the data.
CLI_SEED = 0

# Per-channel display statistics written beside the render workload's
# container, so exported PPMs carry the same mapping a distilled set has.
RENDER_STATS = (np.array([0.49, 0.48, 0.45]), np.array([0.25, 0.24, 0.26]))


def _bilinear(points: int, size: int) -> np.ndarray:
    """(size, points) matrix interpolating a coarse grid to pixel centers."""
    pos = np.clip((np.arange(size) + 0.5) * points / size - 0.5, 0, points - 1)
    lo = np.minimum(np.floor(pos).astype(int), points - 2)
    frac = pos - lo
    mat = np.zeros((size, points))
    mat[np.arange(size), lo] = 1.0 - frac
    mat[np.arange(size), lo + 1] = frac
    return mat


def cifar_like(rng: np.random.Generator, n: int, classes: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Smooth 32x32 RGB uint8 images: a coarse colour layout per class, plus
    per-image variation and pixel noise drawn from ``rng``.

    The class layouts are fixed, as a dataset's classes are; the seed draws
    the images. With a per-image share of 0.2 the final fit loss spreads
    about 4% across seeds (12% at 0.4), so it can carry a bound.
    """
    labels = np.arange(n) % classes
    layouts = np.random.default_rng(CLASS_LAYOUT_SEED).uniform(
        0.0, 1.0, (classes, 4, 4, 3))
    coarse = 0.8 * layouts[labels] + 0.2 * rng.uniform(0.0, 1.0, (n, 4, 4, 3))
    interp = _bilinear(4, 32)
    img = np.einsum("yi,nijc,xj->nyxc", interp, coarse, interp)
    img += rng.normal(0.0, 0.03, img.shape)
    return np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8), labels


def random_set(rng: np.random.Generator, size: int, n: int, m: int,
               classes: int = 10) -> DistilledSet:
    """A stored-set stand-in: footprints sized like the fit initialisation
    (about m of them tile the frame), normalised colours, positive opacity."""
    k = n * m
    p = np.zeros((k, PARAMS_PER_GAUSSIAN))
    p[:, 0:2] = rng.uniform(-0.95, 0.95, (k, 2))
    scale = 2.0 * 1.5 / math.sqrt(m)
    p[:, 2] = scale * rng.uniform(0.5, 1.2, k)
    p[:, 3] = scale * rng.uniform(-0.3, 0.3, k)
    p[:, 4] = scale * rng.uniform(0.5, 1.2, k)
    p[:, 5:8] = rng.normal(0.0, 0.25, (k, 3))
    p[:, 8] = rng.uniform(0.5, 1.5, k)
    return DistilledSet(size, size, 3, n, m, p.reshape(-1),
                        np.arange(n) % classes, classes)


def gsd_bytes(n: int, m: int) -> int:
    """Exact container size from the README: 17 + 2N + 18NM."""
    return GSD_HEADER_BYTES + 2 * n + 2 * n * m * PARAMS_PER_GAUSSIAN


def dispatch(argv) -> int:
    return cli.dispatch([str(a) for a in argv])


def read_loss(path: Path) -> list[float]:
    """Totals column of a ``loss.csv``."""
    rows = path.read_text().splitlines()[1:]
    return [float(row.split(",")[1]) for row in rows]


class Workload:
    """One CLI operation on seeded inputs.

    ``steps`` is the number of measured steps in one operation. ``loop``
    says where they live: ``"fit"`` for the Adam steps inside
    ``fit_images``, ``"outer"`` for those outside it (the DM loop, whose
    warm-start fit steps are excluded), ``None`` when one operation is one
    step.
    """

    name = ""
    loop: str | None = None
    workers = 1

    def __init__(self, toy: bool) -> None:
        self.toy = toy

    def prepare(self, seed: int, folder: Path) -> dict:
        """Generate and write inputs, then run one short warm-up call."""
        raise NotImplementedError

    def argv(self, inputs: dict, out: Path) -> list:
        raise NotImplementedError

    @property
    def image_steps(self) -> int:
        """Image-steps one operation performs, for ``images_per_s``."""
        raise NotImplementedError

    def check_op(self, out: Path) -> tuple[str | None, float | None]:
        """Per-operation output check: (error message or None, loss_final)."""
        raise NotImplementedError

    def gaussian_set(self, inputs: dict, out: Path) -> DistilledSet:
        """The Gaussian set the run-level checks render."""
        return load_gsd(out / "set.gsd")


def _check_losses(out: Path, steps: int, must_drop: bool):
    losses = read_loss(out / "loss.csv")
    if len(losses) != steps:
        return f"loss.csv has {len(losses)} rows, expected {steps}", None
    if not all(math.isfinite(x) for x in losses):
        return "non-finite loss row", None
    if must_drop and not losses[-1] < losses[0]:
        return f"fit loss did not drop: {losses[0]} -> {losses[-1]}", None
    return None, losses[-1]


def _check_gsd(path: Path, n: int, m: int) -> str | None:
    size = path.stat().st_size
    if size != gsd_bytes(n, m):
        return f"{path.name} is {size} bytes, expected {gsd_bytes(n, m)}"
    dset = load_gsd(path)
    if (dset.num_images, dset.gaussians_per_image) != (n, m):
        return f"{path.name} loads back as N={dset.num_images}, " \
               f"M={dset.gaussians_per_image}"
    return None


class FitCifar(Workload):
    name = "fit-cifar"
    loop = "fit"
    workers = 1

    def __init__(self, toy: bool) -> None:
        super().__init__(toy)
        self.count, self.m, self.steps = (2, 4, 3) if toy else (10, 22, 30)

    @property
    def image_steps(self) -> int:
        return self.count * self.steps

    def _argv(self, data: Path, out: Path, steps: int) -> list:
        return ["fit", "--data", data, "--count", self.count,
                "--gaussians", self.m, "--steps", steps,
                "--workers", self.workers, "--seed", CLI_SEED, "--out", out]

    def prepare(self, seed: int, folder: Path) -> dict:
        images, labels = cifar_like(np.random.default_rng([seed, 1]),
                                    self.count, 10)
        data = folder / "fit.bin"
        write_cifar_binary(images, labels, data)
        dispatch(self._argv(data, folder / "warm", 1))
        return {"data": data, "files": [data]}

    def argv(self, inputs: dict, out: Path) -> list:
        return self._argv(inputs["data"], out, self.steps)

    def check_op(self, out: Path):
        err, loss = _check_losses(out, self.steps, must_drop=True)
        return err or _check_gsd(out / "set.gsd", self.count, self.m), loss


class DistillCifar10(Workload):
    name = "distill-cifar10"
    loop = "outer"
    workers = 2
    m = 68              # budget_points at 32x32x3, ipc=1, gpc=10
    images = 100        # 10 classes x gpc

    def __init__(self, toy: bool) -> None:
        super().__init__(toy)
        self.per_class, self.batch_real, self.init_steps, self.steps = \
            (4, 4, 0, 2) if toy else (50, 32, 1, 5)

    @property
    def image_steps(self) -> int:
        return self.images * (self.init_steps + self.steps)

    def _argv(self, data: Path, out: Path) -> list:
        argv = ["distill", "--data", data, "--ipc", 1, "--gpc", 10,
                "--batch-real", self.batch_real,
                "--init-steps", self.init_steps, "--steps", self.steps,
                "--workers", self.workers, "--seed", CLI_SEED, "--out", out]
        # the toy size only shortens the smoke test
        return argv + ["--ssaa", 1] if self.toy else argv

    def prepare(self, seed: int, folder: Path) -> dict:
        images, labels = cifar_like(np.random.default_rng([seed, 2]),
                                    10 * self.per_class, 10)
        data = folder / "real.bin"
        write_cifar_binary(images, labels, data)
        # warm-up: one fit step at the workload's M and worker count
        dispatch(["fit", "--data", data, "--count", 10, "--gaussians", self.m,
                  "--steps", 1, "--workers", self.workers, "--seed", CLI_SEED,
                  "--out", folder / "warm"])
        return {"data": data, "files": [data]}

    def argv(self, inputs: dict, out: Path) -> list:
        return self._argv(inputs["data"], out)

    def check_op(self, out: Path):
        err, loss = _check_losses(out, self.steps, must_drop=False)
        return err or _check_gsd(out / "set.gsd", self.images, self.m), loss


class Render128(Workload):
    name = "render-128"
    loop = None
    workers = 2
    steps = 1

    def __init__(self, toy: bool) -> None:
        super().__init__(toy)
        self.size, self.images, self.m = (32, 2, 8) if toy else (128, 8, 170)

    @property
    def image_steps(self) -> int:
        return self.images

    def _argv(self, container: Path, out: Path) -> list:
        return ["render", "--in", container, "--out", out,
                "--workers", self.workers]

    def prepare(self, seed: int, folder: Path) -> dict:
        dset = random_set(np.random.default_rng([seed, 3]), self.size,
                          self.images, self.m)
        container = folder / "set.gsd"
        save_gsd(dset, container)
        save_stats(folder / "set.gsd.stats.json", *RENDER_STATS)
        # warm-up: the same command on a one-image container
        warm = folder / "warm.gsd"
        save_gsd(dset.subset([0]), warm)
        save_stats(folder / "warm.gsd.stats.json", *RENDER_STATS)
        dispatch(self._argv(warm, folder / "warm"))
        return {"container": container, "files": [container]}

    def argv(self, inputs: dict, out: Path) -> list:
        return self._argv(inputs["container"], out)

    def ppm_path(self, out: Path, i: int) -> Path:
        return out / f"img_{i:05d}.ppm"

    def check_op(self, out: Path):
        expected = len(f"P6\n{self.size} {self.size}\n255\n") \
            + 3 * self.size * self.size
        for i in range(self.images):
            path = self.ppm_path(out, i)
            if not path.is_file():
                return f"missing {path.name}", None
            if path.stat().st_size != expected:
                return f"{path.name} is {path.stat().st_size} bytes", None
        return None, None

    def gaussian_set(self, inputs: dict, out: Path) -> DistilledSet:
        return load_gsd(inputs["container"])


WORKLOADS = {w.name: w for w in (FitCifar, DistillCifar10, Render128)}
