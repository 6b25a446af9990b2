"""Command-line entry point.

Every subcommand is a reproducible batch run: seeds are explicit (never
drawn from time), flags override values from an optional flat ``key = value``
config file, and commands that produce artifacts persist the fully resolved
configuration next to them once every check has passed, so a rejected run
leaves no out directory; an unusable ``--out`` is rejected before any work.
``OPTION_TYPES`` and ``COMMANDS`` declare each option once, for the parser,
config files and ``resolved_config.txt`` alike; an option that sets a field
of a config dataclass takes its default from that field.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__, analysis, data_io, optimize
from .core import BudgetSpec, RenderConfig, budget_points
from .gradients import gradcheck_suite
from .optimize import TrainConfig
from .raster import render_batched

GRADCHECK_THRESHOLD = 1e-3


def load_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` lines; '#' starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in _BOOL_TRUE:
        return True
    if lowered in _BOOL_FALSE:
        return False
    raise ValueError(f"not a boolean: {text!r}")


# the type of every option, parsing flags and config-file values alike
OPTION_TYPES = {
    "config": str, "seed": int, "workers": int,
    "prefilter": _parse_bool, "ssaa": int, "cutoff": float, "tile-size": int,
    "data": str, "classes": int, "ipc": int, "gpc": int, "steps": int,
    "lr": float, "lambda-boundary": float, "epsilon-clip": float,
    "bf16": _parse_bool, "out": str, "count": int, "gaussians": int,
    "batch-real": int, "batch-syn": int, "init-steps": int,
    "feature-depth": int, "feature-channels": int, "in": str, "stats": str,
    "format": str, "mode": str, "ratio": float, "test-data": str,
    "hidden": int, "epochs": int, "res": str, "batch": str, "m": str,
    "paths": str, "runs": int, "cases": int, "step": float,
}
CHOICES = {"mode": analysis.PRUNE_MODES, "format": ("ppm", "png")}

# the options named otherwise than the config dataclass field they set
FIELD_OPTIONS = {"ssaa_factor": "ssaa", "cutoff_sigma": "cutoff",
                 "bf16_forward": "bf16", "hidden_width": "hidden"}

_COMMON = ("config", "seed", "workers")
_RENDER = ("prefilter", "ssaa", "cutoff", "tile-size")
_TRAIN = _COMMON + _RENDER + ("data", "classes", "ipc", "gpc", "steps", "lr",
                              "lambda-boundary", "epsilon-clip", "bf16", "out")


class SystemExit2(Exception):
    """Usage error: exit code 2."""


class Resolver:
    """Flag > config file > default, recording every resolved value.

    The config file may set any option of the command except ``config``;
    its values go through the same types and choices as the flags, and an
    unknown key or a bad value is a usage error before anything is loaded.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.config: dict[str, object] = {}
        self.resolved: dict[str, object] = {}
        path = args.config
        options = COMMANDS[args.command][2]
        for key, text in (load_config_file(path) if path else {}).items():
            if key == "config" or key not in options:
                raise SystemExit2(
                    f"{path}: {args.command} takes no option {key!r}")
            try:
                value = OPTION_TYPES[key](text)
                if key in CHOICES and value not in CHOICES[key]:
                    raise ValueError
            except ValueError:
                raise SystemExit2(
                    f"{path}: invalid value for {key}: {text!r}") from None
            self.config[key] = value

    def get(self, key: str, default=None):
        value = getattr(self.args, key.replace("-", "_"))
        if value is None:
            value = self.config.get(key, default)
        self.resolved[key] = value
        return value

    def require(self, key: str):
        value = self.get(key)
        if value is None:
            raise SystemExit2(f"missing required option --{key} "
                              "(flag or config file)")
        return value

    def build(self, cls, **given):
        """A ``cls`` dataclass from its fields: the value in ``given``, else
        the command's option for the field if it takes one, else the
        field's default; a field without a default is a required option."""
        options = COMMANDS[self.args.command][2]
        for field in dataclasses.fields(cls):
            key = FIELD_OPTIONS.get(field.name, field.name.replace("_", "-"))
            if field.name not in given and key in options:
                given[field.name] = (
                    self.require(key) if field.default is dataclasses.MISSING
                    else self.get(key, field.default))
        return cls(**given)

    def out_dir(self) -> Path:
        """``--out``, checked without creating it: its nearest existing
        ancestor must be a writable directory, so a bad path fails before
        any work; :meth:`persist` creates it."""
        out_dir = Path(self.require("out"))
        probe = out_dir.absolute()
        while not probe.exists():
            probe = probe.parent
        if not (probe.is_dir() and os.access(probe, os.W_OK | os.X_OK)):
            raise ValueError(f"cannot create --out {out_dir}: {probe} is not "
                             "a writable directory")
        return out_dir

    def persist(self, out_dir: Path) -> None:
        """``resolved_config.txt``: provenance comments, then every set
        option, in a form ``--config`` reads back."""
        out_dir.mkdir(parents=True, exist_ok=True)
        # the bitwise contracts hold per block shape on one BLAS build;
        # numpy before 1.25 has no ``mode`` and cannot name it
        try:
            dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas = f"{dep['name']} {dep['version']}"
        except (TypeError, KeyError):
            blas = "unknown"
        lines = [f"# gsdd {__version__}", f"# numpy {np.__version__}",
                 f"# python {platform.python_version()}", f"# blas {blas}"]
        lines += [f"{k} = {v}" for k, v in sorted(self.resolved.items())
                  if v is not None]
        (out_dir / "resolved_config.txt").write_text("\n".join(lines) + "\n")


def _workers(res: Resolver) -> int:
    return res.get("workers", os.cpu_count() or 1)


def _load_dataset(res: Resolver):
    paths = [p for p in res.require("data").split(",") if p]
    return data_io.load_cifar_binary(paths, classes=res.get("classes", 10))


def _write_trained(out_dir: Path, dset, dataset, trace) -> None:
    data_io.save_gsd(dset, out_dir / "set.gsd")
    data_io.save_stats(out_dir / "set.gsd.stats.json", dataset.mean,
                       dataset.std)
    data_io.write_csv(out_dir / "loss.csv", "step,total,mse_or_dm,boundary",
                      [(s, f"{t:.8g}", f"{d:.8g}", f"{b:.8g}")
                       for s, t, d, b in trace])


def cmd_fit(res: Resolver) -> int:
    seed = res.require("seed")
    out_dir = res.out_dir()
    dataset = _load_dataset(res)
    count = min(res.get("count", 1), len(dataset.labels))
    if count < 1:
        raise ValueError("count must be >= 1")
    m = res.get("gaussians")
    if m is None:
        m = budget_points(BudgetSpec(dataset.width, dataset.channels,
                                     ipc=res.get("ipc", 1),
                                     gpc=res.get("gpc", 1)))
    cfg = res.build(TrainConfig, seed=seed)
    render_cfg = res.build(RenderConfig, width=dataset.width,
                           height=dataset.height, channels=dataset.channels)
    workers = _workers(res)
    data_io.check_gsd_limits(dataset.width, dataset.height, dataset.channels,
                             count, m, dataset.class_count)

    dset, psnrs, trace = optimize.fit_images(
        dataset.images[:count], m, cfg, render_cfg,
        labels=dataset.labels[:count], num_classes=dataset.class_count,
        workers=workers)

    data_io.check_gsd_params(dset)
    res.persist(out_dir)
    _write_trained(out_dir, dset, dataset, trace)
    data_io.write_csv(out_dir / "psnr.csv", "image,psnr",
                      [(i, f"{p:.4f}") for i, p in enumerate(psnrs)])
    print(f"fitted {count} images with {m} Gaussians each; "
          f"mean PSNR {np.mean(psnrs):.2f} dB")
    return 0


def cmd_distill(res: Resolver) -> int:
    seed = res.require("seed")
    out_dir = res.out_dir()
    dataset = _load_dataset(res)
    budget = BudgetSpec(dataset.width, dataset.channels,
                        ipc=res.get("ipc", 1), gpc=res.get("gpc", 10))
    m = budget_points(budget)
    cfg = res.build(TrainConfig, seed=seed)
    render_cfg = res.build(RenderConfig, width=dataset.width,
                           height=dataset.height, channels=dataset.channels)
    workers = _workers(res)
    data_io.check_gsd_limits(dataset.width, dataset.height, dataset.channels,
                             dataset.class_count * budget.gpc, m,
                             dataset.class_count)

    dset, trace = optimize.distill_dm(dataset, budget, cfg, render_cfg,
                                      workers=workers)
    data_io.check_gsd_params(dset)
    res.persist(out_dir)
    _write_trained(out_dir, dset, dataset, trace)
    print(f"distilled {dset.num_images} images "
          f"({m} Gaussians each) in {cfg.steps} steps")
    return 0


def _sidecar_stats(res: Resolver, container: Path):
    explicit = res.get("stats")
    sidecar = container.with_name(container.name + ".stats.json")
    if explicit or sidecar.exists():
        return data_io.load_stats(explicit or sidecar)
    return None


def cmd_render(res: Resolver) -> int:
    container = Path(res.require("in"))
    out_dir = res.out_dir()
    fmt = res.get("format", "ppm")
    if fmt == "png":
        # export_image imports Pillow per image; fail before any rendering
        try:
            import PIL  # noqa: F401
        except ImportError:
            raise ValueError("PNG export needs Pillow; use .ppm instead"
                             ) from None
    dset = data_io.load_gsd(container)
    render_cfg = res.build(RenderConfig, width=dset.width,
                           height=dset.height, channels=dset.channels)
    workers = _workers(res)
    stats = _sidecar_stats(res, container)

    images = render_batched(dset, render_cfg, workers=workers)
    res.persist(out_dir)
    for i, img in enumerate(images):
        data_io.export_image(img, stats, out_dir / f"img_{i:05d}.{fmt}")
    print(f"rendered {len(images)} images to {out_dir}")
    return 0


def cmd_prune(res: Resolver) -> int:
    container = Path(res.require("in"))
    out_dir = res.out_dir()
    strategy = res.build(analysis.PruneStrategy)
    dset = data_io.load_gsd(container)
    render_cfg = res.build(RenderConfig, width=dset.width,
                           height=dset.height, channels=dset.channels)
    workers = _workers(res)
    test_path = res.get("test-data")
    if test_path:
        classes = res.get("classes", dset.num_classes)
        test = data_io.load_cifar_binary(test_path, classes=classes,
                                         stats=_sidecar_stats(res, container))

    pruned = analysis.prune_dataset(dset, strategy)
    data_io.check_gsd_params(pruned)
    res.persist(out_dir)
    data_io.save_gsd(pruned, out_dir / "pruned.gsd")

    before = render_batched(dset, render_cfg, workers=workers)
    after = analysis.rendered_dataset(pruned, render_cfg, workers=workers)
    mean_psnr = float(np.mean([optimize.psnr(a, b)
                               for a, b in zip(after.images, before)]))

    accuracy = ""
    if test_path:
        spec = res.build(analysis.EvalSpec)
        accuracy = f"{analysis.train_eval_classifier(after, test, spec):.4f}"

    data_io.write_csv(out_dir / "prune.csv", "ratio,strategy,psnr,accuracy",
                      [(strategy.ratio, strategy.mode, f"{mean_psnr:.4f}",
                        accuracy)])
    print(f"pruned to {pruned.gaussians_per_image} Gaussians/image; "
          f"PSNR vs unpruned {mean_psnr:.2f} dB")
    return 0


def cmd_eval(res: Resolver) -> int:
    container = Path(res.require("in"))
    spec = res.build(analysis.EvalSpec)
    dset = data_io.load_gsd(container)
    classes = res.get("classes", dset.num_classes)
    test = data_io.load_cifar_binary(res.require("test-data"), classes=classes,
                                     stats=_sidecar_stats(res, container))
    render_cfg = res.build(RenderConfig, width=dset.width,
                           height=dset.height, channels=dset.channels)
    workers = _workers(res)

    train = analysis.rendered_dataset(dset, render_cfg, workers=workers)
    acc = analysis.train_eval_classifier(train, test, spec)
    print(f"test accuracy: {acc:.4f}")
    return 0


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def cmd_bench(res: Resolver) -> int:
    out_dir = res.out_dir()
    seed = res.get("seed", 0)
    res_list = _int_list(res.get("res", "32,128"))
    batch_list = _int_list(res.get("batch", "8"))
    m_list = _int_list(res.get("m", "64"))
    paths = [p for p in res.get("paths", "reference,batched").split(",") if p]
    runs = res.get("runs", 5)
    cutoff = res.get("cutoff", RenderConfig.cutoff_sigma)
    workers = _workers(res)

    grid = [{"res": r, "batch": b, "m": m, "path": p}
            for r in res_list for b in batch_list for m in m_list
            for p in paths]
    rows = analysis.bench_render(grid, seed=seed, runs=runs, workers=workers,
                                 cutoff_sigma=cutoff)
    res.persist(out_dir)
    data_io.write_csv(out_dir / "bench.csv", analysis.BENCH_CSV_HEADER, rows)
    for row in rows:
        print(",".join(str(x) for x in row))
    return 0


def cmd_gradcheck(res: Resolver) -> int:
    cases = res.get("cases", 20)
    seed = res.require("seed")
    step = res.get("step", 1e-4)
    err = gradcheck_suite(cases, seed, step=step)
    print(f"max relative error over {cases} cases: {err:.3e}")
    return 0 if err <= GRADCHECK_THRESHOLD else 1


# subcommand: (handler, help, the options it takes)
COMMANDS = {
    "fit": (cmd_fit, "fit Gaussian sets to real images",
            _TRAIN + ("count", "gaussians")),
    "distill": (cmd_distill, "distill a dataset into Gaussian sets",
                _TRAIN + ("batch-real", "batch-syn", "init-steps",
                          "feature-depth", "feature-channels")),
    "render": (cmd_render, "render a container to image files",
               ("config", "workers") + _RENDER + ("in", "out", "stats",
                                                  "format")),
    "prune": (cmd_prune, "drop Gaussians by importance score",
              _COMMON + _RENDER + ("in", "mode", "ratio", "test-data",
                                   "classes", "stats", "out")),
    "eval": (cmd_eval, "train the probe classifier and report test accuracy",
             _COMMON + _RENDER + ("in", "test-data", "classes", "stats",
                                  "hidden", "epochs", "lr")),
    "bench": (cmd_bench, "time the render paths over a grid",
              _COMMON + ("res", "batch", "m", "paths", "runs", "cutoff",
                         "out")),
    "gradcheck": (cmd_gradcheck, "verify analytic gradients against finite "
                                 "differences",
                  ("config", "seed", "cases", "step")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsdd",
        description="Sparse 2D-Gaussian image sets: fit, distill, render, "
                    "prune, evaluate, benchmark, gradcheck.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key in options:
            p.add_argument(f"--{key}", type=OPTION_TYPES[key],
                           choices=CHOICES.get(key))
        p.set_defaults(func=func)
    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(Resolver(args))
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
