"""Command-line entry point.

Every subcommand is a reproducible batch run: seeds are explicit (never
drawn from time), flags override values from an optional flat ``key = value``
config file, and commands that produce artifacts persist the fully resolved
configuration next to them.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, data_io, optimize
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


class Resolver:
    """Flag > config file > default, recording every resolved value."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.config = load_config_file(args.config) if args.config else {}
        self.resolved: dict[str, object] = {}

    def get(self, key: str, default, cast=None):
        flag = getattr(self.args, key.replace("-", "_"), None)
        if flag is not None:
            value = flag
        elif key in self.config:
            text = self.config[key]
            if cast is bool or isinstance(default, bool):
                value = _parse_bool(text)
            elif cast is not None:
                value = cast(text)
            elif default is not None:
                value = type(default)(text)
            else:
                value = text
        else:
            value = default
        self.resolved[key] = value
        return value

    def require(self, key: str, cast=None):
        value = self.get(key, None, cast)
        if value is None:
            raise SystemExit2(f"missing required option --{key} "
                              "(flag or config file)")
        return value

    def persist(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        lines = [f"{k} = {v}" for k, v in sorted(self.resolved.items())]
        (out_dir / "resolved_config.txt").write_text("\n".join(lines) + "\n")


class SystemExit2(Exception):
    """Usage error: exit code 2."""


def _workers(res: Resolver) -> int:
    env = os.environ.get("GSDD_WORKERS")
    default = int(env) if env else (os.cpu_count() or 1)
    return int(res.get("workers", default))


def _render_config(res: Resolver, width: int, height: int,
                   channels: int) -> RenderConfig:
    return RenderConfig(
        width, height, channels,
        prefilter=bool(res.get("prefilter", True, bool)),
        ssaa_factor=int(res.get("ssaa", 2)),
        cutoff_sigma=float(res.get("cutoff", 3.0)),
        tile_size=int(res.get("tile-size", 16)),
    )


def _train_config(res: Resolver, seed: int) -> TrainConfig:
    return TrainConfig(
        steps=int(res.get("steps", 1000)),
        lr=float(res.get("lr", 1e-2)),
        batch_real=int(res.get("batch-real", 32)),
        batch_syn=int(res.get("batch-syn", 0)),
        lambda_boundary=float(res.get("lambda-boundary", 0.1)),
        epsilon_clip=float(res.get("epsilon-clip", 1e-3)),
        bf16_forward=bool(res.get("bf16", False, bool)),
        seed=seed,
        init_steps=int(res.get("init-steps", 300)),
        feature_depth=int(res.get("feature-depth", 2)),
        feature_channels=int(res.get("feature-channels", 32)),
    )


def _load_dataset(res: Resolver):
    data = res.require("data")
    classes = int(res.get("classes", 10))
    paths = [p for p in str(data).split(",") if p]
    return data_io.load_cifar_binary(paths, classes=classes)


def cmd_fit(args: argparse.Namespace) -> int:
    res = Resolver(args)
    seed = int(res.require("seed"))
    out_dir = Path(res.require("out"))
    dataset = _load_dataset(res)
    count = int(res.get("count", 1))
    m = res.get("gaussians", None, int)
    if m is None:
        ipc = int(res.get("ipc", 1))
        gpc = int(res.get("gpc", 1))
        m = budget_points(BudgetSpec(dataset.width, dataset.channels,
                                     ipc=ipc, gpc=gpc))
    cfg = _train_config(res, seed)
    render_cfg = _render_config(res, dataset.width, dataset.height,
                                dataset.channels)
    workers = _workers(res)
    res.persist(out_dir)

    targets = [dataset.image(i) for i in range(min(count, len(dataset.labels)))]
    labels = dataset.labels[:len(targets)]
    dset, psnrs, trace = optimize.fit_images(
        targets, int(m), cfg, render_cfg, labels=labels,
        num_classes=dataset.class_count, workers=workers)

    data_io.save_gsd(dset, out_dir / "set.gsd")
    data_io.save_stats(out_dir / "set.gsd.stats.json", dataset.mean,
                       dataset.std)
    data_io.write_csv(out_dir / "psnr.csv", "image,psnr",
                      [(i, f"{p:.4f}") for i, p in enumerate(psnrs)])
    data_io.write_csv(out_dir / "loss.csv", "step,total,mse_or_dm,boundary",
                      [(s, f"{t:.8g}", f"{m_:.8g}", f"{b:.8g}")
                       for s, t, m_, b in trace])
    print(f"fitted {len(targets)} images with {m} Gaussians each; "
          f"mean PSNR {np.mean(psnrs):.2f} dB")
    return 0


def cmd_distill(args: argparse.Namespace) -> int:
    res = Resolver(args)
    seed = int(res.require("seed"))
    out_dir = Path(res.require("out"))
    dataset = _load_dataset(res)
    ipc = int(res.get("ipc", 1))
    gpc = int(res.get("gpc", 10))
    budget = BudgetSpec(dataset.width, dataset.channels, ipc=ipc, gpc=gpc)
    cfg = _train_config(res, seed)
    render_cfg = _render_config(res, dataset.width, dataset.height,
                                dataset.channels)
    workers = _workers(res)
    res.persist(out_dir)

    dset, trace = optimize.distill_dm(dataset, budget, cfg, render_cfg,
                                      workers=workers)
    data_io.save_gsd(dset, out_dir / "set.gsd")
    data_io.save_stats(out_dir / "set.gsd.stats.json", dataset.mean,
                       dataset.std)
    data_io.write_csv(out_dir / "loss.csv", "step,total,mse_or_dm,boundary",
                      [(s, f"{t:.8g}", f"{d:.8g}", f"{b:.8g}")
                       for s, t, d, b in trace])
    print(f"distilled {dset.num_images} images "
          f"({budget_points(budget)} Gaussians each) in {cfg.steps} steps")
    return 0


def _sidecar_stats(res: Resolver, container: Path):
    explicit = res.get("stats", None, str)
    if explicit:
        return data_io.load_stats(explicit)
    sidecar = container.with_name(container.name + ".stats.json")
    if sidecar.exists():
        return data_io.load_stats(sidecar)
    return None


def cmd_render(args: argparse.Namespace) -> int:
    res = Resolver(args)
    container = Path(res.require("in"))
    out_dir = Path(res.require("out"))
    fmt = str(res.get("format", "ppm"))
    if fmt == "png":
        # export_image imports Pillow per image; fail before any rendering
        try:
            import PIL  # noqa: F401
        except ImportError:
            raise ValueError("PNG export needs Pillow; use .ppm instead"
                             ) from None
    dset = data_io.load_gsd(container)
    render_cfg = _render_config(res, dset.width, dset.height, dset.channels)
    workers = _workers(res)
    stats = _sidecar_stats(res, container)
    res.persist(out_dir)

    images = render_batched(dset, render_cfg, workers=workers)
    for i, img in enumerate(images):
        data_io.export_image(img, stats, out_dir / f"img_{i:05d}.{fmt}")
    print(f"rendered {len(images)} images to {out_dir}")
    return 0


def cmd_prune(args: argparse.Namespace) -> int:
    res = Resolver(args)
    container = Path(res.require("in"))
    out_dir = Path(res.require("out"))
    mode = str(res.require("mode"))
    ratio = float(res.require("ratio"))
    seed = int(res.get("seed", 0))
    dset = data_io.load_gsd(container)
    render_cfg = _render_config(res, dset.width, dset.height, dset.channels)
    workers = _workers(res)
    res.persist(out_dir)

    pruned = analysis.prune_dataset(
        dset, analysis.PruneStrategy(mode=mode, ratio=ratio, seed=seed))
    data_io.save_gsd(pruned, out_dir / "pruned.gsd")

    before = render_batched(dset, render_cfg, workers=workers)
    after = render_batched(pruned, render_cfg, workers=workers)
    scores = [optimize.psnr(a.as_array(), b.as_array(),
                            data_range=max(float(np.ptp(b.as_array())), 1.0))
              for a, b in zip(after, before)]
    mean_psnr = float(np.mean(scores))

    accuracy = ""
    test_path = res.get("test-data", None, str)
    if test_path:
        classes = int(res.get("classes", dset.num_classes))
        test = data_io.load_cifar_binary(test_path, classes=classes,
                                         stats=_sidecar_stats(res, container))
        train = analysis.rendered_dataset(pruned, render_cfg, workers=workers)
        accuracy = f"{analysis.train_eval_classifier(train, test, analysis.EvalSpec(seed=seed)):.4f}"

    data_io.write_csv(out_dir / "prune.csv", "ratio,strategy,psnr,accuracy",
                      [(ratio, mode, f"{mean_psnr:.4f}", accuracy)])
    print(f"pruned to {pruned.gaussians_per_image} Gaussians/image; "
          f"PSNR vs unpruned {mean_psnr:.2f} dB")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    res = Resolver(args)
    container = Path(res.require("in"))
    seed = int(res.get("seed", 0))
    dset = data_io.load_gsd(container)
    classes = int(res.get("classes", dset.num_classes))
    test = data_io.load_cifar_binary(res.require("test-data"), classes=classes,
                                     stats=_sidecar_stats(res, container))
    render_cfg = _render_config(res, dset.width, dset.height, dset.channels)
    workers = _workers(res)
    spec = analysis.EvalSpec(hidden_width=int(res.get("hidden", 128)),
                             epochs=int(res.get("epochs", 200)),
                             lr=float(res.get("lr", 1e-2)), seed=seed)

    train = analysis.rendered_dataset(dset, render_cfg, workers=workers)
    acc = analysis.train_eval_classifier(train, test, spec)
    print(f"test accuracy: {acc:.4f}")
    return 0


def _int_list(text: str) -> list[int]:
    return [int(x) for x in str(text).split(",") if x]


def cmd_bench(args: argparse.Namespace) -> int:
    res = Resolver(args)
    out_dir = Path(res.require("out"))
    seed = int(res.get("seed", 0))
    res_list = _int_list(res.get("res", "32,128"))
    batch_list = _int_list(res.get("batch", "8"))
    m_list = _int_list(res.get("m", "64"))
    paths = [p for p in str(res.get("paths", "reference,batched")).split(",") if p]
    runs = int(res.get("runs", 5))
    workers = _workers(res)
    res.persist(out_dir)

    grid = [{"res": r, "batch": b, "m": m, "path": p}
            for r in res_list for b in batch_list for m in m_list
            for p in paths]
    rows = analysis.bench_render(grid, seed=seed, runs=runs, workers=workers,
                                 cutoff_sigma=float(res.get("cutoff", 3.0)))
    data_io.write_csv(out_dir / "bench.csv", analysis.BENCH_CSV_HEADER, rows)
    for row in rows:
        print(",".join(str(x) for x in row))
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    res = Resolver(args)
    cases = int(res.get("cases", 20))
    seed = int(res.require("seed"))
    step = float(res.get("step", 1e-4))
    err = gradcheck_suite(cases, seed, step=step)
    print(f"max relative error over {cases} cases: {err:.3e}")
    return 0 if err <= GRADCHECK_THRESHOLD else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsdd",
        description="Sparse 2D-Gaussian image sets: fit, distill, render, "
                    "prune, evaluate, benchmark, gradcheck.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--workers", type=int)

    def render_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--prefilter", type=_parse_bool)
        p.add_argument("--ssaa", type=int)
        p.add_argument("--cutoff", type=float)
        p.add_argument("--tile-size", type=int)

    p = sub.add_parser("fit", help="fit Gaussian sets to real images")
    common(p); render_opts(p)
    p.add_argument("--data"); p.add_argument("--classes", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--gaussians", type=int)
    p.add_argument("--ipc", type=int); p.add_argument("--gpc", type=int)
    p.add_argument("--steps", type=int); p.add_argument("--lr", type=float)
    p.add_argument("--lambda-boundary", type=float)
    p.add_argument("--epsilon-clip", type=float)
    p.add_argument("--bf16", type=_parse_bool)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("distill", help="distill a dataset into Gaussian sets")
    common(p); render_opts(p)
    p.add_argument("--data"); p.add_argument("--classes", type=int)
    p.add_argument("--ipc", type=int); p.add_argument("--gpc", type=int)
    p.add_argument("--steps", type=int); p.add_argument("--lr", type=float)
    p.add_argument("--batch-real", type=int)
    p.add_argument("--batch-syn", type=int)
    p.add_argument("--init-steps", type=int)
    p.add_argument("--feature-depth", type=int)
    p.add_argument("--feature-channels", type=int)
    p.add_argument("--lambda-boundary", type=float)
    p.add_argument("--epsilon-clip", type=float)
    p.add_argument("--bf16", type=_parse_bool)
    p.add_argument("--out")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("render", help="render a container to image files")
    common(p); render_opts(p)
    p.add_argument("--in", dest="in_")
    p.add_argument("--out"); p.add_argument("--stats")
    p.add_argument("--format", choices=("ppm", "png"))
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("prune", help="drop Gaussians by importance score")
    common(p); render_opts(p)
    p.add_argument("--in", dest="in_")
    p.add_argument("--mode", choices=analysis.PRUNE_MODES)
    p.add_argument("--ratio", type=float)
    p.add_argument("--test-data"); p.add_argument("--classes", type=int)
    p.add_argument("--stats")
    p.add_argument("--out")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("eval", help="train the probe classifier and report "
                                    "test accuracy")
    common(p); render_opts(p)
    p.add_argument("--in", dest="in_")
    p.add_argument("--test-data"); p.add_argument("--classes", type=int)
    p.add_argument("--stats")
    p.add_argument("--hidden", type=int); p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="time the render paths over a grid")
    common(p)
    p.add_argument("--res"); p.add_argument("--batch"); p.add_argument("--m")
    p.add_argument("--paths"); p.add_argument("--runs", type=int)
    p.add_argument("--cutoff", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against "
                                         "finite differences")
    common(p)
    p.add_argument("--cases", type=int)
    p.add_argument("--step", type=float)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    # --in is stored as in_; expose it under the name Resolver expects
    if hasattr(args, "in_"):
        setattr(args, "in", args.in_)
    try:
        return args.func(args)
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
