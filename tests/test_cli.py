import inspect
import os
import subprocess
import sys
import warnings
from dataclasses import MISSING, fields

from pathlib import Path

import numpy as np
import pytest

import gsdd
from gsdd import data_io
from gsdd.analysis import (
    EvalSpec,
    PruneStrategy,
    bench_render,
    rendered_dataset,
    train_eval_classifier,
)
from gsdd.cli import (
    COMMANDS,
    FIELD_OPTIONS,
    OPTION_TYPES,
    dispatch,
    load_config_file,
)
from gsdd.core import DistilledSet, RenderConfig
from gsdd.data_io import load_gsd, load_ppm, save_gsd, write_cifar_binary
from gsdd.optimize import TrainConfig


@pytest.fixture()
def cifar_file(tmp_path):
    rng = np.random.default_rng(0)
    # blocky class-dependent images covering all ten labels
    images = np.zeros((20, 32, 32, 3), dtype=np.uint8)
    labels = np.zeros(20, dtype=np.uint8)
    for i in range(20):
        cls = i % 10
        labels[i] = cls
        images[i] = rng.integers(40, 90, (32, 32, 3))
        x0 = 2 + 2 * cls
        images[i, 6:26, x0:x0 + 6, cls % 3] = 230
    path = tmp_path / "train.bin"
    write_cifar_binary(images, labels, path)
    return path


@pytest.fixture()
def five_class_file(tmp_path):
    """Ten-class CIFAR data in which classes 5-9 have no image."""
    rng = np.random.default_rng(1)
    path = tmp_path / "five.bin"
    write_cifar_binary(rng.integers(0, 256, (10, 32, 32, 3)),
                       np.arange(10) % 5, path)
    return path


def run(argv):
    return dispatch([str(a) for a in argv])


# numbers a command cannot use, and the error each must exit 1 with
UNUSABLE_NUMBERS = [
    (["eval", "--hidden", 0], "hidden_width must be >= 1"),
    (["eval", "--epochs", -1], "epochs must be >= 1"),
    (["eval", "--lr", "nan"], "lr must be finite and >= 0"),
    (["eval", "--lr", -1], "lr must be finite and >= 0"),
    (["gradcheck", "--cases", 1, "--step", 0],
     "step must be finite and > 0"),
    (["gradcheck", "--cases", 1, "--step", "inf"],
     "step must be finite and > 0"),
    (["gradcheck", "--cases", 0], "cases must be >= 1"),
    (["bench", "--runs", 0], "runs must be >= 1"),
    (["bench", "--batch", 0], "batch must be >= 1"),
    (["bench", "--m", 0], "m must be >= 1"),
    (["prune", "--ratio", 1.5], "ratio must lie in [0, 1]"),
]

# runs rejected before any output: the data fixture, the arguments and the
# error each must exit 1 with
REJECTED_RUNS = [
    ("cifar_file", ["fit", "--gaussians", 0],
     "cannot fit with zero Gaussians per image"),
    ("cifar_file", ["fit", "--count", 0], "count must be >= 1"),
    ("cifar_file", ["fit", "--count", -2], "count must be >= 1"),
    ("cifar_file", ["fit", "--lambda-boundary", "nan"],
     "lambda_boundary must be finite and >= 0"),
    ("cifar_file", ["distill", "--lambda-boundary", "inf"],
     "lambda_boundary must be finite and >= 0"),
    ("cifar_file", ["distill", "--feature-depth", 6], "feature net of depth "
     "6 needs height and width divisible by 64, got 32x32"),
    ("five_class_file", ["distill"], "class 5 absent from real data"),
    (None, ["bench", "--res", 0], "res must be >= 1"),
    (None, ["bench", "--res", -4], "res must be >= 1"),
    (None, ["bench", "--runs", 0], "runs must be >= 1"),
    ("cifar_file", ["fit", "--cutoff", 1e-170], "cutoff_sigma must be inf"),
    (None, ["bench", "--cutoff", 1e200], "cutoff_sigma must be inf"),
]


class TestDispatchBasics:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand_exits_2(self):
        assert run([]) == 2

    def test_missing_required_option_exits_2(self, capsys, tmp_path):
        assert run(["fit", "--out", tmp_path / "o"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_runtime_failure_exits_1(self, capsys, tmp_path):
        missing = tmp_path / "nope.gsd"
        assert run(["render", "--in", missing, "--out", tmp_path / "o"]) == 1

    def test_render_rejects_nan_parameter(self, capsys, tmp_path):
        dset = DistilledSet.zeros(8, 8, 3, 2, 3)
        dset.params[:] = 0.5
        save_gsd(dset, tmp_path / "bad.gsd")
        # save_gsd refuses NaN, so its bf16 bits go into the file by hand:
        # image 1, Gaussian 1, green, after the 17-byte header and 2 labels
        blob = bytearray((tmp_path / "bad.gsd").read_bytes())
        at = 17 + 2 * 2 + 2 * ((3 + 1) * 9 + 6)
        blob[at:at + 2] = (0x7FC0).to_bytes(2, "little")
        (tmp_path / "bad.gsd").write_bytes(bytes(blob))
        out = tmp_path / "o"
        assert run(["render", "--in", tmp_path / "bad.gsd",
                    "--out", out]) == 1
        assert ("image 1, Gaussian 1: parameters must be finite"
                in capsys.readouterr().err)
        assert not list(out.glob("*.ppm"))

    def test_render_thin_sheared_gaussian_without_prefilter(self, tmp_path):
        # c00 c11 - c01^2 of this factor cancels to zero in float64, and
        # the render once rejected the stored set for it
        params = np.array([0.1, -0.2, 0.3, 300.0, 1e-7, 1.0, 0.5, 0.2, 1.0])
        save_gsd(DistilledSet(16, 16, 3, 1, 1, params, np.zeros(1, np.int64)),
                 tmp_path / "thin.gsd")
        out = tmp_path / "o"
        assert run(["render", "--in", tmp_path / "thin.gsd", "--out", out,
                    "--prefilter", "false", "--workers", 1]) == 0
        assert load_ppm(out / "img_00000.ppm").shape == (16, 16, 3)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, 1e39])
    @pytest.mark.parametrize("command", ["fit", "distill", "prune"])
    def test_unstorable_set_exits_1_before_writing(
            self, cifar_file, tmp_path, capsys, monkeypatch, command, bad):
        # the trained or pruned set is one the bf16 container cannot hold
        dset = DistilledSet.zeros(32, 32, 3, 2, 3)
        dset.params[(3 + 1) * 9 + 6] = bad   # image 1, Gaussian 1, green
        monkeypatch.setattr("gsdd.cli.optimize.fit_images",
                            lambda *a, **k: (dset, [0.0, 0.0], []))
        monkeypatch.setattr("gsdd.cli.optimize.distill_dm",
                            lambda *a, **k: (dset, []))
        monkeypatch.setattr("gsdd.cli.analysis.prune_dataset",
                            lambda *a, **k: dset)
        save_gsd(DistilledSet.zeros(32, 32, 3, 2, 3), tmp_path / "set.gsd")
        out = tmp_path / "o"
        argv = {"fit": ["--data", cifar_file, "--steps", 1],
                "distill": ["--data", cifar_file, "--gpc", 1, "--steps", 1,
                            "--init-steps", 1],
                "prune": ["--in", tmp_path / "set.gsd", "--mode", "random",
                          "--ratio", 0.5]}[command]
        if command != "prune":
            argv += ["--seed", 0]
        assert run([command, *argv, "--workers", 1, "--out", out]) == 1
        assert ("error: image 1, Gaussian 1: the bf16 container holds only "
                "finite parameters" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("cutoff", [1e-170, 1e200])
    def test_render_rejects_cutoff_out_of_range(self, capsys, tmp_path,
                                                cutoff):
        save_gsd(DistilledSet.zeros(8, 8, 3, 1, 2), tmp_path / "set.gsd")
        out = tmp_path / "o"
        assert run(["render", "--in", tmp_path / "set.gsd", "--out", out,
                    "--cutoff", cutoff]) == 1
        assert ("error: cutoff_sigma must be inf or lie in"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_png_without_pillow_exits_1_before_rendering(
            self, capsys, tmp_path, monkeypatch):
        monkeypatch.setitem(sys.modules, "PIL", None)
        monkeypatch.setattr("gsdd.cli.render_batched", None)
        save_gsd(DistilledSet.zeros(8, 8, 3, 1, 2), tmp_path / "set.gsd")
        assert run(["render", "--in", tmp_path / "set.gsd",
                    "--out", tmp_path / "o", "--format", "png"]) == 1
        assert ("error: PNG export needs Pillow; use .ppm instead"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flags", [["--workers", 2], []])
    def test_workers_read_no_environment_variable(self, tmp_path,
                                                  monkeypatch, flags):
        monkeypatch.setenv("GSDD_WORKERS", "abc")
        save_gsd(DistilledSet.zeros(8, 8, 3, 1, 2), tmp_path / "s.gsd")
        assert run(["render", "--in", tmp_path / "s.gsd",
                    "--out", tmp_path / "o", *flags]) == 0

    @pytest.mark.parametrize("command, flag, value", [
        ("fit", "--steps", -3), ("fit", "--lr", -1), ("fit", "--workers", -2),
        ("distill", "--batch-syn", -1),
    ])
    def test_out_of_range_number_exits_1(self, cifar_file, tmp_path, capsys,
                                         command, flag, value):
        base = {"fit": ["--count", 2, "--gaussians", 4],
                "distill": ["--gpc", 1, "--init-steps", 1,
                            "--feature-depth", 1, "--feature-channels", 4]}
        assert run([command, "--data", cifar_file, "--steps", 1, "--seed", 0,
                    "--ssaa", 1, "--workers", 1, *base[command], flag, value,
                    "--out", tmp_path / "o"]) == 1
        assert f"{flag[2:].replace('-', '_')} must be" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("argv, value", [
        (["fit", "--count", 2, "--gaussians", 70000], 70000),
        (["distill", "--ipc", 100, "--gpc", 1], 68266),
    ])
    def test_container_limits_checked_before_training(
            self, cifar_file, tmp_path, capsys, monkeypatch, argv, value):
        monkeypatch.setattr("gsdd.cli.optimize.fit_images", None)
        out = tmp_path / "o"
        assert run(argv + ["--data", cifar_file, "--seed", 0,
                           "--out", out]) == 1
        assert (f"error: Gaussians per image {value} exceeds the u16 "
                "container limit" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message", UNUSABLE_NUMBERS,
        ids=[" ".join(map(str, argv)) for argv, _ in UNUSABLE_NUMBERS])
    def test_unusable_number_exits_1_before_work(self, tmp_path, capsys,
                                                 monkeypatch, argv, message):
        # nothing may be loaded or rendered before the number is rejected
        for name in ("gsdd.cli.data_io.load_gsd",
                     "gsdd.gradients.render_batched",
                     "gsdd.analysis.render_batched",
                     "gsdd.analysis.render_reference"):
            monkeypatch.setattr(name, None)
        rest = {"eval": ["--in", tmp_path / "set.gsd",
                         "--test-data", tmp_path / "test.bin"],
                "gradcheck": [],
                "bench": ["--res", 16, "--out", tmp_path / "o"],
                "prune": ["--in", tmp_path / "set.gsd", "--mode", "random",
                          "--out", tmp_path / "o"]}
        assert run(argv + ["--seed", 1] + rest[argv[0]]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "distill", "render", "prune",
                                         "bench"])
    @pytest.mark.parametrize("blocked", ["file", "under_file"])
    def test_unusable_out_exits_1_before_work(self, tmp_path, capsys,
                                              monkeypatch, command, blocked):
        # nothing may be loaded, fitted or rendered before --out is rejected
        for name in ("gsdd.cli.data_io.load_gsd",
                     "gsdd.cli.data_io.load_cifar_binary",
                     "gsdd.cli.optimize.fit_images",
                     "gsdd.cli.optimize.distill_dm",
                     "gsdd.cli.analysis.bench_render"):
            monkeypatch.setattr(name, None)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker if blocked == "file" else blocker / "o"
        rest = {"fit": ["--data", tmp_path / "d.bin", "--seed", 0],
                "distill": ["--data", tmp_path / "d.bin", "--seed", 0],
                "render": ["--in", tmp_path / "set.gsd"],
                "prune": ["--in", tmp_path / "set.gsd", "--mode", "random",
                          "--ratio", 0.5],
                "bench": []}
        assert run([command, *rest[command], "--out", out]) == 1
        assert (f"error: cannot create --out {out}: {blocker} is not a "
                "writable directory" in capsys.readouterr().err)
        assert blocker.read_text() == ""

    def test_prune_keeps_pruned_set_when_scoring_fails(self, tmp_path,
                                                       capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("render failed")
        monkeypatch.setattr("gsdd.cli.render_batched", fail)
        save_gsd(DistilledSet.zeros(8, 8, 3, 1, 4), tmp_path / "set.gsd")
        out = tmp_path / "o"
        assert run(["prune", "--in", tmp_path / "set.gsd", "--out", out,
                    "--mode", "random", "--ratio", 0.5]) == 1
        assert "error: render failed" in capsys.readouterr().err
        assert load_gsd(out / "pruned.gsd").gaussians_per_image == 2
        assert (out / "resolved_config.txt").exists()
        assert not (out / "prune.csv").exists()

    @pytest.mark.parametrize("command, option", [("gradcheck", "workers"),
                                                 ("render", "seed")])
    def test_untaken_option_exits_2(self, tmp_path, capsys, monkeypatch,
                                    command, option):
        # gradcheck runs single-threaded, and render draws nothing
        monkeypatch.setattr("gsdd.cli.gradcheck_suite", None)
        monkeypatch.setattr("gsdd.cli.data_io.load_gsd", None)
        rest = {"gradcheck": ["--seed", 1],
                "render": ["--in", tmp_path / "set.gsd",
                           "--out", tmp_path / "o"]}[command]
        assert run([command, f"--{option}", 2] + rest) == 2
        assert (f"unrecognized arguments: --{option}"
                in capsys.readouterr().err)
        config = tmp_path / "run.cfg"
        config.write_text(f"{option} = 2\n")
        assert run([command, "--config", config] + rest) == 2
        assert (f"error: {config}: {command} takes no option '{option}'"
                in capsys.readouterr().err)

    def test_feature_depth_checked_before_warm_start(
            self, cifar_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("gsdd.cli.optimize.fit_images", None)
        assert run(["distill", "--data", cifar_file, "--gpc", 1,
                    "--feature-depth", 6, "--seed", 0, "--workers", 1,
                    "--out", tmp_path / "o"]) == 1
        assert ("error: feature net of depth 6 needs height and width "
                "divisible by 64, got 32x32" in capsys.readouterr().err)

    @pytest.mark.parametrize(
        "data, argv, message", REJECTED_RUNS,
        ids=[" ".join(map(str, [*argv, data])) for data, argv, _
             in REJECTED_RUNS])
    def test_rejected_run_leaves_no_out_dir(self, request, tmp_path, capsys,
                                            data, argv, message):
        rest = {"fit": ["--steps", 1],
                "distill": ["--gpc", 1, "--steps", 1, "--init-steps", 1],
                "bench": ["--res", 8, "--batch", 1, "--m", 1, "--runs", 1]}
        if data is not None:
            rest[argv[0]] += ["--data", request.getfixturevalue(data)]
        out = tmp_path / "o"
        # the later of a repeated flag wins, so argv overrides rest
        assert run([argv[0], *rest[argv[0]], *argv[1:], "--seed", 0,
                    "--workers", 1, "--out", out]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["render", "eval", "prune"])
    def test_pixel_beyond_float32_exits_1(self, cifar_file, tmp_path, capsys,
                                          command):
        # opacity and colour are storable, but 3e38 * 3e38 renders to a
        # float32 inf; prune keeps the pruned set it wrote before scoring
        params = np.zeros((1, 2, 9))
        params[..., 2:5] = [0.4, 0.0, 0.4]
        params[0, 1, 5:9] = 3e38
        save_gsd(DistilledSet(32, 32, 3, 1, 2, params.reshape(-1),
                              np.zeros(1, np.int64), 10), tmp_path / "big.gsd")
        out = tmp_path / "o"
        argv = {"render": ["--out", out],
                "eval": ["--test-data", cifar_file, "--epochs", 1],
                "prune": ["--mode", "small_transparent_first", "--ratio", 0.5,
                          "--out", out]}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, "--in", tmp_path / "big.gsd", *argv,
                        "--workers", 1]) == 1
        assert "error: image 0: a rendered pixel overflows float32" in \
            capsys.readouterr().err
        if command == "prune":
            assert load_gsd(out / "pruned.gsd").gaussians_per_image == 1
            assert not (out / "prune.csv").exists()
        else:
            assert not out.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_distill_rejects_non_finite_real_pixel(self, cifar_file, tmp_path,
                                                   capsys, monkeypatch, bad):
        # a CIFAR file holds bytes, so the pixel is poked in after loading
        load = data_io.load_cifar_binary

        def load_with_bad_pixel(*args, **kwargs):
            dataset = load(*args, **kwargs)
            dataset.images[3, 0, 0, 2] = bad
            return dataset

        monkeypatch.setattr(data_io, "load_cifar_binary", load_with_bad_pixel)
        out = tmp_path / "o"
        assert run(["distill", "--data", cifar_file, "--gpc", 1, "--steps", 1,
                    "--init-steps", 1, "--seed", 0, "--out", out]) == 1
        assert "error: real image 3: pixels must be finite" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_gradcheck_ok(self, capsys):
        assert run(["gradcheck", "--cases", 3, "--seed", 7]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out


class TestFitPipeline:
    def test_fit_render_prune_eval(self, cifar_file, tmp_path, capsys):
        out = tmp_path / "fit"
        code = run(["fit", "--data", cifar_file, "--count", 4,
                    "--gaussians", 8, "--steps", 30, "--seed", 3,
                    "--ssaa", 1, "--workers", 1, "--out", out])
        assert code == 0
        assert (out / "set.gsd").exists()
        assert (out / "set.gsd.stats.json").exists()
        assert (out / "resolved_config.txt").exists()
        psnr_rows = (out / "psnr.csv").read_text().splitlines()
        assert psnr_rows[0] == "image,psnr"
        assert len(psnr_rows) == 5
        loss_rows = (out / "loss.csv").read_text().splitlines()
        assert loss_rows[0] == "step,total,mse_or_dm,boundary"
        assert len(loss_rows) == 31

        render_dir = tmp_path / "render"
        assert run(["render", "--in", out / "set.gsd", "--out", render_dir,
                    "--workers", 1]) == 0
        ppms = sorted(render_dir.glob("*.ppm"))
        assert len(ppms) == 4
        img = load_ppm(ppms[0])
        assert img.shape == (32, 32, 3)

        prune_dir = tmp_path / "prune"
        assert run(["prune", "--in", out / "set.gsd", "--mode",
                    "small_transparent_first", "--ratio", "0.5",
                    "--workers", 1, "--out", prune_dir]) == 0
        pruned = load_gsd(prune_dir / "pruned.gsd")
        assert pruned.gaussians_per_image == 4
        text = (prune_dir / "prune.csv").read_text().splitlines()
        assert text[0] == "ratio,strategy,psnr,accuracy"

        # eval needs a container covering every class: fit all 20 images
        full = tmp_path / "full"
        assert run(["fit", "--data", cifar_file, "--count", 20,
                    "--gaussians", 6, "--steps", 10, "--seed", 3,
                    "--ssaa", 1, "--workers", 1, "--out", full]) == 0
        assert run(["eval", "--in", full / "set.gsd", "--test-data",
                    cifar_file, "--epochs", 40, "--seed", 1,
                    "--workers", 1]) == 0
        assert "test accuracy" in capsys.readouterr().out

    def test_prune_scores_test_data(self, cifar_file, tmp_path):
        # the accuracy column is the probe trained on the pruned set's
        # renders, scored on the test data under the sidecar statistics
        fitted = tmp_path / "fit"
        assert run(["fit", "--data", cifar_file, "--count", 20,
                    "--gaussians", 6, "--steps", 10, "--seed", 3,
                    "--ssaa", 1, "--workers", 1, "--out", fitted]) == 0
        out = tmp_path / "prune"
        assert run(["prune", "--in", fitted / "set.gsd", "--mode", "random",
                    "--ratio", "0.5", "--test-data", cifar_file, "--seed", 5,
                    "--workers", 1, "--out", out]) == 0
        row = (out / "prune.csv").read_text().splitlines()[1].split(",")
        stats = data_io.load_stats(fitted / "set.gsd.stats.json")
        test = data_io.load_cifar_binary(cifar_file, stats=stats)
        train = rendered_dataset(load_gsd(out / "pruned.gsd"),
                                 RenderConfig(32, 32, 3))
        accuracy = train_eval_classifier(train, test, EvalSpec(seed=5))
        assert row[3] == f"{accuracy:.4f}"

    def test_fit_deterministic_across_runs(self, cifar_file, tmp_path):
        args = ["fit", "--data", cifar_file, "--count", 2, "--gaussians", 4,
                "--steps", 10, "--seed", 11, "--ssaa", 1, "--workers", 1]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", out1]) == 0
        assert run(args + ["--out", out2]) == 0
        assert (out1 / "set.gsd").read_bytes() == (out2 / "set.gsd").read_bytes()

    def test_blas_thread_count_does_not_change_artifacts(self, cifar_file,
                                                         tmp_path):
        # OpenBLAS reads OPENBLAS_NUM_THREADS when numpy loads, so each run
        # is a fresh interpreter; distill at 10 classes and gpc 10 (M = 68)
        commands = {
            "distill": ["--ipc", 1, "--gpc", 10, "--batch-real", 2,
                        "--init-steps", 2, "--steps", 3],
            "fit": ["--count", 4, "--gaussians", 8, "--steps", 10],
        }
        src = str(Path(gsdd.__file__).resolve().parents[1])
        for threads in (1, 2):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
                   "PYTHONPATH": os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")])}
            for command, argv in commands.items():
                subprocess.run(
                    [sys.executable, "-m", "gsdd.cli", command,
                     *map(str, argv), "--data", str(cifar_file), "--seed",
                     "4", "--workers", "2", "--out",
                     str(tmp_path / f"{command}_{threads}")],
                    env=env, check=True, capture_output=True)
        for command in commands:
            for name in ("set.gsd", "loss.csv"):
                assert ((tmp_path / f"{command}_1" / name).read_bytes()
                        == (tmp_path / f"{command}_2" / name).read_bytes())

    def test_worker_count_does_not_change_artifact(self, cifar_file, tmp_path):
        base = ["fit", "--data", cifar_file, "--count", 2, "--gaussians", 4,
                "--steps", 8, "--seed", 2, "--ssaa", 1]
        out1, out2 = tmp_path / "w1", tmp_path / "w4"
        assert run(base + ["--workers", 1, "--out", out1]) == 0
        assert run(base + ["--workers", 4, "--out", out2]) == 0
        assert (out1 / "set.gsd").read_bytes() == (out2 / "set.gsd").read_bytes()


class TestDistillCommand:
    def test_micro_distill(self, cifar_file, tmp_path):
        out = tmp_path / "distill"
        code = run(["distill", "--data", cifar_file, "--ipc", 1, "--gpc", 2,
                    "--steps", 5, "--init-steps", 5, "--batch-real", 4,
                    "--feature-depth", 1, "--feature-channels", 4,
                    "--ssaa", 1, "--seed", 0, "--workers", 1, "--out", out])
        assert code == 0
        dset = load_gsd(out / "set.gsd")
        assert dset.num_images == 20  # gpc=2 x 10 classes
        loss_rows = (out / "loss.csv").read_text().splitlines()
        assert len(loss_rows) == 6


class TestBenchCommand:
    def test_micro_bench(self, tmp_path):
        out = tmp_path / "bench"
        code = run(["bench", "--res", "16", "--batch", "2", "--m", "6",
                    "--runs", 2, "--seed", 0, "--workers", 1, "--out", out])
        assert code == 0
        rows = (out / "bench.csv").read_text().splitlines()
        assert rows[0] == "res,batch,M,path,fwd_ms,fwdbwd_ms,peak_bytes"
        assert len(rows) == 3  # header + reference + batched


class TestDefaults:
    """Every option that sets a config dataclass field defaults to it."""

    # the config dataclasses each command builds in a run with only its
    # required flags, and the options such a run leaves unset
    BUILDS = {"fit": (TrainConfig, RenderConfig),
              "distill": (TrainConfig, RenderConfig), "render": (RenderConfig,),
              "prune": (RenderConfig, PruneStrategy), "bench": (RenderConfig,)}
    UNSET = {"config", "gaussians", "stats", "test-data", "classes"}
    # library functions a command passes field values to: their keyword
    # defaults named after a field are that field's default too
    CALLS = {"bench": bench_render}

    @pytest.mark.parametrize("command", list(BUILDS))
    def test_resolved_defaults_are_field_defaults(self, cifar_file, tmp_path,
                                                  monkeypatch, command):
        # the training and timing loops are stubbed: only the configuration
        # matters here
        monkeypatch.setattr(
            "gsdd.cli.optimize.fit_images",
            lambda images, m, *a, **k: (
                DistilledSet.zeros(32, 32, 3, len(images), m), [0.0], []))
        monkeypatch.setattr(
            "gsdd.cli.optimize.distill_dm",
            lambda dataset, budget, *a, **k: (DistilledSet.zeros(
                32, 32, 3, 10 * budget.gpc, 1), []))
        monkeypatch.setattr("gsdd.cli.analysis.bench_render",
                            lambda *a, **k: [])
        save_gsd(DistilledSet.zeros(8, 8, 3, 1, 2), tmp_path / "set.gsd")
        required = {"fit": ["--data", cifar_file, "--seed", 0],
                    "distill": ["--data", cifar_file, "--seed", 0],
                    "render": ["--in", tmp_path / "set.gsd"],
                    "prune": ["--in", tmp_path / "set.gsd", "--mode", "random",
                              "--ratio", 0.5],
                    "bench": []}[command]
        out = tmp_path / "o"
        assert run([command, *required, "--out", out]) == 0
        lines = (out / "resolved_config.txt").read_text().splitlines()
        resolved = dict(line.split(" = ") for line in lines
                        if not line.startswith("#"))
        options = COMMANDS[command][2]
        # every option the run reads is recorded, so an option whose field
        # was renamed away fails here instead of being quietly dropped
        assert set(options) - self.UNSET <= set(resolved)
        passed = {str(flag)[2:] for flag in required[::2]}
        params = (inspect.signature(self.CALLS[command]).parameters
                  if command in self.CALLS else {})
        for cls in self.BUILDS[command]:
            for field in fields(cls):
                key = FIELD_OPTIONS.get(field.name,
                                        field.name.replace("_", "-"))
                if (key in options and key not in passed
                        and field.default is not MISSING):
                    assert resolved[key] == str(field.default), key
                if field.name in params:
                    assert params[field.name].default == field.default, \
                        field.name

    def test_option_table_is_consistent(self):
        taken = {key for _, _, options in COMMANDS.values() for key in options}
        # every typed option is taken by a command, every option has a type
        assert set(OPTION_TYPES) == taken
        names = {field.name for cls in (RenderConfig, TrainConfig, EvalSpec,
                                        PruneStrategy) for field in fields(cls)}
        assert set(FIELD_OPTIONS) <= names
        assert set(FIELD_OPTIONS.values()) <= taken


class TestConfigFile:
    def test_flags_override_config(self, cifar_file, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "data = {}\ncount = 2\ngaussians = 4\nsteps = 5\n"
            "seed = 1\nssaa = 1\nworkers = 1\n".format(cifar_file))
        out1 = tmp_path / "c1"
        assert run(["fit", "--config", config, "--out", out1]) == 0
        resolved = (out1 / "resolved_config.txt").read_text()
        assert "steps = 5" in resolved

        out2 = tmp_path / "c2"
        assert run(["fit", "--config", config, "--steps", 7,
                    "--out", out2]) == 0
        assert "steps = 7" in (out2 / "resolved_config.txt").read_text()

    def test_unknown_key_exits_2(self, cifar_file, tmp_path, capsys,
                                 monkeypatch):
        monkeypatch.setattr("gsdd.data_io.load_cifar_binary", None)
        config = tmp_path / "run.cfg"
        config.write_text(f"data = {cifar_file}\nstep = 3\nseed = 1\n")
        assert run(["fit", "--config", config, "--out", tmp_path / "o"]) == 2
        assert (f"error: {config}: fit takes no option 'step'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("line", ["steps = many", "format = gif",
                                      "bf16 = maybe"])
    def test_bad_value_exits_2(self, tmp_path, capsys, line):
        command = "render" if line.startswith("format") else "fit"
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        assert run([command, "--config", config, "--out", tmp_path / "o"]
                   ) == 2
        assert f"invalid value for {line.split()[0]}" in (
            capsys.readouterr().err)

    def test_resolved_config_round_trips(self, cifar_file, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(["fit", "--data", cifar_file, "--count", 2, "--ipc", 1,
                    "--gpc", 8, "--steps", 4, "--seed", 5, "--ssaa", 1,
                    "--workers", 1, "--out", first]) == 0
        resolved = (first / "resolved_config.txt").read_text().splitlines()
        assert [line.split()[1] for line in resolved[:4]] == [
            "gsdd", "numpy", "python", "blas"]
        if np.lib.NumpyVersion(np.__version__) >= "1.25.0":
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            assert resolved[3] == f"# blas {blas['name']} {blas['version']}"
        else:
            assert resolved[3] == "# blas unknown"
        keys = [line.split(" = ")[0] for line in resolved[4:]]
        assert "gaussians" not in keys and "batch-real" not in keys
        assert "None" not in "\n".join(resolved)
        assert run(["fit", "--config", first / "resolved_config.txt",
                    "--out", second]) == 0
        assert ((first / "set.gsd").read_bytes()
                == (second / "set.gsd").read_bytes())

    def test_config_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("steps 5\n")
        with pytest.raises(ValueError):
            load_config_file(bad)

    def test_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# comment\n\nsteps = 5  # trailing\nlr = 0.01\n")
        values = load_config_file(cfg)
        assert values == {"steps": "5", "lr": "0.01"}
