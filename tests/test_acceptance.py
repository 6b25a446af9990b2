"""End-to-end acceptance suite.

One test per release criterion, each printing a single PASS/FAIL line with
its headline measurement (run with ``pytest tests/test_acceptance.py -s`` to
see the lines as they complete). Criteria marked by runs use fixed seeds.
"""

import time

import numpy as np
import pytest

from gsdd.analysis import (
    BENCH_CSV_HEADER,
    EvalSpec,
    PruneStrategy,
    bench_render,
    prune_dataset,
    rendered_dataset,
    train_eval_classifier,
)
from gsdd.core import BudgetSpec, DistilledSet, RenderConfig, budget_points
from gsdd.data_io import LabeledImageDataset, bf16_round, load_gsd, save_gsd
from gsdd.gradients import gradcheck_suite, render_backward
from gsdd.optimize import TrainConfig, fit_images, psnr
from gsdd.raster import (
    ImageBuffer,
    render_batched,
    render_reference,
    ssaa_offsets,
)

from conftest import (
    TOY_DISTILL_RENDER,
    closed_form_error,
    double_backward,
    make_blob_dataset,
    make_field_dataset,
    make_natural_image,
    make_random_set,
)


def report(number: int, name: str, ok: bool, detail: str, t0: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {verdict} "
          f"[{detail}] ({time.perf_counter() - t0:.1f}s)")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_01_budget_arithmetic():
    t0 = time.perf_counter()
    cases = [((32, 1, 30), 22), ((32, 10, 160), 42),
             ((32, 50, 250), 136), ((128, 1, 64), 170)]
    got = {c: budget_points(BudgetSpec(c[0], 3, ipc=c[1], gpc=c[2]))
           for c, _ in cases}
    ok = all(got[c] == expected for c, expected in cases)
    report(1, "budget-arithmetic", ok, f"{got}", t0)


def test_02_renderer_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    bitwise_ok = True
    for case in range(100):
        w = int(rng.integers(4, 33))
        h = int(rng.integers(4, 33))
        m = int(rng.integers(1, 17))
        n = int(rng.integers(1, 3))
        dset = make_random_set(rng, w, h, 3, n, m)
        cfg = RenderConfig(w, h, 3, prefilter=bool(case % 2),
                           ssaa_factor=1 + (case // 2) % 2,
                           cutoff_sigma=np.inf, tile_size=(8, 16, 32)[case % 3])
        base = render_batched(dset, cfg, workers=1)
        for i in range(n):
            ref = render_reference(dset, i, cfg)
            denom = np.maximum(np.abs(ref.pixels), 1e-6)
            worst = max(worst, float(np.max(
                np.abs(ref.pixels - base[i].pixels) / denom)))
        for workers in (2, 8):
            other = render_batched(dset, cfg, workers=workers)
            bitwise_ok &= all(np.array_equal(a.pixels, b.pixels)
                              for a, b in zip(base, other))
    ok = worst <= 1e-5 and bitwise_ok
    report(2, "renderer-oracle-equivalence", ok,
           f"max rel err {worst:.2e}, worker-bitwise {bitwise_ok}", t0)


def test_03_gradient_correctness(monkeypatch):
    t0 = time.perf_counter()
    err = gradcheck_suite(50, seed=7)
    double_backward(monkeypatch)
    control = gradcheck_suite(5, seed=11)
    ok = err <= 1e-3 and abs(control - 1.0) < 0.05
    report(3, "gradient-correctness", ok,
           f"max rel err {err:.2e}, doubled control {control:.3f}", t0)


def test_04_antialiasing_formulas():
    t0 = time.perf_counter()
    # one Gaussian of pixel covariance [[4, 2], [2, 2]] on both render
    # paths, against the closed form with and without the box's variance
    l, box = (0.125, 0.0625, 0.0625), 1.0 / 12.0
    with_err = closed_form_error(*l, [[4.0 + box, 2.0], [2.0, 2.0 + box]],
                                 True)
    without_err = closed_form_error(*l, [[4.0, 2.0], [2.0, 2.0]], False)
    prefilter_ok = max(with_err, without_err) <= 1e-12
    offsets_ok = ssaa_offsets(2) == [(-0.25, -0.25), (-0.25, 0.25),
                                     (0.25, -0.25), (0.25, 0.25)]
    ok = prefilter_ok and offsets_ok
    report(4, "antialiasing-formulas", ok,
           f"prefilter {prefilter_ok} (rel err {with_err:.1e} with, "
           f"{without_err:.1e} without), offsets {offsets_ok}", t0)


def test_05_boundary_behavior():
    from gsdd.optimize import boundary_loss
    t0 = time.perf_counter()

    params = np.array([0.5, 0.5, 0.5, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0])
    dset = DistilledSet(8, 8, 3, 1, 1, params, np.zeros(1, dtype=np.int64))
    loss, grads = boundary_loss(dset, 1.0)
    value_ok = abs(loss - (-2.0 * np.log(0.75))) < 1e-12
    grad_ok = abs(grads[0] - 4.0 / 3.0) < 1e-12

    # escaped Gaussian: finite cutoff, fully outside the frame
    esc = DistilledSet(16, 16, 3, 1, 1,
                       np.array([1.9, -1.8, 0.02, 0.0, 0.02,
                                 1.0, 1.0, 1.0, 1.0]),
                       np.zeros(1, dtype=np.int64))
    cfg = RenderConfig(16, 16, 3, cutoff_sigma=3.0)
    up = [ImageBuffer.from_array(np.ones((16, 16, 3)))]
    esc_grads = render_backward(esc, cfg, up).grads
    escape_ok = bool(np.array_equal(esc_grads, np.zeros(9)))

    inward_ok = True
    for u in np.linspace(-0.999, 0.999, 41):
        p = np.array([u, -u * 0.5, 0.5, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0])
        d = DistilledSet(8, 8, 3, 1, 1, p, np.zeros(1, dtype=np.int64))
        _, g = boundary_loss(d, 1.0)
        inward_ok &= g[0] * u >= 0.0 and g[1] * (-u * 0.5) >= 0.0

    ok = value_ok and grad_ok and escape_ok and inward_ok
    report(5, "boundary-behavior", ok,
           f"value {value_ok}, grad {grad_ok}, escape-zero {escape_ok}, "
           f"inward {inward_ok}", t0)


def test_06_quantization_and_container(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    x = np.concatenate([rng.normal(0, 1, 400_000),
                        rng.uniform(-1e6, 1e6, 300_000),
                        rng.uniform(-1e-3, 1e-3, 300_000)])
    x = x[x != 0.0]
    rounded = bf16_round(x)
    rel = np.abs(rounded - x) / np.abs(x)
    roundtrip_ok = bool(np.max(rel) <= 2.0 ** -8)
    idem_ok = bool(np.array_equal(bf16_round(rounded), rounded))

    container_ok = True
    size_ok = True
    for _ in range(10):
        n_s = int(rng.integers(1, 65))
        m = int(rng.integers(1, 65))
        dset = make_random_set(rng, 8, 8, 3, n_s, m)
        path = tmp_path / "fuzz.gsd"
        save_gsd(dset, path)
        size_ok &= path.stat().st_size == 17 + 2 * n_s + 2 * n_s * m * 9
        loaded = load_gsd(path)
        container_ok &= bool(np.array_equal(loaded.params,
                                            bf16_round(dset.params)))
        container_ok &= bool(np.array_equal(loaded.labels, dset.labels))

    ok = roundtrip_ok and idem_ok and container_ok and size_ok
    report(6, "quantization-and-container", ok,
           f"roundtrip {roundtrip_ok}, idempotent {idem_ok}, "
           f"container {container_ok}, size-formula {size_ok}", t0)


def test_07_fitting():
    t0 = time.perf_counter()
    rcfg = RenderConfig(32, 32, 3, cutoff_sigma=np.inf)

    constant = ImageBuffer.from_array(np.full((32, 32, 3), [0.3, 0.6, 0.2]))
    _, psnrs_const, _ = fit_images(
        [constant], 4, TrainConfig(steps=500, lr=5e-2, lambda_boundary=0.0,
                                   seed=5), rcfg)
    const_ok = psnrs_const[0] >= 40.0

    natural = ImageBuffer.from_array(make_natural_image(32))
    _, psnrs_nat, trace = fit_images(
        [natural], 22, TrainConfig(steps=2000, lr=1e-2, seed=5), rcfg)
    init_psnr = 10.0 * np.log10(1.0 / trace[0][2])
    nat_ok = psnrs_nat[0] >= init_psnr + 10.0

    ok = const_ok and nat_ok
    report(7, "fitting", ok,
           f"constant {psnrs_const[0]:.1f} dB, natural {psnrs_nat[0]:.1f} dB "
           f"vs init {init_psnr:.1f} dB", t0)


def test_08_distillation_beats_storage_baseline(blob_dataset,
                                                toy_distillations):
    # the five distillations run in the session fixture, outside t0
    t0 = time.perf_counter()
    real = blob_dataset
    test = make_blob_dataset(n_per_class=64, seed=999)

    ratios, acc_distilled, acc_baseline = [], [], []
    for seed, (dset, trace) in enumerate(toy_distillations):
        dm = [row[2] for row in trace]
        ratios.append(np.mean(dm[-20:]) / np.mean(dm[:20]))

        train = rendered_dataset(dset, TOY_DISTILL_RENDER)
        acc_distilled.append(train_eval_classifier(
            train, test, EvalSpec(seed=seed, epochs=300)))

        rng = np.random.default_rng([seed, 55])
        picks = [int(rng.choice(np.flatnonzero(real.labels == c)))
                 for c in (0, 1)]
        baseline_train = LabeledImageDataset(
            real.images[picks], real.labels[picks], 2, real.mean, real.std)
        acc_baseline.append(train_eval_classifier(
            baseline_train, test, EvalSpec(seed=seed, epochs=300)))

    mean_d = float(np.mean(acc_distilled))
    mean_b = float(np.mean(acc_baseline))
    mean_ratio = float(np.mean(ratios))
    ok = mean_d >= mean_b and mean_ratio < 0.5
    report(8, "distillation-vs-baseline", ok,
           f"acc distilled {mean_d:.3f} vs baseline {mean_b:.3f}, "
           f"dm ratio {mean_ratio:.3f}", t0)


def test_09_pruning_asymmetry():
    t0 = time.perf_counter()
    rcfg = RenderConfig(16, 16, 3, ssaa_factor=1, cutoff_sigma=np.inf)
    test = make_field_dataset(48, seed=777)
    results = {"small_transparent_first": {"psnr": [], "acc": []},
               "large_opaque_first": {"psnr": [], "acc": []}}
    for seed in range(3):
        real = make_field_dataset(4, seed=33 + seed)
        targets = real.images[:8]
        tgts = targets.astype(np.float64)
        dset, _, _ = fit_images(targets, 17,
                                TrainConfig(steps=400, lr=2e-2, seed=seed),
                                rcfg, labels=real.labels[:8], num_classes=2)
        for mode, acc in results.items():
            pruned = prune_dataset(dset, PruneStrategy(mode, 0.5, seed=seed))
            out = render_batched(pruned, rcfg)
            acc["psnr"].append(np.mean([psnr(np.asarray(img), t)
                                        for img, t in zip(out, tgts)]))
            train = rendered_dataset(pruned, rcfg)
            acc["acc"].append(train_eval_classifier(
                train, test, EvalSpec(seed=seed, epochs=300)))

    psnr_small = float(np.mean(results["small_transparent_first"]["psnr"]))
    psnr_large = float(np.mean(results["large_opaque_first"]["psnr"]))
    acc_small = float(np.mean(results["small_transparent_first"]["acc"]))
    acc_large = float(np.mean(results["large_opaque_first"]["acc"]))
    ok = psnr_small > psnr_large and acc_small > acc_large
    report(9, "pruning-asymmetry", ok,
           f"PSNR {psnr_small:.1f} vs {psnr_large:.1f} dB, "
           f"acc {acc_small:.3f} vs {acc_large:.3f}", t0)


def test_10_benchmark_sanity():
    t0 = time.perf_counter()
    grid = [{"res": 128, "batch": 32, "m": 170, "path": p}
            for p in ("reference", "batched")]
    rows = bench_render(grid, seed=0, runs=5, workers=1, cutoff_sigma=3.0)

    schema_ok = len(rows) == 2 and len(BENCH_CSV_HEADER.split(",")) == 7
    by_path = {row[3]: row for row in rows}
    for row in rows:
        res, batch, m, path, fwd_ms, fwdbwd_ms, peak = row
        schema_ok &= (res, batch, m) == (128, 32, 170)
        schema_ok &= isinstance(fwd_ms, float) and isinstance(peak, int)
        schema_ok &= fwd_ms > 0 and fwdbwd_ms > 0
    speed_ok = by_path["batched"][4] <= by_path["reference"][4]
    ok = schema_ok and speed_ok
    report(10, "benchmark-sanity", ok,
           f"batched fwd {by_path['batched'][4]:.0f} ms vs reference "
           f"{by_path['reference'][4]:.0f} ms, schema {schema_ok}", t0)
