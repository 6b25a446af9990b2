from types import SimpleNamespace

import numpy as np
import pytest

from gsdd import analysis
from gsdd.analysis import (
    BENCH_CSV_HEADER,
    EvalSpec,
    PruneStrategy,
    bench_render,
    importance_score,
    prune_dataset,
    rendered_dataset,
    train_eval_classifier,
)
from gsdd.core import CHOLESKY_FLOOR, DistilledSet, RenderConfig
from gsdd.data_io import LabeledImageDataset
from gsdd.optimize import TrainConfig, fit_images, psnr
from gsdd.raster import render_batched, render_reference

from conftest import make_blob_dataset, make_field_dataset, make_random_set


def scores(*gaussians):
    """importance_score of one image holding Gaussians given as
    (l11, l21, l22, alpha)."""
    params = np.array([[0.0, 0.0, l11, l21, l22, 1.0, 1.0, 1.0, alpha]
                       for l11, l21, l22, alpha in gaussians])
    dset = DistilledSet(8, 8, 3, 1, len(gaussians), params.reshape(-1),
                        np.zeros(1, dtype=np.int64))
    return importance_score(dset)


class TestImportanceScore:
    def test_unit(self):
        assert scores((1, 0, 1, 1.0))[0] == pytest.approx(1.0)

    def test_anisotropic(self):
        # covariance diag(4, 1) via L = diag(2, 1)
        assert scores((2, 0, 1, 0.5))[0] == pytest.approx(1.0)
        # sqrt(det L L^T) is l11 * l22 whatever l21, bit for bit, also for
        # thin sheared factors whose determinant l11^2 (l21^2 + l22^2) -
        # (l11 l21)^2 cancels
        for l21 in (0.1, 100.0, 300.0):
            got = scores((0.3, l21, 1e-7, -1.7))[0]
            assert got == abs(-1.7) * abs(0.3) * max(abs(1e-7),
                                                     CHOLESKY_FLOOR)

    def test_opacity_magnitude(self):
        assert scores((1, 0, 1, -2.0))[0] == pytest.approx(2.0)

    def test_rotation_invariance_and_alpha_linearity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            l11, l21, l22 = rng.uniform(0.1, 1.0, 3)
            alpha = rng.uniform(-2, 2)
            # rotating the covariance keeps the determinant: build R S from
            # the same Sigma rotated 90 degrees -> swap-based factor
            sigma = np.array([[l11 ** 2, l11 * l21],
                              [l11 * l21, l21 ** 2 + l22 ** 2]])
            rot = np.array([[0.0, -1.0], [1.0, 0.0]])
            rotated = rot @ sigma @ rot.T
            chol = np.linalg.cholesky(rotated)
            base, score_rot, doubled = scores(
                (l11, l21, l22, alpha),
                (chol[0, 0], chol[1, 0], chol[1, 1], alpha),
                (l11, l21, l22, 2 * alpha))
            assert score_rot == pytest.approx(base, rel=1e-9)
            assert doubled == pytest.approx(2 * base, rel=1e-12)


@pytest.fixture(scope="module")
def fitted_field_set():
    real = make_field_dataset(4, seed=33)
    rcfg = RenderConfig(16, 16, 3, ssaa_factor=1, cutoff_sigma=np.inf)
    targets = real.images[:8]
    dset, _, _ = fit_images(targets, 17, TrainConfig(steps=400, lr=2e-2,
                                                     seed=1),
                            rcfg, labels=real.labels[:8], num_classes=2)
    return dset, rcfg, targets


def prune_per_image(dset, strategy):
    """The per-image loop ``prune_dataset`` once ran, kept as the reference
    for which Gaussians survive: (params, labels, Gaussians per image)."""
    m = dset.gaussians_per_image
    keep = m - int(np.floor(strategy.ratio * m))
    scores = importance_score(dset).reshape(dset.num_images, m)
    blocks = dset.params.reshape(dset.num_images, m, 9)
    kept = np.empty((dset.num_images, keep, 9))
    for i in range(dset.num_images):
        if strategy.mode == "large_opaque_first":
            keep_idx = np.argsort(scores[i], kind="stable")[:keep]
        elif strategy.mode == "small_transparent_first":
            keep_idx = np.argsort(scores[i], kind="stable")[m - keep:]
        else:
            rng = np.random.default_rng([strategy.seed, i])
            keep_idx = rng.permutation(m)[:keep]
        kept[i] = blocks[i][np.sort(keep_idx)]
    return kept.reshape(-1), dset.labels, keep


class TestPrune:
    @pytest.mark.parametrize("ratio", [0.0, 0.2, 0.5, 0.99, 1.0])
    @pytest.mark.parametrize("mode", sorted(analysis.PRUNE_MODES))
    def test_same_selection_as_per_image_loop(self, mode, ratio):
        # (N, M) with empty sets of both kinds; parameters rounded to one
        # decimal so that equal scores test the stable order
        for n, m in [(0, 5), (1, 0), (3, 1), (4, 7), (2, 13)]:
            dset = make_random_set(np.random.default_rng([n, m]), 8, 8, 3,
                                   n, m, num_classes=3)
            dset.params[:] = np.round(dset.params, 1)
            for seed in (0, 9):
                strategy = PruneStrategy(mode, ratio, seed)
                pruned = prune_dataset(dset, strategy)
                params, labels, keep = prune_per_image(dset, strategy)
                assert np.array_equal(pruned.params, params)
                assert np.array_equal(pruned.labels, labels)
                assert (pruned.num_images, pruned.gaussians_per_image,
                        pruned.num_classes) == (n, keep, 3)

    def test_ratio_zero_is_identity(self, fitted_field_set):
        dset, _, _ = fitted_field_set
        pruned = prune_dataset(dset, PruneStrategy("random", 0.0))
        assert np.array_equal(pruned.params, dset.params)
        assert pruned.gaussians_per_image == dset.gaussians_per_image

    def test_ratio_one_renders_zeros(self, fitted_field_set):
        dset, rcfg, _ = fitted_field_set
        pruned = prune_dataset(dset, PruneStrategy("random", 1.0))
        assert pruned.gaussians_per_image == 0
        out = render_batched(pruned, rcfg)
        for img in out:
            assert np.array_equal(img.pixels,
                                  np.zeros_like(img.pixels))

    def test_counts_per_image(self, fitted_field_set):
        dset, _, _ = fitted_field_set
        for ratio, keep in ((0.25, 13), (0.5, 9), (0.9, 2)):
            pruned = prune_dataset(dset,
                                   PruneStrategy("large_opaque_first", ratio))
            assert pruned.gaussians_per_image == keep

    def test_random_mode_deterministic_per_seed(self, fitted_field_set):
        dset, _, _ = fitted_field_set
        a = prune_dataset(dset, PruneStrategy("random", 0.4, seed=9))
        b = prune_dataset(dset, PruneStrategy("random", 0.4, seed=9))
        c = prune_dataset(dset, PruneStrategy("random", 0.4, seed=10))
        assert np.array_equal(a.params, b.params)
        assert not np.array_equal(a.params, c.params)

    def test_invalid_strategy(self):
        with pytest.raises(ValueError):
            PruneStrategy("biggest", 0.5)
        with pytest.raises(ValueError):
            PruneStrategy("random", 1.5)

    def test_asymmetry_at_half(self, fitted_field_set):
        dset, rcfg, tgts = fitted_field_set

        def mean_psnr(mode):
            pruned = prune_dataset(dset, PruneStrategy(mode, 0.5))
            out = render_batched(pruned, rcfg)
            return np.mean([psnr(np.asarray(img), t)
                            for img, t in zip(out, tgts)])

        assert mean_psnr("small_transparent_first") > \
            mean_psnr("large_opaque_first")

    def test_asymmetry_across_ratios(self, fitted_field_set):
        dset, rcfg, tgts = fitted_field_set
        ratios = np.arange(0.1, 0.95, 0.1)

        def mean_psnr(mode, ratio):
            pruned = prune_dataset(dset, PruneStrategy(mode, float(ratio)))
            out = render_batched(pruned, rcfg)
            return np.mean([psnr(np.asarray(img), t)
                            for img, t in zip(out, tgts)])

        small = np.mean([mean_psnr("small_transparent_first", r)
                         for r in ratios])
        large = np.mean([mean_psnr("large_opaque_first", r) for r in ratios])
        assert large <= small


class TestClassifier:
    def test_separable_blobs(self):
        train = make_blob_dataset(16, seed=1)
        test = make_blob_dataset(32, seed=2)
        acc = train_eval_classifier(train, test, EvalSpec(seed=0, epochs=300))
        assert acc >= 0.95

    def test_shuffled_labels_are_chance(self):
        train = make_blob_dataset(16, seed=3)
        rng = np.random.default_rng(0)
        shuffled = LabeledImageDataset(train.images,
                                       rng.permutation(train.labels),
                                       2, train.mean, train.std)
        test = make_blob_dataset(48, seed=4)
        acc = train_eval_classifier(shuffled, test,
                                    EvalSpec(seed=0, epochs=200))
        n = test.labels.size
        three_sigma = 3.0 * np.sqrt(0.25 / n)
        assert abs(acc - 0.5) <= three_sigma + 0.1

    def test_deterministic_per_seed(self):
        train = make_blob_dataset(8, seed=5)
        test = make_blob_dataset(16, seed=6)
        a = train_eval_classifier(train, test, EvalSpec(seed=3, epochs=50))
        b = train_eval_classifier(train, test, EvalSpec(seed=3, epochs=50))
        assert a == b

    def test_missing_class_rejected(self):
        train = make_blob_dataset(4, seed=7)
        keep = np.flatnonzero(train.labels == 0)
        broken = LabeledImageDataset(train.images[keep], train.labels[keep],
                                     2, train.mean, train.std)
        with pytest.raises(ValueError, match="missing"):
            train_eval_classifier(broken, train, EvalSpec(seed=0, epochs=1))


class TestRenderedDataset:
    def test_shapes_and_labels(self):
        rng = np.random.default_rng(8)
        dset = make_random_set(rng, 8, 8, 3, 4, 3, num_classes=2)
        out = rendered_dataset(dset, RenderConfig(8, 8, 3, tile_size=8))
        assert out.images.shape == (4, 8, 8, 3)
        assert np.array_equal(out.labels, dset.labels)


class TestBench:
    def test_schema_and_row_count(self):
        grid = [{"res": 16, "batch": 2, "m": 6, "path": p}
                for p in ("reference", "batched")]
        rows = bench_render(grid, seed=0, runs=3)
        assert len(rows) == len(grid)
        header_fields = BENCH_CSV_HEADER.split(",")
        assert len(rows[0]) == len(header_fields)
        for row in rows:
            assert row[3] in ("reference", "batched")
            assert row[4] > 0 and row[5] > 0
            assert row[5] >= row[4] * 0.5  # fwd+bwd includes a forward
        assert rows[0][6] >= 0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            bench_render([])

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError):
            bench_render([{"res": 8, "batch": 1, "m": 2, "path": "gpu"}])


def _train_on_nothing(monkeypatch):
    blobs = make_blob_dataset(2, seed=0)
    empty = LabeledImageDataset(blobs.images[:0], blobs.labels[:0], 2,
                                blobs.mean, blobs.std)
    train_eval_classifier(empty, blobs, EvalSpec(epochs=1))


def _bench_paths_that_disagree(monkeypatch):
    def moved(dset, image_index, cfg, **kwargs):
        img = render_reference(dset, image_index, cfg, **kwargs)
        img.pixels[0] += 1.0
        return img

    def clock():
        raise RuntimeError("bench_render started timing")

    monkeypatch.setattr(analysis, "render_reference", moved)
    monkeypatch.setattr(analysis, "time", SimpleNamespace(perf_counter=clock))
    bench_render([{"res": 8, "batch": 2, "m": 3, "path": "batched"}])


@pytest.mark.parametrize("build, error, message", [
    (_train_on_nothing, ValueError, "empty training set"),
    # one moved pixel fails the paths' check before anything is timed
    (_bench_paths_that_disagree, AssertionError,
     r"paths disagree at \(8, 2, 3\), image 0"),
])
def test_invalid_input_rejected(monkeypatch, build, error, message):
    with pytest.raises(error, match=message):
        build(monkeypatch)
