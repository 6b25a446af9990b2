import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gsdd.core import (
    CHOLESKY_FLOOR,
    CUTOFF_WINDOW_TAU,
    MAX_CUTOFF_SIGMA,
    MIN_CUTOFF_SIGMA,
    DistilledSet,
    RenderConfig,
    cholesky_factor,
)
from gsdd.gradients import render_backward
from gsdd.raster import (
    ImageBuffer,
    _GaussianTable,
    _TileSchedule,
    _shade,
    build_intersection_records,
    render_batched,
    render_reference,
    ssaa_offsets,
)

from conftest import closed_form_error, make_random_set, thin_rotated_factors


def single_gaussian_set(width, height, u, v, l11, l21, l22,
                        color=(1.0, 0.0, 0.0), alpha=1.0):
    params = np.array([u, v, l11, l21, l22, *color, alpha])
    return DistilledSet(width, height, 3, 1, 1, params,
                        np.zeros(1, dtype=np.int64))


def one_cov(l11, l21, l22):
    """(sigma, det, inv) of one Gaussian: sigma = L L^T and det = (l11
    l22)^2 from ``cholesky_factor``, the inverse L'^-T L'^-1 from the render
    table's inverse Cholesky factor L'^-1 = [[1/p, 0], [-r/(p s), 1/s]] at a
    2x2 frame (unit pixel scale, no prefilter)."""
    params = np.array([0.0, 0.0, l11, l21, l22, 1.0, 1.0, 1.0, 1.0])
    a, b, c = (x[0] for x in cholesky_factor(params))
    factor = np.array([[a, 0.0], [b, c]])
    dset = DistilledSet(2, 2, 3, 1, 1, params, np.zeros(1, dtype=np.int64))
    tbl = _GaussianTable(dset, RenderConfig(2, 2, 3, prefilter=False))
    l_inv = np.array([[tbl.inv_p[0], 0.0], [-tbl.shear[0], tbl.inv_s[0]]])
    inv = l_inv.T @ l_inv
    return factor @ factor.T, float((a * c) ** 2), inv


class TestCovFromCholesky:
    def test_identity(self):
        sigma, det, inv = one_cov(1, 0, 1)
        assert np.array_equal(sigma, np.eye(2))
        assert det == 1.0
        assert np.array_equal(inv, np.eye(2))

    def test_by_hand(self):
        sigma, det, inv = one_cov(2, 1, 1)
        assert np.array_equal(sigma, [[4, 2], [2, 2]])
        assert det == pytest.approx(4.0)
        assert np.allclose(sigma @ inv, np.eye(2), atol=1e-12)

    def test_floor(self):
        sigma, det, _ = one_cov(0, 0, 1)
        assert sigma[0, 0] == 1e-12  # delta^2
        assert sigma[0, 1] == 0.0
        assert sigma[1, 1] == 1.0
        assert det > 0
        # the floor acts on magnitude: a negative diagonal flips no sign
        assert np.array_equal(one_cov(-2, 1, -1)[0],
                              [[4, 2], [2, 2]])


class TestPrefilter:
    """The renderer adds the unit pixel box's variance diag(1/12, 1/12) to
    each pixel-space covariance: checked on rendered single Gaussians."""

    BOX = 1.0 / 12.0

    def test_identity_cov(self):
        # l = 1/16 on a 32-wide frame is the unit pixel covariance
        sigma = np.diag([1.0 + self.BOX, 1.0 + self.BOX])
        assert closed_form_error(1 / 16, 0.0, 1 / 16, sigma, True) <= 1e-12

    def test_off_diagonal_unchanged(self):
        # pixel covariance [[4, 2], [2, 2]]
        sigma = [[4.0 + self.BOX, 2.0], [2.0, 2.0 + self.BOX]]
        assert closed_form_error(0.125, 0.0625, 0.0625, sigma,
                                 True) <= 1e-12

    def test_minimum_variance(self):
        # a floored Cholesky factor leaves the box's variance
        floor = 4.0 * CHOLESKY_FLOOR ** 2   # pixel units on a 4-wide frame
        sigma = np.diag([floor + self.BOX, floor + self.BOX])
        assert closed_form_error(0.0, 0.0, 0.0, sigma, True,
                                 size=4) <= 1e-12

    def test_without_prefilter_keeps_covariance(self):
        sigma = [[4.0, 2.0], [2.0, 2.0]]
        assert closed_form_error(0.125, 0.0625, 0.0625, sigma,
                                 False) <= 1e-12
        assert closed_form_error(0.125, 0.0625, 0.0625, sigma, True) > 1e-3


class TestSsaaOffsets:
    def test_factor_one(self):
        assert ssaa_offsets(1) == [(0.0, 0.0)]

    def test_factor_two(self):
        assert ssaa_offsets(2) == [(-0.25, -0.25), (-0.25, 0.25),
                                   (0.25, -0.25), (0.25, 0.25)]

    def test_factor_three_mean_zero(self):
        offs = np.array(ssaa_offsets(3))
        assert offs.shape == (9, 2)
        assert np.allclose(offs.mean(axis=0), 0.0, atol=1e-15)

    def test_factor_zero_rejected(self):
        with pytest.raises(ValueError):
            ssaa_offsets(0)


def plain_cfg(w, h, **kw):
    kw.setdefault("prefilter", False)
    kw.setdefault("ssaa_factor", 1)
    kw.setdefault("cutoff_sigma", np.inf)
    return RenderConfig(w, h, 3, **kw)


class TestImageBuffer:
    def test_array_like(self):
        buf = ImageBuffer.from_array(np.arange(24.0).reshape(2, 4, 3))
        view = np.asarray(buf)
        assert view.shape == (2, 4, 3)
        assert np.shares_memory(view, buf.pixels)
        cast = np.asarray(buf, dtype=np.float32)
        assert cast.dtype == np.float32
        assert np.array_equal(cast, np.asarray(buf))
        assert not np.shares_memory(np.array(buf), buf.pixels)
        # NumPy 1.x calls the protocol without ``copy``
        assert np.shares_memory(buf.__array__(), buf.pixels)
        assert buf.__array__(np.float32).dtype == np.float32
        batch = np.asarray([buf, ImageBuffer.zeros(4, 2, 3)])
        assert batch.shape == (2, 2, 4, 3)
        assert np.array_equal(batch[0], np.asarray(buf))

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="NumPy 1.x's asarray has no copy argument")
    def test_copy_false_refuses_a_cast(self):
        # as for an ndarray: copy=False raises where a cast needs a copy
        buf = ImageBuffer.zeros(2, 2, 3)
        with pytest.raises(ValueError, match="copy"):
            np.asarray(buf, dtype=np.float64, copy=False)
        with pytest.raises(ValueError, match="copy"):
            np.array(np.asarray(buf), dtype=np.float64, copy=False)
        for same in (np.asarray(buf, copy=False),
                     np.asarray(buf, dtype=np.float32, copy=False)):
            assert np.shares_memory(same, buf.pixels)
        assert not np.shares_memory(np.asarray(buf, copy=True), buf.pixels)


class TestRenderReference:
    def test_empty_set_is_zero(self):
        dset = DistilledSet.zeros(16, 16, 3, 1, 0)
        img = render_reference(dset, 0, plain_cfg(16, 16))
        assert np.array_equal(img.pixels, np.zeros(16 * 16 * 3, np.float32))

    def test_value_at_mean(self):
        u, v = 2 * (9 + 0.5) / 32 - 1, 2 * (4 + 0.5) / 16 - 1
        dset = single_gaussian_set(32, 16, u, v, 0.3, 0.1, 0.2)
        img = np.asarray(render_reference(dset, 0, plain_cfg(32, 16)))
        assert img[4, 9, 0] == 1.0
        assert img[4, 9, 1] == 0.0 and img[4, 9, 2] == 0.0

    def test_one_sigma_falloff(self):
        # isotropic sigma of 4 pixels on a 32-wide image
        u = v = 2 * (15 + 0.5) / 32 - 1
        dset = single_gaussian_set(32, 32, u, v, 4 / 16, 0.0, 4 / 16)
        img = np.asarray(render_reference(dset, 0, plain_cfg(32, 32)))
        assert img[15, 19, 0] == pytest.approx(np.exp(-0.5), rel=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_sample_block_shades_as_in_a_wider_block(self, dtype):
        # a 1 x 1 block at ssaa 1 (the last block of a 9 x 1 image at
        # tile_size 8) has one sample; its shading product must round as
        # that sample's column does in a wider block
        rng = np.random.default_rng(0)
        dset = make_random_set(rng, 9, 1, 3, 1, 8)
        tbl = _GaussianTable(dset, RenderConfig(9, 1, 3), dtype)
        idx = np.arange(8)
        for _ in range(20):
            v = (rng.uniform(0.0, 1.0, (9, 8)) ** 4).astype(dtype)
            wide, one = np.empty((1, 9, 3), dtype), np.empty((1, 1, 3), dtype)
            _shade(v, tbl, idx, wide)
            _shade(v[8:], tbl, idx, one)
            assert np.array_equal(wide[0, 8], one[0, 0])

    def test_geometry_mismatch(self):
        dset = DistilledSet.zeros(16, 16, 3, 1, 1)
        with pytest.raises(ValueError):
            render_reference(dset, 0, plain_cfg(8, 16))


class TestBatchedAgainstReference:
    def test_oracle_equivalence_random_sets(self):
        rng = np.random.default_rng(7)
        for case in range(30):
            w = int(rng.integers(4, 33))
            h = int(rng.integers(4, 33))
            m = int(rng.integers(1, 17))
            n = int(rng.integers(1, 4))
            dset = make_random_set(rng, w, h, 3, n, m)
            cfg = RenderConfig(w, h, 3, prefilter=bool(case % 2),
                               ssaa_factor=1 + case % 2,
                               cutoff_sigma=np.inf,
                               tile_size=(8, 16, 32)[case % 3])
            batched = render_batched(dset, cfg)
            for i in range(n):
                ref = render_reference(dset, i, cfg)
                denom = np.maximum(np.abs(ref.pixels), 1e-6)
                err = np.max(np.abs(ref.pixels - batched[i].pixels) / denom)
                assert err <= 1e-5
                # the shared evaluation path actually makes them bitwise equal
                assert np.array_equal(ref.pixels, batched[i].pixels)

    def test_batch_equals_one_by_one(self):
        rng = np.random.default_rng(3)
        dset = make_random_set(rng, 24, 16, 3, 3, 9)
        cfg = RenderConfig(24, 16, 3, cutoff_sigma=3.0, tile_size=8)
        together = render_batched(dset, cfg)
        for i in range(3):
            alone = render_batched(dset.subset([i]), cfg)[0]
            assert np.array_equal(together[i].pixels, alone.pixels)

    def test_worker_counts_bitwise(self):
        rng = np.random.default_rng(5)
        dset = make_random_set(rng, 32, 32, 3, 2, 12)
        cfg = RenderConfig(32, 32, 3, cutoff_sigma=3.0, tile_size=8)
        base = render_batched(dset, cfg, workers=1)
        for workers in (2, 8):
            other = render_batched(dset, cfg, workers=workers)
            for a, b in zip(base, other):
                assert np.array_equal(a.pixels, b.pixels)

    def test_gaussian_outside_frame_contributes_nothing(self):
        # center far outside with a tiny footprint: culled everywhere
        dset = single_gaussian_set(16, 16, 2.5, 2.5, 0.01, 0.0, 0.01)
        cfg = RenderConfig(16, 16, 3, prefilter=False, cutoff_sigma=3.0)
        records, _ = build_intersection_records(dset, cfg)
        assert len(records) == 0
        imgs = render_batched(dset, cfg)
        assert np.array_equal(imgs[0].pixels, np.zeros(16 * 16 * 3, np.float32))


def bad_gaussian_set(field, value):
    """Two images of four Gaussians; Gaussian 2 of image 1 gets ``value``."""
    dset = make_random_set(np.random.default_rng(23), 16, 16, 3, 2, 4)
    dset.params[(4 + 2) * 9 + field] = value
    return dset


BAD_GAUSSIANS = {
    "nan_u": (0, np.nan, "parameters must be finite"),
    "inf_alpha": (8, np.inf, "parameters must be finite"),
    "overflowing_l11": (2, 1e200, "covariance is not finite"),
    "overflowing_u": (0, 1e308, "mean is not finite"),
    "far_u": (0, 1e200, "distance overflows"),
}

RENDER_PATHS = {
    "reference": lambda d, cfg: render_reference(d, 1, cfg),
    "batched_cutoff3": lambda d, cfg: render_batched(d, cfg),
    "batched_cutoff_inf": lambda d, cfg: render_batched(
        d, replace(cfg, cutoff_sigma=np.inf)),
    "backward": lambda d, cfg: render_backward(d, cfg,
                                               np.ones((2, 16, 16, 3))),
    "fit_pass": lambda d, cfg: render_batched(
        d, cfg, out_dtype=np.float64, targets=np.zeros((2, 16, 16, 3))),
}


class TestBadGaussians:
    """Every path rejects the same Gaussians with the same message, so no
    path can render one as absent or as NaN pixels while another does not."""

    @pytest.mark.parametrize("case", sorted(BAD_GAUSSIANS))
    @pytest.mark.parametrize("path", sorted(RENDER_PATHS))
    def test_rejected_on_every_path(self, case, path):
        field, value, reason = BAD_GAUSSIANS[case]
        dset = bad_gaussian_set(field, value)
        cfg = RenderConfig(16, 16, 3, cutoff_sigma=3.0)
        with pytest.raises(ValueError,
                           match=f"image 1, Gaussian 2: .*{reason}"):
            RENDER_PATHS[path](dset, cfg)

    @pytest.mark.parametrize("path", sorted(RENDER_PATHS))
    def test_far_mean_with_cross_term_rejected(self, path):
        # dx * dx and dy * dy overflow to inf, and the cross term makes
        # q = inf - inf = NaN: this once rendered NaN at cutoff inf while
        # cutoff 3 culled the Gaussian
        dset = bad_gaussian_set(0, 1e200)
        dset.params[(4 + 2) * 9 + 1] = 1e200
        dset.params[(4 + 2) * 9 + 3] = 0.3
        cfg = RenderConfig(16, 16, 3, cutoff_sigma=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="image 1, Gaussian 2: "
                                                 ".*distance overflows"):
                RENDER_PATHS[path](dset, cfg)

    @pytest.mark.parametrize("path", sorted(RENDER_PATHS) + ["records"])
    def test_opacity_times_colour_overflow_rejected(self, path):
        # each factor is finite and only their product overflows: this once
        # rendered NaN over the whole tile, as the BLAS product multiplied
        # inf by the zeros outside the window
        dset = bad_gaussian_set(8, 1e200)
        dset.params[(4 + 2) * 9 + 6] = 1e200
        cfg = RenderConfig(16, 16, 3, cutoff_sigma=3.0)
        call = RENDER_PATHS.get(path, build_intersection_records)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="image 1, Gaussian 2: "
                                                 "opacity times colour "
                                                 "overflows"):
                call(dset, cfg)

    def test_large_finite_values_still_render(self):
        # (l11, l21, l22) of Gaussian 2 of image 1, and the prefilter: a huge
        # l11, and without the prefilter two factors whose determinant
        # c00 c11 - c01^2 cancels to zero in float64
        for factor, prefilter in [((1e100, None, None), True),
                                  ((0.3, 300.0, 1e-7), False),
                                  ((0.3, 1e8, 0.3), False)]:
            dset = bad_gaussian_set(2, factor[0])
            for field, value in zip((3, 4), factor[1:]):
                if value is not None:
                    dset.params[(4 + 2) * 9 + field] = value
            cfg = RenderConfig(16, 16, 3, prefilter=prefilter)
            for path in sorted(RENDER_PATHS):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    out = RENDER_PATHS[path](dset, cfg)
                if path == "backward":
                    out = out.grads
                elif path == "fit_pass":
                    out = np.append(*out)   # the images and the gradient
                assert np.all(np.isfinite(np.asarray(out))), (factor, path)


def overflowing_set(value):
    """Three images of four Gaussians; in images 1 and 2, Gaussians 1 and 2
    share one mean and have opacity and every colour at ``value``."""
    dset = make_random_set(np.random.default_rng(29), 16, 16, 3, 3, 4)
    p = dset.params.reshape(3, 4, 9)
    p[1:, 1:3, 0:5] = [0.1, -0.1, 0.4, 0.0, 0.4]
    p[1:, 1:3, 5:9] = value
    return dset


class TestOutOfRangePixels:
    """A pixel that leaves the output dtype's range fails the render on
    both paths, naming the first such image, and no floating-point warning
    escapes."""

    @pytest.mark.parametrize("value, dtype", [(3e38, "float32"),
                                              (1e154, "float64")])
    @pytest.mark.parametrize("path", ["reference", "batched", "batched_w2",
                                      "batched_cutoff_inf", "fit_pass",
                                      "fit_pass_w2"])
    def test_rejected_on_both_paths(self, path, value, dtype):
        # float32: each Gaussian shades 9e76, which the cast overflows;
        # float64: each shades 1e308, and their sum overflows
        dset = overflowing_set(value)
        cfg = RenderConfig(16, 16, 3, cutoff_sigma=3.0)
        targets = np.zeros((3, 16, 16, 3))
        call = {
            "reference": lambda: render_reference(dset, 1, cfg,
                                                  out_dtype=dtype),
            "batched": lambda: render_batched(dset, cfg, out_dtype=dtype),
            "batched_w2": lambda: render_batched(dset, cfg, workers=2,
                                                 out_dtype=dtype),
            "batched_cutoff_inf": lambda: render_batched(
                dset, replace(cfg, cutoff_sigma=np.inf), out_dtype=dtype),
            # the tiles whose block overflowed skip the backward's moments
            "fit_pass": lambda: render_batched(dset, cfg, out_dtype=dtype,
                                               targets=targets),
            "fit_pass_w2": lambda: render_batched(
                dset, cfg, workers=2, out_dtype=dtype, targets=targets),
        }[path]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^image 1: a rendered pixel "
                                                 f"overflows {dtype}$"):
                call()

    def test_float64_holds_what_float32_cannot(self):
        # training renders float64, where the 3e38 set stays finite
        dset = overflowing_set(3e38)
        cfg = RenderConfig(16, 16, 3, cutoff_sigma=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = np.asarray(render_batched(dset, cfg, out_dtype=np.float64))
        assert np.isfinite(out).all()
        assert out.max() > 1e76


def kernel_dtypes(monkeypatch):
    """The dtype of every tile's kernel values from here on, in call order."""
    seen = []
    kernel = _GaussianTable.kernel

    def recording(tbl, q, v, *args, **kwargs):
        seen.append(v.dtype)
        return kernel(tbl, q, v, *args, **kwargs)

    monkeypatch.setattr(_GaussianTable, "kernel", recording)
    return seen


class TestTilePrecision:
    """An image-only pass with float32 output computes its tiles in float32;
    every other pass computes them in float64."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ssaa", [1, 2, 3])
    def test_oracle_and_workers_bitwise(self, dtype, ssaa):
        # 21 x 13 at tile size 8 leaves partial blocks on both axes
        rng = np.random.default_rng([31, ssaa])
        dset = make_random_set(rng, 21, 13, 3, 3, 7)
        for cutoff in (3.0, np.inf):
            cfg = RenderConfig(21, 13, 3, ssaa_factor=ssaa,
                               cutoff_sigma=cutoff, tile_size=8)
            one, two = (np.asarray(render_batched(dset, cfg, workers=w,
                                                  out_dtype=dtype))
                        for w in (1, 2))
            assert one.dtype == dtype
            assert np.array_equal(one, two)
        for i in range(3):
            ref = np.asarray(render_reference(dset, i, cfg, out_dtype=dtype))
            assert ref.dtype == dtype
            assert np.array_equal(ref, one[i])

    def test_which_passes_run_float32(self, monkeypatch):
        dset = make_random_set(np.random.default_rng(37), 16, 16, 3, 2, 5)
        cfg = RenderConfig(16, 16, 3, tile_size=8)
        zeros = np.zeros((2, 16, 16, 3))
        passes = {
            "float32": (np.float32, lambda: render_batched(dset, cfg)),
            "float32_reference": (np.float32, lambda: render_reference(
                dset, 0, cfg)),
            "float64": (np.float64, lambda: render_batched(
                dset, cfg, out_dtype=np.float64)),
            "float64_reference": (np.float64, lambda: render_reference(
                dset, 0, cfg, out_dtype=np.float64)),
            "float16": (np.float64, lambda: render_batched(
                dset, cfg, out_dtype=np.float16)),
            "backward": (np.float64, lambda: render_backward(dset, cfg,
                                                             zeros)),
            "fit_pass_float32": (np.float64, lambda: render_batched(
                dset, cfg, targets=zeros)),
            "fit_pass_float64": (np.float64, lambda: render_batched(
                dset, cfg, out_dtype=np.float64, targets=zeros)),
        }
        seen = kernel_dtypes(monkeypatch)
        for name, (want, call) in passes.items():
            seen.clear()
            call()
            assert len(seen) > 0
            assert set(seen) == {np.dtype(want)}, name

    # the largest pixel change from float64 to float32 tiles, as a share of
    # the float64 image's largest magnitude, for three kinds of set; the
    # error grows with a Gaussian's pixel-space aspect ratio, about eps *
    # ratio, as z2 = dy/s - r/(p s) dx cancels along a thin Gaussian
    @pytest.mark.parametrize("kind, prefilter, bound", [
        ("well_conditioned", True, 1e-6), ("well_conditioned", False, 1e-6),
        ("thin", True, 1e-5), ("thin_ratio_100", False, 1e-4)])
    def test_float32_close_to_float64(self, kind, prefilter, bound):
        worst = 0.0
        for seed in range(6):
            rng = np.random.default_rng([seed, 53])
            dset = make_random_set(rng, 24, 20, 3, 2, 12,
                                   thin=kind == "thin")
            if kind == "thin_ratio_100":
                p = dset.params.reshape(-1, 9)
                p[:, 2:5] = thin_rotated_factors(rng, p.shape[0], 100.0)
            for ssaa in (1, 2, 3):
                cfg = RenderConfig(24, 20, 3, prefilter=prefilter,
                                   ssaa_factor=ssaa, tile_size=8)
                got = np.asarray(render_batched(dset, cfg), dtype=np.float64)
                want = np.asarray(render_batched(dset, cfg,
                                                 out_dtype=np.float64))
                worst = max(worst, np.abs(got - want).max()
                            / np.abs(want).max())
        assert 0.0 < worst <= bound

    @pytest.mark.parametrize("l21, reason", [
        pytest.param(1e39, "pixel-space mean or whitening overflows float32",
                     id="whitening"),
        pytest.param(1e19, "Mahalanobis distance overflows float32 over "
                     "the image", id="distance")])
    def test_float32_overflowing_gaussian_rejected(self, l21, reason):
        # a finite needle: its whitening entry r/(p s), about 1.4 l21,
        # overflows float32 at 1e39, and at 1e19 its q over the image would
        # reach 1.4e40. It renders at float64; a float32 pass rejects it on
        # both paths, and no warning escapes.
        dset = make_random_set(np.random.default_rng(41), 16, 16, 3, 2, 3)
        dset.params[3 * 9:3 * 9 + 5] = [-0.03125, -0.03125, 0.3, l21, 0.3]
        cfg = RenderConfig(16, 16, 3, prefilter=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cutoff in (3.0, np.inf):
                c = replace(cfg, cutoff_sigma=cutoff)
                out = np.asarray(render_batched(dset, c, workers=2,
                                                out_dtype=np.float64))
                assert np.isfinite(out).all()
                assert np.isfinite(np.asarray(render_reference(
                    dset, 1, c, out_dtype=np.float64))).all()
                grads = render_backward(dset, c, np.ones((2, 16, 16, 3)))
                assert np.isfinite(grads.grads).all()
                for call in (lambda: render_batched(dset, c, workers=2),
                             lambda: render_reference(dset, 1, c)):
                    with pytest.raises(ValueError, match=f"^image 1, "
                                       f"Gaussian 0: {reason}$"):
                        call()


class TestWorkerCount:
    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        dset = make_random_set(np.random.default_rng(3), 16, 16, 3, 2, 4)
        cfg = RenderConfig(16, 16, 3)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            render_batched(dset, cfg, workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            render_backward(dset, cfg, [ImageBuffer.zeros(16, 16, 3)] * 2,
                            workers=workers)


class TestTileMap:
    """``_TileSchedule.map`` runs one task per worker; the tasks share one
    iterator over the tile indices."""

    @pytest.mark.parametrize("size, workers", [(48, 1), (48, 2), (16, 6)])
    def test_each_tile_once_in_tile_order(self, size, workers):
        # 3 images of 3 x 3 tiles, or of one tile: 6 workers on 3 tiles
        dset = make_random_set(np.random.default_rng(3), size, size, 3, 3, 4)
        sched = _TileSchedule(dset, RenderConfig(size, size, 3,
                                                 cutoff_sigma=np.inf))
        tiles = sched.tile_ids.size
        calls = []

        def run_tile(t, scratch):
            calls.append((t, threading.get_ident(), scratch))
            return -t

        assert sched.map(run_tile, workers) == [-t for t in range(tiles)]
        assert sorted(t for t, _, _ in calls) == list(range(tiles))
        # one scratch per thread, and no more threads than workers
        scratch_of = {}
        for _, thread, scratch in calls:
            assert scratch_of.setdefault(thread, scratch) is scratch
        assert len({id(s) for s in scratch_of.values()}) == len(scratch_of)
        assert len(scratch_of) <= workers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_tile_error_reaches_caller(self, workers):
        dset = make_random_set(np.random.default_rng(3), 48, 48, 3, 3, 4)
        sched = _TileSchedule(dset, RenderConfig(48, 48, 3,
                                                 cutoff_sigma=np.inf))

        def run_tile(t, scratch):
            if t == 5:
                raise RuntimeError("tile 5 failed")
            return t

        with pytest.raises(RuntimeError, match="tile 5 failed"):
            sched.map(run_tile, workers)


class TestPassedSchedule:
    """A pass walks a given schedule only if it was built from the pass's
    own set object, an equal config and the pass's tile dtype (its values
    are checked bitwise in the worker-invariance property)."""

    @pytest.mark.parametrize("built_from", ["set copy", "other ssaa",
                                            "other tile dtype"])
    @pytest.mark.parametrize("direction", ["forward", "backward", "fit_pass"])
    def test_other_set_or_config_rejected(self, built_from, direction):
        dset = make_random_set(np.random.default_rng(3), 16, 16, 3, 2, 4)
        cfg = RenderConfig(16, 16, 3, ssaa_factor=2, tile_size=8)
        zeros = np.zeros((2, 16, 16, 3))
        # a float32 image-only forward walks float32 tiles, the backward and
        # the fit pass float64 ones
        dtype, other = ((np.float32, np.float64) if direction == "forward"
                        else (np.float64, np.float32))
        sched = _TileSchedule(*{
            "set copy": (dset.copy(), cfg, dtype),
            "other ssaa": (dset, replace(cfg, ssaa_factor=1), dtype),
            "other tile dtype": (dset, cfg, other)}[built_from])
        with pytest.raises(ValueError, match="tile schedule of another set "
                                             "or render config"):
            if direction == "forward":
                render_batched(dset, cfg, schedule=sched)
            elif direction == "backward":
                render_backward(dset, cfg, zeros, schedule=sched)
            else:
                render_batched(dset, cfg, schedule=sched, targets=zeros)


# finite cutoffs at and just inside the ends of the accepted range, and just
# outside them, named by their place so that the ids outlive the constants
IN_RANGE = [
    pytest.param(MIN_CUTOFF_SIGMA, id="min"),
    pytest.param(float(np.nextafter(MIN_CUTOFF_SIGMA, np.inf)),
                 id="min_next_up"),
    pytest.param(MIN_CUTOFF_SIGMA * (1.0 + 1e-9), id="min_1e-9_up"),
    pytest.param(MAX_CUTOFF_SIGMA * (1.0 - 1e-9), id="max_1e-9_down"),
    pytest.param(float(np.nextafter(MAX_CUTOFF_SIGMA, 0.0)),
                 id="max_next_down"),
    pytest.param(MAX_CUTOFF_SIGMA, id="max")]
OUT_OF_RANGE = [
    pytest.param(float(np.nextafter(MIN_CUTOFF_SIGMA, 0.0)),
                 id="min_next_down"),
    pytest.param(MIN_CUTOFF_SIGMA * (1.0 - 1e-9), id="min_1e-9_down"),
    pytest.param(1e-170, id="1e-170"),
    pytest.param(float(np.nextafter(MAX_CUTOFF_SIGMA, np.inf)),
                 id="max_next_up"),
    pytest.param(MAX_CUTOFF_SIGMA * (1.0 + 1e-9), id="max_1e-9_up"),
    pytest.param(1e200, id="1e+200")]


class TestKernelWindow:
    """The windowed kernel at and beyond the edge of its support."""

    @pytest.mark.parametrize("cutoff", [0.01, 0.03, 1.5, 3.0, *IN_RANGE,
                                        np.inf])
    def test_edges(self, cutoff):
        # at an infinite cutoff the same code must give the closed form
        # exp(-q/2) at every finite q, and +0.0 at an infinite or NaN q; the
        # kernel computes in q's dtype, float32 as float64
        dset = single_gaussian_set(4, 4, 0.0, 0.0, 0.3, 0.1, 0.2)
        tbl = _GaussianTable(dset, RenderConfig(4, 4, 3, cutoff_sigma=cutoff))
        for dtype, bits in ((np.float64, np.uint64), (np.float32, np.uint32)):
            tau = CUTOFF_WINDOW_TAU
            edge = dtype(tbl.cutoff_q)
            below = np.nextafter(edge, dtype(0.0))
            with np.errstate(over="ignore"):
                q = np.array([0.0, 1.0, below, edge, 2.0 * edge, 1e300,
                              np.inf, np.nan]).astype(dtype)
            with np.errstate(divide="ignore", over="ignore",
                             invalid="ignore"):
                margin = edge - q
                inside = q < edge
                zero = dtype(0.0)
                if np.isinf(edge):
                    want_v = np.where(inside, np.exp(-0.5 * q), zero)
                    want_geo = want_v
                else:
                    want_v = np.where(inside, np.exp(
                        (-0.5 * q + tau / edge) - tau / margin), zero)
                    want_geo = np.where(inside, want_v * (
                        1.0 + 2.0 * tau / (margin * margin)), zero)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                v, v_geo = tbl.kernel(q.copy(), np.empty_like(q),
                                      np.empty(q.shape, dtype=bool),
                                      slope=np.empty_like(q))
                v_only = tbl.kernel(q.copy(), np.empty_like(q),
                                    np.empty(q.shape, dtype=bool))
            # bitwise, so +0.0 outside the window is told apart from -0.0
            for got, want in ((v, want_v), (v_geo, want_geo),
                              (v_only, want_v)):
                assert got.dtype == want.dtype == dtype
                assert np.array_equal(got.view(bits), want.view(bits))
            assert not np.shares_memory(v, v_geo)

    def test_small_cutoff_renders_and_differentiates_quietly(self):
        # below a cutoff of about 0.0375 the exponent outside the window
        # exceeds exp's range; the error::RuntimeWarning:gsdd filter fails
        # this test if either pass warns. The mean sits on the sample of
        # pixel (5, 5), the only sample inside its window, where v is 1.
        dset = single_gaussian_set(16, 16, -0.3125, -0.3125, 0.3, 0.1, 0.2)
        cfg = RenderConfig(16, 16, 3, ssaa_factor=1, cutoff_sigma=0.01)
        want = np.zeros((16, 16, 3))
        want[5, 5] = [1.0, 0.0, 0.0]
        img = np.asarray(render_batched(dset, cfg, out_dtype=np.float64)[0])
        assert np.array_equal(img, want)
        upstream = np.random.default_rng(3).normal(0.0, 1.0, (1, 16, 16, 3))
        grads = render_backward(dset, cfg, upstream).per_gaussian()[0]
        assert np.array_equal(grads[5:8], upstream[0, 5, 5])
        assert np.array_equal(grads[:5], np.zeros(5))

    @pytest.mark.parametrize("cutoff", IN_RANGE)
    def test_range_ends_render_and_differentiate_quietly(self, cutoff):
        # the error::RuntimeWarning:gsdd filter fails this test if any pass
        # warns; test_edges takes the kernel to the narrowest margin. The
        # range is float32's, so renders hold at both output dtypes.
        cfg = RenderConfig(16, 16, 3, ssaa_factor=1, cutoff_sigma=cutoff)
        rng = np.random.default_rng(5)
        for dset in (make_random_set(rng, 16, 16, 3, 2, 6),
                     single_gaussian_set(16, 16, -0.3125, -0.3125, 0.3, 0.1,
                                         0.2)):
            for dtype in (np.float32, np.float64):
                for i in range(dset.num_images):
                    render_reference(dset, i, cfg, out_dtype=dtype)
                images = np.asarray(render_batched(dset, cfg, workers=2,
                                                   out_dtype=dtype))
                assert images.dtype == dtype
                assert np.all(np.isfinite(images))
            upstream = rng.normal(0.0, 1.0, (dset.num_images, 16, 16, 3))
            grads = render_backward(dset, cfg, upstream, workers=2)
            assert np.all(np.isfinite(grads.per_gaussian()))

    @pytest.mark.parametrize("cutoff", OUT_OF_RANGE)
    def test_out_of_range_cutoff_rejected(self, cutoff):
        with pytest.raises(ValueError, match="cutoff_sigma must be inf or"):
            RenderConfig(16, 16, 3, cutoff_sigma=cutoff)


class TestRecords:
    def test_sorted_and_complete_with_infinite_cutoff(self):
        rng = np.random.default_rng(11)
        dset = make_random_set(rng, 32, 32, 3, 2, 5)
        cfg = RenderConfig(32, 32, 3, cutoff_sigma=np.inf, tile_size=16)
        records, layout = build_intersection_records(dset, cfg)
        ids = records.global_tile_ids
        assert np.all(np.diff(ids) >= 0)
        assert len(records) == 2 * layout.tiles_per_image * 5
        # within one tile, gaussian order ascends (matches the oracle's order)
        for t in np.unique(ids):
            sel = records.gaussian_flat_indices[ids == t]
            assert np.all(np.diff(sel) > 0)

    @pytest.mark.parametrize("cutoff", [1.5, 3.0, np.inf])
    def test_records_are_the_tiles_the_window_reaches(self, cutoff):
        """Every tile with a sample of q < cutoff^2, where the window is not
        zero, holds a record (completeness); every record's ellipse q <
        cutoff^2 reaches its tile's sample rectangle, the hull of its ssaa
        samples (tightness); and the candidate box's half-widths are cutoff
        * sqrt(Sigma'_00) and cutoff * sqrt(Sigma'_11)."""
        rng = np.random.default_rng(17)
        for k in range(40):
            width, height = (int(x) for x in rng.integers(1, 140, 2))
            n_images, m = int(rng.integers(0, 4)), int(rng.integers(0, 12))
            ts = int(rng.choice([8, 16, 32]))
            p = np.zeros((n_images * m, 9))
            # some centers off the frame, footprints from sub-pixel to wide
            p[:, 0:2] = rng.uniform(-1.6, 1.6, (n_images * m, 2))
            p[:, 2] = rng.uniform(0.01, 0.5, n_images * m)
            p[:, 3] = rng.uniform(-0.2, 0.2, n_images * m)
            p[:, 4] = rng.uniform(0.01, 0.5, n_images * m)
            p[:, 8] = 1.0
            dset = DistilledSet(width, height, 3, n_images, m, p.reshape(-1),
                                np.zeros(n_images, dtype=np.int64))
            cfg = RenderConfig(width, height, 3, prefilter=bool(k % 2),
                               cutoff_sigma=cutoff, tile_size=ts)
            tbl = _GaussianTable(dset, cfg)
            records, _ = build_intersection_records(dset, cfg)
            assert records.global_tile_ids.dtype == np.int64
            assert records.gaussian_flat_indices.dtype == np.int64
            have = set(zip(records.global_tile_ids.tolist(),
                           records.gaussian_flat_indices.tolist()))
            assert len(have) == len(records)
            tiles_x, tiles_y = -(-width // ts), -(-height // ts)
            # q at every sample, as the tiles form it from the table
            f = cfg.ssaa_factor
            steps = (2 * np.arange(f) + 1) / (2 * f) - 0.5
            xs = (np.arange(width)[:, None] + steps).reshape(-1)
            ys = (np.arange(height)[:, None] + steps).reshape(-1)
            for image in range(n_images):
                g = np.arange(image * m, (image + 1) * m)
                dx = xs[:, None] - tbl.mu_x[g]
                z1 = dx * tbl.inv_p[g]
                z2 = ((ys[:, None] - tbl.mu_y[g])[:, None] * tbl.inv_s[g]
                      - tbl.shear[g] * dx)
                sy, sx, j = np.nonzero(z2 * z2 + z1 * z1 < cutoff ** 2)
                tile = ((image * tiles_y + sy // f // ts) * tiles_x
                        + sx // f // ts)
                assert set(zip(tile.tolist(), g[j].tolist())) <= have
            # the pixel covariance S L L^T S + beta I, formed directly
            a, b, c = cholesky_factor(p)
            beta = 1.0 / 12.0 if cfg.prefilter else 0.0
            var_x = (width / 2.0 * a) ** 2 + beta
            var_y = (height / 2.0) ** 2 * (b * b + c * c) + beta
            assert np.allclose(tbl.radius_x, cutoff * np.sqrt(var_x),
                               rtol=1e-13, atol=0.0)
            assert np.allclose(tbl.radius_y, cutoff * np.sqrt(var_y),
                               rtol=1e-13, atol=0.0)
            if len(records) == 0 or not np.isfinite(cutoff):
                continue
            # tightness: the least q of each record over its tile's sample
            # rectangle, from the inverse covariance, taken over a dense grid
            # of the rectangle, the mean clamped into it and each edge's
            # minimiser (the last two alone give the exact minimum)
            cov_xy = width * height / 4.0 * a * b
            det = var_x * var_y - cov_xy * cov_xy
            i00, i01, i11 = var_y / det, -cov_xy / det, var_x / det
            g = records.gaussian_flat_indices
            mx = (p[g, 0] + 1.0) * width / 2.0 - 0.5
            my = (p[g, 1] + 1.0) * height / 2.0 - 0.5
            ty, tx = np.divmod(records.global_tile_ids % (tiles_x * tiles_y),
                               tiles_x)
            x0 = tx * ts + steps[0]
            x1 = np.minimum(tx * ts + ts, width) - 1 + steps[-1]
            y0 = ty * ts + steps[0]
            y1 = np.minimum(ty * ts + ts, height) - 1 + steps[-1]
            grid = np.linspace(0.0, 1.0, 9)
            px = [x0 + (x1 - x0) * t for t in grid for _ in grid]
            py = [y0 + (y1 - y0) * t for _ in grid for t in grid]
            px.append(np.clip(mx, x0, x1))
            py.append(np.clip(my, y0, y1))
            for x in (x0, x1):
                px.append(x)
                py.append(np.clip(my - i01[g] / i11[g] * (x - mx), y0, y1))
            for y in (y0, y1):
                px.append(np.clip(mx - i01[g] / i00[g] * (y - my), x0, x1))
                py.append(y)
            dx, dy = np.array(px) - mx, np.array(py) - my
            q = i00[g] * dx * dx + 2.0 * i01[g] * dx * dy + i11[g] * dy * dy
            assert np.all(q.min(axis=0) < cutoff ** 2 * (1.0 + 1e-7))


class TestRenderProperties:
    def test_linearity_in_alpha_and_color(self):
        rng = np.random.default_rng(13)
        dset = make_random_set(rng, 16, 16, 3, 1, 6)
        cfg = RenderConfig(16, 16, 3, cutoff_sigma=np.inf)
        base = render_batched(dset, cfg, out_dtype=np.float64)[0]
        doubled = dset.copy()
        doubled.field_view(8)[:] *= 2.0
        out = render_batched(doubled, cfg, out_dtype=np.float64)[0]
        assert np.array_equal(out.pixels, 2.0 * base.pixels)

        recolored = dset.copy()
        for f in (5, 6, 7):
            recolored.field_view(f)[:] *= 2.0
        out = render_batched(recolored, cfg, out_dtype=np.float64)[0]
        assert np.array_equal(out.pixels, 2.0 * base.pixels)

    def test_superposition(self):
        rng = np.random.default_rng(17)
        a = make_random_set(rng, 16, 16, 3, 1, 4)
        b = make_random_set(rng, 16, 16, 3, 1, 3)
        union = DistilledSet(16, 16, 3, 1, 7,
                             np.concatenate([a.params, b.params]),
                             np.zeros(1, dtype=np.int64))
        cfg = RenderConfig(16, 16, 3, cutoff_sigma=np.inf)
        out_union = render_batched(union, cfg, out_dtype=np.float64)[0].pixels
        out_sum = (render_batched(a, cfg, out_dtype=np.float64)[0].pixels
                   + render_batched(b, cfg, out_dtype=np.float64)[0].pixels)
        denom = np.maximum(np.abs(out_sum), 1e-9)
        assert np.max(np.abs(out_union - out_sum) / denom) < 1e-12

    def test_integer_pixel_translation_is_bitwise(self):
        # dyadic parameters keep every coordinate operation exact
        rng = np.random.default_rng(19)
        w = h = 32
        n, m = 1, 6
        p = np.zeros((m, 9))
        p[:, 0] = rng.integers(-200, 150, m) / 256.0
        p[:, 1] = rng.integers(-200, 200, m) / 256.0
        p[:, 2] = rng.integers(16, 64, m) / 256.0
        p[:, 3] = rng.integers(-16, 16, m) / 256.0
        p[:, 4] = rng.integers(16, 64, m) / 256.0
        p[:, 5:8] = rng.integers(-64, 64, (m, 3)) / 64.0
        p[:, 8] = rng.integers(16, 48, m) / 32.0
        dset = DistilledSet(w, h, 3, n, m, p.reshape(-1).copy(),
                            np.zeros(1, dtype=np.int64))
        shifted = dset.copy()
        shifted.field_view(0)[:] += 2.0 / w
        cfg = RenderConfig(w, h, 3, prefilter=True, ssaa_factor=2,
                           cutoff_sigma=np.inf)
        base = np.asarray(render_batched(dset, cfg)[0])
        moved = np.asarray(render_batched(shifted, cfg)[0])
        assert np.array_equal(moved[:, 1:, :], base[:, :-1, :])

    def test_ssaa_invariant_on_smooth_image(self):
        # one huge Gaussian renders essentially constant; subsampling is a no-op
        dset = single_gaussian_set(16, 16, 0.0, 0.0, 50.0, 0.0, 50.0,
                                   color=(0.4, 0.5, 0.6), alpha=1.0)
        a = render_batched(dset, RenderConfig(16, 16, 3, ssaa_factor=1,
                                              cutoff_sigma=np.inf),
                           out_dtype=np.float64)[0].pixels
        b = render_batched(dset, RenderConfig(16, 16, 3, ssaa_factor=2,
                                              cutoff_sigma=np.inf),
                           out_dtype=np.float64)[0].pixels
        assert np.max(np.abs(a - b) / np.abs(a)) < 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RenderConfig(8, 8, 3, tile_size=7)
        with pytest.raises(ValueError):
            RenderConfig(8, 8, 3, ssaa_factor=0)
        with pytest.raises(ValueError):
            RenderConfig(8, 8, 3, cutoff_sigma=0.0)


@pytest.mark.parametrize("build, message", [
    (lambda: ImageBuffer(2, 2, 3, np.zeros(11)),
     r"pixel buffer length != width\*height\*channels"),
    (lambda: render_reference(DistilledSet.zeros(8, 8, 3, 2, 1), -1,
                              RenderConfig(8, 8, 3)),
     "image index out of range"),
    (lambda: render_reference(DistilledSet.zeros(8, 8, 3, 2, 1), 2,
                              RenderConfig(8, 8, 3)),
     "image index out of range"),
])
def test_invalid_input_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("call", [
    lambda dset, cfg: render_reference(dset, 0, cfg),
    lambda dset, cfg: render_batched(dset, cfg),
    lambda dset, cfg: render_backward(dset, cfg, np.zeros((1, 8, 16, 3))),
    lambda dset, cfg: build_intersection_records(dset, cfg),
], ids=["reference", "batched", "backward", "records"])
def test_geometry_mismatch_on_every_path(call):
    # every path builds the Gaussian table, whose constructor checks first
    with pytest.raises(ValueError) as err:
        call(DistilledSet.zeros(8, 8, 3, 1, 1), RenderConfig(16, 8, 3))
    assert str(err.value) == "geometry mismatch: set is 8x8x3, config is 16x8x3"
