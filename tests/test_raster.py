import warnings

import numpy as np
import pytest

from gsdd.core import DistilledSet, RenderConfig, cholesky_cov
from gsdd.gradients import render_backward
from gsdd.raster import (
    ImageBuffer,
    _GaussianTable,
    build_intersection_records,
    prefilter_cov,
    render_batched,
    render_reference,
    ssaa_offsets,
)

from conftest import make_random_set


def single_gaussian_set(width, height, u, v, l11, l21, l22,
                        color=(1.0, 0.0, 0.0), alpha=1.0):
    params = np.array([u, v, l11, l21, l22, *color, alpha])
    return DistilledSet(width, height, 3, 1, 1, params,
                        np.zeros(1, dtype=np.int64))


def one_cov(l11, l21, l22):
    """(sigma, det, inv) of one Gaussian: sigma from ``cholesky_cov``, the
    inverse from the render table at a 2x2 frame (unit pixel scale, no
    prefilter)."""
    params = np.array([0.0, 0.0, l11, l21, l22, 1.0, 1.0, 1.0, 1.0])
    _, (s00, s01, s11) = cholesky_cov(params)
    sigma = np.array([[s00[0], s01[0]], [s01[0], s11[0]]])
    dset = DistilledSet(2, 2, 3, 1, 1, params, np.zeros(1, dtype=np.int64))
    tbl = _GaussianTable(dset, RenderConfig(2, 2, 3, prefilter=False))
    inv = np.array([[tbl.inv00[0], tbl.inv01[0]], [tbl.inv01[0], tbl.inv11[0]]])
    return sigma, float(s00[0] * s11[0] - s01[0] * s01[0]), inv


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
    def test_identity_cov(self):
        out = prefilter_cov(np.eye(2))
        assert np.array_equal(out, np.diag([13 / 12, 13 / 12]))

    def test_off_diagonal_unchanged(self):
        out = prefilter_cov(np.array([[4.0, 2.0], [2.0, 2.0]]))
        assert np.array_equal(out, [[4 + 1 / 12, 2], [2, 2 + 1 / 12]])

    def test_minimum_variance(self):
        out = prefilter_cov(np.zeros((2, 2)))
        assert np.array_equal(out, np.diag([1 / 12, 1 / 12]))


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


class TestRenderReference:
    def test_empty_set_is_zero(self):
        dset = DistilledSet.zeros(16, 16, 3, 1, 0)
        img = render_reference(dset, 0, plain_cfg(16, 16))
        assert np.array_equal(img.pixels, np.zeros(16 * 16 * 3, np.float32))

    def test_value_at_mean(self):
        u, v = 2 * (9 + 0.5) / 32 - 1, 2 * (4 + 0.5) / 16 - 1
        dset = single_gaussian_set(32, 16, u, v, 0.3, 0.1, 0.2)
        img = render_reference(dset, 0, plain_cfg(32, 16)).as_array()
        assert img[4, 9, 0] == 1.0
        assert img[4, 9, 1] == 0.0 and img[4, 9, 2] == 0.0

    def test_one_sigma_falloff(self):
        # isotropic sigma of 4 pixels on a 32-wide image
        u = v = 2 * (15 + 0.5) / 32 - 1
        dset = single_gaussian_set(32, 32, u, v, 4 / 16, 0.0, 4 / 16)
        img = render_reference(dset, 0, plain_cfg(32, 32)).as_array()
        assert img[15, 19, 0] == pytest.approx(np.exp(-0.5), rel=1e-6)

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
}

RENDER_PATHS = {
    "reference": lambda d, cfg: render_reference(d, 0, cfg),
    "batched_cutoff3": lambda d, cfg: render_batched(d, cfg),
    "batched_cutoff_inf": lambda d, cfg: render_batched(
        d, RenderConfig(16, 16, 3, cutoff_sigma=np.inf)),
    "backward": lambda d, cfg: render_backward(
        d, cfg, [ImageBuffer.zeros(16, 16, 3)] * 2),
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

    def test_large_finite_values_still_render(self):
        dset = bad_gaussian_set(2, 1e100)
        img = render_batched(dset, RenderConfig(16, 16, 3))[1].pixels
        assert np.all(np.isfinite(img))


class TestKernelWindow:
    """The windowed kernel at and beyond the edge of its support."""

    @pytest.mark.parametrize("cutoff", [1.5, 3.0])
    def test_edges(self, cutoff):
        dset = single_gaussian_set(4, 4, 0.0, 0.0, 0.3, 0.1, 0.2)
        tbl = _GaussianTable(dset, RenderConfig(4, 4, 3, cutoff_sigma=cutoff))
        edge = tbl.cutoff_q
        below = np.nextafter(edge, 0.0)
        q = np.array([0.0, 1.0, below, edge, 2.0 * edge, 1e300, np.inf])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            margin = edge - q
            inside = q < edge
            want_v = np.where(inside, np.exp(-0.5 * q) * np.exp(
                -tbl.window_tau / margin) * tbl.window_gain, 0.0)
            want_geo = np.where(inside, want_v * (
                1.0 + 2.0 * tbl.window_tau / (margin * margin)), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, v_geo = tbl.kernel(q.copy(), np.empty_like(q),
                                  np.empty(q.shape, dtype=bool),
                                  slope=np.empty_like(q))
            v_only = tbl.kernel(q.copy(), np.empty_like(q),
                                np.empty(q.shape, dtype=bool))
        # bitwise, so +0.0 outside the window is told apart from -0.0
        for got, want in ((v, want_v), (v_geo, want_geo), (v_only, want_v)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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
        base = render_batched(dset, cfg)[0].as_array()
        moved = render_batched(shifted, cfg)[0].as_array()
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
