import struct
from dataclasses import replace

import numpy as np
import pytest

from gsdd.core import (
    CHOLESKY_FLOOR,
    CUTOFF_WINDOW_TAU,
    F_ALPHA,
    F_L11,
    F_L21,
    F_L22,
    F_R,
    F_U,
    F_V,
    PARAMS_PER_GAUSSIAN,
    DistilledSet,
    RenderConfig,
)
from gsdd.data_io import bf16_round, load_gsd, save_gsd
from gsdd.gradients import gradcheck, gradcheck_suite, render_backward
from gsdd.optimize import mse_loss_grad
from gsdd import optimize, raster
from gsdd.raster import ImageBuffer, render_batched

from conftest import double_backward, make_random_set, thin_rotated_factors


def mse_loss_against(targets):
    """loss_fn factory: mean squared error against a fixed (N, H, W, C)
    target batch, summed image by image."""
    targets = np.asarray(targets, dtype=np.float64)

    def loss_fn(images):
        diff = images - targets
        total = sum(float(np.sum(d * d)) / targets.size for d in diff)
        return total, 2.0 * diff / targets.size
    return loss_fn


def ones_upstream(cfg, n):
    return [ImageBuffer.from_array(np.ones((cfg.height, cfg.width,
                                            cfg.channels)))
            for _ in range(n)]


class TestClosedFormBackward:
    def test_single_pixel_at_mean(self):
        # 1x1 image, Gaussian at its center: kernel value is exactly 1
        u = v = 2 * (0 + 0.5) / 1 - 1
        r, g, b, alpha = 0.7, -0.3, 0.2, 1.3
        params = np.array([u, v, 0.5, 0.0, 0.5, r, g, b, alpha])
        dset = DistilledSet(1, 1, 3, 1, 1, params, np.zeros(1, dtype=np.int64))
        cfg = RenderConfig(1, 1, 3, prefilter=False, ssaa_factor=1,
                           cutoff_sigma=np.inf, tile_size=8)
        grads = render_backward(dset, cfg, ones_upstream(cfg, 1)).per_gaussian()
        assert grads[0, 8] == pytest.approx(r + g + b, abs=1e-15)
        assert np.allclose(grads[0, 5:8], [alpha, alpha, alpha], atol=1e-15)

    def test_centered_gaussian_position_grads_cancel(self):
        # symmetric grid + uniform upstream: odd integrand sums to ~0
        dset = DistilledSet(8, 8, 3, 1, 1,
                            np.array([0.0, 0.0, 0.4, 0.0, 0.4,
                                      1.0, 1.0, 1.0, 1.0]),
                            np.zeros(1, dtype=np.int64))
        cfg = RenderConfig(8, 8, 3, prefilter=True, ssaa_factor=2,
                           cutoff_sigma=np.inf, tile_size=8)
        grads = render_backward(dset, cfg, ones_upstream(cfg, 1)).per_gaussian()
        assert abs(grads[0, 0]) < 1e-13
        assert abs(grads[0, 1]) < 1e-13


class TestGradcheck:
    def test_randomized_suite(self):
        assert gradcheck_suite(10, seed=123) <= 1e-3

    def test_doubled_gradient_control(self, monkeypatch):
        double_backward(monkeypatch)
        err = gradcheck_suite(4, seed=7)
        assert err == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("cutoff", [3.0, np.inf])
    @pytest.mark.parametrize("ssaa", [1, 2])
    def test_thin_rotated_prefiltered(self, ssaa, cutoff):
        # 100:1 axis ratios; the short axis is 0.003, so the default step of
        # 1e-4 moves l22 by 3% and its truncation error reaches 2.6e-3
        rng = np.random.default_rng([61, ssaa])
        dset = thin_rotated_set(rng, "ratio100")
        cfg = RenderConfig(16, 16, 3, prefilter=True, ssaa_factor=ssaa,
                           cutoff_sigma=cutoff, tile_size=8)
        targets = rng.normal(0.0, 0.5, (2, 16, 16, 3))
        assert gradcheck(dset, cfg, mse_loss_against(targets),
                         step=1e-5) <= 1e-3

    def test_empty_set_vacuous(self):
        dset = DistilledSet.zeros(8, 8, 3, 1, 0)
        cfg = RenderConfig(8, 8, 3)
        loss_fn = mse_loss_against([np.zeros((8, 8, 3))])
        assert gradcheck(dset, cfg, loss_fn) == 0.0


class TestBackwardProperties:
    def setup_method(self):
        rng = np.random.default_rng(31)
        self.dset = make_random_set(rng, 16, 12, 3, 2, 6)
        self.cfg = RenderConfig(16, 12, 3, cutoff_sigma=3.0, tile_size=8)
        self.up = [ImageBuffer.from_array(rng.normal(0, 1, (12, 16, 3)))
                   for _ in range(2)]

    def test_zero_upstream_zero_grads(self):
        zeros = [ImageBuffer.from_array(np.zeros((12, 16, 3)))
                 for _ in range(2)]
        out = render_backward(self.dset, self.cfg, zeros)
        assert np.array_equal(out.grads, np.zeros_like(out.grads))

    def test_linearity_in_upstream(self):
        g1 = render_backward(self.dset, self.cfg, self.up).grads
        doubled = [ImageBuffer(b.width, b.height, b.channels, 2.0 * b.pixels)
                   for b in self.up]
        g2 = render_backward(self.dset, self.cfg, doubled).grads
        assert np.array_equal(g2, 2.0 * g1)

    @pytest.mark.parametrize("cutoff", [3.0, np.inf])
    def test_worker_counts_bitwise(self, cutoff):
        cfg = RenderConfig(16, 12, 3, cutoff_sigma=cutoff, tile_size=8)
        base = render_backward(self.dset, cfg, self.up, workers=1).grads
        for workers in (2, 8):
            other = render_backward(self.dset, cfg, self.up,
                                    workers=workers).grads
            assert np.array_equal(base, other)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_buffer_list_equals_stacked_array(self, dtype):
        arrays = [np.asarray(b).astype(dtype) for b in self.up]
        as_list = render_backward(
            self.dset, self.cfg,
            [ImageBuffer.from_array(a) for a in arrays]).grads
        as_array = render_backward(self.dset, self.cfg, np.stack(arrays)).grads
        assert np.array_equal(as_list, as_array)

    @pytest.mark.parametrize("shape", [
        (1, 12, 16, 3), (3, 12, 16, 3), (2, 16, 12, 3), (2, 12, 16, 1),
        (12, 16, 3)])
    def test_wrong_upstream_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"upstream has shape .* "
                                             r"expected \(2, 12, 16, 3\)"):
            render_backward(self.dset, self.cfg, np.zeros(shape))

    def test_float32_upstream_matches_float64(self):
        up32 = [ImageBuffer.from_array(np.asarray(b).astype(np.float32))
                for b in self.up]
        up64 = [ImageBuffer.from_array(np.asarray(b).astype(np.float64))
                for b in up32]
        assert np.array_equal(render_backward(self.dset, self.cfg, up32).grads,
                              render_backward(self.dset, self.cfg, up64).grads)

    def test_tile_size_invariance(self):
        # Gaussians 2-12 px wide on a 40x24 frame straddle 8- and 16-px tiles;
        # the tile size only regroups the per-sample sums
        rng = np.random.default_rng(37)
        dset = make_random_set(rng, 40, 24, 3, 2, 7)
        up = [ImageBuffer.from_array(rng.normal(0, 1, (24, 40, 3)))
              for _ in range(2)]
        grads = [render_backward(dset, RenderConfig(
                     40, 24, 3, prefilter=True, ssaa_factor=2,
                     cutoff_sigma=3.0, tile_size=ts), up).per_gaussian()
                 for ts in (8, 16, 32)]
        scale = np.max(np.abs(grads[0]), axis=0)
        assert np.all(scale > 0)
        for other in grads[1:]:
            assert np.max(np.abs(other - grads[0]) / scale) <= 1e-12

    def test_escaped_gaussian_gets_exactly_zero_gradient(self):
        params = self.dset.params.copy()
        params[0:9] = [1.8, -1.7, 0.02, 0.0, 0.02, 1.0, 1.0, 1.0, 1.0]
        dset = DistilledSet(16, 12, 3, 2, 6, params, self.dset.labels.copy())
        grads = render_backward(dset, self.cfg, self.up).per_gaussian()
        assert np.array_equal(grads[0], np.zeros(9))

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            render_backward(self.dset, self.cfg, self.up[:1])
        bad = [ImageBuffer.from_array(np.zeros((12, 8, 3)))] * 2
        with pytest.raises(ValueError):
            render_backward(self.dset, self.cfg, bad)


class TestFitPass:
    """``render_batched(..., targets=)``, a fit step's one tile pass, gives
    the bits of the separate passes it fuses: render, ``mse_loss_grad`` and
    ``render_backward``."""

    @pytest.mark.parametrize("ssaa", [1, 2])
    @pytest.mark.parametrize("cutoff", [3.0, np.inf])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("prefilter", [True, False])
    def test_bitwise_equal_to_separate_passes(self, ssaa, cutoff, channels,
                                              prefilter):
        # 21 x 13 at tile 8: the last tile column and row are partial
        rng = np.random.default_rng([27, ssaa, channels, prefilter])
        dset = make_random_set(rng, 21, 13, channels, 2, 7)
        cfg = RenderConfig(21, 13, channels, prefilter=prefilter,
                           ssaa_factor=ssaa, cutoff_sigma=cutoff, tile_size=8)
        targets = rng.uniform(0.0, 1.0, (2, 13, 21, channels))
        # the set as trained and its bf16-rounded forward copy
        for fwd in (dset, replace(dset, params=bf16_round(dset.params))):
            images = np.asarray(render_batched(fwd, cfg,
                                               out_dtype=np.float64))
            loss, upstream = mse_loss_grad(images, targets)
            grads = render_backward(fwd, cfg, upstream).grads
            assert np.any(grads != 0.0)
            for workers in (1, 2):
                fused, fused_grads = render_batched(
                    fwd, cfg, workers=workers, out_dtype=np.float64,
                    targets=targets)
                assert np.array_equal(fused, images)
                assert mse_loss_grad(fused, targets)[0] == loss
                assert np.array_equal(fused_grads, grads)

    def test_float32_images(self):
        # the gradient is the MSE's of the float32 images; a pass that
        # reduces a gradient computes its tiles in float64, so they are the
        # float64 render rounded once to float32
        rng = np.random.default_rng(28)
        dset = make_random_set(rng, 16, 16, 3, 2, 6)
        cfg = RenderConfig(16, 16, 3, tile_size=8)
        targets = rng.uniform(0.0, 1.0, (2, 16, 16, 3))
        images = np.asarray(render_batched(dset, cfg, out_dtype=np.float64)
                            ).astype(np.float32)
        _, upstream = mse_loss_grad(images, targets)
        fused, grads = render_batched(dset, cfg, targets=targets)
        assert fused.dtype == np.float32
        assert np.array_equal(fused, images)
        assert np.array_equal(grads,
                              render_backward(dset, cfg, upstream).grads)

    @pytest.mark.parametrize("shape", [(1, 16, 16, 3), (2, 16, 16, 1)])
    def test_wrong_target_shape_rejected(self, shape):
        dset = make_random_set(np.random.default_rng(2), 16, 16, 3, 2, 4)
        with pytest.raises(ValueError, match="targets have shape"):
            render_batched(dset, RenderConfig(16, 16, 3),
                           targets=np.zeros(shape))

    def test_huge_opacity_overflows_quietly(self):
        # alpha = 1e306 with unit colour: the table accepts it, as alpha
        # times colour is finite, but the pullback's alpha * mxx * sx^2
        # overflows; the repo's error::RuntimeWarning:gsdd filter turns an
        # escaping warning into a failure
        p = np.array([[-0.3, 0.2, 0.3, 0.05, 0.25, 1.0, 1.0, 1.0, 1e306],
                      [0.25, -0.1, 0.2, -0.1, 0.3, 1.0, 1.0, 1.0, 1e306]])
        dset = DistilledSet(16, 16, 3, 1, 2, p.reshape(-1),
                            np.zeros(1, dtype=np.int64))
        cfg = RenderConfig(16, 16, 3)
        grads = render_backward(dset, cfg, np.ones((1, 16, 16, 3))).grads
        assert not np.isfinite(grads).all()
        images, grads = render_batched(dset, cfg, out_dtype=np.float64,
                                       targets=np.zeros((1, 16, 16, 3)))
        assert np.isfinite(images).all()
        assert not np.isfinite(grads).all()


class TestBothPassesShareTheKernel:
    """The backward, and the fit pass's, differentiate the kernel values the
    forward shaded."""

    @staticmethod
    def kernel_values(monkeypatch, channels, ssaa, cutoff, second):
        """The v of every kernel call of a forward and then of
        ``second(dset, cfg, upstream)``, the two lists in call order."""
        rng = np.random.default_rng([41, channels, ssaa])
        dset = make_random_set(rng, 20, 12, channels, 2, 6)
        cfg = RenderConfig(20, 12, channels, ssaa_factor=ssaa,
                           cutoff_sigma=cutoff, tile_size=8)
        recorded = []
        kernel = raster._GaussianTable.kernel

        def recording(tbl, *args, **kwargs):
            out = kernel(tbl, *args, **kwargs)
            v = out if kwargs.get("slope") is None else out[0]
            recorded.append(v.copy())
            return out

        monkeypatch.setattr(raster._GaussianTable, "kernel", recording)
        # training's forward renders float64, as _descend does (see
        # test_training_renders_float64): a float32 render's tiles compute
        # in float32
        render_batched(dset, cfg, out_dtype=np.float64)
        forward = list(recorded)
        recorded.clear()
        second(dset, cfg, rng.normal(0.0, 1.0, (2, 12, 20, channels)))
        return forward, recorded

    @staticmethod
    def assert_same_calls(forward, other):
        # one kernel call per tile on each pass, in the same tile order
        assert len(forward) == len(other) > 0
        for fwd, bwd in zip(forward, other):
            assert fwd.shape == bwd.shape
            assert np.array_equal(fwd.view(np.uint64), bwd.view(np.uint64))

    @pytest.mark.parametrize("cutoff", [1.5, 3.0, np.inf])
    @pytest.mark.parametrize("channels, ssaa", [(3, 1), (1, 2), (3, 3)])
    def test_backward_v_is_forward_v_bitwise(self, monkeypatch, cutoff,
                                             channels, ssaa):
        self.assert_same_calls(*self.kernel_values(
            monkeypatch, channels, ssaa, cutoff, render_backward))

    @pytest.mark.parametrize("cutoff", [1.5, 3.0, np.inf])
    @pytest.mark.parametrize("channels, ssaa", [(3, 1), (1, 2), (3, 3)])
    def test_fit_pass_v_is_forward_v_bitwise(self, monkeypatch, cutoff,
                                             channels, ssaa):
        def fit_pass(dset, cfg, targets):
            return render_batched(dset, cfg, targets=targets)

        self.assert_same_calls(*self.kernel_values(
            monkeypatch, channels, ssaa, cutoff, fit_pass))

    @pytest.mark.parametrize("per_image", [True, False])
    def test_training_renders_float64(self, monkeypatch, per_image):
        # both branches of the training step render float64 images, so their
        # tiles, forward and backward, compute in float64
        rng = np.random.default_rng(43)
        dset = make_random_set(rng, 12, 12, 3, 2, 4)
        cfg = RenderConfig(12, 12, 3, tile_size=8)
        targets = rng.normal(0.0, 1.0, (2, 12, 12, 3))
        out_dtypes, tile_dtypes = [], []
        render, kernel = optimize.render_batched, raster._GaussianTable.kernel

        def recording_render(*args, **kwargs):
            out_dtypes.append(np.dtype(kwargs["out_dtype"]))
            return render(*args, **kwargs)

        def recording_kernel(tbl, q, v, *args, **kwargs):
            tile_dtypes.append(v.dtype)
            return kernel(tbl, q, v, *args, **kwargs)

        monkeypatch.setattr(optimize, "render_batched", recording_render)
        monkeypatch.setattr(raster._GaussianTable, "kernel", recording_kernel)
        loss = ({"targets": targets} if per_image
                else {"loss_fn": mse_loss_against(targets)})
        optimize._descend(dset, optimize.TrainConfig(steps=2), cfg, 1, **loss)
        assert out_dtypes == [np.float64] * 2
        assert len(tile_dtypes) > 0
        assert set(tile_dtypes) == {np.dtype(np.float64)}


def extended_precision_reference(dset, cfg, upstream):
    """Pixels (N, H, W, C) and gradient (N * M, 9) of the windowed Gaussian
    sum, every sample against every Gaussian of its image, computed in
    ``np.longdouble`` from the float64 parameters: the floored Cholesky
    factor, the covariance, its determinant (expanded, free of
    cancellation), the whitened offsets, q and the window."""
    ld = np.longdouble
    p = dset.params.reshape(-1, PARAMS_PER_GAUSSIAN).astype(ld)
    sx, sy = ld(cfg.width) / 2, ld(cfg.height) / 2
    floor = ld(CHOLESKY_FLOOR)
    a = np.maximum(np.abs(p[:, F_L11]), floor)
    b = p[:, F_L21]
    c = np.maximum(np.abs(p[:, F_L22]), floor)
    box = ld(1) / 12 if cfg.prefilter else ld(0)
    c00, c01 = a * a * sx * sx, a * b * sx * sy
    c11 = (b * b + c * c) * sy * sy
    det = (a * c * sx * sy) ** 2 + box * (c00 + c11 + box)
    l_p = np.sqrt(c00 + box)
    l_r = c01 / l_p
    l_s = np.sqrt(det) / l_p
    mu_x = (p[:, F_U] + 1) * sx - ld(0.5)
    mu_y = (p[:, F_V] + 1) * sy - ld(0.5)
    f = cfg.ssaa_factor
    steps = (2 * np.arange(f, dtype=ld) + 1) / (2 * f) - ld(0.5)
    xs = (np.arange(cfg.width, dtype=ld)[:, None] + steps).reshape(-1)
    ys = (np.arange(cfg.height, dtype=ld)[:, None] + steps).reshape(-1)
    m, ch = dset.gaussians_per_image, cfg.channels
    pixels = np.zeros((dset.num_images, cfg.height, cfg.width, ch), dtype=ld)
    g = np.zeros((dset.num_images * m, PARAMS_PER_GAUSSIAN), dtype=ld)
    for i in range(dset.num_images):
        k = slice(i * m, (i + 1) * m)
        dx = xs[None, :, None] - mu_x[k]
        dy = ys[:, None, None] - mu_y[k]
        z1 = dx / l_p[k]
        z2 = (dy - l_r[k] / l_p[k] * dx) / l_s[k]
        q = z1 * z1 + z2 * z2
        if np.isinf(cfg.cutoff_sigma):
            v = np.exp(-q / 2)
            v_geo = v
        else:
            c2, tau = ld(cfg.cutoff_sigma) ** 2, ld(CUTOFF_WINDOW_TAU)
            inside = q < c2
            margin = np.where(inside, c2 - q, ld(1))
            v = np.where(inside, np.exp(-q / 2 + tau / c2 - tau / margin), 0)
            v_geo = v * (1 + 2 * tau / (margin * margin))
        alpha, color = p[k, F_ALPHA], p[k, F_R:F_R + ch]
        vals = np.einsum("yxm,mc->yxc", v, alpha[:, None] * color)
        pixels[i] = vals.reshape(cfg.height, f, cfg.width, f, ch).mean(
            axis=(1, 3))
        up = np.repeat(np.repeat(np.asarray(upstream[i], dtype=ld), f, 0),
                       f, 1) / (f * f)
        w = v_geo * (up @ color.T)
        # A d = L'^-T z
        adx = (z1 - l_r[k] / l_s[k] * z2) / l_p[k]
        ady = z2 / l_s[k]
        g[k, F_U] = alpha * (w * adx).sum(axis=(0, 1)) * sx
        g[k, F_V] = alpha * (w * ady).sum(axis=(0, 1)) * sy
        g00 = alpha / 2 * (w * adx * adx).sum(axis=(0, 1)) * sx * sx
        g01 = alpha / 2 * (w * adx * ady).sum(axis=(0, 1)) * sx * sy
        g11 = alpha / 2 * (w * ady * ady).sum(axis=(0, 1)) * sy * sy

        def passes(raw):
            return np.where(np.abs(raw) > floor, np.sign(raw), 0)

        g[k, F_L11] = 2 * (g00 * a[k] + g01 * b[k]) * passes(p[k, F_L11])
        g[k, F_L21] = 2 * (g01 * a[k] + g11 * b[k])
        g[k, F_L22] = 2 * g11 * c[k] * passes(p[k, F_L22])
        col = np.einsum("yxm,yxc->mc", v, up)
        g[k, F_R:F_R + ch] = alpha[:, None] * col
        g[k, F_ALPHA] = (color * col).sum(axis=1)
    return pixels, g


def thin_rotated_set(rng, kind: str, width: int = 16, m: int = 6):
    """Two 3-channel images of thin rotated Gaussians.

    ``"floor"``: l22 at +-``CHOLESKY_FLOOR`` and long axes of slope 1, -1,
    2 or 1/2 in pixel space. Each mean sits off an ssaa-2 sample by 0.3 to
    2.5 short-axis deviations across its line, which meets further samples
    at that distance, so they see the Gaussian's steep flank.
    ``"ratio100"``: a 100:1 axis ratio at random angles and means.
    """
    n = 2 * m
    p = np.zeros((n, PARAMS_PER_GAUSSIAN))
    p[:, F_R:F_R + 3] = rng.uniform(-1.0, 1.0, (n, 3))
    p[:, F_ALPHA] = rng.uniform(0.3, 1.5, n) * rng.choice([-1.0, 1.0], n)
    if kind == "floor":
        a = rng.uniform(0.1, 0.4, n)
        slope = rng.choice([1.0, -1.0, 2.0, 0.5], n)
        p[:, F_L11] = a * rng.choice([-1.0, 1.0], n)
        p[:, F_L21] = a * slope
        p[:, F_L22] = CHOLESKY_FLOOR * rng.choice([-1.0, 1.0], n)
        # pixel-space short-axis deviation, and the unit normal of the line
        short = width / 2 * CHOLESKY_FLOOR / np.hypot(1.0, slope)
        normal = np.stack([-slope, np.ones(n)]) / np.hypot(1.0, slope)
        across = short * rng.uniform(0.3, 2.5, n) * rng.choice([-1.0, 1.0], n)
        sample = rng.integers(4, 2 * width - 4, (2, n)) / 2 - 0.25
        p[:, F_U:F_V + 1] = ((sample + across * normal + 0.5) * 2 / width
                             - 1.0).T
    else:
        p[:, F_U:F_V + 1] = rng.uniform(-0.7, 0.7, (n, 2))
        p[:, F_L11:F_L22 + 1] = thin_rotated_factors(rng, n, ratio=100.0)
    return DistilledSet(width, width, 3, 2, m, p.reshape(-1),
                        np.zeros(2, dtype=np.int64))


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(np.float64).eps,
                    reason="np.longdouble is float64 on this platform, so "
                           "there is no wider reference")
class TestExtendedPrecision:
    """Forward pixels and gradients of thin rotated Gaussians against
    :func:`extended_precision_reference`. Each field that is not all zero
    must lie within 1e-9 of its largest entry."""

    @pytest.mark.parametrize("cutoff", [3.0, np.inf])
    @pytest.mark.parametrize("kind, prefilter", [
        ("floor", False), ("floor", True), ("ratio100", False),
        ("ratio100", True)])
    def test_thin_rotated_against_longdouble(self, kind, prefilter, cutoff):
        rng = np.random.default_rng([59, prefilter])
        dset = thin_rotated_set(rng, kind)
        cfg = RenderConfig(16, 16, 3, prefilter=prefilter, ssaa_factor=2,
                           cutoff_sigma=cutoff, tile_size=8)
        upstream = rng.normal(0.0, 1.0, (2, 16, 16, 3))
        pixels, grads = extended_precision_reference(dset, cfg, upstream)
        got_pixels = np.asarray(render_batched(dset, cfg,
                                               out_dtype=np.float64))
        got = render_backward(dset, cfg, upstream).per_gaussian()
        fields = [(got_pixels.reshape(-1), pixels.reshape(-1))] + [
            (got[:, j], grads[:, j]) for j in range(PARAMS_PER_GAUSSIAN)]
        checked = 0
        for have, want in fields:
            scale = np.max(np.abs(want))
            if scale == 0:
                continue
            checked += 1
            assert np.max(np.abs(have - want)) <= 1e-9 * scale
        # pixels, position, l11, l21, colour and alpha at least
        assert checked >= 8


def bf16_oracle(value: float) -> float:
    """Independent bit-level bfloat16 rounding via integer truncation of the
    single-precision representation with round-to-nearest-even."""
    (bits,) = struct.unpack("<I", struct.pack("<f", value))
    lower = bits & 0xFFFF
    upper = bits >> 16
    if lower > 0x8000 or (lower == 0x8000 and (upper & 1)):
        upper += 1
    (widened,) = struct.unpack("<f", struct.pack("<I", (upper & 0xFFFF) << 16))
    return widened


class TestBf16:
    def test_exact_values(self):
        assert bf16_round(np.float64(1.0)) == 1.0
        assert bf16_round(np.float64(-2.5)) == -2.5

    def test_halfway_rounds_to_even(self):
        assert bf16_round(np.float64(1.0 + 2.0 ** -8)) == 1.0
        # 1 + 3*2^-8 is halfway between 1+2^-7 and 1+2^-6: rounds up to even
        assert bf16_round(np.float64(1.0 + 3.0 * 2.0 ** -8)) == 1.0 + 2 ** -6

    def test_against_bit_level_oracle(self, tmp_path):
        rng = np.random.default_rng(5)
        values = np.concatenate([
            rng.normal(0, 1, 500),
            rng.uniform(-1e30, 1e30, 200),
            rng.uniform(-1e-30, 1e-30, 200),
            np.array([0.1, -0.1, np.pi, 1e-40, 3.0e38]),
        ])
        ours = bf16_round(values)
        for x, got in zip(values, ours):
            assert got == bf16_oracle(float(x)), x

        # every finite bf16 pattern, the float32 halfway point between it
        # and its next neighbour away from zero, and one ulp either side
        pats = np.arange(1 << 16, dtype=np.uint32)
        pats = pats[(pats & 0x7F80) != 0x7F80] << 16
        bits = (pats[:, None] | np.array([0, 0x7FFF, 0x8000, 0x8001],
                                         dtype=np.uint32)).reshape(-1)
        f32 = bits.view(np.float32)
        want = np.array([bf16_oracle(float(x)) for x in f32],
                        dtype=np.float32)
        wide = want.astype(np.float64).view(np.uint64)
        assert np.array_equal(bf16_round(f32).view(np.uint32),
                              want.view(np.uint32))
        assert np.array_equal(
            bf16_round(f32.astype(np.float64)).view(np.uint64), wide)
        # the container stores the same bits; it holds only finite values
        held = np.flatnonzero(np.isfinite(want))
        held = held[:held.size // 9 * 9]
        dset = DistilledSet(8, 8, 3, 1, held.size // 9,
                            f32[held].astype(np.float64),
                            np.zeros(1, dtype=np.int64))
        save_gsd(dset, tmp_path / "all.gsd")
        loaded = load_gsd(tmp_path / "all.gsd").params
        assert np.array_equal(loaded.view(np.uint64), wide[held])

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        x = rng.normal(0, 100, 100_000)
        once = bf16_round(x)
        assert np.array_equal(bf16_round(once), once)

    def test_roundtrip_error_bound(self):
        rng = np.random.default_rng(8)
        x = np.concatenate([rng.normal(0, 1, 300_000),
                            rng.uniform(-1e6, 1e6, 200_000)])
        rel = np.abs(bf16_round(x) - x) / np.abs(x)
        assert np.max(rel) <= 2.0 ** -8

    def test_specials_pass_through(self):
        out = bf16_round(np.array([np.inf, -np.inf, np.nan]))
        assert out[0] == np.inf and out[1] == -np.inf and np.isnan(out[2])

    def test_cast_leaves_masters_untouched(self):
        rng = np.random.default_rng(9)
        dset = make_random_set(rng, 8, 8, 3, 1, 4)
        before = dset.params.copy()
        quantized = bf16_round(dset.params)
        assert np.array_equal(dset.params, before)
        assert not np.array_equal(quantized, before)  # rounding really happened

    def test_gradbuffer_layout(self):
        rng = np.random.default_rng(10)
        dset = make_random_set(rng, 8, 8, 3, 2, 3)
        buf = render_backward(dset, RenderConfig(8, 8, 3),
                              np.ones((2, 8, 8, 3)))
        assert buf.grads.shape == (2 * 3 * 9,)
        assert buf.grads.dtype == np.float64
        assert buf.per_gaussian().shape == (6, 9)
        assert np.shares_memory(buf.per_gaussian(), buf.grads)
