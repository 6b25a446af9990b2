import struct

import numpy as np
import pytest

from gsdd.core import DistilledSet, RenderConfig
from gsdd.gradients import (
    GradBuffer,
    bf16_round,
    gradcheck,
    gradcheck_suite,
    render_backward,
)
from gsdd import raster
from gsdd.raster import ImageBuffer, render_batched

from conftest import make_random_set


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

    def test_doubled_gradient_control(self):
        err = gradcheck_suite(4, seed=7, grad_scale=2.0)
        assert err == pytest.approx(1.0, abs=0.05)

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
        arrays = [b.as_array().astype(dtype) for b in self.up]
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
        up32 = [ImageBuffer.from_array(b.as_array().astype(np.float32))
                for b in self.up]
        up64 = [ImageBuffer.from_array(b.as_array().astype(np.float64))
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


class TestBothPassesShareTheKernel:
    """The backward differentiates the kernel values the forward shaded."""

    @pytest.mark.parametrize("cutoff", [1.5, 3.0, np.inf])
    @pytest.mark.parametrize("channels, ssaa", [(3, 1), (1, 2), (3, 3)])
    def test_backward_v_is_forward_v_bitwise(self, monkeypatch, cutoff,
                                             channels, ssaa):
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
        render_batched(dset, cfg)
        forward = list(recorded)
        recorded.clear()
        render_backward(dset, cfg, rng.normal(0.0, 1.0, (2, 12, 20,
                                                         channels)))
        # one kernel call per tile on each pass, in the same tile order
        assert len(forward) == len(recorded) > 0
        for fwd, bwd in zip(forward, recorded):
            assert fwd.shape == bwd.shape
            assert np.array_equal(fwd.view(np.uint64), bwd.view(np.uint64))


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

    def test_against_bit_level_oracle(self):
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
        dset = DistilledSet.zeros(8, 8, 3, 2, 3)
        buf = GradBuffer.zeros_like(dset)
        assert buf.grads.size == 2 * 3 * 9
        assert buf.per_gaussian().shape == (6, 9)
