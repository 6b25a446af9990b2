from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from gsdd.core import BudgetSpec, DistilledSet, RenderConfig, clip_positions
from gsdd.data_io import bf16_round
from gsdd.gradients import gradcheck, render_backward
from gsdd import optimize, raster
from gsdd.optimize import (
    AdamState,
    TrainConfig,
    _conv3x3,
    _tap_windows,
    adam_step,
    boundary_loss,
    distill_dm,
    dm_loss_grad,
    feature_forward,
    feature_input_grad,
    feature_weights,
    fit_images,
    mse_loss_grad,
    psnr,
)
from gsdd.raster import ImageBuffer, render_batched

from conftest import make_blob_dataset, make_natural_image, make_random_set


class TestAdam:
    def test_zero_gradient_no_move(self):
        state = AdamState.new(4, lr=0.1)
        params = np.array([1.0, -2.0, 0.5, 3.0])
        adam_step(state, params, np.zeros(4))
        assert np.array_equal(params, [1.0, -2.0, 0.5, 3.0])

    def test_first_step_magnitude_is_lr(self):
        state = AdamState.new(3, lr=0.05)
        params = np.zeros(3)
        adam_step(state, params, np.array([1e-3, -2.0, 40.0]))
        # bias correction makes the first update lr * sign(g) up to eps
        assert np.allclose(np.abs(params), 0.05, rtol=1e-3)
        assert np.array_equal(np.sign(params), [-1.0, 1.0, -1.0])

    def test_constant_gradient_descends_monotonically(self):
        state = AdamState.new(1, lr=0.01)
        params = np.array([5.0])
        prev = params[0]
        for _ in range(100):
            adam_step(state, params, np.array([2.5]))
            assert params[0] < prev
            prev = params[0]

    def test_shape_mismatch(self):
        state = AdamState.new(3)
        with pytest.raises(ValueError):
            adam_step(state, np.zeros(3), np.zeros(4))


class TestMseLoss:
    def test_identical_buffers(self):
        a = [ImageBuffer.from_array(np.full((2, 2, 3), 0.7))]
        loss, grad = mse_loss_grad(a, a)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros((1, 2, 2, 3)))

    def test_closed_form(self):
        x = np.array([1.0, 0.0]).reshape(1, 1, 2, 1)
        loss, grad = mse_loss_grad(x, np.zeros((1, 1, 2, 1)))
        assert loss == 0.5
        assert np.array_equal(grad, x)

    def test_residual_scaling(self):
        rng = np.random.default_rng(0)
        t = rng.normal(0, 1, (1, 3, 4, 3))
        x = t + rng.normal(0, 1, (1, 3, 4, 3))
        loss1, grad1 = mse_loss_grad(x, t)
        loss3, grad3 = mse_loss_grad(t + 3.0 * (x - t), t)
        assert loss3 == pytest.approx(9.0 * loss1, rel=1e-12)
        assert np.allclose(grad3, 3.0 * grad1, rtol=1e-12)

    def test_batch_is_the_sum_of_its_images(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (2, 3, 4, 3))
        t = rng.normal(0, 1, (2, 3, 4, 3))
        loss, grad = mse_loss_grad(x, t)
        alone = [mse_loss_grad(x[j:j + 1], t[j:j + 1]) for j in range(2)]
        assert loss == alone[0][0] + alone[1][0]
        assert np.array_equal(grad, np.concatenate([g for _, g in alone]))

    def test_geometry_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss_grad([ImageBuffer.zeros(2, 2, 3)],
                          [ImageBuffer.zeros(2, 3, 3)])
        with pytest.raises(ValueError):
            mse_loss_grad(np.zeros((2, 2, 2, 3)), np.zeros((1, 2, 2, 3)))

    @pytest.mark.parametrize("image, target", [(-1e308, 1e308), (0.0, 1e308)])
    def test_overflow_is_quiet(self, image, target):
        # the difference overflows, or its double does; the repo's
        # error::RuntimeWarning:gsdd filter fails the test if a warning
        # escapes
        loss, grad = mse_loss_grad(np.full((1, 2, 2, 1), image),
                                   np.full((1, 2, 2, 1), target))
        assert loss == np.inf
        assert np.isneginf(grad).all()


def set_with_positions(positions):
    n = len(positions)
    params = np.zeros(n * 9)
    for i, (u, v) in enumerate(positions):
        params[i * 9 + 0] = u
        params[i * 9 + 1] = v
        params[i * 9 + 2] = 0.5
        params[i * 9 + 4] = 0.5
    return DistilledSet(8, 8, 3, 1, n, params, np.zeros(1, dtype=np.int64))


class TestBoundaryLoss:
    def test_origin_is_zero(self):
        loss, grads = boundary_loss(set_with_positions([(0.0, 0.0)]), 1.0)
        assert loss == 0.0
        assert np.array_equal(grads, np.zeros(9))

    def test_closed_form_at_half(self):
        loss, grads = boundary_loss(set_with_positions([(0.5, 0.5)]), 1.0)
        assert loss == pytest.approx(-2.0 * np.log(0.75), abs=1e-12)
        assert grads[0] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert grads[1] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert np.array_equal(grads[2:], np.zeros(7))

    def test_blows_up_near_edge_and_points_inward(self):
        for u in (-0.999, -0.6, 0.2, 0.999):
            loss, grads = boundary_loss(set_with_positions([(u, 0.0)]), 1.0)
            if abs(u) > 0.99:
                assert loss > 6.0
            # gradient descent step -grad moves the center toward 0
            assert grads[0] * u >= 0.0

    def test_unclipped_position_is_an_error(self):
        with pytest.raises(ValueError):
            boundary_loss(set_with_positions([(1.0, 0.0)]), 1.0)

    def test_zero_weight_zero_grads(self):
        loss, grads = boundary_loss(set_with_positions([(0.7, -0.3)]), 0.0)
        assert loss == 0.0
        assert np.array_equal(grads, np.zeros(9))

    def test_per_image_normaliser(self):
        one = set_with_positions([(0.5, 0.5)])
        two = DistilledSet(8, 8, 3, 2, 1, np.tile(one.params, 2),
                           np.zeros(2, dtype=np.int64))
        loss1, grads1 = boundary_loss(one, 1.0)
        whole, grads_whole = boundary_loss(two, 1.0)
        per_image, grads_per = boundary_loss(two, 1.0, per_image=True)
        assert whole == loss1
        assert per_image == 2.0 * loss1
        assert np.array_equal(grads_per, np.tile(grads1, 2))
        assert np.array_equal(grads_whole, grads_per / 2.0)

    @pytest.mark.parametrize("images, m", [(2, 0), (0, 3)])
    @pytest.mark.parametrize("per_image", [False, True])
    def test_set_without_gaussians_is_zero(self, images, m, per_image):
        dset = DistilledSet.zeros(8, 8, 3, images, m)
        loss, grads = boundary_loss(dset, 1.0, per_image=per_image)
        assert loss == 0.0
        assert grads.shape == (0,) and grads.dtype == np.float64


class TestTrainConfig:
    @pytest.mark.parametrize("field, low", [
        ("steps", 0), ("init_steps", 0), ("batch_real", 1), ("batch_syn", 0),
        ("feature_depth", 0), ("feature_channels", 1),
    ])
    def test_count_bounds(self, field, low):
        assert getattr(TrainConfig(**{field: low}), field) == low
        with pytest.raises(ValueError, match=f"{field} must be >= {low}"):
            TrainConfig(**{field: low - 1})

    @pytest.mark.parametrize("lr", [-1.0, -1e-300, np.nan, np.inf])
    def test_lr_finite_and_non_negative(self, lr):
        assert TrainConfig(lr=0.0).lr == 0.0
        with pytest.raises(ValueError, match="lr must be finite and >= 0"):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_lambda_boundary_finite_and_non_negative(self, lam):
        assert TrainConfig(lambda_boundary=0.0).lambda_boundary == 0.0
        with pytest.raises(ValueError, match="lambda_boundary must be finite "
                                             "and >= 0"):
            TrainConfig(lambda_boundary=lam)


class TestFitImages:
    def test_zero_gaussians_rejected(self):
        cfg = TrainConfig(steps=1, seed=0)
        with pytest.raises(ValueError):
            fit_images([ImageBuffer.zeros(8, 8, 3)], 0, cfg,
                       RenderConfig(8, 8, 3))

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            fit_images([], 4, TrainConfig(steps=1, seed=0),
                       RenderConfig(8, 8, 3))

    def test_constant_target_reaches_high_psnr(self):
        target = ImageBuffer.from_array(np.full((32, 32, 3), [0.3, 0.6, 0.2]))
        cfg = TrainConfig(steps=500, lr=5e-2, lambda_boundary=0.0, seed=5)
        rcfg = RenderConfig(32, 32, 3, cutoff_sigma=np.inf)
        _, psnrs, trace = fit_images([target], 4, cfg, rcfg)
        assert psnrs[0] >= 40.0
        assert trace[-1][1] < trace[0][1]

    def test_batched_fit_equals_independent_fits(self):
        # image j draws its init from [seed, j] and fits its own target, so
        # image 0 of a batch is the one-image fit, and changing either
        # target leaves the other image's parameters and PSNR bit for bit
        rng = np.random.default_rng(2)
        targets = [ImageBuffer.from_array(rng.uniform(0, 1, (8, 8, 3)))
                   for _ in range(2)]
        cfg = TrainConfig(steps=12, lr=1e-2, seed=9)
        rcfg = RenderConfig(8, 8, 3, ssaa_factor=1, cutoff_sigma=np.inf,
                            tile_size=8)
        m9 = 3 * 9
        together, psnr_together, _ = fit_images(targets, 3, cfg, rcfg)
        alone, psnr_alone, _ = fit_images(targets[:1], 3, cfg, rcfg)
        assert np.array_equal(together.params[:m9], alone.params)
        assert psnr_together[0] == psnr_alone[0]
        for j in range(2):
            changed = list(targets)
            changed[j] = ImageBuffer.from_array(rng.uniform(0, 1, (8, 8, 3)))
            other, psnr_other, _ = fit_images(changed, 3, cfg, rcfg)
            k = 1 - j
            assert np.array_equal(other.params[k * m9:(k + 1) * m9],
                                  together.params[k * m9:(k + 1) * m9])
            assert psnr_other[k] == psnr_together[k]
            assert not np.array_equal(other.params[j * m9:(j + 1) * m9],
                                      together.params[j * m9:(j + 1) * m9])

    def test_buffer_list_equals_array(self):
        rng = np.random.default_rng(21)
        targets = rng.uniform(0, 1, (2, 8, 8, 3)).astype(np.float32)
        cfg = TrainConfig(steps=4, seed=9)
        rcfg = RenderConfig(8, 8, 3, cutoff_sigma=3.0, tile_size=8)
        listed = fit_images([ImageBuffer.from_array(a) for a in targets], 3,
                            cfg, rcfg)
        stacked = fit_images(targets, 3, cfg, rcfg)
        assert np.array_equal(listed[0].params, stacked[0].params)
        assert np.array_equal(listed[1], stacked[1])
        assert listed[2] == stacked[2]

    def test_lr_zero_keeps_params_bitwise(self):
        rng = np.random.default_rng(3)
        target = ImageBuffer.from_array(rng.uniform(0, 1, (8, 8, 3)))
        cfg = TrainConfig(steps=1, lr=0.0, seed=4)
        rcfg = RenderConfig(8, 8, 3, cutoff_sigma=np.inf, tile_size=8)
        fitted, _, _ = fit_images([target], 3, cfg, rcfg)
        init_only, _, _ = fit_images([target], 3,
                                     TrainConfig(steps=0, lr=0.0, seed=4),
                                     rcfg)
        assert np.array_equal(fitted.params, init_only.params)

    def test_bf16_forward_keeps_masters_full_precision(self):
        rng = np.random.default_rng(8)
        target = ImageBuffer.from_array(rng.uniform(0, 1, (8, 8, 3)))
        rcfg = RenderConfig(8, 8, 3, cutoff_sigma=np.inf, tile_size=8)
        quant, _, _ = fit_images([target], 3,
                                 TrainConfig(steps=1, lr=0.0, seed=4,
                                             bf16_forward=True), rcfg)
        full, _, _ = fit_images([target], 3,
                                TrainConfig(steps=0, lr=0.0, seed=4), rcfg)
        # lr 0: masters must be bitwise untouched by the forward cast
        assert np.array_equal(quant.params, full.params)
        assert not np.array_equal(bf16_round(full.params), full.params)

    def test_bf16_gradient_is_straight_through(self, monkeypatch):
        # the gradient Adam gets is the analytic one at the rounded point
        # plus the boundary term at the masters, bit for bit
        rng = np.random.default_rng(13)
        targets = rng.uniform(0, 1, (2, 8, 8, 3))
        rcfg = RenderConfig(8, 8, 3, cutoff_sigma=3.0, tile_size=8)
        cfg = TrainConfig(steps=1, lr=0.0, seed=4, bf16_forward=True)
        seen = []

        def capture(state, params, grads):
            seen.append(grads.copy())
            return adam_step(state, params, grads)

        monkeypatch.setattr("gsdd.optimize.adam_step", capture)
        dset, _, _ = fit_images(targets, 3, cfg, rcfg)

        def gradient_at(point):
            images = np.asarray(render_batched(point, rcfg,
                                               out_dtype=np.float64))
            _, upstream = mse_loss_grad(images, targets)
            _, bnd = boundary_loss(dset, cfg.lambda_boundary, per_image=True)
            return render_backward(point, rcfg, upstream).grads + bnd

        # lr 0 leaves the masters where the step differentiated them
        rounded = replace(dset, params=bf16_round(dset.params))
        assert len(seen) == 1
        assert np.array_equal(seen[0], gradient_at(rounded))
        assert not np.array_equal(seen[0], gradient_at(dset))

    def test_bf16_forward_changes_training(self):
        rng = np.random.default_rng(12)
        target = ImageBuffer.from_array(rng.uniform(0, 1, (8, 8, 3)))
        rcfg = RenderConfig(8, 8, 3, cutoff_sigma=np.inf, tile_size=8)
        a, _, _ = fit_images([target], 3,
                             TrainConfig(steps=10, seed=4), rcfg)
        b, _, _ = fit_images([target], 3,
                             TrainConfig(steps=10, seed=4, bf16_forward=True),
                             rcfg)
        assert not np.array_equal(a.params, b.params)

    def test_natural_image_improves(self):
        target = ImageBuffer.from_array(make_natural_image(32))
        cfg = TrainConfig(steps=300, lr=1e-2, seed=5)
        rcfg = RenderConfig(32, 32, 3, cutoff_sigma=np.inf)
        dset, psnrs, trace = fit_images([target], 22, cfg, rcfg)
        init_mse = trace[0][2]
        init_psnr = 10.0 * np.log10(1.0 / init_mse)
        assert psnrs[0] > init_psnr + 10.0
        # averaged loss over trailing windows keeps decreasing
        first = np.mean([t[1] for t in trace[:100]])
        last = np.mean([t[1] for t in trace[-100:]])
        assert last < first

    def test_stage_calls_per_step(self, monkeypatch):
        # perfbench's tracer times the stages by wrapping these module
        # attributes and ends a step when adam_step returns; a stage called
        # another way would silently read zero time. A fit step bins once
        # and makes one tile pass, render_batched with its targets, which
        # also reduces the backward (render_backward is not called); the
        # final PSNR render is one more.
        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                calls[name, "targets"] += kwargs.get("targets") is not None
                return fn(*args, **kwargs)
            return counted

        for module, name in [(raster, "build_intersection_records"),
                             (optimize, "render_batched"),
                             (optimize, "render_backward"),
                             (optimize, "boundary_loss"),
                             (optimize, "adam_step")]:
            monkeypatch.setattr(module, name,
                                counting(name, getattr(module, name)))
        targets = np.random.default_rng(5).uniform(0, 1, (2, 16, 16, 3))
        fit_images(targets, 3, TrainConfig(steps=3, seed=1),
                   RenderConfig(16, 16, 3, tile_size=8))
        assert +calls == {"build_intersection_records": 4,
                          "render_batched": 4,
                          ("render_batched", "targets"): 3,
                          "boundary_loss": 3, "adam_step": 3}

    def test_nan_target_stops_the_run(self, monkeypatch):
        # rejected, naming the image, before any Gaussian is initialised:
        # no initial center rounds to pixel (0, 0) of a 32-wide frame, so
        # the NaN would otherwise first show in the loss
        def initialised(*args, **kwargs):
            raise AssertionError("a Gaussian was initialised")

        monkeypatch.setattr(optimize, "_init_gaussians", initialised)
        target = np.full((32, 32, 3), 0.5)
        target[0, 0, 1] = np.nan
        with pytest.raises(ValueError, match="target image 0: pixels must "
                                             "be finite"):
            fit_images([ImageBuffer.from_array(target)], 8,
                       TrainConfig(steps=3), RenderConfig(32, 32, 3))


def _two_pass_fit(dset, cfg, rcfg, targets, workers):
    """The fit step as three separate calls (render, mse_loss_grad and
    render_backward), ``cfg.steps`` times in place on ``dset``; returns the
    ``(step, total, mse, boundary)`` trace."""
    adam = AdamState.new(dset.params.size, lr=cfg.lr)
    trace = []
    for step in range(cfg.steps):
        fwd = (replace(dset, params=bf16_round(dset.params))
               if cfg.bf16_forward else dset)
        images = np.asarray(render_batched(fwd, rcfg, workers=workers,
                                           out_dtype=np.float64))
        loss, upstream = mse_loss_grad(images, targets)
        bnd, bnd_grads = boundary_loss(dset, cfg.lambda_boundary,
                                       per_image=True)
        grads = render_backward(fwd, rcfg, upstream,
                                workers=workers).grads + bnd_grads
        adam_step(adam, dset.params, grads)
        clip_positions(dset, cfg.epsilon_clip)
        trace.append((step, loss + bnd, loss, bnd))
    return trace


def _huge_pair(alpha):
    """One 16x16x3 image of two overlapping Gaussians of unit colour and
    opacity ``alpha``."""
    p = np.array([[-0.3, 0.2, 0.3, 0.05, 0.25, 1.0, 1.0, 1.0, alpha],
                  [-0.25, 0.1, 0.2, -0.1, 0.3, 1.0, 1.0, 1.0, alpha]])
    return DistilledSet(16, 16, 3, 1, 2, p.reshape(-1),
                        np.zeros(1, dtype=np.int64))


class TestFitStep:
    """A fit step makes one tile pass; its training matches the separate
    passes bit for bit and stops where they stop."""

    @pytest.mark.parametrize("bf16", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_same_bits_as_separate_passes(self, bf16, workers):
        # 21 x 13 at tile 8 has partial edge tiles
        rng = np.random.default_rng([31, bf16, workers])
        start = make_random_set(rng, 21, 13, 3, 2, 7)
        clip_positions(start, TrainConfig().epsilon_clip)
        targets = rng.uniform(0.0, 1.0, (2, 13, 21, 3))
        rcfg = RenderConfig(21, 13, 3, tile_size=8)
        cfg = TrainConfig(steps=4, lr=5e-2, bf16_forward=bf16)
        fused, separate = start.copy(), start.copy()
        trace = optimize._descend(fused, cfg, rcfg, workers, targets=targets)
        assert trace == _two_pass_fit(separate, cfg, rcfg, targets, workers)
        assert np.array_equal(fused.params, separate.params)
        assert not np.array_equal(fused.params, start.params)

    @pytest.mark.parametrize("alpha, at, message", [
        # a NaN target pixel: a NaN upstream, loss and gradient
        (1.0, np.nan, "step 0: the loss or its gradient is not finite"),
        # each Gaussian shades 1e308 at its mean, and their sum overflows
        (1e308, 0.5, "image 0: a rendered pixel overflows float64"),
        # finite pixels whose squares overflow the loss
        (1e200, 0.5, "step 0: the loss or its gradient is not finite"),
        # a finite target whose upstream 2 (pixel - target) overflows
        (1.0, 1e308, "step 0: the loss or its gradient is not finite"),
        # finite pixels whose difference from a finite target overflows
        (1e307, -1.7e308, "step 0: the loss or its gradient is not finite"),
    ])
    def test_non_finite_stops_before_adam(self, alpha, at, message):
        # the repo's error::RuntimeWarning:gsdd filter fails the test if a
        # warning escapes
        dset = _huge_pair(alpha)
        targets = np.full((1, 16, 16, 3), 0.5)
        targets[0, 7, 5, 1] = at
        before = dset.params.copy()
        with pytest.raises(ValueError, match=f"^{message}$"):
            optimize._descend(dset, TrainConfig(steps=2), RenderConfig(16, 16),
                              1, targets=targets)
        assert np.array_equal(dset.params, before)

    def test_non_finite_gradient_stops_two_passes(self):
        # alpha = 1e306 overflows the pullback alone: the loss is finite,
        # the separate backward's gradient is not
        dset = _huge_pair(1e306)
        before = dset.params.copy()
        with pytest.raises(ValueError, match="^step 0: the loss or its "
                                             "gradient is not finite$"):
            optimize._descend(dset, TrainConfig(steps=2), RenderConfig(16, 16),
                              1, loss_fn=lambda images: (0.0,
                                                         np.ones_like(images)))
        assert np.array_equal(dset.params, before)


class TestFeatureNet:
    def test_depth_zero_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (3, 8, 8, 3))
        feats, _ = feature_forward(x, feature_weights(0, 32, 1, 3))
        assert np.array_equal(feats, x.reshape(3, -1))

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (2, 8, 8, 3))
        def feats(seed):
            return feature_forward(x, feature_weights(2, 8, seed, 3))[0]

        f1, f2, f3 = feats(7), feats(7), feats(8)
        assert np.array_equal(f1, f2)
        assert not np.array_equal(f1, f3)

    def test_input_grad_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (2, 8, 8, 3))
        weights = feature_weights(2, 6, 3, 3)
        feats, cache = feature_forward(x, weights)
        target = rng.normal(0, 1, feats.shape)
        dfeat = 2.0 * (feats - target)
        analytic = feature_input_grad(dfeat, cache)

        def loss_of(x_):
            f, _ = feature_forward(x_, weights)
            return float(np.sum((f - target) ** 2))

        h = 1e-5
        idx = [(0, 1, 2, 0), (1, 7, 0, 2), (0, 4, 4, 1), (1, 0, 7, 0)]
        for n, i, j, c in idx:
            xp = x.copy(); xp[n, i, j, c] += h
            xm = x.copy(); xm[n, i, j, c] -= h
            fd = (loss_of(xp) - loss_of(xm)) / (2 * h)
            assert analytic[n, i, j, c] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError):
            feature_forward(np.zeros((1, 7, 8, 3)),
                            feature_weights(1, 32, 0, 3))


def _bordered(x):
    """``x`` with a one-pixel zero border on both image axes."""
    return np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))


def _shifted_products(xp, k):
    """The 3x3 convolution as the sum of its nine shifted tap products
    ``xp[:, di:di+h, dj:dj+w] @ k[di, dj]``, in float64."""
    n, hp, wp, _ = xp.shape
    h, w = hp - 2, wp - 2
    xp = xp.astype(np.float64)
    out = np.zeros((n, h, w, k.shape[3]))
    for di in range(3):
        for dj in range(3):
            out += xp[:, di:di + h, dj:dj + w] @ k[di, dj].astype(np.float64)
    return out


class TestConv3x3:
    """``_conv3x3`` against a second definition of the convolution."""

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12),
                                            (np.float32, 1e-5)])
    @pytest.mark.parametrize("cin", [1, 3, 32])
    @pytest.mark.parametrize("h, w", [(6, 10), (10, 6), (8, 8), (1, 5)])
    # a random border checks that the edge rows' and columns' windows
    # read the border they reach into
    @pytest.mark.parametrize("border", ["zero", "random"])
    def test_matches_shifted_products(self, dtype, tol, cin, h, w, border):
        rng = np.random.default_rng([cin, h, w])
        xp = rng.normal(0.0, 1.0, (2, h + 2, w + 2, cin)).astype(dtype)
        if border == "zero":
            xp = _bordered(xp[:, 1:h + 1, 1:w + 1])
        k = rng.normal(0.0, 1.0, (3, 3, cin, 5)).astype(dtype)
        before = xp.copy()
        out = _conv3x3(xp, k)
        ref = _shifted_products(xp, k)
        assert out.shape == (2, h, w, 5) and out.dtype == dtype
        assert np.abs(out - ref).max() <= tol * np.abs(ref).max()
        assert np.array_equal(xp, before)

    def test_windows_are_a_read_only_view(self):
        xp = np.arange(2 * 6 * 8 * 3, dtype=np.float64).reshape(2, 6, 8, 3)
        win = _tap_windows(xp)
        assert win.shape == (2, 4, 6, 3, 9)
        assert np.shares_memory(win, xp)
        assert not win.flags.writeable
        with pytest.raises(ValueError):
            win[0, 0, 0, 0, 0] = 1.0
        # row di of the window at (i, j): pixels (i+di, j..j+2), channels
        # innermost
        assert np.array_equal(win[1, 2, 3, 1], xp[1, 3, 3:6].reshape(-1))


def _net_dtype(weights):
    return weights[0].dtype if weights else np.float64


def _reference_features(x, weights):
    """The feature net's forward as first written: ``np.where`` ReLU and
    ``mean`` pool, in the weights' dtype."""
    x = np.asarray(x, dtype=_net_dtype(weights))
    cache = []
    for k in weights:
        n, h, w, _ = x.shape
        z = _conv3x3(_bordered(x), k)
        mask = z > 0.0
        a = np.where(mask, z, 0.0)
        x = a.reshape(n, h // 2, 2, w // 2, 2, a.shape[3]).mean(axis=(2, 4))
        cache.append((mask, k))
    return x.reshape(x.shape[0], -1), (cache, x.shape)


def _reference_input_grad(dfeat, cache):
    """Its backward as first written: ``repeat``/``where`` unpool and one
    fresh array per conv tap product."""
    layers, out_shape = cache
    dy = np.asarray(dfeat, dtype=_net_dtype([k for _, k in layers])
                    ).reshape(out_shape)
    for mask, k in reversed(layers):
        dy = np.repeat(np.repeat(dy, 2, axis=1), 2, axis=2) / 4.0
        dy = np.where(mask, dy, 0.0)
        n, h, w, cout = dy.shape
        flat = dy.reshape(-1, cout)
        dxp = np.zeros((n, h + 2, w + 2, k.shape[2]), dtype=dy.dtype)
        for di in range(3):
            for dj in range(3):
                dxp[:, di:di + h, dj:dj + w, :] += \
                    (flat @ k[di, dj].T).reshape(n, h, w, -1)
        dy = dxp[:, 1:h + 1, 1:w + 1, :]
    return dy


def _reference_dm_loss_grad(images, real_batches, members, weights):
    loss = 0.0
    upstream = np.zeros_like(images)
    for real, idx in zip(real_batches, members):
        real_f, _ = _reference_features(real, weights)
        syn_f, cache = _reference_features(images[idx], weights)
        diff = syn_f.mean(axis=0) - real_f.mean(axis=0)
        diff64 = diff.astype(np.float64)
        loss += float(np.dot(diff64, diff64))
        dsyn_f = np.broadcast_to(2.0 * diff / len(idx), syn_f.shape)
        upstream[idx] = _reference_input_grad(dsyn_f, cache)
    return loss, upstream


def _bits(a):
    """The float64 bit patterns of ``a``, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _zero_laced(rng, shape):
    """Normal draws with exact +0.0 and -0.0 entries, and the first image
    all -0.0 so that its conv outputs are exact zeros."""
    x = rng.normal(0.0, 1.0, shape)
    x[rng.random(shape) < 0.2] = 0.0
    x[rng.random(shape) < 0.2] = -0.0
    x[0] = -0.0
    return x


class TestFeatureNetBits:
    """The in-place ReLU, strided-add pool and one-write unpool keep every
    bit of the ``where``/``mean``/``repeat`` net they replaced, at the
    float64 of the weights that ``feature_weights`` draws."""

    dtype = np.float64

    def weights(self, *args):
        return [k.astype(self.dtype) for k in feature_weights(*args)]

    def test_relu_writes_positive_zero_for_negative_zero(self):
        # the in-place ReLU relies on np.maximum(-0.0, 0.0) being +0.0, as
        # np.where(z > 0, z, 0.0) gives; both the vector loop and its tail
        z = np.full(37, -0.0, dtype=self.dtype)
        np.maximum(z, 0.0, out=z)
        assert not np.signbit(z).any()

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    @pytest.mark.parametrize("cin", [1, 3])
    @pytest.mark.parametrize("batch", [1, 2, 3, 4, 5])
    def test_forward_and_input_grad_match_reference(self, depth, cin, batch):
        rng = np.random.default_rng([depth, cin, batch])
        x = _zero_laced(rng, (batch, 8, 16, cin))
        weights = self.weights(depth, 5, depth + cin, cin)
        feats, cache = feature_forward(x, weights)
        ref_feats, ref_cache = _reference_features(x, weights)
        assert np.array_equal(_bits(feats), _bits(ref_feats))
        for (mask, _), (ref_mask, _) in zip(cache[0], ref_cache[0]):
            assert np.array_equal(mask, ref_mask)
        dfeat = rng.normal(0.0, 1.0, feats.shape)
        dfeat[:, ::3] = -0.0
        assert np.array_equal(_bits(feature_input_grad(dfeat, cache)),
                              _bits(_reference_input_grad(dfeat, ref_cache)))

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    @pytest.mark.parametrize("cin", [1, 3])
    def test_dm_loss_grad_matches_reference(self, depth, cin):
        rng = np.random.default_rng([7, depth, cin])
        images = _zero_laced(rng, (6, 16, 8, cin))
        reals = [_zero_laced(rng, (n, 16, 8, cin)).astype(np.float32)
                 for n in (1, 4, 5)]
        members = [np.array([0, 4]), np.array([1, 2, 5]), np.array([3])]
        weights = self.weights(depth, 4, 11, cin)
        loss, upstream = dm_loss_grad(images, reals, members, weights)
        ref_loss, ref_upstream = _reference_dm_loss_grad(images, reals,
                                                         members, weights)
        assert loss.hex() == ref_loss.hex()
        assert np.array_equal(_bits(upstream), _bits(ref_upstream))


class TestFeatureNetBitsFloat32(TestFeatureNetBits):
    """The same bits at float32, the precision ``distill_dm`` runs the net
    in; ``_bits`` widens float32 exactly, signed zeros included."""

    dtype = np.float32


class TestDmLoss:
    def test_identical_batches_zero(self):
        rng = np.random.default_rng(3)
        batch = rng.normal(0, 1, (4, 8, 8, 3))
        weights = feature_weights(1, 4, 5, 3)
        loss, upstream = dm_loss_grad(batch.copy(), [batch], [np.arange(4)],
                                      weights)
        assert loss == pytest.approx(0.0, abs=1e-24)
        assert upstream.shape == batch.shape
        assert np.allclose(upstream, 0.0, atol=1e-13)

    def test_identity_net_closed_form(self):
        rng = np.random.default_rng(4)
        real = rng.normal(0, 1, (5, 4, 4, 3))
        syn = rng.normal(0, 1, (3, 4, 4, 3))
        loss, upstream = dm_loss_grad(syn, [real], [np.arange(3)],
                                      feature_weights(0, 32, 0, 3))
        diff = syn.mean(axis=0) - real.mean(axis=0)
        assert loss == pytest.approx(float(np.sum(diff ** 2)), rel=1e-12)
        expected = np.broadcast_to(2.0 * diff / 3.0, syn.shape)
        assert np.allclose(upstream, expected, rtol=1e-12)

    def test_float32_net_tracks_float64_net(self):
        # distill's float32 net against the float64 net of the same draw,
        # at a reduced distill shape: 2 classes, 8 real and 2 synthetic
        # 16x16 images each, depth 2, 8 channels
        rng = np.random.default_rng(41)
        real = make_blob_dataset(n_per_class=8, size=16, seed=41)
        reals = [real.images[real.labels == cls] for cls in range(2)]
        images = rng.uniform(0.0, 1.0, (4, 16, 16, 3))
        members = [np.array([0, 2]), np.array([1, 3])]
        w64 = feature_weights(2, 8, 12, 3)
        w32 = [k.astype(np.float32) for k in w64]
        loss64, up64 = dm_loss_grad(images, reals, members, w64)
        loss32, up32 = dm_loss_grad(images, reals, members, w32)
        assert loss32 == pytest.approx(loss64, rel=1e-6)
        assert up32.dtype == np.float64
        assert np.abs(up32 - up64).max() <= 1e-5 * np.abs(up64).max()
        assert feature_forward(images, w32)[0].dtype == np.float32

    def test_float32_net_tracks_float64_net_at_distill_shape(self):
        # the same bounds at the distill-cifar10 step's shape: 10 classes
        # of 32 real and 10 synthetic 32x32x3 images, depth 2, 32 channels;
        # smooth class layouts plus per-image variation and noise
        rng = np.random.default_rng(43)
        layouts = rng.normal(0.0, 1.0, (10, 1, 4, 4, 3))

        def draw(n):
            coarse = layouts + 0.3 * rng.normal(0.0, 1.0, (10, n, 4, 4, 3))
            img = np.repeat(np.repeat(coarse, 8, axis=2), 8, axis=3)
            return img + 0.1 * rng.normal(0.0, 1.0, img.shape)

        reals = list(draw(32).astype(np.float32))
        images = draw(10).reshape(100, 32, 32, 3)
        members = [np.arange(cls * 10, cls * 10 + 10) for cls in range(10)]
        w64 = feature_weights(2, 32, 13, 3)
        w32 = [k.astype(np.float32) for k in w64]
        loss64, up64 = dm_loss_grad(images, reals, members, w64)
        loss32, up32 = dm_loss_grad(images, reals, members, w32)
        assert loss32 == pytest.approx(loss64, rel=1e-6)
        assert np.abs(up32 - up64).max() <= 1e-5 * np.abs(up64).max()

    def test_identity_net_stays_float64(self):
        # distill's cast of a depth-0 draw is an empty list: the features
        # are the pixels in float64, even of float32 real images
        rng = np.random.default_rng(4)
        real = rng.normal(0, 1, (5, 4, 4, 3)).astype(np.float32)
        syn = rng.normal(0, 1, (3, 4, 4, 3))
        net = [k.astype(np.float32) for k in feature_weights(0, 32, 0, 3)]
        assert feature_forward(real, net)[0].dtype == np.float64
        loss, upstream = dm_loss_grad(syn, [real], [np.arange(3)], net)
        diff = syn.mean(axis=0) - real.astype(np.float64).mean(axis=0)
        assert loss == pytest.approx(float(np.sum(diff ** 2)), rel=1e-12)
        expected = np.broadcast_to(2.0 * diff / 3.0, syn.shape)
        assert np.allclose(upstream, expected, rtol=1e-12)

    def test_swap_flips_gradient_sign(self):
        # the loss is symmetric under swapping the sides; the gradient flips
        # exactly only for the identity net, since ReLU masks differ
        rng = np.random.default_rng(5)
        a = rng.normal(0, 1, (4, 8, 8, 3))
        b = rng.normal(0, 1, (4, 8, 8, 3))
        every = [np.arange(4)]
        identity = feature_weights(0, 32, 0, 3)
        loss_ab, up_ab = dm_loss_grad(b, [a], every, identity)
        loss_ba, up_ba = dm_loss_grad(a, [b], every, identity)
        assert loss_ab == loss_ba
        assert np.array_equal(up_ab, -up_ba)
        net = feature_weights(1, 4, 6, 3)
        loss_ab, _ = dm_loss_grad(b, [a], every, net)
        loss_ba, _ = dm_loss_grad(a, [b], every, net)
        assert loss_ab == pytest.approx(loss_ba, rel=1e-12)

    def test_empty_class_rejected(self):
        net = feature_weights(0, 32, 0, 3)
        images = np.zeros((2, 4, 4, 3))
        with pytest.raises(ValueError, match="no real images for class 0"):
            dm_loss_grad(images, [np.zeros((0, 4, 4, 3))], [np.arange(2)],
                         net)
        with pytest.raises(ValueError, match="1 real batches for 2 classes"):
            dm_loss_grad(images, [np.zeros((2, 4, 4, 3))],
                         [np.arange(1), np.arange(1, 2)], net)
        with pytest.raises(ValueError,
                           match="no synthetic images for class 1"):
            dm_loss_grad(images, [images, images],
                         [np.arange(2), np.arange(0)], net)

    def test_upstream_is_zero_outside_members(self):
        # each class's slice is that class alone; an image in no member set
        # gets a zero upstream
        rng = np.random.default_rng(6)
        images = rng.normal(0, 1, (5, 8, 8, 3))
        reals = [rng.normal(0, 1, (3, 8, 8, 3)) for _ in range(2)]
        members = [np.array([0, 3]), np.array([2])]
        net = feature_weights(1, 4, 7, 3)
        loss, upstream = dm_loss_grad(images, reals, members, net)
        total = 0.0
        for real, idx in zip(reals, members):
            part, up = dm_loss_grad(images[idx], [real],
                                    [np.arange(idx.size)], net)
            total += part
            assert np.array_equal(upstream[idx], up)
        assert loss == total
        assert not upstream[[1, 4]].any()

    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("prefilter, ssaa, cutoff", [
        (p, s, c) for p in (False, True) for s in (1, 2)
        for c in (3.0, np.inf)])
    def test_gradcheck_through_the_renderer(self, depth, prefilter, ssaa,
                                            cutoff):
        # render -> feature net -> DM on one fixed draw: 2 classes, image 1
        # sampled by neither, as with --batch-syn
        rng = np.random.default_rng(31)
        dset = make_random_set(rng, 16, 16, n_images=4, m=4)
        cfg = RenderConfig(16, 16, 3, prefilter=prefilter, ssaa_factor=ssaa,
                           cutoff_sigma=cutoff, tile_size=8)
        loss = partial(dm_loss_grad,
                       real_batches=[rng.normal(0, 0.5, (3, 16, 16, 3))
                                     for _ in range(2)],
                       members=[np.array([0, 2]), np.array([3])],
                       weights=feature_weights(depth, 4, 8, 3))
        # finite differences of 1e-4 cross the ReLU kinks of deeper nets
        err = gradcheck(dset, cfg, loss, step=1e-4 if depth == 0 else 1e-6)
        assert err <= 1e-3


class TestDistill:
    def test_zero_steps_returns_initialization(self, blob_dataset):
        budget = BudgetSpec(16, 3, ipc=1, gpc=2)
        rcfg = RenderConfig(16, 16, 3, ssaa_factor=1, cutoff_sigma=np.inf)
        cfg = TrainConfig(steps=0, init_steps=5, seed=3)
        dset, trace = distill_dm(blob_dataset, budget, cfg, rcfg)
        assert trace == []
        assert dset.num_images == 4
        assert sorted(dset.labels.tolist()) == [0, 0, 1, 1]

    def test_missing_class_rejected(self, blob_dataset):
        only_zero = np.flatnonzero(blob_dataset.labels == 0)
        from gsdd.data_io import LabeledImageDataset
        broken = LabeledImageDataset(blob_dataset.images[only_zero],
                                     blob_dataset.labels[only_zero], 2,
                                     blob_dataset.mean, blob_dataset.std)
        budget = BudgetSpec(16, 3, ipc=1, gpc=2)
        with pytest.raises(ValueError, match="class 1"):
            distill_dm(broken, budget, TrainConfig(steps=1, init_steps=1,
                                                   seed=0),
                       RenderConfig(16, 16, 3, ssaa_factor=1))

    def test_batch_syn_updates_only_sampled_images(self, blob_dataset):
        budget = BudgetSpec(16, 3, ipc=1, gpc=2)
        rcfg = RenderConfig(16, 16, 3, ssaa_factor=1, cutoff_sigma=np.inf)
        cfg = TrainConfig(steps=1, init_steps=0, batch_syn=1,
                          lambda_boundary=0.0, feature_depth=1,
                          feature_channels=4, seed=3)
        init, _ = distill_dm(blob_dataset, budget, replace(cfg, steps=0), rcfg)
        dset, trace = distill_dm(blob_dataset, budget, cfg, rcfg)
        assert len(trace) == 1
        m9 = dset.gaussians_per_image * 9
        changed = np.array([
            not np.array_equal(dset.params[i * m9:(i + 1) * m9],
                               init.params[i * m9:(i + 1) * m9])
            for i in range(dset.num_images)])
        for cls in range(2):
            assert changed[dset.labels == cls].tolist() in ([True, False],
                                                            [False, True])

    def test_inf_in_real_data_stops_the_run(self):
        from gsdd.data_io import LabeledImageDataset
        real = make_blob_dataset(n_per_class=4, size=32, seed=5)
        images = real.images.copy()
        images[:, 0, 0, 0] = np.inf   # out of reach of the initial colors
        real = LabeledImageDataset(images, real.labels, 2, real.mean,
                                   real.std)
        cfg = TrainConfig(steps=3, init_steps=0, batch_real=4,
                          feature_depth=1, feature_channels=4)
        with pytest.raises(ValueError,
                           match="real image 0: pixels must be finite"):
            distill_dm(real, BudgetSpec(32, 3, ipc=1, gpc=10), cfg,
                       RenderConfig(32, 32, 3, ssaa_factor=1))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_nan_in_real_data_stops_before_the_warm_start(self, monkeypatch,
                                                          bad):
        # np.where's ReLU zeroed a NaN, so the loss stayed finite and the
        # run went on; the check runs before the warm start reads a pixel
        from gsdd.data_io import LabeledImageDataset
        real = make_blob_dataset(n_per_class=4, size=16, seed=5)
        images = real.images.copy()
        images[5, 7, 3, 1] = bad
        real = LabeledImageDataset(images, real.labels, 2, real.mean,
                                   real.std)

        def no_warm_start(*args, **kwargs):
            raise AssertionError("the warm-start fit ran")

        monkeypatch.setattr(optimize, "fit_images", no_warm_start)
        cfg = TrainConfig(steps=3, init_steps=2, batch_real=4,
                          feature_depth=1, feature_channels=4)
        with pytest.raises(ValueError,
                           match="real image 5: pixels must be finite"):
            distill_dm(real, BudgetSpec(16, 3, ipc=1, gpc=2), cfg,
                       RenderConfig(16, 16, 3, ssaa_factor=1))

    def test_steps_run_a_float32_net_on_the_seeded_draws(self, monkeypatch,
                                                        blob_dataset):
        # each DM step casts the net it draws to float32; loop_rng's order
        # (net seed, real batches, synthetic picks) is unchanged
        calls = []
        original = optimize.dm_loss_grad

        def recorder(images, real_batches, members, weights):
            calls.append((real_batches, members, weights))
            return original(images, real_batches, members, weights)

        monkeypatch.setattr(optimize, "dm_loss_grad", recorder)
        cfg = TrainConfig(steps=3, init_steps=2, batch_real=5, batch_syn=1,
                          feature_depth=2, feature_channels=4, seed=9)
        dset, trace = distill_dm(blob_dataset, BudgetSpec(16, 3, ipc=1, gpc=2),
                                 cfg, RenderConfig(16, 16, 3, ssaa_factor=1))
        assert len(calls) == len(trace) == 3
        pools = [np.flatnonzero(blob_dataset.labels == c) for c in range(2)]
        members = [np.flatnonzero(dset.labels == c) for c in range(2)]
        rng = np.random.default_rng([cfg.seed, 202])
        for real_batches, picks, weights in calls:
            drawn = feature_weights(2, 4, int(rng.integers(2 ** 31)), 3)
            assert [k.dtype for k in weights] == [np.float32, np.float32]
            for k, ref in zip(weights, drawn):
                assert np.array_equal(k, ref.astype(np.float32))
            for batch, pool in zip(real_batches, pools):
                assert batch.dtype == np.float32
                assert np.array_equal(batch, blob_dataset.images[
                    rng.choice(pool, size=5, replace=False)])
            for pick, idx in zip(picks, members):
                assert np.array_equal(pick, np.sort(
                    rng.choice(idx, size=1, replace=False)))

    def test_pixel_beyond_float32_range_stops_the_run(self, monkeypatch,
                                                      blob_dataset):
        # 1e39 is finite in float64 but inf in the float32 net, which makes
        # the loss NaN; the step stops before its backward, and no
        # floating-point warning escapes gsdd
        def overflowing(*args, **kwargs):
            images = np.asarray(render_batched(*args, **kwargs))
            images[0, 3, 4, 1] = 1e39
            return images

        warm_start = optimize.fit_images

        def fit_then_overflow(*args, **kwargs):
            out = warm_start(*args, **kwargs)
            monkeypatch.setattr(optimize, "render_batched", overflowing)
            return out

        monkeypatch.setattr(optimize, "fit_images", fit_then_overflow)
        cfg = TrainConfig(steps=2, init_steps=1, batch_real=4,
                          feature_depth=2, feature_channels=4)
        with pytest.raises(ValueError, match="step 0: the loss or its "
                                             "gradient is not finite"):
            distill_dm(blob_dataset, BudgetSpec(16, 3, ipc=1, gpc=2), cfg,
                       RenderConfig(16, 16, 3, ssaa_factor=1))

    def test_dm_loss_halves_on_toy_dataset(self, toy_distillations):
        ratios = []
        for _, trace in toy_distillations[:3]:
            dm = [t[2] for t in trace]
            ratios.append(np.mean(dm[-20:]) / np.mean(dm[:20]))
        assert np.mean(ratios) < 0.5


class TestPsnr:
    def test_identical_is_inf(self):
        a = np.ones((4, 4))
        assert psnr(a, a) == np.inf

    def test_known_value(self):
        a = np.zeros(100)
        b = np.full(100, 0.1)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-9)

    # every RuntimeWarning fails the overflow cases, numpy's own too:
    # np.ptp's subtract warns from inside numpy, where the repo's gsdd
    # filter does not reach
    EDGES = np.array([1e308, -1e308])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_fit_scores_minus_inf(self):
        # the final render is finite but its squared error overflows
        rng = np.random.default_rng(0)
        _, psnrs, _ = fit_images(rng.normal(0, 1, (1, 16, 16, 3)), 8,
                                 TrainConfig(steps=1, lr=1e100),
                                 RenderConfig(16, 16, 3, tile_size=8))
        assert np.isneginf(psnrs).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_difference_is_quiet(self):
        assert psnr(-self.EDGES, self.EDGES) == -np.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_peak_is_quiet(self):
        assert psnr(self.EDGES, self.EDGES) == np.inf


def _targets_with(value):
    """Two 16x16x3 fit targets whose second holds ``value`` at one pixel."""
    targets = np.full((2, 16, 16, 3), 0.5)
    targets[1, 7, 3, 2] = value
    return targets


@pytest.mark.parametrize("build, message", [
    (lambda: TrainConfig(epsilon_clip=0.0),
     r"epsilon_clip must lie in \(0, 1\)"),
    (lambda: TrainConfig(epsilon_clip=1.0),
     r"epsilon_clip must lie in \(0, 1\)"),
    (lambda: fit_images(np.zeros((1, 8, 8, 3)), 4, TrainConfig(steps=1),
                        RenderConfig(16, 16, 3)),
     "target geometry does not match render config"),
    *((lambda value=value: fit_images(_targets_with(value), 4,
                                      TrainConfig(steps=1),
                                      RenderConfig(16, 16, 3)),
       "target image 1: pixels must be finite")
      for value in (np.nan, np.inf, -np.inf)),
    (lambda: distill_dm(make_blob_dataset(2, size=16), BudgetSpec(32, 3, 1, 1),
                        TrainConfig(steps=1, init_steps=1),
                        RenderConfig(32, 32, 3)),
     "dataset geometry does not match render config"),
])
def test_invalid_input_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()
