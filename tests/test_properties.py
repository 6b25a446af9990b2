"""Property tests over random small geometries, and a thread stress test.

Every tile of a render or backward call reuses its worker's scratch
buffers, so each property below is stated bitwise: a value read from a
buffer the previous tile left behind would show up as a difference.
"""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    DistilledSet,
    RenderConfig,
)
from gsdd.data_io import load_gsd, save_gsd
from gsdd.gradients import render_backward
from gsdd.raster import (
    ImageBuffer,
    _TileSchedule,
    render_batched,
    render_reference,
    ssaa_offsets,
)

from conftest import make_random_set

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def render_cases(draw, cutoffs=st.sampled_from([1.5, 3.0, np.inf])):
    """(set, config, upstream) on a small random geometry, of
    well-conditioned Gaussians or of thin rotated ones down to
    ``CHOLESKY_FLOOR`` (see ``conftest.thin_rotated_factors``)."""
    width = draw(st.integers(1, 40))
    height = draw(st.integers(1, 40))
    channels = draw(st.sampled_from([1, 3]))
    n_images = draw(st.integers(1, 3))
    m = draw(st.integers(1, 12))
    cfg = RenderConfig(width, height, channels,
                       prefilter=draw(st.booleans()),
                       ssaa_factor=draw(st.integers(1, 3)),
                       cutoff_sigma=draw(cutoffs),
                       tile_size=draw(st.sampled_from([8, 16, 32])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dset = make_random_set(rng, width, height, channels, n_images, m,
                           thin=draw(st.booleans()))
    upstream = [ImageBuffer.from_array(
        rng.normal(0.0, 1.0, (height, width, channels)))
        for _ in range(n_images)]
    return dset, cfg, upstream


def pixels(images):
    return [img.pixels for img in images]


def assert_all_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


class TestRenderProperties:
    @PROPERTY_SETTINGS
    @given(render_cases(cutoffs=st.just(np.inf)))
    def test_batched_equals_reference_at_infinite_cutoff(self, case):
        dset, cfg, _ = case
        batched = render_batched(dset, cfg, out_dtype=np.float64)
        reference = [render_reference(dset, i, cfg, out_dtype=np.float64)
                     for i in range(dset.num_images)]
        assert_all_equal(pixels(batched), pixels(reference))
        # the oracle's blocks follow tile_size; its pixels must not
        assert_all_equal(pixels(reference), [
            render_reference(dset, i, replace(cfg, tile_size=8),
                             out_dtype=np.float64).pixels
            for i in range(dset.num_images)])

    @PROPERTY_SETTINGS
    @given(render_cases(), st.integers(2, 4), st.booleans())
    def test_worker_count_invariance(self, case, workers, shared):
        # with ``shared`` the many-worker passes both walk one schedule, as
        # the training step's do, built from an equal copy of the config;
        # the one-worker passes build their own
        dset, cfg, upstream = case
        sched = _TileSchedule(dset, replace(cfg)) if shared else None
        assert_all_equal(
            pixels(render_batched(dset, cfg, workers=workers,
                                  schedule=sched)),
            pixels(render_batched(dset, cfg, workers=1)))
        assert np.array_equal(
            render_backward(dset, cfg, upstream, workers=workers,
                            schedule=sched).grads,
            render_backward(dset, cfg, upstream, workers=1).grads)

    @PROPERTY_SETTINGS
    @given(render_cases(cutoffs=st.just(3.0)), st.integers(1, 2))
    def test_batch_equals_each_image_alone(self, case, workers):
        # at finite cutoff the tiles of different images hold different
        # record counts, so the batch and the lone image reuse scratch
        # buffers after different predecessors
        dset, cfg, upstream = case
        images = render_batched(dset, cfg, workers=workers,
                                out_dtype=np.float64)
        grads = render_backward(dset, cfg, upstream,
                                workers=workers).per_gaussian()
        m = dset.gaussians_per_image
        for i in range(dset.num_images):
            alone = dset.subset([i])
            assert np.array_equal(
                images[i].pixels,
                render_batched(alone, cfg, workers=workers,
                               out_dtype=np.float64)[0].pixels)
            assert np.array_equal(
                grads[i * m:(i + 1) * m],
                render_backward(alone, cfg, [upstream[i]],
                                workers=workers).per_gaussian())


class TestShadingAtWorkloadRecordCounts:
    """The shading product at the record counts of the benchmark workloads.

    The property tests draw at most 12 records per tile; a 128x128 render
    at M=170 puts up to 170 on one tile. Both channel counts are run at
    that size, on the oracle and on two worker threads.
    """

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("ssaa", [1, 2])
    def test_oracle_and_workers_bitwise(self, channels, ssaa):
        dset = make_random_set(np.random.default_rng(53), 64, 64, channels,
                               2, 170)
        cfg = RenderConfig(64, 64, channels, ssaa_factor=ssaa,
                           cutoff_sigma=np.inf)
        batched = pixels(render_batched(dset, cfg, out_dtype=np.float64))
        assert_all_equal(batched, [
            render_reference(dset, i, cfg, out_dtype=np.float64).pixels
            for i in range(dset.num_images)])
        assert_all_equal(batched, pixels(render_batched(
            dset, cfg, workers=2, out_dtype=np.float64)))


class TestPartialBlocksAtManyRecords:
    """Edge blocks of every size at 400 records per tile.

    A 33x20 image leaves a one-pixel column of blocks at every tile size
    and a short row (4 pixels high at 8 and 16, 20 at 32), so the shading
    product runs at row counts that are not multiples of 16. The oracle
    must still match the tiles, and two worker threads one.
    """

    @pytest.mark.parametrize("tile_size", [8, 16, 32])
    @pytest.mark.parametrize("ssaa", [1, 3])
    def test_oracle_and_workers_bitwise(self, ssaa, tile_size):
        rng = np.random.default_rng(59)
        dset = make_random_set(rng, 33, 20, 3, 1, 400)
        cfg = RenderConfig(33, 20, 3, ssaa_factor=ssaa, cutoff_sigma=np.inf,
                           tile_size=tile_size)
        batched = pixels(render_batched(dset, cfg, out_dtype=np.float64))
        assert_all_equal(batched, [
            render_reference(dset, 0, cfg, out_dtype=np.float64).pixels])
        assert_all_equal(batched, pixels(render_batched(
            dset, cfg, workers=2, out_dtype=np.float64)))
        upstream = rng.normal(size=(1, 20, 33, 3))
        assert np.array_equal(
            render_backward(dset, cfg, upstream).grads,
            render_backward(dset, cfg, upstream, workers=2).grads)


def full_array_samples(x0, x1, y0, y1, factor):
    """Flattened sample coordinates of the pixel block [x0,x1) x [y0,y1):
    one (x, y) per (pixel, ssaa offset), pixels in raster order and the
    offsets of :func:`ssaa_offsets` innermost."""
    offsets = np.asarray(ssaa_offsets(factor), dtype=np.float64)
    px = np.arange(x0, x1, dtype=np.float64)
    py = np.arange(y0, y1, dtype=np.float64)
    shape = (py.size, px.size, offsets.shape[0])
    xs = np.broadcast_to(np.add.outer(px, offsets[:, 0])[None], shape)
    ys = np.broadcast_to(np.add.outer(py, offsets[:, 1])[:, None], shape)
    return xs.reshape(-1), ys.reshape(-1)


def full_array_kernel(tbl, q):
    """``(v, v_geo)``: one exp of the summed exponent, the window applied by
    masked selects; the closed form ``exp(-q/2)`` at an infinite cutoff."""
    if np.isinf(tbl.cutoff_q):
        v = np.exp(-0.5 * q)
        return v, v
    tau = CUTOFF_WINDOW_TAU
    safe = tbl.cutoff_q - q
    outside = np.logical_not(safe > 0.0)
    safe = np.where(outside, 1.0, safe)
    v = np.exp((-0.5 * q + tau / tbl.cutoff_q) - tau / safe)
    v = np.where(outside, 0.0, v)
    return v, v * (1.0 + 2.0 * tau / (safe * safe))


def full_array_tiles(dset, cfg):
    """``(table, block, dx, dy, idx)`` of every tile, the offsets over
    explicit (samples x records) arrays, on the render's own records."""
    sched = _TileSchedule(dset, cfg)
    for t in range(sched.tile_ids.size):
        block, _, _, idx = sched.tile(t)
        xs, ys = full_array_samples(*block[1:], cfg.ssaa_factor)
        yield (sched.tbl, block, xs[:, None] - sched.tbl.mu_x[idx],
               ys[:, None] - sched.tbl.mu_y[idx], idx)


def full_array_q(tbl, dx, dy, idx):
    """``(q, z2)``: the squared Mahalanobis distance ``z2^2 + z1^2`` of the
    whitened offsets ``z1 = dx/p`` and ``z2 = dy/s - r/(p s) dx`` over the
    full arrays, as both passes form it."""
    z2 = dy * tbl.inv_s[idx] - tbl.shear[idx] * dx
    z1 = dx * tbl.inv_p[idx]
    return z2 * z2 + z1 * z1, z2


def full_array_render(dset, cfg):
    """Forward reference: :func:`full_array_q`, then one product of alpha
    times colour with the kernel values, in the tiles' orientation and on
    the tiles' block shapes, and each pixel's mean of its samples in one
    summation order at every channel count."""
    n_off = cfg.ssaa_factor ** 2
    images = [np.zeros((cfg.height, cfg.width, cfg.channels))
              for _ in range(dset.num_images)]
    for tbl, (image, x0, x1, y0, y1), dx, dy, idx in full_array_tiles(dset,
                                                                     cfg):
        v = full_array_kernel(tbl, full_array_q(tbl, dx, dy, idx)[0])[0]
        shade = tbl.alpha[idx, None] * tbl.colors[idx]
        vals = (shade.T @ v.T)[:cfg.channels]
        # each pixel's samples summed in offset order, then divided
        vals = sum(vals[:, o::n_off] for o in range(n_off)) / n_off
        images[image][y0:y1, x0:x1] = vals.T.reshape(y1 - y0, x1 - x0,
                                                     cfg.channels)
    return [img.reshape(-1) for img in images]


def full_array_backward(dset, cfg, upstream):
    """Backward reference: the forward's kernel values, then per-tile
    moments over the full arrays, scattered in tile order and pulled back
    to the nine parameters."""
    n_off = cfg.ssaa_factor ** 2
    c = cfg.channels
    parts, gauss = [], []
    for tbl, (image, x0, x1, y0, y1), dx, dy, idx in full_array_tiles(dset,
                                                                     cfg):
        ub = np.asarray(np.asarray(upstream[image])[y0:y1, x0:x1, :],
                        dtype=np.float64)
        ub = np.repeat(ub.reshape(-1, c), n_off, axis=0) / n_off
        q, z2 = full_array_q(tbl, dx, dy, idx)
        v, v_geo = full_array_kernel(tbl, q)
        w = v_geo * (ub @ tbl.colors[idx, :c].T)
        wz = w * z2
        # the y axes of the (h, w, f, f) samples first, then the x axes
        # weighted by dx, which varies only along them
        shape = (y1 - y0, x1 - x0, cfg.ssaa_factor, cfg.ssaa_factor, idx.size)
        w_y, wz_y = (a.reshape(shape).sum(axis=0).sum(axis=2)
                     for a in (w, wz))
        dx_x = dx.reshape(shape)[0, :, :, 0]
        parts.append(np.column_stack([
            (w_y * dx_x).sum(axis=(0, 1)), (w_y * dx_x * dx_x).sum(axis=(0, 1)),
            wz_y.sum(axis=(0, 1)), (wz_y * dx_x).sum(axis=(0, 1)),
            np.einsum("sr,sr->r", wz, z2), (ub.T @ v).T]))
        gauss.append(idx)
    grads = np.zeros((dset.num_images * dset.gaussians_per_image, 9))
    if not parts:
        return grads.reshape(-1)
    parts, gauss = np.concatenate(parts), np.concatenate(gauss)
    w_x, w_xx, w_z, w_zx, w_zz, *col = (
        np.bincount(gauss, weights=parts[:, j], minlength=tbl.count)
        for j in range(parts.shape[1]))
    col = np.stack(col, axis=1)
    # A d = L'^-T z, once per Gaussian
    ip, sh, i_s = tbl.inv_p, tbl.shear, tbl.inv_s
    z1, z11, z12 = ip * w_x, ip * ip * w_xx, ip * w_zx
    mx, my = ip * z1 - sh * w_z, i_s * w_z
    tx1, tx2 = ip * z11 - sh * z12, ip * z12 - sh * w_zz
    mxx, mxy, myy = ip * tx1 - sh * tx2, i_s * tx2, i_s * i_s * w_zz
    sx, sy, alpha = tbl.scale_x, tbl.scale_y, tbl.alpha
    grads[:, F_U] = alpha * mx * sx
    grads[:, F_V] = alpha * my * sy
    g00 = 0.5 * alpha * mxx * (sx * sx)
    g01 = 0.5 * alpha * mxy * (sx * sy)
    g11 = 0.5 * alpha * myy * (sy * sy)
    a, b, l22 = tbl.l11, tbl.l21, tbl.l22
    grads[:, F_L11] = 2.0 * (g00 * a + g01 * b) * np.where(
        np.abs(tbl.l11_raw) > CHOLESKY_FLOOR, np.sign(tbl.l11_raw), 0.0)
    grads[:, F_L21] = 2.0 * (g01 * a + g11 * b)
    grads[:, F_L22] = 2.0 * g11 * l22 * np.where(
        np.abs(tbl.l22_raw) > CHOLESKY_FLOOR, np.sign(tbl.l22_raw), 0.0)
    grads[:, F_R:F_R + c] = alpha[:, None] * col
    grads[:, F_ALPHA] = np.einsum("kc,kc->k", tbl.colors[:, :c], col)
    return grads.reshape(-1)


class TestTileArithmetic:
    """The tile kernel against explicit (samples x records) arrays.

    The kernel forms each sample's offsets from per-axis coordinates and
    windows by branch-free selects; the references here spell out every
    sample's coordinates and select with masks. IEEE add and multiply are
    exact per element, and the shading product gets the same (samples x
    records) shape, so the two agree bit for bit. Unlike the oracle test,
    the references build their sample grids themselves.
    """

    @PROPERTY_SETTINGS
    @given(render_cases())
    def test_forward_matches_full_arrays(self, case):
        dset, cfg, _ = case
        assert_all_equal(
            pixels(render_batched(dset, cfg, out_dtype=np.float64)),
            full_array_render(dset, cfg))

    @pytest.mark.parametrize("ssaa", [1, 2, 3])
    def test_one_ssaa_order_at_every_channel_count(self, ssaa):
        # a 1-channel set renders channel 0 of the same Gaussians in 3
        # channels, bit for bit; at ssaa 3 a pixel has 9 samples, which a
        # mean over a contiguous axis would sum pairwise for 1 channel only
        dset = make_random_set(np.random.default_rng(29), 24, 20, 3, 2, 9)
        one = DistilledSet(24, 20, 1, 2, 9, dset.params, dset.labels)
        cfg = RenderConfig(24, 20, 3, ssaa_factor=ssaa, tile_size=8)
        want = render_batched(dset, cfg, out_dtype=np.float64)
        got = render_batched(one, replace(cfg, channels=1),
                             out_dtype=np.float64)
        assert_all_equal([np.asarray(g)[..., 0] for g in got],
                         [np.asarray(w)[..., 0] for w in want])

    @PROPERTY_SETTINGS
    @given(render_cases())
    def test_backward_matches_full_arrays(self, case):
        dset, cfg, upstream = case
        assert np.array_equal(render_backward(dset, cfg, upstream).grads,
                              full_array_backward(dset, cfg, upstream))


# finite bf16 bit patterns (an exponent of all ones is inf or NaN, which the
# container refuses to store)
BF16_NUMBERS = st.integers(0, 0xFFFF).filter(lambda b: (b & 0x7F80) != 0x7F80)


class TestContainerProperties:
    @PROPERTY_SETTINGS
    @given(st.data())
    def test_gsd_roundtrip_is_exact(self, tmp_path_factory, data):
        width = data.draw(st.integers(1, 0xFFFF))
        height = data.draw(st.integers(1, 0xFFFF))
        channels = data.draw(st.integers(1, 0xFF))
        n_images = data.draw(st.integers(0, 4))
        m = data.draw(st.integers(0, 6))
        classes = data.draw(st.integers(1, 0xFFFF))
        labels = data.draw(st.lists(st.integers(0, classes - 1),
                                    min_size=n_images, max_size=n_images))
        bits = np.array(data.draw(st.lists(
            BF16_NUMBERS, min_size=n_images * m * 9,
            max_size=n_images * m * 9)), dtype=np.uint32)
        params = (bits << np.uint32(16)).view(np.float32).astype(np.float64)
        dset = DistilledSet(width, height, channels, n_images, m, params,
                            np.asarray(labels, dtype=np.int64), classes)

        folder = tmp_path_factory.mktemp("gsd")
        save_gsd(dset, folder / "a.gsd")
        loaded = load_gsd(folder / "a.gsd")
        assert (loaded.width, loaded.height, loaded.channels,
                loaded.num_images, loaded.gaussians_per_image,
                loaded.num_classes) == (width, height, channels, n_images,
                                        m, classes)
        assert np.array_equal(loaded.labels, dset.labels)
        # bit patterns, so -0.0 counts too
        assert np.array_equal(loaded.params.view(np.uint64),
                              params.view(np.uint64))
        save_gsd(loaded, folder / "b.gsd")
        assert (folder / "a.gsd").read_bytes() == (folder / "b.gsd").read_bytes()


class TestWorkerStress:
    def test_many_workers_with_fast_thread_switching(self):
        # 8 threads on a machine with fewer cores, switching every
        # microsecond: a scratch buffer shared between workers would mix
        # two tiles' values
        rng = np.random.default_rng(41)
        dset = make_random_set(rng, 48, 40, 3, 3, 14)
        cfg = RenderConfig(48, 40, 3, ssaa_factor=2, cutoff_sigma=3.0,
                           tile_size=8)
        upstream = [ImageBuffer.from_array(rng.normal(0.0, 1.0, (40, 48, 3)))
                    for _ in range(3)]
        want_images = pixels(render_batched(dset, cfg, workers=1))
        want_grads = render_backward(dset, cfg, upstream, workers=1).grads

        results = []

        def stress():
            for _ in range(3):
                results.append((pixels(render_batched(dset, cfg, workers=8)),
                                render_backward(dset, cfg, upstream,
                                                workers=8).grads))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=stress, daemon=True)
            runner.start()
            runner.join(timeout=120.0)
            assert not runner.is_alive(), "stress run did not finish in 120 s"
        finally:
            sys.setswitchinterval(old)
        assert len(results) == 3
        for images, grads in results:
            assert_all_equal(images, want_images)
            assert np.array_equal(grads, want_grads)
