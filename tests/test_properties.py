"""Property tests over random small geometries, and a thread stress test.

Every tile of a render or backward call reuses its worker's scratch
buffers, so each property below is stated bitwise: a value read from a
buffer the previous tile left behind would show up as a difference.
"""

import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdd.core import (
    CHOLESKY_FLOOR,
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
    """(set, config, upstream) on a small random geometry."""
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
    dset = make_random_set(rng, width, height, channels, n_images, m)
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
        assert_all_equal(pixels(batched), [
            render_reference(dset, i, cfg, out_dtype=np.float64).pixels
            for i in range(dset.num_images)])

    @PROPERTY_SETTINGS
    @given(render_cases(), st.integers(2, 4))
    def test_worker_count_invariance(self, case, workers):
        dset, cfg, upstream = case
        assert_all_equal(
            pixels(render_batched(dset, cfg, workers=workers)),
            pixels(render_batched(dset, cfg, workers=1)))
        assert np.array_equal(
            render_backward(dset, cfg, upstream, workers=workers).grads,
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
    """``(v, v_geo)`` with the window applied by masked selects."""
    v = np.exp(-0.5 * q)
    if tbl.window_tau == 0.0:
        return v, v
    safe = tbl.cutoff_q - q
    outside = np.logical_not(safe > 0.0)
    safe = np.where(outside, 1.0, safe)
    v = v * np.exp(-tbl.window_tau / safe) * tbl.window_gain
    v = np.where(outside, 0.0, v)
    return v, v * (1.0 + 2.0 * tbl.window_tau / (safe * safe))


def full_array_tiles(dset, cfg):
    """``(table, block, dx, dy, idx)`` of every tile, the offsets over
    explicit (samples x records) arrays, on the render's own records."""
    sched = _TileSchedule(dset, cfg)
    for t in range(sched.tile_ids.size):
        block, _, _, idx = sched.tile(t)
        xs, ys = full_array_samples(*block[1:], cfg.ssaa_factor)
        yield (sched.tbl, block, xs[:, None] - sched.tbl.mu_x[idx],
               ys[:, None] - sched.tbl.mu_y[idx], idx)


def full_array_render(dset, cfg):
    """Forward reference: q summed term by term over the full arrays."""
    n_off = cfg.ssaa_factor ** 2
    images = [np.zeros((cfg.height, cfg.width, cfg.channels))
              for _ in range(dset.num_images)]
    for tbl, (image, x0, x1, y0, y1), dx, dy, idx in full_array_tiles(dset,
                                                                     cfg):
        q = tbl.inv00[idx] * dx * dx
        q = q + 2.0 * tbl.inv01[idx] * dx * dy
        q = q + tbl.inv11[idx] * dy * dy
        w = tbl.alpha[idx] * full_array_kernel(tbl, q)[0]
        vals = np.stack([np.sum(w * tbl.colors[idx, ch], axis=1)
                         for ch in range(cfg.channels)], axis=1)
        vals = vals.reshape(-1, n_off, cfg.channels).mean(axis=1)
        images[image][y0:y1, x0:x1] = vals.reshape(y1 - y0, x1 - x0,
                                                   cfg.channels)
    return [img.reshape(-1) for img in images]


def full_array_backward(dset, cfg, upstream):
    """Backward reference: per-tile moments over the full arrays, scattered
    in tile order and pulled back to the nine parameters."""
    n_off = cfg.ssaa_factor ** 2
    c = cfg.channels
    parts, gauss = [], []
    for tbl, (image, x0, x1, y0, y1), dx, dy, idx in full_array_tiles(dset,
                                                                     cfg):
        ub = np.asarray(upstream[image].as_array()[y0:y1, x0:x1, :],
                        dtype=np.float64)
        ub = np.repeat(ub.reshape(-1, c), n_off, axis=0) / n_off
        ax = tbl.inv00[idx] * dx + tbl.inv01[idx] * dy
        ay = tbl.inv01[idx] * dx + tbl.inv11[idx] * dy
        v, v_geo = full_array_kernel(tbl, dx * ax + dy * ay)
        w = v_geo * (ub @ tbl.colors[idx, :c].T)
        wax, way = w * ax, w * ay
        parts.append(np.column_stack([
            wax.sum(axis=0), way.sum(axis=0),
            np.einsum("sr,sr->r", wax, ax), np.einsum("sr,sr->r", wax, ay),
            np.einsum("sr,sr->r", way, ay), (ub.T @ v).T]))
        gauss.append(idx)
    grads = np.zeros((dset.num_images * dset.gaussians_per_image, 9))
    if not parts:
        return grads.reshape(-1)
    parts, gauss = np.concatenate(parts), np.concatenate(gauss)
    mx, my, mxx, mxy, myy, *col = (
        np.bincount(gauss, weights=parts[:, j], minlength=tbl.count)
        for j in range(parts.shape[1]))
    col = np.stack(col, axis=1)
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
    exact per element, so the two agree bit for bit. Unlike the oracle
    test, the references build their sample grids themselves.
    """

    @PROPERTY_SETTINGS
    @given(render_cases())
    def test_forward_matches_full_arrays(self, case):
        dset, cfg, _ = case
        assert_all_equal(
            pixels(render_batched(dset, cfg, out_dtype=np.float64)),
            full_array_render(dset, cfg))

    @PROPERTY_SETTINGS
    @given(render_cases())
    def test_backward_matches_full_arrays(self, case):
        dset, cfg, upstream = case
        assert np.array_equal(render_backward(dset, cfg, upstream).grads,
                              full_array_backward(dset, cfg, upstream))


# bf16 bit patterns without NaNs (exponent all ones with a nonzero mantissa)
BF16_NUMBERS = st.integers(0, 0xFFFF).filter(
    lambda b: (b & 0x7F80) != 0x7F80 or (b & 0x007F) == 0)


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
        # bit patterns, so -0.0 and the infinities count too
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
