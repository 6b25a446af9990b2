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

from gsdd.core import DistilledSet, RenderConfig
from gsdd.data_io import load_gsd, save_gsd
from gsdd.gradients import render_backward
from gsdd.raster import ImageBuffer, render_batched, render_reference

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
