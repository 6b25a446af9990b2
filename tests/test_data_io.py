import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

from gsdd import data_io
from gsdd.core import DistilledSet
from gsdd.data_io import (
    BF16_INF_FROM,
    LabeledImageDataset,
    bf16_round,
    denormalize_to_bytes,
    export_image,
    load_cifar_binary,
    load_gsd,
    load_ppm,
    load_stats,
    save_gsd,
    save_stats,
    write_cifar_binary,
    write_csv,
)
from gsdd.raster import ImageBuffer

from conftest import make_random_set


def synthetic_cifar(tmp_path, n=4, classes=10, seed=0, name="batch.bin"):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, (n, 32, 32, 3), dtype=np.uint8)
    labels = rng.integers(0, classes, n).astype(np.uint8)
    path = tmp_path / name
    write_cifar_binary(images, labels, path, classes=classes)
    return path, images, labels


def test_data_io_imports_only_core():
    # the container's rounding lives beside it, so data_io needs no other
    # package module
    names = set()
    for node in ast.walk(ast.parse(Path(data_io.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    assert {name.removeprefix("gsdd") for name in names
            if name.startswith((".", "gsdd"))} == {".core"}


class TestCifarLoader:
    def test_record_count(self, tmp_path):
        path, _, _ = synthetic_cifar(tmp_path, n=2)
        assert path.stat().st_size == 2 * 3073
        dataset = load_cifar_binary(path)
        assert dataset.images.shape == (2, 32, 32, 3)

    def test_first_byte_is_label(self, tmp_path):
        path = tmp_path / "one.bin"
        payload = bytes([7]) + bytes(3072)
        path.write_bytes(payload)
        dataset = load_cifar_binary(path)
        assert dataset.labels[0] == 7

    def test_normalization_pipeline(self, tmp_path):
        path = tmp_path / "one.bin"
        pixels = bytearray(3072)
        pixels[0] = 255  # R plane, position (0, 0)
        path.write_bytes(bytes([0]) + bytes(pixels))
        dataset = load_cifar_binary(path)
        expected = (1.0 - dataset.mean[0]) / dataset.std[0]
        assert dataset.images[0, 0, 0, 0] == pytest.approx(expected, rel=1e-6)

    def test_roundtrip_identity(self, tmp_path):
        path, images, labels = synthetic_cifar(tmp_path, n=6, seed=3)
        dataset = load_cifar_binary(path)
        raw = dataset.images * dataset.std + dataset.mean
        assert np.allclose(raw * 255.0, images, atol=1e-3)
        assert np.array_equal(dataset.labels, labels)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(3072))  # one byte short
        with pytest.raises(ValueError):
            load_cifar_binary(path)

    def test_label_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes([99]) + bytes(3072))
        with pytest.raises(ValueError):
            load_cifar_binary(path)

    def test_cifar100_records(self, tmp_path):
        path = tmp_path / "c100.bin"
        path.write_bytes(bytes([3, 42]) + bytes(3072))  # coarse, fine
        dataset = load_cifar_binary(path, classes=100)
        assert dataset.labels[0] == 42

    def test_cifar100_write_read_roundtrip(self, tmp_path):
        path, images, labels = synthetic_cifar(tmp_path, n=5, classes=100,
                                               seed=9)
        assert path.stat().st_size == 5 * 3074
        dataset = load_cifar_binary(path, classes=100,
                                    stats=(np.zeros(3), np.ones(3)))
        assert np.array_equal(dataset.labels, labels)
        assert np.array_equal(dataset.images,
                              (images / 255.0).astype(np.float32))

    def test_explicit_stats_applied(self, tmp_path):
        path, _, _ = synthetic_cifar(tmp_path, n=3, seed=5)
        stats = (np.array([0.5, 0.5, 0.5]), np.array([0.25, 0.25, 0.25]))
        dataset = load_cifar_binary(path, stats=stats)
        assert np.array_equal(dataset.mean, stats[0])
        assert np.array_equal(dataset.std, stats[1])


class TestGsdContainer:
    def test_roundtrip_bitwise_after_bf16(self, tmp_path):
        rng = np.random.default_rng(1)
        dset = make_random_set(rng, 16, 8, 3, 3, 5, num_classes=4)
        path = tmp_path / "set.gsd"
        save_gsd(dset, path)
        loaded = load_gsd(path)
        assert np.array_equal(loaded.params, bf16_round(dset.params))
        assert np.array_equal(loaded.labels, dset.labels)
        assert (loaded.width, loaded.height, loaded.channels) == (16, 8, 3)
        assert loaded.num_classes == 4

    def test_size_formula_example(self, tmp_path):
        dset = DistilledSet.zeros(32, 32, 3, 10, 22,
                                  labels=np.arange(10) % 10, num_classes=10)
        path = tmp_path / "set.gsd"
        save_gsd(dset, path)
        assert path.stat().st_size == 17 + 20 + 3960 == 3997

    def test_size_formula_fuzzed(self, tmp_path):
        rng = np.random.default_rng(2)
        for _ in range(12):
            n_s = int(rng.integers(1, 65))
            m = int(rng.integers(1, 65))
            dset = DistilledSet.zeros(8, 8, 1, n_s, m)
            path = tmp_path / "fuzz.gsd"
            save_gsd(dset, path)
            assert path.stat().st_size == 17 + 2 * n_s + 2 * n_s * m * 9
            loaded = load_gsd(path)
            assert loaded.num_images == n_s
            assert loaded.gaussians_per_image == m

    def test_corrupt_magic_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        dset = make_random_set(rng, 8, 8, 3, 1, 2)
        path = tmp_path / "set.gsd"
        save_gsd(dset, path)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            load_gsd(path)

    def test_size_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(4)
        dset = make_random_set(rng, 8, 8, 3, 1, 2)
        path = tmp_path / "set.gsd"
        save_gsd(dset, path)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(ValueError, match="size"):
            load_gsd(path)

    def test_version_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        dset = make_random_set(rng, 8, 8, 3, 1, 2)
        path = tmp_path / "set.gsd"
        save_gsd(dset, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_gsd(path)

    @pytest.mark.parametrize("field,geometry", [
        ("width", dict(width=70000)),
        ("height", dict(height=70000)),
        ("channel count", dict(channels=300)),
        ("image count", dict(num_images=70000)),
        ("Gaussians per image", dict(num_images=0, m=70000)),
        ("class count", dict(num_classes=70000)),
    ], ids=["width", "height", "channels", "images", "gaussians", "classes"])
    def test_header_field_limits(self, tmp_path, field, geometry):
        g = dict(width=8, height=8, channels=3, num_images=1, m=0,
                 num_classes=1) | geometry
        dset = DistilledSet.zeros(g["width"], g["height"], g["channels"],
                                  g["num_images"], g["m"],
                                  num_classes=g["num_classes"])
        path = tmp_path / "set.gsd"
        with pytest.raises(ValueError, match=field):
            save_gsd(dset, path)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [
        np.nan, np.inf, -np.inf, 1e39, BF16_INF_FROM, -BF16_INF_FROM,
        np.finfo(np.float64).max])
    def test_unstorable_parameter_rejected(self, tmp_path, bad):
        dset = DistilledSet.zeros(8, 8, 3, 2, 3)
        dset.params[(3 + 2) * 9 + 4] = bad   # image 1, Gaussian 2, l22
        path = tmp_path / "set.gsd"
        # and without the float32 cast's overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"image 1, Gaussian 2: the "
                                                 r"bf16 container holds only"):
                save_gsd(dset, path)
        assert not path.exists()

    def test_largest_storable_magnitude(self, tmp_path):
        # the largest float64 that bf16 rounding keeps finite saves and
        # loads back as the largest bf16 value; the next float64 up fails.
        # So does a float64 just above the largest bf16 value, which rounds
        # down to it.
        bf16_max = float(np.uint32(0x7F7F0000).view(np.float32))
        edge = np.nextafter(BF16_INF_FROM, 0.0)
        dset = DistilledSet.zeros(8, 8, 3, 1, 1)
        dset.params[:4] = [edge, -edge, np.nextafter(bf16_max, np.inf),
                           bf16_max]
        path = tmp_path / "set.gsd"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            save_gsd(dset, path)
        assert np.array_equal(load_gsd(path).params[:4],
                              [bf16_max, -bf16_max, bf16_max, bf16_max])
        assert np.nextafter(edge, np.inf) == BF16_INF_FROM
        dset.params[0] = BF16_INF_FROM
        with pytest.raises(ValueError, match="image 0, Gaussian 0"):
            save_gsd(dset, tmp_path / "over.gsd")

    def test_header_field_maxima_roundtrip(self, tmp_path):
        dset = DistilledSet.zeros(65535, 65535, 255, 1, 0, num_classes=65535)
        path = tmp_path / "set.gsd"
        save_gsd(dset, path)
        loaded = load_gsd(path)
        assert (loaded.width, loaded.height, loaded.channels,
                loaded.num_classes) == (65535, 65535, 255, 65535)


class TestExport:
    def test_half_gray_rounds_up(self, tmp_path):
        img = ImageBuffer.from_array(np.zeros((2, 2, 3)))
        stats = (np.full(3, 0.5), np.full(3, 0.5))
        data = denormalize_to_bytes(img, stats)
        assert np.all(data == 128)  # 0.5*255 = 127.5 rounds half-up

    def test_clamping(self):
        img = ImageBuffer.from_array(np.full((1, 1, 3), 9.0))
        assert np.all(denormalize_to_bytes(img, None) == 255)
        img = ImageBuffer.from_array(np.full((1, 1, 3), -9.0))
        assert np.all(denormalize_to_bytes(img, None) == 0)

    def test_ppm_layout_2x1(self, tmp_path):
        img = ImageBuffer.from_array(
            np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]))
        path = tmp_path / "img.ppm"
        export_image(img, None, path)
        blob = path.read_bytes()
        header = b"P6\n2 1\n255\n"
        assert blob.startswith(header)
        assert len(blob) == len(header) + 6
        assert blob[len(header):] == bytes([255, 0, 0, 0, 255, 0])

    def test_ppm_reimport_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        arr = rng.uniform(-0.2, 1.2, (5, 7, 3))
        img = ImageBuffer.from_array(arr)
        stats = (np.full(3, 0.1), np.full(3, 0.9))
        path = tmp_path / "img.ppm"
        export_image(img, stats, path)
        back = load_ppm(path)
        assert np.array_equal(back, denormalize_to_bytes(img, stats))

    def test_plain_array_exports_like_buffer(self, tmp_path):
        # the header's size comes from the array, so no buffer is needed
        arr = np.random.default_rng(8).uniform(0.0, 1.0, (3, 5, 1))
        export_image(arr, None, tmp_path / "array.ppm")
        export_image(ImageBuffer.from_array(arr), None, tmp_path / "buf.ppm")
        blob = (tmp_path / "array.ppm").read_bytes()
        assert blob.startswith(b"P6\n5 3\n255\n")
        assert blob == (tmp_path / "buf.ppm").read_bytes()

    def test_grayscale_replicated(self, tmp_path):
        img = ImageBuffer.from_array(np.full((2, 2, 1), 0.5))
        path = tmp_path / "gray.ppm"
        export_image(img, None, path)
        back = load_ppm(path)
        assert back.shape == (2, 2, 3)
        assert len(np.unique(back)) == 1


class TestStatsSidecar:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "stats.json"
        save_stats(path, np.array([0.1, 0.2, 0.3]), np.array([1.0, 2.0, 3.0]))
        mean, std = load_stats(path)
        assert np.array_equal(mean, [0.1, 0.2, 0.3])
        assert np.array_equal(std, [1.0, 2.0, 3.0])


class TestCsv:
    def test_write(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, "a,b", [(1, 2), (3, 4)])
        assert path.read_text() == "a,b\n1,2\n3,4\n"


def _write_then(name, data, read):
    """A reader for ``tmp_path``: writes ``data`` to ``name`` there and
    calls ``read`` on the path."""
    def run(tmp_path):
        path = tmp_path / name
        path.write_bytes(data)
        return read(path)
    return run


STATS = (np.zeros(3), np.ones(3))


@pytest.mark.parametrize("build, message", [
    (lambda tmp: LabeledImageDataset(np.zeros((2, 4, 4)), [0, 1], 2,
                                     *STATS),
     r"images must be \(N, H, W, C\)"),
    (lambda tmp: LabeledImageDataset(np.zeros((2, 4, 4, 3)), [0], 2,
                                     *STATS),
     "labels length != image count"),
    (lambda tmp: LabeledImageDataset(np.zeros((2, 4, 4, 3)), [0, 2], 2,
                                     *STATS),
     "labels out of range"),
    (lambda tmp: load_cifar_binary(tmp / "none.bin", classes=20),
     "classes must be 10 or 100"),
    (lambda tmp: write_cifar_binary(np.zeros((1, 16, 16, 3)), [0],
                                    tmp / "small.bin"),
     "CIFAR layout requires 32x32x3 images"),
    (lambda tmp: write_cifar_binary(np.zeros((0, 32, 32, 3)), [],
                                    tmp / "empty.bin"),
     "no images to write"),
    (_write_then("short.gsd", data_io.GSD_MAGIC + bytes(12), load_gsd),
     "truncated header"),
    (lambda tmp: export_image(np.zeros((2, 2, 2)), None, tmp / "two.ppm"),
     "export supports 1- or 3-channel images"),
    (_write_then("p5.ppm", b"P5\n1 1\n255\n" + bytes(1), load_ppm),
     "not a binary PPM"),
    (_write_then("deep.ppm", b"P6\n1 1\n65535\n" + bytes(6), load_ppm),
     "unsupported maxval b'65535'"),
])
def test_invalid_input_rejected(tmp_path, build, message):
    with pytest.raises(ValueError, match=message):
        build(tmp_path)
