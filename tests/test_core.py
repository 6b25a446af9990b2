import numpy as np
import pytest

from gsdd.core import (
    BudgetSpec,
    DistilledSet,
    F_ALPHA,
    F_U,
    F_V,
    RenderConfig,
    TileLayout,
    budget_points,
    clip_positions,
    normalized_to_pixel,
)
from gsdd.raster import _TileSchedule, build_intersection_records


class TestBudgetPoints:
    @pytest.mark.parametrize("res,ipc,gpc,expected", [
        (32, 1, 30, 22),
        (128, 1, 64, 170),
        (32, 50, 250, 136),
        (32, 10, 160, 42),
    ])
    def test_reference_budgets(self, res, ipc, gpc, expected):
        assert budget_points(BudgetSpec(res, 3, ipc=ipc, gpc=gpc)) == expected

    def test_too_small_budget_rejected(self):
        with pytest.raises(ValueError):
            budget_points(BudgetSpec(2, 1, ipc=1, gpc=100))

    def test_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            res = int(rng.integers(8, 129))
            ipc = int(rng.integers(1, 51))
            gpc = int(rng.integers(1, 101))
            try:
                base = budget_points(BudgetSpec(res, 3, ipc=ipc, gpc=gpc))
            except ValueError:
                continue
            assert budget_points(BudgetSpec(res, 3, ipc=ipc, gpc=gpc + 1)) <= base
            assert budget_points(BudgetSpec(res, 3, ipc=ipc + 1, gpc=gpc)) >= base
            assert budget_points(BudgetSpec(res + 1, 3, ipc=ipc, gpc=gpc)) >= base


def every_tile_schedule(width, height, batch, tile_size):
    """The tile schedule of a set at infinite cutoff, where every Gaussian
    lands on every tile of its image, so tile ``t`` is global tile ``t``."""
    dset = DistilledSet.zeros(width, height, 3, batch, 1)
    cfg = RenderConfig(width, height, 3, cutoff_sigma=np.inf,
                       tile_size=tile_size)
    sched = _TileSchedule(dset, cfg)
    tiles = batch * sched.layout.tiles_per_image
    assert np.array_equal(sched.tile_ids, np.arange(tiles))
    return sched


class TestTileIds:
    """Global tile id = image * tiles_per_image + local tile, where the
    local tile is row-major over the image's tile grid."""

    def test_examples(self):
        sched = every_tile_schedule(80, 16, batch=3, tile_size=16)
        assert sched.layout == TileLayout(tiles_x=5, tiles_y=1, batch=3)
        assert sched.blocks[0] == [0, 0, 16, 0, 16]
        # image 2, local tile 3
        assert sched.blocks[13] == [2, 48, 64, 0, 16]

    def test_bijection_exhaustive(self):
        for w, h in ((8, 8), (24, 8), (64, 16), (64, 64)):
            sched = every_tile_schedule(w, h, batch=16, tile_size=8)
            layout = sched.layout
            m_t = layout.tiles_per_image
            blocks = [tuple(b) for b in sched.blocks]
            assert len(set(blocks)) == len(blocks) == 16 * m_t
            for t, (i, x0, _, y0, _) in enumerate(blocks):
                assert (i, (y0 // 8) * layout.tiles_x + x0 // 8) == \
                    divmod(t, m_t)

    def test_records_use_global_ids(self):
        # infinite cutoff: every Gaussian lands on every tile of its image
        dset = DistilledSet.zeros(24, 16, 3, 3, 2)
        cfg = RenderConfig(24, 16, 3, cutoff_sigma=np.inf, tile_size=8)
        records, layout = build_intersection_records(dset, cfg)
        image, _ = np.divmod(records.global_tile_ids, layout.tiles_per_image)
        assert np.array_equal(image, records.gaussian_flat_indices // 2)
        assert np.array_equal(np.unique(records.global_tile_ids),
                              np.arange(3 * layout.tiles_per_image))

    def test_layout_geometry(self):
        layout = TileLayout.for_geometry(33, 16, 16, batch=4)
        assert (layout.tiles_x, layout.tiles_y) == (3, 1)
        assert layout.tiles_per_image == 3


class TestParamOffset:
    def test_examples(self):
        # field f of Gaussian k of image i lives at (i*M + k)*9 + f
        dset = DistilledSet(8, 8, 3, 2, 22, np.arange(2 * 22 * 9, dtype=float),
                            np.zeros(2, dtype=int))
        assert dset.field_view(F_U)[0] == 0
        assert dset.field_view(F_U)[1 * 22 + 0] == 198
        assert dset.field_view(F_U)[0 * 22 + 3] == 27
        assert dset.field_view(F_ALPHA)[1 * 22 + 3] == (22 + 3) * 9 + 8
        assert dset.subset([1]).params[3 * 9] == 225


class TestCoordinateMap:
    def test_examples(self):
        assert normalized_to_pixel(0, 0, 32, 32) == (15.5, 15.5)
        assert normalized_to_pixel(-1, -1, 32, 32) == (-0.5, -0.5)
        assert normalized_to_pixel(1, 1, 64, 32) == (63.5, 31.5)

    def test_pixel_center_roundtrip(self):
        # exact for power-of-two dimensions (dyadic arithmetic throughout);
        # within one ulp otherwise (1/W is not representable)
        for w, h, exact in ((32, 32, True), (64, 128, True), (8, 16, True),
                            (17, 5, False), (48, 33, False)):
            px = np.arange(w, dtype=np.float64)
            py = np.arange(h, dtype=np.float64)
            u = 2.0 * (px + 0.5) / w - 1.0
            v = 2.0 * (py + 0.5) / h - 1.0
            rx, _ = normalized_to_pixel(u, np.zeros_like(u), w, h)
            _, ry = normalized_to_pixel(np.zeros_like(v), v, w, h)
            if exact:
                assert np.array_equal(rx, px)
                assert np.array_equal(ry, py)
            else:
                assert np.max(np.abs(rx - px)) < 1e-12
                assert np.max(np.abs(ry - py)) < 1e-12

    def test_affine_and_monotone(self):
        u = np.linspace(-1, 1, 41)
        px, _ = normalized_to_pixel(u, u, 40, 40)
        steps = np.diff(px)
        assert np.all(steps > 0)
        assert np.allclose(steps, steps[0], atol=1e-12)


class TestClipPositions:
    def _set_with_positions(self, coords):
        n = len(coords)
        params = np.zeros(n * 9)
        for i, (u, v) in enumerate(coords):
            params[i * 9 + F_U] = u
            params[i * 9 + F_V] = v
            params[i * 9 + 2] = 0.5
            params[i * 9 + 4] = 0.5
        return DistilledSet(8, 8, 3, 1, n, params, np.zeros(1, dtype=np.int64))

    def test_examples(self):
        dset = self._set_with_positions([(1.5, 0.0), (-0.5, 0.2), (-2.0, 0.9)])
        clip_positions(dset, 1e-3)
        u = dset.field_view(F_U)
        assert u[0] == 0.999
        assert u[1] == -0.5
        assert u[2] == -0.999

    def test_idempotent_and_other_fields_untouched(self):
        rng = np.random.default_rng(1)
        params = rng.normal(0, 2, 5 * 9)
        dset = DistilledSet(8, 8, 3, 1, 5, params.copy(),
                            np.zeros(1, dtype=np.int64))
        clip_positions(dset)
        once = dset.params.copy()
        clip_positions(dset)
        assert np.array_equal(dset.params, once)
        mask = np.ones(45, dtype=bool)
        mask[F_U::9] = False
        mask[F_V::9] = False
        assert np.array_equal(dset.params[mask], params[mask])

    def test_bad_eps(self):
        dset = self._set_with_positions([(0.0, 0.0)])
        with pytest.raises(ValueError):
            clip_positions(dset, 0.0)
        with pytest.raises(ValueError):
            clip_positions(dset, 1.0)


class TestDistilledSet:
    def test_layout_validation(self):
        with pytest.raises(ValueError):
            DistilledSet(8, 8, 3, 2, 4, np.zeros(71), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            DistilledSet(8, 8, 3, 2, 4, np.zeros(72), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            DistilledSet(8, 8, 3, 2, 4, np.zeros(72),
                         np.array([0, 5]), num_classes=2)

    def test_subset_copies(self):
        dset = DistilledSet(8, 8, 3, 3, 2, np.arange(54, dtype=float),
                            np.array([0, 1, 2]), num_classes=3)
        sub = dset.subset([2, 0])
        assert sub.num_images == 2
        assert np.array_equal(sub.labels, [2, 0])
        assert np.array_equal(sub.params[:18], np.arange(36, 54))
        sub.params[0] = -1.0
        assert dset.params[36] == 36.0

    def test_gaussian_accessors(self):
        dset = DistilledSet.zeros(8, 8, 3, 2, 3)
        dset.field_view(F_U)[1 * 3 + 2] = 0.25
        dset.field_view(F_ALPHA)[1 * 3 + 2] = 2.0
        assert dset.params[(1 * 3 + 2) * 9 + F_U] == 0.25
        assert dset.params[(1 * 3 + 2) * 9 + F_ALPHA] == 2.0
        assert np.count_nonzero(dset.params) == 2


@pytest.mark.parametrize("build, message", [
    (lambda: DistilledSet(0, 8, 3, 1, 1, np.zeros(9), [0]),
     "image geometry must be positive"),
    (lambda: DistilledSet(8, -1, 3, 1, 1, np.zeros(9), [0]),
     "image geometry must be positive"),
    (lambda: DistilledSet(8, 8, 0, 1, 1, np.zeros(9), [0]),
     "image geometry must be positive"),
    (lambda: DistilledSet(8, 8, 3, -1, 1, np.zeros(0), []),
     "counts must be nonnegative"),
    (lambda: DistilledSet(8, 8, 3, 1, -1, np.zeros(0), [0]),
     "counts must be nonnegative"),
    (lambda: DistilledSet(8, 8, 3, 1, 1, np.zeros(9), [0], num_classes=0),
     "num_classes must be positive"),
    (lambda: BudgetSpec(0, 3, ipc=1, gpc=1), "resolution must be positive"),
    (lambda: BudgetSpec(32, 0, ipc=1, gpc=1), "channels must be positive"),
    (lambda: BudgetSpec(32, 3, ipc=-1, gpc=1), "ipc must be positive"),
    (lambda: BudgetSpec(32, 3, ipc=1, gpc=0), "gpc must be positive"),
])
def test_invalid_input_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()
