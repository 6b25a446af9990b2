"""Work counts of a forward render, computed by the benchmark itself.

Records and tiles come from gsdd's public ``build_intersection_records``.
Pairs and their useful share follow the README's definitions: the pixel
covariance is ``diag(W/2, H/2) L L^T diag(W/2, H/2)`` with the diagonal of
``L`` floored at 1e-6 in magnitude, plus ``diag(1/12, 1/12)`` with the
prefilter; pixel ``i`` has its center at ``i``; a sample contributes only
inside the Mahalanobis ball ``q < cutoff^2``.
"""

from __future__ import annotations

import numpy as np

from gsdd.core import PARAMS_PER_GAUSSIAN, TileLayout
from gsdd.raster import build_intersection_records, ssaa_offsets

CHOLESKY_FLOOR = 1e-6
PREFILTER_VARIANCE = 1.0 / 12.0
FLOAT64_BYTES = 8


def _pixel_gaussians(dset, cfg):
    p = dset.params.reshape(-1, PARAMS_PER_GAUSSIAN)
    sx, sy = cfg.width / 2.0, cfg.height / 2.0
    a = np.maximum(np.abs(p[:, 2]), CHOLESKY_FLOOR)
    b = p[:, 3]
    c = np.maximum(np.abs(p[:, 4]), CHOLESKY_FLOOR)
    c00 = a * a * sx * sx
    c01 = a * b * sx * sy
    c11 = (b * b + c * c) * sy * sy
    if cfg.prefilter:
        c00 = c00 + PREFILTER_VARIANCE
        c11 = c11 + PREFILTER_VARIANCE
    det = c00 * c11 - c01 * c01
    mu_x = (p[:, 0] + 1.0) * 0.5 * cfg.width - 0.5
    mu_y = (p[:, 1] + 1.0) * 0.5 * cfg.height - 0.5
    return mu_x, mu_y, c11 / det, -c01 / det, c00 / det


def forward_counts(dset, cfg) -> dict[str, int]:
    """Records, non-empty tiles, the largest tile, sample x record pairs and
    the pairs inside the cutoff ball, for one forward call."""
    records, _ = build_intersection_records(dset, cfg)
    layout = TileLayout.for_geometry(cfg.width, cfg.height, cfg.tile_size,
                                     dset.num_images)
    tiles, starts, sizes = np.unique(records.global_tile_ids,
                                     return_index=True, return_counts=True)
    mu_x, mu_y, i00, i01, i11 = _pixel_gaussians(dset, cfg)
    offsets = np.asarray(ssaa_offsets(cfg.ssaa_factor), dtype=np.float64)
    limit = cfg.cutoff_sigma ** 2
    pairs = useful = 0
    for tile, start, size in zip(tiles.tolist(), starts.tolist(),
                                 sizes.tolist()):
        ty, tx = divmod(tile % layout.tiles_per_image, layout.tiles_x)
        x0, y0 = tx * cfg.tile_size, ty * cfg.tile_size
        px = np.arange(x0, min(x0 + cfg.tile_size, cfg.width), dtype=float)
        py = np.arange(y0, min(y0 + cfg.tile_size, cfg.height), dtype=float)
        shape = (py.size, px.size, offsets.shape[0])
        xs = np.broadcast_to(px[:, None] + offsets[:, 0], shape).reshape(-1)
        ys = np.broadcast_to((py[:, None] + offsets[:, 1])[:, None],
                             shape).reshape(-1)
        g = records.gaussian_flat_indices[start:start + size]
        dx = xs[:, None] - mu_x[g]
        dy = ys[:, None] - mu_y[g]
        q = i00[g] * dx * dx + 2.0 * i01[g] * dx * dy + i11[g] * dy * dy
        pairs += q.size
        useful += int(np.count_nonzero(q < limit))
    return {"records": len(records), "tiles": int(tiles.size),
            "max_tile": int(sizes.max()) if sizes.size else 0,
            "pairs": pairs, "useful": useful}


def raster_metrics(captures) -> dict[str, float]:
    """Per-call means over the captured forward calls; ratios of sums.
    All read 0 when no forward call was captured."""
    totals = {"records": 0, "tiles": 0, "pairs": 0, "useful": 0}
    largest = 0
    for dset, cfg in captures:
        c = forward_counts(dset, cfg)
        for key in totals:
            totals[key] += c[key]
        largest = max(largest, c["max_tile"])
    calls = max(len(captures), 1)
    return {
        "raster.records": totals["records"] / calls,
        "raster.tiles": totals["tiles"] / calls,
        "raster.records_per_tile_mean":
            totals["records"] / max(totals["tiles"], 1),
        "raster.records_per_tile_max": largest,
        "raster.pairs": totals["pairs"] / calls,
        "raster.useful_pair_frac": totals["useful"] / max(totals["pairs"], 1),
        # one float64 per pair: the size of each per-pair temporary
        "raster.bytes_computed": FLOAT64_BYTES * totals["pairs"] / calls,
    }
