"""Link trip endpoints to their nearest POIs and run the distance-threshold
sensitivity analysis.

When origin and destination resolve to the same POI, the origin moves to its
second-nearest POI; destination assignments are treated as the more reliable
side and never reassigned.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DanglingPoiReference, EmptyCatalog
from .geo import SpatialIndex, build_spatial_index, nearest_k_batch
from .poi.catalog import Poi
from .trips import ASSOC_CSV, TripTable, read_table_csv, write_table_csv

log = logging.getLogger(__name__)


@dataclass
class SensitivityTable:
    endpoint: str
    thresholds: list[float]
    groups: list[str]
    counts: np.ndarray  # (groups, thresholds) cumulative trip counts
    percents: np.ndarray


def catalog_index(catalog: Sequence[Poi]) -> SpatialIndex:
    return build_spatial_index((p.id, p.position) for p in catalog)


def associate(trips: TripTable, index: SpatialIndex) -> TripTable:
    """Attach the nearest POI (id + distance) to each trip endpoint.

    Matches a brute-force scan ordered by (distance, id). With a single-POI
    catalog both endpoints share that POI and reassignment is impossible;
    the collision count is logged.
    """
    n = len(index)
    if n == 0:
        raise EmptyCatalog("cannot associate trips against an empty catalog")
    o_rows, o_dist = nearest_k_batch(index, trips.origin_lat, trips.origin_lon, k=2)
    d_rows, d_dist = nearest_k_batch(index, trips.dest_lat, trips.dest_lon, k=1)
    reassigned = o_rows[:, 0] == d_rows[:, 0] if n > 1 else np.zeros(len(trips), dtype=bool)
    pick = np.arange(len(trips)), reassigned.astype(np.intp)
    if n == 1 and len(trips):
        log.warning("%d trips could not be reassigned away from a shared POI (single-POI catalog)", len(trips))
    return replace(
        trips,
        poi_ids=index.ids,
        origin_poi=o_rows[pick].astype(np.int64),
        origin_dist=o_dist[pick],
        dest_poi=d_rows[:, 0].astype(np.int64),
        dest_dist=d_dist[:, 0],
        reassigned=reassigned,
    )


def referenced_pois(trips: TripTable, codes: np.ndarray, catalog: Sequence[Poi]) -> dict[int, Poi]:
    """The catalog POI behind every distinct code into trips.poi_ids in codes;
    a POI missing from the catalog or without a group raises."""
    by_id = {p.id: p for p in catalog}
    out = {}
    for code in np.unique(codes).tolist():
        poi = by_id.get(trips.poi_ids[code])
        if poi is None or poi.group is None:
            raise DanglingPoiReference(f"trip references POI {trips.poi_ids[code]!r} with no catalog group")
        out[code] = poi
    return out


def group_codes(trips: TripTable, codes: np.ndarray, catalog: Sequence[Poi], groups: Sequence[str]) -> np.ndarray:
    """Position in groups of each POI code's group."""
    pos = {g: i for i, g in enumerate(groups)}
    lut = np.zeros(len(trips.poi_ids), dtype=np.int64)
    for code, poi in referenced_pois(trips, codes, catalog).items():
        if poi.group not in pos:
            raise DanglingPoiReference(f"POI {poi.id!r} has group {poi.group!r}, which is not one of {list(groups)}")
        lut[code] = pos[poi.group]
    return lut[codes]


def sensitivity(
    associated: TripTable,
    thresholds: Sequence[float],
    endpoint: str,
    catalog: Sequence[Poi],
    groups: Sequence[str],
) -> SensitivityTable:
    """Cumulative trip counts per POI group as the distance threshold grows."""
    if endpoint not in ("origin", "destination"):
        raise ValueError(f"endpoint must be origin or destination, got {endpoint!r}")
    thresholds = [float(t) for t in thresholds]
    if any(t < 0 for t in thresholds) or sorted(thresholds) != thresholds:
        raise ValueError("thresholds must be ascending and non-negative")
    if endpoint == "origin":
        pois, dist = associated.origin_poi, associated.origin_dist
    else:
        pois, dist = associated.dest_poi, associated.dest_dist
    gi = group_codes(associated, pois, catalog, groups)
    ti = np.searchsorted(np.asarray(thresholds, dtype=np.float64), dist, side="left")
    inside = ti < len(thresholds)  # farther than the largest threshold: counted nowhere
    shape = (len(groups), len(thresholds))
    counts = np.bincount(gi[inside] * shape[1] + ti[inside], minlength=shape[0] * shape[1]).reshape(shape)
    counts = np.cumsum(counts, axis=1)
    totals = counts.sum(axis=0).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        percents = np.where(totals > 0, counts / totals * 100.0, 0.0)
    return SensitivityTable(
        endpoint=endpoint, thresholds=thresholds, groups=list(groups), counts=counts, percents=percents
    )


def apply_threshold(associated: TripTable, cutoff_m: float = 50.0) -> TripTable:
    """Keep trips whose origin and destination are both associated at cutoff_m or less."""
    if cutoff_m < 0:
        raise ValueError("cutoff_m must be >= 0")
    return associated.take((associated.origin_dist <= cutoff_m) & (associated.dest_dist <= cutoff_m))


def write_associated_csv(associated: TripTable, path) -> int:
    return write_table_csv(associated, path, ASSOC_CSV)


def read_associated_csv(path) -> TripTable:
    return read_table_csv(path, ASSOC_CSV)


def write_sensitivity_csv(table: SensitivityTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["endpoint", "group", "threshold_m", "count", "percent"])
        for gi, group in enumerate(table.groups):
            for ti, threshold in enumerate(table.thresholds):
                writer.writerow(
                    [
                        table.endpoint,
                        group,
                        repr(float(threshold)),
                        int(table.counts[gi, ti]),
                        f"{table.percents[gi, ti]:.4f}",
                    ]
                )
