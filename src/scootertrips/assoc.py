"""Link trip endpoints to their nearest POIs and run the distance-threshold
sensitivity analysis.

When origin and destination resolve to the same POI, the origin moves to its
second-nearest POI; destination assignments are treated as the more reliable
side and never reassigned.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DanglingPoiReference, EmptyCatalog
from .geo import GeoPoint, SpatialIndex, build_spatial_index, nearest_k_batch
from .poi import Poi
from .ingest import format_ts, parse_ts
from .trips import TRIP_CSV_COLUMNS, RawTrip, Trip

log = logging.getLogger(__name__)

ASSOC_CSV_COLUMNS = TRIP_CSV_COLUMNS + (
    "origin_poi",
    "origin_dist_m",
    "dest_poi",
    "dest_dist_m",
    "origin_reassigned",
)


@dataclass(frozen=True)
class AssociatedTrip:
    trip: Trip
    origin_poi: str
    origin_dist_m: float
    dest_poi: str
    dest_dist_m: float
    origin_reassigned: bool = False


@dataclass
class SensitivityTable:
    endpoint: str
    thresholds: list[float]
    groups: list[str]
    counts: np.ndarray  # (groups, thresholds) cumulative trip counts
    percents: np.ndarray


def catalog_index(catalog: Sequence[Poi]) -> SpatialIndex:
    return build_spatial_index((p.id, p.position) for p in catalog)


def associate(trips: Sequence[Trip], index: SpatialIndex) -> list[AssociatedTrip]:
    """Attach the nearest POI (id + distance) to each trip endpoint.

    Matches a brute-force scan ordered by (distance, id). With a single-POI
    catalog both endpoints share that POI and reassignment is impossible;
    the collision count is logged.
    """
    n = len(index)
    if n == 0:
        raise EmptyCatalog("cannot associate trips against an empty catalog")
    if not trips:
        return []
    o_rows, o_dist = nearest_k_batch(index, [t.origin.lat for t in trips], [t.origin.lon for t in trips], k=2)
    d_rows, d_dist = nearest_k_batch(index, [t.destination.lat for t in trips], [t.destination.lon for t in trips], k=1)
    reassigned = o_rows[:, 0] == d_rows[:, 0] if n > 1 else np.zeros(len(trips), dtype=bool)
    pick = np.arange(len(trips)), reassigned.astype(np.intp)
    o_poi, o_m = o_rows[pick].tolist(), o_dist[pick].tolist()
    d_poi, d_m = d_rows[:, 0].tolist(), d_dist[:, 0].tolist()
    ids = index.ids
    out = [
        AssociatedTrip(
            trip=trip,
            origin_poi=ids[o_poi[i]],
            origin_dist_m=o_m[i],
            dest_poi=ids[d_poi[i]],
            dest_dist_m=d_m[i],
            origin_reassigned=r,
        )
        for i, (trip, r) in enumerate(zip(trips, reassigned.tolist()))
    ]
    if n == 1:
        log.warning("%d trips could not be reassigned away from a shared POI (single-POI catalog)", len(trips))
    return out


def sensitivity(
    associated: Sequence[AssociatedTrip],
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
    by_id = {p.id: p for p in catalog}
    group_pos = {g: i for i, g in enumerate(groups)}
    counts = np.zeros((len(groups), len(thresholds)), dtype=np.int64)
    th = np.asarray(thresholds, dtype=np.float64)
    for a in associated:
        pid = a.origin_poi if endpoint == "origin" else a.dest_poi
        dist = a.origin_dist_m if endpoint == "origin" else a.dest_dist_m
        poi = by_id.get(pid)
        if poi is None:
            raise DanglingPoiReference(f"associated trip references unknown POI {pid!r}")
        gi = group_pos[poi.group]
        ti = int(np.searchsorted(th, dist, side="left"))
        if ti < len(thresholds):
            counts[gi, ti] += 1
    counts = np.cumsum(counts, axis=1)
    totals = counts.sum(axis=0).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        percents = np.where(totals > 0, counts / totals * 100.0, 0.0)
    return SensitivityTable(
        endpoint=endpoint, thresholds=thresholds, groups=list(groups), counts=counts, percents=percents
    )


def apply_threshold(
    associated: Sequence[AssociatedTrip], cutoff_m: float = 50.0, endpoint: str = "both"
) -> list[AssociatedTrip]:
    """Keep trips associated at cutoff_m or less.

    endpoint selects which distance must qualify: "both" (the default used for
    purpose analysis) or a single side, as the per-endpoint sensitivity
    breakdowns use.
    """
    if cutoff_m < 0:
        raise ValueError("cutoff_m must be >= 0")
    if endpoint == "both":
        return [a for a in associated if a.origin_dist_m <= cutoff_m and a.dest_dist_m <= cutoff_m]
    if endpoint == "origin":
        return [a for a in associated if a.origin_dist_m <= cutoff_m]
    if endpoint == "destination":
        return [a for a in associated if a.dest_dist_m <= cutoff_m]
    raise ValueError(f"endpoint must be both, origin, or destination, got {endpoint!r}")


def write_associated_csv(associated: Iterable[AssociatedTrip], path) -> int:
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ASSOC_CSV_COLUMNS)
        for a in associated:
            t = a.trip
            writer.writerow(
                [
                    t.scooter_id,
                    repr(float(t.origin.lat)),
                    repr(float(t.origin.lon)),
                    repr(float(t.destination.lat)),
                    repr(float(t.destination.lon)),
                    format_ts(t.start_ts),
                    format_ts(t.end_ts),
                    repr(float(t.displacement_m)),
                    a.origin_poi,
                    repr(float(a.origin_dist_m)),
                    a.dest_poi,
                    repr(float(a.dest_dist_m)),
                    "true" if a.origin_reassigned else "false",
                ]
            )
            n += 1
    return n


def read_associated_csv(path) -> list[AssociatedTrip]:
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for i, row in enumerate(reader, 2):
            trip = RawTrip(
                scooter_id=row["scooter_id"],
                origin=GeoPoint(float(row["origin_lat"]), float(row["origin_lon"])),
                destination=GeoPoint(float(row["dest_lat"]), float(row["dest_lon"])),
                start_ts=parse_ts(row["start_ts"], i),
                end_ts=parse_ts(row["end_ts"], i),
                displacement_m=float(row["displacement_m"]),
            )
            out.append(
                AssociatedTrip(
                    trip=trip,
                    origin_poi=row["origin_poi"],
                    origin_dist_m=float(row["origin_dist_m"]),
                    dest_poi=row["dest_poi"],
                    dest_dist_m=float(row["dest_dist_m"]),
                    origin_reassigned=row["origin_reassigned"] == "true",
                )
            )
    return out


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
