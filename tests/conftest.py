"""Shared helpers for the test suite."""

from __future__ import annotations

from dataclasses import replace
from datetime import datetime, timedelta, timezone
from typing import NamedTuple

import numpy as np
import pytest

from scootertrips.geo import GeoPoint, haversine_m
from scootertrips.ingest import ScooterObservation, SnapshotBatch
from scootertrips.trips import TripTable

UTC = timezone.utc

# 2019-02-04 17:00 UTC == 12:00 EST, comfortably inside one local day
BASE_TS = datetime(2019, 2, 4, 17, 0, 0, tzinfo=UTC)

CITY = GeoPoint(33.77, -84.39)


def batch(offset_s: int, observations, base: datetime = BASE_TS) -> SnapshotBatch:
    """A SnapshotBatch at base + offset_s holding the observations in order."""
    observations = list(observations)
    return SnapshotBatch(
        base + timedelta(seconds=offset_s),
        [o.scooter_id for o in observations],
        np.array([o.position.lat for o in observations], dtype=np.float64),
        np.array([o.position.lon for o in observations], dtype=np.float64),
    )


def obs(scooter_id: str, point: GeoPoint) -> ScooterObservation:
    return ScooterObservation(scooter_id, point)


class Row(NamedTuple):
    """One TripTable row as Python values; the association fields stay None
    for a table that was not associated."""

    scooter_id: str
    origin: GeoPoint
    destination: GeoPoint
    start_ts: datetime
    end_ts: datetime
    displacement_m: float
    origin_poi: str | None = None
    origin_dist_m: float | None = None
    dest_poi: str | None = None
    dest_dist_m: float | None = None
    origin_reassigned: bool = False


def table_of(rows) -> TripTable:
    """A TripTable holding rows in order. It gets association columns when the
    rows carry POIs, and always when there are no rows."""
    rows = list(rows)
    scooters: dict[str, int] = {}
    scooter = np.array([scooters.setdefault(r.scooter_id, len(scooters)) for r in rows], dtype=np.int64)
    table = TripTable(
        ids=list(scooters),
        scooter=scooter,
        start=np.array([int(r.start_ts.timestamp()) for r in rows], dtype=np.int64),
        end=np.array([int(r.end_ts.timestamp()) for r in rows], dtype=np.int64),
        origin_lat=np.array([r.origin.lat for r in rows], dtype=np.float64),
        origin_lon=np.array([r.origin.lon for r in rows], dtype=np.float64),
        dest_lat=np.array([r.destination.lat for r in rows], dtype=np.float64),
        dest_lon=np.array([r.destination.lon for r in rows], dtype=np.float64),
        displacement=np.array([r.displacement_m for r in rows], dtype=np.float64),
    )
    if rows and rows[0].origin_poi is None:
        return table
    pois: dict[str, int] = {}
    origin_poi = np.array([pois.setdefault(r.origin_poi, len(pois)) for r in rows], dtype=np.int64)
    dest_poi = np.array([pois.setdefault(r.dest_poi, len(pois)) for r in rows], dtype=np.int64)
    return replace(
        table,
        poi_ids=list(pois),
        origin_poi=origin_poi,
        origin_dist=np.array([r.origin_dist_m for r in rows], dtype=np.float64),
        dest_poi=dest_poi,
        dest_dist=np.array([r.dest_dist_m for r in rows], dtype=np.float64),
        reassigned=np.array([r.origin_reassigned for r in rows], dtype=bool),
    )


def rows(table: TripTable) -> list[Row]:
    """The rows of a TripTable, in order."""
    def utc(seconds):
        return [datetime.fromtimestamp(t, UTC) for t in seconds.tolist()]

    base = zip(
        map(table.ids.__getitem__, table.scooter.tolist()),
        map(GeoPoint, table.origin_lat.tolist(), table.origin_lon.tolist()),
        map(GeoPoint, table.dest_lat.tolist(), table.dest_lon.tolist()),
        utc(table.start),
        utc(table.end),
        table.displacement.tolist(),
    )
    if table.origin_poi is None:
        return [Row(*r) for r in base]
    assoc = zip(
        map(table.poi_ids.__getitem__, table.origin_poi.tolist()),
        table.origin_dist.tolist(),
        map(table.poi_ids.__getitem__, table.dest_poi.tolist()),
        table.dest_dist.tolist(),
        table.reassigned.tolist(),
    )
    return [Row(*r, *a) for r, a in zip(base, assoc)]


def make_trip(
    scooter_id: str = "S",
    origin: GeoPoint = CITY,
    destination: GeoPoint | None = None,
    start_offset_s: int = 0,
    duration_s: int = 600,
    displacement_m: float | None = None,
    base: datetime = BASE_TS,
) -> Row:
    destination = destination if destination is not None else origin
    start = base + timedelta(seconds=start_offset_s)
    disp = displacement_m if displacement_m is not None else haversine_m(origin, destination)
    return Row(
        scooter_id=scooter_id,
        origin=origin,
        destination=destination,
        start_ts=start,
        end_ts=start + timedelta(seconds=duration_s),
        displacement_m=disp,
    )


def brute_force_nearest(points: list[tuple[str, GeoPoint]], query: GeoPoint, k: int) -> list[tuple[str, float]]:
    """Linear-scan oracle: ascending great-circle distance, ties by id."""
    scored = sorted((haversine_m(query, p), pid) for pid, p in points)
    return [(pid, d) for d, pid in scored[:k]]


@pytest.fixture
def city() -> GeoPoint:
    return CITY
