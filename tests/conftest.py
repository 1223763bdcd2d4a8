"""Shared helpers for the test suite."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest

from scootertrips.geo import GeoPoint, haversine_m
from scootertrips.ingest import ScooterObservation, SnapshotBatch
from scootertrips.trips import RawTrip

UTC = timezone.utc

# 2019-02-04 17:00 UTC == 12:00 EST, comfortably inside one local day
BASE_TS = datetime(2019, 2, 4, 17, 0, 0, tzinfo=UTC)

CITY = GeoPoint(33.77, -84.39)


def batch(offset_s: int, observations, base: datetime = BASE_TS) -> SnapshotBatch:
    return SnapshotBatch.from_observations(base + timedelta(seconds=offset_s), observations)


def obs(scooter_id: str, point: GeoPoint) -> ScooterObservation:
    return ScooterObservation(scooter_id, point)


def make_trip(
    scooter_id: str = "S",
    origin: GeoPoint = CITY,
    destination: GeoPoint | None = None,
    start_offset_s: int = 0,
    duration_s: int = 600,
    displacement_m: float | None = None,
    base: datetime = BASE_TS,
) -> RawTrip:
    destination = destination if destination is not None else origin
    start = base + timedelta(seconds=start_offset_s)
    disp = displacement_m if displacement_m is not None else haversine_m(origin, destination)
    return RawTrip(
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
