"""Trip reconstruction from per-scooter observation timelines, plus the cleaning filters.

A scooter that reappears away from where it was parked moved while it was
absent: the last update that saw it parked brackets the trip start and the
first update that sees it parked again brackets the end. Timelines reset at
each local midnight, so no trip spans a day boundary.
"""

from __future__ import annotations

import csv
import logging
from array import array
from dataclasses import dataclass
from datetime import datetime, time, timezone
from typing import Iterable
from zoneinfo import ZoneInfo

import numpy as np

from . import kernels
from .errors import InvalidConfig
from .geo import Bbox, GeoPoint
from .ingest import SnapshotBatch, format_ts, parse_ts

log = logging.getLogger(__name__)

DEFAULT_TIMEZONE = "America/New_York"
# GPS jitter below this is not a move; well under the 5 m diagnostic band so
# tiny junk rides still show up in the raw trip set, as the feed produces them.
COLOCATION_EPS_M = 1.0

TRIP_CSV_COLUMNS = (
    "scooter_id",
    "origin_lat",
    "origin_lon",
    "dest_lat",
    "dest_lon",
    "start_ts",
    "end_ts",
    "displacement_m",
)


@dataclass(frozen=True)
class RawTrip:
    scooter_id: str
    origin: GeoPoint
    destination: GeoPoint
    start_ts: datetime
    end_ts: datetime
    displacement_m: float


# Cleaning only filters, so cleaned trips share the shape.
Trip = RawTrip


@dataclass(frozen=True)
class CleaningRules:
    min_displacement_m: float = 75.0
    max_displacement_m: float = 3000.0
    day_start: time = time(7, 0)
    day_end: time = time(21, 0)
    timezone: str = DEFAULT_TIMEZONE

    def __post_init__(self):
        if not (0 <= self.min_displacement_m < self.max_displacement_m):
            raise InvalidConfig(
                f"displacement bounds must satisfy 0 <= min < max, got "
                f"[{self.min_displacement_m}, {self.max_displacement_m}]"
            )
        if self.day_start >= self.day_end:
            raise InvalidConfig(f"day_start {self.day_start} must precede day_end {self.day_end}")

    @classmethod
    def from_dict(cls, obj: dict) -> "CleaningRules":
        kwargs = {}
        for key in ("min_displacement_m", "max_displacement_m"):
            if key in obj:
                kwargs[key] = float(obj[key])
        for key in ("day_start", "day_end"):
            if key in obj:
                kwargs[key] = time.fromisoformat(str(obj[key]))
        if "timezone" in obj:
            kwargs["timezone"] = str(obj["timezone"])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {
            "min_displacement_m": self.min_displacement_m,
            "max_displacement_m": self.max_displacement_m,
            "day_start": self.day_start.isoformat(timespec="minutes"),
            "day_end": self.day_end.isoformat(timespec="minutes"),
            "timezone": self.timezone,
        }


@dataclass
class CleaningReport:
    input_count: int = 0
    kept: int = 0
    removed_hours: int = 0
    removed_distance: int = 0
    under_5m: int = 0
    under_10m: int = 0
    under_20m: int = 0

    def to_dict(self) -> dict:
        return {
            "input_count": self.input_count,
            "kept": self.kept,
            "removed_hours": self.removed_hours,
            "removed_distance": self.removed_distance,
            "under_5m": self.under_5m,
            "under_10m": self.under_10m,
            "under_20m": self.under_20m,
        }


def local_fields(ts_seconds: np.ndarray, tz_name: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-timestamp local (date ordinal, minute of day); maps unique values only.

    Feed timestamps repeat heavily (one per batch), so the zoneinfo conversion
    runs once per distinct value and broadcasts.
    """
    tz = ZoneInfo(tz_name)
    uniq, inverse = np.unique(ts_seconds, return_inverse=True)
    days = np.empty(uniq.shape[0], dtype=np.int64)
    minutes = np.empty(uniq.shape[0], dtype=np.int64)
    for i, t in enumerate(uniq):
        local = datetime.fromtimestamp(int(t), tz=tz)
        days[i] = local.toordinal()
        minutes[i] = local.hour * 60 + local.minute
    return days[inverse], minutes[inverse]


def extract_trips(
    batches: Iterable[SnapshotBatch],
    *,
    timezone_name: str = DEFAULT_TIMEZONE,
    colocation_eps_m: float = COLOCATION_EPS_M,
) -> list[RawTrip]:
    """Reconstruct raw trips from an ordered batch stream.

    For each scooter, every pair of consecutive observations on the same local
    day whose positions differ by more than the colocation epsilon yields one
    trip: origin at the earlier (last-seen) batch, destination at the later.
    """
    code_of: dict[str, int] = {}  # scooter id -> code, in order of first sighting
    batch_ts: list[int] = []
    sizes: list[int] = []
    # growable buffers rather than a list of per-batch arrays: those would leave
    # their freed blocks scattered in the C heap, where later stages cannot reuse them
    codes, lats, lons = array("q"), array("d"), array("d")
    for batch in batches:
        ids = batch.ids
        try:
            batch_codes = np.fromiter(map(code_of.__getitem__, ids), dtype=np.int64, count=len(ids))
        except KeyError:  # the batch sights new ids
            for sid in ids:
                code_of.setdefault(sid, len(code_of))
            batch_codes = np.fromiter(map(code_of.__getitem__, ids), dtype=np.int64, count=len(ids))
        batch_ts.append(int(batch.ts.timestamp()))
        sizes.append(len(ids))
        codes.frombytes(batch_codes.tobytes())
        lats.frombytes(batch.lat.tobytes())
        lons.frombytes(batch.lon.tobytes())
    if len(codes) < 2:
        return []
    codes_a = np.frombuffer(codes, dtype=np.int64)
    lat_a = np.frombuffer(lats, dtype=np.float64)
    lon_a = np.frombuffer(lons, dtype=np.float64)
    batch_ts_a = np.asarray(batch_ts, dtype=np.int64)
    batch_days, _ = local_fields(batch_ts_a, timezone_name)
    ts_a = np.repeat(batch_ts_a, sizes)
    days_a = np.repeat(batch_days, sizes)

    order = np.argsort(codes_a, kind="stable")  # batch order already sorts ts within a scooter
    codes_s = codes_a[order]
    ts_s = ts_a[order]
    lat_s = np.ascontiguousarray(lat_a[order])
    lon_s = np.ascontiguousarray(lon_a[order])
    days_s = days_a[order]
    del order, codes_a, ts_a, lat_a, lon_a, days_a, codes, lats, lons  # the scan needs only the sorted copies

    pair_idx, pair_dist = kernels.pair_scan(codes_s, days_s, lat_s, lon_s, colocation_eps_m)

    id_list = list(code_of)
    utc = timezone.utc
    trips = [
        RawTrip(
            scooter_id=id_list[codes_s[i]],
            origin=GeoPoint(float(lat_s[i]), float(lon_s[i])),
            destination=GeoPoint(float(lat_s[i + 1]), float(lon_s[i + 1])),
            start_ts=datetime.fromtimestamp(int(ts_s[i]), tz=utc),
            end_ts=datetime.fromtimestamp(int(ts_s[i + 1]), tz=utc),
            displacement_m=float(d),
        )
        for i, d in zip(pair_idx, pair_dist)
    ]
    trips.sort(key=lambda t: (t.start_ts, t.scooter_id, t.end_ts))
    return trips


def clean_trips(trips: list[RawTrip], rules: CleaningRules) -> tuple[list[Trip], CleaningReport]:
    """Apply the hours filter then the displacement filter; each trip counts once.

    Keeps trips whose displacement lies in [min, max] (inclusive) and whose
    start and end both fall in [day_start, day_end) local time. The report
    carries the sub-5/10/20 m diagnostic over the raw input.
    """
    report = CleaningReport(input_count=len(trips))
    if not trips:
        return [], report

    disp = np.array([t.displacement_m for t in trips], dtype=np.float64)
    start_s = np.array([int(t.start_ts.timestamp()) for t in trips], dtype=np.int64)
    end_s = np.array([int(t.end_ts.timestamp()) for t in trips], dtype=np.int64)
    _, start_min = local_fields(start_s, rules.timezone)
    _, end_min = local_fields(end_s, rules.timezone)

    lo = rules.day_start.hour * 60 + rules.day_start.minute
    hi = rules.day_end.hour * 60 + rules.day_end.minute
    in_hours = (start_min >= lo) & (start_min < hi) & (end_min >= lo) & (end_min < hi)
    in_distance = (disp >= rules.min_displacement_m) & (disp <= rules.max_displacement_m)

    report.removed_hours = int((~in_hours).sum())
    report.removed_distance = int((in_hours & ~in_distance).sum())
    report.under_5m = int((disp < 5.0).sum())
    report.under_10m = int((disp < 10.0).sum())
    report.under_20m = int((disp < 20.0).sum())

    keep = in_hours & in_distance
    kept = [t for t, k in zip(trips, keep) if k]
    report.kept = len(kept)
    return kept, report


def crop_trips(trips: list[Trip], bbox: Bbox) -> tuple[list[Trip], int]:
    """Keep trips whose origin and destination both lie inside bbox."""
    kept = [
        t
        for t in trips
        if bbox.contains(t.origin.lat, t.origin.lon) and bbox.contains(t.destination.lat, t.destination.lon)
    ]
    return kept, len(trips) - len(kept)


def write_trips_csv(trips: Iterable[Trip], path) -> int:
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIP_CSV_COLUMNS)
        for t in trips:
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
                ]
            )
            n += 1
    return n


def read_trips_csv(path) -> list[Trip]:
    trips = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for i, row in enumerate(reader, 2):
            trips.append(
                RawTrip(
                    scooter_id=row["scooter_id"],
                    origin=GeoPoint(float(row["origin_lat"]), float(row["origin_lon"])),
                    destination=GeoPoint(float(row["dest_lat"]), float(row["dest_lon"])),
                    start_ts=parse_ts(row["start_ts"], i),
                    end_ts=parse_ts(row["end_ts"], i),
                    displacement_m=float(row["displacement_m"]),
                )
            )
    return trips
