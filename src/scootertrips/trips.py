"""Trip reconstruction from per-scooter observation timelines, the cleaning
filters, and the columnar TripTable that carries trips between stages.

A scooter that reappears away from where it was parked moved while it was
absent: the last update that saw it parked brackets the trip start and the
first update that sees it parked again brackets the end. Timelines reset at
each local midnight, so no trip spans a day boundary.
"""

from __future__ import annotations

import csv
import logging
from array import array
from itertools import groupby
from dataclasses import dataclass, fields, replace
from datetime import datetime, time, timezone
from typing import Iterable, Sequence
from zoneinfo import ZoneInfo

import numpy as np

from . import kernels
from .errors import InvalidConfig
from .geo import Bbox
from .ingest import SnapshotBatch, format_ts, parse_ts

log = logging.getLogger(__name__)

DEFAULT_TIMEZONE = "America/New_York"
# GPS jitter below this is not a move; well under the 5 m diagnostic band so
# tiny junk rides still show up in the raw trip set, as the feed produces them.
COLOCATION_EPS_M = 1.0
# rows a CSV writer formats at once: bounds the text objects it holds (a few MB)
WRITE_BLOCK = 4096

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


@dataclass(frozen=True, eq=False)
class TripTable:
    """Trips as columns, one row per trip.

    `scooter` holds codes into `ids`; `start`/`end` are UTC epoch seconds.
    `associate` fills the association columns: `origin_poi`/`dest_poi` hold
    codes into `poi_ids`, with the endpoint distances in meters and the
    origin-reassignment flag. Filters select rows and keep the order.
    """

    ids: Sequence[str]
    scooter: np.ndarray
    start: np.ndarray
    end: np.ndarray
    origin_lat: np.ndarray
    origin_lon: np.ndarray
    dest_lat: np.ndarray
    dest_lon: np.ndarray
    displacement: np.ndarray
    poi_ids: Sequence[str] = ()
    origin_poi: np.ndarray | None = None
    origin_dist: np.ndarray | None = None
    dest_poi: np.ndarray | None = None
    dest_dist: np.ndarray | None = None
    reassigned: np.ndarray | None = None

    def __len__(self) -> int:
        return self.start.shape[0]

    def take(self, rows: np.ndarray) -> "TripTable":
        """The rows a boolean mask or an index array selects, in that order."""
        columns = {
            f.name: getattr(self, f.name)[rows]
            for f in fields(self)
            if isinstance(getattr(self, f.name), np.ndarray)
        }
        return replace(self, **columns)


@dataclass(frozen=True)
class CleaningRules:
    min_displacement_m: float = 75.0
    max_displacement_m: float = 3000.0
    day_start: time = time(7, 0)
    day_end: time = time(21, 0)

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
        """The rules a config's cleaning object sets; other keys are ignored."""
        kwargs = {}
        for key, parse in (("min_displacement_m", float), ("max_displacement_m", float),
                           ("day_start", time.fromisoformat), ("day_end", time.fromisoformat)):
            if key in obj:
                try:
                    kwargs[key] = parse(obj[key])
                except (TypeError, ValueError) as exc:
                    raise InvalidConfig(f"cleaning.{key} {obj[key]!r} does not parse: {exc}") from None
        return cls(**kwargs)


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
) -> TripTable:
    """Reconstruct raw trips from an ordered batch stream.

    For each scooter, every pair of consecutive observations on the same local
    day whose positions differ by more than the colocation epsilon yields one
    trip: origin at the earlier (last-seen) batch, destination at the later.
    Rows are ordered by (start, scooter id, end).

    The stream is scanned one local day at a time, so memory follows the
    largest day, not the feed. This relies on batch timestamps strictly
    increasing, as parse_snapshot_stream enforces: each day's batches then
    arrive together, and every trip start of a day precedes every start of
    the next, so each day's trips are ordered once and appended.
    """
    tz = ZoneInfo(timezone_name)
    code_of: dict[str, int] = {}  # scooter id -> code, in order of first sighting; kept across days

    def local_day(batch: SnapshotBatch) -> int:
        return datetime.fromtimestamp(int(batch.ts.timestamp()), tz).toordinal()

    days = [_day_trips(day, code_of, colocation_eps_m) for _, day in groupby(batches, key=local_day)]
    days = days or [_day_trips((), code_of, colocation_eps_m)]  # typed empty columns
    # column by column, so only one column's day arrays outlive its concatenation
    columns = {name: np.concatenate([d.pop(name) for d in days]) for name in list(days[0])}
    return TripTable(ids=list(code_of), **columns)


def _day_trips(batches: Iterable[SnapshotBatch], code_of: dict[str, int], eps_m: float) -> dict[str, np.ndarray]:
    """The TripTable columns of one local day's batches, rows ordered by
    (start, scooter id, end); new scooter ids get codes in code_of."""
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
    codes_a = np.frombuffer(codes, dtype=np.int64)
    order = np.argsort(codes_a, kind="stable")  # batch order already sorts ts within a scooter
    codes_s = codes_a[order]
    ts_s = np.repeat(np.asarray(batch_ts, dtype=np.int64), sizes)[order]
    lat_s = np.frombuffer(lats, dtype=np.float64)[order]
    lon_s = np.frombuffer(lons, dtype=np.float64)[order]
    del order, codes_a, codes, lats, lons  # the scan needs only the sorted copies

    pair_idx, pair_dist = kernels.pair_scan(codes_s, lat_s, lon_s, eps_m)
    nxt = pair_idx + 1
    # codes follow first sighting; the row order needs the ids' string order,
    # which a rank over the ids seen so far keeps
    ids = list(code_of)
    rank = np.empty(len(ids), dtype=np.int64)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    scooter, start, end = codes_s[pair_idx], ts_s[pair_idx], ts_s[nxt]
    rows = np.lexsort((end, rank[scooter], start))
    columns = {
        "scooter": scooter,
        "start": start,
        "end": end,
        "origin_lat": lat_s[pair_idx],
        "origin_lon": lon_s[pair_idx],
        "dest_lat": lat_s[nxt],
        "dest_lon": lon_s[nxt],
        "displacement": pair_dist,
    }
    return {name: column[rows] for name, column in columns.items()}


def clean_trips(
    trips: TripTable, rules: CleaningRules, timezone_name: str = DEFAULT_TIMEZONE
) -> tuple[TripTable, CleaningReport]:
    """Apply the hours filter then the displacement filter; each trip counts once.

    Keeps trips whose displacement lies in [min, max] (inclusive) and whose
    start and end both fall in [day_start, day_end) in timezone_name. The report
    carries the sub-5/10/20 m diagnostic over the raw input.
    """
    report = CleaningReport(input_count=len(trips))
    disp = trips.displacement
    _, start_min = local_fields(trips.start, timezone_name)
    _, end_min = local_fields(trips.end, timezone_name)

    lo = rules.day_start.hour * 60 + rules.day_start.minute
    hi = rules.day_end.hour * 60 + rules.day_end.minute
    in_hours = (start_min >= lo) & (start_min < hi) & (end_min >= lo) & (end_min < hi)
    in_distance = (disp >= rules.min_displacement_m) & (disp <= rules.max_displacement_m)

    report.removed_hours = int((~in_hours).sum())
    report.removed_distance = int((in_hours & ~in_distance).sum())
    report.under_5m = int((disp < 5.0).sum())
    report.under_10m = int((disp < 10.0).sum())
    report.under_20m = int((disp < 20.0).sum())

    kept = trips.take(in_hours & in_distance)
    report.kept = len(kept)
    return kept, report


def crop_trips(trips: TripTable, bbox: Bbox) -> tuple[TripTable, int]:
    """Keep trips whose origin and destination both lie inside bbox (edges included)."""
    lo, hi = bbox.min, bbox.max
    inside = (
        (trips.origin_lat >= lo.lat) & (trips.origin_lat <= hi.lat)
        & (trips.origin_lon >= lo.lon) & (trips.origin_lon <= hi.lon)
        & (trips.dest_lat >= lo.lat) & (trips.dest_lat <= hi.lat)
        & (trips.dest_lon >= lo.lon) & (trips.dest_lon <= hi.lon)
    )
    kept = trips.take(inside)
    return kept, len(trips) - len(kept)


def format_epochs(seconds: np.ndarray) -> list[str]:
    """format_ts of each UTC epoch second; every distinct value is formatted once."""
    uniq, inverse = np.unique(seconds, return_inverse=True)
    text = np.array([format_ts(datetime.fromtimestamp(t, timezone.utc)) for t in uniq.tolist()], dtype=object)
    return text[inverse].tolist()


def repr_floats(values: np.ndarray) -> list[str]:
    return list(map(repr, values.tolist()))


def trip_csv_columns(trips: TripTable) -> list[list[str]]:
    """The TRIP_CSV_COLUMNS of every row as text, one list per column."""
    return [
        list(map(trips.ids.__getitem__, trips.scooter.tolist())),
        repr_floats(trips.origin_lat),
        repr_floats(trips.origin_lon),
        repr_floats(trips.dest_lat),
        repr_floats(trips.dest_lon),
        format_epochs(trips.start),
        format_epochs(trips.end),
        repr_floats(trips.displacement),
    ]


def write_table_csv(table: TripTable, path, header: Sequence[str], columns) -> int:
    """Write header, then the rows of table as text, WRITE_BLOCK rows at a
    time; columns maps a block of table to its text columns."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for lo in range(0, len(table), WRITE_BLOCK):
            writer.writerows(zip(*columns(table.take(slice(lo, lo + WRITE_BLOCK)))))
    return len(table)


def write_trips_csv(trips: TripTable, path) -> int:
    return write_table_csv(trips, path, TRIP_CSV_COLUMNS, trip_csv_columns)


def float_column(records: list[dict], key: str) -> np.ndarray:
    return np.fromiter((float(row[key]) for row in records), dtype=np.float64, count=len(records))


def trip_table_from_records(records: list[dict]) -> TripTable:
    """A TripTable from parsed trips-CSV rows (the first data row is line 2)."""
    code_of: dict[str, int] = {}
    scooter, start, end = [], [], []
    for line_no, row in enumerate(records, 2):
        scooter.append(code_of.setdefault(row["scooter_id"], len(code_of)))
        start.append(int(parse_ts(row["start_ts"], line_no).timestamp()))
        end.append(int(parse_ts(row["end_ts"], line_no).timestamp()))
    return TripTable(
        ids=list(code_of),
        scooter=np.asarray(scooter, dtype=np.int64),
        start=np.asarray(start, dtype=np.int64),
        end=np.asarray(end, dtype=np.int64),
        origin_lat=float_column(records, "origin_lat"),
        origin_lon=float_column(records, "origin_lon"),
        dest_lat=float_column(records, "dest_lat"),
        dest_lon=float_column(records, "dest_lon"),
        displacement=float_column(records, "displacement_m"),
    )


def read_trips_csv(path) -> TripTable:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return trip_table_from_records(list(csv.DictReader(fh)))
