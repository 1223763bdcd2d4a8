"""Trip reconstruction from per-scooter observation timelines, the cleaning
filters, the columnar TripTable that carries trips between stages, and its
two CSV formats.

A scooter that reappears away from where it was parked moved while it was
absent: the last update that saw it parked brackets the trip start and the
first update that sees it parked again brackets the end. Timelines reset at
each local midnight, so no trip spans a day boundary.
"""

from __future__ import annotations

import csv
import logging
from array import array
from itertools import groupby, zip_longest
from dataclasses import dataclass, fields, replace
from datetime import datetime, time, timezone
from typing import Iterable, Sequence
from zoneinfo import ZoneInfo

import numpy as np

from . import kernels
from .errors import InvalidConfig, MalformedRecord
from .geo import Bbox
from .ingest import SnapshotBatch, check_utf8, format_ts, parse_ts

log = logging.getLogger(__name__)

DEFAULT_TIMEZONE = "America/New_York"
# GPS jitter below this is not a move; well under the 5 m diagnostic band so
# tiny junk rides still show up in the raw trip set, as the feed produces them.
COLOCATION_EPS_M = 1.0
# rows a CSV writer formats at once: bounds the text objects it holds (a few MB)
WRITE_BLOCK = 4096

# Each CSV column as (header, TripTable field, text kind). "ids" and "poi_ids"
# columns hold codes written as the strings of that TripTable field; "ts"
# columns are UTC epoch seconds written as format_ts text.
TRIP_CSV = (
    ("scooter_id", "scooter", "ids"),
    ("origin_lat", "origin_lat", "float"),
    ("origin_lon", "origin_lon", "float"),
    ("dest_lat", "dest_lat", "float"),
    ("dest_lon", "dest_lon", "float"),
    ("start_ts", "start", "ts"),
    ("end_ts", "end", "ts"),
    ("displacement_m", "displacement", "float"),
)
ASSOC_CSV = TRIP_CSV + (
    ("origin_poi", "origin_poi", "poi_ids"),
    ("origin_dist_m", "origin_dist", "float"),
    ("dest_poi", "dest_poi", "poi_ids"),
    ("dest_dist_m", "dest_dist", "float"),
    ("origin_reassigned", "reassigned", "bool"),
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


@dataclass
class CleaningReport:
    input_count: int = 0
    kept: int = 0
    removed_hours: int = 0
    removed_distance: int = 0
    under_5m: int = 0
    under_10m: int = 0
    under_20m: int = 0


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

    days = [_day_trips(day, code_of) for _, day in groupby(batches, key=local_day)]
    days = days or [_day_trips((), code_of)]  # typed empty columns
    # column by column, so only one column's day arrays outlive its concatenation
    columns = {name: np.concatenate([d.pop(name) for d in days]) for name in list(days[0])}
    return TripTable(ids=list(code_of), **columns)


def _day_trips(batches: Iterable[SnapshotBatch], code_of: dict[str, int]) -> dict[str, np.ndarray]:
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

    pair_idx, pair_dist = kernels.pair_scan(codes_s, lat_s, lon_s, COLOCATION_EPS_M)
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


def _column_text(table: TripTable, field: str, kind: str) -> list[str]:
    values = getattr(table, field)
    if kind == "float":
        return list(map(repr, values.tolist()))
    if kind == "ts":
        return format_epochs(values)
    if kind == "bool":
        return np.where(values, "true", "false").tolist()
    return list(map(getattr(table, kind).__getitem__, values.tolist()))  # codes into ids / poi_ids


def write_table_csv(table: TripTable, path, schema) -> int:
    """Write the schema's headers, then the rows of table as text,
    WRITE_BLOCK rows at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([header for header, _, _ in schema])
        for lo in range(0, len(table), WRITE_BLOCK):
            block = table.take(slice(lo, lo + WRITE_BLOCK))
            writer.writerows(zip(*(_column_text(block, field, kind) for _, field, kind in schema)))
    return len(table)


_PARSE = {
    "ids": check_utf8, "poi_ids": check_utf8,  # the reader re-raises MalformedRecord with the line
    "float": float,
    "ts": lambda text: int(parse_ts(text, 0).timestamp()),
    "bool": {"true": True, "false": False}.__getitem__,
}
_DTYPE = {"float": np.float64, "ts": np.int64, "bool": bool}


def read_table_csv(path, schema) -> TripTable:
    """The TripTable a write_table_csv file with this schema holds.

    The header must be the schema's headers. Rows are parsed in file order,
    so the first bad row (a field that does not parse, an id holding a byte
    that is not UTF-8, a quote left open) raises MalformedRecord, at the
    line where that row ends. Codes into ids and poi_ids follow first sight,
    column by column in schema order.
    """
    headers = [header for header, _, _ in schema]
    columns: dict[str, list] = {field: [] for _, field, _ in schema}
    cells = [(header, columns[field].append, _PARSE[kind]) for header, field, kind in schema]
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, [])
            if got != headers:
                col, (found, want) = next((i, p) for i, p in enumerate(zip_longest(got, headers), 1) if p[0] != p[1])
                raise MalformedRecord(1, f"header column {col} is {found!r}, expected {want!r}")
            for row in reader:
                if len(row) != len(headers):
                    raise MalformedRecord(reader.line_num, f"{len(row)} fields, expected {len(headers)}")
                for (header, append, parse), text in zip(cells, row):
                    try:
                        append(parse(text))
                    except (KeyError, ValueError, MalformedRecord):
                        raise MalformedRecord(reader.line_num, f"bad {header} {text!r}") from None
        except csv.Error as exc:  # a quote left open runs the rest of the file into one field
            raise MalformedRecord(reader.line_num, str(exc)) from None
    codes: dict[str, dict[str, int]] = {}
    arrays = {}
    for _, field, kind in schema:
        if kind in _DTYPE:
            arrays[field] = np.array(columns.pop(field), dtype=_DTYPE[kind])
        else:
            code_of = codes.setdefault(kind, {})
            arrays[field] = np.fromiter((code_of.setdefault(t, len(code_of)) for t in columns.pop(field)), np.int64)
    return TripTable(**{kind: list(code_of) for kind, code_of in codes.items()}, **arrays)


def write_trips_csv(trips: TripTable, path) -> int:
    return write_table_csv(trips, path, TRIP_CSV)


def read_trips_csv(path) -> TripTable:
    return read_table_csv(path, TRIP_CSV)
