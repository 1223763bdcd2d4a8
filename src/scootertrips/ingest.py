"""Parse fleet-availability snapshot feeds into an ordered stream of batches.

Feed formats:
  jsonl - one JSON object per server update:
          {"ts": "<RFC3339>", "scooters": [{"id": "<str|null>", "lat": <f64>, "lon": <f64>}, ...]}
  csv   - columns ts,id,lat,lon; consecutive rows sharing ts form one batch.

Records whose id is null (the feed's marker for a scooter in use) are counted
and dropped; duplicate ids within a batch keep the first occurrence.

A batch is columnar: scooter ids plus float64 lat/lon arrays. Each batch is
checked as a whole; when a whole-batch check fails, the batch is walked
record by record with the scalar checks, which report the first bad record
(its line number and message) exactly as a per-record parser would.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from itertools import filterfalse
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import MalformedRecord, NonMonotonicTimestamp
from .geo import GeoPoint, is_valid_point

log = logging.getLogger(__name__)

FORMATS = ("jsonl", "csv")

_JSON_STR = json.encoder.encode_basestring_ascii  # what json.dumps uses for str
_JSONL_NULL_RECORD = '{"id":null,"lat":0.0,"lon":0.0}'
_RECORD_FIELDS = itemgetter("id", "lat", "lon")


class ScooterObservation(NamedTuple):
    scooter_id: str
    position: GeoPoint


class ObservationView(Sequence):
    """Read-only per-record view of a SnapshotBatch; items are built on access."""

    __slots__ = ("_batch",)

    def __init__(self, batch: "SnapshotBatch"):
        self._batch = batch

    def __len__(self) -> int:
        return len(self._batch.ids)

    def __getitem__(self, i: int) -> ScooterObservation:
        b = self._batch
        return ScooterObservation(b.ids[i], GeoPoint(float(b.lat[i]), float(b.lon[i])))

    def __iter__(self) -> Iterator[ScooterObservation]:
        b = self._batch
        for sid, lat, lon in zip(b.ids, b.lat.tolist(), b.lon.tolist()):
            yield ScooterObservation(sid, GeoPoint(lat, lon))

    def __eq__(self, other):
        if isinstance(other, (ObservationView, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"ObservationView({list(self)!r})"


@dataclass(eq=False)
class SnapshotBatch:
    """One server update: ids[i] was parked at (lat[i], lon[i]) at ts."""

    ts: datetime  # UTC, second resolution
    ids: list[str]
    lat: np.ndarray  # float64, len(ids)
    lon: np.ndarray  # float64, len(ids)

    @property
    def observations(self) -> ObservationView:
        return ObservationView(self)


@dataclass
class IngestStats:
    batches: int = 0
    retained: int = 0
    dropped_null_id: int = 0  # scooters in use at update time
    dropped_duplicate_id: int = 0

    @property
    def input_records(self) -> int:
        return self.retained + self.dropped_null_id + self.dropped_duplicate_id

    def to_dict(self) -> dict:
        return {**asdict(self), "input_records": self.input_records}


class SnapshotStream:
    """Single-pass iterable of SnapshotBatch; stats fill in as the stream is consumed."""

    def __init__(self, gen: Iterator[SnapshotBatch], stats: IngestStats):
        self._gen = gen
        self.stats = stats

    def __iter__(self) -> Iterator[SnapshotBatch]:
        return self._gen


def _is_null_id(raw) -> bool:
    return raw is None or str(raw).strip().lower() in ("", "null")


def check_utf8(text: str, line_no: int = 0) -> str:
    """text, unless it holds a byte that is not UTF-8 (read with errors="surrogateescape")."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedRecord(line_no, "a byte that is not UTF-8") from None
    return text


def parse_ts(raw: str, line_no: int) -> datetime:
    try:
        ts = datetime.fromisoformat(str(raw).replace("Z", "+00:00"))
    except ValueError:
        raise MalformedRecord(line_no, f"bad timestamp {raw!r}") from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc).replace(microsecond=0)


def format_ts(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _check_coord(lat, lon, line_no: int) -> GeoPoint:
    try:
        lat = float(lat)
        lon = float(lon)
    except (TypeError, ValueError):
        raise MalformedRecord(line_no, f"non-numeric coordinates ({lat!r}, {lon!r})") from None
    if not is_valid_point(lat, lon):
        raise MalformedRecord(line_no, f"coordinates out of range ({lat}, {lon})")
    return GeoPoint(lat, lon)


def _in_range(lat: np.ndarray, lon: np.ndarray) -> bool:
    """Every point finite and on the globe (NaN fails every comparison)."""
    return bool(((lat >= -90.0) & (lat <= 90.0) & (lon >= -180.0) & (lon <= 180.0)).all())


def _scalar_coords(points: Iterable[GeoPoint]) -> tuple[np.ndarray, np.ndarray]:
    pts = list(points)
    return np.array([p.lat for p in pts], dtype=np.float64), np.array([p.lon for p in pts], dtype=np.float64)


class _BatchBuilder:
    """Drops null and duplicate ids from one stream's batches and counts them."""

    def __init__(self, stats: IngestStats):
        self.stats = stats
        self._known: set = set()  # raw ids seen so far, all str or None
        self._null: set = set()  # those of them that mark a scooter in use
        self._warned = False

    def _classify(self, raw_ids: list) -> tuple[set, set] | None:
        """(distinct raw ids, null markers among them); None when an id is
        not a str or None, so the batch needs per-record str() conversion."""
        try:
            present = set(raw_ids)
        except TypeError:  # an unhashable id
            return None
        for raw in present - self._known:
            if raw is not None and type(raw) is not str:
                return None
            self._known.add(raw)
            if _is_null_id(raw):
                self._null.add(raw)
        return present, present & self._null

    def build(self, ts: datetime, raw_ids: list, lat: np.ndarray, lon: np.ndarray) -> SnapshotBatch:
        found = self._classify(raw_ids)
        if found is None:
            keep = np.array([not _is_null_id(raw) for raw in raw_ids], dtype=bool)
            ids = [str(raw) for raw, k in zip(raw_ids, keep.tolist()) if k]
            distinct = len(set(ids))
        else:
            present, nulls = found
            if nulls:
                keep = ~np.fromiter(map(nulls.__contains__, raw_ids), dtype=bool, count=len(raw_ids))
                ids = list(filterfalse(nulls.__contains__, raw_ids))
            else:
                keep, ids = None, raw_ids
            distinct = len(present) - len(nulls)
        self.stats.dropped_null_id += len(raw_ids) - len(ids)
        if distinct < len(ids):
            positions = range(len(ids)) if keep is None else np.flatnonzero(keep).tolist()
            keep, ids = self._drop_duplicates(ts, positions, ids)
        if keep is not None:
            lat, lon = lat[keep], lon[keep]
        self.stats.retained += len(ids)
        self.stats.batches += 1
        return SnapshotBatch(ts, ids, lat, lon)

    def _drop_duplicates(self, ts: datetime, positions, ids: list[str]) -> tuple[list[int], list[str]]:
        seen: set[str] = set()
        kept_pos: list[int] = []
        kept_ids: list[str] = []
        for pos, sid in zip(positions, ids):
            if sid in seen:
                self.stats.dropped_duplicate_id += 1
                self._log_duplicate(sid, ts)
                continue
            seen.add(sid)
            kept_pos.append(pos)
            kept_ids.append(sid)
        return kept_pos, kept_ids

    def _log_duplicate(self, sid: str, ts: datetime) -> None:
        if self._warned:
            log.debug("duplicate scooter id %s in batch %s; keeping first occurrence", sid, ts)
            return
        self._warned = True
        log.warning(
            "duplicate scooter id %s in batch %s; keeping first occurrence. Later duplicates in this "
            "stream log at DEBUG; the manifest's ingest.dropped_duplicate_id holds the total",
            sid,
            ts,
        )


def _check_monotonic(prev: datetime | None, ts: datetime) -> None:
    if prev is not None and ts <= prev:
        raise NonMonotonicTimestamp(format_ts(prev), format_ts(ts))


def _jsonl_columns(scooters: list, line_no: int) -> tuple[list, np.ndarray, np.ndarray]:
    """(raw ids, lat, lon) of one JSONL batch.

    The whole-batch path takes coordinates only when numpy reads them as a
    1-D float64 array of the right length that lies on the globe; anything
    else is decided record by record by _check_coord.
    """
    try:
        raw_ids, lat, lon = zip(*map(_RECORD_FIELDS, scooters)) if scooters else ((), (), ())
        lat = np.array(lat)
        lon = np.array(lon)
    except (KeyError, TypeError, ValueError):  # a missing key, a non-object record, a ragged coordinate
        pass
    else:
        if lat.dtype == np.float64 and lon.dtype == np.float64 and lat.shape == lon.shape == (len(scooters),):
            if _in_range(lat, lon):
                return list(raw_ids), lat, lon
    points = []
    for rec in scooters:
        if not isinstance(rec, dict):
            raise MalformedRecord(line_no, "scooter record must be an object")
        points.append(_check_coord(rec.get("lat"), rec.get("lon"), line_no))
    return [rec.get("id") for rec in scooters], *_scalar_coords(points)


def _parse_jsonl(fh: IO[str], stats: IngestStats) -> Iterator[SnapshotBatch]:
    builder = _BatchBuilder(stats)
    prev: datetime | None = None
    for line_no, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(check_utf8(line, line_no))
        except json.JSONDecodeError as exc:
            raise MalformedRecord(line_no, f"invalid JSON: {exc.msg}") from None
        if not isinstance(obj, dict) or "ts" not in obj or "scooters" not in obj:
            raise MalformedRecord(line_no, "expected object with 'ts' and 'scooters'")
        ts = parse_ts(obj["ts"], line_no)
        _check_monotonic(prev, ts)
        prev = ts
        scooters = obj["scooters"]
        if not isinstance(scooters, list):
            raise MalformedRecord(line_no, "'scooters' must be a list")
        yield builder.build(ts, *_jsonl_columns(scooters, line_no))


def _csv_columns(rows: list[list[str]], line_nos: list[int]) -> tuple[list, np.ndarray, np.ndarray]:
    """(raw ids, lat, lon) of one CSV batch; float() parses each coordinate,
    as _check_coord does, and _check_coord reports the first bad row."""
    if not rows:
        return [], np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float64)
    _, raw_ids, lat_s, lon_s = zip(*rows)
    try:
        lat = np.array(list(map(float, lat_s)), dtype=np.float64)
        lon = np.array(list(map(float, lon_s)), dtype=np.float64)
    except ValueError:
        pass
    else:
        if _in_range(lat, lon) and "".join(raw_ids).isascii():
            return list(raw_ids), lat, lon
    points = []
    for (_, raw_id, lat, lon), ln in zip(rows, line_nos):
        check_utf8(raw_id, ln)
        points.append(_check_coord(lat, lon, ln))
    return list(raw_ids), *_scalar_coords(points)


def _parse_csv(fh: IO[str], stats: IngestStats) -> Iterator[SnapshotBatch]:
    builder = _BatchBuilder(stats)
    reader = csv.reader(fh)
    prev: datetime | None = None
    current_ts: datetime | None = None
    current_raw_ts: str | None = None
    rows: list[list[str]] = []
    line_nos: list[int] = []
    line_no = 0
    try:
        for row in reader:
            line_no += 1
            if not row:
                continue
            if line_no == 1 and row[0].strip().lower() == "ts":
                continue  # header
            if len(row) != 4:
                _csv_columns(rows, line_nos)  # a bad row earlier in the batch is reported first
                raise MalformedRecord(line_no, f"expected 4 columns, got {len(row)}")
            raw_ts = row[0]
            if raw_ts != current_raw_ts:
                if current_ts is not None:
                    yield builder.build(current_ts, *_csv_columns(rows, line_nos))
                ts = parse_ts(raw_ts, line_no)
                _check_monotonic(prev, ts)
                prev = ts
                current_ts = ts
                current_raw_ts = raw_ts
                rows = []
                line_nos = []
            rows.append(row)
            line_nos.append(line_no)
    except csv.Error as exc:  # the reader failed on a row; a bad row before it is reported first
        _csv_columns(rows, line_nos)
        raise MalformedRecord(reader.line_num, str(exc)) from None
    if current_ts is not None:
        yield builder.build(current_ts, *_csv_columns(rows, line_nos))


def parse_snapshot_stream(source, format: str = "jsonl") -> SnapshotStream:
    """Lazily parse a feed into SnapshotBatch values.

    source may be a path or an open text file. Raises MalformedRecord for
    undecodable records and NonMonotonicTimestamp when batch timestamps do
    not strictly increase.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown feed format {format!r}; expected one of {FORMATS}")
    stats = IngestStats()

    def gen() -> Iterator[SnapshotBatch]:
        close = False
        if isinstance(source, (str, Path)):
            fh = open(source, "r", encoding="utf-8", errors="surrogateescape")
            close = True
        elif isinstance(source, io.TextIOBase):
            fh = source
        else:
            fh = io.TextIOWrapper(source, encoding="utf-8", errors="surrogateescape")  # raw byte stream
        try:
            inner = _parse_jsonl(fh, stats) if format == "jsonl" else _parse_csv(fh, stats)
            yield from inner
        finally:
            if close:
                fh.close()

    return SnapshotStream(gen(), stats)


def _jsonl_line(batch: SnapshotBatch, null_fill_to: int) -> str:
    """The batch as json.dumps(..., separators=(",", ":")) would write it."""
    records = [
        f'{{"id":{_JSON_STR(sid)},"lat":{lat!r},"lon":{lon!r}}}'
        for sid, lat, lon in zip(batch.ids, batch.lat.tolist(), batch.lon.tolist())
    ]
    records += [_JSONL_NULL_RECORD] * (null_fill_to - len(records))
    return f'{{"ts":"{format_ts(batch.ts)}","scooters":[{",".join(records)}]}}\n'


def write_snapshot_stream(
    batches: Iterable[SnapshotBatch], sink, format: str = "jsonl", *, null_fill_to: int = 0
) -> int:
    """Serialize batches back to feed form; returns the number of batches written.

    null_fill_to pads each batch with null-id records at (0.0, 0.0) up to that
    many records, as a server does that reports in-use scooters as null.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown feed format {format!r}; expected one of {FORMATS}")
    if isinstance(sink, (str, Path)):
        fh = open(sink, "w", encoding="utf-8", newline="")
        close = True
    else:
        fh = sink
        close = False
    n = 0
    try:
        if format == "jsonl":
            for batch in batches:
                fh.write(_jsonl_line(batch, null_fill_to))
                n += 1
        else:
            writer = csv.writer(fh)
            writer.writerow(["ts", "id", "lat", "lon"])
            for batch in batches:
                ts = format_ts(batch.ts)
                lat = map(repr, batch.lat.tolist())
                lon = map(repr, batch.lon.tolist())
                writer.writerows([ts, sid, la, lo] for sid, la, lo in zip(batch.ids, lat, lon))
                writer.writerows([[ts, "", "0.0", "0.0"]] * (null_fill_to - len(batch.ids)))
                n += 1
    finally:
        if close:
            fh.close()
    return n
