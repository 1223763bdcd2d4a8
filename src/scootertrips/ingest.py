"""Parse fleet-availability snapshot feeds into an ordered stream of batches.

Feed formats:
  jsonl - one JSON object per server update:
          {"ts": "<RFC3339>", "scooters": [{"id": "<str|null>", "lat": <f64>, "lon": <f64>}, ...]}
  csv   - columns ts,id,lat,lon; consecutive rows sharing ts form one batch.

Records whose id is null (the feed's marker for a scooter in use) are counted
and dropped; duplicate ids within a batch keep the first occurrence.

A batch is columnar: scooter ids plus float64 lat/lon arrays. Both formats
hand their fields to one check: ids that are not str or None become str,
coordinates become float64 columns by float(), and a batch whose points all
lie on the globe and whose newly sighted ids are all ASCII is accepted whole.
Any other batch is walked record by record by an error-only check, which
raises at the first bad record (its line number and message) exactly as a
per-record parser would.

JSONL lines are decoded with orjson. json is the reference: a line orjson
rejects (NaN, Infinity, 1e400, a lone surrogate, a BOM, a byte that is not
UTF-8), a line whose ids are not all str or None (orjson reads an integer
beyond 64 bits as a float) and a line that fails any check are decoded again
by json.loads, so every batch and every error is the one json gives.
"""

from __future__ import annotations

import csv
import json
import logging
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from itertools import filterfalse, repeat, takewhile
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np
import orjson

from .errors import MalformedRecord
from .geo import GeoPoint, is_valid_point

log = logging.getLogger(__name__)

FORMATS = ("jsonl", "csv")

_JSON_STR = json.encoder.encode_basestring_ascii  # what json.dumps uses for str
_JSONL_NULL_RECORD = '{"id":null,"lat":0.0,"lon":0.0}'
_RECORD_ID, _RECORD_LAT, _RECORD_LON = itemgetter("id"), itemgetter("lat"), itemgetter("lon")
_STR_OR_NONE = frozenset((str, type(None)))
_NOT_UTF8 = "a byte that is not UTF-8"
# orjson rejects any surrogate and a JSONL line passes check_utf8 before json.loads,
# so a surrogate in its ids is an escape
_SURROGATE_ESCAPE = "an id holding a lone surrogate escape"


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


def check_utf8(text: str, line_no: int = 0, reason: str = _NOT_UTF8) -> str:
    """text, unless it holds a surrogate, which raises MalformedRecord with reason.
    In text read with errors="surrogateescape" a surrogate is a byte that is not UTF-8."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedRecord(line_no, reason) from None
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


def _check_coord(lat, lon, line_no: int) -> None:
    try:
        lat = float(lat)
        lon = float(lon)
    except (TypeError, ValueError, OverflowError):
        raise MalformedRecord(line_no, f"non-numeric coordinates ({lat!r}, {lon!r})") from None
    if not is_valid_point(lat, lon):
        raise MalformedRecord(line_no, f"coordinates out of range ({lat}, {lon})")


def _check_records(records: Iterable[tuple], line_nos: Iterable[int], bad_id: str = _NOT_UTF8) -> None:
    """Raise MalformedRecord at the first bad (id, lat, lon) record in file
    order: an id holding a surrogate (reason bad_id), or coordinates that
    float() does not read or that are not a point on the globe."""
    for (raw_id, lat, lon), line_no in zip(records, line_nos):
        if type(raw_id) is str:
            check_utf8(raw_id, line_no, bad_id)
        _check_coord(lat, lon, line_no)


def _in_range(lat: np.ndarray, lon: np.ndarray) -> bool:
    """Every point finite and on the globe (NaN fails every comparison)."""
    return bool(((lat >= -90.0) & (lat <= 90.0) & (lon >= -180.0) & (lon <= 180.0)).all())


class _BatchBuilder:
    """Checks one stream's batches, drops null and duplicate ids and counts them."""

    def __init__(self, stats: IngestStats, bad_id: str):
        self.stats = stats
        self.bad_id = bad_id  # the reason for an id holding a surrogate
        self._known: set = set()  # ids of accepted batches, all str or None
        self._null: set = set()  # those of them that mark a scooter in use
        self._warned = False

    def build(self, ts: datetime, raw_ids: list, lats: Sequence, lons: Sequence, line_nos: Iterable[int]) -> SnapshotBatch:
        """The batch of one update's records; raises MalformedRecord at its first bad record."""
        try:
            present = set(raw_ids)
            new = present - self._known
            str_ids = _STR_OR_NONE.issuperset(map(type, new))
        except TypeError:  # an unhashable id
            str_ids = False
        if not str_ids:  # an id that is not a str or None is the str() of it
            raw_ids = [raw if raw is None else str(raw) for raw in raw_ids]
            present = set(raw_ids)
            new = present - self._known
        try:
            lat = np.fromiter(map(float, lats), np.float64, len(raw_ids))
            lon = np.fromiter(map(float, lons), np.float64, len(raw_ids))
            valid = _in_range(lat, lon)
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid or not all(raw is None or raw.isascii() for raw in new):
            _check_records(zip(raw_ids, lats, lons), line_nos, self.bad_id)  # raises whenever valid is False
        self._known |= new
        self._null.update(filter(_is_null_id, new))
        nulls = present & self._null
        if nulls:
            keep = ~np.fromiter(map(nulls.__contains__, raw_ids), dtype=bool, count=len(raw_ids))
            ids = list(filterfalse(nulls.__contains__, raw_ids))
        else:
            keep, ids = None, raw_ids
        self.stats.dropped_null_id += len(raw_ids) - len(ids)
        if len(present) - len(nulls) < len(ids):
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


def _check_monotonic(prev: datetime | None, ts: datetime, line_no: int) -> None:
    """Batch timestamps must strictly increase; a violation signals a corrupted capture."""
    if prev is not None and ts <= prev:
        raise MalformedRecord(line_no, f"batch timestamp {format_ts(ts)} does not advance past {format_ts(prev)}")


def _jsonl_columns(scooters: list, line_no: int) -> tuple[list, Sequence, Sequence]:
    """(raw ids, lats, lons) of one JSONL batch; a field a record leaves out reads as None."""
    try:  # a column at a time: no tuple per record
        return list(map(_RECORD_ID, scooters)), list(map(_RECORD_LAT, scooters)), list(map(_RECORD_LON, scooters))
    except (KeyError, TypeError):  # a record without a field, or one that is not an object
        pass
    objects = list(takewhile(lambda rec: isinstance(rec, dict), scooters))
    fields = [(rec.get("id"), rec.get("lat"), rec.get("lon")) for rec in objects]
    if len(objects) < len(scooters):
        _check_records(fields, repeat(line_no), _SURROGATE_ESCAPE)  # a bad record before it is reported first
        raise MalformedRecord(line_no, "scooter record must be an object")
    raw_ids, lats, lons = zip(*fields) if fields else ((), (), ())
    return list(raw_ids), lats, lons


def _orjson_object(line: str):
    """orjson's decoding of a JSONL line when it equals json's: the line
    decodes and every record's id is str or None. Otherwise None."""
    try:
        obj = orjson.loads(line)
        if _STR_OR_NONE.issuperset(map(type, map(_RECORD_ID, obj["scooters"]))):
            return obj
    except (orjson.JSONDecodeError, LookupError, TypeError):  # not JSON to orjson, or not an object of records
        pass
    return None


def _json_object(line: str, line_no: int):
    try:
        return json.loads(check_utf8(line, line_no))
    except ValueError as exc:  # a JSONDecodeError, or an integer with too many digits to convert
        raise MalformedRecord(line_no, f"invalid JSON: {getattr(exc, 'msg', exc)}") from None


def _jsonl_batch(builder: _BatchBuilder, obj, prev: datetime | None, line_no: int) -> SnapshotBatch:
    """The batch of one decoded JSONL line; raises MalformedRecord at its first bad field."""
    if not isinstance(obj, dict) or "ts" not in obj or "scooters" not in obj:
        raise MalformedRecord(line_no, "expected object with 'ts' and 'scooters'")
    ts = parse_ts(obj["ts"], line_no)
    _check_monotonic(prev, ts, line_no)
    scooters = obj["scooters"]
    if not isinstance(scooters, list):
        raise MalformedRecord(line_no, "'scooters' must be a list")
    return builder.build(ts, *_jsonl_columns(scooters, line_no), repeat(line_no))


def _parse_jsonl(fh: IO[str], stats: IngestStats) -> Iterator[SnapshotBatch]:
    builder = _BatchBuilder(stats, _SURROGATE_ESCAPE)
    prev: datetime | None = None
    for line_no, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        try:
            try:  # a None object fails the first check
                batch = _jsonl_batch(builder, _orjson_object(line), prev, line_no)
            except MalformedRecord:  # json's values name the error (the builder changes only on success)
                batch = _jsonl_batch(builder, _json_object(line, line_no), prev, line_no)
        except RecursionError:  # json.loads, str() or repr() of a value nested deeper than the recursion limit
            raise MalformedRecord(line_no, "a value is nested too deeply to read") from None
        prev = batch.ts
        yield batch


def _csv_columns(rows: list[list[str]]) -> tuple[list[str], tuple, tuple]:
    """(raw ids, lats, lons) of one CSV batch's ts,id,lat,lon rows."""
    _, raw_ids, lats, lons = zip(*rows) if rows else ((), (), (), ())
    return list(raw_ids), lats, lons


def _parse_csv(fh: IO[str], stats: IngestStats) -> Iterator[SnapshotBatch]:
    builder = _BatchBuilder(stats, _NOT_UTF8)
    reader = csv.reader(fh)
    prev: datetime | None = None
    current_ts: datetime | None = None
    current_raw_ts: str | None = None
    rows: list[list[str]] = []
    line_nos: list[int] = []  # the line where each row ends
    first = True  # the first row that is not blank may be the header
    try:
        for row in reader:
            line_no = reader.line_num
            if not row:
                continue
            if first:
                first = False
                if row[0].strip().lower() == "ts":
                    continue
            if len(row) != 4:
                _check_records((r[1:] for r in rows), line_nos)  # a bad row before it is reported first
                raise MalformedRecord(line_no, f"expected 4 columns, got {len(row)}")
            raw_ts = row[0]
            if raw_ts != current_raw_ts:
                if current_ts is not None:
                    yield builder.build(current_ts, *_csv_columns(rows), line_nos)
                ts = parse_ts(raw_ts, line_no)
                _check_monotonic(prev, ts, line_no)
                prev = ts
                current_ts = ts
                current_raw_ts = raw_ts
                rows = []
                line_nos = []
            rows.append(row)
            line_nos.append(line_no)
    except csv.Error as exc:  # the reader failed on a row; a bad row before it is reported first
        _check_records((r[1:] for r in rows), line_nos)
        raise MalformedRecord(reader.line_num, str(exc)) from None
    if current_ts is not None:
        yield builder.build(current_ts, *_csv_columns(rows), line_nos)


def parse_snapshot_stream(source, format: str = "jsonl") -> SnapshotStream:
    """Lazily parse a feed into SnapshotBatch values.

    source may be a path or an open text file. Raises MalformedRecord, at
    its line, for an undecodable record or a batch timestamp that does not
    strictly increase.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown feed format {format!r}; expected one of {FORMATS}")
    stats = IngestStats()

    def gen() -> Iterator[SnapshotBatch]:
        close = isinstance(source, (str, Path))
        fh = open(source, "r", encoding="utf-8", errors="surrogateescape") if close else source
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


def write_jsonl(batches: Iterable[SnapshotBatch], path, *, null_fill_to: int = 0) -> int:
    """Write batches to path as a JSONL feed; returns the number of batches written.

    null_fill_to pads each batch with null-id records at (0.0, 0.0) up to that
    many records, as a server does that reports in-use scooters as null.
    """
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for batch in batches:
            fh.write(_jsonl_line(batch, null_fill_to))
            n += 1
    return n
