import csv
import io
import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scootertrips.errors import InvalidBbox, MalformedRecord, NonMonotonicTimestamp
from scootertrips.geo import Bbox, GeoPoint
from scootertrips.ingest import (
    IngestStats,
    SnapshotBatch,
    format_ts,
    parse_snapshot_stream,
    write_snapshot_stream,
)
from scootertrips.trips import extract_trips

from conftest import batch, obs, rows


def parse_all(text: str, format: str = "jsonl"):
    stream = parse_snapshot_stream(io.StringIO(text), format=format)
    return list(stream), stream.stats


class TestJsonl:
    def test_simple_batch(self):
        line = json.dumps(
            {
                "ts": "2019-02-02T12:00:00Z",
                "scooters": [
                    {"id": "a1", "lat": 33.77, "lon": -84.39},
                    {"id": "b2", "lat": 33.78, "lon": -84.38},
                ],
            }
        )
        batches, stats = parse_all(line + "\n")
        assert len(batches) == 1
        assert len(batches[0].observations) == 2
        assert batches[0].observations[0].scooter_id == "a1"
        assert stats.retained == 2

    def test_null_id_dropped_and_counted(self):
        line = json.dumps(
            {
                "ts": "2019-02-02T12:00:00Z",
                "scooters": [
                    {"id": None, "lat": 33.77, "lon": -84.39},
                    {"id": "null", "lat": 33.77, "lon": -84.39},
                    {"id": "ok", "lat": 33.77, "lon": -84.39},
                ],
            }
        )
        batches, stats = parse_all(line + "\n")
        assert [o.scooter_id for o in batches[0].observations] == ["ok"]
        assert stats.dropped_null_id == 2

    def test_duplicate_keeps_first(self):
        line = json.dumps(
            {
                "ts": "2019-02-02T12:00:00Z",
                "scooters": [
                    {"id": "x", "lat": 33.77, "lon": -84.39},
                    {"id": "x", "lat": 33.78, "lon": -84.38},
                ],
            }
        )
        batches, stats = parse_all(line + "\n")
        assert len(batches[0].observations) == 1
        assert batches[0].observations[0].position.lat == 33.77
        assert stats.dropped_duplicate_id == 1

    def test_non_monotonic_fatal(self):
        lines = "\n".join(
            json.dumps({"ts": ts, "scooters": []})
            for ts in ("2019-02-02T12:00:00Z", "2019-02-02T11:50:00Z")
        )
        with pytest.raises(NonMonotonicTimestamp):
            parse_all(lines)

    def test_equal_timestamps_fatal(self):
        lines = "\n".join(
            json.dumps({"ts": "2019-02-02T12:00:00Z", "scooters": []}) for _ in range(2)
        )
        with pytest.raises(NonMonotonicTimestamp):
            parse_all(lines)

    def test_malformed_json_carries_line_number(self):
        good = json.dumps({"ts": "2019-02-02T12:00:00Z", "scooters": []})
        with pytest.raises(MalformedRecord) as err:
            parse_all(good + "\n{not json\n")
        assert err.value.line_no == 2

    def test_out_of_range_coords_rejected(self):
        line = json.dumps({"ts": "2019-02-02T12:00:00Z", "scooters": [{"id": "a", "lat": 91.0, "lon": 0.0}]})
        with pytest.raises(MalformedRecord):
            parse_all(line)

    def test_counters_reconcile(self):
        rows = [
            {"id": "a", "lat": 33.77, "lon": -84.39},
            {"id": "a", "lat": 33.77, "lon": -84.39},
            {"id": None, "lat": 33.77, "lon": -84.39},
            {"id": "b", "lat": 33.77, "lon": -84.39},
        ]
        line = json.dumps({"ts": "2019-02-02T12:00:00Z", "scooters": rows})
        _, stats = parse_all(line)
        assert stats.input_records == len(rows)
        assert stats.retained + stats.dropped_null_id + stats.dropped_duplicate_id == len(rows)


class TestCsv:
    def test_rows_sharing_ts_form_batches(self):
        text = (
            "ts,id,lat,lon\n"
            "2019-02-02T12:00:00Z,a,33.77,-84.39\n"
            "2019-02-02T12:00:00Z,b,33.78,-84.38\n"
            "2019-02-02T12:10:00Z,a,33.77,-84.39\n"
        )
        batches, stats = parse_all(text, format="csv")
        assert [len(b.observations) for b in batches] == [2, 1]
        assert stats.batches == 2

    def test_empty_id_counts_as_null(self):
        text = "ts,id,lat,lon\n2019-02-02T12:00:00Z,,33.77,-84.39\n"
        batches, stats = parse_all(text, format="csv")
        assert batches[0].observations == []
        assert stats.dropped_null_id == 1

    def test_csv_non_monotonic(self):
        text = (
            "ts,id,lat,lon\n"
            "2019-02-02T12:00:00Z,a,33.77,-84.39\n"
            "2019-02-02T11:50:00Z,a,33.77,-84.39\n"
        )
        with pytest.raises(NonMonotonicTimestamp):
            parse_all(text, format="csv")

    def test_csv_repeated_ts_after_advancing_is_fatal(self):
        # a ts run may not resume once a later batch has started
        text = (
            "ts,id,lat,lon\n"
            "2019-02-02T12:00:00Z,a,33.77,-84.39\n"
            "2019-02-02T12:10:00Z,a,33.77,-84.39\n"
            "2019-02-02T12:00:00Z,b,33.77,-84.39\n"
        )
        with pytest.raises(NonMonotonicTimestamp):
            parse_all(text, format="csv")


class TestBboxFilter:
    def test_invalid_bbox_raises(self):
        with pytest.raises(InvalidBbox):
            Bbox(GeoPoint(33.8, -84.4), GeoPoint(33.7, -84.3))


feed_points = st.builds(
    GeoPoint,
    st.floats(33.7484, 33.7892).map(lambda v: round(v, 6)),
    st.floats(-84.4056, -84.3597).map(lambda v: round(v, 6)),
)


@given(
    data=st.lists(
        st.lists(st.tuples(st.sampled_from(["a", "b", "c", "d"]), feed_points), max_size=4),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=50, deadline=None)
def test_round_trip_lossless_for_retained_records(data):
    batches = []
    for i, rows in enumerate(data):
        seen = set()
        kept = []
        for sid, p in rows:
            if sid in seen:
                continue
            seen.add(sid)
            kept.append(obs(sid, p))
        batches.append(batch(i * 600, kept))
    buf = io.StringIO()
    write_snapshot_stream(batches, buf)
    reparsed = list(parse_snapshot_stream(io.StringIO(buf.getvalue())))
    assert len(reparsed) == len(batches)
    for orig, back in zip(batches, reparsed):
        assert back.ts == orig.ts
        assert back.observations == orig.observations


@pytest.mark.parametrize("format", ["jsonl", "csv"])
def test_byte_that_is_not_utf8_names_its_line(tmp_path, format):
    points = [GeoPoint(33.77, -84.39), GeoPoint(33.78, -84.38), GeoPoint(33.775, -84.385)]
    batches = [batch(i * 600, [obs(sid, p) for sid, p in zip(("s0", "s1", "s2"), points)]) for i in range(4)]
    path = tmp_path / f"feed.{format}"
    write_snapshot_stream(batches, path, format=format)
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b"s1", b"s\xff1")  # line 3: the third batch, or the first batch's s1
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(MalformedRecord) as err:
        list(parse_snapshot_stream(path, format=format))
    assert err.value.line_no == 3 and err.value.reason == "a byte that is not UTF-8"


@pytest.mark.parametrize("format", ["jsonl", "csv"])
def test_non_ascii_ids_parse(format):
    b = batch(0, [obs("é1", GeoPoint(33.77, -84.39)), obs("日2", GeoPoint(33.78, -84.38))])
    buf = io.StringIO()
    write_snapshot_stream([b], buf, format=format)
    (back,) = parse_snapshot_stream(io.StringIO(buf.getvalue()), format=format)
    assert back.observations == b.observations


def test_csv_round_trip_lossless(tmp_path):
    batches = [
        batch(0, [obs("a", GeoPoint(33.771234, -84.391111)), obs("b", GeoPoint(33.78, -84.38))]),
        batch(600, [obs("a", GeoPoint(33.772, -84.392))]),
    ]
    path = tmp_path / "feed.csv"
    write_snapshot_stream(batches, path, format="csv")
    back = list(parse_snapshot_stream(path, format="csv"))
    assert [b.observations for b in back] == [b.observations for b in batches]


T0, T1, T2 = "2019-02-02T11:50:00Z", "2019-02-02T12:00:00Z", "2019-02-02T12:10:00Z"


def _jsonl(*lines) -> str:
    return "".join(json.dumps({"ts": ts, "scooters": recs}) + "\n" for ts, recs in lines)


def _rec(sid, lat, lon) -> dict:
    return {"id": sid, "lat": lat, "lon": lon}


# Each malformed feed with the outcome the per-record parser gave before
# batches became columnar: (exception, line_no, message, batches yielded first).
# The whole-batch checks must hand every one of them to the scalar checks.
MALFORMED = {
    "jsonl": {
        "non_object_record": (
            _jsonl((T1, [_rec("a", 33.7, -84.3), 5])),
            (MalformedRecord, 1, "scooter record must be an object", 0),
        ),
        "bad_coord_before_non_object": (
            _jsonl((T1, [_rec("a", None, -84.3), "x"])),
            (MalformedRecord, 1, "non-numeric coordinates (None, -84.3)", 0),
        ),
        "null_lat": (
            _jsonl((T1, [_rec("a", 33.7, -84.3), _rec("b", None, -84.3)])),
            (MalformedRecord, 1, "non-numeric coordinates (None, -84.3)", 0),
        ),
        "missing_lon": (
            _jsonl((T1, [{"id": "a", "lat": 33.7}])),
            (MalformedRecord, 1, "non-numeric coordinates (33.7, None)", 0),
        ),
        "string_lat": (
            _jsonl((T1, [_rec("a", "north", -84.3)])),
            (MalformedRecord, 1, "non-numeric coordinates ('north', -84.3)", 0),
        ),
        "nan_lat": (
            '{"ts":"%s","scooters":[{"id":"a","lat":NaN,"lon":-84.3}]}\n' % T1,
            (MalformedRecord, 1, "coordinates out of range (nan, -84.3)", 0),
        ),
        "inf_lon": (
            '{"ts":"%s","scooters":[{"id":"a","lat":33.7,"lon":-Infinity}]}\n' % T1,
            (MalformedRecord, 1, "coordinates out of range (33.7, -inf)", 0),
        ),
        "lat_out_of_range": (
            _jsonl((T1, [_rec("a", 33.7, -84.3), _rec("b", 91.0, -84.3)])),
            (MalformedRecord, 1, "coordinates out of range (91.0, -84.3)", 0),
        ),
        "lon_out_of_range": (
            _jsonl((T1, [_rec("a", 33.7, 180.5)])),
            (MalformedRecord, 1, "coordinates out of range (33.7, 180.5)", 0),
        ),
        "list_lat": (
            _jsonl((T1, [_rec("a", [33.7], -84.3)])),
            (MalformedRecord, 1, "non-numeric coordinates ([33.7], -84.3)", 0),
        ),
        "nested_list_lat": (  # numpy would read [[1.0]] as a 2-D array without error
            _jsonl((T1, [_rec("a", [[1.0]], -84.3)])),
            (MalformedRecord, 1, "non-numeric coordinates ([[1.0]], -84.3)", 0),
        ),
        "ragged_list_lat": (
            _jsonl((T1, [_rec("a", [1.0], -84.3), _rec("b", 2.0, -84.3)])),
            (MalformedRecord, 1, "non-numeric coordinates ([1.0], -84.3)", 0),
        ),
        "bad_row_then_non_monotonic": (
            _jsonl((T1, [_rec("a", 33.7, -84.3)]), (T2, [_rec("a", 95.0, -84.3)]), (T0, [])),
            (MalformedRecord, 2, "coordinates out of range (95.0, -84.3)", 1),
        ),
        "non_monotonic_before_bad_row": (
            _jsonl((T1, [_rec("a", 33.7, -84.3)]), (T0, [_rec("a", 99.0, -84.3)])),
            (NonMonotonicTimestamp, None, None, 1),
        ),
    },
    "csv": {
        "non_numeric": (
            f"ts,id,lat,lon\n{T1},a,33.7,-84.3\n{T1},b,north,-84.3\n",
            (MalformedRecord, 3, "non-numeric coordinates ('north', '-84.3')", 0),
        ),
        "empty_lat": (
            f"ts,id,lat,lon\n{T1},a,,-84.3\n",
            (MalformedRecord, 2, "non-numeric coordinates ('', '-84.3')", 0),
        ),
        "nan_lat": (
            f"ts,id,lat,lon\n{T1},a,nan,-84.3\n",
            (MalformedRecord, 2, "coordinates out of range (nan, -84.3)", 0),
        ),
        "out_of_range": (
            f"ts,id,lat,lon\n{T1},a,33.7,-184.3\n",
            (MalformedRecord, 2, "coordinates out of range (33.7, -184.3)", 0),
        ),
        "wrong_columns": (
            f"ts,id,lat,lon\n{T1},a,33.7,-84.3\n{T1},b,33.7\n",
            (MalformedRecord, 3, "expected 4 columns, got 3", 0),
        ),
        "wrong_columns_after_bad_row": (
            f"ts,id,lat,lon\n{T1},a,33.7,-84.3\n{T1},b,north,-84.3\n{T1},c,33.7\n",
            (MalformedRecord, 3, "non-numeric coordinates ('north', '-84.3')", 0),
        ),
        "wrong_columns_opening_next_batch": (
            f"ts,id,lat,lon\n{T1},a,33.7,-84.3\n{T2},b\n",
            (MalformedRecord, 3, "expected 4 columns, got 2", 0),
        ),
        "bad_row_then_non_monotonic": (
            f"ts,id,lat,lon\n{T1},a,33.7,-84.3\n{T1},b,91,-84.3\n{T0},a,33.7,-84.3\n",
            (MalformedRecord, 3, "coordinates out of range (91.0, -84.3)", 0),
        ),
        "bad_row_after_blank_line": (
            f"ts,id,lat,lon\n{T1},a,33.7,-84.3\n\n{T1},b,91,-84.3\n",
            (MalformedRecord, 4, "coordinates out of range (91.0, -84.3)", 0),
        ),
        "bad_ts_after_bad_row": (
            f"ts,id,lat,lon\n{T1},a,33.7,x\nlater,a,33.7,-84.3\n",
            (MalformedRecord, 2, "non-numeric coordinates (33.7, 'x')", 0),
        ),
    },
}


@pytest.mark.parametrize(
    "format,text,expected",
    [pytest.param(fmt, text, want, id=f"{fmt}-{name}") for fmt, cases in MALFORMED.items() for name, (text, want) in cases.items()],
)
def test_malformed_feed_reports_first_bad_record(format, text, expected):
    exc_type, line_no, reason, yielded = expected
    got = []
    with pytest.raises(exc_type) as err:
        for b in parse_snapshot_stream(io.StringIO(text), format=format):
            got.append(b)
    assert len(got) == yielded
    if exc_type is MalformedRecord:
        assert (err.value.line_no, err.value.reason) == (line_no, reason)


def test_integer_too_long_to_convert_is_invalid_json():
    text = '{"ts":"%s","scooters":[{"id":"a","lat":%s,"lon":-84.3}]}\n' % (T1, "1" * 5000)
    with pytest.raises(MalformedRecord) as err:
        parse_all(text)
    assert err.value.line_no == 1 and err.value.reason.startswith("invalid JSON: Exceeds the limit (4300 digits)")


def test_records_the_batch_check_declines_still_parse():
    # strings and ints are not float64 columns, but float() accepts them;
    # a record without an id is an in-use scooter
    text = _jsonl((T1, [_rec("a", "33.7", -84.3), _rec("b", 33, "-84"), {"lat": 33.7, "lon": -84.3}]))
    batches, stats = parse_all(text)
    assert list(batches[0].observations) == [obs("a", GeoPoint(33.7, -84.3)), obs("b", GeoPoint(33.0, -84.0))]
    assert (stats.retained, stats.dropped_null_id) == (2, 1)


def test_non_string_ids_are_stringified_before_dedup():
    text = _jsonl((T1, [_rec(7, 33.7, -84.3), _rec("7", 33.8, -84.3), _rec(["x"], 33.7, -84.3)]))
    batches, stats = parse_all(text)
    assert batches[0].ids == ["7", "['x']"]
    assert stats.dropped_duplicate_id == 1


def test_duplicate_warning_once_per_stream(caplog):
    text = _jsonl(
        *[(f"2019-02-02T12:{m:02d}:00Z", [_rec("a", 33.7, -84.3), _rec("a", 33.8, -84.3)]) for m in (0, 10, 20)]
    )
    with caplog.at_level(logging.DEBUG, logger="scootertrips.ingest"):
        _, stats = parse_all(text)
    assert stats.dropped_duplicate_id == 3
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "duplicate scooter id a" in warnings[0].getMessage()
    assert "ingest.dropped_duplicate_id" in warnings[0].getMessage()
    assert sum(r.levelno == logging.DEBUG for r in caplog.records) == 2


def test_observations_view_is_lazy_and_read_only():
    b = batch(0, [obs("a", GeoPoint(33.77, -84.39)), obs("b", GeoPoint(33.78, -84.38))])
    view = b.observations
    assert len(view) == 2 and view[-1] == obs("b", GeoPoint(33.78, -84.38))
    assert view == list(view) and view != [] and view == b.observations
    with pytest.raises(TypeError):
        view[0] = obs("c", GeoPoint(33.7, -84.3))


_POINTS = [GeoPoint(33.77, -84.39), GeoPoint(33.775, -84.385), GeoPoint(33.78, -84.38), GeoPoint(33.7712, -84.3901)]

feed_batches = st.lists(
    st.lists(st.tuples(st.sampled_from(["a", "b", "c", "d", "e"]), st.sampled_from(_POINTS)), min_size=1, max_size=6),
    min_size=1,
    max_size=8,
)


@given(data=feed_batches, pad=st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_jsonl_and_csv_feeds_agree(data, pad):
    # duplicates are written as given, so both parsers must drop the same ones;
    # every batch has a record, since a CSV feed cannot carry an empty batch
    batches = [batch(i * 600, [obs(sid, p) for sid, p in rows]) for i, rows in enumerate(data)]
    jsonl, csv_text = io.StringIO(), io.StringIO()
    write_snapshot_stream(batches, jsonl, "jsonl", null_fill_to=pad)
    write_snapshot_stream(batches, csv_text, "csv", null_fill_to=pad)
    from_jsonl = parse_snapshot_stream(io.StringIO(jsonl.getvalue()), "jsonl")
    from_csv = parse_snapshot_stream(io.StringIO(csv_text.getvalue()), "csv")
    assert rows(extract_trips(from_jsonl)) == rows(extract_trips(from_csv))
    assert from_jsonl.stats == from_csv.stats
    assert from_jsonl.stats.input_records == sum(max(len(rows), pad) for rows in data)


# Records as JSON gives them: canonical ones, and ones float() or str() accepts
# (int and numeric-string coordinates, an int id, no id, the "null" marker).
_IDS = ["a", "b", "c", 7, "7", "null", None, "missing"]
_LATS = [33.77, 33.7712, 33, "33.775"]
_LONS = [-84.39, -84.3901, -84, "-84.385"]
_BAD = {
    "non-numeric": {"id": "a", "lat": "north", "lon": -84.39},
    "nan": {"id": "a", "lat": float("nan"), "lon": -84.39},
    "off-globe": {"id": "a", "lat": 33.77, "lon": 181.5},
    "huge-int": {"id": "a", "lat": 10**400, "lon": -84.39},  # float() overflows on it; in CSV text it reads inf
    "not-object": 5,
    "lone-surrogate-id": {"id": "a\udcff", "lat": 33.77, "lon": -84.39},
}
_NOT_OBJECT = {"jsonl": "scooter record must be an object", "csv": "expected 4 columns, got 3"}


def _record(sid, lat, lon):
    return {"lat": lat, "lon": lon} if sid == "missing" else {"id": sid, "lat": lat, "lon": lon}


def _ts(i: int) -> str:
    return f"2019-02-04T17:{i * 10:02d}:00Z"


def _feed_text(feed, format: str) -> str:
    """The feed as JSONL (json.dumps escapes a lone surrogate) or as CSV, where
    a record that is not an object becomes a row of three columns."""
    if format == "jsonl":
        return _jsonl(*((_ts(i), recs) for i, recs in enumerate(feed)))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["ts", "id", "lat", "lon"])
    for i, recs in enumerate(feed):
        for rec in recs:
            row = [_ts(i), *_csv_fields(rec)] if isinstance(rec, dict) else [_ts(i), "a", "33.77"]
            writer.writerow(row)
    return buf.getvalue()


def _csv_fields(rec: dict) -> tuple:
    sid = rec.get("id")
    return "" if sid is None else str(sid), str(rec["lat"]), str(rec["lon"])


def _reference_parse(feed, format: str):
    """Per-record parse: ([(ts, ids, lats, lons), ...], IngestStats), or the
    (line_no, reason) of the first bad record."""
    batches, stats, line_no = [], IngestStats(), 1 if format == "csv" else 0
    for i, recs in enumerate(feed):
        line_no += format == "jsonl"
        kept = {}
        for rec in recs:
            line_no += format == "csv"
            if not isinstance(rec, dict):
                return line_no, _NOT_OBJECT[format]
            sid, lat, lon = (rec.get("id"), rec["lat"], rec["lon"]) if format == "jsonl" else _csv_fields(rec)
            if isinstance(sid, str) and any("\ud800" <= ch <= "\udfff" for ch in sid):
                return line_no, "an id holding a lone surrogate escape" if format == "jsonl" else "a byte that is not UTF-8"
            try:
                point = float(lat), float(lon)
            except (ValueError, OverflowError):
                return line_no, f"non-numeric coordinates ({lat!r}, {lon!r})"
            if not (-90 <= point[0] <= 90 and -180 <= point[1] <= 180):
                return line_no, f"coordinates out of range ({point[0]}, {point[1]})"
            sid = None if sid is None else str(sid)
            if sid is None or sid.strip().lower() in ("", "null"):
                stats.dropped_null_id += 1
            elif sid in kept:
                stats.dropped_duplicate_id += 1
            else:
                kept[sid] = point
        batches.append((_ts(i), list(kept), [p[0] for p in kept.values()], [p[1] for p in kept.values()]))
        stats.batches += 1
        stats.retained += len(kept)
    return batches, stats


@st.composite
def _feeds(draw):
    records = st.builds(_record, st.sampled_from(_IDS), st.sampled_from(_LATS), st.sampled_from(_LONS))
    feed = draw(st.lists(st.lists(records, min_size=1, max_size=5), min_size=1, max_size=4))
    bad = draw(st.sampled_from([None, *_BAD]))
    if bad is not None:
        recs = feed[draw(st.integers(0, len(feed) - 1))]
        recs.insert(draw(st.integers(0, len(recs))), _BAD[bad])
    return feed


@given(feed=_feeds(), format=st.sampled_from(["jsonl", "csv"]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_batch_check_matches_a_per_record_parse(feed, format):
    want = _reference_parse(feed, format)
    try:
        batches, stats = parse_all(_feed_text(feed, format), format)
    except MalformedRecord as err:
        got = err.line_no, err.reason
    else:
        got = [(format_ts(b.ts), b.ids, b.lat.tolist(), b.lon.tolist()) for b in batches], stats
    assert got == want
