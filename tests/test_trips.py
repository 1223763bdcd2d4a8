import csv
import tracemalloc
from dataclasses import replace
from datetime import date, datetime, time, timedelta, timezone
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scootertrips.errors import InvalidConfig, MalformedRecord
from scootertrips import trips as trips_module
from scootertrips.geo import Bbox, GeoPoint, haversine_m, offset_azimuthal
from scootertrips.ingest import SnapshotBatch
from scootertrips.trips import (
    ASSOC_CSV,
    TRIP_CSV,
    WRITE_BLOCK,
    CleaningRules,
    TripTable,
    clean_trips,
    crop_trips,
    extract_trips,
    read_table_csv,
    read_trips_csv,
    write_table_csv,
    write_trips_csv,
)

from conftest import BASE_TS, CITY, Row, batch, make_trip, obs, rows, table_of

UTC = timezone.utc
B500 = offset_azimuthal(CITY, 90.0, 500.0)


class TestExtraction:
    def test_absence_gap_yields_one_trip(self):
        feed = [
            batch(0, [obs("S", CITY)]),
            batch(600, [obs("S", CITY)]),
            batch(1200, []),
            batch(1800, [obs("S", B500)]),
        ]
        trips = rows(extract_trips(feed))
        assert len(trips) == 1
        t = trips[0]
        assert t.start_ts == BASE_TS + timedelta(seconds=600)  # last seen at origin
        assert t.end_ts == BASE_TS + timedelta(seconds=1800)
        assert t.origin == CITY and t.destination == B500
        assert t.displacement_m == pytest.approx(500.0, rel=1e-3)
        assert t.displacement_m == pytest.approx(haversine_m(t.origin, t.destination), rel=1e-6)

    def test_consecutive_move_without_absence(self):
        feed = [batch(0, [obs("S", CITY)]), batch(600, [obs("S", B500)])]
        trips = rows(extract_trips(feed))
        assert len(trips) == 1
        assert trips[0].start_ts == BASE_TS
        assert trips[0].end_ts == BASE_TS + timedelta(seconds=600)

    def test_stationary_scooter_yields_nothing(self):
        feed = [batch(i * 600, [obs("S", CITY)]) for i in range(20)]
        assert rows(extract_trips(feed)) == []

    def test_reappearance_at_same_position_yields_nothing(self):
        feed = [batch(0, [obs("S", CITY)]), batch(600, []), batch(1200, [obs("S", CITY)])]
        assert rows(extract_trips(feed)) == []

    def test_sub_epsilon_wobble_ignored(self):
        near = offset_azimuthal(CITY, 45.0, 0.5)
        feed = [batch(0, [obs("S", CITY)]), batch(600, [obs("S", near)])]
        assert rows(extract_trips(feed)) == []

    def test_midnight_cut_suppresses_trip(self):
        # 23:50 local Feb 4 -> 00:00 local Feb 5 (EST = UTC-5)
        late = datetime(2019, 2, 5, 4, 50, 0, tzinfo=UTC)
        feed = [
            batch(0, [obs("S", CITY)], base=late),
            batch(600, [obs("S", B500)], base=late),
        ]
        assert rows(extract_trips(feed)) == []

    def test_independent_scooters(self):
        other = offset_azimuthal(CITY, 180.0, 900.0)
        feed = [
            batch(0, [obs("S1", CITY), obs("S2", other)]),
            batch(600, [obs("S1", B500), obs("S2", other)]),
            batch(1200, [obs("S1", B500), obs("S2", CITY)]),
        ]
        trips = rows(extract_trips(feed))
        assert sorted(t.scooter_id for t in trips) == ["S1", "S2"]

    def test_trips_never_overlap_per_scooter(self):
        pts = [CITY, B500, offset_azimuthal(CITY, 200.0, 800.0), CITY]
        feed = []
        for i, p in enumerate(pts):
            feed.append(batch(i * 1200, [obs("S", p)]))
            feed.append(batch(i * 1200 + 600, [obs("S", p)]))
        trips = rows(extract_trips(feed))
        assert len(trips) == 3
        for prev, cur in zip(trips, trips[1:]):
            assert prev.end_ts <= cur.start_ts

    def test_origin_destination_match_observed_positions(self):
        feed = [
            batch(0, [obs("S", CITY)]),
            batch(600, [obs("S", B500)]),
            batch(1200, [obs("S", B500)]),
        ]
        positions = {(b.ts, o.scooter_id): o.position for b in feed for o in b.observations}
        for t in rows(extract_trips(feed)):
            assert positions[(t.start_ts, t.scooter_id)] == t.origin
            assert positions[(t.end_ts, t.scooter_id)] == t.destination

    def test_empty_input(self):
        assert rows(extract_trips([])) == []


class TestCleaning:
    def local(self, h, m=0, day=4):
        # EST timestamps expressed in UTC
        return datetime(2019, 2, day, h, m, 0, tzinfo=timezone(timedelta(hours=-5))).astimezone(UTC)

    def trip_at(self, start_h, start_m=0, disp=500.0, duration_s=600):
        start = self.local(start_h, start_m)
        return Row("S", CITY, B500, start, start + timedelta(seconds=duration_s), disp)

    def test_under_75_removed(self):
        kept, report = clean_trips(table_of([self.trip_at(12, disp=50.0)]), CleaningRules())
        assert rows(kept) == [] and report.removed_distance == 1

    def test_75_exactly_kept(self):
        kept, _ = clean_trips(table_of([self.trip_at(12, disp=75.0)]), CleaningRules())
        assert len(kept) == 1

    def test_3000_exactly_kept_3001_removed(self):
        kept, report = clean_trips(
            table_of([self.trip_at(12, disp=3000.0), self.trip_at(13, disp=3000.1)]), CleaningRules()
        )
        assert len(kept) == 1 and report.removed_distance == 1

    def test_start_before_7am_removed(self):
        kept, report = clean_trips(table_of([self.trip_at(6, 50)]), CleaningRules())
        assert rows(kept) == [] and report.removed_hours == 1

    def test_7am_start_kept_9pm_end_removed(self):
        at_7 = self.trip_at(7, 0)
        ends_21 = self.trip_at(20, 50, duration_s=600)  # ends exactly 21:00
        kept, report = clean_trips(table_of([at_7, ends_21]), CleaningRules())
        assert rows(kept) == [at_7]
        assert report.removed_hours == 1

    def test_hours_counted_before_distance(self):
        # violates both; must count under the hours rule only
        bad = self.trip_at(6, 30, disp=10.0)
        _, report = clean_trips(table_of([bad]), CleaningRules())
        assert report.removed_hours == 1 and report.removed_distance == 0

    def test_histogram_counts_raw_input(self):
        trips = [
            self.trip_at(12, disp=3.0),
            self.trip_at(12, 30, disp=7.0),
            self.trip_at(13, disp=15.0),
            self.trip_at(14, disp=500.0),
        ]
        _, report = clean_trips(table_of(trips), CleaningRules())
        assert (report.under_5m, report.under_10m, report.under_20m) == (1, 2, 3)

    def test_partition_and_idempotence(self):
        trips = [
            self.trip_at(12, disp=50.0),
            self.trip_at(12, disp=90.0),
            self.trip_at(6, 0, disp=90.0),
            self.trip_at(15, disp=3200.0),
            self.trip_at(20, disp=100.0),
        ]
        kept, report = clean_trips(table_of(trips), CleaningRules())
        assert len(kept) + report.removed_hours + report.removed_distance == len(trips)
        again, report2 = clean_trips(kept, CleaningRules())
        assert rows(again) == rows(kept)
        assert report2.removed_hours == 0 and report2.removed_distance == 0

    def test_invalid_rules(self):
        with pytest.raises(InvalidConfig):
            CleaningRules(min_displacement_m=100.0, max_displacement_m=50.0)
        with pytest.raises(InvalidConfig):
            CleaningRules(day_start=time(22, 0), day_end=time(7, 0))


class TestCrop:
    def test_both_endpoints_must_be_inside(self):
        bbox = Bbox(GeoPoint(33.76, -84.40), GeoPoint(33.78, -84.38))
        inside = make_trip(origin=GeoPoint(33.77, -84.39), destination=GeoPoint(33.775, -84.385))
        out_dest = make_trip(origin=GeoPoint(33.77, -84.39), destination=GeoPoint(33.80, -84.39))
        kept, removed = crop_trips(table_of([inside, out_dest]), bbox)
        assert rows(kept) == [inside] and removed == 1


def test_take_of_a_keep_all_mask_is_the_table_itself():
    table = table_of([make_trip("a", destination=B500), make_trip("b", destination=B500, start_offset_s=600)])
    assert table.take(np.ones(2, dtype=bool)) is table
    kept, removed = crop_trips(table, Bbox(GeoPoint(33.0, -85.0), GeoPoint(34.0, -84.0)))
    assert kept is table and removed == 0
    second = table.take(np.array([False, True]))
    assert second is not table and rows(second) == rows(table)[1:]
    assert rows(table.take(np.array([1, 0]))) == rows(table)[::-1]  # an index array selects, in its order


def test_trips_csv_round_trip(tmp_path):
    trips = [
        make_trip("S1", CITY, B500, 0, 600),
        make_trip("S2", B500, CITY, 1200, 1800),
    ]
    path = tmp_path / "trips.csv"
    write_trips_csv(table_of(trips), path)
    assert rows(read_trips_csv(path)) == trips


def test_trips_csv_round_trip_across_write_blocks(tmp_path, monkeypatch):
    # rows 2j-1 and 2j share a start, so one start repeats across the first block edge
    trips = [make_trip(f"S{i % 7}", CITY, B500, 600 * ((i + 1) // 2)) for i in range(WRITE_BLOCK + 5)]
    assert trips[WRITE_BLOCK - 1].start_ts == trips[WRITE_BLOCK].start_ts
    path = tmp_path / "trips.csv"
    write_trips_csv(table_of(trips), path)
    assert rows(read_trips_csv(path)) == trips
    monkeypatch.setattr(trips_module, "WRITE_BLOCK", len(trips))
    write_trips_csv(table_of(trips), tmp_path / "one_block.csv")
    assert path.read_bytes() == (tmp_path / "one_block.csv").read_bytes()


def test_trips_csv_bad_timestamp_reports_its_line(tmp_path):
    path = tmp_path / "trips.csv"
    write_trips_csv(table_of([make_trip("S1"), make_trip("S2"), make_trip("S3")]), path)
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    lines[2][6] = "later-junk"  # line 3: end_ts
    lines[3][5] = "not-a-time"  # line 4: start_ts
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(lines)
    with pytest.raises(MalformedRecord) as err:
        read_trips_csv(path)
    assert err.value.line_no == 3 and "later-junk" in err.value.reason


def edit_line(path, line: int, edit) -> None:
    """Replace the fields of one single-line CSV record with edit(fields)."""
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    lines[line - 1] = edit(lines[line - 1])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(lines)


def renamed(name, new):
    return lambda fields: [new if f == name else f for f in fields]


def setting(col: int, text: str):
    return lambda fields: fields[:col] + [text] + fields[col + 1:]


@pytest.mark.parametrize("schema, line, edit, words", [
    (TRIP_CSV, 1, renamed("start_ts", "start"), ["header column 6", "'start'", "'start_ts'"]),
    (TRIP_CSV, 1, lambda fields: fields[:-1], ["header column 8", "'displacement_m'"]),
    (TRIP_CSV, 1, lambda fields: fields + ["origin_poi"], ["header column 9", "'origin_poi'"]),
    (TRIP_CSV, 3, lambda fields: fields[:-1], ["7 fields, expected 8"]),
    (TRIP_CSV, 3, lambda fields: fields + ["1.0"], ["9 fields, expected 8"]),
    (TRIP_CSV, 2, setting(1, "north"), ["origin_lat", "'north'"]),
    (TRIP_CSV, 3, setting(7, ""), ["displacement_m", "''"]),
    (ASSOC_CSV, 4, setting(12, "yes"), ["origin_reassigned", "'yes'"]),
    (ASSOC_CSV, 2, setting(12, "True"), ["origin_reassigned", "'True'"]),
    (ASSOC_CSV, 3, setting(11, "far"), ["dest_dist_m", "'far'"]),
], ids=["header-renamed", "header-short", "header-long", "row-short", "row-long", "float", "float-empty",
        "bool", "bool-capitalized", "assoc-float"])
def test_table_csv_bad_input_names_line_and_column(tmp_path, schema, line, edit, words):
    trips = [make_trip(f"S{i}")._replace(origin_poi="P", origin_dist_m=1.0, dest_poi="Q", dest_dist_m=2.0)
             for i in range(4)]
    path = tmp_path / "table.csv"
    write_table_csv(table_of(trips), path, schema)
    edit_line(path, line, edit)
    with pytest.raises(MalformedRecord) as err:
        read_table_csv(path, schema)
    assert err.value.line_no == line
    for word in words:
        assert word in err.value.reason


@pytest.mark.parametrize("old, new, line, reason", [
    (b"S2,", b"S\xff2,", 4, "bad scooter_id 'S\\udcff2'"),
    (b"S1,", b'"S1,', None, "field larger than field limit"),
], ids=["byte-not-utf8", "open-quote"])
def test_table_csv_bad_bytes_are_malformed(tmp_path, old, new, line, reason):
    path = tmp_path / "trips.csv"
    write_trips_csv(table_of(make_trip(f"S{i}") for i in range(3000)), path)  # over the 128 KiB csv field limit
    path.write_bytes(path.read_bytes().replace(old, new, 1))
    with pytest.raises(MalformedRecord) as err:
        read_trips_csv(path)
    assert line in (None, err.value.line_no) and reason in err.value.reason


def test_empty_table_csv_needs_its_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(MalformedRecord, match="header column 1 is None, expected 'scooter_id'"):
        read_trips_csv(path)
    write_trips_csv(table_of([]), path)
    assert len(read_trips_csv(path)) == 0


def decoded(table: TripTable, schema) -> list[list]:
    """The schema's columns of table as Python values, codes mapped to their strings."""
    out = []
    for _, field, kind in schema:
        values = getattr(table, field).tolist()
        out.append([getattr(table, kind)[v] for v in values] if kind in ("ids", "poi_ids") else values)
    return out


MULTILINE_ID = 'S,"7"\n2'  # quoted on write, and its record spans two lines


@given(
    ids=st.lists(st.text(alphabet='ab,"\n ', max_size=6), min_size=1, max_size=5, unique=True),
    extra=st.integers(0, 9),
    seed=st.integers(0, 2**32 - 1),
    schema=st.sampled_from([TRIP_CSV, ASSOC_CSV]),
)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_table_csv_round_trip_with_quoted_ids(tmp_path_factory, ids, extra, seed, schema):
    rng = np.random.default_rng(seed)
    n = WRITE_BLOCK + extra
    ids = [MULTILINE_ID] + [i for i in ids if i != MULTILINE_ID]
    codes = rng.integers(len(ids), size=n)
    codes[0] = 0  # the first record spans two lines
    start = rng.integers(1_500_000_000, 1_600_000_000, size=n)
    table = TripTable(
        ids=ids, scooter=codes, start=start, end=start + rng.integers(0, 7200, size=n),
        origin_lat=rng.uniform(-90, 90, n), origin_lon=rng.uniform(-180, 180, n),
        dest_lat=rng.uniform(-90, 90, n), dest_lon=rng.uniform(-180, 180, n), displacement=rng.exponential(500, n),
    )
    if schema is ASSOC_CSV:
        poi_ids = ids[::-1] + ["P\n"]
        table = replace(
            table, poi_ids=poi_ids, origin_poi=rng.integers(len(poi_ids), size=n), origin_dist=rng.exponential(30, n),
            dest_poi=rng.integers(len(poi_ids), size=n), dest_dist=rng.exponential(30, n), reassigned=rng.random(n) < 0.3,
        )
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    assert write_table_csv(table, path, schema) == n
    back = read_table_csv(path, schema)
    assert decoded(back, schema) == decoded(table, schema)
    assert [getattr(back, f).dtype for _, f, _ in schema] == [getattr(table, f).dtype for _, f, _ in schema]

    # a bad last field: its record ends on the line the error names
    with open(path, newline="") as fh:
        records = list(csv.reader(fh))
    bad = int(rng.integers(1, n)) + 1  # a data record after the two-line first one
    records[bad][-1] = "junk"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(records)
    line = sum(1 + sum(f.count("\n") for f in record) for record in records[: bad + 1])
    with pytest.raises(MalformedRecord) as err:
        read_table_csv(path, schema)
    assert err.value.line_no == line and "junk" in err.value.reason


_SPOTS = [CITY, B500, offset_azimuthal(CITY, 0.0, 800.0), offset_azimuthal(CITY, 0.0, 0.5)]


@given(
    feed=st.lists(
        st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e", "f"]), st.sampled_from(_SPOTS), max_size=6),
        min_size=2,
        max_size=8,
    ),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_record_order_within_batch_does_not_matter(feed, data):
    batches = [batch(i * 600, [obs(sid, p) for sid, p in rows.items()]) for i, rows in enumerate(feed)]
    shuffled = [
        batch(i * 600, data.draw(st.permutations([obs(sid, p) for sid, p in rows.items()])))
        for i, rows in enumerate(feed)
    ]
    assert rows(extract_trips(shuffled)) == rows(extract_trips(batches))


def reference_extract(feed, tz_name="America/New_York", eps_m=1.0):
    """Per-scooter Python reference: consecutive sightings on one local day
    that moved more than eps_m, sorted by (start, scooter id, end)."""
    tz = ZoneInfo(tz_name)
    last = {}
    out = []
    for b in feed:
        day = b.ts.astimezone(tz).date()
        for o in b.observations:
            prev = last.get(o.scooter_id)
            if prev is not None and prev[2] == day:
                moved = haversine_m(prev[1], o.position)
                if moved > eps_m:
                    out.append(Row(o.scooter_id, prev[1], o.position, prev[0], b.ts, moved))
            last[o.scooter_id] = (b.ts, o.position, day)
    return sorted(out, key=lambda t: (t.start_ts, t.scooter_id, t.end_ts))


# first sighting order differs from string order: "S10" < "S9", "B" < "a" < "b"
_IDS = ["S9", "S10", "S100", "S1", "b", "a", "B", "s1"]


@given(
    feed=st.lists(
        st.tuples(
            st.sampled_from([300, 600, 3600]),
            st.dictionaries(st.sampled_from(_IDS), st.sampled_from(_SPOTS), max_size=len(_IDS)),
        ),
        min_size=1,
        max_size=10,
    ),
    late=st.booleans(),
    data=st.data(),
)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_extract_matches_per_pair_reference(feed, late, data):
    # a late start puts local midnight inside the feed
    base = datetime(2019, 2, 5, 4, 10, tzinfo=UTC) if late else BASE_TS
    batches, offset = [], 0
    for gap, seen in feed:
        offset += gap
        ordered = data.draw(st.permutations(sorted(seen)))
        batches.append(batch(offset, [obs(sid, seen[sid]) for sid in ordered], base=base))
    got = rows(extract_trips(batches))
    want = reference_extract(batches)
    assert [t[:5] for t in got] == [t[:5] for t in want]
    assert [t.displacement_m for t in got] == pytest.approx([t.displacement_m for t in want], rel=1e-9)


def moving_feed(days: int, fleet: int = 400, cadence_s: int = 600):
    """fleet scooters seen every cadence_s for days local days from New York
    midnight, 2019-02-04; each tick about 2% of them move ~550 m north."""
    rng = np.random.default_rng(days)
    ids = [f"S{i:03d}" for i in range(fleet)]
    lat = CITY.lat + rng.uniform(-0.01, 0.01, fleet)
    lon = CITY.lon + rng.uniform(-0.01, 0.01, fleet)
    midnight = datetime(2019, 2, 4, 5, 0, tzinfo=UTC)
    for tick in range(days * 86400 // cadence_s):
        lat = lat + 0.005 * (rng.random(fleet) < 0.02)
        yield SnapshotBatch(midnight + timedelta(seconds=tick * cadence_s), ids, lat, lon)


def extract_peak_bytes(days: int) -> int:
    """Peak traced allocation, numpy buffers included, while extracting moving_feed(days)."""
    tracemalloc.start()
    try:
        trips = extract_trips(moving_feed(days))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trips) > 1000 * days
    return peak


def test_extract_memory_does_not_grow_with_feed_days():
    two, eight = extract_peak_bytes(2), extract_peak_bytes(8)
    assert eight <= 1.5 * two, f"peak {eight / 1e6:.1f} MB for 8 days, {two / 1e6:.1f} MB for 2"


# the 2019 US DST changes (23 and 25 hour local days), their eves, and a plain winter day
_DST_STARTS = [date(2019, 3, 9), date(2019, 3, 10), date(2019, 11, 2), date(2019, 11, 3), date(2019, 2, 4)]


@given(
    start=st.sampled_from(_DST_STARTS),
    tz_name=st.sampled_from(["America/New_York", "America/Chicago"]),
    days=st.integers(1, 3),
    cadence_s=st.sampled_from([300, 600, 1800]),
    phase_s=st.integers(0, 1799),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_feed_split_at_local_midnight_extracts_as_the_whole(start, tz_name, days, cadence_s, phase_s, seed):
    tz = ZoneInfo(tz_name)
    midnights = [datetime.combine(start + timedelta(days=d), time(0), tzinfo=tz) for d in range(days + 1)]
    rng = np.random.default_rng(seed)
    spots = np.array(_SPOTS)
    where = rng.integers(0, len(_SPOTS), len(_IDS))
    # from two hours before the first local midnight to two hours after the last
    ts = midnights[0].astimezone(UTC) - timedelta(hours=2) + timedelta(seconds=phase_s)
    end = midnights[-1].astimezone(UTC) + timedelta(hours=2)
    batches = []
    while ts < end:
        moved = rng.random(len(_IDS)) < 0.3
        where = np.where(moved, rng.integers(0, len(_SPOTS), len(_IDS)), where)
        seen = np.nonzero(rng.random(len(_IDS)) < 0.8)[0]
        batches.append(SnapshotBatch(ts, [_IDS[i] for i in seen], spots[where[seen], 0], spots[where[seen], 1]))
        ts += timedelta(seconds=cadence_s)
    parts = [[] for _ in range(len(midnights) + 1)]
    for b in batches:  # part i holds the batches after i of the local midnights
        parts[sum(b.ts >= m for m in midnights)].append(b)
    whole = rows(extract_trips(batches, timezone_name=tz_name))
    assert whole
    assert whole == [t for part in parts for t in rows(extract_trips(part, timezone_name=tz_name))]
