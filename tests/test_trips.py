from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scootertrips.errors import InvalidConfig
from scootertrips.geo import Bbox, GeoPoint, haversine_m, offset_azimuthal
from scootertrips.trips import (
    CleaningRules,
    RawTrip,
    clean_trips,
    crop_trips,
    extract_trips,
    read_trips_csv,
    write_trips_csv,
)

from conftest import BASE_TS, CITY, batch, make_trip, obs

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
        trips = extract_trips(feed)
        assert len(trips) == 1
        t = trips[0]
        assert t.start_ts == BASE_TS + timedelta(seconds=600)  # last seen at origin
        assert t.end_ts == BASE_TS + timedelta(seconds=1800)
        assert t.origin == CITY and t.destination == B500
        assert t.displacement_m == pytest.approx(500.0, rel=1e-3)
        assert t.displacement_m == pytest.approx(haversine_m(t.origin, t.destination), rel=1e-6)

    def test_consecutive_move_without_absence(self):
        feed = [batch(0, [obs("S", CITY)]), batch(600, [obs("S", B500)])]
        trips = extract_trips(feed)
        assert len(trips) == 1
        assert trips[0].start_ts == BASE_TS
        assert trips[0].end_ts == BASE_TS + timedelta(seconds=600)

    def test_stationary_scooter_yields_nothing(self):
        feed = [batch(i * 600, [obs("S", CITY)]) for i in range(20)]
        assert extract_trips(feed) == []

    def test_reappearance_at_same_position_yields_nothing(self):
        feed = [batch(0, [obs("S", CITY)]), batch(600, []), batch(1200, [obs("S", CITY)])]
        assert extract_trips(feed) == []

    def test_sub_epsilon_wobble_ignored(self):
        near = offset_azimuthal(CITY, 45.0, 0.5)
        feed = [batch(0, [obs("S", CITY)]), batch(600, [obs("S", near)])]
        assert extract_trips(feed) == []

    def test_midnight_cut_suppresses_trip(self):
        # 23:50 local Feb 4 -> 00:00 local Feb 5 (EST = UTC-5)
        late = datetime(2019, 2, 5, 4, 50, 0, tzinfo=UTC)
        feed = [
            batch(0, [obs("S", CITY)], base=late),
            batch(600, [obs("S", B500)], base=late),
        ]
        assert extract_trips(feed) == []

    def test_independent_scooters(self):
        other = offset_azimuthal(CITY, 180.0, 900.0)
        feed = [
            batch(0, [obs("S1", CITY), obs("S2", other)]),
            batch(600, [obs("S1", B500), obs("S2", other)]),
            batch(1200, [obs("S1", B500), obs("S2", CITY)]),
        ]
        trips = extract_trips(feed)
        assert sorted(t.scooter_id for t in trips) == ["S1", "S2"]

    def test_trips_never_overlap_per_scooter(self):
        pts = [CITY, B500, offset_azimuthal(CITY, 200.0, 800.0), CITY]
        feed = []
        for i, p in enumerate(pts):
            feed.append(batch(i * 1200, [obs("S", p)]))
            feed.append(batch(i * 1200 + 600, [obs("S", p)]))
        trips = extract_trips(feed)
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
        for t in extract_trips(feed):
            assert positions[(t.start_ts, t.scooter_id)] == t.origin
            assert positions[(t.end_ts, t.scooter_id)] == t.destination

    def test_empty_input(self):
        assert extract_trips([]) == []


class TestCleaning:
    def local(self, h, m=0, day=4):
        # EST timestamps expressed in UTC
        return datetime(2019, 2, day, h, m, 0, tzinfo=timezone(timedelta(hours=-5))).astimezone(UTC)

    def trip_at(self, start_h, start_m=0, disp=500.0, duration_s=600):
        start = self.local(start_h, start_m)
        return RawTrip("S", CITY, B500, start, start + timedelta(seconds=duration_s), disp)

    def test_under_75_removed(self):
        kept, report = clean_trips([self.trip_at(12, disp=50.0)], CleaningRules())
        assert kept == [] and report.removed_distance == 1

    def test_75_exactly_kept(self):
        kept, _ = clean_trips([self.trip_at(12, disp=75.0)], CleaningRules())
        assert len(kept) == 1

    def test_3000_exactly_kept_3001_removed(self):
        kept, report = clean_trips([self.trip_at(12, disp=3000.0), self.trip_at(13, disp=3000.1)], CleaningRules())
        assert len(kept) == 1 and report.removed_distance == 1

    def test_start_before_7am_removed(self):
        kept, report = clean_trips([self.trip_at(6, 50)], CleaningRules())
        assert kept == [] and report.removed_hours == 1

    def test_7am_start_kept_9pm_end_removed(self):
        at_7 = self.trip_at(7, 0)
        ends_21 = self.trip_at(20, 50, duration_s=600)  # ends exactly 21:00
        kept, report = clean_trips([at_7, ends_21], CleaningRules())
        assert kept == [at_7]
        assert report.removed_hours == 1

    def test_hours_counted_before_distance(self):
        # violates both; must count under the hours rule only
        bad = self.trip_at(6, 30, disp=10.0)
        _, report = clean_trips([bad], CleaningRules())
        assert report.removed_hours == 1 and report.removed_distance == 0

    def test_histogram_counts_raw_input(self):
        trips = [
            self.trip_at(12, disp=3.0),
            self.trip_at(12, 30, disp=7.0),
            self.trip_at(13, disp=15.0),
            self.trip_at(14, disp=500.0),
        ]
        _, report = clean_trips(trips, CleaningRules())
        assert (report.under_5m, report.under_10m, report.under_20m) == (1, 2, 3)

    def test_partition_and_idempotence(self):
        trips = [
            self.trip_at(12, disp=50.0),
            self.trip_at(12, disp=90.0),
            self.trip_at(6, 0, disp=90.0),
            self.trip_at(15, disp=3200.0),
            self.trip_at(20, disp=100.0),
        ]
        kept, report = clean_trips(trips, CleaningRules())
        assert len(kept) + report.removed_hours + report.removed_distance == len(trips)
        again, report2 = clean_trips(kept, CleaningRules())
        assert again == kept
        assert report2.removed_hours == 0 and report2.removed_distance == 0

    def test_invalid_rules(self):
        with pytest.raises(InvalidConfig):
            CleaningRules(min_displacement_m=100.0, max_displacement_m=50.0)
        with pytest.raises(InvalidConfig):
            CleaningRules.from_dict({"day_start": "22:00", "day_end": "07:00"})


class TestCrop:
    def test_both_endpoints_must_be_inside(self):
        bbox = Bbox(GeoPoint(33.76, -84.40), GeoPoint(33.78, -84.38))
        inside = make_trip(origin=GeoPoint(33.77, -84.39), destination=GeoPoint(33.775, -84.385))
        out_dest = make_trip(origin=GeoPoint(33.77, -84.39), destination=GeoPoint(33.80, -84.39))
        kept, removed = crop_trips([inside, out_dest], bbox)
        assert kept == [inside] and removed == 1


def test_trips_csv_round_trip(tmp_path):
    trips = [
        make_trip("S1", CITY, B500, 0, 600),
        make_trip("S2", B500, CITY, 1200, 1800),
    ]
    path = tmp_path / "trips.csv"
    write_trips_csv(trips, path)
    assert read_trips_csv(path) == trips


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
    assert extract_trips(shuffled) == extract_trips(batches)
