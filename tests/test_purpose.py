from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from scootertrips.assoc import AssociatedTrip
from scootertrips.errors import DanglingPoiReference, OutOfOperatingHours
from scootertrips.poi import Poi
from scootertrips.purpose import (
    TimeSlot,
    build_matrix,
    classify_slot,
    day_class,
    day_class_predicate,
    drill_down,
    slot_of_trip,
    slot_predicate,
)
from scootertrips.trips import RawTrip

from conftest import CITY, make_trip

UTC = timezone.utc
EST = timezone(timedelta(hours=-5))

GROUPS = ["Business", "Food", "Recreation", "Parking", "Transit", "Health", "Residential", "Lodging", "Civic/Education", "Multiple"]


def poi(pid, group, primary):
    return Poi(id=pid, name=pid, position=CITY, predefined_types=(primary,), primary_type=primary, group=group)


CATALOG = [
    poi("biz1", "Business", "lawyer"),
    poi("biz2", "Business", "real_estate_agency"),
    poi("food1", "Food", "restaurant"),
    poi("rec1", "Recreation", "bar"),
    poi("park1", "Parking", "parking"),
    poi("multi1", "Multiple", "multiple"),
]


def trip_starting(local_dt: datetime) -> RawTrip:
    start = local_dt.replace(tzinfo=EST).astimezone(UTC)
    return RawTrip("S", CITY, CITY, start, start + timedelta(seconds=600), 500.0)


def assoc(origin_poi, dest_poi, local_dt=datetime(2019, 2, 4, 12, 0)):
    return AssociatedTrip(trip_starting(local_dt), origin_poi, 5.0, dest_poi, 5.0)


class TestClassifySlot:
    @pytest.mark.parametrize(
        "hh,mm,slot",
        [
            (7, 0, TimeSlot.MORNING),
            (10, 59, TimeSlot.MORNING),
            (11, 0, TimeSlot.LUNCH),
            (13, 59, TimeSlot.LUNCH),
            (14, 0, TimeSlot.AFTERNOON),
            (16, 59, TimeSlot.AFTERNOON),
            (17, 0, TimeSlot.EVENING),
            (18, 59, TimeSlot.EVENING),
            (19, 0, TimeSlot.NIGHT),
            (20, 59, TimeSlot.NIGHT),
        ],
    )
    def test_boundaries(self, hh, mm, slot):
        assert classify_slot(datetime(2019, 2, 4, hh, mm)) is slot

    @pytest.mark.parametrize("hh,mm", [(6, 59), (21, 0), (23, 30), (0, 0)])
    def test_outside_hours(self, hh, mm):
        with pytest.raises(OutOfOperatingHours):
            classify_slot(datetime(2019, 2, 4, hh, mm))

    def test_slots_partition_operating_hours(self):
        for minute in range(7 * 60, 21 * 60):
            hits = [s for s in TimeSlot if s.start_minute <= minute < s.end_minute]
            assert len(hits) == 1

    def test_slot_of_trip_uses_local_start(self):
        trip = trip_starting(datetime(2019, 2, 4, 9, 30))
        assert slot_of_trip(trip) is TimeSlot.MORNING


class TestDayClass:
    def test_monday_is_weekday(self):
        assert day_class(trip_starting(datetime(2019, 2, 4, 12, 0))) == "weekday"

    def test_saturday_is_weekend(self):
        assert day_class(trip_starting(datetime(2019, 2, 9, 12, 0))) == "weekend"


class TestBuildMatrix:
    def test_direct_counts(self):
        trips = [assoc("biz1", "food1"), assoc("biz2", "food1"), assoc("park1", "biz1")]
        m = build_matrix(trips, CATALOG, groups=GROUPS)
        assert m.cell("Business", "Food") == 2
        assert m.cell("Parking", "Business") == 1
        assert m.total == 3

    def test_empty_matrix(self):
        m = build_matrix([], CATALOG, groups=GROUPS)
        assert m.total == 0

    def test_matches_group_by_oracle(self):
        rng = np.random.default_rng(17)
        ids = [p.id for p in CATALOG]
        trips = [assoc(str(rng.choice(ids)), str(rng.choice(ids))) for _ in range(1000)]
        m = build_matrix(trips, CATALOG, groups=GROUPS)
        by_id = {p.id: p.group for p in CATALOG}
        oracle: dict[tuple[str, str], int] = {}
        for a in trips:
            key = (by_id[a.origin_poi], by_id[a.dest_poi])
            oracle[key] = oracle.get(key, 0) + 1
        for (og, dg), count in oracle.items():
            assert m.cell(og, dg) == count
        assert m.total == 1000

    def test_dangling_poi_reference(self):
        with pytest.raises(DanglingPoiReference):
            build_matrix([assoc("missing", "food1")], CATALOG, groups=GROUPS)

    def test_reversed_corpus_transposes(self):
        rng = np.random.default_rng(3)
        ids = [p.id for p in CATALOG]
        trips = [assoc(str(rng.choice(ids)), str(rng.choice(ids))) for _ in range(300)]
        reversed_trips = [
            AssociatedTrip(a.trip, a.dest_poi, a.dest_dist_m, a.origin_poi, a.origin_dist_m) for a in trips
        ]
        m = build_matrix(trips, CATALOG, groups=GROUPS)
        mr = build_matrix(reversed_trips, CATALOG, groups=GROUPS)
        assert np.array_equal(m.counts.T, mr.counts)

    def test_slot_slices_sum_to_overall(self):
        rng = np.random.default_rng(29)
        ids = [p.id for p in CATALOG]
        trips = []
        for _ in range(400):
            minute = int(rng.integers(7 * 60, 21 * 60))
            trips.append(
                assoc(str(rng.choice(ids)), str(rng.choice(ids)), datetime(2019, 2, 4, minute // 60, minute % 60))
            )
        overall = build_matrix(trips, CATALOG, groups=GROUPS)
        total = np.zeros_like(overall.counts)
        for slot in TimeSlot:
            total += build_matrix(trips, CATALOG, slice=slot_predicate(slot), groups=GROUPS).counts
        assert np.array_equal(total, overall.counts)

    def test_daytype_slices_sum_to_overall(self):
        rng = np.random.default_rng(31)
        ids = [p.id for p in CATALOG]
        trips = []
        for _ in range(300):
            day = int(rng.integers(4, 11))  # Feb 4-10 2019: Mon..Sun
            trips.append(assoc(str(rng.choice(ids)), str(rng.choice(ids)), datetime(2019, 2, day, 12, 0)))
        overall = build_matrix(trips, CATALOG, groups=GROUPS)
        wk = build_matrix(trips, CATALOG, slice=day_class_predicate("weekday"), groups=GROUPS)
        we = build_matrix(trips, CATALOG, slice=day_class_predicate("weekend"), groups=GROUPS)
        assert np.array_equal(wk.counts + we.counts, overall.counts)


class TestDrillDown:
    def test_primary_type_pairs(self):
        trips = [assoc("biz1", "biz2")] * 3 + [assoc("biz1", "food1")]
        drill = drill_down(trips, CATALOG, "Business", "Business")
        assert drill.counts == {("lawyer", "real_estate_agency"): 3}

    def test_empty_cell(self):
        drill = drill_down([], CATALOG, "Business", "Business")
        assert drill.counts == {}

    def test_totals_reconcile_with_matrix_cell(self):
        rng = np.random.default_rng(41)
        ids = [p.id for p in CATALOG]
        trips = [assoc(str(rng.choice(ids)), str(rng.choice(ids))) for _ in range(500)]
        m = build_matrix(trips, CATALOG, groups=GROUPS)
        for og in GROUPS:
            for dg in GROUPS:
                drill = drill_down(trips, CATALOG, og, dg)
                assert drill.total == m.cell(og, dg)

    def test_multiple_contributes_own_row(self):
        trips = [assoc("multi1", "biz1")]
        drill = drill_down(trips, CATALOG, "Multiple", "Business")
        assert drill.counts == {("multiple", "lawyer"): 1}
