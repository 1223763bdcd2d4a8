from datetime import date, datetime, time, timedelta, timezone
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scootertrips.config import PipelineConfig
from scootertrips.errors import DanglingPoiReference, OutOfOperatingHours
from scootertrips.pipeline import write_report
from scootertrips.poi.catalog import Poi
from scootertrips.purpose import (
    TimeSlot,
    build_matrix,
    day_class_predicate,
    drill_down,
    slot_predicate,
)
from scootertrips.trips import CleaningRules, clean_trips

from conftest import CITY, Row, rows, table_of

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


def trip_starting(local_dt: datetime) -> Row:
    start = local_dt.replace(tzinfo=EST).astimezone(UTC)
    return Row("S", CITY, CITY, start, start + timedelta(seconds=600), 500.0)


def assoc(origin_poi, dest_poi, local_dt=datetime(2019, 2, 4, 12, 0)):
    trip = trip_starting(local_dt)
    return trip._replace(origin_poi=origin_poi, origin_dist_m=5.0, dest_poi=dest_poi, dest_dist_m=5.0)


def classify_slot(local_dt: datetime) -> TimeSlot:
    """The one slot whose predicate selects a trip starting at local_dt (EST)."""
    table = table_of([assoc("biz1", "biz1", local_dt)])
    (slot,) = [s for s in TimeSlot if slot_predicate(s)(table)[0]]
    return slot


def day_class(trip: Row) -> str:
    table = table_of([trip])
    (cls,) = [c for c in ("weekday", "weekend") if day_class_predicate(c)(table)[0]]
    return cls


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
        assert trip.start_ts.hour == 14  # UTC
        assert slot_predicate(TimeSlot.MORNING)(table_of([trip])).tolist() == [True]


class TestDayClass:
    def test_monday_is_weekday(self):
        assert day_class(trip_starting(datetime(2019, 2, 4, 12, 0))) == "weekday"

    def test_saturday_is_weekend(self):
        assert day_class(trip_starting(datetime(2019, 2, 9, 12, 0))) == "weekend"


class TestBuildMatrix:
    def test_direct_counts(self):
        trips = [assoc("biz1", "food1"), assoc("biz2", "food1"), assoc("park1", "biz1")]
        m = build_matrix(table_of(trips), CATALOG, groups=GROUPS)
        assert m.cell("Business", "Food") == 2
        assert m.cell("Parking", "Business") == 1
        assert m.total == 3

    def test_empty_matrix(self):
        m = build_matrix(table_of([]), CATALOG, groups=GROUPS)
        assert m.total == 0

    def test_matches_group_by_oracle(self):
        rng = np.random.default_rng(17)
        ids = [p.id for p in CATALOG]
        trips = [assoc(str(rng.choice(ids)), str(rng.choice(ids))) for _ in range(1000)]
        m = build_matrix(table_of(trips), CATALOG, groups=GROUPS)
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
            build_matrix(table_of([assoc("missing", "food1")]), CATALOG, groups=GROUPS)

    def test_reversed_corpus_transposes(self):
        rng = np.random.default_rng(3)
        ids = [p.id for p in CATALOG]
        trips = [assoc(str(rng.choice(ids)), str(rng.choice(ids))) for _ in range(300)]
        reversed_trips = [
            a._replace(
                origin_poi=a.dest_poi, origin_dist_m=a.dest_dist_m, dest_poi=a.origin_poi, dest_dist_m=a.origin_dist_m
            )
            for a in trips
        ]
        m = build_matrix(table_of(trips), CATALOG, groups=GROUPS)
        mr = build_matrix(table_of(reversed_trips), CATALOG, groups=GROUPS)
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
        overall = build_matrix(table_of(trips), CATALOG, groups=GROUPS)
        total = np.zeros_like(overall.counts)
        for slot in TimeSlot:
            total += build_matrix(table_of(trips), CATALOG, slice=slot_predicate(slot), groups=GROUPS).counts
        assert np.array_equal(total, overall.counts)

    def test_daytype_slices_sum_to_overall(self):
        rng = np.random.default_rng(31)
        ids = [p.id for p in CATALOG]
        trips = []
        for _ in range(300):
            day = int(rng.integers(4, 11))  # Feb 4-10 2019: Mon..Sun
            trips.append(assoc(str(rng.choice(ids)), str(rng.choice(ids)), datetime(2019, 2, day, 12, 0)))
        overall = build_matrix(table_of(trips), CATALOG, groups=GROUPS)
        wk = build_matrix(table_of(trips), CATALOG, slice=day_class_predicate("weekday"), groups=GROUPS)
        we = build_matrix(table_of(trips), CATALOG, slice=day_class_predicate("weekend"), groups=GROUPS)
        assert np.array_equal(wk.counts + we.counts, overall.counts)


class TestDrillDown:
    def test_primary_type_pairs(self):
        trips = [assoc("biz1", "biz2")] * 3 + [assoc("biz1", "food1")]
        drill = drill_down(table_of(trips), CATALOG, "Business", "Business")
        assert drill.counts == {("lawyer", "real_estate_agency"): 3}

    def test_empty_cell(self):
        drill = drill_down(table_of([]), CATALOG, "Business", "Business")
        assert drill.counts == {}

    def test_totals_reconcile_with_matrix_cell(self):
        rng = np.random.default_rng(41)
        ids = [p.id for p in CATALOG]
        trips = [assoc(str(rng.choice(ids)), str(rng.choice(ids))) for _ in range(500)]
        m = build_matrix(table_of(trips), CATALOG, groups=GROUPS)
        for og in GROUPS:
            for dg in GROUPS:
                drill = drill_down(table_of(trips), CATALOG, og, dg)
                assert drill.total == m.cell(og, dg)

    def test_multiple_contributes_own_row(self):
        trips = [assoc("multi1", "biz1")]
        drill = drill_down(table_of(trips), CATALOG, "Multiple", "Business")
        assert drill.counts == {("multiple", "lawyer"): 1}


@given(
    trips=st.lists(
        st.tuples(
            st.sampled_from([p.id for p in CATALOG]),
            st.sampled_from([p.id for p in CATALOG]),
            st.integers(4, 10),  # Feb 4-10 2019: Mon..Sun
            st.integers(7 * 60, 21 * 60 - 1),
        ),
        max_size=60,
    )
)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_matrices_match_per_row_count(trips):
    table = table_of(assoc(o, d, datetime(2019, 2, day, minute // 60, minute % 60)) for o, d, day, minute in trips)
    group_of = {p.id: p.group for p in CATALOG}
    slices = [(None, lambda day, minute: True)]
    slices += [(slot_predicate(s), lambda day, minute, s=s: s.start_minute <= minute < s.end_minute) for s in TimeSlot]
    slices += [
        (day_class_predicate("weekday"), lambda day, minute: datetime(2019, 2, day).weekday() < 5),
        (day_class_predicate("weekend"), lambda day, minute: datetime(2019, 2, day).weekday() >= 5),
    ]
    for predicate, selects in slices:
        want = np.zeros((len(GROUPS), len(GROUPS)), dtype=np.int64)
        for o, d, day, minute in trips:
            if selects(day, minute):
                want[GROUPS.index(group_of[o]), GROUPS.index(group_of[d])] += 1
        assert build_matrix(table, CATALOG, groups=GROUPS, slice=predicate).counts.tolist() == want.tolist()
    types_of = {p.id: p.primary_type for p in CATALOG}
    want_drill: dict = {}
    for o, d, _, _ in trips:
        if group_of[o] == "Business" and group_of[d] == "Food":
            key = (types_of[o], types_of[d])
            want_drill[key] = want_drill.get(key, 0) + 1
    assert drill_down(table, CATALOG, "Business", "Food").counts == want_drill


def test_report_rejects_trip_outside_operating_hours(tmp_path):
    # a wider cleaning window can let a 06:30 start through the cutoff; it has no slot
    within = table_of([assoc("biz1", "food1"), assoc("biz1", "food1", datetime(2019, 2, 4, 6, 30))])
    with pytest.raises(OutOfOperatingHours, match="06:30"):
        write_report(PipelineConfig(timezone="America/New_York", drilldowns=[]), within, CATALOG, tmp_path)


NEW_YORK = "America/New_York"
NY = ZoneInfo(NEW_YORK)


def dst_day_epochs(day: date) -> tuple[int, int, list[int]]:
    """The epoch second where day starts in New York, where it ends, and the
    epochs around its wall-clock edges: the changed hour, the operating
    window and the slot bounds, each at fold 0 and 1 and a second either side."""
    lo, hi = (int(datetime.combine(d, time(0), NY).timestamp()) for d in (day, day + timedelta(days=1)))
    edges = {int(datetime.combine(day, time(h), NY).replace(fold=fold).timestamp()) + dt
             for h in (1, 2, 3, 7, 11, 14, 17, 19, 21) for fold in (0, 1) for dt in (-1, 0, 1)}
    return lo, hi, sorted(t for t in edges if lo <= t < hi)


@st.composite
def dst_trips(draw):
    """A trip table on 2019-03-10 or 2019-11-03, the 2019 DST change days in
    New York, whose trips start and end on that local day, and cleaning rules."""
    lo, hi, edges = dst_day_epochs(draw(st.sampled_from([date(2019, 3, 10), date(2019, 11, 3)])))
    epoch = st.one_of(st.integers(lo, hi - 1), st.sampled_from(edges))
    trips = []
    for i, (start, end) in enumerate(draw(st.lists(st.tuples(epoch, epoch), min_size=1, max_size=12))):
        start, end = sorted((start, end))
        start_ts, end_ts = (datetime.fromtimestamp(t, UTC) for t in (start, end))
        trips.append(Row(f"s{i}", CITY, CITY, start_ts, end_ts, 500.0))
    first, last = sorted(draw(st.lists(st.integers(0, 24 * 60 - 1), min_size=2, max_size=2, unique=True)))
    return trips, CleaningRules(day_start=time(*divmod(first, 60)), day_end=time(*divmod(last, 60)))


@given(dst_trips())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_dst_days_use_zoneinfo_local_time(case):
    trips, rules = case
    table = table_of(trips)
    local_start = [r.start_ts.astimezone(NY) for r in trips]
    local_end = [r.end_ts.astimezone(NY) for r in trips]

    def in_window(local):
        return rules.day_start <= local.time() < rules.day_end

    kept, _ = clean_trips(table, rules, NEW_YORK)
    assert rows(kept) == [r for r, s, e in zip(trips, local_start, local_end) if in_window(s) and in_window(e)]

    weekend = [s.weekday() >= 5 for s in local_start]
    assert day_class_predicate("weekend", NEW_YORK)(table).tolist() == weekend
    assert day_class_predicate("weekday", NEW_YORK)(table).tolist() == [not w for w in weekend]

    def bound(minute):
        return time(*divmod(minute, 60))

    in_hours = [i for i, s in enumerate(local_start) if time(7) <= s.time() < time(21)]
    operating = table.take(np.array(in_hours, dtype=np.intp))
    for slot in TimeSlot:
        want = [bound(slot.start_minute) <= local_start[i].time() < bound(slot.end_minute) for i in in_hours]
        assert slot_predicate(slot, NEW_YORK)(operating).tolist() == want
