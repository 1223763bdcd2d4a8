import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scootertrips.assoc import (
    apply_threshold,
    associate,
    catalog_index,
    read_associated_csv,
    sensitivity,
    write_associated_csv,
)
from scootertrips.errors import EmptyCatalog
from scootertrips.geo import GeoPoint, build_spatial_index, haversine_m, offset_azimuthal
from scootertrips import trips as trips_module
from scootertrips.poi.catalog import Poi
from scootertrips.trips import WRITE_BLOCK

from conftest import CITY, make_trip, rows, table_of

GROUPS = ["Business", "Food", "Recreation", "Parking"]


def poi(pid, position, group="Food", primary="restaurant"):
    return Poi(
        id=pid,
        name=pid,
        position=position,
        predefined_types=(primary,),
        primary_type=primary,
        group=group,
    )


def assoc_stub(origin_dist, dest_dist, origin_poi="A", dest_poi="B", trip=None):
    return (trip or make_trip())._replace(
        origin_poi=origin_poi,
        origin_dist_m=origin_dist,
        dest_poi=dest_poi,
        dest_dist_m=dest_dist,
    )


class TestAssociate:
    def test_distinct_nearest(self):
        a = poi("A", offset_azimuthal(CITY, 0, 10))
        b_pos = offset_azimuthal(CITY, 90, 800)
        b = poi("B", offset_azimuthal(b_pos, 0, 5))
        trip = make_trip(origin=CITY, destination=b_pos)
        out = rows(associate(table_of([trip]), catalog_index([a, b])))
        assert len(out) == 1
        at = out[0]
        assert at.origin_poi == "A" and at.dest_poi == "B"
        assert at.origin_dist_m == pytest.approx(10.0, rel=1e-3)
        assert at.dest_dist_m == pytest.approx(5.0, rel=1e-3)
        assert at.origin_reassigned is False

    def test_shared_nearest_reassigns_origin(self):
        # both endpoints closest to A; origin's second nearest is C at ~30 m
        a = poi("A", CITY)
        c = poi("C", offset_azimuthal(CITY, 270, 30))
        trip = make_trip(origin=offset_azimuthal(CITY, 90, 4), destination=offset_azimuthal(CITY, 90, 8))
        out = rows(associate(table_of([trip]), catalog_index([a, c])))
        at = out[0]
        assert at.dest_poi == "A"
        assert at.origin_poi == "C"
        assert at.origin_reassigned is True
        assert at.origin_dist_m == pytest.approx(haversine_m(trip.origin, c.position), abs=1e-6)

    def test_single_poi_catalog_cannot_reassign(self):
        a = poi("A", CITY)
        trip = make_trip(origin=offset_azimuthal(CITY, 90, 5), destination=offset_azimuthal(CITY, 270, 5))
        out = rows(associate(table_of([trip]), catalog_index([a])))
        at = out[0]
        assert at.origin_poi == at.dest_poi == "A"
        assert at.origin_reassigned is False

    def test_tie_among_many_colocated_pois_breaks_by_id(self):
        # 12 POIs at one point 30 m from the origin, inserted with ids descending,
        # plus one far POI: more tied candidates than the first k-d tree query returns
        shared = offset_azimuthal(CITY, 0, 30)
        far = offset_azimuthal(CITY, 90, 900)
        pois = [poi(f"P{i:02d}", shared) for i in range(12, 0, -1)] + [poi("FAR", far)]
        index = catalog_index(pois)
        (at,) = rows(associate(table_of([make_trip(origin=CITY, destination=far)]), index))
        assert (at.origin_poi, at.dest_poi, at.origin_reassigned) == ("P01", "FAR", False)
        assert at.origin_dist_m == pytest.approx(30.0, rel=1e-3)
        # both endpoints at the tied point: destination keeps P01, origin moves to P02
        (at,) = rows(associate(table_of([make_trip(origin=CITY, destination=offset_azimuthal(shared, 0, 2))]), index))
        assert (at.origin_poi, at.dest_poi, at.origin_reassigned) == ("P02", "P01", True)

    def test_empty_catalog(self):
        with pytest.raises(EmptyCatalog):
            associate(table_of([make_trip()]), build_spatial_index([]))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(23)
        pois = [
            poi(f"P{i:03d}", GeoPoint(float(rng.uniform(33.75, 33.78)), float(rng.uniform(-84.40, -84.37))))
            for i in range(400)
        ]
        trips = [
            make_trip(
                f"S{i}",
                GeoPoint(float(rng.uniform(33.75, 33.78)), float(rng.uniform(-84.40, -84.37))),
                GeoPoint(float(rng.uniform(33.75, 33.78)), float(rng.uniform(-84.40, -84.37))),
                start_offset_s=i,
            )
            for i in range(300)
        ]
        got = rows(associate(table_of(trips), catalog_index(pois)))

        def nearest2(point):
            scored = sorted((haversine_m(point, p.position), p.id) for p in pois)
            return scored[:2]

        for trip, at in zip(trips, got):
            o = nearest2(trip.origin)
            d = nearest2(trip.destination)
            want_dest = d[0]
            want_origin = o[0] if o[0][1] != want_dest[1] else o[1]
            assert at.dest_poi == want_dest[1]
            assert at.dest_dist_m == pytest.approx(want_dest[0], abs=1e-6)
            assert at.origin_poi == want_origin[1]
            assert at.origin_dist_m == pytest.approx(want_origin[0], abs=1e-6)

    def test_never_same_poi_with_two_or_more(self):
        rng = np.random.default_rng(5)
        pois = [
            poi(f"P{i}", GeoPoint(float(rng.uniform(33.75, 33.78)), float(rng.uniform(-84.40, -84.37))))
            for i in range(10)
        ]
        trips = [
            make_trip(
                f"S{i}",
                GeoPoint(float(rng.uniform(33.75, 33.78)), float(rng.uniform(-84.40, -84.37))),
                GeoPoint(float(rng.uniform(33.75, 33.78)), float(rng.uniform(-84.40, -84.37))),
                start_offset_s=i,
            )
            for i in range(50)
        ]
        for at in rows(associate(table_of(trips), catalog_index(pois))):
            assert at.origin_poi != at.dest_poi


class TestSensitivity:
    def catalog(self):
        return [poi("A", CITY, group="Food"), poi("B", offset_azimuthal(CITY, 0, 500), group="Parking")]

    def test_direct_counting(self):
        associated = [assoc_stub(0, d, dest_poi="A") for d in (10.0, 40.0, 60.0)]
        table = sensitivity(
            table_of(associated), [25.0, 50.0, 75.0], "destination", self.catalog(), groups=["Food", "Parking"]
        )
        row = table.counts[table.groups.index("Food")]
        assert row.tolist() == [1, 2, 3]

    def test_empty_association_list(self):
        table = sensitivity(table_of([]), [25.0, 50.0], "origin", self.catalog(), groups=["Food", "Parking"])
        assert table.counts.sum() == 0
        assert table.percents.sum() == 0

    def test_two_equal_groups_split_percent(self):
        associated = [assoc_stub(0, 10.0, dest_poi="A"), assoc_stub(0, 12.0, dest_poi="B")]
        table = sensitivity(
            table_of(associated), [25.0, 50.0], "destination", self.catalog(), groups=["Food", "Parking"]
        )
        assert np.allclose(table.percents[:, 0].max(), 50.0)
        assert np.allclose(table.percents.sum(axis=0), 100.0)

    def test_counts_monotone_and_percent_sums(self):
        rng = np.random.default_rng(9)
        cat = self.catalog()
        associated = [
            assoc_stub(float(rng.uniform(0, 120)), float(rng.uniform(0, 120)), dest_poi=rng.choice(["A", "B"]))
            for _ in range(200)
        ]
        thresholds = [0.0, 10.0, 25.0, 50.0, 75.0, 100.0]
        table = sensitivity(table_of(associated), thresholds, "destination", cat, groups=["Food", "Parking"])
        diffs = np.diff(table.counts, axis=1)
        assert (diffs >= 0).all()
        sums = table.percents.sum(axis=0)
        totals = table.counts.sum(axis=0)
        assert np.all(np.abs(sums[totals > 0] - 100.0) < 0.1)

    def test_endpoint_origin_uses_origin_distance(self):
        associated = [assoc_stub(10.0, 500.0, origin_poi="A", dest_poi="B")]
        table = sensitivity(table_of(associated), [25.0], "origin", self.catalog(), groups=["Food", "Parking"])
        assert table.counts[table.groups.index("Food"), 0] == 1


class TestApplyThreshold:
    def test_both_endpoints_rule(self):
        keep = assoc_stub(49.0, 50.0)
        drop = assoc_stub(49.0, 51.0)
        assert rows(apply_threshold(table_of([keep, drop]), 50.0)) == [keep]

    def test_boundary_inclusive(self):
        edge = assoc_stub(50.0, 50.0)
        assert rows(apply_threshold(table_of([edge]), 50.0)) == [edge]

    def test_infinite_cutoff_is_identity(self):
        items = [assoc_stub(1e5, 1e5), assoc_stub(0.0, 0.0)]
        assert rows(apply_threshold(table_of(items), float("inf"))) == items

    @given(
        dists=st.lists(st.tuples(st.floats(0, 200), st.floats(0, 200)), max_size=30),
        c1=st.floats(0, 150),
        c2=st.floats(0, 150),
    )
    @settings(max_examples=50, deadline=None)
    def test_idempotent_and_nested_cutoffs(self, dists, c1, c2):
        items = table_of([assoc_stub(o, d) for o, d in dists])
        once = apply_threshold(items, c1)
        assert rows(apply_threshold(once, c1)) == rows(once)
        nested = apply_threshold(apply_threshold(items, c1), c2)
        assert rows(nested) == rows(apply_threshold(items, min(c1, c2)))


def test_assoc_csv_round_trip(tmp_path):
    items = [
        assoc_stub(10.5, 20.25, origin_poi="A", dest_poi="B", trip=make_trip("S1")),
        make_trip("S2")._replace(
            origin_poi="C", origin_dist_m=1.0, dest_poi="D", dest_dist_m=2.0, origin_reassigned=True
        ),
    ]
    path = tmp_path / "assoc.csv"
    write_associated_csv(table_of(items), path)
    assert rows(read_associated_csv(path)) == items


def test_assoc_csv_round_trip_across_write_blocks(tmp_path, monkeypatch):
    # rows 2j-1 and 2j share a start, so one start repeats across the first block edge
    items = [
        make_trip(f"S{i % 7}", start_offset_s=600 * ((i + 1) // 2))._replace(
            origin_poi=f"P{i % 5}", origin_dist_m=i / 8, dest_poi=f"P{i % 3}", dest_dist_m=60 - i / 8,
            origin_reassigned=i % 4 == 0,
        )
        for i in range(WRITE_BLOCK + 5)
    ]
    assert items[WRITE_BLOCK - 1].start_ts == items[WRITE_BLOCK].start_ts
    path = tmp_path / "assoc.csv"
    write_associated_csv(table_of(items), path)
    assert rows(read_associated_csv(path)) == items
    monkeypatch.setattr(trips_module, "WRITE_BLOCK", len(items))
    write_associated_csv(table_of(items), tmp_path / "one_block.csv")
    assert path.read_bytes() == (tmp_path / "one_block.csv").read_bytes()


_EDGES = [0.0, 25.0, 50.0]  # distances drawn on a threshold exercise the inclusive edge


@given(
    trips=st.lists(
        st.tuples(
            st.sampled_from(["A", "B", "C"]),
            st.one_of(st.floats(0, 130), st.sampled_from(_EDGES)),
            st.sampled_from(["A", "B", "C"]),
            st.one_of(st.floats(0, 130), st.sampled_from(_EDGES)),
        ),
        max_size=60,
    ),
    thresholds=st.lists(st.one_of(st.floats(0, 120), st.sampled_from(_EDGES)), max_size=6).map(sorted),
)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_sensitivity_matches_per_row_count(trips, thresholds):
    catalog = [poi("A", CITY, group="Food"), poi("B", CITY, group="Parking"), poi("C", CITY, group="Food")]
    group_of = {p.id: p.group for p in catalog}
    table = table_of(
        make_trip(f"S{i}", start_offset_s=i)._replace(origin_poi=o, origin_dist_m=od, dest_poi=d, dest_dist_m=dd)
        for i, (o, od, d, dd) in enumerate(trips)
    )
    for endpoint in ("origin", "destination"):
        got = sensitivity(table, thresholds, endpoint, catalog, groups=GROUPS)
        want = np.zeros((len(GROUPS), len(thresholds)), dtype=np.int64)
        for o, od, d, dd in trips:
            pid, dist = (o, od) if endpoint == "origin" else (d, dd)
            for ti, t in enumerate(thresholds):
                if dist <= t:
                    want[GROUPS.index(group_of[pid]), ti] += 1
        assert got.counts.tolist() == want.tolist()
        totals = want.sum(axis=0)
        for ti, total in enumerate(totals):
            expect = want[:, ti] / total * 100.0 if total else np.zeros(len(GROUPS))
            assert got.percents[:, ti] == pytest.approx(expect)
