import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scootertrips.errors import EmptyIndex, InvalidBbox
from scootertrips.kernels import haversine_arrays
from scootertrips.geo import (
    EARTH_RADIUS_M,
    QUERY_BLOCK,
    Bbox,
    GeoPoint,
    build_spatial_index,
    haversine_m,
    make_grid,
    nearest_k_batch,
    offset_azimuthal,
    to_cartesian_array,
)

from conftest import CITY, brute_force_nearest

# points inside the study region
study_lat = st.floats(33.7484, 33.7892)
study_lon = st.floats(-84.4056, -84.3597)
study_points = st.builds(GeoPoint, study_lat, study_lon)


class TestHaversine:
    def test_identity(self, city):
        assert haversine_m(city, city) == 0.0

    def test_small_latitude_delta(self):
        # one millidegree of latitude: pi/180 * R * 0.001
        a = GeoPoint(33.77, -84.39)
        b = GeoPoint(33.771, -84.39)
        assert haversine_m(a, b) == pytest.approx(111.19, abs=0.01)

    def test_antipodal(self):
        assert haversine_m(GeoPoint(0, 0), GeoPoint(0, 180)) == pytest.approx(math.pi * EARTH_RADIUS_M, abs=1.0)

    @given(a=study_points, b=study_points)
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, a, b):
        assert haversine_m(a, b) == pytest.approx(haversine_m(b, a), rel=1e-12)
        assert haversine_m(a, b) >= 0.0

    @given(a=study_points, b=study_points, c=study_points)
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        ab, bc, ac = haversine_m(a, b), haversine_m(b, c), haversine_m(a, c)
        assert ac <= ab + bc + 1e-6 * max(1.0, ac)


class TestCartesian:
    def test_norm_on_sphere(self):
        xyz = to_cartesian_array([33.77, -12.0, 71.3], [-84.39, 44.0, 3.0])
        norms = np.linalg.norm(xyz, axis=1)
        assert np.allclose(norms, EARTH_RADIUS_M, rtol=5e-3)

    def test_chord_close_to_arc_at_1km(self, city):
        other = offset_azimuthal(city, 73.0, 1000.0)
        arc = haversine_m(city, other)
        xyz = to_cartesian_array([city.lat, other.lat], [city.lon, other.lon])
        chord = float(np.linalg.norm(xyz[0] - xyz[1]))
        assert chord == pytest.approx(arc, abs=0.1)
        assert arc == pytest.approx(1000.0, rel=1e-3)


class TestOffsetAzimuthal:
    def test_due_north_90m(self, city):
        p = offset_azimuthal(city, 0.0, 90.0)
        assert p.lon == pytest.approx(city.lon, abs=1e-9)
        assert p.lat > city.lat
        assert haversine_m(city, p) == pytest.approx(90.0, abs=0.09)

    def test_zero_radius_is_center(self, city):
        assert offset_azimuthal(city, 42.0, 0.0) == city

    def test_four_bearings_square(self, city):
        pts = [offset_azimuthal(city, b, 140.0) for b in (0.0, 90.0, 180.0, 270.0)]
        adjacent = haversine_m(pts[0], pts[1])
        opposite = haversine_m(pts[0], pts[2])
        assert adjacent == pytest.approx(140.0 * math.sqrt(2.0), abs=0.05)
        assert opposite == pytest.approx(280.0, abs=0.05)

    @given(p=study_points, bearing=st.floats(0, 360, exclude_max=True), radius=st.floats(1.0, 300.0))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_distance(self, p, bearing, radius):
        q = offset_azimuthal(p, bearing, radius)
        assert haversine_m(p, q) == pytest.approx(radius, rel=1e-3)

    def test_negative_radius_rejected(self, city):
        with pytest.raises(ValueError):
            offset_azimuthal(city, 0.0, -1.0)


class TestGrid:
    def bbox(self):
        return Bbox(GeoPoint(33.74837933333333, -84.40562333333332), GeoPoint(33.789279, -84.35961499999999))

    def test_8x8_has_64_cells(self):
        assert len(make_grid(self.bbox(), 8, 8).cells) == 64

    def test_15x15_has_225_cells(self):
        assert len(make_grid(self.bbox(), 15, 15).cells) == 225

    def test_single_cell_circumradius_is_half_diagonal(self):
        grid = make_grid(self.bbox(), 1, 1)
        half_diag = haversine_m(self.bbox().min, self.bbox().max) / 2.0
        assert grid.cells[0].circumradius_m == pytest.approx(half_diag, rel=1e-4)

    def test_invalid_bbox(self):
        with pytest.raises(InvalidBbox):
            Bbox(GeoPoint(34.0, -84.4), GeoPoint(33.7, -84.3))

    def test_cells_partition_bbox(self):
        grid = make_grid(self.bbox(), 4, 3)
        rng = np.random.default_rng(11)
        for _ in range(200):
            lat = rng.uniform(grid.bbox.min.lat, grid.bbox.max.lat)
            lon = rng.uniform(grid.bbox.min.lon, grid.bbox.max.lon)
            idx = grid.cell_index_of(lat, lon)
            cell = grid.cells[idx]
            assert cell.bbox.min.lat <= lat <= cell.bbox.max.lat
            assert cell.bbox.min.lon <= lon <= cell.bbox.max.lon
            # the circumradius disk covers the whole cell
            assert haversine_m(cell.center, GeoPoint(lat, lon)) <= cell.circumradius_m + 1e-6

    def test_circumradius_covers_corners(self):
        grid = make_grid(self.bbox(), 8, 8)
        for cell in grid.cells[:8]:
            for corner in (
                cell.bbox.min,
                cell.bbox.max,
                GeoPoint(cell.bbox.min.lat, cell.bbox.max.lon),
                GeoPoint(cell.bbox.max.lat, cell.bbox.min.lon),
            ):
                assert haversine_m(cell.center, corner) <= cell.circumradius_m + 1e-9


def nearest_pairs(index, queries, k):
    """nearest_k_batch over a list of query points, as [(id, meters), ...] per query."""
    rows, meters = nearest_k_batch(index, [q.lat for q in queries], [q.lon for q in queries], k)
    return [[(index.ids[r], d) for r, d in zip(rr, mm)] for rr, mm in zip(rows.tolist(), meters.tolist())]


class TestNearestK:
    def test_blocks_match_brute_force(self):
        rng = np.random.default_rng(11)
        stack = GeoPoint(33.77, -84.39)
        # 12 points on one spot: all k + 8 first candidates tie, which forces a re-query
        pts = [(f"P{i:03d}", GeoPoint(float(rng.uniform(33.7484, 33.7892)), float(rng.uniform(-84.4056, -84.3597))))
               for i in range(200)] + [(f"T{i:02d}", stack) for i in range(12)]
        index = build_spatial_index(pts)
        m = QUERY_BLOCK + 50
        q_lat, q_lon = rng.uniform(33.7484, 33.7892, m), rng.uniform(-84.4056, -84.3597, m)
        tie = QUERY_BLOCK + 7  # in the second block
        q_lat[tie], q_lon[tie] = stack
        rows, meters = nearest_k_batch(index, q_lat, q_lon, 2)
        # every query against every point, ordered by (meters, id)
        all_m = haversine_arrays(q_lat[:, None], q_lon[:, None], index.lats[None, :], index.lons[None, :])
        want = np.lexsort((np.broadcast_to(index.rank, all_m.shape), all_m), axis=-1)[:, :2]
        assert np.array_equal(rows, want)
        assert np.allclose(meters, np.take_along_axis(all_m, want, axis=-1), rtol=0, atol=1e-6)
        assert [index.ids[r] for r in rows[tie]] == ["T00", "T01"]
        for q in (QUERY_BLOCK - 1, QUERY_BLOCK, tie):
            got = [(index.ids[r], d) for r, d in zip(rows[q], meters[q])]
            assert got == brute_force_nearest(pts, GeoPoint(q_lat[q], q_lon[q]), 2)

    def test_singleton(self, city):
        index = build_spatial_index([("A", city)])
        (result,) = nearest_pairs(index, [GeoPoint(33.78, -84.40)], 1)
        assert result[0][0] == "A"
        assert result[0][1] == pytest.approx(haversine_m(city, GeoPoint(33.78, -84.40)), rel=1e-12)

    def test_empty_index(self):
        with pytest.raises(EmptyIndex):
            nearest_pairs(build_spatial_index([]), [CITY], 1)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        pts = [
            (f"P{i:04d}", GeoPoint(float(rng.uniform(33.7484, 33.7892)), float(rng.uniform(-84.4056, -84.3597))))
            for i in range(1000)
        ]
        index = build_spatial_index(pts)
        queries = [
            GeoPoint(float(rng.uniform(33.7484, 33.7892)), float(rng.uniform(-84.4056, -84.3597))) for _ in range(100)
        ]
        for k in (1, 3, 10):
            for q, got in zip(queries, nearest_pairs(index, queries, k)):
                want = brute_force_nearest(pts, q, k)
                assert [g[0] for g in got] == [w[0] for w in want]
                for (_, gd), (_, wd) in zip(got, want):
                    assert gd == pytest.approx(wd, abs=1e-6)

    def test_tie_breaks_by_id(self, city):
        # B and C sit at the same point; the lower id must come first
        shared = offset_azimuthal(city, 90.0, 120.0)
        index = build_spatial_index([("C", shared), ("B", shared), ("A", offset_azimuthal(city, 270.0, 400.0))])
        (result,) = nearest_pairs(index, [city], 3)
        assert [pid for pid, _ in result] == ["B", "C", "A"]

    def test_tied_and_untied_queries_in_one_call(self, city):
        # 12 points share one spot, more than the first k + 8 candidates; the
        # query beside them must widen its search, the others must not need to
        shared = offset_azimuthal(city, 45.0, 60.0)
        pts = [(f"T{i:02d}", shared) for i in range(12, 0, -1)]
        pts += [(f"U{i}", offset_azimuthal(city, 30.0 * i, 300.0 + 40.0 * i)) for i in range(12)]
        index = build_spatial_index(pts)
        queries = [
            offset_azimuthal(city, 200.0, 500.0),
            offset_azimuthal(shared, 0.0, 5.0),
            offset_azimuthal(city, 100.0, 700.0),
        ]
        for k in (1, 3):
            for q, got in zip(queries, nearest_pairs(index, queries, k)):
                want = brute_force_nearest(pts, q, k)
                assert [g[0] for g in got] == [w[0] for w in want]
                for (_, gd), (_, wd) in zip(got, want):
                    assert gd == pytest.approx(wd, abs=1e-6)
        assert [pid for pid, _ in nearest_pairs(index, queries[1:2], 3)[0]] == ["T01", "T02", "T03"]

    def test_results_sorted_ascending(self, city):
        pts = [(f"P{i}", offset_azimuthal(city, 40.0 * i, 50.0 + 30.0 * i)) for i in range(8)]
        index = build_spatial_index(pts)
        (result,) = nearest_pairs(index, [city], 8)
        dists = [d for _, d in result]
        assert dists == sorted(dists)

    def test_k_larger_than_index_clamps(self, city):
        index = build_spatial_index([("A", city), ("B", offset_azimuthal(city, 0, 100))])
        assert len(nearest_pairs(index, [city], 10)[0]) == 2


def test_offset_wraps_antimeridian():
    near_dateline = GeoPoint(10.0, 179.9995)
    east = offset_azimuthal(near_dateline, 90.0, 200.0)
    assert -180.0 <= east.lon <= 180.0
    assert east.lon < 0  # crossed into the western hemisphere
    assert haversine_m(near_dateline, east) == pytest.approx(200.0, rel=1e-3)
