import numpy as np
import pytest

from scootertrips import kernels


def test_haversine_numpy_vs_scalar():
    from scootertrips.geo import GeoPoint, haversine_m

    rng = np.random.default_rng(5)
    lat1 = rng.uniform(33.7, 33.8, 100)
    lon1 = rng.uniform(-84.45, -84.3, 100)
    lat2 = rng.uniform(33.7, 33.8, 100)
    lon2 = rng.uniform(-84.45, -84.3, 100)
    got = kernels.haversine_arrays(lat1, lon1, lat2, lon2)
    for i in range(100):
        want = haversine_m(GeoPoint(lat1[i], lon1[i]), GeoPoint(lat2[i], lon2[i]))
        assert got[i] == pytest.approx(want, rel=1e-12, abs=1e-9)


def test_pair_scan_empty_and_single():
    empty = np.empty(0, dtype=np.int64)
    idx, d = kernels.pair_scan(empty, np.empty(0), np.empty(0), 1.0)
    assert idx.size == 0 and d.size == 0
    one = np.zeros(1, dtype=np.int64)
    idx, d = kernels.pair_scan(one, np.zeros(1), np.zeros(1), 1.0)
    assert idx.size == 0


def test_pair_scan_respects_epsilon():
    # two rows ~0.55 m apart: below a 1 m epsilon, above a 0.1 m epsilon
    codes = np.zeros(2, dtype=np.int64)
    lats = np.array([33.77, 33.770005])
    lons = np.array([-84.39, -84.39])
    idx, _ = kernels.pair_scan(codes, lats, lons, 1.0)
    assert idx.size == 0
    idx, d = kernels.pair_scan(codes, lats, lons, 0.1)
    assert idx.size == 1 and 0.4 < d[0] < 0.7


def test_pair_scan_breaks_at_scooter_boundaries():
    # the day cut is extract_trips' (test_midnight_cut_suppresses_trip)
    codes = np.array([0, 0, 1, 1, 2], dtype=np.int64)
    lats = np.array([33.77, 33.78, 33.77, 33.78, 33.77])
    lons = np.array([-84.39, -84.39, -84.39, -84.39, -84.39])
    idx, _ = kernels.pair_scan(codes, lats, lons, 1.0)
    # rows 1->2 and 3->4 cross a scooter; rows 0->1 and 2->3 pair
    assert idx.tolist() == [0, 2]
