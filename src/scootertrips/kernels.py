"""Hot numeric kernels, vectorized with numpy.

Callers reach ``pair_scan`` as a module attribute (``kernels.pair_scan``), so a
profiler can wrap it in place.
"""

from __future__ import annotations

import numpy as np

EARTH_RADIUS_M = 6_371_000.0


def haversine_arrays(lat1, lon1, lat2, lon2):
    """Elementwise great-circle distance in meters (vectorized numpy)."""
    lat1 = np.radians(np.asarray(lat1, dtype=np.float64))
    lat2 = np.radians(np.asarray(lat2, dtype=np.float64))
    dlat = lat2 - lat1
    dlon = np.radians(np.asarray(lon2, dtype=np.float64)) - np.radians(np.asarray(lon1, dtype=np.float64))
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def pair_scan(codes, lats, lons, eps_m):
    """Find consecutive same-scooter rows whose position moved.

    Inputs are one local day's observation columns sorted by (scooter code,
    timestamp); the caller cuts the feed into days. Returns (first-row
    indices, displacement meters) for every adjacent pair with displacement
    strictly above eps_m.
    """
    n = codes.shape[0]
    if n < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    cand = np.nonzero(codes[1:] == codes[:-1])[0]
    d = haversine_arrays(lats[cand], lons[cand], lats[cand + 1], lons[cand + 1])
    moved = d > eps_m
    return cand[moved].astype(np.int64), d[moved]
