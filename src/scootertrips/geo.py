"""Geodesy primitives and the spatial index backing POI buffering and trip association.

All distances assume a spherical Earth of radius 6,371,000 m. Nearest-neighbor
search takes candidates by 3D chord distance (order-equivalent to great-circle
distance), then scores and orders them by great-circle meters and id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidConfig
from .jsonio import held_as
from .kernels import EARTH_RADIUS_M, haversine_arrays

# queries nearest_k_batch scores at once: bounds its (queries, k + 8) candidate temporaries
QUERY_BLOCK = 4096


class GeoPoint(NamedTuple):
    lat: float
    lon: float


def is_valid_point(lat: float, lon: float) -> bool:
    return (
        math.isfinite(lat)
        and math.isfinite(lon)
        and -90.0 <= lat <= 90.0
        and -180.0 <= lon <= 180.0
    )


@dataclass(frozen=True)
class Bbox:
    min: GeoPoint = held_as("min_lat", "min_lon")
    max: GeoPoint = held_as("max_lat", "max_lon")

    def __post_init__(self):
        if not (is_valid_point(*self.min) and is_valid_point(*self.max)):
            raise InvalidConfig(f"bbox corners out of range: {self.min}, {self.max}")
        if not (self.min.lat < self.max.lat and self.min.lon < self.max.lon):
            raise InvalidConfig(f"bbox min must be strictly below max componentwise: {self.min}, {self.max}")

    def contains(self, lat: float, lon: float) -> bool:
        return self.min.lat <= lat <= self.max.lat and self.min.lon <= lon <= self.max.lon


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in meters."""
    rlat1 = math.radians(a.lat)
    rlat2 = math.radians(b.lat)
    dlat = rlat2 - rlat1
    dlon = math.radians(b.lon) - math.radians(a.lon)
    h = math.sin(dlat / 2.0) ** 2 + math.cos(rlat1) * math.cos(rlat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(min(1.0, max(0.0, h))))


def to_cartesian_array(lats, lons) -> np.ndarray:
    """Vectorized ECEF conversion; returns an (n, 3) float64 array."""
    rlat = np.radians(np.asarray(lats, dtype=np.float64))
    rlon = np.radians(np.asarray(lons, dtype=np.float64))
    c = np.cos(rlat)
    out = np.empty((rlat.shape[0], 3), dtype=np.float64)
    out[:, 0] = EARTH_RADIUS_M * c * np.cos(rlon)
    out[:, 1] = EARTH_RADIUS_M * c * np.sin(rlon)
    out[:, 2] = EARTH_RADIUS_M * np.sin(rlat)
    return out


def offset_azimuthal(center: GeoPoint, bearing_deg: float, radius_m: float) -> GeoPoint:
    """Destination point at the given bearing (degrees clockwise from north) and distance radius_m >= 0."""
    if radius_m == 0:
        return center
    theta = math.radians(bearing_deg % 360.0)
    delta = radius_m / EARTH_RADIUS_M
    rlat = math.radians(center.lat)
    rlon = math.radians(center.lon)
    lat2 = math.asin(math.sin(rlat) * math.cos(delta) + math.cos(rlat) * math.sin(delta) * math.cos(theta))
    lon2 = rlon + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(rlat),
        math.cos(delta) - math.sin(rlat) * math.sin(lat2),
    )
    lon_deg = math.degrees(lon2)
    if lon_deg > 180.0:
        lon_deg -= 360.0
    elif lon_deg < -180.0:
        lon_deg += 360.0
    return GeoPoint(math.degrees(lat2), lon_deg)


@dataclass(frozen=True)
class GridCell:
    bbox: Bbox
    center: GeoPoint
    circumradius_m: float


@dataclass(frozen=True)
class GridSpec:
    bbox: Bbox
    rows: int
    cols: int
    cells: tuple[GridCell, ...]

    def cell_index_of(self, lat: float, lon: float) -> int:
        """Index of the unique cell containing the point (bbox edges fold into the last cell)."""
        if not self.bbox.contains(lat, lon):
            raise ValueError(f"point ({lat}, {lon}) outside grid bbox")
        dlat = (self.bbox.max.lat - self.bbox.min.lat) / self.rows
        dlon = (self.bbox.max.lon - self.bbox.min.lon) / self.cols
        r = min(self.rows - 1, int((lat - self.bbox.min.lat) / dlat))
        c = min(self.cols - 1, int((lon - self.bbox.min.lon) / dlon))
        return r * self.cols + c


def _cell_for_bounds(lat0: float, lat1: float, lon0: float, lon1: float) -> GridCell:
    center = GeoPoint((lat0 + lat1) / 2.0, (lon0 + lon1) / 2.0)
    corners = (GeoPoint(lat0, lon0), GeoPoint(lat0, lon1), GeoPoint(lat1, lon0), GeoPoint(lat1, lon1))
    radius = max(haversine_m(center, corner) for corner in corners)
    return GridCell(bbox=Bbox(GeoPoint(lat0, lon0), GeoPoint(lat1, lon1)), center=center, circumradius_m=radius)


def subdivide_cell(cell: GridCell) -> list[GridCell]:
    """Split one cell into its 2x2 children (used to re-query capped search results)."""
    lat_mid = (cell.bbox.min.lat + cell.bbox.max.lat) / 2.0
    lon_mid = (cell.bbox.min.lon + cell.bbox.max.lon) / 2.0
    lats = (cell.bbox.min.lat, lat_mid, cell.bbox.max.lat)
    lons = (cell.bbox.min.lon, lon_mid, cell.bbox.max.lon)
    return [_cell_for_bounds(lats[r], lats[r + 1], lons[c], lons[c + 1]) for r in range(2) for c in range(2)]


def make_grid(bbox: Bbox, rows: int, cols: int) -> GridSpec:
    """Uniform lat/lon subdivision of bbox into rows x cols query cells."""
    lat_edges = np.linspace(bbox.min.lat, bbox.max.lat, rows + 1).tolist()
    lon_edges = np.linspace(bbox.min.lon, bbox.max.lon, cols + 1).tolist()
    cells = tuple(
        _cell_for_bounds(lat_edges[r], lat_edges[r + 1], lon_edges[c], lon_edges[c + 1])
        for r in range(rows)
        for c in range(cols)
    )
    return GridSpec(bbox=bbox, rows=rows, cols=cols, cells=cells)


class SpatialIndex:
    """Immutable k-d tree over (id, position) pairs; queries report great-circle meters."""

    def __init__(self, ids: list[str], lats: np.ndarray, lons: np.ndarray):
        self.ids = tuple(ids)
        self.lats = np.asarray(lats, dtype=np.float64)
        self.lons = np.asarray(lons, dtype=np.float64)
        self.xyz = to_cartesian_array(self.lats, self.lons)
        self.tree = cKDTree(self.xyz)
        # rank[i] is the place of ids[i] in sorted id order: the tie-break key
        self.rank = np.empty(len(self.ids), dtype=np.int64)
        self.rank[sorted(range(len(self.ids)), key=self.ids.__getitem__)] = np.arange(len(self.ids))

    def __len__(self) -> int:
        return len(self.ids)


def build_spatial_index(points: Iterable[tuple[str, GeoPoint]]) -> SpatialIndex:
    pts = list(points)
    ids = [pid for pid, _ in pts]
    lats = np.array([p.lat for _, p in pts], dtype=np.float64)
    lons = np.array([p.lon for _, p in pts], dtype=np.float64)
    return SpatialIndex(ids, lats, lons)


def nearest_k_batch(index: SpatialIndex, lats, lons, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest indexed points of every query point.

    Returns (rows, meters), both of shape (len(lats), min(k, len(index))):
    index rows and great-circle meters, each query's row ascending by
    (meters, id). The k-d tree proposes k + 8 candidates by chord length; a
    query whose last candidate ties its k-th within 1e-9 m asks again with
    twice as many, so every point tied at the k-th place gets scored.
    Queries run QUERY_BLOCK at a time, which bounds the candidate temporaries.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, len(index))
    lats = np.asarray(lats, dtype=np.float64)
    lons = np.asarray(lons, dtype=np.float64)
    m = lats.shape[0]
    rows = np.empty((m, k), dtype=np.intp)
    meters = np.empty((m, k), dtype=np.float64)
    for lo in range(0, m, QUERY_BLOCK):
        block = slice(lo, lo + QUERY_BLOCK)
        _nearest_k_block(index, lats[block], lons[block], k, rows[block], meters[block])
    return rows, meters


def _nearest_k_block(index: SpatialIndex, lats, lons, k: int, rows: np.ndarray, meters: np.ndarray) -> None:
    """nearest_k_batch of one block of queries, written into rows and meters."""
    n = len(index)
    xyz = to_cartesian_array(lats, lons)
    todo = np.arange(lats.shape[0])
    width = min(n, k + 8)
    while todo.size:
        chord, cand = index.tree.query(xyz[todo], k=width)
        chord = chord.reshape(todo.size, width)
        cand = cand.reshape(todo.size, width)
        tied = (chord[:, -1] <= chord[:, k - 1] + 1e-9) if width < n else np.zeros(todo.size, dtype=bool)
        done, cand = todo[~tied], cand[~tied]
        q_lat, q_lon = np.repeat(lats[done], width), np.repeat(lons[done], width)
        dist = haversine_arrays(q_lat, q_lon, index.lats[cand].ravel(), index.lons[cand].ravel())
        dist = dist.reshape(done.size, width)
        order = np.lexsort((index.rank[cand], dist), axis=-1)[:, :k]
        rows[done] = np.take_along_axis(cand, order, axis=-1)
        meters[done] = np.take_along_axis(dist, order, axis=-1)
        todo = todo[tied]
        width = min(n, 2 * width)
