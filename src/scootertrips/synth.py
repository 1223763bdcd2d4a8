"""Synthetic fleet scenarios: ground-truth trips plus the snapshot feed they imply.

The feed lists every idle scooter at its (rounded) position on each cadence
tick; scooters mid-trip are absent. Generation is seed-deterministic, so the
same config always produces byte-identical feeds.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from datetime import date, datetime, time, timedelta, timezone
from typing import Sequence
from zoneinfo import ZoneInfo

import numpy as np

from .config import DEFAULT_REGION, check_timezone
from .errors import InvalidConfig
from .geo import Bbox, GeoPoint, haversine_m, offset_azimuthal
from .ingest import SnapshotBatch, write_snapshot_stream
from .jsonio import decode, encode, held_as, read_json, write_json
from .purpose import TimeSlot
from .trips import COLOCATION_EPS_M, DEFAULT_TIMEZONE, TripTable

log = logging.getLogger(__name__)

SLOT_WINDOWS = {s.label: (s.start_minute * 60, s.end_minute * 60) for s in TimeSlot}  # seconds of the local day
DEFAULT_TRIP_RATES = {"morning": 0.4, "lunch": 0.5, "afternoon": 0.7, "evening": 0.6, "night": 0.5}
_SCENARIO_PARSE = {"start_date": date.fromisoformat}


@dataclass
class ScenarioConfig:
    rng_seed: int = 7
    fleet_size: int = 25
    days: int = 2
    start_date: date = date(2019, 2, 4)
    cadence_s: int = 600
    timezone: str = DEFAULT_TIMEZONE
    bbox: Bbox = field(default_factory=lambda: DEFAULT_REGION)
    trip_rates: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_TRIP_RATES))
    displacement_min_m: float = 100.0
    displacement_max_m: float = 2500.0
    speed_min_mps: float = 2.0
    speed_max_mps: float = 5.0
    anchors: list[GeoPoint] | None = None
    anchor_jitter_m: float = 25.0
    position_jitter_m: float = 0.0
    charging_relocation: bool = True

    def __post_init__(self):
        if self.cadence_s <= 0:
            raise InvalidConfig("cadence_s must be positive")
        if self.fleet_size < 1 or self.days < 1:
            raise InvalidConfig("fleet_size and days must be >= 1")
        if not 0 < self.displacement_min_m < self.displacement_max_m:
            raise InvalidConfig("displacement bounds must satisfy 0 < min < max")
        if not 0 < self.speed_min_mps <= self.speed_max_mps:
            raise InvalidConfig("speed bounds must satisfy 0 < min <= max")
        unknown = set(self.trip_rates) - set(SLOT_WINDOWS)
        if unknown:
            raise InvalidConfig(f"unknown trip-rate slots: {sorted(unknown)}")
        check_timezone(self.timezone, "scenario timezone")

    @classmethod
    def from_dict(cls, obj: dict) -> "ScenarioConfig":
        """A scenario from its JSON object; an unknown key or a value that does
        not parse raises InvalidConfig naming the key."""
        return decode(cls, obj, "scenario", _SCENARIO_PARSE)

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        return decode(cls, read_json(path, "scenario"), f"scenario {path}", _SCENARIO_PARSE)


@dataclass(frozen=True)
class TruthTrip:
    scooter_id: str
    origin: GeoPoint = held_as("origin_lat", "origin_lon")
    destination: GeoPoint = held_as("dest_lat", "dest_lon")
    start_epoch_s: float  # continuous, not quantized to the feed cadence
    end_epoch_s: float


@dataclass
class ScoreReport:
    n_truth: int = 0
    n_recoverable: int = 0
    n_matched: int = 0
    n_unrecoverable: int = 0
    n_extra_extracted: int = 0
    endpoint_mismatches: int = 0
    max_start_error_s: float = 0.0
    max_end_error_s: float = 0.0

    @property
    def recall(self) -> float:
        return self.n_matched / self.n_recoverable if self.n_recoverable else 1.0

    def to_dict(self) -> dict:
        return {**asdict(self), "recall": self.recall}


def _round_point(lat: float, lon: float) -> GeoPoint:
    return GeoPoint(float(round(lat, 6)), float(round(lon, 6)))


def _local_epoch(tz: ZoneInfo, day: date, seconds_of_day: float) -> float:
    """The epoch of the wall time seconds_of_day after day's local midnight.

    On a day the UTC offset changes, the offset at the wall time (fold=0)
    replaces midnight's. Synth draws no time between 01:00 and 03:00, where the
    skipped and the repeated hour of a change lie.
    """
    midnight = datetime.combine(day, time(0, 0), tzinfo=tz)
    wall = midnight + timedelta(seconds=seconds_of_day)  # aware arithmetic keeps the wall clock
    return midnight.timestamp() + seconds_of_day + (midnight.utcoffset() - wall.utcoffset()).total_seconds()


class _Sampler:
    def __init__(self, cfg: ScenarioConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng

    def initial_position(self) -> GeoPoint:
        if self.cfg.anchors:
            anchor = self.cfg.anchors[int(self.rng.integers(len(self.cfg.anchors)))]
            return self._near(anchor)
        b = self.cfg.bbox
        return _round_point(self.rng.uniform(b.min.lat, b.max.lat), self.rng.uniform(b.min.lon, b.max.lon))

    def _near(self, anchor: GeoPoint) -> GeoPoint:
        jitter = self.cfg.anchor_jitter_m
        p = offset_azimuthal(anchor, float(self.rng.uniform(0, 360)), float(self.rng.uniform(0, jitter)))
        return _round_point(p.lat, p.lon)

    def destination(self, pos: GeoPoint) -> GeoPoint | None:
        cfg = self.cfg
        if cfg.anchors:
            margin = cfg.anchor_jitter_m + 1.0
            lo, hi = cfg.displacement_min_m + margin, cfg.displacement_max_m - margin
            candidates = [a for a in cfg.anchors if lo <= haversine_m(pos, a) <= hi]
            if not candidates:
                return None
            return self._near(candidates[int(self.rng.integers(len(candidates)))])
        for _ in range(32):
            bearing = float(self.rng.uniform(0, 360))
            disp = float(self.rng.uniform(cfg.displacement_min_m, cfg.displacement_max_m))
            dest = offset_azimuthal(pos, bearing, disp)
            if cfg.bbox.contains(dest.lat, dest.lon):
                return _round_point(dest.lat, dest.lon)
        return None


def generate(config: ScenarioConfig) -> tuple[list[TruthTrip], list[SnapshotBatch]]:
    """Produce ground-truth trips and the quantized snapshot feed they imply."""
    cfg = config
    tz = ZoneInfo(cfg.timezone)
    rng = np.random.default_rng(cfg.rng_seed)
    sampler = _Sampler(cfg, rng)

    day_list = [cfg.start_date + timedelta(days=d) for d in range(cfg.days + 1)]
    midnights = [datetime.combine(d, time(0, 0), tzinfo=tz).timestamp() for d in day_list]
    t0 = int(midnights[0])
    t_end = int(midnights[-1])
    ticks = np.arange(t0, t_end, cfg.cadence_s, dtype=np.int64)
    n_ticks = ticks.shape[0]

    def first_tick_gt(t: float) -> int:
        return min(n_ticks, int(math.floor((t - t0) / cfg.cadence_s)) + 1)

    def first_tick_ge(t: float) -> int:
        return min(n_ticks, int(math.ceil((t - t0) / cfg.cadence_s)))

    ids = [f"S{i:05d}" for i in range(cfg.fleet_size)]
    lat_m = np.empty((cfg.fleet_size, n_ticks), dtype=np.float64)
    lon_m = np.empty((cfg.fleet_size, n_ticks), dtype=np.float64)
    present = np.ones((cfg.fleet_size, n_ticks), dtype=bool)

    truth: list[TruthTrip] = []
    slot_order = [s for s in SLOT_WINDOWS if cfg.trip_rates.get(s, 0) > 0]

    for si, sid in enumerate(ids):
        pos = sampler.initial_position()
        disappear_idx: int | None = None
        for d in range(cfg.days):
            day = day_list[d]
            day_start_idx = int(np.searchsorted(ticks, midnights[d], side="left"))
            if d > 0 and cfg.charging_relocation:
                pos = sampler.initial_position()
                # redeployed well before 07:00 so the first trip's origin is observed
                reappear_idx = int(
                    np.searchsorted(ticks, _local_epoch(tz, day, float(rng.uniform(5 * 3600, 6.5 * 3600))), side="left")
                )
                if disappear_idx is not None:
                    present[si, disappear_idx:reappear_idx] = False
            lat_m[si, day_start_idx:] = pos.lat
            lon_m[si, day_start_idx:] = pos.lon

            starts: list[float] = []
            for slot in slot_order:
                lo, hi = SLOT_WINDOWS[slot]
                k = int(rng.poisson(cfg.trip_rates[slot]))
                for _ in range(k):
                    starts.append(_local_epoch(tz, day, float(rng.uniform(lo, hi))))
            starts.sort()
            # trips must end at least one cadence before 21:00 so the quantized
            # end tick still falls inside operating hours
            day_end_limit = _local_epoch(tz, day, 21 * 3600) - cfg.cadence_s - 1.0
            cursor = midnights[d]
            for s in starts:
                if s <= cursor + 1.0:
                    continue
                dest = sampler.destination(pos)
                if dest is None:
                    continue
                speed = float(rng.uniform(cfg.speed_min_mps, cfg.speed_max_mps))
                e = s + haversine_m(pos, dest) / speed
                if e >= day_end_limit:
                    continue
                truth.append(TruthTrip(sid, pos, dest, s, e))
                a = first_tick_gt(s)
                b = first_tick_ge(e)
                present[si, a:b] = False
                lat_m[si, b:] = dest.lat
                lon_m[si, b:] = dest.lon
                pos = dest
                cursor = e
            if cfg.charging_relocation:
                # pickup strictly after 21:00 (first candidate one tick later)
                pickup = _local_epoch(tz, day, float(rng.uniform(21.2 * 3600, 23.8 * 3600)))
                disappear_idx = first_tick_ge(pickup)
            else:
                disappear_idx = None
        if disappear_idx is not None and cfg.charging_relocation:
            present[si, disappear_idx:] = False

    if cfg.position_jitter_m > 0:
        bearings = rng.uniform(0, 360, size=present.shape)
        radii = np.abs(rng.normal(0, cfg.position_jitter_m, size=present.shape))
        for si in range(cfg.fleet_size):
            for j in range(n_ticks):
                if present[si, j]:
                    p = offset_azimuthal(GeoPoint(lat_m[si, j], lon_m[si, j]), bearings[si, j], radii[si, j])
                    lat_m[si, j] = round(p.lat, 6)
                    lon_m[si, j] = round(p.lon, 6)

    utc = timezone.utc
    id_arr = np.array(ids, dtype=object)
    batches: list[SnapshotBatch] = []
    for j in range(n_ticks):
        rows = np.flatnonzero(present[:, j])
        ts = datetime.fromtimestamp(int(ticks[j]), tz=utc)
        batches.append(SnapshotBatch(ts, id_arr[rows].tolist(), lat_m[rows, j], lon_m[rows, j]))
    return truth, batches


def write_feed(batches: Sequence[SnapshotBatch], path, *, null_fill_to: int | None = None) -> int:
    """Write the feed as JSONL; null_fill_to pads each batch with null-id records
    up to the fleet size, mirroring a server that reports in-use scooters as null."""
    return write_snapshot_stream(batches, path, format="jsonl", null_fill_to=null_fill_to or 0)


def save_truth(truth: Sequence[TruthTrip], path, *, cadence_s: int, timezone_name: str) -> None:
    write_json({"cadence_s": cadence_s, "timezone": timezone_name, "trips": [encode(t) for t in truth]}, path)


@dataclass
class _TruthFile:
    """What save_truth writes."""

    trips: list[TruthTrip]
    cadence_s: int = 600
    timezone: str = DEFAULT_TIMEZONE


def load_truth(path) -> tuple[list[TruthTrip], int, str]:
    truth = decode(_TruthFile, read_json(path, "truth"), f"truth {path}")
    return truth.trips, truth.cadence_s, truth.timezone


def score(
    truth: Sequence[TruthTrip],
    extracted: TripTable,
    cadence_s: int,
    *,
    timezone_name: str = DEFAULT_TIMEZONE,
) -> ScoreReport:
    """Compare extraction output against ground truth.

    A truth trip is recoverable when its endpoints fall in distinct snapshot
    intervals (no same-scooter trip crowds either boundary tick), both
    boundary ticks land on the same local day, and the displacement exceeds
    the colocation epsilon. Every recoverable trip must reappear as exactly
    one extracted trip with exact endpoints and sub-cadence timing error.
    """
    report = ScoreReport(n_truth=len(truth))
    tz = ZoneInfo(timezone_name)

    phase = 0
    if len(extracted):
        phase = int(extracted.start.min()) % cadence_s

    def tick_floor(t: float) -> int:
        return phase + int(math.floor((t - phase) / cadence_s)) * cadence_s

    def tick_ceil(t: float) -> int:
        return phase + int(math.ceil((t - phase) / cadence_s)) * cadence_s

    rows = zip(
        map(extracted.ids.__getitem__, extracted.scooter.tolist()),
        extracted.start.tolist(),
        extracted.end.tolist(),
        zip(extracted.origin_lat.tolist(), extracted.origin_lon.tolist()),
        zip(extracted.dest_lat.tolist(), extracted.dest_lon.tolist()),
    )
    by_key = {(sid, start, end): (origin, dest) for sid, start, end, origin, dest in rows}

    per_scooter: dict[str, list[TruthTrip]] = {}
    for t in truth:
        per_scooter.setdefault(t.scooter_id, []).append(t)

    matched_keys = set()
    for sid, trips in per_scooter.items():
        trips.sort(key=lambda t: t.start_epoch_s)
        for i, t in enumerate(trips):
            t1 = tick_floor(t.start_epoch_s)
            t2 = tick_ceil(t.end_epoch_s)
            prev_end = trips[i - 1].end_epoch_s if i > 0 else None
            next_start = trips[i + 1].start_epoch_s if i + 1 < len(trips) else None
            recoverable = (
                (prev_end is None or prev_end <= t1)
                and (next_start is None or next_start >= t2)
                and datetime.fromtimestamp(t1, tz=tz).toordinal() == datetime.fromtimestamp(t2, tz=tz).toordinal()
                and haversine_m(t.origin, t.destination) > COLOCATION_EPS_M
            )
            if not recoverable:
                report.n_unrecoverable += 1
                continue
            report.n_recoverable += 1
            hit = by_key.get((sid, t1, t2))
            if hit is None:
                continue
            if hit != (t.origin, t.destination):
                report.endpoint_mismatches += 1
                continue
            matched_keys.add((sid, t1, t2))
            report.n_matched += 1
            report.max_start_error_s = max(report.max_start_error_s, t.start_epoch_s - t1)
            report.max_end_error_s = max(report.max_end_error_s, t2 - t.end_epoch_s)
    report.n_extra_extracted = len(by_key) - len(matched_keys)
    return report
