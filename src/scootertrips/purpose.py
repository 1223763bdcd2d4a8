"""Aggregate associated trips into purpose matrices, time/day slices, drill-downs,
and per-trip cost estimates."""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from typing import Callable, Iterable, Sequence
from zoneinfo import ZoneInfo

import numpy as np

from .assoc import AssociatedTrip
from .errors import DanglingPoiReference, OutOfOperatingHours
from .poi import Poi
from .trips import DEFAULT_TIMEZONE, Trip

log = logging.getLogger(__name__)


class TimeSlot(Enum):
    """Operating-hours partition; bounds are minutes of the local day."""

    MORNING = (7 * 60, 11 * 60)
    LUNCH = (11 * 60, 14 * 60)
    AFTERNOON = (14 * 60, 17 * 60)
    EVENING = (17 * 60, 19 * 60)
    NIGHT = (19 * 60, 21 * 60)

    @property
    def start_minute(self) -> int:
        return self.value[0]

    @property
    def end_minute(self) -> int:
        return self.value[1]

    @property
    def label(self) -> str:
        return self.name.lower()


def classify_slot(ts: datetime) -> TimeSlot:
    """Slot containing a local timestamp; errors outside operating hours."""
    minute = ts.hour * 60 + ts.minute
    for slot in TimeSlot:
        if slot.start_minute <= minute < slot.end_minute:
            return slot
    raise OutOfOperatingHours(f"{ts.isoformat()} is outside the 07:00-21:00 operating window")


def slot_of_trip(trip: Trip, tz_name: str = DEFAULT_TIMEZONE) -> TimeSlot:
    """Trips are slotted by their start time, the rider's decision point."""
    return classify_slot(trip.start_ts.astimezone(ZoneInfo(tz_name)))


def day_class(trip: Trip, tz_name: str = DEFAULT_TIMEZONE) -> str:
    local = trip.start_ts.astimezone(ZoneInfo(tz_name))
    return "weekday" if local.weekday() < 5 else "weekend"


def slot_predicate(slot: TimeSlot, tz_name: str = DEFAULT_TIMEZONE) -> Callable[[AssociatedTrip], bool]:
    return lambda a: slot_of_trip(a.trip, tz_name) is slot


def day_class_predicate(cls: str, tz_name: str = DEFAULT_TIMEZONE) -> Callable[[AssociatedTrip], bool]:
    if cls not in ("weekday", "weekend"):
        raise ValueError(f"day class must be weekday or weekend, got {cls!r}")
    return lambda a: day_class(a.trip, tz_name) == cls


@dataclass
class PurposeMatrix:
    groups: list[str]
    counts: np.ndarray  # rows = origin group, cols = destination group
    slice_key: str | None = None

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def cell(self, origin_group: str, dest_group: str) -> int:
        return int(self.counts[self.groups.index(origin_group), self.groups.index(dest_group)])


@dataclass
class DrillDown:
    origin_group: str
    dest_group: str
    counts: dict[tuple[str, str], int]  # (origin primary type, dest primary type) -> trips

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _group_lookup(catalog: Sequence[Poi]) -> dict[str, Poi]:
    return {p.id: p for p in catalog}


def _poi_of(by_id: dict[str, Poi], pid: str) -> Poi:
    poi = by_id.get(pid)
    if poi is None or poi.group is None:
        raise DanglingPoiReference(f"trip references POI {pid!r} with no catalog group")
    return poi


def build_matrix(
    trips: Sequence[AssociatedTrip],
    catalog: Sequence[Poi],
    groups: Sequence[str],
    slice: Callable[[AssociatedTrip], bool] | None = None,
    slice_key: str | None = None,
) -> PurposeMatrix:
    """Count trips per (origin group, destination group) cell, optionally sliced."""
    by_id = _group_lookup(catalog)
    groups = list(groups)
    pos = {g: i for i, g in enumerate(groups)}
    counts = np.zeros((len(groups), len(groups)), dtype=np.int64)
    for a in trips:
        if slice is not None and not slice(a):
            continue
        og = _poi_of(by_id, a.origin_poi).group
        dg = _poi_of(by_id, a.dest_poi).group
        counts[pos[og], pos[dg]] += 1
    return PurposeMatrix(groups=groups, counts=counts, slice_key=slice_key)


def drill_down(
    trips: Sequence[AssociatedTrip],
    catalog: Sequence[Poi],
    origin_group: str,
    dest_group: str,
) -> DrillDown:
    """Per-primary-type counts inside one matrix cell."""
    by_id = _group_lookup(catalog)
    counts: dict[tuple[str, str], int] = {}
    for a in trips:
        o = _poi_of(by_id, a.origin_poi)
        d = _poi_of(by_id, a.dest_poi)
        if o.group != origin_group or d.group != dest_group:
            continue
        key = (o.primary_type, d.primary_type)
        counts[key] = counts.get(key, 0) + 1
    return DrillDown(origin_group=origin_group, dest_group=dest_group, counts=counts)


def write_matrix_csv(matrix: PurposeMatrix, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["origin\\destination"] + matrix.groups)
        for gi, group in enumerate(matrix.groups):
            writer.writerow([group] + [int(c) for c in matrix.counts[gi]])


def write_matrix_long_csv(matrices: Iterable[PurposeMatrix], path) -> None:
    """Plot-ready long form: one row per (slice, origin group, destination group)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slice", "origin_group", "dest_group", "count"])
        for m in matrices:
            key = m.slice_key or "overall"
            for gi, og in enumerate(m.groups):
                for gj, dg in enumerate(m.groups):
                    writer.writerow([key, og, dg, int(m.counts[gi, gj])])


def write_drilldown_csv(drill: DrillDown, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["origin_type", "dest_type", "count"])
        for (ot, dt), count in sorted(drill.counts.items()):
            writer.writerow([ot, dt, count])
