"""Aggregate associated trips into purpose matrices, time/day slices and
drill-downs."""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from typing import Callable, Iterable, Sequence
from zoneinfo import ZoneInfo

import numpy as np

from .assoc import group_codes, referenced_pois
from .errors import PipelineError
from .poi.catalog import Poi
from .trips import DEFAULT_TIMEZONE, TripTable, local_fields

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


def slot_predicate(slot: TimeSlot, tz_name: str = DEFAULT_TIMEZONE) -> Callable[[TripTable], np.ndarray]:
    """A function giving the mask of trips that start in slot. Trips are slotted
    by their local start, the rider's decision point; a start outside the
    07:00-21:00 operating window has no slot and raises."""

    def in_slot(trips: TripTable) -> np.ndarray:
        _, minutes = local_fields(trips.start, tz_name)
        outside = (minutes < TimeSlot.MORNING.start_minute) | (minutes >= TimeSlot.NIGHT.end_minute)
        if outside.any():
            ts = datetime.fromtimestamp(int(trips.start[np.argmax(outside)]), ZoneInfo(tz_name))
            raise PipelineError(f"{ts.isoformat()} is outside the 07:00-21:00 operating window")
        return (minutes >= slot.start_minute) & (minutes < slot.end_minute)

    return in_slot


def day_class_predicate(cls: str, tz_name: str = DEFAULT_TIMEZONE) -> Callable[[TripTable], np.ndarray]:
    """A function giving the mask of trips that start on a weekday, or on a weekend."""
    if cls not in ("weekday", "weekend"):
        raise ValueError(f"day class must be weekday or weekend, got {cls!r}")

    def in_class(trips: TripTable) -> np.ndarray:
        days, _ = local_fields(trips.start, tz_name)
        weekday = (days - 1) % 7 < 5  # ordinal 1 (0001-01-01) is a Monday
        return weekday if cls == "weekday" else ~weekday

    return in_class


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


def build_matrix(
    trips: TripTable,
    catalog: Sequence[Poi],
    groups: Sequence[str],
    slice: Callable[[TripTable], np.ndarray] | None = None,
    slice_key: str | None = None,
) -> PurposeMatrix:
    """Count trips per (origin group, destination group) cell, optionally sliced."""
    groups = list(groups)
    if slice is not None:
        trips = trips.take(slice(trips))
    n, m = len(groups), len(trips)
    codes = group_codes(trips, np.concatenate([trips.origin_poi, trips.dest_poi]), catalog, groups)
    counts = np.bincount(codes[:m] * n + codes[m:], minlength=n * n).reshape(n, n)
    return PurposeMatrix(groups=groups, counts=counts, slice_key=slice_key)


def drill_down(
    trips: TripTable,
    catalog: Sequence[Poi],
    origin_group: str,
    dest_group: str,
) -> DrillDown:
    """Per-primary-type counts inside one matrix cell."""
    pois = referenced_pois(trips, np.concatenate([trips.origin_poi, trips.dest_poi]), catalog)
    o_cell = [code for code, poi in pois.items() if poi.group == origin_group]
    d_cell = [code for code, poi in pois.items() if poi.group == dest_group]
    in_cell = np.isin(trips.origin_poi, o_cell) & np.isin(trips.dest_poi, d_cell)
    width = len(trips.poi_ids)
    pairs, counts = np.unique(trips.origin_poi[in_cell] * width + trips.dest_poi[in_cell], return_counts=True)
    out: dict[tuple[str, str], int] = {}
    for pair, count in zip(pairs.tolist(), counts.tolist()):
        key = (pois[pair // width].primary_type, pois[pair % width].primary_type)
        out[key] = out.get(key, 0) + count
    return DrillDown(origin_group=origin_group, dest_group=dest_group, counts=out)


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
