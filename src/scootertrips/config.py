"""Pipeline configuration: a versioned JSON schema. Out of the box: 75/3000 m
cleaning bounds, 07:00-21:00 operating hours, 8x8 harvest and 15x15 densify
grids, 50 m association cutoff, America/New_York local time."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import time
from pathlib import Path
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

from .errors import InvalidConfig
from .geo import Bbox, GeoPoint
from .ingest import FORMATS
from .purpose import TimeSlot
from .trips import CleaningRules, DEFAULT_TIMEZONE

CONFIG_VERSION = 1

# Default analysis region: midtown/downtown Atlanta.
DEFAULT_REGION = Bbox(
    GeoPoint(33.74837933333333, -84.40562333333332),
    GeoPoint(33.789279, -84.35961499999999),
)


def parse_bbox(spec) -> Bbox:
    """Accept 'minlat,minlon,maxlat,maxlon' or a {min_lat,...} mapping."""
    if isinstance(spec, Bbox):
        return spec
    try:
        if isinstance(spec, str):
            parts = [float(x) for x in spec.split(",")]
        elif isinstance(spec, dict):
            parts = [float(spec[key]) for key in ("min_lat", "min_lon", "max_lat", "max_lon")]
        else:
            parts = []
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfig(f"bbox {spec!r} does not give 4 numbers: {exc!r}") from None
    if len(parts) != 4:
        raise InvalidConfig(f"bbox must be 4 comma-separated numbers or a min_lat/min_lon/max_lat/max_lon object, got {spec!r}")
    return Bbox(GeoPoint(parts[0], parts[1]), GeoPoint(parts[2], parts[3]))


def parse_thresholds(spec) -> list[float]:
    """Accept 'start:stop:step' (stop inclusive) or a comma list."""
    try:
        if isinstance(spec, (list, tuple)):
            out = [float(x) for x in spec]
        elif ":" in str(spec):
            start, stop, step = (float(x) for x in str(spec).split(":"))
            if step <= 0 or stop < start:
                raise InvalidConfig(f"bad threshold range {spec!r}")
            out = []
            t = start
            while t <= stop + 1e-9:
                out.append(round(t, 9))
                t += step
        else:
            out = [float(x) for x in str(spec).split(",")]
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"thresholds {spec!r} are not 'start:stop:step' or a list of numbers: {exc!r}") from None
    if sorted(out) != out or any(t < 0 for t in out):
        raise InvalidConfig("thresholds must be ascending and non-negative")
    return out


def check_timezone(name, key: str = "timezone") -> None:
    """Raise InvalidConfig naming key unless zoneinfo knows name as an IANA zone."""
    try:
        ZoneInfo(name)
    except (TypeError, ValueError, ZoneInfoNotFoundError):
        raise InvalidConfig(f"{key} {name!r} is not a known IANA time zone") from None


def parse_drill_spec(spec: str, groups=None) -> tuple[str, str]:
    """Split an 'OriginGroup:DestGroup' drill-down spec; with groups given, both
    must be among them."""
    origin, sep, dest = str(spec).partition(":")
    if not (sep and origin and dest):
        raise InvalidConfig(f"drilldown {spec!r} is not of the form 'OriginGroup:DestGroup'")
    if groups is not None:
        unknown = [repr(g) for g in dict.fromkeys((origin, dest)) if g not in groups]
        if unknown:
            raise InvalidConfig(f"drilldown {spec!r} names {' and '.join(unknown)}, not in the taxonomy groups")
    return origin, dest


@dataclass
class PipelineConfig:
    feed: str | None = None
    scenario: str | None = None
    fixtures_dir: str | None = None
    feed_format: str = "jsonl"
    bbox: Bbox = field(default_factory=lambda: DEFAULT_REGION)
    harvest_rows: int = 8
    harvest_cols: int = 8
    densify: bool = True
    densify_rows: int = 15
    densify_cols: int = 15
    densify_fraction: float = 0.25
    plan: str | None = None
    taxonomy: str | None = None
    buffers: str | None = None
    manual_pois: str | None = None
    cleaning: CleaningRules = field(default_factory=CleaningRules)
    cutoff_m: float = 50.0
    thresholds: list[float] = field(default_factory=lambda: parse_thresholds("0:100:5"))
    timezone: str = DEFAULT_TIMEZONE
    query_budget: int = 10_000
    drilldowns: list[str] = field(default_factory=lambda: ["Business:Business"])

    def __post_init__(self):
        if self.cutoff_m < 0:
            raise InvalidConfig("cutoff_m must be >= 0")
        if self.query_budget < 1:
            raise InvalidConfig("query_budget must be >= 1")
        for name in ("harvest_rows", "harvest_cols", "densify_rows", "densify_cols"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be >= 1")
        if not 0 < self.densify_fraction <= 1:
            raise InvalidConfig("densify_fraction must be in (0, 1]")
        if self.feed_format not in FORMATS:
            raise InvalidConfig(f"feed_format {self.feed_format!r} is not one of {FORMATS}")
        check_timezone(self.timezone)
        for spec in self.drilldowns:
            parse_drill_spec(spec)


def load_config(path) -> tuple[PipelineConfig, dict]:
    """Load and validate a pipeline config; returns (config, raw dict for hashing).

    Relative paths inside the file resolve against the file's directory.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InvalidConfig("config root must be an object")
    version = raw.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise InvalidConfig(f"unsupported config version {version}; this build reads version {CONFIG_VERSION}")

    base = path.parent
    kwargs: dict = {}
    paths = raw.get("paths", {})
    if not isinstance(paths, dict):
        raise InvalidConfig(f"paths must be an object, got {paths!r}")
    for key in ("feed", "scenario", "fixtures_dir", "plan", "taxonomy", "buffers", "manual_pois"):
        if paths.get(key) is not None:
            p = Path(paths[key])
            kwargs[key] = str(p if p.is_absolute() else base / p)
    for key in (
        "feed_format",
        "harvest_rows",
        "harvest_cols",
        "densify",
        "densify_rows",
        "densify_cols",
        "densify_fraction",
        "cutoff_m",
        "timezone",
        "query_budget",
        "drilldowns",
    ):
        if key in raw:
            kwargs[key] = raw[key]
    if "bbox" in raw and raw["bbox"] is not None:
        kwargs["bbox"] = parse_bbox(raw["bbox"])
    tz = raw.get("timezone", DEFAULT_TIMEZONE)
    cleaning = raw.get("cleaning", {})
    if not isinstance(cleaning, dict):
        raise InvalidConfig(f"cleaning must be an object, got {cleaning!r}")
    if cleaning.get("timezone", tz) != tz:
        raise InvalidConfig(
            f"cleaning.timezone {cleaning['timezone']!r} differs from timezone {tz!r}; one zone drives "
            "the day cut, the hours filter and the report slots"
        )
    kwargs["cleaning"] = rules = CleaningRules.from_dict(cleaning)
    # a kept trip starts in [day_start, day_end); the report puts every one in a time slot
    slots_start = time(*divmod(min(s.start_minute for s in TimeSlot), 60))
    slots_end = time(*divmod(max(s.end_minute for s in TimeSlot), 60))
    if rules.day_start < slots_start:
        raise InvalidConfig(f"cleaning.day_start {rules.day_start} is before {slots_start}, where the report's time slots begin")
    if rules.day_end > slots_end:
        raise InvalidConfig(f"cleaning.day_end {rules.day_end} is after {slots_end}, where the report's time slots end")
    if "thresholds" in raw:
        kwargs["thresholds"] = parse_thresholds(raw["thresholds"])
    try:
        cfg = PipelineConfig(**kwargs)
    except TypeError as exc:
        raise InvalidConfig(f"bad config field: {exc}") from None
    return cfg, raw


def config_hash(raw: dict) -> str:
    return hashlib.sha256(json.dumps(raw, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()
