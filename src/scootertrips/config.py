"""Pipeline configuration: a versioned JSON schema. Out of the box: 75/3000 m
cleaning bounds, 07:00-21:00 operating hours, 8x8 harvest and 15x15 densify
grids, 50 m association cutoff, America/New_York local time."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from datetime import time
from pathlib import Path
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

from .errors import InvalidConfig
from .geo import Bbox, GeoPoint
from .ingest import FORMATS
from .jsonio import decode, read_json
from .purpose import TimeSlot
from .trips import CleaningRules, DEFAULT_TIMEZONE

CONFIG_VERSION = 1

# Default analysis region: midtown/downtown Atlanta.
DEFAULT_REGION = Bbox(
    GeoPoint(33.74837933333333, -84.40562333333332),
    GeoPoint(33.789279, -84.35961499999999),
)


def parse_thresholds(spec: str) -> list[float]:
    """The thresholds 'start:stop:step' gives, stop inclusive; ValueError
    unless 0 <= start <= stop < inf and step > 0."""
    start, stop, step = (float(x) for x in spec.split(":"))
    if not (0 <= start <= stop < math.inf and step > 0):
        raise ValueError("the range needs 0 <= start <= stop, a finite stop and step > 0")
    out = []
    t = start
    while t <= stop + 1e-9:
        out.append(round(t, 9))
        t += step
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
class InputPaths:
    """The config's paths object: input files, relative to the config file's directory."""

    feed: str | None = None
    scenario: str | None = None
    fixtures_dir: str | None = None
    plan: str | None = None
    taxonomy: str | None = None
    buffers: str | None = None
    manual_pois: str | None = None


@dataclass
class PipelineConfig:
    paths: InputPaths = field(default_factory=InputPaths)
    feed_format: str = "jsonl"
    bbox: Bbox = field(default_factory=lambda: DEFAULT_REGION)
    harvest_rows: int = 8
    harvest_cols: int = 8
    densify: bool = True
    densify_rows: int = 15
    densify_cols: int = 15
    densify_fraction: float = 0.25
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


_CONFIG_PARSE = {"thresholds": parse_thresholds, "cleaning.day_start": time.fromisoformat,
                 "cleaning.day_end": time.fromisoformat}


def load_config(path) -> tuple[PipelineConfig, dict]:
    """Load and validate a pipeline config; returns (config, raw dict for hashing).

    The keys are PipelineConfig's fields plus version. Relative paths under
    paths resolve against the file's directory.
    """
    path = Path(path)
    where = f"config {path}"
    raw = read_json(path, "config")
    if not isinstance(raw, dict):
        raise InvalidConfig(f"{where}: the root is not an object")
    version = raw.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise InvalidConfig(f"unsupported config version {version}; this build reads version {CONFIG_VERSION}")
    cfg = decode(PipelineConfig, {key: value for key, value in raw.items() if key != "version"}, where, _CONFIG_PARSE)
    cfg.paths = InputPaths(**{key: p and str(path.parent / p) for key, p in vars(cfg.paths).items()})
    # a kept trip starts in [day_start, day_end); the report puts every one in a time slot
    rules = cfg.cleaning
    slots_start = time(*divmod(min(s.start_minute for s in TimeSlot), 60))
    slots_end = time(*divmod(max(s.end_minute for s in TimeSlot), 60))
    if rules.day_start < slots_start:
        raise InvalidConfig(f"cleaning.day_start {rules.day_start} is before {slots_start}, where the report's time slots begin")
    if rules.day_end > slots_end:
        raise InvalidConfig(f"cleaning.day_end {rules.day_end} is after {slots_end}, where the report's time slots end")
    return cfg, raw


def config_hash(raw: dict) -> str:
    return hashlib.sha256(json.dumps(raw, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()
