"""POI catalog transforms: primary types, manual entries, buffer rings, merging, grouping."""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from ..errors import InvalidConfig, PipelineError
from ..geo import GeoPoint, is_valid_point, offset_azimuthal
from ..jsonio import decode, encode, held_as, read_json, write_json

log = logging.getLogger(__name__)

MULTIPLE_TYPE = "multiple"
EXCLUDED_TYPES = ("bus_station",)  # association volume would swamp everything else


@dataclass(frozen=True)
class RawPoi:
    place_id: str
    name: str
    position: GeoPoint = held_as("lat", "lon")
    predefined_types: tuple[str, ...]
    vicinity: str
    query_type: str
    source: str  # nearby | text


@dataclass(frozen=True)
class Poi:
    id: str
    name: str
    position: GeoPoint = held_as("lat", "lon")
    predefined_types: tuple[str, ...]
    primary_type: str
    group: str | None = None
    source: str = "nearby"  # nearby | text | manual | buffer | merged
    parent_id: str | None = None
    vicinity: str = ""
    query_type: str | None = None


@dataclass(frozen=True)
class GroupTaxonomy:
    groups: tuple[str, ...]
    mapping: dict[str, str]

    def __post_init__(self):
        if len(self.groups) != 10:
            raise InvalidConfig(f"taxonomy must define exactly 10 groups, got {len(self.groups)}")
        if len(set(self.groups)) != len(self.groups):
            raise InvalidConfig("taxonomy group names must be unique")
        bad = sorted(set(self.mapping.values()) - set(self.groups))
        if bad:
            raise InvalidConfig(f"taxonomy maps to unknown groups: {bad}")

    def group_of(self, primary_type: str) -> str:
        try:
            return self.mapping[primary_type]
        except KeyError:
            raise InvalidConfig(f"primary type {primary_type!r} has no group in the taxonomy") from None


@dataclass
class MergeReport:
    query_type_duplicates_removed: int = 0
    atlanta_vicinity_removed: int = 0
    colocated_groups_merged: int = 0
    pois_absorbed: int = 0


@dataclass
class NormalizeReport:
    input_raw: int = 0
    harvest_duplicates_collapsed: int = 0
    excluded_primary_types: int = 0
    manual_added: int = 0
    buffers_added: int = 0
    merge: MergeReport = field(default_factory=MergeReport)
    catalog_size: int = 0


def _data_path(name: str) -> Path:
    return Path(str(resources.files("scootertrips").joinpath("data", name)))


def default_plan_path() -> Path:
    return _data_path("plan.json")


def load_taxonomy(path=None) -> GroupTaxonomy:
    path = path or _data_path("taxonomy.json")
    obj = read_json(path, "taxonomy")
    if isinstance(obj, dict):
        obj.pop("notes", None)
    return decode(GroupTaxonomy, obj, f"taxonomy {path}")


def assign_primary(raw: RawPoi) -> Poi:
    """Derive the primary type: first predefined type for nearby results, the
    query term for text results (prepended to the type list if absent)."""
    types = tuple(raw.predefined_types)
    if raw.source == "text":
        primary = raw.query_type
        if not types or types[0] != primary:
            types = (primary,) + tuple(t for t in types if t != primary)
    else:
        if not types:
            raise PipelineError(f"nearby result {raw.place_id!r} has no predefined types")
        primary = types[0]
    return Poi(
        id=raw.place_id,
        name=raw.name,
        position=raw.position,
        predefined_types=types,
        primary_type=primary,
        source=raw.source,
        vicinity=raw.vicinity,
        query_type=raw.query_type,
    )


def exclude_primary_types(catalog: Sequence[Poi]) -> tuple[list[Poi], int]:
    kept = [p for p in catalog if p.primary_type not in EXCLUDED_TYPES]
    return kept, len(catalog) - len(kept)


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")


@dataclass(frozen=True)
class ManualEntry:
    """A hand-curated POI, as the manual POIs file lists it."""

    name: str
    lat: float
    lon: float
    primary_type: str

    def __post_init__(self):
        if not is_valid_point(self.lat, self.lon):
            raise InvalidConfig(f"lat/lon ({self.lat}, {self.lon}) is not a point on the globe")


def add_manual_pois(catalog: Sequence[Poi], entries: Iterable[ManualEntry]) -> list[Poi]:
    """Append hand-curated POIs (source=manual); colocations resolve later in the merge."""
    out = list(catalog)
    used = {p.id for p in out}
    for entry in entries:
        base = f"manual:{_slug(entry.name)}"
        pid = base
        k = 2
        while pid in used:
            pid = f"{base}-{k}"
            k += 1
        used.add(pid)
        out.append(
            Poi(
                id=pid,
                name=entry.name,
                position=GeoPoint(entry.lat, entry.lon),
                predefined_types=(entry.primary_type,),
                primary_type=entry.primary_type,
                source="manual",
            )
        )
    return out


def load_manual_entries(path=None) -> list[ManualEntry]:
    path = path or _data_path("manual_pois.json")
    entries = read_json(path, "manual POIs", "entries")
    return decode(list[ManualEntry], entries, f"manual POIs {path}", path="entries")


@dataclass(frozen=True)
class BufferRing:
    """count points radius_m from each target, the first due north."""

    count: int
    radius_m: float

    def __post_init__(self):
        if self.count < 1:
            raise InvalidConfig(f"a buffer ring needs count >= 1, got {self.count}")
        if self.radius_m < 0:
            raise InvalidConfig(f"a buffer ring needs radius_m >= 0, got {self.radius_m}")


@dataclass(frozen=True)
class BufferSpec(BufferRing):
    """A spec of the buffers file: its targets, its ring and an optional wider
    ring2, turned by half its own step so its points fall between the ring's."""

    selector: dict
    ring2: BufferRing | None = None


def load_buffer_specs(path=None) -> list[BufferSpec]:
    path = path or _data_path("buffers.json")
    entries = read_json(path, "buffer specs", "specs")
    return decode(list[BufferSpec], entries, f"buffer specs {path}", path="specs")


def _select_targets(catalog: Sequence[Poi], selector: dict) -> list[Poi]:
    if "id" in selector:
        return [p for p in catalog if p.id == selector["id"]]
    if "name" in selector:
        return [p for p in catalog if p.name == selector["name"]]
    if "name_contains" in selector:
        needle = str(selector["name_contains"]).lower()
        return [p for p in catalog if needle in p.name.lower()]
    if "primary_type" in selector:
        return [p for p in catalog if p.primary_type == selector["primary_type"]]
    raise InvalidConfig(f"unsupported buffer selector {selector!r}")


def generate_buffers(catalog: Sequence[Poi], specs: Iterable[BufferSpec]) -> list[Poi]:
    """Ring synthetic POIs around selected parents; buffers inherit the parent's
    primary type and carry parent_id. Each place, by id and location, is ringed
    once, by the first spec that selects it: a place harvested by a nearby and
    a text query is in the catalog twice."""
    out = list(catalog)
    ringed: set[tuple] = set()
    for spec in specs:
        targets = _select_targets(catalog, spec.selector)
        if not targets:
            raise InvalidConfig(f"buffer selector {spec.selector!r} matched no POI")
        rings = [(spec, 0.0)]  # (ring, bearing of its first point)
        if spec.ring2:
            rings.append((spec.ring2, 360.0 / (2 * spec.ring2.count)))
        for parent in targets:
            key = (parent.id, location_key(parent))
            if key in ringed:
                continue
            ringed.add(key)
            i = 0
            for ring, start in rings:
                step = 360.0 / ring.count
                for j in range(ring.count):
                    pos = offset_azimuthal(parent.position, (start + j * step) % 360.0, ring.radius_m)
                    out.append(
                        Poi(
                            id=f"{parent.id}:buf{i:02d}",
                            name=f"{parent.name} buffer {i}",
                            position=pos,
                            predefined_types=parent.predefined_types,
                            primary_type=parent.primary_type,
                            source="buffer",
                            parent_id=parent.id,
                        )
                    )
                    i += 1
    return out


def location_key(p: Poi | RawPoi) -> tuple[float, float]:
    # ~0.11 m resolution: "same exact location" without fragile float equality
    return (round(p.position.lat, 6), round(p.position.lon, 6))


def dedupe_and_merge(catalog: Sequence[Poi]) -> tuple[list[Poi], MergeReport]:
    """Resolve duplicate and colocated POIs.

    1. Where one place id was fetched under several nearby query types, keep
       only the copies whose query type equals their first predefined type
       (text results are exempt: their queries are not predefined types).
    2. Drop POIs whose vicinity is exactly "Atlanta" (no usable location).
    3. Merge POIs sharing a rounded location into one; distinct primaries
       become the `multiple` type carrying every constituent primary.
    """
    report = MergeReport()

    by_place: dict[str, int] = {}
    for p in catalog:
        by_place[p.id] = by_place.get(p.id, 0) + 1
    step1: list[Poi] = []
    for p in catalog:
        if p.source == "nearby" and by_place[p.id] > 1:
            first = p.predefined_types[0] if p.predefined_types else None
            if p.query_type != first:
                report.query_type_duplicates_removed += 1
                continue
        step1.append(p)

    step2: list[Poi] = []
    for p in step1:
        if p.vicinity.strip() == "Atlanta":
            report.atlanta_vicinity_removed += 1
            continue
        step2.append(p)

    groups: dict[tuple[float, float], list[Poi]] = {}
    order: list[tuple[float, float]] = []
    for p in step2:
        key = location_key(p)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(p)

    merged: list[Poi] = []
    for key in order:
        members = sorted(groups[key], key=lambda p: p.id)
        if len(members) == 1:
            merged.append(members[0])
            continue
        report.colocated_groups_merged += 1
        report.pois_absorbed += len(members) - 1
        primaries = tuple(p.primary_type for p in members)
        same = len(set(primaries)) == 1
        head = members[0]
        merged.append(
            Poi(
                id=head.id,
                name=head.name,
                position=GeoPoint(key[0], key[1]),
                predefined_types=primaries,
                primary_type=primaries[0] if same else MULTIPLE_TYPE,
                source="merged",
                vicinity=head.vicinity,
            )
        )
    return merged, report


def assign_groups(catalog: Sequence[Poi], taxonomy: GroupTaxonomy) -> list[Poi]:
    return [replace(p, group=taxonomy.group_of(p.primary_type)) for p in catalog]


def collapse_harvest_duplicates(raw_pois: Sequence[RawPoi]) -> tuple[list[RawPoi], int]:
    """Drop repeat retrievals of one place (overlapping query disks return the
    same record many times); cross-query-type and colocation duplicates are a
    semantic matter and stay for dedupe_and_merge."""
    seen: set[tuple] = set()
    out: list[RawPoi] = []
    for r in raw_pois:
        key = (r.place_id, r.query_type, r.source, location_key(r))
        if key in seen:
            continue
        seen.add(key)
        out.append(r)
    return out, len(raw_pois) - len(out)


def normalize_catalog(
    raw_pois: Sequence[RawPoi],
    taxonomy: GroupTaxonomy,
    manual_entries: Iterable[ManualEntry] = (),
    buffer_specs: Iterable[BufferSpec] = (),
) -> tuple[list[Poi], NormalizeReport]:
    """Full normalization pass: primary types, exclusions, manual POIs, buffers,
    duplicate resolution, then grouping.

    Buffers are generated before dedupe_and_merge on purpose: a colocation
    merge may absorb a buffer target into a `multiple` POI, and the ring must
    ring the venue as harvested.
    """
    report = NormalizeReport(input_raw=len(raw_pois))
    raw_pois, report.harvest_duplicates_collapsed = collapse_harvest_duplicates(raw_pois)
    catalog = [assign_primary(r) for r in raw_pois]
    catalog, report.excluded_primary_types = exclude_primary_types(catalog)
    before = len(catalog)
    catalog = add_manual_pois(catalog, manual_entries)
    report.manual_added = len(catalog) - before
    before = len(catalog)
    catalog = generate_buffers(catalog, buffer_specs)
    report.buffers_added = len(catalog) - before
    catalog, report.merge = dedupe_and_merge(catalog)
    catalog = assign_groups(catalog, taxonomy)
    report.catalog_size = len(catalog)
    return catalog, report


def _load(cls, path) -> list:
    """The cls records of a JSON list of encoded records; another root, a
    record that decode rejects or a position off the globe raises
    InvalidConfig naming the file and record."""
    items = decode(list, read_json(path, "POIs"), f"POIs {path}")
    records = [decode(cls, obj, f"{path} record {i}") for i, obj in enumerate(items)]
    for i, record in enumerate(records):
        if not is_valid_point(*record.position):
            raise InvalidConfig(f"{path} record {i}: lat/lon {tuple(record.position)} is not a point on the globe")
    return records


def save_catalog(catalog: Sequence[Poi], path) -> None:
    write_json([encode(p) for p in catalog], path)


def load_catalog(path) -> list[Poi]:
    return _load(Poi, path)


def save_raw_pois(raw_pois: Sequence[RawPoi], path) -> None:
    write_json([encode(r) for r in raw_pois], path)


def load_raw_pois(path) -> list[RawPoi]:
    return _load(RawPoi, path)
