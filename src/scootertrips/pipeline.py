"""Full-pipeline orchestration. STAGES, the table at the end of this module,
is the one list of the method's stages: each row holds a stage's name, its
CLI help, its function and the artifacts it reads. run_pipeline runs the rows
in order, handing each stage's outputs on in memory, and writes a manifest
with per-stage counts, versions, the config hash and artifact digests.
run_stage runs one row on inputs read back from the files earlier stages
wrote (the CLI's stage subcommands, built from the same table), so the
stage-by-stage chain and `run` agree by construction.

Artifacts carry no timestamps, so a rerun with the same config is
byte-identical; the manifest's created_at field is the only exception.
"""

from __future__ import annotations

import hashlib
import logging
import platform
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .assoc import (
    apply_threshold,
    associate,
    catalog_index,
    read_associated_csv,
    sensitivity,
    write_associated_csv,
    write_sensitivity_csv,
)
from .config import PipelineConfig, config_hash, parse_drill_spec
from .errors import BudgetExhausted, ClientError, InvalidConfig, PipelineError
from .geo import make_grid
from .ingest import parse_snapshot_stream
from .jsonio import write_json
from .poi.catalog import (
    default_plan_path,
    load_buffer_specs,
    load_catalog,
    load_manual_entries,
    load_raw_pois,
    load_taxonomy,
    normalize_catalog,
    save_catalog,
    save_raw_pois,
)
from .poi.client import (
    DENSIFY_TEXT_QUERIES,
    FixturePlacesClient,
    QueryBudget,
    QueryPlanEntry,
    harvest,
    load_plan,
    select_low_density_cells,
)
from .purpose import (
    TimeSlot,
    build_matrix,
    day_class_predicate,
    drill_down,
    slot_predicate,
    write_drilldown_csv,
    write_matrix_csv,
    write_matrix_long_csv,
)
from .synth import ScenarioConfig, generate, save_truth, write_feed
from .trips import clean_trips, crop_trips, extract_trips, read_trips_csv, write_trips_csv

log = logging.getLogger(__name__)

# the artifacts one stage writes and a later one reads: in memory in run_pipeline, from disk in run_stage
FEED = "feed.jsonl"
TRIPS = "trips.csv"
RAW_POIS = "pois_raw.json"
CATALOG = "catalog.json"
ASSOC = "assoc.csv"
WITHIN = "assoc_within_cutoff.csv"


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class Manifest:
    config_sha256: str
    stages: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    status: str = "ok"
    failed_stage: str | None = None

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "package": "scootertrips",
            "package_version": __version__,
            "python_version": platform.python_version(),
            "created_at": datetime.now(timezone.utc).isoformat(),
        }


@dataclass
class StageResult:
    """What a stage hands on: its outputs for later stages, keyed by artifact
    name, its manifest stage entries, and the artifacts it wrote. A stage
    that failed part way sets error: what it wrote is recorded, then the
    error is raised."""

    outputs: dict
    stages: dict
    paths: list[Path] = field(default_factory=list)
    error: Exception | None = None


def simulate_feed(cfg: PipelineConfig, out_dir) -> StageResult:
    """Generate the synthetic feed and its ground truth from paths.scenario;
    writes feed.jsonl and truth.json. The scenario's time zone must be the
    config's."""
    if not cfg.paths.scenario:
        raise InvalidConfig("config needs paths.scenario to simulate a feed, or paths.feed to read one")
    scenario = ScenarioConfig.load(cfg.paths.scenario)
    if scenario.timezone != cfg.timezone:
        raise InvalidConfig(
            f"scenario timezone {scenario.timezone!r} differs from timezone {cfg.timezone!r}; one zone drives "
            "the simulated clock, the day cut, the hours filter and the report slots"
        )
    truth, batches = generate(scenario)
    paths = [Path(out_dir) / FEED, Path(out_dir) / "truth.json"]
    write_feed(batches, paths[0])
    save_truth(truth, paths[1], cadence_s=scenario.cadence_s, timezone_name=scenario.timezone)
    stats = {"truth_trips": len(truth), "batches": len(batches), "observations": sum(len(b.ids) for b in batches)}
    return StageResult({}, {"simulate": stats}, paths)


def extract_clean_trips(cfg: PipelineConfig, out_dir, raw_out=None) -> StageResult:
    """Ingest the feed (paths.feed, else the simulated feed.jsonl in out_dir),
    extract raw trips and clean them; writes trips.csv and
    cleaning_report.json, and the raw trips CSV to raw_out when given. The
    output is the cleaned TripTable."""
    out_dir = Path(out_dir)
    stream = parse_snapshot_stream(cfg.paths.feed or out_dir / FEED, format=cfg.feed_format)
    raw_trips = extract_trips(stream, timezone_name=cfg.timezone)
    if raw_out:
        write_trips_csv(raw_trips, raw_out)
    cleaned, clean_report = clean_trips(raw_trips, cfg.cleaning, cfg.timezone)
    paths = [out_dir / TRIPS, out_dir / "cleaning_report.json"]
    write_trips_csv(cleaned, paths[0])
    write_json(asdict(clean_report), paths[1])
    stages = {
        "ingest": stream.stats.to_dict(),
        "extract": {"raw_trips": len(raw_trips)},
        "clean": asdict(clean_report),
    }
    return StageResult({TRIPS: cleaned}, stages, paths)


def harvest_pois(cfg: PipelineConfig, out_dir) -> StageResult:
    """Harvest raw POIs over the cfg grid and, with cfg.densify, run text
    queries over the lowest-density cells of the densify grid; both passes
    share one query budget. Writes pois_raw.json; the output is the raw POI
    list. On budget exhaustion or a client error pois_raw.json holds the
    POIs found so far, the harvest entry counts them and the budget used,
    and the result carries the error."""
    path = Path(out_dir) / RAW_POIS
    pois: list = []
    budget = QueryBudget(cfg.query_budget)
    error = None
    try:
        stats = _harvest(cfg, pois, budget)  # returns after the client and its recorded corpus are freed
    except (BudgetExhausted, ClientError) as exc:
        stats, error = {"raw_pois": len(pois), "budget_used": budget.used}, exc
    save_raw_pois(pois, path)
    return StageResult({RAW_POIS: pois}, {"harvest": stats}, [path], error)


def _harvest(cfg: PipelineConfig, pois: list, budget: QueryBudget) -> dict:
    """Run the harvest passes, appending to pois; returns the stage counts."""
    if not cfg.paths.fixtures_dir:
        raise InvalidConfig("no fixture directory: set paths.fixtures_dir")
    client = FixturePlacesClient(cfg.paths.fixtures_dir)
    plan = load_plan(cfg.paths.plan or default_plan_path())
    queries, truncated = harvest(client, make_grid(cfg.bbox, cfg.harvest_rows, cfg.harvest_cols), plan, budget, pois)
    stats = {
        "grid": [cfg.harvest_rows, cfg.harvest_cols],
        "queries": queries,
        "truncated_queries": truncated,
        "raw_pois": len(pois),
    }
    if cfg.densify:
        grid = make_grid(cfg.bbox, cfg.densify_rows, cfg.densify_cols)
        cells = select_low_density_cells(grid, pois, cfg.densify_fraction)
        densify_plan = [QueryPlanEntry(kind="text", term=q) for q in DENSIFY_TEXT_QUERIES]
        queries, _ = harvest(client, grid, densify_plan, budget, pois, cells)
        stats["densify"] = {
            "grid": [cfg.densify_rows, cfg.densify_cols],
            "cells_requeried": len(cells),
            "queries": queries,
            "raw_pois": len(pois) - stats["raw_pois"],
        }
    stats["budget_used"] = budget.used
    stats["unrecorded_queries"] = client.misses
    return stats


def taxonomy_groups(cfg: PipelineConfig) -> list[str]:
    """The matrix and sensitivity axis: the taxonomy's groups, in its order."""
    return list(load_taxonomy(cfg.paths.taxonomy).groups)


def normalize_pois(cfg: PipelineConfig, raw_pois, out_dir) -> StageResult:
    """Normalize raw POIs into the grouped catalog (manual POIs and buffer
    rings added, duplicates merged); writes catalog.json. The output is the
    catalog."""
    catalog, report = normalize_catalog(
        raw_pois,
        load_taxonomy(cfg.paths.taxonomy),
        load_manual_entries(cfg.paths.manual_pois),
        load_buffer_specs(cfg.paths.buffers),
    )
    path = Path(out_dir) / CATALOG
    save_catalog(catalog, path)
    return StageResult({CATALOG: catalog}, {"normalize": asdict(report)}, [path])


def associate_trips(cfg: PipelineConfig, trips, catalog, out_dir) -> StageResult:
    """Crop trips to cfg.bbox, link each endpoint to its nearest catalog POI
    and apply the cutoff; writes assoc.csv and assoc_within_cutoff.csv. The
    outputs are the associated trips and those within the cutoff."""
    region_trips, cropped = crop_trips(trips, cfg.bbox)
    associated = associate(region_trips, catalog_index(catalog))
    within = apply_threshold(associated, cfg.cutoff_m)
    paths = [Path(out_dir) / ASSOC, Path(out_dir) / WITHIN]
    write_associated_csv(associated, paths[0], within=(paths[1], cfg.cutoff_m))
    stages = {
        "crop": {"in_region": len(region_trips), "removed_outside_region": cropped},
        "associate": {
            "associated": len(associated),
            "within_cutoff": len(within),
            "cutoff_m": cfg.cutoff_m,
            "origin_reassigned": int(associated.reassigned.sum()),
            "unresolved_collisions": int((associated.origin_poi == associated.dest_poi).sum()),
        },
    }
    return StageResult({ASSOC: associated, WITHIN: within}, stages, paths)


def sensitivity_tables(cfg: PipelineConfig, associated, catalog, out_dir) -> StageResult:
    """Trip counts per POI group as the distance threshold grows, for origins
    and for destinations; writes sensitivity_origin.csv and
    sensitivity_destination.csv."""
    groups = taxonomy_groups(cfg)
    paths = []
    for endpoint in ("origin", "destination"):
        table = sensitivity(associated, cfg.thresholds, endpoint, catalog, groups)
        paths.append(Path(out_dir) / f"sensitivity_{endpoint}.csv")
        write_sensitivity_csv(table, paths[-1])
    return StageResult({}, {"sensitivity": {"thresholds": cfg.thresholds}}, paths)


def write_report(cfg: PipelineConfig, within, catalog, out_dir) -> StageResult:
    """Write the overall, per-slot and weekday/weekend purpose matrices over
    the taxonomy groups, their long form, and one drill-down per
    cfg.drilldowns spec into out_dir. A spec naming a group off the axis
    raises InvalidConfig before anything is written."""
    groups = taxonomy_groups(cfg)
    tz = cfg.timezone
    cells = [(spec, *parse_drill_spec(spec, groups)) for spec in cfg.drilldowns]
    out_dir = Path(out_dir)
    slices = [(None, None, "matrix_overall.csv")]
    slices += [(slot_predicate(slot, tz), slot.label, f"matrix_slot_{slot.label}.csv") for slot in TimeSlot]
    slices += [(day_class_predicate(cls, tz), cls, f"matrix_{cls}.csv") for cls in ("weekday", "weekend")]
    paths, matrices = [], []
    for predicate, key, name in slices:
        m = build_matrix(within, catalog, groups, slice=predicate, slice_key=key)
        matrices.append(m)
        paths.append(out_dir / name)
        write_matrix_csv(m, paths[-1])
    paths.append(out_dir / "matrices_long.csv")
    write_matrix_long_csv(matrices, paths[-1])
    drill_cells = {}
    for spec, og, dg in cells:
        drill = drill_down(within, catalog, og, dg)
        safe = f"{og}_{dg}".replace("/", "-").replace(" ", "_")
        paths.append(out_dir / f"drill_{safe}.csv")
        write_drilldown_csv(drill, paths[-1])
        drill_cells[spec] = drill.total
    stats = {"matrix_total": matrices[0].total, "slots": [s.label for s in TimeSlot], "drilldowns": drill_cells}
    return StageResult({}, {"report": stats}, paths)


class Stage(NamedTuple):
    """A row of STAGES: the stage's CLI name and help, its function, and the
    artifacts it reads, in the order the function takes them after cfg."""

    name: str
    help: str
    run: Callable[..., StageResult]
    reads: tuple[str, ...] = ()


STAGES = {stage.name: stage for stage in (
    Stage("simulate", "generate the synthetic feed and ground truth (paths.scenario)", simulate_feed),
    Stage("extract", "ingest the feed, reconstruct trips and clean them", extract_clean_trips),
    Stage("harvest", "collect raw POIs over the harvest (and densify) grid", harvest_pois),
    Stage("normalize", "normalize raw POIs into the grouped catalog", normalize_pois, (RAW_POIS,)),
    Stage("associate", "crop trips to the bbox, attach nearest POIs, apply the cutoff", associate_trips,
          (TRIPS, CATALOG)),
    Stage("sensitivity", "trip counts per POI group as the distance threshold grows", sensitivity_tables,
          (ASSOC, CATALOG)),
    Stage("report", "purpose matrices, slices and drill-downs", write_report, (WITHIN, CATALOG)),
)}

# how run_stage reads each artifact a stage reads back
_READERS = {RAW_POIS: load_raw_pois, TRIPS: read_trips_csv, CATALOG: load_catalog, ASSOC: read_associated_csv,
            WITHIN: read_associated_csv}


def run_stage(name: str, cfg: PipelineConfig, out_dir, raw_out=None) -> StageResult:
    """Run the stage `name` as run_pipeline does, on the inputs earlier
    stages wrote to out_dir; raw_out is extract's raw trips CSV."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stage = STAGES[name]
    inputs = [_READERS[artifact](out_dir / artifact) for artifact in stage.reads]
    result = stage.run(cfg, *inputs, out_dir, **({"raw_out": raw_out} if raw_out else {}))
    if result.error:
        raise result.error
    return result


def run_pipeline(cfg: PipelineConfig, raw_config: dict, out_dir) -> Manifest:
    """Run the stages of STAGES in order (simulate only without paths.feed),
    handing their outputs on in memory; each output is dropped after the
    last stage that reads it. On failure the manifest records the stage and
    any partial artifacts stay on disk with status FAILED."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(config_sha256=config_hash(raw_config))
    rows = [row for row in STAGES.values() if row.name != "simulate" or not cfg.paths.feed]
    last_reader = {artifact: i for i, row in enumerate(rows) for artifact in row.reads}
    held = {}  # the outputs a later stage reads, by artifact name
    stage = "setup"
    try:
        for i, row in enumerate(rows):
            stage = row.name
            result = row.run(cfg, *(held[artifact] for artifact in row.reads), out_dir)
            manifest.stages.update(result.stages)
            for path in result.paths:
                manifest.artifacts[path.name] = _sha256(path)
            if result.error:
                raise result.error
            held.update(result.outputs)
            del result  # freed, no output outlives its last reader to add to later stages' peaks
            held = {artifact: value for artifact, value in held.items() if last_reader.get(artifact, -1) > i}
    except Exception as exc:
        manifest.status = "FAILED"
        manifest.failed_stage = stage
        write_json(manifest.to_dict(), out_dir / "manifest.json")
        log.error("pipeline failed at stage %s: %s", stage, exc)
        if isinstance(exc, BudgetExhausted):
            raise  # keeps its dedicated exit code
        if isinstance(exc, PipelineError):
            raise PipelineError(f"stage {stage!r} failed: {exc}") from exc
        raise
    write_json(manifest.to_dict(), out_dir / "manifest.json")
    return manifest
