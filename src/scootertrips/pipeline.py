"""Full-pipeline orchestration: run every stage in order, write artifacts and a
manifest with per-stage counts, versions, and the config hash.

Artifacts carry no timestamps, so a rerun with the same config is
byte-identical; the manifest's created_at field is the only exception.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import platform
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .assoc import apply_threshold, associate, catalog_index, sensitivity, write_associated_csv, write_sensitivity_csv
from .config import PipelineConfig, config_hash, parse_drill_spec
from .errors import BudgetExhausted, ClientError, InvalidConfig, PipelineError
from .geo import make_grid
from .ingest import parse_snapshot_stream
from .poi import (
    FixturePlacesClient,
    QueryBudget,
    default_buffer_specs_path,
    default_manual_pois_path,
    default_plan_path,
    default_taxonomy_path,
    harvest,
    load_buffer_specs,
    load_manual_entries,
    load_plan,
    load_taxonomy,
    normalize_catalog,
    save_catalog,
    save_raw_pois,
    select_low_density_cells,
)
from .poi.client import DENSIFY_TEXT_QUERIES, QueryPlanEntry
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
from .trips import clean_trips, crop_trips, extract_trips, write_trips_csv

log = logging.getLogger(__name__)


class StageFailure(PipelineError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


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
            "package": "scootertrips",
            "package_version": __version__,
            "python_version": platform.python_version(),
            "config_sha256": self.config_sha256,
            "created_at": datetime.now(timezone.utc).isoformat(),
            "status": self.status,
            "failed_stage": self.failed_stage,
            "stages": self.stages,
            "artifacts": self.artifacts,
        }


def _write_manifest(manifest: Manifest, out_dir: Path) -> None:
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


@dataclass
class PoiHarvest:
    pois: list
    reports: list = field(default_factory=list)  # one HarvestReport per pass
    stats: dict = field(default_factory=dict)  # the manifest's harvest stage


def harvest_pois(cfg: PipelineConfig) -> PoiHarvest:
    """Harvest raw POIs over the cfg grid and, with cfg.densify, run text
    queries over the lowest-density cells of the densify grid; both passes
    share one query budget. On budget exhaustion or a fatal client error the
    exception's .partial is a PoiHarvest holding every pass run so far."""
    fixtures_dir = os.environ.get("SCOOTER_FIXTURES_DIR") or cfg.fixtures_dir
    if not fixtures_dir:
        raise InvalidConfig("no fixture directory: set paths.fixtures_dir (harvest: --fixtures) or SCOOTER_FIXTURES_DIR")
    client = FixturePlacesClient(fixtures_dir)
    plan = load_plan(cfg.plan or default_plan_path())
    budget = QueryBudget(cfg.query_budget)
    out = PoiHarvest(pois=[])

    def run_pass(grid, entries, cells=None):
        try:
            result = harvest(client, grid, entries, budget, cells=cells)
        except (BudgetExhausted, ClientError) as exc:
            out.pois += exc.partial.pois
            out.reports.append(exc.partial.report)
            exc.partial = out
            raise
        out.pois += result.pois
        out.reports.append(result.report)
        return result

    base = run_pass(make_grid(cfg.bbox, cfg.harvest_rows, cfg.harvest_cols), plan)
    out.stats = {
        "grid": [cfg.harvest_rows, cfg.harvest_cols],
        "queries": len(base.report.queries),
        "truncated_queries": base.report.truncated_queries,
        "raw_pois": len(base.pois),
    }
    if cfg.densify:
        grid = make_grid(cfg.bbox, cfg.densify_rows, cfg.densify_cols)
        cells = select_low_density_cells(grid, out.pois, cfg.densify_fraction)
        densify_plan = [QueryPlanEntry(kind="text", term=q) for q in DENSIFY_TEXT_QUERIES]
        dense = run_pass(grid, densify_plan, cells)
        out.stats["densify"] = {
            "grid": [cfg.densify_rows, cfg.densify_cols],
            "cells_requeried": len(cells),
            "queries": len(dense.report.queries),
            "raw_pois": len(dense.pois),
        }
    out.stats["budget_used"] = budget.used
    return out


def write_report(within, catalog, groups, tz: str, drilldowns, out_dir) -> tuple[list[Path], dict]:
    """Write the overall, per-slot and weekday/weekend purpose matrices over
    the groups axis, their long form, and one drill-down per
    'OriginGroup:DestGroup' spec into out_dir; returns the written paths and
    the manifest's report stage. A spec naming a group off the axis raises
    InvalidConfig before anything is written."""
    cells = [(spec, *parse_drill_spec(spec, groups)) for spec in drilldowns]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    return paths, stats


def run_pipeline(cfg: PipelineConfig, raw_config: dict, out_dir) -> Manifest:
    """Execute every stage; on failure the manifest records the stage and any
    partial artifacts stay on disk with status FAILED."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(config_sha256=config_hash(raw_config))
    stage = "setup"

    def artifact(path: Path) -> Path:
        manifest.artifacts[path.name] = _sha256(path)
        return path

    try:
        # --- simulate (optional) -------------------------------------------------
        feed_path = Path(cfg.feed) if cfg.feed else None
        if feed_path is None:
            stage = "simulate"
            if not cfg.scenario:
                raise InvalidConfig("config needs either paths.feed or paths.scenario")
            scenario = ScenarioConfig.load(cfg.scenario)
            truth, batches = generate(scenario)
            feed_path = out_dir / "feed.jsonl"
            write_feed(batches, feed_path)
            save_truth(truth, out_dir / "truth.json", cadence_s=scenario.cadence_s, timezone_name=scenario.timezone)
            artifact(feed_path)
            artifact(out_dir / "truth.json")
            manifest.stages["simulate"] = {
                "truth_trips": len(truth),
                "batches": len(batches),
                "observations": sum(len(b.ids) for b in batches),
            }

        # --- ingest + extract ----------------------------------------------------
        stage = "ingest"
        stream = parse_snapshot_stream(feed_path, format=cfg.feed_format)
        stage = "extract"
        raw_trips = extract_trips(stream, timezone_name=cfg.timezone)
        manifest.stages["ingest"] = stream.stats.to_dict()
        manifest.stages["extract"] = {"raw_trips": len(raw_trips)}

        # --- clean ---------------------------------------------------------------
        stage = "clean"
        cleaned, clean_report = clean_trips(raw_trips, cfg.cleaning)
        trips_path = out_dir / "trips.csv"
        write_trips_csv(cleaned, trips_path)
        artifact(trips_path)
        with open(out_dir / "cleaning_report.json", "w", encoding="utf-8") as fh:
            json.dump(clean_report.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        artifact(out_dir / "cleaning_report.json")
        manifest.stages["clean"] = clean_report.to_dict()

        # --- region crop (cleaning first, then region selection) ------------------
        stage = "crop"
        region_trips, cropped = crop_trips(cleaned, cfg.bbox)
        manifest.stages["crop"] = {"in_region": len(region_trips), "removed_outside_region": cropped}

        # --- harvest ---------------------------------------------------------------
        stage = "harvest"
        harvested = harvest_pois(cfg)
        raw_pois = harvested.pois
        pois_path = out_dir / "pois_raw.json"
        save_raw_pois(raw_pois, pois_path)
        artifact(pois_path)
        manifest.stages["harvest"] = harvested.stats

        # --- normalize -------------------------------------------------------------
        stage = "normalize"
        taxonomy = load_taxonomy(cfg.taxonomy or default_taxonomy_path())
        manual = load_manual_entries(cfg.manual_pois or default_manual_pois_path())
        buffer_specs = load_buffer_specs(cfg.buffers or default_buffer_specs_path())
        catalog, normalize_report = normalize_catalog(raw_pois, taxonomy, manual, buffer_specs)
        catalog_path = out_dir / "catalog.json"
        save_catalog(catalog, catalog_path)
        artifact(catalog_path)
        manifest.stages["normalize"] = normalize_report.to_dict()

        # --- associate ---------------------------------------------------------------
        stage = "associate"
        index = catalog_index(catalog)
        associated = associate(region_trips, index)
        within = apply_threshold(associated, cfg.cutoff_m)
        assoc_path = out_dir / "assoc.csv"
        write_associated_csv(associated, assoc_path)
        artifact(assoc_path)
        cut_path = out_dir / "assoc_within_cutoff.csv"
        write_associated_csv(within, cut_path)
        artifact(cut_path)
        manifest.stages["associate"] = {
            "associated": len(associated),
            "within_cutoff": len(within),
            "cutoff_m": cfg.cutoff_m,
            "origin_reassigned": int(associated.reassigned.sum()),
            "unresolved_collisions": int((associated.origin_poi == associated.dest_poi).sum()),
        }

        # --- sensitivity -----------------------------------------------------------
        stage = "sensitivity"
        groups = list(taxonomy.groups)
        for endpoint in ("origin", "destination"):
            table = sensitivity(associated, cfg.thresholds, endpoint, catalog, groups)
            path = out_dir / f"sensitivity_{endpoint}.csv"
            write_sensitivity_csv(table, path)
            artifact(path)
        manifest.stages["sensitivity"] = {"thresholds": cfg.thresholds}

        # --- report ------------------------------------------------------------------
        stage = "report"
        paths, report_stats = write_report(within, catalog, groups, cfg.timezone, cfg.drilldowns, out_dir)
        for p in paths:
            artifact(p)
        manifest.stages["report"] = report_stats
    except Exception as exc:
        manifest.status = "FAILED"
        manifest.failed_stage = stage
        _write_manifest(manifest, out_dir)
        log.error("pipeline failed at stage %s: %s", stage, exc)
        if isinstance(exc, BudgetExhausted):
            raise  # keeps its dedicated exit code
        if isinstance(exc, PipelineError):
            raise StageFailure(stage, exc) from exc
        raise
    _write_manifest(manifest, out_dir)
    return manifest
