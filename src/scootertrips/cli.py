"""Command-line interface: per-stage subcommands plus the full `run` pipeline.

Exit codes: 0 success, 1 usage error, 2 data error, 3 query budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .errors import BudgetExhausted, PipelineError, UsageError

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are code 1 here
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="scootertrips", description=__doc__)
    parser.add_argument("--log-level", default="INFO", help="logging level (DEBUG, INFO, WARNING, ...)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate/filter a snapshot feed and report counts")
    p.add_argument("--input", required=True)
    p.add_argument("--format", default="jsonl", choices=("jsonl", "csv"))
    p.add_argument("--bbox", help="minlat,minlon,maxlat,maxlon observation filter")
    p.add_argument("--out", help="write the retained feed here (jsonl)")
    p.add_argument("--stats-out", help="write ingest counters here (json)")

    p = sub.add_parser("extract", help="reconstruct and clean trips from a feed")
    p.add_argument("--input", required=True)
    p.add_argument("--format", default="jsonl", choices=("jsonl", "csv"))
    p.add_argument("--rules", help="cleaning rules JSON (defaults: 75-3000 m, 07:00-21:00 local)")
    p.add_argument("--timezone", help="IANA zone for day cuts and the hours filter")
    p.add_argument("--out", required=True, help="cleaned trips CSV")
    p.add_argument("--raw-out", help="also write the pre-cleaning trips CSV here")
    p.add_argument("--report", help="cleaning report JSON")

    p = sub.add_parser("harvest", help="collect POIs over a grid from a places client")
    p.add_argument("--grid", default="8x8", help="ROWSxCOLS")
    p.add_argument("--bbox", help="minlat,minlon,maxlat,maxlon (defaults to the built-in midtown/downtown region)")
    p.add_argument("--plan", help="query plan JSON (defaults to the packaged plan)")
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--fixtures", help="recorded-fixture directory (or set SCOOTER_FIXTURES_DIR)")
    p.add_argument("--densify", action="store_true", help="re-query lowest-density cells on a 15x15 grid")
    p.add_argument("--out", required=True, help="raw POI JSON")
    p.add_argument("--report", help="harvest report JSON")

    p = sub.add_parser("normalize", help="normalize raw POIs into the grouped catalog")
    p.add_argument("--in", dest="input", required=True, help="raw POI JSON from harvest")
    p.add_argument("--taxonomy", help="group taxonomy JSON (defaults packaged)")
    p.add_argument("--buffers", help="buffer specs JSON (defaults packaged)")
    p.add_argument("--manual", help="manual POI JSON (defaults packaged)")
    p.add_argument("--out", required=True, help="catalog JSON")
    p.add_argument("--report", help="normalize report JSON")

    p = sub.add_parser("associate", help="attach nearest POIs to trip endpoints")
    p.add_argument("--trips", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--cutoff", type=float, help="keep only trips with both endpoints within this distance")
    p.add_argument("--out", required=True)

    p = sub.add_parser("sensitivity", help="trip counts per POI group as the distance threshold grows")
    p.add_argument("--assoc", required=True)
    p.add_argument("--catalog", required=True, help="needed to resolve POI groups")
    p.add_argument("--thresholds", default="0:100:5", help="start:stop:step (stop inclusive) or comma list")
    p.add_argument("--endpoint", default="destination", choices=("origin", "destination"))
    p.add_argument("--taxonomy", help="group taxonomy JSON (defaults packaged); its groups are the table's rows")
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="purpose matrices, slices, and drill-downs")
    p.add_argument("--assoc", required=True, help="associated trips CSV (apply any cutoff upstream)")
    p.add_argument("--catalog", required=True)
    p.add_argument("--taxonomy", help="group taxonomy JSON (defaults packaged); its groups are the matrix axes")
    p.add_argument("--drill", action="append", default=[], help="OriginGroup:DestGroup (repeatable)")
    p.add_argument("--timezone", help="IANA zone for slotting (defaults to the cleaning default)")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="generate a synthetic feed plus ground truth")
    p.add_argument("--config", required=True, help="scenario JSON")
    p.add_argument("--out", required=True, help="feed JSONL")
    p.add_argument("--truth", required=True, help="ground-truth JSON")

    p = sub.add_parser("score", help="score extracted trips against ground truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--extracted", required=True, help="trips CSV")
    p.add_argument("--cadence", type=int, help="snapshot cadence seconds (defaults from the truth file)")
    p.add_argument("--out", help="score report JSON (stdout by default)")

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)

    return parser


def _write_json(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, indent=1, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _cmd_ingest(args) -> int:
    from .config import parse_bbox
    from .ingest import bounding_box_filter, parse_snapshot_stream, write_snapshot_stream

    stream = parse_snapshot_stream(args.input, format=args.format)
    batches = bounding_box_filter(stream, parse_bbox(args.bbox)) if args.bbox else stream
    if args.out:
        write_snapshot_stream(batches, args.out, format="jsonl")
    else:
        for _ in batches:
            pass
    _write_json(stream.stats.to_dict(), args.stats_out)
    return EXIT_OK


def _cmd_extract(args) -> int:
    from .ingest import parse_snapshot_stream
    from .trips import CleaningRules, clean_trips, extract_trips, write_trips_csv

    rules = CleaningRules()
    if args.rules:
        with open(args.rules, "r", encoding="utf-8") as fh:
            rules = CleaningRules.from_dict(json.load(fh))
    if args.timezone:
        rules = CleaningRules.from_dict({**rules.to_dict(), "timezone": args.timezone})
    stream = parse_snapshot_stream(args.input, format=args.format)
    raw = extract_trips(stream, timezone_name=rules.timezone)
    if args.raw_out:
        write_trips_csv(raw, args.raw_out)
    kept, report = clean_trips(raw, rules)
    write_trips_csv(kept, args.out)
    payload = {"ingest": stream.stats.to_dict(), "cleaning": report.to_dict()}
    _write_json(payload, args.report)
    log.info("extracted %d raw trips; kept %d after cleaning", len(raw), len(kept))
    return EXIT_OK


def _parse_grid(spec: str) -> tuple[int, int]:
    try:
        rows, cols = (int(x) for x in spec.lower().split("x"))
    except ValueError:
        raise UsageError(f"--grid must look like 8x8, got {spec!r}") from None
    return rows, cols


def _cmd_harvest(args) -> int:
    from .config import DEFAULT_REGION, PipelineConfig, parse_bbox
    from .pipeline import harvest_pois
    from .poi import save_raw_pois

    def save(harvested) -> None:
        save_raw_pois(harvested.pois, args.out)
        if args.report:
            _write_json({"harvests": [r.to_dict() for r in harvested.reports]}, args.report)

    rows, cols = _parse_grid(args.grid)
    cfg = PipelineConfig(
        fixtures_dir=args.fixtures,
        bbox=parse_bbox(args.bbox) if args.bbox else DEFAULT_REGION,
        harvest_rows=rows,
        harvest_cols=cols,
        densify=args.densify,
        plan=args.plan,
        query_budget=args.budget,
    )
    try:
        harvested = harvest_pois(cfg)
    except BudgetExhausted as exc:
        save(exc.partial)
        raise
    save(harvested)
    log.info("harvested %d raw POIs with %d queries", len(harvested.pois), harvested.stats["budget_used"])
    return EXIT_OK


def _cmd_normalize(args) -> int:
    from .poi import (
        load_buffer_specs,
        load_manual_entries,
        load_raw_pois,
        load_taxonomy,
        normalize_catalog,
        save_catalog,
    )

    raw = load_raw_pois(args.input)
    taxonomy = load_taxonomy(args.taxonomy)
    manual = load_manual_entries(args.manual)
    buffers = load_buffer_specs(args.buffers)
    catalog, report = normalize_catalog(raw, taxonomy, manual, buffers)
    save_catalog(catalog, args.out)
    _write_json(report.to_dict(), args.report)
    return EXIT_OK


def _cmd_associate(args) -> int:
    from .assoc import apply_threshold, associate, catalog_index, write_associated_csv
    from .poi import load_catalog
    from .trips import read_trips_csv

    trips = read_trips_csv(args.trips)
    catalog = load_catalog(args.catalog)
    associated = associate(trips, catalog_index(catalog))
    if args.cutoff is not None:
        associated = apply_threshold(associated, args.cutoff)
    write_associated_csv(associated, args.out)
    log.info("wrote %d associated trips", len(associated))
    return EXIT_OK


def _cmd_sensitivity(args) -> int:
    from .assoc import read_associated_csv, sensitivity, write_sensitivity_csv
    from .config import parse_thresholds
    from .poi import load_catalog, load_taxonomy

    associated = read_associated_csv(args.assoc)
    catalog = load_catalog(args.catalog)
    thresholds = parse_thresholds(args.thresholds)
    groups = list(load_taxonomy(args.taxonomy).groups)
    table = sensitivity(associated, thresholds, args.endpoint, catalog, groups)
    write_sensitivity_csv(table, args.out)
    return EXIT_OK


def _cmd_report(args) -> int:
    from .assoc import read_associated_csv
    from .pipeline import write_report
    from .poi import load_catalog, load_taxonomy
    from .trips import DEFAULT_TIMEZONE

    groups = list(load_taxonomy(args.taxonomy).groups)
    within = read_associated_csv(args.assoc)
    write_report(within, load_catalog(args.catalog), groups, args.timezone or DEFAULT_TIMEZONE, args.drill, args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from .synth import ScenarioConfig, generate, save_truth, write_feed

    cfg = ScenarioConfig.load(args.config)
    truth, batches = generate(cfg)
    write_feed(batches, args.out)
    save_truth(truth, args.truth, cadence_s=cfg.cadence_s, timezone_name=cfg.timezone)
    log.info("simulated %d truth trips over %d batches", len(truth), len(batches))
    return EXIT_OK


def _cmd_score(args) -> int:
    from .synth import load_truth, score
    from .trips import read_trips_csv

    truth, cadence, tz = load_truth(args.truth)
    if args.cadence:
        cadence = args.cadence
    extracted = read_trips_csv(args.extracted)
    report = score(truth, extracted, cadence, timezone_name=tz)
    _write_json(report.to_dict(), args.out)
    return EXIT_OK


def _cmd_run(args) -> int:
    from .config import load_config
    from .pipeline import run_pipeline

    cfg, raw = load_config(args.config)
    manifest = run_pipeline(cfg, raw, args.out_dir)
    log.info("pipeline ok; %d artifacts in %s", len(manifest.artifacts), args.out_dir)
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "extract": _cmd_extract,
    "harvest": _cmd_harvest,
    "normalize": _cmd_normalize,
    "associate": _cmd_associate,
    "sensitivity": _cmd_sensitivity,
    "report": _cmd_report,
    "simulate": _cmd_simulate,
    "score": _cmd_score,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(level=getattr(logging, str(args.log_level).upper(), logging.INFO),
                        format="%(asctime)s [%(levelname)s] %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - last resort
        log.exception("unexpected failure")
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
