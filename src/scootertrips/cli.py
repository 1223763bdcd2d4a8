"""Command-line interface: the full `run` pipeline, one subcommand per stage,
and `score`.

Every stage subcommand takes the same --config and --out-dir as `run` and runs
the stage function `run` runs, so running the stages in order reproduces the
artifacts of `run`.

Exit codes: 0 success, 1 usage error, 2 data error, 3 query budget exhausted.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .errors import BudgetExhausted, PipelineError, UsageError
from .jsonio import write_json

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are code 1 here
        raise UsageError(message)


STAGE_HELP = {
    "simulate": "generate the synthetic feed and ground truth (paths.scenario)",
    "extract": "ingest the feed, reconstruct trips and clean them",
    "harvest": "collect raw POIs over the harvest (and densify) grid",
    "normalize": "normalize raw POIs into the grouped catalog",
    "associate": "crop trips to the bbox, attach nearest POIs, apply the cutoff",
    "sensitivity": "trip counts per POI group as the distance threshold grows",
    "report": "purpose matrices, slices and drill-downs",
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="scootertrips", description=__doc__)
    parser.add_argument("--log-level", default="INFO", help="logging level (DEBUG, INFO, WARNING, ...)")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in {**STAGE_HELP, "run": "run the full pipeline from a config file"}.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="pipeline config JSON")
        p.add_argument("--out-dir", required=True, help="artifact directory; stages read their inputs from it")
        if name == "extract":
            p.add_argument("--raw-out", help="also write the pre-cleaning trips CSV here (for score)")

    p = sub.add_parser("score", help="score extracted trips against ground truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--extracted", required=True, help="trips CSV")
    p.add_argument("--out", help="score report JSON (stdout by default)")

    return parser


def _cmd_stage(args) -> int:
    """Run one pipeline stage, as `run` does, on inputs read back from the out
    dir; print its manifest stage entries as JSON."""
    from .config import load_config
    from .pipeline import run_stage

    cfg, _ = load_config(args.config)
    result = run_stage(args.command, cfg, args.out_dir, raw_out=getattr(args, "raw_out", None))
    write_json(result.stages)
    return EXIT_OK


def _cmd_score(args) -> int:
    from .synth import load_truth, score
    from .trips import read_trips_csv

    truth, cadence, tz = load_truth(args.truth)
    extracted = read_trips_csv(args.extracted)
    report = score(truth, extracted, cadence, timezone_name=tz)
    write_json(report.to_dict(), args.out)
    return EXIT_OK


def _cmd_run(args) -> int:
    from .config import load_config
    from .pipeline import run_pipeline

    cfg, raw = load_config(args.config)
    manifest = run_pipeline(cfg, raw, args.out_dir)
    log.info("pipeline ok; %d artifacts in %s", len(manifest.artifacts), args.out_dir)
    return EXIT_OK


_COMMANDS = {**dict.fromkeys(STAGE_HELP, _cmd_stage), "score": _cmd_score, "run": _cmd_run}


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
