#!/usr/bin/env python3
"""Pipeline benchmark: time whole `scootertrips run` processes on seeded workloads.

  python3 perfbench/run.py --workload fleet-14d --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --workload all          # every workload in turn

Per invocation: build the workload's inputs from the seed three times (set-up
time is their median), then run `python -m scootertrips.cli run` as one
subprocess at a time until --seconds of runs (at least three) have been
measured. Each run is one operation: it fails if it exits nonzero, if its
outputs fail an independent check in reference.py (runs are checked until
one passes), or if its artifact digests differ from those of the run that
passed those checks. Medians are taken over the runs that did not fail.

--trace 0 reports the end-to-end metrics (medians): run_s, peak_rss_mb,
setup_s. --trace 1 adds one traced run (trace_run.py) after the timed runs
and reports the per-layer metrics instead. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from workloads import ROOT, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
SETUP_REPS = 3
MIN_RUNS = 3
RUN_DEADLINE_S = 120.0  # stop starting runs after this much wall time, so a slow build still reports
KILL_AFTER_S = 150.0  # a single run that takes longer than this is killed and counts as failed

class Launcher:
    """Handle on launcher.py, which spawns and times every child process."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, start_new_session=True)

    def spawn(self, argv: list[str], log: Path) -> dict:
        """Run argv to completion; returns {"wall", "code", "maxrss_kb", "cpu", "exit_wall"}."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        request = {"argv": argv, "env": env, "cwd": str(ROOT), "log": str(log), "kill_after": KILL_AFTER_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("perfbench: launcher exited")
        return json.loads(reply)

    def close(self, clean: bool) -> None:
        """Let the launcher finish at end of input; on an error, kill it and its child."""
        if not clean:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_argv(config: Path, out: Path) -> list[str]:
    return [sys.executable, "-m", "scootertrips.cli", "run", "--config", str(config), "--out-dir", str(out)]


def tail(path: Path, lines: int = 5) -> str:
    try:
        return "".join(path.read_text(encoding="utf-8", errors="replace").splitlines(True)[-lines:])
    except OSError:
        return ""


def set_up(launcher: Launcher, workload: str, seed: int, work: Path):
    """Build the inputs SETUP_REPS times, each in a fresh workloads.py process
    writing a fresh directory (overwriting files still being written back to
    disk would stall later reps); returns (inputs, per-rep records with
    setup_s, generate_s, write_feed_s)."""
    reps = []
    for i in range(SETUP_REPS):
        log = work / f"setup-{i}.log"
        argv = [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed),
                "--out", str(work / f"inputs-{i}")]
        if launcher.spawn(argv, log)["code"] != 0:
            raise SystemExit(f"perfbench: set-up of {workload} failed:\n{tail(log)}")
        reps.append(json.loads(log.read_text(encoding="utf-8").splitlines()[-1]))
        shutil.rmtree(work / f"inputs-{i - 1}", ignore_errors=True)
    for path in (work / f"inputs-{SETUP_REPS - 1}").rglob("*"):  # timed runs must not share the disk with writeback
        if path.is_file():
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())
    last = reps[-1]
    inputs = workloads.Inputs(**{k: last[k] for k in workloads.Inputs.__dataclass_fields__})
    for name in ("config", "feed") + (("truth",) if inputs.truth else ()):
        setattr(inputs, name, Path(getattr(inputs, name)))
    return inputs, reps


def read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def digests(out: Path):
    """Artifact digests from a run's manifest, or None when it cannot be read."""
    try:
        return read_json(out / "manifest.json")["artifacts"]
    except (OSError, ValueError, KeyError):
        return None


def timed_runs(launcher: Launcher, inputs, work: Path, seconds: float, started: float):
    """Closed loop of whole `run` processes; returns run stats and correctness."""
    from reference import check_run

    drilldowns = read_json(inputs.config)["drilldowns"]
    runs, correct, reference = [], True, None
    measured = 0.0
    while not runs or ((len(runs) < MIN_RUNS or measured < seconds) and time.perf_counter() - started < RUN_DEADLINE_S):
        out = work / f"out-{len(runs)}"
        log = work / f"run-{len(runs)}.log"
        run = launcher.spawn(run_argv(inputs.config, out), log)
        measured += run["wall"]
        runs.append(run)
        ok = run["code"] == 0
        if not ok:
            print(f"perfbench: run exited {run['code']}:\n{tail(log)}", file=sys.stderr)
        elif reference is None:
            try:
                errors, facts = check_run(inputs, out, drilldowns)
            except Exception:  # outputs the checks cannot even read are wrong outputs
                errors, facts = [traceback.format_exc()], {}
            if errors:
                ok = correct = False
                print("perfbench: reference check failed:\n  " + "\n  ".join(errors), file=sys.stderr)
            else:
                reference = digests(out)
            print(f"perfbench: reference facts {json.dumps(facts)}", file=sys.stderr)
        elif digests(out) != reference:
            ok = False
            print("perfbench: artifact digests differ from the checked run", file=sys.stderr)
        run["ok"] = ok
        shutil.rmtree(out, ignore_errors=True)
    return runs, correct and reference is not None, reference


# Per-layer time metrics: the traced span names whose total (or self) time they sum.
SPAN_METRICS = {
    "ingest.busy_s": ("ingest.next_batch",),
    "trips.clean_s": ("trips.clean_trips",),
    "trips.crop_s": ("trips.crop_trips",),
    "trips.write_csv_s": ("trips.write_trips_csv",),
    "kernels.pair_scan_s": ("kernels.pair_scan",),
    "poi.client.load_s": ("poi.client.FixturePlacesClient",),
    "poi.harvest_s": ("poi.client.harvest", "poi.client.select_low_density_cells"),
    "poi.normalize_s": ("poi.catalog.normalize_catalog", "poi.catalog.load_taxonomy",
                        "poi.catalog.load_manual_entries", "poi.catalog.load_buffer_specs"),
    "poi.save_s": ("poi.catalog.save_raw_pois", "poi.catalog.save_catalog"),
    "geo.index_build_s": ("assoc.catalog_index",),
    "assoc.associate_s": ("assoc.associate", "assoc.apply_threshold"),
    "assoc.write_csv_s": ("assoc.write_associated_csv",),
    "assoc.sensitivity_s": ("assoc.sensitivity", "assoc.write_sensitivity_csv"),
    "purpose.build_matrix_s": ("purpose.build_matrix", "purpose.slot_predicate", "purpose.day_class_predicate"),
    "purpose.drill_down_s": ("purpose.drill_down",),
    "purpose.write_s": ("purpose.write_matrix_csv", "purpose.write_matrix_long_csv", "purpose.write_drilldown_csv"),
    "pipeline.digest_s": ("pipeline.digest",),
}
SELF_METRICS = {"trips.extract.self_s": "trips.extract_trips"}
UNATTRIBUTED_MARGIN = 0.10  # share of traced wall time the layer spans may leave uncovered


def span_times(spans: list):
    """Total and self seconds per span name, plus the total of the layer spans
    (children of run_pipeline, and config loading)."""
    dur = [end - start for _, start, end, _ in spans]
    covered = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[i]
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for i, (name, _, _, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + dur[i]
        self_time[name] = self_time.get(name, 0.0) + dur[i] - covered[i]
    layer_parents = {i for i, s in enumerate(spans) if s[0] in ("pipeline.run_pipeline", "cli.main")}
    layers = sum(dur[i] for i, s in enumerate(spans)
                 if s[3] in layer_parents and s[0] != "pipeline.run_pipeline")
    return total, self_time, layers


def traced_run(launcher: Launcher, inputs, work: Path, reference):
    """One traced run; returns (metrics dict without units, list of problems).
    Every workload runs every stage, so a layer span or count that never
    occurred is a problem, not a time of 0."""
    out, spans_path, log = work / "out-traced", work / "spans.json", work / "traced.log"
    argv = [sys.executable, str(HERE / "trace_run.py"), "--config", str(inputs.config), "--out-dir", str(out),
            "--spans", str(spans_path)]
    run = launcher.spawn(argv, log)
    if run["code"] != 0:
        print(f"perfbench: traced run exited {run['code']}:\n{tail(log)}", file=sys.stderr)
        return None, ["traced run failed"]
    trace = read_json(spans_path)
    manifest = read_json(out / "manifest.json")
    artifact_bytes = sum((out / name).stat().st_size for name in manifest["artifacts"])
    problems = [] if manifest["artifacts"] == reference else ["traced run did not reproduce the checked artifacts"]
    shutil.rmtree(out, ignore_errors=True)

    total, self_time, layers = span_times(trace["spans"])
    expected = [s for names in SPAN_METRICS.values() for s in names] + list(SELF_METRICS.values())
    problems += [f"span {s} never occurred" for s in expected if s not in total]
    problems += [f"count {c} never recorded" for c in ("kernels.pair_scan.rows",) if c not in trace["counts"]]
    st = manifest["stages"]
    harvest = st["harvest"]
    densify = harvest.get("densify", {})
    norm = st["normalize"]
    teardown = run["exit_wall"] - trace["main_end_wall"]
    m = {name: sum(total.get(s, 0.0) for s in names) for name, names in SPAN_METRICS.items()}
    m.update({name: self_time.get(span, 0.0) for name, span in SELF_METRICS.items()})
    m.update({
        "ingest.records": st["ingest"]["input_records"],
        "ingest.records_per_s": st["ingest"]["input_records"] / m["ingest.busy_s"] if m["ingest.busy_s"] else 0.0,
        "ingest.dropped_null_id": st["ingest"]["dropped_null_id"],
        "ingest.dropped_duplicate_id": st["ingest"]["dropped_duplicate_id"],
        "trips.extract.raw_trips": st["extract"]["raw_trips"],
        "trips.clean.kept_ratio": st["clean"]["kept"] / max(1, st["clean"]["input_count"]),
        "kernels.pair_scan.rows": trace["counts"].get("kernels.pair_scan.rows", 0),
        "poi.client.queries": harvest["queries"] + densify.get("queries", 0),
        "poi.client.truncated_queries": harvest["truncated_queries"],
        "poi.client.raw_pois": harvest["raw_pois"] + densify.get("raw_pois", 0),
        "poi.harvest.unique_ratio": (norm["input_raw"] - norm["harvest_duplicates_collapsed"]) / max(1, norm["input_raw"]),
        "poi.catalog.size": norm["catalog_size"],
        "poi.catalog.merged_groups": norm["merge"]["colocated_groups_merged"],
        "assoc.associated": st["associate"]["associated"],
        "assoc.within_ratio": st["associate"]["within_cutoff"] / max(1, st["associate"]["associated"]),
        "assoc.origin_reassigned": st["associate"]["origin_reassigned"],
        "pipeline.artifact_bytes": artifact_bytes,
        "cli.startup_s": trace["startup_s"],
        "cli.teardown_s": teardown,
        "trace.total_s": run["wall"],
        "trace.peak_rss_mb": run["maxrss_kb"] / 1024.0,
        "trace.unattributed_s": run["wall"] - trace["startup_s"] - layers - teardown,
    })
    if m["trace.unattributed_s"] > UNATTRIBUTED_MARGIN * run["wall"]:
        problems.append(f"layer spans leave {m['trace.unattributed_s']:.3f} s of the traced {run['wall']:.3f} s "
                        f"unattributed, over the {UNATTRIBUTED_MARGIN:.0%} margin")
    return m, problems


def units(section: str) -> dict[str, str]:
    """Unit of every metric BENCHMARK.json declares in section, in its order."""
    return {spec["name"]: spec["unit"] for spec in read_json(ROOT / "BENCHMARK.json")[section]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launcher = Launcher()  # first, while this process is small
    clean = False
    try:
        inputs, setup = set_up(launcher, workload, seed, work)
        set_up_done = time.perf_counter()
        runs, correct, reference = timed_runs(launcher, inputs, work, seconds, started)
        passed = [r for r in runs if r["ok"]] or runs  # if every run failed, `failed` says so
        print(f"perfbench: {workload} set-up {set_up_done - started:.1f} s, runs and check "
              f"{time.perf_counter() - set_up_done:.1f} s; set-up reps "
              f"{[round(s['setup_s'], 3) for s in setup]}, run walls {[round(r['wall'], 3) for r in runs]}, "
              f"cpu {[round(r['cpu'], 3) for r in runs]}", file=sys.stderr)
        run_s = statistics.median(r["wall"] for r in passed)
        if not trace:
            values = {
                "run_s": run_s,
                "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in passed) / 1024.0,
                "setup_s": statistics.median(s["setup_s"] for s in setup),
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in units("end_to_end").items()}
        else:
            try:
                layer, problems = traced_run(launcher, inputs, work, reference)
            except Exception:  # a traced run whose outputs cannot be read reports no layers
                layer, problems = None, [f"traced run unreadable:\n{traceback.format_exc()}"]
            if problems:
                correct = False
                print("perfbench: " + "\nperfbench: ".join(problems), file=sys.stderr)
            layer = layer or {}
            layer.update({
                "synth.generate_s": statistics.median(s["generate_s"] for s in setup),
                "synth.write_feed_s": statistics.median(s["write_feed_s"] for s in setup),
                "synth.observations": inputs.observations,
                "cli.cpu_s": statistics.median(r["cpu"] for r in passed),
            })
            if "trace.total_s" in layer:
                layer["trace.overhead_s"] = layer["trace.total_s"] - run_s
            metrics = {name: {"value": layer.get(name, 0.0), "unit": unit} for name, unit in units("per_layer").items()}
        clean = True
        failed = sum(not r["ok"] for r in runs)
        return {"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}
    finally:
        launcher.close(clean)
        shutil.rmtree(work, ignore_errors=True)


def summary(workload: str, result: dict) -> str:
    parts = [f"{name} {m['value']:.4g} {m['unit']}" for name, m in result["metrics"].items()]
    return (f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}  "
            + "  ".join(parts))


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload, each in its own benchmark process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {workload} exited {proc.returncode}")
        result = json.loads(lines[-1])
        print(summary(workload, result), flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="scootertrips pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(read_json(ROOT / "BENCHMARK.json")["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads.import_program()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(summary(args.workload, result))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
