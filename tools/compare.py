#!/usr/bin/env python3
"""Compare the artifacts `scootertrips run` writes at a base commit with those
of the working tree.

The base tree is extracted with `git archive` into .bench_work/compare/base.
Each workload named in the base tree's BENCHMARK.json has its inputs written
once, at seed 1, by the base tree's perfbench/workloads.py; both trees then
run the same config. The demo case runs each tree's own demo/config.json; the
dst case runs a copy of each tree's demo directory whose scenario starts on
2019-03-09, so its three days span the 2019-03-10 daylight-saving change. The
demo-stages case runs, instead of `run`, each tree's stage subcommands in
order on its demo/config.json, extract with --raw-out, and writes for them a
manifest of the stage entries they printed and the digests of the files they
wrote. Per case, the two manifests are compared apart from created_at, and every
artifact that differs gets its first differing line printed, then how many
of its records differ at the same position and both totals. A record is a
line, or for a JSON file an item of its root list (for a root object: one
per key, or one per item of a list value).

Usage: python3 tools/compare.py --base <rev> [--expect-change [CASE:]NAME ...] [--time N]

NAME is an artifact file name, a top-level manifest key (config_sha256, ...)
or one stage's manifest entry (stages.associate, ...). A bare NAME may differ
in every case; CASE:NAME (poi-dense:catalog.json) only in that case.
Exits 1 on any difference not named with --expect-change, 0 otherwise.

--time N runs N base/change pairs per case, alternating which side runs
first (base first in the first pair), and prints each run's wall time
(run_s) and peak RSS (peak_rss_mb, the child's ru_maxrss; for demo-stages
the sum of the stages' run_s and the largest peak_rss_mb), then the median
of the paired change/base run_s ratios and the median paired relative
peak_rss_mb change. On a shared host, run times taken
hours apart are not comparable; the ratios of adjacent pairs are.
The artifacts of the last pair are compared.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work" / "compare"
DST_START = "2019-03-09"
# the stage subcommands in the order of the package's stage table, restated: neither tree is imported here
STAGES = ("simulate", "extract", "harvest", "normalize", "associate", "sensitivity", "report")


def extract_tree(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, stdout=subprocess.PIPE)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):  # Python 3.12, 3.11.4+, 3.10.12+
            tar.extractall(dest, filter="data")
        else:  # a git archive of this repository is trusted input
            tar.extractall(dest)


def run_cli(tree: Path, argv: list[str]) -> tuple[dict, str]:
    """Run `python -m scootertrips.cli argv` from tree; returns its run_s and peak_rss_mb, and its stdout."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    started = time.perf_counter()
    with tempfile.TemporaryFile("w+") as err, subprocess.Popen(
            [sys.executable, "-m", "scootertrips.cli", "--log-level", "WARNING", *argv], cwd=tree, env=env,
            stdout=subprocess.PIPE, stderr=err, text=True) as proc:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage, not all children's
        proc.returncode = os.waitstatus_to_exitcode(status)
        run_s = time.perf_counter() - started
        if proc.returncode != 0:
            err.seek(0)
            raise SystemExit(f"compare: scootertrips {' '.join(argv)} in {tree} exited {proc.returncode}:\n"
                             f"{err.read()}")
    return {"run_s": round(run_s, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 3)}, stdout


def run_tree(tree: Path, config: Path, out: Path) -> dict:
    """Run `scootertrips run` from tree into a fresh out; returns its run_s and peak_rss_mb."""
    shutil.rmtree(out, ignore_errors=True)
    return run_cli(tree, ["run", "--config", str(config), "--out-dir", str(out)])[0]


def run_stages(tree: Path, config: Path, out: Path) -> dict:
    """Run the stage subcommands in order from tree into a fresh out, extract
    with --raw-out into out, then write out/manifest.json holding the stage
    entries they printed and the digests of the files they wrote, keyed as in
    `run`'s manifest. Returns their summed run_s and largest peak_rss_mb."""
    shutil.rmtree(out, ignore_errors=True)
    stages, runs = {}, []
    for stage in STAGES:
        argv = [stage, "--config", str(config), "--out-dir", str(out)]
        if stage == "extract":
            argv += ["--raw-out", str(out / "raw_trips.csv")]
        timing, printed = run_cli(tree, argv)
        stages.update(json.loads(printed))
        runs.append(timing)
    artifacts = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())}
    (out / "manifest.json").write_text(json.dumps({"stages": stages, "artifacts": artifacts}), encoding="utf-8")
    return {"run_s": round(sum(r["run_s"] for r in runs), 3), "peak_rss_mb": max(r["peak_rss_mb"] for r in runs)}


def first_difference(a: Path, b: Path) -> str:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        for line_no, (la, lb) in enumerate(zip(fa, fb), 1):
            if la != lb:
                return f"line {line_no}: {la[:200]!r} != {lb[:200]!r}"
    return "one file is a prefix of the other"


def records(path: Path) -> list:
    """The records of an artifact, as the module docstring defines them."""
    if path.suffix != ".json":
        return path.read_bytes().splitlines()
    root = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(root, dict):
        return [(key, item) for key, value in root.items() for item in (value if isinstance(value, list) else [value])]
    return root if isinstance(root, list) else [root]


def record_differences(a: Path, b: Path) -> str:
    """How many records of two versions of an artifact differ at the same position."""
    ra, rb = records(a), records(b)
    unit = "records" if a.suffix == ".json" else "lines"
    differ = sum(x != y for x, y in zip(ra, rb))
    return f"{unit} differing at the same position: {differ} (base has {len(ra)}, change {len(rb)})"


def dst_config(tree: Path, dest: Path) -> Path:
    """A copy of tree's demo directory in dest whose scenario starts on
    DST_START; returns its config, which reads the same as the demo's."""
    shutil.copytree(tree / "demo", dest)
    scenario = json.loads((dest / "scenario.json").read_text(encoding="utf-8"))
    scenario["start_date"] = DST_START
    (dest / "scenario.json").write_text(json.dumps(scenario, indent=1) + "\n", encoding="utf-8")
    return dest / "config.json"


def manifest_entries(manifest: dict) -> dict:
    """Top-level manifest fields and one entry per stage, created_at and artifacts aside."""
    entries = {k: v for k, v in manifest.items() if k not in ("created_at", "artifacts", "stages")}
    entries.update({f"stages.{name}": v for name, v in manifest.get("stages", {}).items()})
    return entries


def compare_case(base_out: Path, head_out: Path) -> dict[str, str]:
    """Differences between two run directories: name -> description."""
    diffs = {}
    ma = json.loads((base_out / "manifest.json").read_text(encoding="utf-8"))
    mb = json.loads((head_out / "manifest.json").read_text(encoding="utf-8"))
    ea, eb = manifest_entries(ma), manifest_entries(mb)
    for key in sorted(set(ea) | set(eb)):
        if ea.get(key) != eb.get(key):
            diffs[key] = f"{json.dumps(ea.get(key), sort_keys=True)} != {json.dumps(eb.get(key), sort_keys=True)}"
    arts_a, arts_b = ma.get("artifacts", {}), mb.get("artifacts", {})
    for name in sorted(set(arts_a) | set(arts_b)):
        if name not in arts_a or name not in arts_b:
            diffs[name] = "only in " + ("change" if name not in arts_a else "base")
        elif arts_a[name] != arts_b[name]:
            diffs[name] = first_difference(base_out / name, head_out / name)
    return diffs


def is_expected(case: str, name: str, expect_change: list[str]) -> bool:
    """Whether --expect-change names the difference name, bare or as case:name."""
    return name in expect_change or f"{case}:{name}" in expect_change


def print_timing(pairs: list[dict]) -> None:
    for i, pair in enumerate(pairs, 1):
        b, c = pair["base"], pair["change"]
        print(f"  pair {i} ({pair['first']} first): run_s {b['run_s']:.3f} -> {c['run_s']:.3f}, "
              f"peak_rss_mb {b['peak_rss_mb']:.1f} -> {c['peak_rss_mb']:.1f}")
    ratios = [p["change"]["run_s"] / p["base"]["run_s"] for p in pairs]
    faster = sum(r < 1.0 for r in ratios)
    rss = [p["change"]["peak_rss_mb"] / p["base"]["peak_rss_mb"] - 1.0 for p in pairs]
    smaller = sum(r < 0.0 for r in rss)
    print(f"  run_s paired change/base ratio: median {statistics.median(ratios):.3f} "
          f"(change faster in {faster}/{len(pairs)}); "
          f"peak_rss_mb paired change: median {statistics.median(rss):+.1%} (change smaller in {smaller}/{len(pairs)})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare the working tree with")
    parser.add_argument("--expect-change", action="append", default=[], metavar="[CASE:]NAME",
                        help="an artifact, a manifest key or stages.<name> allowed to differ, in every case "
                             "or with CASE: in that one (repeatable)")
    parser.add_argument("--time", type=int, default=0, metavar="N",
                        help="run N alternating base/change pairs per case and report run_s and peak_rss_mb")
    args = parser.parse_args(argv)

    shutil.rmtree(WORK, ignore_errors=True)
    base = WORK / "base"
    base.mkdir(parents=True)
    extract_tree(args.base, base)

    cases = {
        "demo": (base / "demo" / "config.json", ROOT / "demo" / "config.json"),
        "demo-stages": (base / "demo" / "config.json", ROOT / "demo" / "config.json"),
        "dst": (dst_config(base, WORK / "dst" / "base"), dst_config(ROOT, WORK / "dst" / "change")),
    }
    for workload in (w["name"] for w in json.loads((base / "BENCHMARK.json").read_text())["workloads"]):
        inputs = WORK / "inputs" / workload
        subprocess.run([sys.executable, str(base / "perfbench" / "workloads.py"), "--workload", workload,
                        "--seed", "1", "--out", str(inputs)], check=True, stdout=subprocess.DEVNULL)
        cases[workload] = (inputs / "config.json", inputs / "config.json")

    unexpected = 0
    for case, (base_config, head_config) in cases.items():
        outs = WORK / "base-out" / case, WORK / "change-out" / case
        sides = (base, base_config, outs[0]), (ROOT, head_config, outs[1])
        run = run_stages if case == "demo-stages" else run_tree
        pairs = []
        for i in range(max(args.time, 1)):
            first = i % 2  # 0: base first
            pair = {"first": ("base", "change")[first]}
            for side in (first, 1 - first):
                pair[("base", "change")[side]] = run(*sides[side])
            pairs.append(pair)
        diffs = compare_case(*outs)
        print(f"{case}: " + ("identical" if not diffs else f"{len(diffs)} difference(s)"))
        if args.time:
            print_timing(pairs)
        for name, text in diffs.items():
            expected = is_expected(case, name, args.expect_change)
            unexpected += not expected
            print(f"  {name} ({'expected' if expected else 'UNEXPECTED'}): {text}")
            if (outs[0] / name).is_file() and (outs[1] / name).is_file():  # an artifact in both runs
                print(f"    {record_differences(outs[0] / name, outs[1] / name)}")
    shutil.rmtree(WORK, ignore_errors=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    raise SystemExit(main())
