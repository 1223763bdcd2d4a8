#!/usr/bin/env python3
"""List the executable lines of src/scootertrips that no production-path case runs.

The cases, each run in this process under sys.settrace:
  demo         `run` on demo/config.json
  demo-stages  the demo stage by stage, extract with --raw-out, then `score`
               of those raw trips against the simulated truth
  WORKLOAD     `run` on each workload named in BENCHMARK.json; its inputs are
               written at seed 1 by perfbench/workloads.py in a child process,
               which is not traced

Each command runs as `python -m scootertrips.cli` runs it, and the package is
first imported under the trace, so import-time lines count. A line is
executable when compiled code has an instruction on it.

Usage: python3 tools/unrun_lines.py [CASE ...]   (default: every case)

Prints each unrun line as path:line: source, then how many of the executable
lines no case ran. Inputs and outputs go to a temporary directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "scootertrips"
# the stage subcommands in the order of the package's stage table, restated: the package is first imported
# under the trace
STAGES = ("simulate", "extract", "harvest", "normalize", "associate", "sensitivity", "report")


def executable_lines(path: Path) -> set[int]:
    """The lines of a source file that its compiled code has an instruction on."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def commands(case: str, work: Path) -> list[list[str]]:
    """The scootertrips command lines of one case, in order; writes any inputs they need to work."""
    demo = ROOT / "demo" / "config.json"
    out = work / "out" / case
    if case == "demo":
        return [["run", "--config", str(demo), "--out-dir", str(out)]]
    if case == "demo-stages":
        raw = work / "raw_trips.csv"
        chain = [[stage, "--config", str(demo), "--out-dir", str(out)] for stage in STAGES]
        chain[1] += ["--raw-out", str(raw)]
        return chain + [["score", "--truth", str(out / "truth.json"), "--extracted", str(raw),
                         "--out", str(work / "score.json")]]
    inputs = work / "inputs" / case
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "workloads.py"), "--workload", case, "--seed", "1",
                    "--out", str(inputs)], check=True, stdout=subprocess.DEVNULL)
    return [["run", "--config", str(inputs / "config.json"), "--out-dir", str(out)]]


def run_cli(argv: list[str]) -> None:
    """Run `python -m scootertrips.cli argv` in this process, its stdout
    dropped; raise unless it exits 0."""
    sys.argv = ["scootertrips", "--log-level", "WARNING", *argv]
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # the stage commands print their manifest entries
            runpy.run_module("scootertrips.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        if exc.code != 0:
            raise SystemExit(f"unrun_lines: scootertrips {' '.join(argv)} exited {exc.code}") from None


def trace_cases(cases: list[str], work: Path) -> dict[str, set[int]]:
    """The lines of each source file under SRC that the cases ran; their files go to work."""
    prefix = str(SRC) + "/"
    ran: dict[str, set[int]] = {}

    def line(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return line

    argvs = [argv for case in cases for argv in commands(case, work)]  # workload inputs are written untraced
    sys.path.insert(0, str(SRC.parent))
    sys.settrace(call)
    try:
        for argv in argvs:
            run_cli(argv)
    finally:
        sys.settrace(None)
    return ran


def main(argv=None) -> int:
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    known = ["demo", "demo-stages", *workloads]
    cases = list(argv if argv is not None else sys.argv[1:]) or known
    unknown = [case for case in cases if case not in known]
    if unknown:
        print(f"unrun_lines: unknown cases {unknown}; known: {known}", file=sys.stderr)
        return 1
    if "scootertrips" in sys.modules:
        raise SystemExit("unrun_lines: scootertrips is imported already, so its import-time lines would not count")
    with tempfile.TemporaryDirectory(prefix="unrun_lines-") as work:
        ran = trace_cases(cases, Path(work))
    total = unrun = 0
    for path in sorted(SRC.rglob("*.py")):
        lines = executable_lines(path)
        source = path.read_text(encoding="utf-8").splitlines()
        missed = sorted(lines - ran.get(str(path), set()))
        total += len(lines)
        unrun += len(missed)
        for n in missed:
            print(f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}")
    print(f"{unrun} of {total} executable lines in {SRC.relative_to(ROOT)} ran in no case of {', '.join(cases)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
