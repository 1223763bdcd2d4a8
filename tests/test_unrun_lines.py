"""tools/unrun_lines.py traces the demo `run` and lists what it did not run."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "scootertrips"


def line_of(module: str, text: str) -> str:
    """The tool's path:line prefix of the one line of module that holds text."""
    lines = (SRC / module).read_text(encoding="utf-8").splitlines()
    (n,) = [i for i, line in enumerate(lines, 1) if text in line]
    return f"src/scootertrips/{module}:{n}:"


def test_demo_run_trace_lists_only_what_the_demo_skips():
    done = subprocess.run([sys.executable, str(REPO / "tools" / "unrun_lines.py"), "demo"], cwd=REPO,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    *listed, summary = done.stdout.splitlines()
    assert summary.endswith("executable lines in src/scootertrips ran in no case of demo")
    assert int(summary.split()[0]) == len(listed) > 0
    prefixes = {line.split(" ", 1)[0] for line in listed}
    # the demo simulates, writes and parses a JSONL feed and runs every stage without failing
    assert line_of("ingest.py", "fh.write(_jsonl_line(batch, null_fill_to))") not in prefixes
    assert line_of("pipeline.py", "result = row.run(cfg, *(held[artifact] for artifact in row.reads), out_dir)") not in prefixes
    assert line_of("cli.py", "raise SystemExit(main())") not in prefixes  # it runs as python -m scootertrips.cli
    assert line_of("geo.py", "class GeoPoint(NamedTuple):") not in prefixes  # import-time lines count
    # its feed is not CSV, no stage fails and `score` is not run
    assert line_of("ingest.py", "builder = _BatchBuilder(stats, _NOT_UTF8)") in prefixes
    assert line_of("pipeline.py", 'raise PipelineError(f"stage {stage!r} failed: {exc}") from exc') in prefixes
    assert line_of("synth.py", "report.n_matched += 1") in prefixes
