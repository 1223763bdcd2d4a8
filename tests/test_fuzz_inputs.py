"""Byte- and value-level fuzzing of every file the pipeline reads.

Each byte-level example flips, deletes, inserts or truncates bytes of one
demo input or read-back artifact, and each value-level example replaces one
number of one JSON input; then it runs, in process, the stage that reads
that file. The stage must succeed or raise a PipelineError: a malformed file
or a value out of range is a data error (exit 2), never a crash.
"""

import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scootertrips.cli import EXIT_DATA, EXIT_OK, main
from scootertrips.config import load_config
from scootertrips.errors import PipelineError
from scootertrips.ingest import parse_snapshot_stream
from scootertrips.pipeline import run_stage

from conftest import feed_text

REPO = Path(__file__).resolve().parent.parent
DEMO = REPO / "demo"
DATA = REPO / "src" / "scootertrips" / "data"

# file -> the stage that reads it (None: the config, which load_config reads)
TARGETS = {
    "config.json": None,
    "scenario.json": "simulate",
    "fixtures/places.json": "harvest",
    "taxonomy.json": "normalize",
    "buffers.json": "normalize",
    "manual_pois.json": "normalize",
    "plan.json": "harvest",
    "feed.jsonl": "extract",
    "feed.csv": "extract",
    "trips.csv": "associate",
    "assoc.csv": "sensitivity",
    "assoc_within_cutoff.csv": "report",
    "pois_raw.json": "normalize",
    "catalog.json": "associate",
}
ARTIFACTS = ("trips.csv", "assoc.csv", "assoc_within_cutoff.csv", "pois_raw.json", "catalog.json")


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> Path:
    """Every target file, unmutated: the demo inputs, the bundled data files,
    the demo feed as JSONL and as CSV, and the artifacts of a demo run."""
    root = tmp_path_factory.mktemp("fuzz")
    run = root / "run"
    assert main(["--log-level", "ERROR", "run", "--config", str(DEMO / "config.json"), "--out-dir", str(run)]) == EXIT_OK
    shutil.copytree(DEMO / "fixtures", root / "fixtures")
    shutil.copy(DEMO / "scenario.json", root)
    for name in ("taxonomy.json", "buffers.json", "manual_pois.json", "plan.json"):
        shutil.copy(DATA / name, root)
    for name in ARTIFACTS + ("feed.jsonl", "truth.json"):
        shutil.copy(run / name, root)
    (root / "feed.csv").write_text(feed_text(parse_snapshot_stream(run / "feed.jsonl"), "csv"), newline="")
    return root


def write_config(work: Path, feed: str) -> None:
    config = json.loads((DEMO / "config.json").read_text())
    config["paths"] = {"feed": feed, "scenario": "scenario.json", "fixtures_dir": "fixtures", "plan": "plan.json",
                       "taxonomy": "taxonomy.json", "buffers": "buffers.json", "manual_pois": "manual_pois.json"}
    config["feed_format"] = feed.rsplit(".", 1)[1]
    (work / "config.json").write_text(json.dumps(config, indent=1))


def mutate(data: bytes, kind: str, at: int, byte: int) -> bytes:
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ byte]) + data[at + 1:]
    if kind == "delete":
        return data[:at] + data[at + 1:]
    if kind == "insert":
        return data[:at] + bytes([byte]) + data[at:]
    return data[:at]  # truncate


def copy_inputs(base: Path, work: Path, feed: str) -> Path:
    """Copy every target file from base into work, the artifacts into work/out,
    and write the config reading them with the given feed; returns work/out."""
    shutil.copytree(base / "fixtures", work / "fixtures")
    for name in ("scenario.json", "taxonomy.json", "buffers.json", "manual_pois.json", "plan.json", "truth.json"):
        shutil.copy(base / name, work)
    out = work / "out"
    out.mkdir()
    for name in ARTIFACTS:
        shutil.copy(base / name, out)
    shutil.copy(base / feed, work)
    write_config(work, feed)
    return out


def read_or_reject(work: Path, out: Path, stage: str | None) -> None:
    """Read the config and run stage on it: it succeeds or raises a PipelineError."""
    try:
        cfg, _ = load_config(work / "config.json")
        if stage:
            run_stage(stage, cfg, out)
    except PipelineError:
        pass


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(target=st.sampled_from(sorted(TARGETS)), draw=st.data())
def test_mutated_input_is_read_or_rejected(base, target, draw):
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        work = Path(tmp)
        out = copy_inputs(base, work, "feed.csv" if target == "feed.csv" else "feed.jsonl")
        path = out / target if target in ARTIFACTS else work / target
        data = path.read_bytes()
        for _ in range(draw.draw(st.integers(1, 3), label="edits")):
            if not data:
                break
            kind = draw.draw(st.sampled_from(["flip", "delete", "insert", "truncate"]), label="kind")
            at = draw.draw(st.integers(0, len(data) - 1), label="at")
            data = mutate(data, kind, at, draw.draw(st.integers(1, 255), label="byte"))
        path.write_bytes(data)
        read_or_reject(work, out, TARGETS[target])


# JSON input with numbers -> the stage that reads it; score reads truth.json
VALUE_TARGETS = {name: TARGETS.get(name, "score") for name in (
    "config.json", "scenario.json", "fixtures/places.json", "buffers.json", "manual_pois.json", "pois_raw.json",
    "catalog.json", "truth.json")}


def numeric_leaves(value, path=()) -> list[tuple]:
    """The key paths of the numbers in a JSON value (a bool is not one)."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return [leaf for key, item in items for leaf in numeric_leaves(item, path + (key,))]
    return [path] if type(value) in (int, float) else []


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(target=st.sampled_from(sorted(VALUE_TARGETS)), draw=st.data())
def test_out_of_range_value_is_read_or_rejected(base, target, draw):
    # the new value is the old one negated, 0 or -1: never more scooters, days, cells or queries
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        work = Path(tmp)
        out = copy_inputs(base, work, "feed.jsonl")
        path = out / target if target in ARTIFACTS else work / target
        obj = json.loads(path.read_text())
        *keys, last = draw.draw(st.sampled_from(numeric_leaves(obj)), label="leaf")
        holder = reduce(getitem, keys, obj)
        holder[last] = draw.draw(st.sampled_from([-holder[last], 0, -1]), label="value")
        path.write_text(json.dumps(obj))
        if VALUE_TARGETS[target] != "score":
            read_or_reject(work, out, VALUE_TARGETS[target])
            return
        err = io.StringIO()
        with redirect_stderr(err):
            code = main(["score", "--truth", str(path), "--extracted", str(out / "trips.csv")])
        assert code in (EXIT_OK, EXIT_DATA) and "unexpected error" not in err.getvalue()
