"""tools/compare.py's equivalence gate on hand-made run directories."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location("compare", Path(__file__).resolve().parent.parent / "tools" / "compare.py")
compare = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(compare)


def write_run(out: Path, stages: dict, artifacts: dict[str, str], created_at: str) -> Path:
    """A run directory: the artifacts (name -> text) and a manifest naming their digests."""
    out.mkdir()
    digests = {}
    for name, text in artifacts.items():
        (out / name).write_text(text)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    manifest = {"package": "scootertrips", "status": "ok", "created_at": created_at, "stages": stages,
                "artifacts": digests}
    (out / "manifest.json").write_text(json.dumps(manifest))
    return out


STAGES = {"harvest": {"queries": 4, "raw_pois": 2}, "normalize": {"catalog_size": 2}}
ARTIFACTS = {"trips.csv": "id,start\na,1\nb,2\n", "catalog.json": "{}\n"}


@pytest.fixture
def base(tmp_path):
    return write_run(tmp_path / "base", STAGES, ARTIFACTS, "2019-01-01T00:00:00")


def test_identical_runs_differ_in_nothing(tmp_path, base):
    change = write_run(tmp_path / "change", STAGES, ARTIFACTS, "2019-06-01T00:00:00")  # created_at aside
    assert compare.compare_case(base, change) == {}


def test_changed_stage_entry_is_named_by_stage(tmp_path, base):
    stages = {**STAGES, "harvest": {**STAGES["harvest"], "unrecorded_queries": 3}}
    change = write_run(tmp_path / "change", stages, ARTIFACTS, "2019-01-01T00:00:00")
    assert list(compare.compare_case(base, change)) == ["stages.harvest"]
    assert compare.manifest_entries(json.loads((change / "manifest.json").read_text()))["stages.harvest"] == {
        "queries": 4, "raw_pois": 2, "unrecorded_queries": 3}


def test_changed_artifact_gives_its_first_differing_line(tmp_path, base):
    change = write_run(tmp_path / "change", STAGES, {**ARTIFACTS, "trips.csv": "id,start\na,1\nb,3\n"},
                       "2019-01-01T00:00:00")
    assert compare.compare_case(base, change) == {"trips.csv": "line 3: b'b,2\\n' != b'b,3\\n'"}


def test_artifact_in_one_run_only(tmp_path, base):
    change = write_run(tmp_path / "change", STAGES, {**ARTIFACTS, "extra.csv": "x\n"}, "2019-01-01T00:00:00")
    assert compare.compare_case(base, change) == {"extra.csv": "only in change"}


def test_timing_prints_median_paired_run_time_ratio_and_peak_rss_change(capsys):
    pairs = [{"first": first, "base": {"run_s": 2.0, "peak_rss_mb": 100.0}, "change": change}
             for first, change in (("base", {"run_s": 1.0, "peak_rss_mb": 95.0}),
                                   ("change", {"run_s": 1.5, "peak_rss_mb": 98.0}),
                                   ("base", {"run_s": 3.0, "peak_rss_mb": 101.0}))]
    compare.print_timing(pairs)
    last = capsys.readouterr().out.splitlines()[-1]
    assert "median 0.750 (change faster in 2/3)" in last
    assert "peak_rss_mb paired change: median -2.0% (change smaller in 2/3)" in last


def test_expected_change_is_scoped_to_its_case():
    expect = ["stages.normalize", "poi-dense:catalog.json"]
    assert compare.is_expected("demo", "stages.normalize", expect)  # a bare name holds in every case
    assert compare.is_expected("poi-dense", "stages.normalize", expect)
    assert compare.is_expected("poi-dense", "catalog.json", expect)
    assert not compare.is_expected("demo", "catalog.json", expect)
    assert not compare.is_expected("fleet-14d", "trips.csv", expect)


def test_record_differences_count_lines_and_json_records(tmp_path):
    (tmp_path / "a.csv").write_text("id,start\na,1\nb,2\nc,3\n")
    (tmp_path / "b.csv").write_text("id,start\na,1\nb,9\nc,3\nd,4\n")
    assert compare.record_differences(tmp_path / "a.csv", tmp_path / "b.csv") == (
        "lines differing at the same position: 1 (base has 4, change 5)")
    (tmp_path / "a.json").write_text(json.dumps([{"id": "p0", "lat": 1.0}, {"id": "p1", "lat": 2.0}], indent=1))
    (tmp_path / "b.json").write_text(json.dumps([{"id": "p0", "lat": 1.5}, {"id": "p1", "lat": 2.5}], indent=1))
    assert compare.record_differences(tmp_path / "a.json", tmp_path / "b.json") == (
        "records differing at the same position: 2 (base has 2, change 2)")
    # an object root: one record per key, and one per item of a list value
    (tmp_path / "c.json").write_text(json.dumps({"cadence_s": 600, "trips": [1, 2, 3]}))
    (tmp_path / "d.json").write_text(json.dumps({"cadence_s": 600, "trips": [1, 5, 3, 4]}))
    assert compare.records(tmp_path / "c.json") == [("cadence_s", 600), ("trips", 1), ("trips", 2), ("trips", 3)]
    assert compare.record_differences(tmp_path / "c.json", tmp_path / "d.json") == (
        "records differing at the same position: 1 (base has 4, change 5)")


def test_dst_case_is_the_demo_starting_before_the_march_change(tmp_path):
    demo = Path(compare.ROOT) / "demo"
    config = compare.dst_config(compare.ROOT, tmp_path / "dst")
    assert config.read_bytes() == (demo / "config.json").read_bytes()  # the same config hash as the demo's
    scenario = json.loads((config.parent / "scenario.json").read_text())
    assert scenario == {**json.loads((demo / "scenario.json").read_text()), "start_date": "2019-03-09"}
    assert sorted(p.name for p in (config.parent / "fixtures").iterdir()) == sorted(
        p.name for p in (demo / "fixtures").iterdir())


FAKE_CLI = """
import json, sys
from pathlib import Path
args = sys.argv[1:]  # --log-level LEVEL COMMAND ...
command, out = args[2], Path(args[args.index("--out-dir") + 1])
out.mkdir(parents=True, exist_ok=True)
(out / f"{command}.txt").write_text(f"{command} {VERSION}")
if "--raw-out" in args:
    Path(args[args.index("--raw-out") + 1]).write_text("raw")
print(json.dumps({command: {"version": VERSION}}))
"""


def fake_tree(root: Path, version: int) -> Path:
    """A tree whose scootertrips.cli writes <command>.txt into --out-dir (and
    the --raw-out file) and prints {command: {"version": version}}."""
    package = root / "src" / "scootertrips"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(f"VERSION = {version}\n{FAKE_CLI}")
    return root


def test_stage_chain_case_compares_printed_entries_and_written_files(tmp_path):
    config = tmp_path / "config.json"
    outs = tmp_path / "base-out", tmp_path / "change-out"
    timing = compare.run_stages(fake_tree(tmp_path / "base", 1), config, outs[0])
    assert timing.keys() == {"run_s", "peak_rss_mb"}
    manifest = json.loads((outs[0] / "manifest.json").read_text())
    assert list(manifest["stages"]) == list(compare.STAGES)
    assert sorted(manifest["artifacts"]) == sorted([f"{s}.txt" for s in compare.STAGES] + ["raw_trips.csv"])

    compare.run_stages(fake_tree(tmp_path / "same", 1), config, outs[1])
    assert compare.compare_case(*outs) == {}
    compare.run_stages(fake_tree(tmp_path / "change", 2), config, outs[1])
    assert compare.compare_case(*outs).keys() == {f"stages.{s}" for s in compare.STAGES} | {
        f"{s}.txt" for s in compare.STAGES}
