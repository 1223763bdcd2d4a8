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
