import csv
import hashlib
import importlib.util
import json
import re
import shutil
from pathlib import Path

import pytest

from scootertrips.cli import EXIT_BUDGET, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from scootertrips.config import InputPaths, PipelineConfig, load_config
from scootertrips.errors import BudgetExhausted, InvalidConfig
from scootertrips.geo import make_grid
from scootertrips.pipeline import harvest_pois
from scootertrips.poi.catalog import load_raw_pois
from scootertrips.poi.client import canonical_query

REPO = Path(__file__).resolve().parent.parent
DEMO = REPO / "demo"
DATA = REPO / "src" / "scootertrips" / "data"
STAGES = ("simulate", "extract", "harvest", "normalize", "associate", "sensitivity", "report")


def write_scenario(tmp_path, **overrides) -> Path:
    payload = {
        "rng_seed": 77,
        "fleet_size": 8,
        "days": 1,
        "start_date": "2019-02-04",
        "trip_rates": {"lunch": 1.0, "afternoon": 1.0},
    }
    payload.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    return path


def write_config(tmp_path, paths=None, **overrides) -> Path:
    """The demo config with absolute paths (or the given ones) and overrides."""
    config = json.loads((DEMO / "config.json").read_text())
    config["paths"] = paths or {key: str(DEMO / path) for key, path in config["paths"].items()}
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def stage(name: str, config: Path, out: Path, *extra: str) -> int:
    return main([name, "--config", str(config), "--out-dir", str(out), *extra])


def test_usage_error_exit_code():
    assert main(["extract", "--config"]) == EXIT_USAGE


def test_unknown_command_exit_code():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_missing_file_is_data_error(tmp_path):
    config = write_config(tmp_path, paths={"feed": str(tmp_path / "nope.jsonl")})
    assert stage("extract", config, tmp_path / "out") == EXIT_DATA


def test_lone_surrogate_id_is_a_malformed_record(tmp_path, capsys, caplog):
    # the escape is valid UTF-8 text, but the id it decodes to cannot be written to trips.csv
    feed = tmp_path / "feed.jsonl"
    feed.write_text("".join(
        '{"ts": "2019-02-04T17:%02d:00Z", "scooters": [{"id": "a\\udcff", "lat": %s, "lon": -84.39}]}\n' % (m, lat)
        for m, lat in ((0, 33.77), (10, 33.78))))
    config = write_config(tmp_path, paths={"feed": str(feed)})
    assert stage("extract", config, tmp_path / "out", "--raw-out", str(tmp_path / "raw.csv")) == EXIT_DATA
    err = capsys.readouterr().err
    assert "malformed record at line 1" in err and "an id holding a lone surrogate escape" in err
    assert "unexpected error" not in err and "Traceback" not in caplog.text


def test_simulate_extract_score_round_trip(tmp_path, capsys):
    config = write_config(tmp_path, paths={"scenario": str(write_scenario(tmp_path))})
    out = tmp_path / "out"
    assert stage("simulate", config, out) == EXIT_OK
    capsys.readouterr()

    raw = tmp_path / "raw.csv"
    assert stage("extract", config, out, "--raw-out", str(raw)) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"]["input_count"] >= payload["clean"]["kept"]
    assert payload["ingest"]["retained"] > 0

    score_out = tmp_path / "score.json"
    assert main(["score", "--truth", str(out / "truth.json"), "--extracted", str(raw), "--out", str(score_out)]) == EXIT_OK
    score = json.loads(score_out.read_text())
    assert score["recall"] == 1.0


def test_harvest_budget_exhausted_exit_code(tmp_path):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    (fixtures / "empty.json").write_text("{}")
    config = write_config(tmp_path, paths={"fixtures_dir": str(fixtures)}, query_budget=5)
    out = tmp_path / "out"
    assert stage("harvest", config, out) == EXIT_BUDGET
    # partial results were still written
    assert (out / "pois_raw.json").exists()


def test_harvest_densify_budget_exhausted_keeps_base_pass(tmp_path):
    cfg = PipelineConfig(paths=InputPaths(fixtures_dir=str(DEMO / "fixtures")), query_budget=1100, densify=True)
    result = harvest_pois(cfg, tmp_path)
    assert isinstance(result.error, BudgetExhausted)
    assert result.stages == {"harvest": {"raw_pois": 38, "budget_used": 1100}}
    assert len(load_raw_pois(tmp_path / "pois_raw.json")) == 38  # the base pass; densify spent the rest


def two_cell_harvest(tmp_path, second_cell: dict | None) -> Path:
    """A config harvesting one nearby 'bar' query on each cell of a 2x1 grid
    over the demo bbox, with one recorded 'bar' result in the first cell and
    the given recorded response, or none, in the second."""
    first, second = make_grid(PipelineConfig().bbox, 2, 1).cells
    bar = {"place_id": "b0", "name": "b0", "types": ["bar"], "vicinity": "1 Main St",
           "geometry": {"location": {"lat": first.center.lat, "lng": first.center.lon}}}
    responses = {canonical_query("nearby", first.center, first.circumradius_m, "bar"): {"status": "OK", "results": [bar]}}
    if second_cell is not None:
        responses[canonical_query("nearby", second.center, second.circumradius_m, "bar")] = second_cell
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    (fixtures / "responses.json").write_text(json.dumps(responses))
    (tmp_path / "plan.json").write_text(json.dumps({"queries": [{"kind": "nearby", "term": "bar"}]}))
    return write_config(tmp_path, paths={"fixtures_dir": str(fixtures), "plan": str(tmp_path / "plan.json")},
                        harvest_rows=2, harvest_cols=1, densify=False)


def test_harvest_reports_unrecorded_queries(tmp_path, capsys):
    config = two_cell_harvest(tmp_path, None)
    assert stage("harvest", config, tmp_path / "out") == EXIT_OK
    stats = json.loads(capsys.readouterr().out)["harvest"]
    assert stats["queries"] == 2 and stats["unrecorded_queries"] == 1 and stats["raw_pois"] == 1


def test_harvest_malformed_fixture_result_is_a_data_error(tmp_path, capsys, caplog):
    config = two_cell_harvest(tmp_path, {"status": "OK", "results": [{"place_id": "b1", "geometry": {}}]})
    out = tmp_path / "out"
    assert stage("harvest", config, out) == EXIT_DATA
    err = capsys.readouterr().err
    assert "unexpected error" not in err and "Traceback" not in caplog.text
    assert "nearby|" in err and "geometry.location" in err
    assert [p.place_id for p in load_raw_pois(out / "pois_raw.json")] == ["b0"]  # the first query's POI


def test_harvest_normalize_associate_sensitivity_report(tmp_path):
    scenario = write_scenario(tmp_path, anchors=[[33.7570, -84.3960], [33.7610, -84.3880], [33.7700, -84.3840]])
    config = write_config(
        tmp_path,
        paths={"scenario": str(scenario), "fixtures_dir": str(DEMO / "fixtures")},
        densify=False,
        query_budget=5000,
        drilldowns=["Food:Food"],
    )
    out = tmp_path / "out"
    for name in STAGES:
        assert stage(name, config, out) == EXIT_OK, name

    assert (out / "sensitivity_destination.csv").read_text().startswith("endpoint,group,threshold_m,count,percent")
    assert (out / "matrix_overall.csv").exists()
    assert (out / "matrix_slot_morning.csv").exists()
    assert (out / "matrix_weekend.csv").exists()
    assert (out / "drill_Food_Food.csv").exists()


def test_run_pipeline_and_rerun_stage_identical(tmp_path):
    out = tmp_path / "out"
    config = DEMO / "config.json"
    assert main(["run", "--config", str(config), "--out-dir", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    stages = manifest["stages"]
    clean = stages["clean"]
    assert clean["input_count"] - clean["removed_hours"] - clean["removed_distance"] == clean["kept"]
    assert stages["associate"]["within_cutoff"] <= clean["kept"]
    assert stages["report"]["matrix_total"] == stages["associate"]["within_cutoff"]

    # rerunning a later stage over unchanged upstream artifacts is reproducible
    assoc1 = (out / "assoc.csv").read_bytes()
    (out / "assoc.csv").unlink()
    assert stage("associate", config, out) == EXIT_OK
    assert (out / "assoc.csv").read_bytes() == assoc1


def test_run_with_existing_feed(tmp_path):
    scenario = write_scenario(tmp_path, anchors=[[33.7570, -84.3960], [33.7610, -84.3880], [33.7700, -84.3840]])
    sim = tmp_path / "sim"
    sim.mkdir()
    assert stage("simulate", write_config(sim, paths={"scenario": str(scenario)}), sim) == EXIT_OK
    config = {
        "version": 1,
        "paths": {"feed": str(sim / "feed.jsonl"), "fixtures_dir": str(DEMO / "fixtures")},
        "query_budget": 5000,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert "simulate" not in manifest["stages"]
    assert manifest["stages"]["extract"]["raw_trips"] > 0


def test_run_missing_fixtures_dir_fails_with_stage(tmp_path):
    scenario = write_scenario(tmp_path)
    config = {
        "version": 1,
        "paths": {"scenario": scenario.name},
        "query_budget": 100,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_DATA
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "FAILED"
    assert manifest["failed_stage"] == "harvest"


def test_failed_run_accounts_for_its_partial_harvest(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, query_budget=5)), "--out-dir", str(out)]) == EXIT_BUDGET
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "FAILED" and manifest["failed_stage"] == "harvest"
    raw = out / "pois_raw.json"
    assert manifest["artifacts"]["pois_raw.json"] == hashlib.sha256(raw.read_bytes()).hexdigest()
    assert manifest["stages"]["harvest"] == {"raw_pois": len(load_raw_pois(raw)), "budget_used": 5}
    assert {"extract", "clean"} <= manifest["stages"].keys() and "normalize" not in manifest["stages"]


def assert_chain_reproduces_run(config: Path, tmp_path: Path, capsys) -> dict:
    """Run the config, then each stage subcommand in order into a second
    directory; every artifact and every stage's manifest entries must agree.
    Returns run's manifest stages."""
    run_dir, chain_dir = tmp_path / "run", tmp_path / "chain"
    assert main(["run", "--config", str(config), "--out-dir", str(run_dir)]) == EXIT_OK
    manifest = json.loads((run_dir / "manifest.json").read_text())
    capsys.readouterr()

    printed = {}
    for name in STAGES:
        assert stage(name, config, chain_dir) == EXIT_OK, name
        entries = json.loads(capsys.readouterr().out)
        assert entries == {key: manifest["stages"][key] for key in entries}, name
        printed.update(entries)
    assert printed == manifest["stages"]

    assert len(manifest["artifacts"]) == 21
    for name in manifest["artifacts"]:
        assert (chain_dir / name).read_bytes() == (run_dir / name).read_bytes(), name
    return manifest["stages"]


def test_documented_chain_reproduces_run(tmp_path, capsys):
    assert_chain_reproduces_run(DEMO / "config.json", tmp_path, capsys)


def test_chain_reproduces_run_that_crops(tmp_path, capsys):
    # one more fleet anchor ~300 m south of the config's region: the crop removes its trips
    scenario = json.loads((DEMO / "scenario.json").read_text())
    scenario["anchors"].append([33.7455, -84.3900])
    (tmp_path / "scenario.json").write_text(json.dumps(scenario))
    config = write_config(tmp_path, paths={"scenario": str(tmp_path / "scenario.json"),
                                           "fixtures_dir": str(DEMO / "fixtures")})
    stages = assert_chain_reproduces_run(config, tmp_path, capsys)
    assert stages["crop"]["removed_outside_region"] >= 1


def chicago_scenario(tmp_path) -> Path:
    """The demo scenario simulated on Chicago wall clock."""
    scenario = json.loads((DEMO / "scenario.json").read_text())
    scenario["timezone"] = "America/Chicago"
    path = tmp_path / "scenario_chicago.json"
    path.write_text(json.dumps(scenario))
    return path


def test_chain_reproduces_run_in_another_timezone(tmp_path, capsys):
    paths = {"scenario": str(chicago_scenario(tmp_path)), "fixtures_dir": str(DEMO / "fixtures")}
    config = write_config(tmp_path, paths=paths, timezone="America/Chicago")
    stages = assert_chain_reproduces_run(config, tmp_path, capsys)
    assert stages["clean"]["kept"] > 0


def test_scenario_in_another_timezone_is_rejected(tmp_path, capsys):
    config = write_config(tmp_path, timezone="America/Chicago")  # demo scenario: America/New_York
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out-dir", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "unexpected error" not in err
    assert "America/New_York" in err and "America/Chicago" in err
    assert not (out / "feed.jsonl").exists()


def test_config_rejects_a_second_timezone(tmp_path):
    path = tmp_path / "config.json"
    for zone in ("America/New_York", "America/Chicago"):  # timezone is the one zone, equal or not
        path.write_text(json.dumps({"timezone": "America/Chicago", "cleaning": {"timezone": zone}}))
        with pytest.raises(InvalidConfig, match=re.escape("unknown keys ['cleaning.timezone']")):
            load_config(path)


def scenario_with(**values):
    """Overrides naming a test scenario with values set."""
    return lambda tmp_path: {"paths": {"scenario": str(write_scenario(tmp_path, **values))}}


def data_file(name: str, edit):
    """Overrides naming, besides the demo inputs, a copy of the bundled data
    file name with edit applied (or edit's text)."""
    def overrides(tmp_path):
        path = tmp_path / name
        if isinstance(edit, str):
            path.write_text(edit)
        else:
            obj = json.loads((DATA / name).read_text())
            edit(obj)
            path.write_text(json.dumps(obj))
        paths = {k: str(DEMO / v) for k, v in json.loads((DEMO / "config.json").read_text())["paths"].items()}
        return {"paths": {**paths, name.removesuffix(".json"): str(path)}}
    return overrides


@pytest.mark.parametrize("overrides, key, unwritten", [
    ({"bbox": "a,b,c,d"}, "bbox", "feed.jsonl"),
    ({"bbox": {"min_lat": 33.7, "max_lat": 33.8, "max_lon": -84.3}}, "bbox", "feed.jsonl"),
    ({"thresholds": "a:b:c"}, "thresholds", "feed.jsonl"),
    ({"cleaning": {"day_start": "7am"}}, "cleaning.day_start", "feed.jsonl"),
    ({"cleaning": {"day_start": "06:30"}}, "config.json: cleaning.day_start", "feed.jsonl"),
    ({"cleaning": {"day_end": "22:00"}}, "config.json: cleaning.day_end", "feed.jsonl"),
    (scenario_with(fleet=8), "fleet", "feed.jsonl"),
    ({"timezone": "Mars/Base"}, "Mars/Base", "feed.jsonl"),
    (scenario_with(speed_min_mps=3.0), "unknown keys ['speed_min_mps']", "feed.jsonl"),
    (scenario_with(speed_max_mps=3.0), "unknown keys ['speed_max_mps']", "feed.jsonl"),
    ({"version": "1"}, "config.json: unsupported version '1'; it must be the integer 1", "feed.jsonl"),
    (scenario_with(rng_seed=-1), "scenario.json: rng_seed -1 must be >= 0", "feed.jsonl"),
    (scenario_with(anchor_jitter_m=-5.0), "scenario.json: anchor_jitter_m -5.0 must be >= 0", "feed.jsonl"),
    (scenario_with(position_jitter_m=-3.0), "scenario.json: position_jitter_m -3.0 must be >= 0", "feed.jsonl"),
    (scenario_with(trip_rates={"lunch": 1.0, "evening": -0.5}), "scenario.json: trip_rates {'evening': -0.5}",
     "feed.jsonl"),
    (scenario_with(anchors=[[33.757, -84.396], [95.0, -84.388]]), "scenario.json: anchors [(95.0, -84.388)]",
     "feed.jsonl"),
    (data_file("buffers.json", lambda b: b["specs"][0].update(radius_m=-90)),
     "buffers.json: specs[0]: a buffer ring needs radius_m >= 0, got -90", "catalog.json"),
    (data_file("buffers.json", lambda b: b["specs"][3]["ring2"].update(radius_m=-290)),
     "buffers.json: specs[3].ring2: a buffer ring needs radius_m >= 0, got -290", "catalog.json"),
    (data_file("manual_pois.json", lambda m: m["entries"][1].update(lat=95.0)),
     "manual_pois.json: entries[1]: lat/lon (95.0, -84.3852) is not a point on the globe", "catalog.json"),
    (data_file("plan.json", lambda p: p.update(queries=[])), "plan.json: queries must hold at least one query",
     "pois_raw.json"),
], ids=["bbox-text", "bbox-object", "thresholds", "cleaning-time", "day-start-before-slots", "day-end-after-slots",
        "scenario-key", "timezone", "scenario-speed-min", "scenario-speed-max", "version-text",
        "scenario-negative-seed", "scenario-negative-anchor-jitter", "scenario-negative-position-jitter",
        "scenario-negative-trip-rate", "scenario-anchor-off-globe", "buffer-negative-radius",
        "buffer-ring2-negative-radius", "manual-poi-off-globe", "plan-empty"])
def test_config_errors_exit_cleanly(tmp_path, capsys, overrides, key, unwritten):
    if callable(overrides):
        overrides = overrides(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, **overrides)), "--out-dir", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "unexpected error" not in err
    assert key in err
    assert not (out / unwritten).exists()  # rejected before the stage that reads the bad value wrote anything


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo") / "run"
    assert main(["run", "--config", str(DEMO / "config.json"), "--out-dir", str(out)]) == EXIT_OK
    return out


def test_demo_fixtures_record_every_demo_query(demo_run):
    spec = importlib.util.spec_from_file_location("make_demo_fixtures", REPO / "tools" / "make_demo_fixtures.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.demo_responses() == json.loads((DEMO / "fixtures" / "places.json").read_text())
    harvest = json.loads((demo_run / "manifest.json").read_text())["stages"]["harvest"]
    assert harvest["unrecorded_queries"] == 0 and harvest["budget_used"] == 1304


def rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        records = list(csv.reader(fh))
    edit(records)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(records)


def rewrite_json(path: Path, edit) -> None:
    records = json.loads(path.read_text())
    edit(records)
    path.write_text(json.dumps(records))


def rename_header(records):
    records[0][5] = "start"


def drop_field(records):
    del records[3][-1]


def bad_float(records):
    records[2][1] = "north"


def bad_bool(records):
    records[4][-1] = "yes"


def drop_key(records):
    del records[1]["vicinity"]


def add_key(records):
    records[2]["rating"] = 4.5


def text_lat(records):
    records[3]["lat"] = "north"


@pytest.mark.parametrize("artifact, edit, name, words", [
    ("trips.csv", rename_header, "associate", ["line 1", "'start'", "'start_ts'"]),
    ("trips.csv", drop_field, "associate", ["line 4", "7 fields, expected 8"]),
    ("trips.csv", bad_float, "associate", ["line 3", "origin_lat 'north'"]),
    ("assoc.csv", bad_bool, "sensitivity", ["line 5", "origin_reassigned 'yes'"]),
    ("pois_raw.json", drop_key, "normalize", ["record 1", "missing keys ['vicinity']"]),
    ("catalog.json", add_key, "associate", ["record 2", "unknown keys ['rating']"]),
    ("catalog.json", text_lat, "sensitivity", ["record 3", "lat/lon", "'north'"]),
    ("pois_raw.json", "[{", "normalize", ["pois_raw.json is not JSON", "line 1"]),
], ids=["header", "field-count", "float", "bool", "poi-missing-key", "poi-extra-key", "poi-text-lat", "poi-not-json"])
def test_bad_artifact_is_a_data_error(demo_run, tmp_path, capsys, caplog, artifact, edit, name, words):
    out = tmp_path / "out"
    shutil.copytree(demo_run, out)
    if isinstance(edit, str):
        (out / artifact).write_text(edit)
    else:
        (rewrite_json if artifact.endswith(".json") else rewrite_csv)(out / artifact, edit)
    assert stage(name, DEMO / "config.json", out) == EXIT_DATA
    err = capsys.readouterr().err
    assert "unexpected error" not in err and "Traceback" not in caplog.text
    for word in words:
        assert word in err


def test_score_needs_a_trips_csv(demo_run, capsys, caplog):
    code = main(["score", "--truth", str(demo_run / "truth.json"), "--extracted", str(demo_run / "assoc.csv")])
    assert code == EXIT_DATA
    assert "header column 9 is 'origin_poi'" in capsys.readouterr().err and "Traceback" not in caplog.text


def bad_data_file(name: str, edit):
    """The bundled data file name with edit applied (or replaced by edit's
    text), read by the stage that reads it."""
    def setup(tmp_path, out):
        config = write_config(tmp_path, **data_file(name, edit)(tmp_path))
        stage_name = "harvest" if name == "plan.json" else "normalize"
        return [stage_name, "--config", str(config), "--out-dir", str(out)]
    return setup


def bad_config(edit=None, **overrides):
    def setup(tmp_path, out):
        config = write_config(tmp_path, **overrides)
        if edit:
            config.write_bytes(edit(config.read_bytes()))
        return ["run", "--config", str(config), "--out-dir", str(out)]
    return setup


def bad_catalog(edit):
    def setup(tmp_path, out):
        rewrite_json(out / "catalog.json", edit)
        return ["associate", "--config", str(DEMO / "config.json"), "--out-dir", str(out)]
    return setup


def bad_truth(edit):
    def setup(tmp_path, out):
        rewrite_json(out / "truth.json", edit)
        return ["score", "--truth", str(out / "truth.json"), "--extracted", str(out / "trips.csv")]
    return setup


@pytest.mark.parametrize("setup, words", [
    (bad_data_file("taxonomy.json", lambda t: t.pop("groups")), ["taxonomy.json", "missing keys ['groups']"]),
    (bad_data_file("taxonomy.json", lambda t: t.update(groups=5)), ["taxonomy.json", "groups 5 is not a list"]),
    (bad_data_file("taxonomy.json", "{groups"), ["taxonomy.json is not JSON", "line 1"]),
    (bad_data_file("buffers.json", lambda b: b["specs"][1].update(count="x")), ["buffers.json", "specs[1].count 'x'"]),
    (bad_data_file("buffers.json", lambda b: b.pop("specs")), ["buffers.json: the root is not an object of specs"]),
    (bad_data_file("manual_pois.json", lambda m: m["entries"][2].pop("lat")), ["manual_pois.json", "entries[2].lat"]),
    (bad_data_file("plan.json", lambda p: p["queries"][3].pop("term")), ["plan.json", "queries[3].term"]),
    (bad_config(lambda text: text.replace(b'"cutoff_m"', b'"cutoff\xff_m"')), ["config.json is not JSON", "0xff"]),
    (bad_truth(lambda truth: truth.pop("trips")), ["truth.json", "missing keys ['trips']"]),
    (bad_catalog(lambda records: records[3].update(predefined_types=5)), ["catalog.json record 3", "predefined_types 5"]),
    (bad_config(cutof_m=5), ["config.json", "unknown keys ['cutof_m']"]),
    (bad_config(densify="false"), ["config.json", "densify 'false'"]),
    (bad_config(harvest_rows=2.5), ["config.json", "harvest_rows 2.5"]),
    (bad_config(cutoff_m=True), ["config.json", "cutoff_m True"]),
    (bad_config(cleaning={"day_strat": "07:00"}), ["config.json", "unknown keys ['cleaning.day_strat']"]),
    (bad_catalog(lambda records: records[2].update(name=7)), ["catalog.json record 2", "name 7"]),
    (bad_truth(lambda truth: truth.update(cadence_s=0)), ["truth.json: cadence_s 0 must be positive"]),
    (bad_truth(lambda truth: truth.update(cadence_s=-600)), ["truth.json: cadence_s -600 must be positive"]),
    (bad_truth(lambda truth: truth.update(timezone="Mars/Base")),
     ["truth.json: timezone 'Mars/Base' is not a known IANA time zone"]),
    (bad_catalog(lambda records: records[0].update(lat=95.0)),
     ["catalog.json record 0: lat/lon (95.0, ", "is not a point on the globe"]),
], ids=["taxonomy-no-groups", "taxonomy-groups-number", "taxonomy-not-json", "buffer-count-text", "buffers-no-specs",
        "manual-no-lat", "plan-no-term", "config-not-utf8", "truth-no-trips", "catalog-types-number",
        "config-unknown-key", "config-densify-text", "config-rows-fraction", "config-cutoff-bool",
        "config-cleaning-unknown-key", "catalog-name-number", "truth-cadence-zero", "truth-cadence-negative",
        "truth-zone-unknown", "catalog-lat-off-globe"])
def test_bad_input_file_is_a_data_error(demo_run, tmp_path, capsys, caplog, setup, words):
    out = tmp_path / "out"
    shutil.copytree(demo_run, out)
    assert main(setup(tmp_path, out)) == EXIT_DATA
    err = capsys.readouterr().err
    assert "unexpected error" not in err and "Traceback" not in caplog.text
    for word in words:
        assert word in err


def test_config_keys_outside_the_schema(tmp_path):
    for overrides, words in [({"notes": "x"}, "unknown keys ['notes']"), ({"feed": "x.jsonl"}, "unknown keys ['feed']"),
                             ({"ingest_bbox": True}, "unknown keys ['ingest_bbox']"),
                             ({"paths": {"feeed": "x.jsonl"}}, "unknown keys ['paths.feeed']")]:
        with pytest.raises(InvalidConfig, match=re.escape(words)):
            load_config(write_config(tmp_path, **overrides))


@pytest.mark.parametrize("spec", ["Business", "Busines:Nothing"])
def test_report_rejects_bad_drill_spec(demo_run, tmp_path, capsys, caplog, spec):
    out = tmp_path / "out"
    out.mkdir()
    for name in ("assoc_within_cutoff.csv", "catalog.json"):
        shutil.copy(demo_run / name, out / name)
    config = write_config(tmp_path, drilldowns=["Business:Business", spec])
    assert stage("report", config, out) == EXIT_DATA
    # a spec of the wrong form is rejected as the config is read, one off the taxonomy by the report
    where = "" if ":" in spec else f"config {config}: "
    assert capsys.readouterr().err.startswith(f"error: {where}drilldown {spec!r}")
    assert "Traceback" not in caplog.text
    # checked before anything is written
    assert sorted(p.name for p in out.iterdir()) == ["assoc_within_cutoff.csv", "catalog.json"]


@pytest.mark.parametrize("spec, failed_stage", [("Business", None), ("Busines:Nothing", "report")])
def test_run_rejects_bad_drill_spec(tmp_path, capsys, caplog, spec, failed_stage):
    path = write_config(tmp_path, drilldowns=[spec])
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == EXIT_DATA
    assert f"drilldown {spec!r}" in capsys.readouterr().err
    assert "Traceback" not in caplog.text
    if failed_stage is None:  # rejected with the config, before any stage
        assert not out.exists()
    else:
        assert json.loads((out / "manifest.json").read_text())["failed_stage"] == failed_stage
        assert not list(out.glob("drill_*.csv"))
