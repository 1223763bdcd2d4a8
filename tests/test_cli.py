import json
from pathlib import Path

import pytest

from scootertrips.cli import EXIT_BUDGET, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from scootertrips.config import load_config
from scootertrips.errors import InvalidConfig
from scootertrips.poi import load_raw_pois

REPO = Path(__file__).resolve().parent.parent
DEMO = REPO / "demo"


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


def test_usage_error_exit_code():
    assert main(["extract", "--input"]) == EXIT_USAGE


def test_unknown_command_exit_code():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_missing_file_is_data_error(tmp_path):
    assert main(["extract", "--input", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "t.csv")]) == EXIT_DATA


def test_simulate_extract_score_round_trip(tmp_path):
    scenario = write_scenario(tmp_path)
    feed = tmp_path / "feed.jsonl"
    truth = tmp_path / "truth.json"
    assert main(["simulate", "--config", str(scenario), "--out", str(feed), "--truth", str(truth)]) == EXIT_OK

    trips = tmp_path / "trips.csv"
    raw = tmp_path / "raw.csv"
    report = tmp_path / "report.json"
    assert main([
        "extract", "--input", str(feed), "--out", str(trips), "--raw-out", str(raw), "--report", str(report),
    ]) == EXIT_OK
    payload = json.loads(report.read_text())
    assert payload["cleaning"]["input_count"] >= payload["cleaning"]["kept"]

    score_out = tmp_path / "score.json"
    assert main(["score", "--truth", str(truth), "--extracted", str(raw), "--out", str(score_out)]) == EXIT_OK
    score = json.loads(score_out.read_text())
    assert score["recall"] == 1.0


def test_ingest_stats_and_bbox(tmp_path):
    scenario = write_scenario(tmp_path)
    feed = tmp_path / "feed.jsonl"
    truth = tmp_path / "truth.json"
    main(["simulate", "--config", str(scenario), "--out", str(feed), "--truth", str(truth)])
    stats_path = tmp_path / "stats.json"
    out_feed = tmp_path / "filtered.jsonl"
    code = main([
        "ingest", "--input", str(feed),
        "--bbox", "33.748379,-84.405623,33.789279,-84.359615",
        "--out", str(out_feed), "--stats-out", str(stats_path),
    ])
    assert code == EXIT_OK
    stats = json.loads(stats_path.read_text())
    assert stats["retained"] > 0
    assert out_feed.exists()


def test_harvest_budget_exhausted_exit_code(tmp_path):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    (fixtures / "empty.json").write_text("{}")
    code = main([
        "harvest", "--grid", "8x8", "--budget", "5", "--fixtures", str(fixtures),
        "--out", str(tmp_path / "pois.json"),
    ])
    assert code == EXIT_BUDGET
    # partial results were still written
    assert (tmp_path / "pois.json").exists()


def test_harvest_densify_budget_exhausted_keeps_base_pass(tmp_path):
    pois = tmp_path / "pois.json"
    report = tmp_path / "report.json"
    code = main([
        "harvest", "--grid", "8x8", "--plan", str(DEMO / "plan.json"), "--budget", "1100", "--densify",
        "--fixtures", str(DEMO / "fixtures"), "--out", str(pois), "--report", str(report),
    ])
    assert code == EXIT_BUDGET
    assert len(load_raw_pois(pois)) == 38
    assert len(json.loads(report.read_text())["harvests"]) == 2


def test_harvest_normalize_associate_sensitivity_report(tmp_path):
    scenario = write_scenario(tmp_path, anchors=[[33.7570, -84.3960], [33.7610, -84.3880], [33.7700, -84.3840]])
    feed = tmp_path / "feed.jsonl"
    truth = tmp_path / "truth.json"
    main(["simulate", "--config", str(scenario), "--out", str(feed), "--truth", str(truth)])
    trips = tmp_path / "trips.csv"
    main(["extract", "--input", str(feed), "--out", str(trips)])

    pois = tmp_path / "pois.json"
    assert main([
        "harvest", "--grid", "8x8", "--plan", str(DEMO / "plan.json"), "--budget", "5000",
        "--fixtures", str(DEMO / "fixtures"), "--out", str(pois),
    ]) == EXIT_OK

    catalog = tmp_path / "catalog.json"
    assert main(["normalize", "--in", str(pois), "--out", str(catalog)]) == EXIT_OK

    assoc = tmp_path / "assoc.csv"
    assert main(["associate", "--trips", str(trips), "--catalog", str(catalog), "--out", str(assoc)]) == EXIT_OK

    sens = tmp_path / "sens.csv"
    assert main([
        "sensitivity", "--assoc", str(assoc), "--catalog", str(catalog),
        "--thresholds", "0:100:5", "--endpoint", "destination", "--out", str(sens),
    ]) == EXIT_OK
    assert sens.read_text().startswith("endpoint,group,threshold_m,count,percent")

    out_dir = tmp_path / "report"
    assert main([
        "report", "--assoc", str(assoc), "--catalog", str(catalog),
        "--drill", "Food:Food", "--out", str(out_dir),
    ]) == EXIT_OK
    assert (out_dir / "matrix_overall.csv").exists()
    assert (out_dir / "matrix_slot_morning.csv").exists()
    assert (out_dir / "matrix_weekend.csv").exists()
    assert (out_dir / "drill_Food_Food.csv").exists()


def test_run_pipeline_and_rerun_stage_identical(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(DEMO / "config.json"), "--out-dir", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    stages = manifest["stages"]
    clean = stages["clean"]
    assert clean["input_count"] - clean["removed_hours"] - clean["removed_distance"] == clean["kept"]
    assert stages["associate"]["within_cutoff"] <= clean["kept"]
    assert stages["report"]["matrix_total"] == stages["associate"]["within_cutoff"]

    # rerunning a later stage over unchanged upstream artifacts is reproducible
    assoc1 = (out / "assoc.csv").read_bytes()
    code = main([
        "associate", "--trips", str(out / "trips.csv"), "--catalog", str(out / "catalog.json"),
        "--out", str(out / "assoc_rerun.csv"),
    ])
    assert code == EXIT_OK
    # the run pipeline crops trips to the region before associating; the
    # stand-alone rerun sees identical row prefix when no trips were cropped
    if stages["crop"]["removed_outside_region"] == 0:
        assert (out / "assoc_rerun.csv").read_bytes() == assoc1


def test_fixtures_env_var_overrides_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("SCOOTER_FIXTURES_DIR", str(DEMO / "fixtures"))
    pois = tmp_path / "pois.json"
    code = main([
        "harvest", "--grid", "4x4", "--plan", str(DEMO / "plan.json"), "--budget", "1000",
        "--fixtures", str(tmp_path / "does-not-exist"), "--out", str(pois),
    ])
    assert code == EXIT_OK
    assert pois.exists()


def test_run_with_existing_feed(tmp_path):
    scenario = write_scenario(tmp_path, anchors=[[33.7570, -84.3960], [33.7610, -84.3880], [33.7700, -84.3840]])
    feed = tmp_path / "feed.jsonl"
    main(["simulate", "--config", str(scenario), "--out", str(feed), "--truth", str(tmp_path / "truth.json")])
    config = {
        "version": 1,
        "paths": {"feed": str(feed), "fixtures_dir": str(DEMO / "fixtures"), "plan": str(DEMO / "plan.json")},
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


def test_documented_chain_reproduces_run(tmp_path):
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(DEMO / "config.json"), "--out-dir", str(run_dir)]) == EXIT_OK
    # run crops trips to the region and the chain has no crop step, so the
    # comparison only means something while the demo crops nothing
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["stages"]["crop"]["removed_outside_region"] == 0

    out = tmp_path / "chain"
    out.mkdir()
    trips, pois, catalog = out / "trips.csv", out / "pois_raw.json", out / "catalog.json"
    assoc, within = out / "assoc.csv", out / "assoc_within_cutoff.csv"
    chain = [
        ["simulate", "--config", str(DEMO / "scenario.json"), "--out", str(out / "feed.jsonl"),
         "--truth", str(out / "truth.json")],
        ["extract", "--input", str(out / "feed.jsonl"), "--out", str(trips)],
        ["harvest", "--grid", "8x8", "--plan", str(DEMO / "plan.json"), "--budget", "20000", "--densify",
         "--fixtures", str(DEMO / "fixtures"), "--out", str(pois)],
        ["normalize", "--in", str(pois), "--out", str(catalog)],
        ["associate", "--trips", str(trips), "--catalog", str(catalog), "--out", str(assoc)],
        ["associate", "--trips", str(trips), "--catalog", str(catalog), "--cutoff", "50", "--out", str(within)],
        ["sensitivity", "--assoc", str(assoc), "--catalog", str(catalog), "--endpoint", "origin",
         "--out", str(out / "sensitivity_origin.csv")],
        ["sensitivity", "--assoc", str(assoc), "--catalog", str(catalog), "--endpoint", "destination",
         "--out", str(out / "sensitivity_destination.csv")],
        ["report", "--assoc", str(within), "--catalog", str(catalog), "--drill", "Business:Business",
         "--drill", "Recreation:Recreation", "--out", str(out)],
    ]
    for argv in chain:
        assert main(argv) == EXIT_OK, argv

    names = ["trips.csv", "pois_raw.json", "catalog.json", "assoc.csv", "assoc_within_cutoff.csv",
             "matrices_long.csv", "sensitivity_origin.csv", "sensitivity_destination.csv",
             "drill_Business_Business.csv", "drill_Recreation_Recreation.csv"]
    matrices = sorted(p.name for p in run_dir.glob("matrix_*.csv"))
    assert len(matrices) == 8
    for name in names + matrices:
        assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_config_rejects_a_second_timezone(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"timezone": "America/Chicago", "cleaning": {"timezone": "America/New_York"}}))
    with pytest.raises(InvalidConfig, match="cleaning.timezone"):
        load_config(path)
    path.write_text(json.dumps({"timezone": "America/Chicago", "cleaning": {"timezone": "America/Chicago"}}))
    assert load_config(path)[0].cleaning.timezone == "America/Chicago"


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo") / "run"
    assert main(["run", "--config", str(DEMO / "config.json"), "--out-dir", str(out)]) == EXIT_OK
    return out


@pytest.mark.parametrize("spec", ["Business", "Busines:Nothing"])
def test_report_rejects_bad_drill_spec(demo_run, tmp_path, capsys, caplog, spec):
    out = tmp_path / "report"
    code = main([
        "report", "--assoc", str(demo_run / "assoc_within_cutoff.csv"), "--catalog", str(demo_run / "catalog.json"),
        "--drill", "Business:Business", "--drill", spec, "--out", str(out),
    ])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"error: drilldown {spec!r}")
    assert "Traceback" not in caplog.text
    assert not out.exists()  # checked before anything is written


@pytest.mark.parametrize("spec, failed_stage", [("Business", None), ("Busines:Nothing", "report")])
def test_run_rejects_bad_drill_spec(tmp_path, capsys, caplog, spec, failed_stage):
    config = json.loads((DEMO / "config.json").read_text())
    config["paths"] = {key: str(DEMO / path) for key, path in config["paths"].items()}
    config["drilldowns"] = [spec]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == EXIT_DATA
    assert f"drilldown {spec!r}" in capsys.readouterr().err
    assert "Traceback" not in caplog.text
    if failed_stage is None:  # rejected with the config, before any stage
        assert not out.exists()
    else:
        assert json.loads((out / "manifest.json").read_text())["failed_stage"] == failed_stage
        assert not list(out.glob("drill_*.csv"))
