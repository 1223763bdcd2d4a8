import io
from datetime import date, datetime, time, timezone
from zoneinfo import ZoneInfo

import pytest

from scootertrips.errors import InvalidConfig
from scootertrips.geo import GeoPoint
from scootertrips.ingest import parse_snapshot_stream, write_snapshot_stream
from scootertrips.synth import ScenarioConfig, TruthTrip, generate, load_truth, save_truth, score, write_feed
from scootertrips.trips import CleaningRules, clean_trips, extract_trips

from conftest import batch, rows

UTC = timezone.utc
EST = ZoneInfo("America/New_York")


def feed_text(batches) -> str:
    buf = io.StringIO()
    write_snapshot_stream(batches, buf)
    return buf.getvalue()


class TestGenerate:
    def test_single_trip_hand_trace(self):
        # one trip inside one snapshot interval: scooter present at the
        # bracketing ticks, extraction recovers start/end at those ticks
        cfg = ScenarioConfig(rng_seed=1, fleet_size=1, days=1, trip_rates={"lunch": 1.0}, charging_relocation=False)
        truth, feed = generate(cfg)
        extracted = rows(extract_trips(feed))
        assert len(extracted) == len(truth)
        for t, x in zip(sorted(truth, key=lambda t: t.start_epoch_s), extracted):
            t1 = int(x.start_ts.timestamp())
            t2 = int(x.end_ts.timestamp())
            assert t1 <= t.start_epoch_s < t1 + cfg.cadence_s
            assert t.end_epoch_s <= t2 < t.end_epoch_s + cfg.cadence_s
            assert x.origin == t.origin and x.destination == t.destination

    def test_no_trips_means_static_feed(self):
        cfg = ScenarioConfig(rng_seed=2, fleet_size=3, days=1, trip_rates={}, charging_relocation=False)
        truth, feed = generate(cfg)
        assert truth == []
        assert rows(extract_trips(feed)) == []
        first = {o.scooter_id: o.position for o in feed[0].observations}
        for batch in feed:
            assert {o.scooter_id: o.position for o in batch.observations} == first

    def test_same_seed_identical_bytes(self):
        cfg = ScenarioConfig(rng_seed=99, fleet_size=10, days=2)
        _, f1 = generate(cfg)
        _, f2 = generate(cfg)
        assert feed_text(f1) == feed_text(f2)

    def test_different_seed_differs(self):
        _, f1 = generate(ScenarioConfig(rng_seed=1, fleet_size=10, days=1))
        _, f2 = generate(ScenarioConfig(rng_seed=2, fleet_size=10, days=1))
        assert feed_text(f1) != feed_text(f2)

    def test_truth_trips_never_overlap(self):
        truth, _ = generate(ScenarioConfig(rng_seed=11, fleet_size=30, days=3))
        per = {}
        for t in truth:
            per.setdefault(t.scooter_id, []).append(t)
        for trips in per.values():
            trips.sort(key=lambda t: t.start_epoch_s)
            for a, b in zip(trips, trips[1:]):
                assert a.end_epoch_s <= b.start_epoch_s

    def test_positions_stay_in_bbox(self):
        cfg = ScenarioConfig(rng_seed=4, fleet_size=10, days=1)
        _, feed = generate(cfg)
        for batch in feed[:50]:
            for o in batch.observations:
                assert cfg.bbox.contains(o.position.lat, o.position.lon)

    def test_charging_relocation_disappears_after_hours(self):
        cfg = ScenarioConfig(rng_seed=5, fleet_size=1, days=2, trip_rates={})
        _, feed = generate(cfg)
        by_local_hour = {}
        for batch in feed:
            local = batch.ts.astimezone(EST)
            by_local_hour.setdefault((local.day, local.hour), []).append(len(batch.observations))
        # present through the operating day, absent by late night
        assert all(n == 1 for n in by_local_hour[(4, 20)])
        assert any(n == 0 for n in by_local_hour[(4, 23)]) or any(n == 0 for n in by_local_hour[(5, 0)])

    @pytest.mark.parametrize("start", ["2019-03-09", "2019-03-10", "2019-11-02", "2019-11-03"])
    def test_trips_keep_local_hours_across_dst_changes(self, start):
        # slot windows and the 21:00 end limit are local wall clock, also on the day the offset changes
        cfg = ScenarioConfig(rng_seed=3, fleet_size=60, days=2, start_date=date.fromisoformat(start))
        truth, feed = generate(cfg)
        local = lambda t: datetime.fromtimestamp(t, EST).time()
        assert all(local(t.start_epoch_s) >= time(7, 0) for t in truth)
        assert all(local(t.end_epoch_s) < time(21, 0) for t in truth)
        _, report = clean_trips(extract_trips(feed), CleaningRules())
        assert report.input_count > 0 and report.removed_hours == 0

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            ScenarioConfig(cadence_s=0)
        with pytest.raises(InvalidConfig):
            ScenarioConfig(trip_rates={"brunch": 1.0})

    def test_gps_jitter_stresses_colocation_epsilon(self):
        # sub-epsilon wobble on a stationary fleet stays quiet; heavy jitter
        # leaks spurious moves, which is exactly what the epsilon guards
        quiet = ScenarioConfig(rng_seed=8, fleet_size=5, days=1, trip_rates={}, charging_relocation=False,
                               position_jitter_m=0.1)
        _, feed = generate(quiet)
        assert rows(extract_trips(feed)) == []
        noisy = ScenarioConfig(rng_seed=8, fleet_size=5, days=1, trip_rates={}, charging_relocation=False,
                               position_jitter_m=8.0)
        _, feed = generate(noisy)
        assert len(extract_trips(feed)) > 0


class TestScore:
    def test_perfect_recall_on_recoverable(self):
        cfg = ScenarioConfig(rng_seed=21, fleet_size=40, days=2)
        truth, feed = generate(cfg)
        report = score(truth, extract_trips(feed), cfg.cadence_s)
        assert report.n_truth == len(truth)
        assert report.recall == 1.0
        assert report.endpoint_mismatches == 0
        assert report.max_start_error_s < cfg.cadence_s
        assert report.max_end_error_s < cfg.cadence_s

    def test_two_trips_in_one_interval_unrecoverable(self):
        # hand-built: two hops inside one 600 s interval merge into one move
        day = datetime(2019, 2, 4, tzinfo=EST)
        base = datetime(2019, 2, 4, 12, 0, tzinfo=EST).timestamp()
        a = GeoPoint(33.76, -84.39)
        b = GeoPoint(33.765, -84.39)
        c = GeoPoint(33.77, -84.39)
        truth = [
            TruthTrip("S00000", a, b, base + 60.0, base + 180.0),
            TruthTrip("S00000", b, c, base + 240.0, base + 360.0),
        ]
        cfg = ScenarioConfig(rng_seed=1, fleet_size=1, days=1, trip_rates={}, charging_relocation=False)
        _, feed = generate(cfg)  # only for tick structure; rebuild positions manually
        from scootertrips.ingest import ScooterObservation

        feed = []
        for batch_ts in [base - 600, base, base + 600, base + 1200]:
            ts = datetime.fromtimestamp(batch_ts, tz=UTC)
            inside = any(t.start_epoch_s < batch_ts < t.end_epoch_s for t in truth)
            pos = a if batch_ts <= truth[0].start_epoch_s else (b if batch_ts <= truth[1].start_epoch_s else c)
            feed.append(batch(0, [] if inside else [ScooterObservation("S00000", pos)], base=ts))
        extracted = extract_trips(feed)
        assert len(extracted) == 1  # merged hop a -> c
        report = score(truth, extracted, 600)
        assert report.n_unrecoverable == 2
        assert report.n_recoverable == 0
        assert report.n_extra_extracted == 1

    def test_cleaning_removes_exactly_out_of_rule_truth(self):
        cfg = ScenarioConfig(rng_seed=31, fleet_size=30, days=2, displacement_min_m=100, displacement_max_m=2500)
        truth, feed = generate(cfg)
        extracted = extract_trips(feed)
        kept, report = clean_trips(extracted, CleaningRules())
        # all synthetic trips sit inside the rules, so cleaning keeps every extraction
        assert rows(kept) == rows(extracted)
        assert report.removed_hours == 0 and report.removed_distance == 0


class TestPersistence:
    def test_truth_round_trip(self, tmp_path):
        cfg = ScenarioConfig(rng_seed=3, fleet_size=5, days=1)
        truth, _ = generate(cfg)
        path = tmp_path / "truth.json"
        save_truth(truth, path, cadence_s=cfg.cadence_s, timezone_name=cfg.timezone)
        loaded, cadence, tz = load_truth(path)
        assert loaded == truth
        assert cadence == cfg.cadence_s and tz == cfg.timezone

    def test_feed_parses_back(self, tmp_path):
        cfg = ScenarioConfig(rng_seed=3, fleet_size=5, days=1)
        _, feed = generate(cfg)
        path = tmp_path / "feed.jsonl"
        write_feed(feed, path)
        stream = parse_snapshot_stream(path)
        back = list(stream)
        assert len(back) == len(feed)
        assert back[0].observations == feed[0].observations
        assert stream.stats.dropped_null_id == 0

    def test_null_fill_exercises_in_use_counter(self, tmp_path):
        cfg = ScenarioConfig(rng_seed=13, fleet_size=10, days=1)
        truth, feed = generate(cfg)
        assert truth, "scenario should produce at least one trip"
        path = tmp_path / "feed.jsonl"
        write_feed(feed, path, null_fill_to=cfg.fleet_size)
        stream = parse_snapshot_stream(path)
        batches = list(stream)
        assert stream.stats.dropped_null_id > 0
        assert stream.stats.input_records == cfg.fleet_size * len(batches)

    def test_scenario_config_round_trip(self, tmp_path):
        import json

        payload = {
            "rng_seed": 5,
            "fleet_size": 7,
            "days": 2,
            "start_date": "2019-02-04",
            "anchors": [[33.76, -84.39], [33.77, -84.38]],
            "bbox": {"min_lat": 33.74, "min_lon": -84.41, "max_lat": 33.79, "max_lon": -84.35},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload))
        cfg = ScenarioConfig.load(path)
        assert cfg.fleet_size == 7
        assert cfg.anchors == [GeoPoint(33.76, -84.39), GeoPoint(33.77, -84.38)]
