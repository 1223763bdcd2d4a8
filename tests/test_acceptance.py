"""Acceptance suite: one test per criterion, each printing a pass/fail line
(straight through pytest's capture). Every tolerance is pinned here.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from scootertrips.assoc import apply_threshold, sensitivity
from scootertrips.cli import EXIT_OK, main
from scootertrips.geo import GeoPoint, build_spatial_index, haversine_m, nearest_k_batch
from scootertrips.ingest import parse_snapshot_stream
from scootertrips.poi.catalog import (
    MULTIPLE_TYPE,
    BufferRing,
    BufferSpec,
    Poi,
    dedupe_and_merge,
    generate_buffers,
    location_key,
)
from scootertrips.purpose import TimeSlot, build_matrix, day_class_predicate, drill_down, slot_predicate
from scootertrips.synth import ScenarioConfig, generate, score, write_feed
from scootertrips.trips import CleaningRules, clean_trips, extract_trips

from conftest import CITY, Row, make_trip, rows, table_of

UTC = timezone.utc
EST = timezone(timedelta(hours=-5))
REPO = Path(__file__).resolve().parent.parent


@contextmanager
def criterion(number: int, name: str, capsys=None):
    def emit(line: str) -> None:
        with capsys.disabled() if capsys is not None else nullcontext():
            print(line, flush=True)

    start = time.perf_counter()
    try:
        yield
    except BaseException:
        emit(f"ACCEPTANCE {number} ({name}): FAIL [{time.perf_counter() - start:.1f}s]")
        raise
    emit(f"ACCEPTANCE {number} ({name}): PASS [{time.perf_counter() - start:.1f}s]")


def test_criterion_1_extraction_oracle(capsys):
    with criterion(1, "extraction oracle, 50 scenarios", capsys):
        start = time.perf_counter()
        rng = np.random.default_rng(2019)
        total_recoverable = 0
        for i in range(50):
            cfg = ScenarioConfig(
                rng_seed=1000 + i,
                fleet_size=int(rng.integers(10, 501)),
                days=int(rng.integers(1, 8)),
                cadence_s=600,
            )
            truth, feed = generate(cfg)
            extracted = extract_trips(feed)
            report = score(truth, extracted, cfg.cadence_s)
            assert report.recall == 1.0, f"scenario {i}: recall {report.recall}"
            assert report.n_matched == report.n_recoverable
            assert report.endpoint_mismatches == 0, f"scenario {i}: inexact endpoints"
            assert report.max_start_error_s < 600.0
            assert report.max_end_error_s < 600.0
            total_recoverable += report.n_recoverable
        elapsed = time.perf_counter() - start
        assert total_recoverable > 10_000, "scenarios too small to be meaningful"
        assert elapsed < 60.0, f"extraction oracle took {elapsed:.1f}s (budget 60s)"


def test_criterion_2_cleaning_fidelity(capsys):
    with criterion(2, "cleaning fidelity with planted violations", capsys):
        def planted(start_h, start_m, disp, idx, duration_s=600):
            start = datetime(2019, 2, 4, start_h, start_m, tzinfo=EST).astimezone(UTC)
            return Row(f"S{idx:04d}", CITY, CITY, start, start + timedelta(seconds=duration_s), disp)

        trips = []
        # displacement violations planted inside the diagnostic bands
        small = [3.0] * 37 + [7.0] * 25 + [14.0] * 41 + [40.0] * 30
        long = [3456.0] * 12
        hours_starts = [(6, 15)] * 20                      # start before 07:00
        hours_ends = [(20, 55)] * 15                       # end spills past 21:00
        both = [(5, 0, 9.0)] * 5                           # hours and distance violations
        valid_disp = list(np.linspace(80.0, 2900.0, 100))

        idx = 0
        removed_expected = set()
        hours_expected = 0
        distance_expected = 0
        for d in small + long:
            t = planted(12, 0, d, idx)
            trips.append(t)
            removed_expected.add(t)
            distance_expected += 1
            idx += 1
        for h, m in hours_starts:
            t = planted(h, m, 500.0, idx)
            trips.append(t)
            removed_expected.add(t)
            hours_expected += 1
            idx += 1
        for h, m in hours_ends:
            t = planted(h, m, 500.0, idx, duration_s=900)
            trips.append(t)
            removed_expected.add(t)
            hours_expected += 1
            idx += 1
        for h, m, d in both:
            t = planted(h, m, d, idx)
            trips.append(t)
            removed_expected.add(t)
            hours_expected += 1  # hours rule counts first
            idx += 1
        valid = []
        for d in valid_disp:
            t = planted(10, 30, float(d), idx)
            trips.append(t)
            valid.append(t)
            idx += 1

        kept, report = clean_trips(table_of(trips), CleaningRules())
        kept = rows(kept)
        assert set(kept) == set(valid)
        assert set(trips) - set(kept) == removed_expected
        assert report.removed_hours == hours_expected
        assert report.removed_distance == distance_expected
        # diagnostic histogram vs independently counted plants
        all_disp = [t.displacement_m for t in trips]
        assert report.under_5m == sum(1 for d in all_disp if d < 5.0)
        assert report.under_10m == sum(1 for d in all_disp if d < 10.0)
        assert report.under_20m == sum(1 for d in all_disp if d < 20.0)
        assert (report.under_5m, report.under_10m, report.under_20m) == (37, 62 + 5, 103 + 5)


def test_criterion_3_nearest_neighbor_equivalence(capsys):
    with criterion(3, "k-d index vs linear scan, 100 catalogs x 100 queries", capsys):
        start = time.perf_counter()
        rng = np.random.default_rng(37)
        for c in range(100):
            n = int(rng.integers(10, 1001))
            lats = rng.uniform(33.7484, 33.7892, size=n)
            lons = rng.uniform(-84.4056, -84.3597, size=n)
            ids = [f"P{i:04d}" for i in range(n)]  # ascending ids match index order
            index = build_spatial_index([(ids[i], GeoPoint(float(lats[i]), float(lons[i]))) for i in range(n)])
            q_lats = rng.uniform(33.7484, 33.7892, size=100)
            q_lons = rng.uniform(-84.4056, -84.3597, size=100)
            k = 1 if c % 10 else 5
            rows, meters = nearest_k_batch(index, q_lats, q_lons, k)
            for j in range(100):
                q = GeoPoint(float(q_lats[j]), float(q_lons[j]))
                # linear-scan oracle (stable argsort ties agree with id order)
                dists = np.array([haversine_m(q, GeoPoint(float(lats[i]), float(lons[i]))) for i in range(n)])
                order = np.argsort(dists, kind="stable")[:k]
                assert [ids[r] for r in rows[j]] == [ids[i] for i in order]
                for gd, i in zip(meters[j], order):
                    assert abs(gd - dists[i]) <= 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"nearest-neighbor equivalence took {elapsed:.1f}s (budget 30s)"


def test_criterion_4_buffer_geometry(capsys):
    with criterion(4, "buffer ring counts and radii", capsys):
        specs = [
            ("aquarium", BufferSpec(8, 90.0, {"id": "venue"}), [(8, 90.0)]),
            ("dome", BufferSpec(8, 140.0, {"id": "venue"}), [(8, 140.0)]),
            ("station", BufferSpec(8, 20.0, {"id": "venue"}), [(8, 20.0)]),
            (
                "neighborhood",
                BufferSpec(8, 140.0, {"id": "venue"}, BufferRing(16, 290.0)),
                [(8, 140.0), (16, 290.0)],
            ),
        ]
        for label, spec, rings in specs:
            parent = Poi(
                id="venue", name=label, position=CITY, predefined_types=(label,), primary_type=label
            )
            out = generate_buffers([parent], [spec])
            buffers = [p for p in out if p.source == "buffer"]
            assert len(buffers) == sum(count for count, _ in rings), label
            remaining = list(buffers)
            for count, radius in rings:
                hits = [
                    b for b in remaining if abs(haversine_m(parent.position, b.position) - radius) <= 0.001 * radius
                ]
                assert len(hits) == count, f"{label}: expected {count} buffers at {radius} m"
                remaining = [b for b in remaining if b not in hits]
            assert remaining == [], f"{label}: buffers at unexpected radii"
            assert all(b.parent_id == "venue" and b.primary_type == label for b in buffers)


def test_criterion_5_merge_semantics(capsys):
    with criterion(5, "duplicate merge semantics", capsys):
        rng = np.random.default_rng(53)
        primaries = ["bar", "restaurant", "cafe", "parking", "lawyer"]
        for trial in range(200):
            n_spots = int(rng.integers(3, 25))
            spots = [
                GeoPoint(round(float(rng.uniform(33.75, 33.785)), 6), round(float(rng.uniform(-84.40, -84.365)), 6))
                for _ in range(n_spots)
            ]
            pois = []
            for i in range(int(rng.integers(5, 60))):
                spot = spots[int(rng.integers(n_spots))]
                primary = primaries[int(rng.integers(len(primaries)))]
                pois.append(
                    Poi(
                        id=f"p{trial:03d}_{i:03d}",
                        name=f"poi {i}",
                        position=spot,
                        predefined_types=(primary,),
                        primary_type=primary,
                        vicinity="1 Main St",
                        query_type=primary,
                    )
                )
            merged, _ = dedupe_and_merge(pois)
            keys = [location_key(p) for p in merged]
            assert len(keys) == len(set(keys)), "colocated pair survived the merge"
            # planted-group semantics: reconstruct expectations independently
            by_key: dict = {}
            for p in pois:
                by_key.setdefault(location_key(p), []).append(p)
            merged_by_key = {location_key(p): p for p in merged}
            for key, members in by_key.items():
                got = merged_by_key[key]
                planted_primaries = sorted(p.primary_type for p in members)
                if len(members) == 1:
                    assert got == members[0]
                elif len(set(planted_primaries)) == 1:
                    assert got.primary_type == planted_primaries[0]
                else:
                    assert got.primary_type == MULTIPLE_TYPE
                    assert sorted(got.predefined_types) == planted_primaries


def test_criterion_6_sensitivity_and_cutoff(capsys):
    with criterion(6, "sensitivity monotonicity and 50 m cutoff", capsys):
        rng = np.random.default_rng(61)
        groups = ["Business", "Food", "Recreation", "Parking", "Transit"]
        catalog = [
            Poi(
                id=f"P{i:03d}",
                name=f"P{i}",
                position=CITY,
                predefined_types=("x",),
                primary_type="x",
                group=groups[i % len(groups)],
            )
            for i in range(40)
        ]
        ids = [p.id for p in catalog]
        for corpus in range(10):
            associated = [
                make_trip(f"S{i}", start_offset_s=i)._replace(
                    origin_poi=str(rng.choice(ids)),
                    origin_dist_m=float(rng.uniform(0, 130)),
                    dest_poi=str(rng.choice(ids)),
                    dest_dist_m=float(rng.uniform(0, 130)),
                )
                for i in range(500)
            ]
            table = table_of(associated)
            thresholds = [0.0, 5.0, 10.0, 20.0, 35.0, 50.0, 75.0, 100.0]
            for endpoint in ("origin", "destination"):
                sens = sensitivity(table, thresholds, endpoint, catalog, groups=groups)
                assert (np.diff(sens.counts, axis=1) >= 0).all(), "counts not monotone"
                sums = sens.percents.sum(axis=0)
                totals = sens.counts.sum(axis=0)
                assert np.all(np.abs(sums[totals > 0] - 100.0) <= 0.1)
            kept = rows(apply_threshold(table, 50.0))
            brute = [a for a in associated if a.origin_dist_m <= 50.0 and a.dest_dist_m <= 50.0]
            assert kept == brute


def test_criterion_7_matrix_reconciliation(capsys):
    with criterion(7, "matrix reconciliation on 10,000 trips", capsys):
        start = time.perf_counter()
        rng = np.random.default_rng(71)
        groups = [
            "Business", "Food", "Recreation", "Parking", "Transit",
            "Health", "Residential", "Lodging", "Civic/Education", "Multiple",
        ]
        types_per_group = 3
        catalog = []
        for gi, g in enumerate(groups):
            for t in range(types_per_group):
                catalog.append(
                    Poi(
                        id=f"{g[:3]}{t}",
                        name=f"{g} {t}",
                        position=CITY,
                        predefined_types=(f"type_{gi}_{t}",),
                        primary_type=f"type_{gi}_{t}",
                        group=g,
                    )
                )
        ids = [p.id for p in catalog]
        trips = []
        for i in range(10_000):
            # local start uniformly across operating hours, Feb 4-10 2019
            day = int(rng.integers(4, 11))
            minute = int(rng.integers(7 * 60, 21 * 60))
            start_local = datetime(2019, 2, day, minute // 60, minute % 60, tzinfo=EST)
            trip = Row(
                f"S{i}", CITY, CITY, start_local.astimezone(UTC),
                start_local.astimezone(UTC) + timedelta(seconds=300), 400.0,
            )
            trips.append(
                trip._replace(origin_poi=str(rng.choice(ids)), origin_dist_m=5.0,
                              dest_poi=str(rng.choice(ids)), dest_dist_m=5.0)
            )
        trips = table_of(trips)
        overall = build_matrix(trips, catalog, groups=groups)
        assert overall.total == 10_000
        slot_sum = np.zeros_like(overall.counts)
        for slot in TimeSlot:
            slot_sum += build_matrix(trips, catalog, slice=slot_predicate(slot), groups=groups).counts
        assert np.array_equal(slot_sum, overall.counts), "slot matrices do not sum to overall"
        wk = build_matrix(trips, catalog, slice=day_class_predicate("weekday"), groups=groups).counts
        we = build_matrix(trips, catalog, slice=day_class_predicate("weekend"), groups=groups).counts
        assert np.array_equal(wk + we, overall.counts), "weekday+weekend does not equal overall"
        for og in groups:
            for dg in groups:
                assert drill_down(trips, catalog, og, dg).total == overall.cell(og, dg)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"matrix reconciliation took {elapsed:.1f}s (budget 10s)"


def test_criterion_8_end_to_end_determinism(tmp_path, capsys):
    with criterion(8, "end-to-end determinism on the bundled scenario", capsys):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        for out in (out1, out2):
            assert main(["run", "--config", str(REPO / "demo" / "config.json"), "--out-dir", str(out)]) == EXIT_OK
        names1 = sorted(p.name for p in out1.iterdir())
        names2 = sorted(p.name for p in out2.iterdir())
        assert names1 == names2
        for name in names1:
            a, b = out1 / name, out2 / name
            if name == "manifest.json":
                ma, mb = json.loads(a.read_text()), json.loads(b.read_text())
                ma.pop("created_at")
                mb.pop("created_at")
                assert ma == mb, "manifest differs beyond created_at"
            else:
                assert a.read_bytes() == b.read_bytes(), f"artifact {name} not byte-identical"


def test_criterion_9_scale_smoke(tmp_path, capsys):
    with criterion(9, "2.6M-observation batch path under 5 minutes", capsys):
        # 1290 scooters x 14 days x 144 updates = 2,600,640 records, nulls included,
        # matching the corpus scale the batch path must sustain
        cfg = ScenarioConfig(rng_seed=26, fleet_size=1290, days=14)
        truth, feed = generate(cfg)
        path = tmp_path / "scale_feed.jsonl"
        write_feed(feed, path, null_fill_to=cfg.fleet_size)
        del feed

        start = time.perf_counter()
        stream = parse_snapshot_stream(path)
        raw = extract_trips(stream)
        kept, report = clean_trips(raw, CleaningRules())
        elapsed = time.perf_counter() - start

        assert stream.stats.input_records >= 2_600_000, f"only {stream.stats.input_records} records generated"
        assert stream.stats.dropped_null_id > 0, "in-use records should flow through the null path"
        assert len(kept) > 10_000
        assert report.input_count == len(raw)
        assert elapsed < 300.0, f"ingest+extract+clean took {elapsed:.1f}s (budget 300s)"
        with capsys.disabled():
            print(f"  scale: {stream.stats.input_records} records -> {len(raw)} raw trips in {elapsed:.1f}s")
