#!/usr/bin/env python3
"""Seeded inputs for the benchmark's three workloads.

Each workload's feed, truth, run config and (for poi-dense) recorded Places
corpus are built from one integer seed. The same seed gives byte-identical
inputs; another seed gives inputs of the same shape.

  fleet-14d    demo anchors, 1290 scooters x 14 days, JSONL null-filled to fleet
               size (~2.6M records), demo Places fixtures.
  poi-dense    ~20k-place recorded corpus written here (20-result cap, 2x2
               re-query answers to depth 2), 300 scooters x 7 days anchored
               on corpus places, JSONL.
  feed-faults  demo anchors, 500 scooters x 7 days, 3 m GPS jitter, CSV with
               null records and ~0.2% duplicate ids at displaced coordinates.

Usage (from the repository root):
  python3 perfbench/workloads.py --workload poi-dense --seed 3 --out /tmp/poi-dense
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMO = ROOT / "demo"

WORKLOADS = ("fleet-14d", "poi-dense", "feed-faults")

TIMEZONE = "America/New_York"
START_DATE = "2019-02-04"  # no DST change inside any workload's span
CADENCE_S = 600
CUTOFF_M = 50.0
MIN_DISPLACEMENT_M = 75.0
MAX_DISPLACEMENT_M = 3000.0
DAY_START_MIN = 7 * 60
DAY_END_MIN = 21 * 60
COLOCATION_EPS_M = 1.0
# Midtown/downtown analysis region (the program's default region).
BBOX = {"min_lat": 33.74837933333333, "min_lon": -84.40562333333332, "max_lat": 33.789279, "max_lon": -84.35961499999999}

EARTH_RADIUS_M = 6_371_000.0
MAX_RESULTS = 20  # Places server cap per query
MAX_DEPTH = 2  # 2x2 re-query depth the harvest uses


def haversine(lat1, lon1, lat2, lon2):
    """Great-circle meters on the 6,371 km sphere (numpy, broadcasting)."""
    p1 = np.radians(lat1)
    p2 = np.radians(lat2)
    dlat = p2 - p1
    dlon = np.radians(lon2) - np.radians(lon1)
    a = np.sin(dlat / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def offset(lat, lon, bearing_deg, dist_m):
    """Destination point (numpy, broadcasting) at a bearing and distance."""
    theta = np.radians(bearing_deg)
    delta = np.asarray(dist_m, dtype=np.float64) / EARTH_RADIUS_M
    p1 = np.radians(lat)
    l1 = np.radians(lon)
    p2 = np.arcsin(np.sin(p1) * np.cos(delta) + np.cos(p1) * np.sin(delta) * np.cos(theta))
    l2 = l1 + np.arctan2(np.sin(theta) * np.sin(delta) * np.cos(p1), np.cos(delta) - np.sin(p1) * np.sin(p2))
    return np.degrees(p2), np.degrees(l2)


def import_program():
    """Put the checkout's sources first on sys.path; fail clearly without them."""
    if not (SRC / "scootertrips" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC / 'scootertrips'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass
class Inputs:
    """Where one workload's generated inputs live, plus set-up timings."""

    workload: str
    config: Path
    feed: Path
    feed_format: str
    truth: Path | None  # None when the feed carries noise (no exact oracle)
    observations: int
    generate_s: float
    write_feed_s: float


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _write_config(path: Path, feed: Path, feed_format: str, fixtures_dir: Path, query_budget: int) -> None:
    config = {
        "version": 1,
        "paths": {"feed": str(feed), "fixtures_dir": str(fixtures_dir)},
        "feed_format": feed_format,
        "bbox": BBOX,
        "harvest_rows": 8,
        "harvest_cols": 8,
        "densify": True,
        "densify_rows": 15,
        "densify_cols": 15,
        "densify_fraction": 0.25,
        "cleaning": {
            "min_displacement_m": MIN_DISPLACEMENT_M,
            "max_displacement_m": MAX_DISPLACEMENT_M,
            "day_start": f"{DAY_START_MIN // 60:02d}:00",
            "day_end": f"{DAY_END_MIN // 60:02d}:00",
        },
        "cutoff_m": CUTOFF_M,
        "thresholds": "0:100:5",
        "timezone": TIMEZONE,
        "query_budget": query_budget,
        "drilldowns": ["Business:Business", "Recreation:Recreation"],
    }
    path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")


def _scenario(rng: np.random.Generator, fleet: int, days: int, anchors, jitter_m: float = 0.0):
    from scootertrips.synth import ScenarioConfig

    return ScenarioConfig.from_dict(
        {
            "rng_seed": int(rng.integers(2**31 - 1)),
            "fleet_size": fleet,
            "days": days,
            "start_date": START_DATE,
            "cadence_s": CADENCE_S,
            "timezone": TIMEZONE,
            "bbox": BBOX,
            "anchors": [[float(a), float(b)] for a, b in anchors],
            "anchor_jitter_m": 20.0,
            "position_jitter_m": jitter_m,
        }
    )


def _demo_anchors():
    with open(DEMO / "scenario.json", "r", encoding="utf-8") as fh:
        return json.load(fh)["anchors"]


def _simulate_jsonl(scenario, feed: Path, truth: Path):
    from scootertrips.synth import generate, save_truth, write_feed

    t0 = time.perf_counter()
    truth_trips, batches = generate(scenario)
    t1 = time.perf_counter()
    write_feed(batches, feed, null_fill_to=scenario.fleet_size)
    save_truth(truth_trips, truth, cadence_s=scenario.cadence_s, timezone_name=scenario.timezone)
    t2 = time.perf_counter()
    return sum(len(b.observations) for b in batches), t1 - t0, t2 - t1


def build_fleet_14d(seed: int, out: Path) -> Inputs:
    rng = _rng("fleet-14d", seed)
    scenario = _scenario(rng, 1290, 14, _demo_anchors())
    feed, truth, config = out / "feed.jsonl", out / "truth.json", out / "config.json"
    n_obs, gen_s, write_s = _simulate_jsonl(scenario, feed, truth)
    _write_config(config, feed, "jsonl", DEMO / "fixtures", 20_000)
    return Inputs("fleet-14d", config, feed, "jsonl", truth, n_obs, gen_s, write_s)


# --- poi-dense: a recorded Places corpus ------------------------------------------------

# (count, predefined types, densify text terms that also return the place)
# Counts give ~20k places; multi-type entries exercise the cross-query-type
# duplicate removal, typeless text-only entries the text primary path.
PLACE_KINDS = {
    "restaurant": (4400, ("restaurant", "food"), ()),
    "restaurant-listed": (500, ("restaurant", "food"), ("restaurant",)),
    "bar": (1000, ("bar",), ()),
    "bar-kitchen": (400, ("bar", "restaurant"), ()),
    "night-club": (200, ("night_club", "bar"), ()),
    "cafe": (1400, ("cafe", "food"), ()),
    "parking": (2000, ("parking",), ()),
    "bank": (700, ("bank", "finance"), ()),
    "lawyer": (1100, ("lawyer",), ()),
    "realty": (900, ("real_estate_agency",), ()),
    "park": (500, ("park",), ("park",)),
    "gym": (600, ("gym",), ()),
    "lodging": (900, ("lodging",), ("lodging",)),
    "pharmacy": (500, ("pharmacy",), ()),
    "apartment": (2600, (), ("apartment",)),
    "condo": (1600, (), ("condo",)),
}
N_STATIONS = 12
N_COLOCATED = 300  # extra places at an existing place's exact location
N_VICINITY_ONLY = 50  # vicinity "Atlanta": dropped by the merge step
HOTSPOT_SIGMA_M = 250.0
POI_DENSE_ANCHORS = 200
# A park with no other place within 400 m and 12 anchors on a 130 m ring around
# it: a trip between two ring anchors has the park nearest at both ends, so the
# program must move its origin to the second-nearest POI.
LONE_PARK = (33.7835, -84.3660)
LONE_PARK_CLEAR_M = 400.0
LONE_PARK_RING = (12, 130.0)


def _region_points(rng: np.random.Generator, n: int, hot_lat, hot_lon):
    """Half uniform over the region, half clustered around the hotspots."""
    lat = np.empty(n)
    lon = np.empty(n)
    filled = 0
    while filled < n:
        m = n - filled
        u = rng.random(m) < 0.5
        la = rng.uniform(BBOX["min_lat"], BBOX["max_lat"], m)
        lo = rng.uniform(BBOX["min_lon"], BBOX["max_lon"], m)
        h = rng.integers(len(hot_lat), size=m)
        cl, co = offset(hot_lat[h], hot_lon[h], rng.uniform(0, 360, m), np.abs(rng.normal(0, HOTSPOT_SIGMA_M, m)))
        la = np.where(u, la, cl)
        lo = np.where(u, lo, co)
        inside = (la > BBOX["min_lat"]) & (la < BBOX["max_lat"]) & (lo > BBOX["min_lon"]) & (lo < BBOX["max_lon"])
        inside &= haversine(la, lo, *LONE_PARK) > LONE_PARK_CLEAR_M
        k = int(inside.sum())
        lat[filled : filled + k] = la[inside]
        lon[filled : filled + k] = lo[inside]
        filled += k
    return np.round(lat, 6), np.round(lon, 6)


def make_places(rng: np.random.Generator) -> list[dict]:
    """The poi-dense inventory: one dict per place, as a Places server holds it.

    Hotspots sit on the demo anchors, the same for every seed, so a seed moves
    places but keeps how many queries hit the 20-result cap nearly constant.
    """
    hot_lat, hot_lon = np.array(_demo_anchors(), dtype=np.float64).T
    places: list[dict] = []

    def add(pid, name, lat, lon, types, text=(), vicinity=None):
        places.append(
            {"place_id": pid, "name": name, "lat": float(lat), "lon": float(lon), "types": list(types),
             "text": list(text), "vicinity": vicinity or f"{len(places) % 900 + 1} Peachtree St"}
        )

    for kind, (count, types, text) in PLACE_KINDS.items():
        lat, lon = _region_points(rng, count, hot_lat, hot_lon)
        label = kind.replace("-", " ").title()
        for i in range(count):
            add(f"pd-{kind}-{i:05d}", f"{label} {i:05d}", lat[i], lon[i], types, text)
    lat, lon = _region_points(rng, N_STATIONS, hot_lat, hot_lon)
    for i in range(N_STATIONS):
        add(f"pd-station-{i:02d}", f"Transit Stop {i:02d}", lat[i], lon[i], ("subway_station", "transit_station"),
            ("subway station",))
    lat, lon = _region_points(rng, 2, hot_lat, hot_lon)
    add("pd-aquarium", "Georgia Aquarium", lat[0], lon[0], ("aquarium", "tourist_attraction"))
    add("pd-stadium", "Mercedes-Benz Stadium", lat[1], lon[1], ("stadium",))
    add("pd-lone-park", "Lone Park", *LONE_PARK, ("park",), ("park",))

    # colocated places: the exact location of an ordinary place (not a buffer
    # parent, so every ring keeps its parent), any kind
    hosts = rng.choice(len(places) - N_STATIONS - 3, size=N_COLOCATED, replace=False)
    kinds = list(PLACE_KINDS)
    for j, h in enumerate(hosts):
        kind = kinds[int(rng.integers(len(kinds)))]
        _, types, text = PLACE_KINDS[kind]
        host = places[int(h)]
        add(f"pd-coloc-{j:04d}", f"Shared Address {j:04d}", host["lat"], host["lon"], types, text)
    lat, lon = _region_points(rng, N_VICINITY_ONLY, hot_lat, hot_lon)
    for i in range(N_VICINITY_ONLY):
        add(f"pd-vicinity-{i:03d}", f"Unplaced Listing {i:03d}", lat[i], lon[i], ("restaurant",), (), "Atlanta")
    return places


def _matches(places: list[dict], kind: str, term: str) -> np.ndarray:
    from scootertrips.poi.client import normalize_query_type

    if kind == "nearby":
        hit = [i for i, p in enumerate(places) if term in p["types"]]
    else:
        key = normalize_query_type(term)
        hit = [i for i, p in enumerate(places) if key in (normalize_query_type(t) for t in p["text"])]
    return np.asarray(hit, dtype=np.int64)


def record_fixtures(places: list[dict], path: Path) -> int:
    """Answer every query the harvest can issue, as a capped Places server would.

    A query returns the matching places within its radius, nearest first
    (ties by id), at most 20. A full answer is re-asked on the 2x2 children of
    its cell, to depth 2, exactly as the harvest does; every densify-grid cell
    is recorded. Queries with no match stay unrecorded (ZERO_RESULTS).
    """
    from scootertrips.config import DEFAULT_REGION
    from scootertrips.geo import make_grid, subdivide_cell
    from scootertrips.poi import default_plan_path, load_plan
    from scootertrips.poi.client import DENSIFY_TEXT_QUERIES, canonical_query

    lat = np.array([p["lat"] for p in places])
    lon = np.array([p["lon"] for p in places])
    id_rank = np.argsort(np.argsort(np.array([p["place_id"] for p in places])))
    records = [
        {"place_id": p["place_id"], "name": p["name"], "geometry": {"location": {"lat": p["lat"], "lng": p["lon"]}},
         "types": p["types"], "vicinity": p["vicinity"]}
        for p in places
    ]
    responses: dict[str, dict] = {}

    def answer(kind, term, candidates, cell, depth):
        d = haversine(cell.center.lat, cell.center.lon, lat[candidates], lon[candidates])
        inside = d <= cell.circumradius_m
        cand = candidates[inside]
        top = cand[np.lexsort((id_rank[cand], d[inside]))[:MAX_RESULTS]]
        if top.size == 0:
            return
        key = canonical_query(kind, cell.center, cell.circumradius_m, term)
        responses[key] = {"status": "OK", "results": [records[i] for i in top]}
        if top.size == MAX_RESULTS and depth < MAX_DEPTH:
            for sub in subdivide_cell(cell):
                answer(kind, term, candidates, sub, depth + 1)

    queries = [(e.kind, e.term, make_grid(DEFAULT_REGION, 8, 8)) for e in load_plan(default_plan_path())]
    queries += [("text", q, make_grid(DEFAULT_REGION, 15, 15)) for q in DENSIFY_TEXT_QUERIES]
    for kind, term, grid in queries:
        candidates = _matches(places, kind, term)
        if candidates.size == 0:
            continue
        for cell in grid.cells:
            answer(kind, term, candidates, cell, 0)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(responses, fh, separators=(",", ":"))
    return len(responses)


def build_poi_dense(seed: int, out: Path) -> Inputs:
    rng = _rng("poi-dense", seed)
    places = make_places(rng)
    fixtures = out / "fixtures"
    record_fixtures(places, fixtures / "places.json")
    usable = [p for p in places if p["vicinity"] != "Atlanta"]
    pick = rng.choice(len(usable), size=POI_DENSE_ANCHORS, replace=False)
    anchors = [(usable[i]["lat"], usable[i]["lon"]) for i in sorted(pick)]
    count, radius = LONE_PARK_RING
    ring_lat, ring_lon = offset(LONE_PARK[0], LONE_PARK[1], np.arange(count) * 360.0 / count, radius)
    anchors += list(zip(np.round(ring_lat, 6), np.round(ring_lon, 6)))
    scenario = _scenario(rng, 300, 7, anchors)
    feed, truth, config = out / "feed.jsonl", out / "truth.json", out / "config.json"
    n_obs, gen_s, write_s = _simulate_jsonl(scenario, feed, truth)
    _write_config(config, feed, "jsonl", fixtures, 50_000)
    return Inputs("poi-dense", config, feed, "jsonl", truth, n_obs, gen_s, write_s)


# --- feed-faults: CSV with nulls, jitter and displaced duplicate ids ---------------------

DUPLICATE_SHARE = 0.002
DUPLICATE_OFFSET_M = (30.0, 300.0)


def write_faulty_csv(batches, path: Path, fleet: int, rng: np.random.Generator) -> None:
    """ts,id,lat,lon rows; each batch padded with null-id rows to fleet size.

    About 0.2% of records get a second row with the same id at a displaced
    position, placed later in the same batch, so ingest must keep the first.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("ts,id,lat,lon\n")
        for batch in batches:
            ts = batch.ts.strftime("%Y-%m-%dT%H:%M:%SZ")
            rows = [f"{ts},{o.scooter_id},{o.position.lat:.6f},{o.position.lon:.6f}\n" for o in batch.observations]
            n = len(rows)
            dup = np.nonzero(rng.random(n) < DUPLICATE_SHARE)[0]
            if dup.size:
                src_lat = np.array([batch.observations[i].position.lat for i in dup])
                src_lon = np.array([batch.observations[i].position.lon for i in dup])
                dlat, dlon = offset(src_lat, src_lon, rng.uniform(0, 360, dup.size), rng.uniform(*DUPLICATE_OFFSET_M, dup.size))
                # insert from the back so earlier positions stay valid
                for k in range(dup.size - 1, -1, -1):
                    i = int(dup[k])
                    at = int(rng.integers(i + 1, n + 1))
                    rows.insert(at, f"{ts},{batch.observations[i].scooter_id},{dlat[k]:.6f},{dlon[k]:.6f}\n")
            rows.extend([f"{ts},,0.0,0.0\n"] * max(0, fleet - n))
            fh.writelines(rows)


def build_feed_faults(seed: int, out: Path) -> Inputs:
    from scootertrips.synth import generate

    rng = _rng("feed-faults", seed)
    scenario = _scenario(rng, 500, 7, _demo_anchors(), jitter_m=3.0)
    feed, config = out / "feed.csv", out / "config.json"
    t0 = time.perf_counter()
    _, batches = generate(scenario)
    t1 = time.perf_counter()
    write_faulty_csv(batches, feed, scenario.fleet_size, rng)
    t2 = time.perf_counter()
    n_obs = sum(len(b.observations) for b in batches)
    _write_config(config, feed, "csv", DEMO / "fixtures", 20_000)
    return Inputs("feed-faults", config, feed, "csv", None, n_obs, t1 - t0, t2 - t1)


BUILD_BY_WORKLOAD = {"fleet-14d": build_fleet_14d, "poi-dense": build_poi_dense, "feed-faults": build_feed_faults}


def build(workload: str, seed: int, out: Path) -> Inputs:
    """Generate one workload's inputs into out (created if needed)."""
    import_program()
    out.mkdir(parents=True, exist_ok=True)
    return BUILD_BY_WORKLOAD[workload](seed, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Build one benchmark workload's inputs from a seed.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for feed, truth, config and fixtures")
    args = parser.parse_args(argv)
    import_program()
    import scootertrips.config  # noqa: F401 - imports are not set-up work
    import scootertrips.poi  # noqa: F401
    import scootertrips.synth  # noqa: F401

    t0 = time.perf_counter()
    inputs = build(args.workload, args.seed, Path(args.out).resolve())
    setup_s = time.perf_counter() - t0
    record = {k: str(v) if isinstance(v, Path) else v for k, v in asdict(inputs).items()}
    print(json.dumps({**record, "setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
