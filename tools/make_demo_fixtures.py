#!/usr/bin/env python3
"""Regenerate demo/fixtures/places.json from the hand-authored place inventory.

The recorded corpus answers every query the demo pipeline can issue: for each
(cell, plan entry) on the 8x8 harvest grid and each (cell, densify text query)
on the 15x15 grid, it stores the places matching the query term within the
cell's circumradius. Queries with no matches are recorded as ZERO_RESULTS, so
a demo harvest reports no unrecorded queries.

Run from the repo root: python3 tools/make_demo_fixtures.py
"""

from __future__ import annotations

import json
from pathlib import Path

from scootertrips.config import DEFAULT_REGION
from scootertrips.geo import GeoPoint, haversine_m, make_grid
from scootertrips.poi.catalog import default_plan_path
from scootertrips.poi.client import DENSIFY_TEXT_QUERIES, canonical_query, load_plan, normalize_query_type

REPO = Path(__file__).resolve().parent.parent

# Hand-authored inventory. text_matches lists the text-search queries that hit
# the place; nearby queries match any entry in types.
PLACES = [
    {"place_id": "gp-aquarium", "name": "Georgia Aquarium", "lat": 33.7634, "lon": -84.3951,
     "types": ["aquarium", "tourist_attraction"], "vicinity": "225 Baker St NW"},
    {"place_id": "gp-stadium", "name": "Mercedes-Benz Stadium", "lat": 33.7553, "lon": -84.4006,
     "types": ["stadium"], "vicinity": "1 AMB Dr NW"},
    {"place_id": "gp-marta-five-points", "name": "Five Points Station", "lat": 33.7540, "lon": -84.3917,
     "types": ["subway_station", "transit_station"], "vicinity": "30 Alabama St SW"},
    {"place_id": "gp-marta-midtown", "name": "Midtown Station", "lat": 33.7807, "lon": -84.3865,
     "types": ["subway_station", "transit_station"], "vicinity": "41 10th St NE"},
    {"place_id": "gp-parking-castleberry", "name": "Castleberry Deck", "lat": 33.7570, "lon": -84.3960,
     "types": ["parking"], "vicinity": "215 Walker St SW"},
    {"place_id": "gp-rest-walker", "name": "Walker Street Diner", "lat": 33.75705, "lon": -84.39585,
     "types": ["restaurant", "food"], "vicinity": "221 Walker St SW"},
    {"place_id": "gp-lawyer-peach", "name": "Peachtree Law Group", "lat": 33.7610, "lon": -84.3880,
     "types": ["lawyer"], "vicinity": "100 Peachtree St NW"},
    {"place_id": "gp-bank-peach", "name": "Peachtree Savings Bank", "lat": 33.76105, "lon": -84.38790,
     "types": ["bank", "finance"], "vicinity": "102 Peachtree St NW"},
    {"place_id": "gp-tavern-halfway", "name": "Halfway Tavern", "lat": 33.7700, "lon": -84.3840,
     "types": ["bar", "restaurant"], "vicinity": "500 Spring St NW"},
    {"place_id": "gp-apt-spring", "name": "Spring Heights Apartments", "lat": 33.7760, "lon": -84.3890,
     "types": [], "vicinity": "800 Spring St NW", "text_matches": ["apartment"]},
    {"place_id": "gp-condo-tenth", "name": "Tenth Street Condominiums", "lat": 33.7810, "lon": -84.3800,
     "types": [], "vicinity": "50 10th St NE", "text_matches": ["condo"]},
    {"place_id": "gp-cafe-tenth", "name": "Tenth Street Cafe", "lat": 33.78105, "lon": -84.37990,
     "types": ["cafe", "food"], "vicinity": "52 10th St NE"},
    {"place_id": "gp-park-renaissance", "name": "Renaissance Park", "lat": 33.7850, "lon": -84.3750,
     "types": ["park"], "vicinity": "120 Renaissance Pkwy NE"},
    # colocated pair with distinct primaries -> merges into the `multiple` type
    {"place_id": "gp-taco-edgewood", "name": "Edgewood Taco Stand", "lat": 33.7580, "lon": -84.3800,
     "types": ["restaurant"], "vicinity": "300 Edgewood Ave SE"},
    {"place_id": "gp-owl-edgewood", "name": "Night Owl", "lat": 33.7580, "lon": -84.3800,
     "types": ["bar", "night_club"], "vicinity": "300 Edgewood Ave SE"},
    {"place_id": "gp-gym-eastside", "name": "Eastside Strength Club", "lat": 33.7660, "lon": -84.3700,
     "types": ["gym"], "vicinity": "77 Boulevard NE"},
    {"place_id": "gp-pharm-eastside", "name": "Boulevard Pharmacy", "lat": 33.76605, "lon": -84.36990,
     "types": ["pharmacy"], "vicinity": "79 Boulevard NE"},
    {"place_id": "gp-realty-ponce", "name": "Ponce Realty Partners", "lat": 33.7740, "lon": -84.3650,
     "types": ["real_estate_agency"], "vicinity": "660 Ponce De Leon Ave NE"},
    {"place_id": "gp-parking-memorial", "name": "Memorial Drive Lot", "lat": 33.7520, "lon": -84.3700,
     "types": ["parking"], "vicinity": "400 Memorial Dr SE"},
    {"place_id": "gp-rest-o4w", "name": "Fourth Ward Kitchen", "lat": 33.7636, "lon": -84.3717,
     "types": ["restaurant", "food"], "vicinity": "680 North Ave NE"},
    {"place_id": "gp-lodging-centennial", "name": "Centennial Suites", "lat": 33.7620, "lon": -84.3935,
     "types": ["lodging"], "vicinity": "101 Marietta St NW", "text_matches": ["lodging"]},
    # vicinity exactly "Atlanta": no usable location, dropped during the merge step
    {"place_id": "gp-ghost-atl", "name": "Ghost Listing", "lat": 33.7665, "lon": -84.3855,
     "types": ["restaurant"], "vicinity": "Atlanta"},
]


def matches(place: dict, kind: str, term: str) -> bool:
    if kind == "nearby":
        return term in place["types"]
    return normalize_query_type(term) in [normalize_query_type(t) for t in place.get("text_matches", [])]


def result_record(place: dict) -> dict:
    return {
        "place_id": place["place_id"],
        "name": place["name"],
        "geometry": {"location": {"lat": place["lat"], "lng": place["lon"]}},
        "types": place["types"],
        "vicinity": place["vicinity"],
    }


def record_grid(responses: dict, grid, entries) -> None:
    for cell in grid.cells:
        for kind, term in entries:
            hits = [
                p for p in PLACES
                if matches(p, kind, term) and haversine_m(cell.center, GeoPoint(p["lat"], p["lon"])) <= cell.circumradius_m
            ]
            hits.sort(key=lambda p: p["place_id"])
            key = canonical_query(kind, cell.center, cell.circumradius_m, term)
            responses[key] = {"status": "OK" if hits else "ZERO_RESULTS", "results": [result_record(p) for p in hits]}


def demo_responses() -> dict[str, dict]:
    """The recorded response of every query the demo harvest and densify grids issue."""
    plan = load_plan(default_plan_path())
    responses: dict[str, dict] = {}
    record_grid(responses, make_grid(DEFAULT_REGION, 8, 8), [(e.kind, e.term) for e in plan])
    record_grid(responses, make_grid(DEFAULT_REGION, 15, 15), [("text", q) for q in DENSIFY_TEXT_QUERIES])
    return responses


def main() -> None:
    responses = demo_responses()
    out = REPO / "demo" / "fixtures" / "places.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(responses, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(responses)} recorded responses -> {out}")


if __name__ == "__main__":
    main()
