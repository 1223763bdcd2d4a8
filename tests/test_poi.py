import json

import pytest

from scootertrips.errors import (
    BudgetExhausted,
    ClientError,
    InvalidConfig,
    MissingTypes,
    TargetNotFound,
    UnmappedPrimaryType,
)
from scootertrips.geo import Bbox, GeoPoint, haversine_m, make_grid, offset_azimuthal, subdivide_cell
from scootertrips.poi.catalog import (
    MULTIPLE_TYPE,
    BufferRing,
    BufferSpec,
    GroupTaxonomy,
    ManualEntry,
    Poi,
    RawPoi,
    add_manual_pois,
    assign_groups,
    assign_primary,
    collapse_harvest_duplicates,
    dedupe_and_merge,
    exclude_primary_types,
    generate_buffers,
    load_buffer_specs,
    load_catalog,
    load_taxonomy,
    location_key,
    normalize_catalog,
    save_catalog,
)
from scootertrips.poi.client import (
    MAX_SUBDIVISION_DEPTH,
    RETRIES,
    FixturePlacesClient,
    QueryBudget,
    QueryPlanEntry,
    canonical_query,
    harvest,
    query_places,
    select_low_density_cells,
)

from conftest import CITY

BBOX = Bbox(GeoPoint(33.748379, -84.405623), GeoPoint(33.789279, -84.359615))


def result(place_id, lat, lon, types, name=None, vicinity="123 Main St"):
    return {
        "place_id": place_id,
        "name": name or place_id,
        "geometry": {"location": {"lat": lat, "lng": lon}},
        "types": types,
        "vicinity": vicinity,
    }


def fixture_client(tmp_path, responses):
    d = tmp_path / "fixtures"
    d.mkdir(exist_ok=True)
    with open(d / "responses.json", "w") as fh:
        json.dump(responses, fh)
    return FixturePlacesClient(d)


NEARBY = QueryPlanEntry("nearby", "restaurant")


class TestClient:
    def test_nearby_echoes_fixture(self, tmp_path):
        key = canonical_query("nearby", CITY, 400.0, "restaurant")
        client = fixture_client(
            tmp_path,
            {key: {"status": "OK", "results": [result(f"r{i}", 33.77, -84.39, ["restaurant"]) for i in range(3)]}},
        )
        pois = query_places(client, NEARBY, CITY, 400.0, QueryBudget(10))
        assert len(pois) == 3
        assert all(p.source == "nearby" and p.query_type == "restaurant" for p in pois)

    def test_cap_at_20_sets_truncated(self, tmp_path):
        grid = make_grid(BBOX, 1, 1)
        cell = grid.cells[0]
        key = canonical_query("nearby", cell.center, cell.circumradius_m, "restaurant")
        client = fixture_client(
            tmp_path,
            {key: {"status": "OK", "results": [result(f"r{i}", 33.77, -84.39, ["restaurant"]) for i in range(25)]}},
        )
        pois = []
        assert harvest(client, grid, [NEARBY], QueryBudget(10), pois) == (5, 1)  # the capped query and its 4 quarters
        assert len(pois) == 20

    def test_budget_exhausted(self, tmp_path):
        client = fixture_client(tmp_path, {})
        budget = QueryBudget(max_queries=1)
        query_places(client, NEARBY, CITY, 400.0, budget)
        with pytest.raises(BudgetExhausted):
            query_places(client, NEARBY, CITY, 400.0, budget)
        assert budget.used == 1

    def test_text_search_source_and_query_type(self, tmp_path):
        key = canonical_query("text", CITY, 400.0, "apartment")
        client = fixture_client(
            tmp_path, {key: {"status": "OK", "results": [result("apt1", 33.77, -84.39, [])]}}
        )
        pois = query_places(client, QueryPlanEntry("text", "apartment"), CITY, 400.0, QueryBudget(10))
        assert pois[0].source == "text" and pois[0].query_type == "apartment"

    def test_text_query_type_normalized(self, tmp_path):
        key = canonical_query("text", CITY, 400.0, "subway station")
        client = fixture_client(
            tmp_path, {key: {"status": "OK", "results": [result("st1", 33.77, -84.39, ["subway_station"])]}}
        )
        pois = query_places(client, QueryPlanEntry("text", "subway station"), CITY, 400.0, QueryBudget(10))
        assert pois[0].query_type == "subway_station"

    def test_missing_fixture_returns_empty(self, tmp_path):
        client = fixture_client(tmp_path, {})
        pois = query_places(client, QueryPlanEntry("text", "condo"), CITY, 400.0, QueryBudget(10))
        assert pois == [] and client.misses == 1

    def test_error_status_raises(self, tmp_path):
        key = canonical_query("nearby", CITY, 400.0, "restaurant")
        client = fixture_client(tmp_path, {key: {"status": "REQUEST_DENIED", "results": []}})
        budget = QueryBudget(10)
        with pytest.raises(ClientError) as err:
            query_places(client, NEARBY, CITY, 400.0, budget)
        assert err.value.retriable is False
        assert budget.used == 1  # a fatal status is not retried

    def test_over_query_limit_is_retriable(self, tmp_path):
        key = canonical_query("nearby", CITY, 400.0, "restaurant")
        client = fixture_client(tmp_path, {key: {"status": "OVER_QUERY_LIMIT", "results": []}})
        budget = QueryBudget(10)
        with pytest.raises(ClientError) as err:
            query_places(client, NEARBY, CITY, 400.0, budget)
        assert err.value.retriable is True
        assert budget.used == RETRIES + 1  # the first attempt and every retry

    @pytest.mark.parametrize("damage, field", [
        (lambda rec: rec["geometry"].pop("location"), "geometry.location"),
        (lambda rec: rec["geometry"]["location"].update(lat="north"), "geometry.location.lat"),
        (lambda rec: rec.pop("place_id"), "place_id"),
        (lambda rec: rec.update(types=5), "types"),
    ], ids=["no-location", "text-lat", "no-place-id", "number-types"])
    def test_malformed_result_is_fatal_and_names_query_and_field(self, tmp_path, damage, field):
        key = canonical_query("nearby", CITY, 400.0, "restaurant")
        rec = result("r0", 33.77, -84.39, ["restaurant"])
        damage(rec)
        client = fixture_client(tmp_path, {key: {"status": "OK", "results": [rec]}})
        with pytest.raises(ClientError) as err:
            query_places(client, NEARBY, CITY, 400.0, QueryBudget(10))
        assert err.value.retriable is False
        assert key in str(err.value) and f"no usable {field} in a result" in str(err.value)

    @pytest.mark.parametrize("response", [["OK"], {"status": "OK", "results": 7}], ids=["list", "number-results"])
    def test_malformed_response_is_fatal_and_names_query(self, tmp_path, response):
        key = canonical_query("nearby", CITY, 400.0, "restaurant")
        client = fixture_client(tmp_path, {key: response})
        with pytest.raises(ClientError, match="not an object with a results list") as err:
            query_places(client, NEARBY, CITY, 400.0, QueryBudget(10))
        assert err.value.retriable is False and key in str(err.value)


class TestHarvest:
    def test_query_per_cell(self, tmp_path):
        client = fixture_client(tmp_path, {})
        grid = make_grid(BBOX, 8, 8)
        budget = QueryBudget(1000)
        pois = []
        assert harvest(client, grid, [NEARBY], budget, pois) == (64, 0)
        assert budget.used == 64 and client.misses == 64 and pois == []

    def test_budget_smaller_than_plan(self, tmp_path):
        grid = make_grid(BBOX, 8, 8)
        responses = {
            canonical_query("nearby", cell.center, cell.circumradius_m, "restaurant"): {
                "status": "OK", "results": [result(f"r{i}", cell.center.lat, cell.center.lon, ["restaurant"])],
            }
            for i, cell in enumerate(grid.cells)
        }
        client = fixture_client(tmp_path, responses)
        budget = QueryBudget(10)
        pois = []
        with pytest.raises(BudgetExhausted):
            harvest(client, grid, [NEARBY], budget, pois)
        assert budget.used == 10
        assert [p.place_id for p in pois] == [f"r{i}" for i in range(10)]  # every query run before the budget ran out

    def test_truncated_cells_subdivided(self, tmp_path):
        grid = make_grid(BBOX, 2, 2)
        cell = grid.cells[0]
        capped = [result(f"r{i}", cell.center.lat, cell.center.lon, ["restaurant"]) for i in range(20)]
        responses = {canonical_query("nearby", cell.center, cell.circumradius_m, "restaurant"):
                     {"status": "OK", "results": capped}}
        sub = subdivide_cell(cell)[0]  # capped again: re-queried one level deeper
        responses[canonical_query("nearby", sub.center, sub.circumradius_m, "restaurant")] = {
            "status": "OK", "results": capped}
        client = fixture_client(tmp_path, responses)
        budget = QueryBudget(1000)
        pois = []
        # 4 base queries, 4 on the capped cell's quarters, 4 on the capped quarter's quarters
        assert MAX_SUBDIVISION_DEPTH == 2
        assert harvest(client, grid, [NEARBY], budget, pois) == (12, 2)
        assert len(pois) == 40 and budget.used == 12

    def test_subdivision_stops_at_max_depth(self, tmp_path):
        class CappedClient:
            def search(self, kind, center, radius_m, term):
                return {"status": "OK", "results": [result(f"r{i}", center.lat, center.lon, ["bar"]) for i in range(20)]}

        queries, truncated = harvest(CappedClient(), make_grid(BBOX, 1, 1), [QueryPlanEntry("nearby", "bar")],
                                     QueryBudget(100), [])
        assert queries == truncated == 1 + 4 + 16  # depth 0, 1 and 2; the depth-2 quarters are not split

    def test_empty_plan_rejected(self, tmp_path):
        client = fixture_client(tmp_path, {})
        with pytest.raises(InvalidConfig):
            harvest(client, make_grid(BBOX, 2, 2), [], QueryBudget(10), [])

    def test_deterministic_given_fixtures(self, tmp_path):
        grid = make_grid(BBOX, 3, 3)
        responses = {}
        for i, cell in enumerate(grid.cells):
            key = canonical_query("nearby", cell.center, cell.circumradius_m, "bar")
            responses[key] = {
                "status": "OK",
                "results": [result(f"b{i}", cell.center.lat, cell.center.lon, ["bar"])],
            }
        client = fixture_client(tmp_path, responses)
        p1, p2 = [], []
        harvest(client, grid, [QueryPlanEntry("nearby", "bar")], QueryBudget(100), p1)
        harvest(client, grid, [QueryPlanEntry("nearby", "bar")], QueryBudget(100), p2)
        assert p1 == p2 and len(p1) == 9

    def test_retriable_error_retried_then_succeeds(self):
        class FlakyClient:
            def __init__(self):
                self.calls = 0

            def search(self, kind, center, radius_m, term):
                self.calls += 1
                if self.calls == 1:
                    return {"status": "OVER_QUERY_LIMIT", "results": []}
                return {"status": "OK", "results": []}

        client = FlakyClient()
        grid = make_grid(BBOX, 1, 1)
        budget = QueryBudget(10)
        assert harvest(client, grid, [QueryPlanEntry("nearby", "bar")], budget, []) == (1, 0)
        assert client.calls == 2
        assert budget.used == 2  # failed attempts spend budget too

    def test_fatal_error_carries_partial_results(self, tmp_path):
        grid = make_grid(BBOX, 2, 1)
        first = grid.cells[0]
        key = canonical_query("nearby", first.center, first.circumradius_m, "bar")
        responses = {
            key: {"status": "OK", "results": [result("b0", first.center.lat, first.center.lon, ["bar"])]},
            canonical_query("nearby", grid.cells[1].center, grid.cells[1].circumradius_m, "bar"): {
                "status": "REQUEST_DENIED",
                "results": [],
            },
        }
        client = fixture_client(tmp_path, responses)
        pois = []
        with pytest.raises(ClientError):
            harvest(client, grid, [QueryPlanEntry("nearby", "bar")], QueryBudget(10), pois)
        assert [p.place_id for p in pois] == ["b0"]

    def test_low_density_cell_selection(self):
        grid = make_grid(BBOX, 2, 2)
        dense_cell = grid.cells[3]
        pois = [
            RawPoi(f"p{i}", f"p{i}", GeoPoint(dense_cell.center.lat, dense_cell.center.lon), ("bar",), "", "bar", "nearby")
            for i in range(5)
        ]
        low = select_low_density_cells(grid, pois, fraction=0.75)
        assert low == [0, 1, 2]


class TestAssignPrimary:
    def test_nearby_first_type(self):
        raw = RawPoi("p1", "spot", CITY, ("bar", "restaurant"), "5 Main St", "restaurant", "nearby")
        poi = assign_primary(raw)
        assert poi.primary_type == "bar"
        assert poi.predefined_types == ("bar", "restaurant")

    def test_text_prepends_query_type(self):
        raw = RawPoi("p2", "flats", CITY, (), "9 Oak St", "apartment", "text")
        poi = assign_primary(raw)
        assert poi.primary_type == "apartment"
        assert poi.predefined_types == ("apartment",)

    def test_text_prepend_is_idempotent(self):
        raw = RawPoi("p2", "flats", CITY, ("apartment", "establishment"), "9 Oak St", "apartment", "text")
        poi = assign_primary(raw)
        assert poi.predefined_types == ("apartment", "establishment")
        assert poi.primary_type in poi.predefined_types

    def test_nearby_without_types_fatal(self):
        raw = RawPoi("p3", "ghost", CITY, (), "", "bar", "nearby")
        with pytest.raises(MissingTypes):
            assign_primary(raw)


class TestManual:
    def test_thirteen_plus_three(self):
        entries = [ManualEntry(f"Office {i}", 33.75 + i * 1e-3, -84.39, "corporate_office") for i in range(13)]
        entries += [
            ManualEntry(n, 33.78 + i * 1e-3, -84.38, "neighborhood")
            for i, n in enumerate(["Midtown", "Old Fourth Ward", "Virginia Highlands"])
        ]
        catalog = add_manual_pois([], entries)
        assert len(catalog) == 16
        assert all(p.source == "manual" for p in catalog)

    def test_empty_is_noop(self):
        base = add_manual_pois([], [ManualEntry("X", 33.75, -84.39, "corporate_office")])
        assert add_manual_pois(base, []) == base

    def test_duplicate_position_allowed_here(self):
        entries = [
            ManualEntry("A", 33.75, -84.39, "corporate_office"),
            ManualEntry("B", 33.75, -84.39, "bank"),
        ]
        assert len(add_manual_pois([], entries)) == 2


def poi(pid, position, primary, source="nearby", name=None, types=None, vicinity="1 St", query_type=None):
    types = tuple(types) if types is not None else (primary,)
    return Poi(
        id=pid,
        name=name or pid,
        position=position,
        predefined_types=types,
        primary_type=primary,
        source=source,
        vicinity=vicinity,
        query_type=query_type if query_type is not None else (primary if source == "nearby" else None),
    )


class TestBuffers:
    def spec(self, selector, count, radius, ring2=None):
        return BufferSpec(count=count, radius_m=radius, selector=selector, ring2=BufferRing(*ring2) if ring2 else None)

    def test_aquarium_ring(self):
        parent = poi("aq", CITY, "aquarium", name="Georgia Aquarium")
        out = generate_buffers([parent], [self.spec({"name_contains": "Aquarium"}, 8, 90.0)])
        buffers = [p for p in out if p.source == "buffer"]
        assert len(buffers) == 8
        for b in buffers:
            assert haversine_m(parent.position, b.position) == pytest.approx(90.0, rel=1e-3)
            assert b.parent_id == "aq"
            assert b.primary_type == "aquarium"
        # even spacing: adjacent buffers ~ 2*R*sin(pi/8) apart
        import math

        expected_gap = 2 * 90.0 * math.sin(math.pi / 8)
        gaps = [haversine_m(buffers[i].position, buffers[(i + 1) % 8].position) for i in range(8)]
        assert all(g == pytest.approx(expected_gap, rel=1e-3) for g in gaps)

    def test_neighborhood_double_ring(self):
        parent = poi("nb", CITY, "neighborhood", source="manual", name="Midtown")
        out = generate_buffers([parent], [self.spec({"primary_type": "neighborhood"}, 8, 140.0, ring2=(16, 290.0))])
        buffers = [p for p in out if p.source == "buffer"]
        assert len(buffers) == 24
        inner = [b for b in buffers if haversine_m(parent.position, b.position) < 200]
        outer = [b for b in buffers if haversine_m(parent.position, b.position) >= 200]
        assert len(inner) == 8 and len(outer) == 16
        for b in inner:
            assert haversine_m(parent.position, b.position) == pytest.approx(140.0, rel=1e-3)
        for b in outer:
            assert haversine_m(parent.position, b.position) == pytest.approx(290.0, rel=1e-3)

    def test_station_ring_20m(self):
        parent = poi("st", CITY, "subway_station", name="Five Points Station")
        out = generate_buffers([parent], [self.spec({"primary_type": "subway_station"}, 8, 20.0)])
        buffers = [p for p in out if p.source == "buffer"]
        assert len(buffers) == 8
        for b in buffers:
            assert haversine_m(parent.position, b.position) == pytest.approx(20.0, rel=1e-3)

    def test_missing_target(self):
        with pytest.raises(TargetNotFound):
            generate_buffers([poi("x", CITY, "bar")], [self.spec({"name_contains": "Aquarium"}, 8, 90.0)])


class TestDedupe:
    def test_query_type_mismatch_removed(self):
        # one place fetched under both bar and restaurant; first predefined type is bar
        spot = lambda qt: poi("place1", CITY, "bar", types=("bar", "restaurant"), query_type=qt)
        merged, report = dedupe_and_merge([spot("restaurant"), spot("bar")])
        assert len(merged) == 1
        assert merged[0].query_type == "bar" or merged[0].source == "merged"
        assert report.query_type_duplicates_removed == 1

    def test_text_results_exempt_from_query_filter(self):
        a = poi("t1", CITY, "apartment", source="text", types=("apartment",), query_type="apartment")
        b = poi("t1", offset_azimuthal(CITY, 0, 50), "condo", source="text", types=("condo",), query_type="condo")
        merged, report = dedupe_and_merge([a, b])
        assert len(merged) == 2
        assert report.query_type_duplicates_removed == 0

    def test_atlanta_vicinity_dropped(self):
        bad = poi("g1", CITY, "restaurant", vicinity="Atlanta")
        good = poi("g2", offset_azimuthal(CITY, 0, 100), "restaurant", vicinity="12 Main St, Atlanta")
        merged, report = dedupe_and_merge([bad, good])
        assert [p.id for p in merged] == ["g2"]
        assert report.atlanta_vicinity_removed == 1

    def test_colocated_distinct_primaries_become_multiple(self):
        a = poi("a", CITY, "restaurant")
        b = poi("b", CITY, "bar")
        merged, _ = dedupe_and_merge([a, b])
        assert len(merged) == 1
        m = merged[0]
        assert m.primary_type == MULTIPLE_TYPE
        assert sorted(m.predefined_types) == ["bar", "restaurant"]
        assert m.source == "merged"

    def test_colocated_same_primary_keeps_it(self):
        a = poi("a", CITY, "restaurant")
        b = poi("b", CITY, "restaurant")
        merged, _ = dedupe_and_merge([a, b])
        assert len(merged) == 1
        assert merged[0].primary_type == "restaurant"

    def test_multiple_inherits_duplicate_primaries(self):
        pois = [poi("a", CITY, "restaurant"), poi("b", CITY, "restaurant"), poi("c", CITY, "bar")]
        merged, _ = dedupe_and_merge(pois)
        assert merged[0].primary_type == MULTIPLE_TYPE
        assert sorted(merged[0].predefined_types) == ["bar", "restaurant", "restaurant"]

    def test_no_colocated_pairs_after_merge(self):
        import numpy as np

        rng = np.random.default_rng(13)
        pois = []
        spots = [GeoPoint(round(float(rng.uniform(33.75, 33.78)), 6), round(float(rng.uniform(-84.40, -84.37)), 6)) for _ in range(30)]
        for i in range(100):
            spot = spots[int(rng.integers(len(spots)))]
            pois.append(poi(f"p{i}", spot, rng.choice(["bar", "restaurant", "cafe"])))
        merged, _ = dedupe_and_merge(pois)
        keys = [location_key(p) for p in merged]
        assert len(keys) == len(set(keys))

    def test_nearby_6dp_rounding_merges(self):
        a = poi("a", GeoPoint(33.7700004, -84.39), "restaurant")
        b = poi("b", GeoPoint(33.7699996, -84.39), "bar")
        merged, _ = dedupe_and_merge([a, b])
        assert len(merged) == 1 and merged[0].primary_type == MULTIPLE_TYPE


class TestGroups:
    def test_paper_named_memberships(self):
        tax = load_taxonomy()
        assert tax.group_of("bar") == "Recreation"
        assert tax.group_of("lawyer") == "Business"
        assert tax.group_of("subway_station") == "Transit"
        assert tax.group_of("restaurant") == "Food"
        assert tax.group_of("parking") == "Parking"
        assert tax.group_of("apartment") == "Residential"
        assert tax.group_of(MULTIPLE_TYPE) == "Multiple"

    def test_default_taxonomy_shape(self):
        tax = load_taxonomy()
        assert len(tax.groups) == 10
        assert len(tax.mapping) == 42

    def test_unmapped_type_fatal(self):
        tax = GroupTaxonomy(
            groups=tuple(f"G{i}" for i in range(10)),
            mapping={"bar": "G0"},
        )
        with pytest.raises(UnmappedPrimaryType):
            assign_groups([poi("x", CITY, "lawyer")], tax)

    def test_wrong_group_count_rejected(self):
        with pytest.raises(InvalidConfig):
            GroupTaxonomy(groups=("A", "B"), mapping={})

    def test_bus_station_excluded(self):
        pois = [poi("b1", CITY, "bus_station"), poi("b2", offset_azimuthal(CITY, 0, 100), "bar")]
        kept, removed = exclude_primary_types(pois)
        assert removed == 1
        assert all(p.primary_type != "bus_station" for p in kept)


class TestNormalizeAndPersistence:
    def test_normalize_end_to_end(self, tmp_path):
        tax = load_taxonomy()
        raws = [
            RawPoi("r1", "Diner", CITY, ("restaurant",), "2 St", "restaurant", "nearby"),
            RawPoi("r2", "Pub", offset_azimuthal(CITY, 10, 300), ("bar",), "3 St", "bar", "nearby"),
            RawPoi("aq", "Georgia Aquarium", offset_azimuthal(CITY, 200, 700), ("aquarium",), "4 St", "aquarium", "nearby"),
        ]
        manual = [ManualEntry("Midtown", 33.7838, -84.383, "neighborhood")]
        specs = [
            BufferSpec(8, 90.0, selector={"name_contains": "Aquarium"}),
            BufferSpec(8, 140.0, selector={"primary_type": "neighborhood"}, ring2=BufferRing(16, 290.0)),
        ]
        catalog, report = normalize_catalog(raws, tax, manual, specs)
        assert report.catalog_size == len(catalog)
        assert report.buffers_added == 8 + 24
        assert all(p.group is not None for p in catalog)
        path = tmp_path / "catalog.json"
        save_catalog(catalog, path)
        assert load_catalog(path) == catalog

    def test_repeat_retrievals_collapse_before_buffering(self):
        aquarium = RawPoi("aq", "Georgia Aquarium", CITY, ("aquarium",), "4 St", "aquarium", "nearby")
        raws = [aquarium, aquarium, aquarium]  # three overlapping query disks
        collapsed, n = collapse_harvest_duplicates(raws)
        assert len(collapsed) == 1 and n == 2
        # cross-query-type copies are semantic duplicates and must survive
        tavern_bar = RawPoi("tv", "Tavern", CITY, ("bar", "restaurant"), "5 St", "bar", "nearby")
        tavern_rest = RawPoi("tv", "Tavern", CITY, ("bar", "restaurant"), "5 St", "restaurant", "nearby")
        collapsed, n = collapse_harvest_duplicates([tavern_bar, tavern_rest])
        assert len(collapsed) == 2 and n == 0

    def test_normalize_keeps_buffer_parentage_for_repeat_retrievals(self):
        tax = load_taxonomy()
        aquarium = RawPoi("aq", "Georgia Aquarium", CITY, ("aquarium",), "4 St", "aquarium", "nearby")
        specs = [BufferSpec(8, 90.0, selector={"name_contains": "Aquarium"})]
        catalog, report = normalize_catalog([aquarium, aquarium], tax, (), specs)
        assert report.harvest_duplicates_collapsed == 1
        buffers = [p for p in catalog if p.source == "buffer"]
        assert len(buffers) == 8
        assert all(p.parent_id == "aq" for p in buffers)

    def test_place_from_nearby_and_text_query_is_ringed_once(self):
        tax = load_taxonomy()
        types = ("subway_station", "transit_station")
        nearby = RawPoi("st", "Five Points Station", CITY, types, "1 St", "subway_station", "nearby")
        text = RawPoi("st", "Five Points Station", CITY, types, "1 St", "subway_station", "text")
        specs = [BufferSpec(8, 20.0, selector={"primary_type": "subway_station"})]
        catalog, report = normalize_catalog([nearby, text], tax, (), specs)
        assert report.harvest_duplicates_collapsed == 0
        assert report.buffers_added == 8
        buffers = [p for p in catalog if p.source == "buffer"]
        assert len(buffers) == 8
        assert all(p.parent_id == "st" for p in buffers)
        assert [p.id for p in catalog if p.source == "merged"] == ["st"]  # the two copies of the station only

    def test_bundled_buffer_specs_parse(self):
        specs = load_buffer_specs()
        assert len(specs) == 4
        double = [s for s in specs if s.ring2 is not None]
        assert len(double) == 1
        assert double[0].ring2.count == 16
        assert double[0].ring2.radius_m == 290.0
