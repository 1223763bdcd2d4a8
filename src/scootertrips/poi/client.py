"""The Places harvest: a recorded-fixture client, one query function and the
grid harvest loop.

Fixtures map a canonical query string to the recorded response JSON, so
harvests replay deterministically with no credentials. `harvest` queries
every (cell, plan entry) pair, re-queries capped cells on a finer grid and
appends what it finds to the caller's list, which therefore holds every POI
found so far when the budget runs out or the client fails.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from ..errors import BudgetExhausted, ClientError, InvalidConfig
from ..geo import GeoPoint, GridCell, GridSpec, is_valid_point, subdivide_cell
from ..jsonio import decode, read_json
from .catalog import RawPoi

log = logging.getLogger(__name__)

MAX_RESULTS_PER_QUERY = 20  # server-side cap regardless of how many places exist
RETRIABLE_STATUSES = ("OVER_QUERY_LIMIT", "UNKNOWN_ERROR")
DENSIFY_TEXT_QUERIES = ("condo", "lodging", "park", "restaurant", "subway station")
RETRIES = 2  # re-attempts of a query answered with a retriable status
MAX_SUBDIVISION_DEPTH = 2  # 2x2 re-query levels below a capped grid cell


@dataclass
class QueryBudget:
    max_queries: int
    used: int = 0

    def spend(self) -> None:
        if self.used >= self.max_queries:
            raise BudgetExhausted(self.max_queries)
        self.used += 1


@dataclass(frozen=True)
class QueryPlanEntry:
    kind: str  # nearby | text
    term: str

    def __post_init__(self):
        if self.kind not in ("nearby", "text"):
            raise InvalidConfig(f"plan entry kind must be nearby or text, got {self.kind!r}")


def load_plan(path) -> list[QueryPlanEntry]:
    return decode(list[QueryPlanEntry], read_json(path, "plan", "queries"), f"plan {path}", path="queries")


def normalize_query_type(text_query: str) -> str:
    return re.sub(r"\s+", "_", text_query.strip().lower())


def canonical_query(kind: str, center: GeoPoint, radius_m: float, term: str) -> str:
    tag = "type" if kind == "nearby" else "q"
    return f"{kind}|{center.lat:.6f},{center.lon:.6f}|r={radius_m:.1f}|{tag}={term}"


class FixturePlacesClient:
    """Replays recorded responses from a directory of JSON maps.

    An unrecorded query returns ZERO_RESULTS, as a real empty answer would,
    and counts in `misses`: the harvest stage reports it as
    unrecorded_queries, so a grid or bbox that differs from the recording
    shows up as misses close to the query count.
    """

    def __init__(self, fixtures_dir):
        self.fixtures_dir = Path(fixtures_dir)
        self.misses = 0
        self._responses: dict[str, dict] = {}
        files = sorted(self.fixtures_dir.glob("*.json"))
        if not files:
            raise InvalidConfig(f"no fixture files found in {self.fixtures_dir}")
        for f in files:
            self._responses.update(decode(dict, read_json(f, "fixture file"), f"fixture file {f}"))

    def search(self, kind: str, center: GeoPoint, radius_m: float, term: str) -> dict:
        hit = self._responses.get(canonical_query(kind, center, radius_m, term))
        if hit is None:
            self.misses += 1
            return {"status": "ZERO_RESULTS", "results": []}
        return hit


def _malformed(entry: QueryPlanEntry, center: GeoPoint, radius_m: float, what: str) -> ClientError:
    key = canonical_query(entry.kind, center, radius_m, entry.term)
    return ClientError(f"MALFORMED_RESPONSE {key}: {what}", retriable=False)


def query_places(client, entry: QueryPlanEntry, center: GeoPoint, radius_m: float, budget: QueryBudget) -> list[RawPoi]:
    """Run one plan entry at center within radius_m and parse its first
    MAX_RESULTS_PER_QUERY results; a full page means the server cap was hit.

    Every attempt spends budget; a retriable status is retried up to RETRIES
    times. Nearby results take the term as query type, text results the
    normalized query. A response that is not an object with a results
    list, or a result without a usable location, place id or types list, is
    a fatal ClientError naming the query (and the field).
    """
    for attempt in range(RETRIES + 1):
        budget.spend()
        payload = client.search(entry.kind, center, radius_m, entry.term)
        if not isinstance(payload, dict) or not isinstance(payload.get("results", []), list):
            raise _malformed(entry, center, radius_m, "not an object with a results list")
        status = payload.get("status", "OK")
        if status in ("OK", "ZERO_RESULTS"):
            break
        retriable = status in RETRIABLE_STATUSES
        if not retriable or attempt == RETRIES:
            raise ClientError(status, retriable=retriable)
        log.warning("retriable client error %s; retry %d/%d", status, attempt + 1, RETRIES)
    query_type = entry.term if entry.kind == "nearby" else normalize_query_type(entry.term)
    out = []
    for rec in payload.get("results", [])[:MAX_RESULTS_PER_QUERY]:
        field = "geometry.location"  # the field being read, for the error message
        try:
            loc = rec["geometry"]["location"]
            field = "geometry.location.lat"
            lat = float(loc["lat"])
            field = "geometry.location.lng"
            lon = float(loc["lng"])
            field = "place_id"
            place_id = str(rec["place_id"])
            field = "types"
            types = tuple(rec.get("types", ()))
        except (KeyError, TypeError, ValueError):
            raise _malformed(entry, center, radius_m, f"no usable {field} in a result") from None
        if not is_valid_point(lat, lon):
            log.warning("skipping result %s with out-of-range location", place_id)
            continue
        out.append(
            RawPoi(
                place_id=place_id,
                name=str(rec.get("name", "")),
                position=GeoPoint(lat, lon),
                predefined_types=types,
                vicinity=str(rec.get("vicinity", "")),
                query_type=query_type,
                source=entry.kind,
            )
        )
    return out


def harvest(client, grid: GridSpec, plan: Sequence[QueryPlanEntry], budget: QueryBudget, pois: list[RawPoi],
            cells: Iterable[int] | None = None) -> tuple[int, int]:
    """Query every (cell, plan entry) pair at the cell center with its
    circumradius and append the results to pois; returns (queries, queries
    that hit the result cap).

    A capped query is re-run on a 2x2 subdivision of its cell, down to
    MAX_SUBDIVISION_DEPTH. On budget exhaustion or a client error the
    exception propagates and pois holds every result found so far.
    """
    if not plan:
        raise InvalidConfig("harvest plan must not be empty")
    cell_list = grid.cells if cells is None else [grid.cells[i] for i in cells]
    queue: list[tuple[GridCell, QueryPlanEntry, int]] = [(c, e, 0) for c in cell_list for e in plan]
    truncated = 0
    for cell, entry, depth in queue:  # the loop also visits the subdivisions appended below
        got = query_places(client, entry, cell.center, cell.circumradius_m, budget)
        pois.extend(got)
        if len(got) == MAX_RESULTS_PER_QUERY:
            truncated += 1
            if depth < MAX_SUBDIVISION_DEPTH:
                queue.extend((sub, entry, depth + 1) for sub in subdivide_cell(cell))
    return len(queue), truncated


def select_low_density_cells(grid: GridSpec, pois: Sequence[RawPoi], fraction: float = 0.25) -> list[int]:
    """Indices of the lowest-POI-density grid cells (ties break by cell index)."""
    if not 0 < fraction <= 1:
        raise InvalidConfig(f"fraction must be in (0, 1], got {fraction}")
    counts = [0] * len(grid.cells)
    for p in pois:
        if grid.bbox.contains(p.position.lat, p.position.lon):
            counts[grid.cell_index_of(p.position.lat, p.position.lon)] += 1
    k = max(1, int(len(grid.cells) * fraction))
    ranked = sorted(range(len(grid.cells)), key=lambda i: (counts[i], i))
    return sorted(ranked[:k])
