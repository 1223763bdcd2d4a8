"""Places-style search clients and the grid harvest driver.

Harvests query a recorded-fixture client. Fixtures map a canonical query string
to the recorded response JSON, so harvests replay deterministically with no
credentials.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from ..errors import BudgetExhausted, ClientError, InvalidConfig
from ..geo import GeoPoint, GridCell, GridSpec, is_valid_point, subdivide_cell
from .catalog import RawPoi

log = logging.getLogger(__name__)

MAX_RESULTS_PER_QUERY = 20  # server-side cap regardless of how many places exist
RETRIABLE_STATUSES = ("OVER_QUERY_LIMIT", "UNKNOWN_ERROR")
DENSIFY_TEXT_QUERIES = ("condo", "lodging", "park", "restaurant", "subway station")


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
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return [QueryPlanEntry(kind=e["kind"], term=e["term"]) for e in obj["queries"]]


def normalize_query_type(text_query: str) -> str:
    return re.sub(r"\s+", "_", text_query.strip().lower())


def canonical_query(kind: str, center: GeoPoint, radius_m: float, term: str) -> str:
    tag = "type" if kind == "nearby" else "q"
    return f"{kind}|{center.lat:.6f},{center.lon:.6f}|r={radius_m:.1f}|{tag}={term}"


class FixturePlacesClient:
    """Replays recorded responses from a directory of JSON maps.

    Unrecorded queries return ZERO_RESULTS by default (the recorded corpus is
    assumed to cover everything that exists); pass strict=True to error instead.
    """

    def __init__(self, fixtures_dir, strict: bool = False):
        self.fixtures_dir = Path(fixtures_dir)
        self.strict = strict
        self.misses = 0
        self._responses: dict[str, dict] = {}
        files = sorted(self.fixtures_dir.glob("*.json"))
        if not files:
            raise InvalidConfig(f"no fixture files found in {self.fixtures_dir}")
        for f in files:
            with open(f, "r", encoding="utf-8") as fh:
                blob = json.load(fh)
            if not isinstance(blob, dict):
                raise InvalidConfig(f"fixture file {f} must hold an object mapping query -> response")
            self._responses.update(blob)

    def search(self, kind: str, center: GeoPoint, radius_m: float, term: str) -> dict:
        key = canonical_query(kind, center, radius_m, term)
        hit = self._responses.get(key)
        if hit is None:
            if self.strict:
                raise ClientError(f"NO_FIXTURE:{key}", retriable=False)
            self.misses += 1
            return {"status": "ZERO_RESULTS", "results": []}
        return hit


def _parse_results(payload: dict, query_type: str, source: str) -> list[RawPoi]:
    status = payload.get("status", "OK")
    if status not in ("OK", "ZERO_RESULTS"):
        raise ClientError(status, retriable=status in RETRIABLE_STATUSES)
    out = []
    for rec in payload.get("results", [])[:MAX_RESULTS_PER_QUERY]:
        loc = rec["geometry"]["location"]
        lat, lon = float(loc["lat"]), float(loc["lng"])
        if not is_valid_point(lat, lon):
            log.warning("skipping result %s with out-of-range location", rec.get("place_id"))
            continue
        out.append(
            RawPoi(
                place_id=str(rec["place_id"]),
                name=str(rec.get("name", "")),
                position=GeoPoint(lat, lon),
                predefined_types=tuple(rec.get("types", ())),
                vicinity=str(rec.get("vicinity", "")),
                query_type=query_type,
                source=source,
            )
        )
    return out


def fetch_nearby(client, center: GeoPoint, radius_m: float, type_: str, budget: QueryBudget) -> tuple[list[RawPoi], bool]:
    """One nearby search; truncated=True means the 20-result cap was hit."""
    budget.spend()
    payload = client.search("nearby", center, radius_m, type_)
    pois = _parse_results(payload, query_type=type_, source="nearby")
    return pois, len(pois) == MAX_RESULTS_PER_QUERY


def fetch_text(client, query: str, center: GeoPoint, radius_m: float, budget: QueryBudget) -> list[RawPoi]:
    """One text search; results may lack a matching predefined type."""
    budget.spend()
    payload = client.search("text", center, radius_m, query)
    return _parse_results(payload, query_type=normalize_query_type(query), source="text")


@dataclass
class QueryRecord:
    cell: tuple[int, int]
    depth: int
    kind: str
    term: str
    center: GeoPoint
    radius_m: float
    results: int
    truncated: bool


@dataclass
class HarvestReport:
    queries: list[QueryRecord] = field(default_factory=list)
    truncated_queries: int = 0
    failed: bool = False
    failure: str | None = None


@dataclass
class HarvestResult:
    pois: list[RawPoi]
    report: HarvestReport


def _run_query(client, cell: GridCell, entry: QueryPlanEntry, budget: QueryBudget, depth: int, retries: int):
    attempt = 0
    while True:
        try:
            if entry.kind == "nearby":
                pois, truncated = fetch_nearby(client, cell.center, cell.circumradius_m, entry.term, budget)
            else:
                pois = fetch_text(client, entry.term, cell.center, cell.circumradius_m, budget)
                truncated = len(pois) == MAX_RESULTS_PER_QUERY
            return pois, truncated
        except ClientError as exc:
            if exc.retriable and attempt < retries:
                attempt += 1
                log.warning("retriable client error %s; retry %d/%d", exc.status, attempt, retries)
                continue
            raise


def harvest(
    client,
    grid: GridSpec,
    plan: Sequence[QueryPlanEntry],
    budget: QueryBudget,
    *,
    cells: Iterable[int] | None = None,
    max_subdivision_depth: int = 2,
    retries: int = 2,
) -> HarvestResult:
    """Query every (cell, plan entry) pair at the cell center with its circumradius.

    Queries that hit the 20-result cap are re-run on a 2x2 subdivision of the
    cell, up to max_subdivision_depth, while budget allows. On budget
    exhaustion or a fatal client error the partial result rides along on the
    raised exception (.partial).
    """
    if not plan:
        raise InvalidConfig("harvest plan must not be empty")
    report = HarvestReport()
    pois: list[RawPoi] = []
    cell_list = list(grid.cells) if cells is None else [grid.cells[i] for i in cells]
    queue: list[tuple[GridCell, QueryPlanEntry, int]] = [(c, e, 0) for c in cell_list for e in plan]
    pos = 0
    try:
        while pos < len(queue):
            cell, entry, depth = queue[pos]
            pos += 1
            got, truncated = _run_query(client, cell, entry, budget, depth, retries)
            pois.extend(got)
            report.queries.append(
                QueryRecord(
                    cell=(cell.row, cell.col),
                    depth=depth,
                    kind=entry.kind,
                    term=entry.term,
                    center=cell.center,
                    radius_m=cell.circumradius_m,
                    results=len(got),
                    truncated=truncated,
                )
            )
            if truncated:
                report.truncated_queries += 1
                if depth < max_subdivision_depth:
                    for sub in subdivide_cell(cell):
                        queue.append((sub, entry, depth + 1))
    except (BudgetExhausted, ClientError) as exc:
        report.failed = True
        report.failure = str(exc)
        exc.partial = HarvestResult(pois=pois, report=report)
        raise
    return HarvestResult(pois=pois, report=report)


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
