"""Independent reference checks for one `scootertrips run` output directory.

Nothing here imports scootertrips. Trips are re-extracted from the feed file
with this module's own parser and pair scan, POIs are matched by brute-force
haversine over catalog.json, and matrices are rebuilt from
assoc_within_cutoff.csv. Each check returns failure messages; an empty list
means the outputs are correct.
"""

from __future__ import annotations

import csv
import json
from datetime import datetime
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np

from workloads import (
    BBOX,
    CADENCE_S,
    COLOCATION_EPS_M,
    CUTOFF_M,
    DAY_END_MIN,
    DAY_START_MIN,
    MAX_DISPLACEMENT_M,
    MIN_DISPLACEMENT_M,
    SRC,
    TIMEZONE,
    Inputs,
    haversine,
)

TAXONOMY = SRC / "scootertrips" / "data" / "taxonomy.json"
BUFFER_SPECS = SRC / "scootertrips" / "data" / "buffers.json"
SLOTS = (("morning", 420, 660), ("lunch", 660, 840), ("afternoon", 840, 1020), ("evening", 1020, 1140),
         ("night", 1140, 1260))
DIST_TOL_M = 1e-6
RING_TOL_M = 0.5  # merged parents sit at their 6-decimal rounded location
NEAR_BAND_M = 300.0
MAX_MESSAGES = 20

_TZ = ZoneInfo(TIMEZONE)
_ts_cache: dict[str, int] = {}


def parse_ts(text: str) -> int:
    t = _ts_cache.get(text)
    if t is None:
        t = int(datetime.fromisoformat(text.replace("Z", "+00:00")).timestamp())
        _ts_cache[text] = t
    return t


def local_fields(ts: np.ndarray):
    """Local (date ordinal, minute of day, weekday) per epoch second."""
    uniq, inverse = np.unique(ts, return_inverse=True)
    local = [datetime.fromtimestamp(int(t), tz=_TZ) for t in uniq]
    day = np.array([d.toordinal() for d in local], dtype=np.int64)
    minute = np.array([d.hour * 60 + d.minute for d in local], dtype=np.int64)
    weekday = np.array([d.weekday() for d in local], dtype=np.int64)
    return day[inverse], minute[inverse], weekday[inverse]


def _is_null(raw) -> bool:
    return raw is None or str(raw).strip().lower() in ("", "null")


# --- feed --------------------------------------------------------------------------------


def read_feed(path: Path, fmt: str):
    """Per-record columns: batch index, epoch seconds, raw id, lat, lon."""
    batch, ts, ids, lat, lon = [], [], [], [], []
    if fmt == "jsonl":
        with open(path, "r", encoding="utf-8") as fh:
            for b, line in enumerate(fh):
                obj = json.loads(line)
                recs = obj["scooters"]
                t = parse_ts(obj["ts"])
                batch.extend([b] * len(recs))
                ts.extend([t] * len(recs))
                ids.extend([r["id"] for r in recs])
                lat.extend([r["lat"] for r in recs])
                lon.extend([r["lon"] for r in recs])
    else:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            prev, b = None, -1
            for row_ts, rid, la, lo in reader:
                if row_ts != prev:
                    prev, b = row_ts, b + 1
                batch.append(b)
                ts.append(parse_ts(row_ts))
                ids.append(rid)
                lat.append(float(la))
                lon.append(float(lo))
    return (np.asarray(batch, dtype=np.int64), np.asarray(ts, dtype=np.int64), ids,
            np.asarray(lat, dtype=np.float64), np.asarray(lon, dtype=np.float64))


def extract(feed: Path, fmt: str):
    """Raw trips and ingest counts: nulls and later duplicate ids dropped,
    consecutive sightings on one local day more than 1 m apart."""
    batch, ts, ids, lat, lon = read_feed(feed, fmt)
    n_batches = int(batch[-1]) + 1 if batch.size else 0
    code_of: dict[str, int] = {}
    codes = np.array([-1 if _is_null(r) else code_of.setdefault(str(r), len(code_of)) for r in ids], dtype=np.int64)
    id_list = list(code_of)
    nonnull = np.nonzero(codes >= 0)[0]
    _, first = np.unique(batch[nonnull] * (len(id_list) + 1) + codes[nonnull], return_index=True)
    keep = np.sort(nonnull[first])
    counts = {
        "batches": n_batches,
        "retained": int(keep.size),
        "dropped_null_id": int(len(ids) - nonnull.size),
        "dropped_duplicate_id": int(nonnull.size - keep.size),
        "input_records": len(ids),
    }
    code, ts, lat, lon = codes[keep], ts[keep], lat[keep], lon[keep]
    order = np.lexsort((ts, code))
    code, ts, lat, lon = code[order], ts[order], lat[order], lon[order]
    day, _, _ = local_fields(ts)
    pair = np.nonzero((code[1:] == code[:-1]) & (day[1:] == day[:-1]))[0]
    disp = haversine(lat[pair], lon[pair], lat[pair + 1], lon[pair + 1])
    moved = disp > COLOCATION_EPS_M
    i = pair[moved]
    raw = {
        "sid": [id_list[c] for c in code[i]],
        "start": ts[i], "end": ts[i + 1],
        "olat": lat[i], "olon": lon[i], "dlat": lat[i + 1], "dlon": lon[i + 1],
        "disp": disp[moved],
    }
    phase = int(ts.min()) % CADENCE_S if ts.size else 0
    return raw, counts, phase


def clean(raw: dict):
    """Keep mask plus the cleaning report counts for raw trips."""
    d = raw["disp"]
    _, smin, _ = local_fields(raw["start"])
    _, emin, _ = local_fields(raw["end"])
    in_hours = (smin >= DAY_START_MIN) & (smin < DAY_END_MIN) & (emin >= DAY_START_MIN) & (emin < DAY_END_MIN)
    in_dist = (d >= MIN_DISPLACEMENT_M) & (d <= MAX_DISPLACEMENT_M)
    keep = in_hours & in_dist
    report = {
        "input_count": int(d.size),
        "kept": int(keep.sum()),
        "removed_hours": int((~in_hours).sum()),
        "removed_distance": int((in_hours & ~in_dist).sum()),
        "under_5m": int((d < 5.0).sum()),
        "under_10m": int((d < 10.0).sum()),
        "under_20m": int((d < 20.0).sum()),
    }
    return keep, report


def trip_key(sid, start, end, olat, olon, dlat, dlon):
    return (sid, int(start), int(end), float(olat), float(olon), float(dlat), float(dlon))


def read_csv_rows(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def row_key(row: dict):
    return (row["scooter_id"], parse_ts(row["start_ts"]), parse_ts(row["end_ts"]), float(row["origin_lat"]),
            float(row["origin_lon"]), float(row["dest_lat"]), float(row["dest_lon"]))


# --- individual checks -----------------------------------------------------------------------


def check_trips(inputs: Inputs, out: Path, manifest: dict, errors: list[str]):
    """Re-extract and clean; compare trips.csv, the cleaning report and ingest counts."""
    raw, counts, phase = extract(inputs.feed, inputs.feed_format)
    keep, report = clean(raw)
    for name, want in counts.items():
        got = manifest["stages"]["ingest"].get(name)
        if got != want:
            errors.append(f"ingest.{name}: manifest {got}, reference {want}")
    if manifest["stages"]["extract"]["raw_trips"] != report["input_count"]:
        errors.append(f"raw trips: manifest {manifest['stages']['extract']['raw_trips']}, reference {report['input_count']}")
    with open(out / "cleaning_report.json", "r", encoding="utf-8") as fh:
        got_report = json.load(fh)
    if got_report != report:
        errors.append(f"cleaning report {got_report} != reference {report}")

    idx = np.nonzero(keep)[0]
    want = {}
    for i in idx:
        want[trip_key(raw["sid"][i], raw["start"][i], raw["end"][i], raw["olat"][i], raw["olon"][i],
                      raw["dlat"][i], raw["dlon"][i])] = float(raw["disp"][i])
    rows = read_csv_rows(out / "trips.csv")
    got = {row_key(r): float(r["displacement_m"]) for r in rows}
    if len(got) != len(rows):
        errors.append(f"trips.csv has {len(rows) - len(got)} repeated trips")
    if got.keys() != want.keys():
        missing = len(want.keys() - got.keys())
        extra = len(got.keys() - want.keys())
        errors.append(f"trips.csv differs from reference: {missing} missing, {extra} unexpected of {len(want)}")
    else:
        bad = sum(1 for k, d in got.items() if abs(d - want[k]) > DIST_TOL_M)
        if bad:
            errors.append(f"trips.csv: {bad} displacements differ from reference haversine")
    return want, phase


def check_truth(truth_path: Path, trips: dict, phase: int, cadence: int, errors: list[str]) -> dict:
    """Every recoverable truth trip appears exactly, within one cadence of its true times."""
    with open(truth_path, "r", encoding="utf-8") as fh:
        truth = json.load(fh)["trips"]
    by_scooter: dict[str, list[dict]] = {}
    for t in truth:
        by_scooter.setdefault(t["scooter_id"], []).append(t)
    by_slot = {(k[0], k[1], k[2]): k for k in trips}
    stats = {"truth": len(truth), "recoverable": 0, "matched": 0, "max_start_err_s": 0.0, "max_end_err_s": 0.0}
    for sid, items in by_scooter.items():
        items.sort(key=lambda t: t["start_epoch_s"])
        for i, t in enumerate(items):
            s, e = t["start_epoch_s"], t["end_epoch_s"]
            t1 = phase + int(np.floor((s - phase) / cadence)) * cadence
            t2 = phase + int(np.ceil((e - phase) / cadence)) * cadence
            prev_end = items[i - 1]["end_epoch_s"] if i else None
            next_start = items[i + 1]["start_epoch_s"] if i + 1 < len(items) else None
            same_day = datetime.fromtimestamp(t1, tz=_TZ).date() == datetime.fromtimestamp(t2, tz=_TZ).date()
            moved = haversine(t["origin_lat"], t["origin_lon"], t["dest_lat"], t["dest_lon"]) > COLOCATION_EPS_M
            if not ((prev_end is None or prev_end <= t1) and (next_start is None or next_start >= t2) and same_day and moved):
                continue
            stats["recoverable"] += 1
            hit = by_slot.get((sid, t1, t2))
            if hit is None or hit[3:] != (t["origin_lat"], t["origin_lon"], t["dest_lat"], t["dest_lon"]):
                continue
            start_err, end_err = s - hit[1], hit[2] - e
            if not (0 <= start_err < cadence and 0 <= end_err < cadence):
                errors.append(f"truth trip {sid}@{s}: timing error ({start_err}, {end_err}) outside one cadence")
                continue
            stats["matched"] += 1
            stats["max_start_err_s"] = max(stats["max_start_err_s"], start_err)
            stats["max_end_err_s"] = max(stats["max_end_err_s"], end_err)
    if stats["recoverable"] == 0 or stats["matched"] != stats["recoverable"]:
        errors.append(f"truth recall: {stats['matched']} of {stats['recoverable']} recoverable trips matched")
    return stats


def load_catalog(out: Path):
    with open(out / "catalog.json", "r", encoding="utf-8") as fh:
        cat = json.load(fh)
    ids = [p["id"] for p in cat]
    lat = np.array([p["lat"] for p in cat], dtype=np.float64)
    lon = np.array([p["lon"] for p in cat], dtype=np.float64)
    return cat, ids, lat, lon


def nearest_two(qlat, qlon, plat, plon, rank):
    """Two nearest POIs per query by (haversine, id rank), exact.

    Queries are taken in latitude order, in chunks; each chunk scans only the
    POIs within NEAR_BAND_M of its latitude span. Any POI outside the band is
    at least that far away, so a chunk row whose second-nearest lies inside
    the band is exact; other rows are rescanned against every POI.
    """
    n = qlat.size
    best = np.zeros((n, 2), dtype=np.int64)
    dist = np.zeros((n, 2), dtype=np.float64)
    by_lat = np.argsort(plat, kind="stable")
    slat = plat[by_lat]
    band_deg = np.degrees(NEAR_BAND_M / 6_371_000.0)

    def top2(rows, cols):
        d = haversine(qlat[rows, None], qlon[rows, None], plat[None, cols], plon[None, cols])
        r = np.broadcast_to(rank[cols], d.shape)
        out_i = np.empty((rows.size, 2), dtype=np.int64)
        out_d = np.empty((rows.size, 2), dtype=np.float64)
        for k in range(min(2, cols.size)):
            dmin = d.min(axis=1)
            j = np.where(d == dmin[:, None], r, np.iinfo(np.int64).max).argmin(axis=1)
            out_i[:, k] = cols[j]
            out_d[:, k] = dmin
            d[np.arange(rows.size), j] = np.inf
        if cols.size < 2:
            out_i[:, 1] = out_i[:, 0]
            out_d[:, 1] = np.inf
        return out_i, out_d

    order = np.argsort(qlat, kind="stable")
    everything = np.arange(plat.size)
    for c in range(0, n, 256):
        rows = order[c : c + 256]
        lo = np.searchsorted(slat, qlat[rows].min() - band_deg, side="left")
        hi = np.searchsorted(slat, qlat[rows].max() + band_deg, side="right")
        cols = by_lat[lo:hi]
        i2, d2 = top2(rows, cols) if cols.size else (None, None)
        exact = np.zeros(rows.size, dtype=bool) if i2 is None else d2[:, 1] < NEAR_BAND_M
        if i2 is not None:
            best[rows[exact]] = i2[exact]
            dist[rows[exact]] = d2[exact]
        if (~exact).any():
            i2, d2 = top2(rows[~exact], everything)
            best[rows[~exact]] = i2
            dist[rows[~exact]] = d2
    return best, dist


def _same_rank(d_got: float, d_best: float) -> bool:
    """The program's pick ranks first when it ties the reference's pick in distance."""
    return abs(d_got - d_best) <= DIST_TOL_M


def check_assoc(trips: dict, out: Path, catalog, errors: list[str]) -> list[dict]:
    """Nearest POI per endpoint, same-POI origin reassignment, and the 50 m cutoff file."""
    _, ids, plat, plon = catalog
    index_of = {pid: i for i, pid in enumerate(ids)}
    rank = np.argsort(np.argsort(np.array(ids, dtype=object)))
    region = [k for k in trips
              if BBOX["min_lat"] <= k[3] <= BBOX["max_lat"] and BBOX["min_lon"] <= k[4] <= BBOX["max_lon"]
              and BBOX["min_lat"] <= k[5] <= BBOX["max_lat"] and BBOX["min_lon"] <= k[6] <= BBOX["max_lon"]]
    rows = read_csv_rows(out / "assoc.csv")
    got = {row_key(r): r for r in rows}
    if len(got) != len(rows) or got.keys() != set(region):
        errors.append(f"assoc.csv trips ({len(rows)}) differ from the region-cropped reference trips ({len(region)})")
        return []
    keys = list(got)
    k = np.array([key[3:] for key in keys], dtype=np.float64).reshape(-1, 4)
    o_best, o_dist = nearest_two(k[:, 0], k[:, 1], plat, plon, rank)
    d_best, d_dist = nearest_two(k[:, 2], k[:, 3], plat, plon, rank)
    bad = []
    for n, key in enumerate(keys):
        r = got[key]
        op, dp = index_of.get(r["origin_poi"]), index_of.get(r["dest_poi"])
        if op is None or dp is None:
            bad.append(f"{key[0]}@{key[1]}: unknown POI {r['origin_poi']!r}/{r['dest_poi']!r}")
            continue
        d_to_o = float(haversine(k[n, 0], k[n, 1], plat[op], plon[op]))
        d_to_d = float(haversine(k[n, 2], k[n, 3], plat[dp], plon[dp]))
        od_shared = float(haversine(k[n, 0], k[n, 1], plat[dp], plon[dp]))
        reassigned = r["origin_reassigned"] == "true"
        ok = _same_rank(d_to_d, d_dist[n, 0])
        if reassigned:  # destination POI was the origin's nearest; origin took its second
            ok = ok and op != dp and _same_rank(od_shared, o_dist[n, 0]) and _same_rank(d_to_o, o_dist[n, 1])
        else:
            ok = ok and _same_rank(d_to_o, o_dist[n, 0]) and (op != dp or len(ids) == 1)
        ok = ok and abs(float(r["origin_dist_m"]) - d_to_o) <= DIST_TOL_M
        ok = ok and abs(float(r["dest_dist_m"]) - d_to_d) <= DIST_TOL_M
        if not ok:
            bad.append(f"{key[0]}@{key[1]}: got {r['origin_poi']}/{r['dest_poi']} reassigned={reassigned}, "
                       f"reference nearest {ids[o_best[n, 0]]},{ids[o_best[n, 1]]}/{ids[d_best[n, 0]]}")
    if bad:
        errors.append(f"association differs from brute force on {len(bad)} trips, e.g. {bad[0]}")
    within = [r for r in rows if float(r["origin_dist_m"]) <= CUTOFF_M and float(r["dest_dist_m"]) <= CUTOFF_M]
    cut_rows = read_csv_rows(out / "assoc_within_cutoff.csv")
    if cut_rows != within:
        errors.append(f"assoc_within_cutoff.csv: {len(cut_rows)} rows, expected the {len(within)} within {CUTOFF_M} m")
    return cut_rows


def _read_matrix(path: Path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0][1:], [r[0] for r in rows[1:]], np.array([[int(x) for x in r[1:]] for r in rows[1:]], dtype=np.int64)


def check_matrices(cut_rows: list[dict], out: Path, catalog, drilldowns, errors: list[str]) -> None:
    """Rebuild every purpose matrix and drill-down from assoc_within_cutoff.csv."""
    with open(TAXONOMY, "r", encoding="utf-8") as fh:
        groups = json.load(fh)["groups"]
    cat = {p["id"]: p for p in catalog[0]}
    pos = {g: i for i, g in enumerate(groups)}
    start = np.array([parse_ts(r["start_ts"]) for r in cut_rows], dtype=np.int64)
    _, minute, weekday = local_fields(start) if start.size else (start, start, start)
    og = np.array([pos[cat[r["origin_poi"]]["group"]] for r in cut_rows], dtype=np.int64)
    dg = np.array([pos[cat[r["dest_poi"]]["group"]] for r in cut_rows], dtype=np.int64)
    n = len(groups)

    def matrix(mask):
        return np.bincount(og[mask] * n + dg[mask], minlength=n * n).reshape(n, n)

    everything = np.ones(len(cut_rows), dtype=bool)
    want = {"overall": matrix(everything)}
    files = {"overall": "matrix_overall.csv"}
    for label, lo, hi in SLOTS:
        want[label] = matrix((minute >= lo) & (minute < hi))
        files[label] = f"matrix_slot_{label}.csv"
    want["weekday"] = matrix(weekday < 5)
    want["weekend"] = matrix(weekday >= 5)
    files.update(weekday="matrix_weekday.csv", weekend="matrix_weekend.csv")
    got = {}
    for key, name in files.items():
        header, labels, counts = _read_matrix(out / name)
        got[key] = counts
        if header != groups or labels != groups:
            errors.append(f"{name}: group axis {header} is not the taxonomy order {groups}")
        elif not np.array_equal(counts, want[key]):
            errors.append(f"{name}: counts differ from the matrix rebuilt from assoc_within_cutoff.csv")
    if got["overall"].shape == (n, n):
        if not np.array_equal(sum(got[label] for label, _, _ in SLOTS), got["overall"]):
            errors.append("slot matrices do not sum to the overall matrix")
        if not np.array_equal(got["weekday"] + got["weekend"], got["overall"]):
            errors.append("weekday + weekend matrices do not equal the overall matrix")
    long_want = [[key, groups[i], groups[j], str(int(want[key][i, j]))]
                 for key in ("overall",) + tuple(s[0] for s in SLOTS) + ("weekday", "weekend")
                 for i in range(n) for j in range(n)]
    with open(out / "matrices_long.csv", "r", encoding="utf-8", newline="") as fh:
        long_got = list(csv.reader(fh))[1:]
    if long_got != long_want:
        errors.append("matrices_long.csv differs from the rebuilt matrices")
    for spec in drilldowns:
        o_group, d_group = spec.split(":", 1)
        cell: dict[tuple[str, str], int] = {}
        for r in cut_rows:
            o, d = cat[r["origin_poi"]], cat[r["dest_poi"]]
            if o["group"] == o_group and d["group"] == d_group:
                key = (o["primary_type"], d["primary_type"])
                cell[key] = cell.get(key, 0) + 1
        safe = f"{o_group}_{d_group}".replace("/", "-").replace(" ", "_")
        with open(out / f"drill_{safe}.csv", "r", encoding="utf-8", newline="") as fh:
            drill = {(r["origin_type"], r["dest_type"]): int(r["count"]) for r in csv.DictReader(fh)}
        if drill != cell:
            errors.append(f"drill_{safe}.csv differs from the rebuilt drill-down")


def _selects(selector: dict, poi: dict) -> bool:
    if "id" in selector:
        return poi["id"] == selector["id"]
    if "name" in selector:
        return poi["name"] == selector["name"]
    if "name_contains" in selector:
        return str(selector["name_contains"]).lower() in poi["name"].lower()
    return poi["primary_type"] == selector.get("primary_type")


def check_catalog(catalog, errors: list[str]) -> dict:
    """Unique 6-decimal locations, buffers on their rings, groups from the taxonomy."""
    cat, ids, plat, plon = catalog
    with open(TAXONOMY, "r", encoding="utf-8") as fh:
        taxonomy = json.load(fh)
    with open(BUFFER_SPECS, "r", encoding="utf-8") as fh:
        specs = json.load(fh)["specs"]
    locations = {(round(p["lat"], 6), round(p["lon"], 6)) for p in cat}
    if len(locations) != len(cat):
        errors.append(f"catalog: {len(cat) - len(locations)} POIs share a 6-decimal location")
    if len(set(ids)) != len(ids):
        errors.append("catalog: repeated POI ids")
    wrong_group = [p["id"] for p in cat if p["group"] not in taxonomy["groups"]
                   or taxonomy["mapping"].get(p["primary_type"]) != p["group"]]
    if wrong_group:
        errors.append(f"catalog: {len(wrong_group)} POIs outside the taxonomy, e.g. {wrong_group[0]}")
    by_id = {p["id"]: p for p in cat}
    off_ring = []
    buffers = [p for p in cat if p["source"] == "buffer"]
    for b in buffers:
        parent = by_id.get(b["parent_id"])
        if parent is None:
            off_ring.append(f"{b['id']}: parent {b['parent_id']} not in catalog")
            continue
        radii = [s["radius_m"] for s in specs if _selects(s["selector"], parent)]
        radii += [s["ring2"]["radius_m"] for s in specs if s.get("ring2") and _selects(s["selector"], parent)]
        d = float(haversine(b["lat"], b["lon"], parent["lat"], parent["lon"]))
        if not any(abs(d - r) <= RING_TOL_M for r in radii):
            off_ring.append(f"{b['id']}: {d:.2f} m from parent, rings {radii}")
    if off_ring:
        errors.append(f"catalog: {len(off_ring)} buffer POIs off their ring, e.g. {off_ring[0]}")
    return {
        "size": len(cat),
        "buffers": len(buffers),
        "buffer_parents": len({b["parent_id"] for b in buffers}),
        "multiple": sum(1 for p in cat if p["primary_type"] == "multiple"),
        "text": sum(1 for p in cat if p["source"] == "text"),
    }


def check_run(inputs: Inputs, out: Path, drilldowns) -> tuple[list[str], dict]:
    """Every reference check for one run; returns (failures, facts)."""
    errors: list[str] = []
    with open(out / "manifest.json", "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("status") != "ok":
        return [f"manifest status {manifest.get('status')!r} at stage {manifest.get('failed_stage')!r}"], {}
    trips, phase = check_trips(inputs, out, manifest, errors)
    facts: dict = {"trips": len(trips)}
    if inputs.truth is not None:
        facts["truth"] = check_truth(inputs.truth, trips, phase, CADENCE_S, errors)
    catalog = load_catalog(out)
    facts["catalog"] = check_catalog(catalog, errors)
    if inputs.workload == "poi-dense":
        c = facts["catalog"]
        if not (c["multiple"] and c["text"] and c["buffer_parents"] >= 3):
            errors.append(f"poi-dense catalog lacks merges, text places or buffer rings: {c}")
    cut_rows = check_assoc(trips, out, catalog, errors)
    facts["within_cutoff"] = len(cut_rows)
    check_matrices(cut_rows, out, catalog, drilldowns, errors)
    return errors[:MAX_MESSAGES], facts
