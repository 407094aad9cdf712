"""Seeded input generator for the pipeline benchmark (numpy and stdlib only).

It writes the files the pipeline reads: ``tracks.jsonl``, ``labels.csv``,
``runways.csv``, ``registration.csv`` and ``heli_types.txt``, plus a
``manifest.json`` that only the benchmark reads, holding what was planted so
the benchmark can check the program's outputs against it.

The generator does not import the program.  Its random stream belongs to the
benchmark, so a change to the program's own scenario generator cannot change
the benchmark's inputs.  The same seed and sizes give the same bytes.

Three traffic classes are flown in a frame aligned with the landing runway,
vectorised across the tracks of a class:

* helicopters fly curved, low paths to a pad 1.35 NM off the threshold of the
  primary runway, well clear of the final-approach corridor (175-289 points);
* general aviation joins a short final from an angled entry leg (181-490);
* commercial traffic flies a long stabilised final (199-333).

Points are one second apart.  A small known share of lines is malformed, and
a small known share of tracks is too short to window or never comes near a
runway.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

EARTH_RADIUS_KM = 6371.0088
NM = 1852.0                  # metres per nautical mile
KT = 1852.0 / 3600.0         # metres per second per knot
FT = 0.3048                  # metres per foot
T0 = 1_700_000_000.0

# (runway_id, east km, north km from the primary threshold, course deg, length ft)
PRIMARY = ("07L", 36.085, -115.137, 2145.0)
RUNWAY_LAYOUT = (
    ("07L", 0.0, 0.0, 71.0, 10500.0),
    ("07R", -0.5, 1.3, 71.0, 9000.0),
    ("25L", -0.5 + 2.7432 * math.sin(math.radians(71.0)),
     1.3 + 2.7432 * math.cos(math.radians(71.0)), 251.0, 9000.0),
    ("01", -3.0, -2.5, 11.0, 8000.0),
)

HELI_CATALOG = (("EC130 T2", "EUROCOPTER", "EC30"), ("R44 II", "ROBINSON", "R44"),
                ("206B", "BELL", "B06"), ("AS350 B2", "AIRBUS HELICOPTERS", "AS50"),
                ("S-76C", "SIKORSKY", "S76"))
GA_CATALOG = (("172S", "CESSNA", "C172"), ("PA-28-181", "PIPER", "P28A"),
              ("SR22", "CIRRUS", "SR22"))
COMMERCIAL_CATALOG = (("737-800", "BOEING", "B738"), ("A320-232", "AIRBUS", "A320"),
                      ("ERJ 170-200 LR", "EMBRAER", "E75L"))
_TAIL_LETTERS = "ABCDEFGHJKLMNPQRSTUVWXYZ"

# stream tags, so the draws for one purpose never depend on another's count
_S_HELI, _S_GA, _S_COMM, _S_IDENT, _S_PLANT, _S_ENROUTE = range(1, 7)


def runways(n: int) -> list[dict]:
    """The first n runways of the layout, thresholds as latitude/longitude."""
    _, lat0, lon0, elev = PRIMARY
    out = []
    for rid, east, north, course, length in RUNWAY_LAYOUT[:n]:
        lat = lat0 + math.degrees(north / EARTH_RADIUS_KM)
        lon = lon0 + math.degrees(east / (EARTH_RADIUS_KM * math.cos(math.radians(lat0))))
        out.append({"runway_id": rid, "threshold_lat": lat, "threshold_lon": lon,
                    "threshold_elev": elev, "centerline_course": course, "length": length})
    return out


# --------------------------------------------------------------------------
# flight models, in a frame whose +y axis points along the landing course

def _bearing(de, dn):
    return np.degrees(np.arctan2(de, dn)) % 360.0


def _steer(heading, desired, max_turn):
    err = (desired - heading + 180.0) % 360.0 - 180.0
    return heading + np.clip(err, -max_turn, max_turn)


def _unit(deg):
    r = np.radians(deg)
    return np.sin(r), np.cos(r)


class _Recorder:
    """Per-step samples of n tracks; a track stops recording once it ends."""

    def __init__(self, n: int):
        self.rows = []
        self.length = np.zeros(n, dtype=int)

    def add(self, alive, x, y, alt, hdg, gs):
        self.rows.append(np.stack([x, y, alt, hdg, gs]))
        self.length += alive

    def tracks(self, tails):
        data = np.stack(self.rows)          # (steps, 5, n)
        return [np.concatenate([data[:self.length[j], :, j], tails[j]])
                for j in range(data.shape[2])]


def _fly_commercial(rng, n, elev):
    d0 = rng.uniform(8.0, 11.0, n)
    v0 = rng.uniform(130.0, 175.0, n)
    tan_glide = rng.uniform(600.0, 900.0, n) / (v0 * 101.269)
    x = -rng.normal(0.0, 120.0, n)
    y = -d0 * NM
    hdg = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    rec = _Recorder(n)
    for _ in range(1200):
        dist = np.hypot(x, y)
        v = (0.85 + 0.15 * np.minimum(1.0, dist / (d0 * NM))) * v0
        alt = elev + tan_glide * dist / FT + rng.normal(0.0, 8.0, n)
        rec.add(alive, x, y, alt, hdg, v + rng.normal(0.0, 1.0, n))
        new_hdg = _steer(hdg, _bearing(-x, -y), 2.0) + rng.normal(0.0, 0.12, n)
        ux, uy = _unit(new_hdg)
        x = np.where(alive, x + v * KT * ux, x)
        y = np.where(alive, y + v * KT * uy, y)
        hdg = np.where(alive, new_hdg, hdg)
        alive &= y < 0.0
        if not alive.any():
            break
    last_gs = np.array([rec.rows[k - 1][4, j] for j, k in enumerate(rec.length)])
    tails = []
    for j in range(n):
        gs = np.maximum(25.0, last_gs[j] - 20.0 * np.arange(1, 7))
        yy = y[j] + np.cumsum(gs * KT)
        tails.append(np.column_stack([np.full(6, x[j]), yy, np.full(6, elev), np.zeros(6), gs]))
    return rec.tracks(tails)


def _fly_ga(rng, n, elev):
    final_d = rng.uniform(3.0, 5.5, n)
    entry_d = rng.uniform(1.5, 3.0, n)
    side = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    h1 = side * rng.uniform(25.0, 70.0, n)
    v0 = rng.uniform(65.0, 125.0, n)
    tan_glide = rng.uniform(400.0, 800.0, n) / (0.8 * v0 * 101.269)
    pattern_agl = rng.uniform(800.0, 1200.0, n)
    max_turn = rng.uniform(2.0, 3.5, n)
    turn_y = -final_d * NM
    ux, uy = _unit(h1)
    x = -entry_d * NM * ux
    y = turn_y - entry_d * NM * uy
    hdg = h1.copy()
    on_final = np.zeros(n, dtype=bool)
    alive = np.ones(n, dtype=bool)
    rec = _Recorder(n)
    for _ in range(1200):
        dist = np.hypot(x, y)
        on_final |= np.hypot(x, y - turn_y) < 350.0
        v = np.where(on_final, 0.8 * v0, v0)
        alt = elev + np.minimum(pattern_agl, tan_glide * dist / FT) + rng.normal(0.0, 10.0, n)
        rec.add(alive, x, y, alt, hdg, v + rng.normal(0.0, 1.2, n))
        desired = np.where(on_final, _bearing(-x, -y), _bearing(-x, turn_y - y))
        new_hdg = _steer(hdg, desired, max_turn) + rng.normal(0.0, 0.72, n)
        ux, uy = _unit(new_hdg)
        x = np.where(alive, x + v * KT * ux, x)
        y = np.where(alive, y + v * KT * uy, y)
        hdg = np.where(alive, new_hdg, hdg)
        alive &= y < 0.0
        if not alive.any():
            break
    last_gs = np.array([rec.rows[k - 1][4, j] for j, k in enumerate(rec.length)])
    tails = []
    for j in range(n):
        gs = np.maximum(15.0, last_gs[j] - 15.0 * np.arange(1, 5))
        yy = y[j] + np.cumsum(gs * KT)
        tails.append(np.column_stack([np.full(4, x[j]), yy, np.full(4, elev), np.zeros(4), gs]))
    return rec.tracks(tails)


_PAD_BEARING, _PAD_NM = 62.0, 1.35


def _fly_helicopter(rng, n, elev):
    pe, pn = _unit(_PAD_BEARING)
    pad_x, pad_y = _PAD_NM * NM * pe, _PAD_NM * NM * pn
    sx, sy = _unit(_PAD_BEARING + rng.uniform(-12.0, 12.0, n))
    d_start = rng.uniform(3.4, 4.2, n) * NM
    x, y = pad_x + d_start * sx, pad_y + d_start * sy
    v0 = rng.uniform(58.0, 88.0, n)
    agl0 = rng.uniform(800.0, 1100.0, n)
    wander = rng.uniform(0.02, 0.3, n)
    d0 = np.hypot(x - pad_x, y - pad_y)
    hdg = _bearing(pad_x - x, pad_y - y)
    alive = np.ones(n, dtype=bool)
    rec = _Recorder(n)
    for _ in range(900):
        to_pad = np.hypot(x - pad_x, y - pad_y)
        alive &= to_pad >= 60.0
        if not alive.any():
            break
        v = np.where(to_pad > 900.0, v0, np.maximum(14.0, v0 * to_pad / 900.0))
        agl = agl0 * (to_pad / d0) ** 1.1 + 25.0
        rec.add(alive, x, y, elev + agl, hdg, v)
        new_hdg = _steer(hdg, _bearing(pad_x - x, pad_y - y), 6.0) + rng.normal(0.0, wander)
        ux, uy = _unit(new_hdg)
        x = np.where(alive, x + v * KT * ux, x)
        y = np.where(alive, y + v * KT * uy, y)
        hdg = np.where(alive, new_hdg, hdg)
    flare = np.arange(6)
    tails = [np.column_stack([x[j] + rng.normal(0.0, 2.0, 6), y[j] + rng.normal(0.0, 2.0, 6),
                              elev + np.maximum(4.0, 20.0 - 4.0 * flare), np.full(6, hdg[j]),
                              np.maximum(2.0, 10.0 - 1.5 * flare)]) for j in range(n)]
    return rec.tracks(tails)


def _shape_ok(s: np.ndarray) -> bool:
    """Long enough, with closest approach late in the track."""
    if len(s) < 130:
        return False
    closest = int(np.argmin(np.hypot(s[:, 0], s[:, 1])))
    return closest >= 110 and closest >= len(s) - 20


def _heli_clear(s: np.ndarray) -> bool:
    """Outside the 0.85 NM threshold ring and the final-approach corridor."""
    if np.hypot(s[:, 0], s[:, 1]).min() < 0.85 * NM:
        return False
    along = s[:, 1] / NM
    in_box = (along > -5.5) & (along < 3.5) & (np.abs(s[:, 0]) / FT < 900.0)
    return not in_box.any()


_FLIERS = {"helicopter": (_fly_helicopter, _S_HELI, "H", HELI_CATALOG),
           "ga": (_fly_ga, _S_GA, "G", GA_CATALOG),
           "commercial": (_fly_commercial, _S_COMM, "C", COMMERCIAL_CATALOG)}


def _observe_helicopters(rng, tracks: list[np.ndarray]) -> None:
    """Add per-aircraft observation noise to altitude, course and speed.

    Every fifth helicopter flies in gusty air with four times the noise.  The
    share is fixed rather than drawn, so the number of noisy helicopters in a
    training or held-out split does not change from seed to seed.
    """
    for i, s in enumerate(tracks):
        scale = np.array([rng.uniform(6.0, 14.0), rng.uniform(2.0, 3.2), rng.uniform(0.6, 1.4)])
        if i % 5 == 4:
            scale *= 4.0
        flown = len(s) - 6     # the flare onto the pad is observed without noise
        s[:flown, 2:5] += rng.normal(0.0, 1.0, (flown, 3)) * scale


def _fly(seed: int, cls: str, n: int, elev: float) -> list[np.ndarray]:
    """n valid tracks of one class, as (points, 5) arrays: x, y, alt, heading, gs."""
    fly, tag, _, _ = _FLIERS[cls]
    out: list[np.ndarray] = []
    batch = 0
    while len(out) < n:
        rng = np.random.default_rng([seed, tag, batch])
        for s in fly(rng, int((n - len(out)) * 1.2) + 4, elev):
            if _shape_ok(s) and (cls != "helicopter" or _heli_clear(s)):
                out.append(s)
        batch += 1
    out = out[:n]
    if cls == "helicopter":
        _observe_helicopters(np.random.default_rng([seed, tag, batch]), out)
    return out


def _prepend_enroute(rng, s: np.ndarray, total: int) -> np.ndarray:
    """Extend an arrival backwards along its first heading to `total` points."""
    m = total - len(s)
    k = np.arange(m, 0, -1, dtype=float)
    ux, uy = _unit(s[0, 3])
    v = s[0, 4]
    x = s[0, 0] - k * v * KT * ux
    y = s[0, 1] - k * v * KT * uy
    alt = s[0, 2] + np.minimum(k * 4.0, 6000.0) + rng.normal(0.0, 8.0, m)
    hdg = s[0, 3] + rng.normal(0.0, 1.0, m)
    gs = v + rng.normal(0.0, 1.0, m)
    return np.concatenate([np.column_stack([x, y, alt, hdg, gs]), s])


# --------------------------------------------------------------------------
# wire format

def _to_points(s: np.ndarray, rw: dict, t0: float) -> np.ndarray:
    """Frame samples to wire points (t, lat, lon, alt, course, gs), rounded to
    the precision of a surveillance feed."""
    theta = math.radians(rw["centerline_course"])
    east = s[:, 0] * math.cos(theta) + s[:, 1] * math.sin(theta)
    north = -s[:, 0] * math.sin(theta) + s[:, 1] * math.cos(theta)
    r_m = EARTH_RADIUS_KM * 1000.0
    lat = rw["threshold_lat"] + np.degrees(north / r_m)
    lon = rw["threshold_lon"] + np.degrees(
        east / (r_m * math.cos(math.radians(rw["threshold_lat"]))))
    course = np.round(np.mod(s[:, 3] + rw["centerline_course"], 360.0), 2)
    course[course >= 360.0] = 0.0
    cols = [t0 + np.arange(len(s), dtype=float), np.round(lat, 6), np.round(lon, 6),
            np.round(np.maximum(rw["threshold_elev"], s[:, 2]), 1), course,
            np.round(np.maximum(0.0, s[:, 4]), 2)]
    return np.column_stack(cols)


_POINT = '{"t":%r,"lat":%r,"lon":%r,"alt":%r,"course":%r,"gs":%r}'


def _track_line(ident: dict, points: np.ndarray) -> str:
    head = json.dumps(ident, separators=(",", ":"))[:-1]
    body = ",".join([_POINT] * len(points)) % tuple(points.ravel().tolist())
    return f'{head},"points":[{body}]}}'


def _identity(rng, cls: str, idx: int, track_id: str, runway_id, catalog):
    """Wire identity fields and the registration row (or None), as synthgen draws them."""
    tail = "N" + str(301 + idx) + "".join(
        _TAIL_LETTERS[int(rng.integers(len(_TAIL_LETTERS)))] for _ in range(2))
    mode_s = f"A{idx:05X}"
    model, manufacturer, designator = catalog[int(rng.integers(len(catalog)))]
    u = rng.random()
    has_tail, has_mode_s = (True, True) if u < 0.78 else (False, True) if u < 0.90 else (False, False)
    u = rng.random()
    if cls == "helicopter":
        declared = (designator if u < 0.25 else ("HELO" if rng.random() < 0.5 else "HELI")
                    if u < 0.50 else "FLGT" if u < 0.60 else None)
        scratchpad, callsign = False, f"LIFE{10 + idx % 89}"
    else:
        declared = designator if u < 0.70 else None
        scratchpad = bool(rng.random() < (0.9 if cls == "commercial" else 0.5))
        callsign = f"SWA{100 + idx}" if cls == "commercial" else tail
    ident = {"track_id": track_id, "callsign": callsign}
    if has_mode_s:
        ident["mode_s"] = mode_s
    if has_tail:
        ident["tail_number"] = tail
    if declared is not None:
        ident["aircraft_type"] = declared
    ident["arrival_airport"] = "SYN"
    if runway_id is not None:
        ident["runway_id"] = runway_id
    ident["scratchpad_runway"] = scratchpad
    reg = None
    if has_tail or has_mode_s:
        reg = [tail, mode_s, model, manufacturer,
               "ROTORCRAFT" if cls == "helicopter" else "FIXED_WING", designator]
    return ident, reg


def _planted_share(n: int) -> int:
    return max(2, round(0.01 * n))


def generate(out_dir, seed: int, counts: dict, n_runways: int = 1,
             no_runway_id_share: float = 0.1, history_points: int = 0,
             plant: bool = True, id_prefix: str = "") -> dict:
    """Write one scenario into out_dir and return its manifest.

    counts maps class to number of tracks.  Fixed-wing traffic lands on a
    random one of the first n_runways runways and lacks runway_id with
    probability no_runway_id_share; helicopters never carry one.  With
    history_points > 0 each arrival gets an en-route segment prepended so
    that the track has about that many points.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rws = runways(n_runways)
    elev = PRIMARY[3]
    ident_rng = np.random.default_rng([seed, _S_IDENT])
    plant_rng = np.random.default_rng([seed, _S_PLANT])
    enroute_rng = np.random.default_rng([seed, _S_ENROUTE])

    lines: list[str] = []
    labels: list[tuple[str, str]] = []
    registration: list[list[str]] = []
    with_runway_id: list[str] = []
    n_points = 0
    idx = 0
    for cls, n in counts.items():
        _, _, prefix, catalog = _FLIERS[cls]
        for i, s in enumerate(_fly(seed, cls, n, elev)):
            if cls == "helicopter":
                rw, runway_id = rws[0], None
            else:
                rw = rws[int(ident_rng.integers(len(rws)))]
                runway_id = None if ident_rng.random() < no_runway_id_share else rw["runway_id"]
            if history_points:
                total = history_points + int(enroute_rng.integers(-100, 101))
                s = _prepend_enroute(enroute_rng, s, total)
            track_id = f"{id_prefix}{prefix}{i:04d}"
            ident, reg = _identity(ident_rng, cls, idx, track_id, runway_id, catalog)
            lines.append(_track_line(ident, _to_points(s, rw, T0 + 3600.0 * idx)))
            n_points += len(s)
            labels.append((track_id, cls))
            if runway_id is not None:
                with_runway_id.append(track_id)
            if reg is not None:
                registration.append(reg)
            idx += 1

    short_ids: list[str] = []
    far_ids: list[str] = []
    k = _planted_share(len(lines)) if plant else 0
    if plant:
        # too short: the last 60-90 points of a GA arrival
        for i, s in enumerate(_fly(seed + 1_000_003, "ga", k, elev)):
            tid = f"{id_prefix}S{i:04d}"
            s = s[-int(plant_rng.integers(60, 91)):]
            ident, _ = _identity(plant_rng, "ga", idx, tid, rws[0]["runway_id"], GA_CATALOG)
            lines.insert(int(plant_rng.integers(len(lines) + 1)),
                         _track_line(ident, _to_points(s, rws[0], T0 + 3600.0 * idx)))
            n_points += len(s)
            labels.append((tid, "ga"))
            short_ids.append(tid)
            with_runway_id.append(tid)
            idx += 1
        # never approaches: a commercial arrival displaced 25 NM sideways
        for i, s in enumerate(_fly(seed + 2_000_003, "commercial", k, elev)):
            tid = f"{id_prefix}F{i:04d}"
            s = s.copy()
            s[:, 0] += 25.0 * NM
            ident, _ = _identity(plant_rng, "commercial", idx, tid, None, COMMERCIAL_CATALOG)
            lines.insert(int(plant_rng.integers(len(lines) + 1)),
                         _track_line(ident, _to_points(s, rws[0], T0 + 3600.0 * idx)))
            n_points += len(s)
            labels.append((tid, "commercial"))
            far_ids.append(tid)
            idx += 1
        # malformed lines, each rejected by the loader for a different reason
        donor = lines[int(plant_rng.integers(len(lines)))]
        donor_id = json.loads(donor)["track_id"]
        for i in range(k):
            tid = f"{id_prefix}M{i:04d}"
            kind = i % 5
            if kind == 0:
                bad = donor.replace(donor_id, tid, 1)[: len(donor) // 2]      # invalid JSON
            elif kind == 1:
                bad = donor.replace(donor_id, tid, 1).replace('"lat":', '"lat":9', 1)   # lat out of range
            elif kind == 2:
                bad = donor.replace(donor_id, tid, 1).replace(',"gs":', ',"speed":', 1)  # missing gs
            elif kind == 3:
                bad = donor                                                    # duplicate track_id
            else:
                obj = json.loads(donor)                                        # time goes backwards
                obj["track_id"] = tid
                obj["points"][1]["t"] = obj["points"][0]["t"]
                bad = json.dumps(obj, separators=(",", ":"))
            # a duplicate must follow its original to be the one rejected
            lo = lines.index(donor) + 1 if kind == 3 else 0
            lines.insert(int(plant_rng.integers(lo, len(lines) + 1)), bad)

    with open(out_dir / "tracks.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for ln in lines:
            fh.write(ln)
            fh.write("\n")
    with open(out_dir / "labels.csv", "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["track_id", "class"])
        w.writerows(labels)
    with open(out_dir / "runways.csv", "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["runway_id", "threshold_lat", "threshold_lon", "threshold_elev",
                    "centerline_course", "length"])
        for rw in rws:
            w.writerow([rw["runway_id"]] + [repr(rw[k]) for k in (
                "threshold_lat", "threshold_lon", "threshold_elev", "centerline_course", "length")])
    with open(out_dir / "registration.csv", "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["n_number", "mode_s_code", "model", "manufacturer", "aircraft_class",
                    "type_designator"])
        w.writerows(registration)
    with open(out_dir / "heli_types.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# helicopter type designators\n")
        fh.writelines(d + "\n" for d in sorted({c[2] for c in HELI_CATALOG}))

    manifest = {
        "seed": seed,
        "runways": [rw["runway_id"] for rw in rws],
        "labels": dict(labels),
        "with_runway_id": with_runway_id,
        "malformed_lines": k,
        "short_ids": short_ids,
        "far_ids": far_ids,
        "points": n_points,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return manifest
