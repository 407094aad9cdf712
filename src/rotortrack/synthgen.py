"""Deterministic synthetic arrival scenarios for the identification pipeline.

Three traffic classes land at one synthetic airport: helicopters fly
curved, low-altitude paths to off-runway pads and stay out of the final
approach corridor; general aviation joins a short final from an angled
entry leg; commercial traffic flies a long stabilized final.  Every track
is produced from its own RNG stream derived from (scenario seed, class,
index), so output is byte-for-byte reproducible regardless of generation
order.

Ground-truth classes are returned as (track_id, class) pairs and are never
stored on the Track records themselves.  A matching synthetic registration
table and a helicopter type-designator list come with them, so the whole
pipeline, including validation, runs hermetically.  This module only
generates; the command line writes the files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trackdata import (
    CLASS_COMMERCIAL,
    CLASS_GA,
    CLASS_HELICOPTER,
    EARTH_RADIUS_KM,
    AircraftClass,
    RegistrationRecord,
    Runway,
    Track,
)

NM_TO_M = 1852.0
KT_TO_MPS = 1852.0 / 3600.0
FT_TO_M = 0.3048

DEFAULT_RUNWAY = Runway(
    runway_id="07L",
    threshold_lat=36.085,
    threshold_lon=-115.137,
    threshold_elev=2145.0,
    centerline_course=71.0,
    length=10500.0,
)

# Helicopters never enter this box around the final approach course, and
# never come closer to the threshold than the ring below.  Together these
# keep every helicopter's runway score under the default gate.
_CORRIDOR_HALF_WIDTH_FT = 900.0
_CORRIDOR_ALONG_NM = (-5.5, 3.5)
_HELI_MIN_THRESHOLD_NM = 0.85

# Helicopter arrival geometry: one fixed pad site expressed as (bearing offset
# from the runway course in degrees, range from the threshold in NM).  The pad
# sits well off the final-approach corridor, so the score gate holds for every
# generated helicopter.
_PAD_SITE = (62.0, 1.35)
_HELI_START_NM = (3.4, 4.2)
_HELI_START_BEARING_DEG = (-12.0, 12.0)   # the start's bearing from the pad, less the pad's
_HELI_SPEED_KT = (58.0, 88.0)
_HELI_WANDER_DEG = (0.02, 0.3)            # per-second heading noise of the flown path
_HELI_AGL0_FT = (800.0, 1100.0)
_HELI_ALT_NOISE_FT = (6.0, 14.0)
_HELI_GS_NOISE_KT = (0.6, 1.4)
_HELI_CRS_NOISE_DEG = (2.0, 3.2)
# A minority of flights run in gusty air with degraded track smoothing; their
# observation noise is several times the calm-day level.
_HELI_ROUGH_FRACTION = 0.2
_HELI_ROUGH_MULT = 4.0

# Fixed-wing sampling ranges, and each class's per-second heading noise on final.
_GA_SPEED_KT = (65.0, 125.0)
_GA_DESCENT_FPM = (400.0, 800.0)
_GA_TURN_DEG_S = (2.0, 3.5)
_GA_HEADING_NOISE_DEG = 6.0 * 0.12
_COMMERCIAL_SPEED_KT = (130.0, 175.0)
_COMMERCIAL_DESCENT_FPM = (600.0, 900.0)
_COMMERCIAL_HEADING_NOISE_DEG = 1.5 * 0.08

# Domain tag for the per-track seed sequences, so scenario streams never
# collide with other consumers of the same user seed.
_STREAM_DOMAIN = 10

HELI_CATALOG = (
    ("EC130 T2", "EUROCOPTER", "EC30"),
    ("R44 II", "ROBINSON", "R44"),
    ("206B", "BELL", "B06"),
    ("AS350 B2", "AIRBUS HELICOPTERS", "AS50"),
    ("S-76C", "SIKORSKY", "S76"),
)
GA_CATALOG = (
    ("172S", "CESSNA", "C172"),
    ("PA-28-181", "PIPER", "P28A"),
    ("SR22", "CIRRUS", "SR22"),
)
COMMERCIAL_CATALOG = (
    ("737-800", "BOEING", "B738"),
    ("A320-232", "AIRBUS", "A320"),
    ("ERJ 170-200 LR", "EMBRAER", "E75L"),
)


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioSpec:
    """The scenario's seed and its number of tracks per class: the config's synth section."""

    seed: int = 7
    helicopters: int = 100
    ga: int = 100
    commercial: int = 100

    def __post_init__(self):
        if min(self.seed, self.helicopters, self.ga, self.commercial) < 0:
            raise ScenarioError("seed and class counts must be >= 0")


def _unit(bearing_deg: float) -> tuple[float, float]:
    r = math.radians(bearing_deg)
    return math.sin(r), math.cos(r)


def _bearing(from_en: tuple[float, float], to_en: tuple[float, float]) -> float:
    return math.degrees(math.atan2(to_en[0] - from_en[0], to_en[1] - from_en[1])) % 360.0


def _steer(heading: float, desired: float, max_turn: float) -> float:
    err = (desired - heading + 180.0) % 360.0 - 180.0
    return heading + max(-max_turn, min(max_turn, err))


def _en_to_latlon(east_m: float, north_m: float, runway: Runway) -> tuple[float, float]:
    r_m = EARTH_RADIUS_KM * 1000.0
    lat = runway.threshold_lat + math.degrees(north_m / r_m)
    lon = runway.threshold_lon + math.degrees(
        east_m / (r_m * math.cos(math.radians(runway.threshold_lat))))
    return lat, lon


def _along_cross_nm(east_m: float, north_m: float, runway: Runway) -> tuple[float, float]:
    de, dn = _unit(runway.centerline_course)
    along = (east_m * de + north_m * dn) / NM_TO_M
    cross = (east_m * dn - north_m * de) / NM_TO_M
    return along, cross


@dataclass
class _Sample:
    east: float
    north: float
    alt: float
    heading: float
    gs: float


def _to_track(samples: list[_Sample], track_id: str, t0: float, identity: dict) -> Track:
    rw = DEFAULT_RUNWAY
    points = []
    for i, s in enumerate(samples):
        lat, lon = _en_to_latlon(s.east, s.north, rw)
        points.append((t0 + float(i), lat, lon, max(rw.threshold_elev, s.alt),
                       s.heading % 360.0, max(0.0, s.gs)))
    return Track(track_id=track_id, points=points, **identity)


def _distances_nm(samples: list[_Sample]) -> list[float]:
    return [math.hypot(s.east, s.north) / NM_TO_M for s in samples]


def _advance(pos: list[float], heading: float, v: float) -> None:
    """Move pos (east, north in meters) one second along heading at v knots."""
    step = v * KT_TO_MPS
    ue, un = _unit(heading)
    pos[0] += step * ue
    pos[1] += step * un


def _roll_out(samples: list[_Sample], pos: list[float], seconds: int, decel_kt: float,
              floor_kt: float) -> None:
    """Append a ground roll down the centerline, slowing by decel_kt a second to floor_kt."""
    rw = DEFAULT_RUNWAY
    v = samples[-1].gs
    for i in range(seconds):
        gs = max(floor_kt, v - decel_kt * (i + 1))
        _advance(pos, rw.centerline_course, gs)
        samples.append(_Sample(pos[0], pos[1], rw.threshold_elev, rw.centerline_course, gs))


def _fly_commercial(rng: np.random.Generator) -> list[_Sample]:
    rw = DEFAULT_RUNWAY
    theta = rw.centerline_course
    d0 = rng.uniform(8.0, 11.0)
    v0 = rng.uniform(*_COMMERCIAL_SPEED_KT)
    fpm = rng.uniform(*_COMMERCIAL_DESCENT_FPM)
    glide = math.atan2(fpm, v0 * 101.269)
    cross0 = rng.normal(0.0, 120.0)          # meters; decays as the final stabilizes

    de, dn = _unit(theta)
    pos = [-d0 * NM_TO_M * de - cross0 * dn, -d0 * NM_TO_M * dn + cross0 * de]
    heading = theta
    samples: list[_Sample] = []
    for _ in range(1200):
        dist_m = math.hypot(*pos)
        frac = min(1.0, dist_m / (d0 * NM_TO_M))
        v = (0.85 + 0.15 * frac) * v0
        alt = rw.threshold_elev + math.tan(glide) * dist_m / FT_TO_M + rng.normal(0.0, 8.0)
        samples.append(_Sample(pos[0], pos[1], alt, heading, v + rng.normal(0.0, 1.0)))
        desired = _bearing((pos[0], pos[1]), (0.0, 0.0))
        heading = _steer(heading, desired, 2.0) + rng.normal(0.0, _COMMERCIAL_HEADING_NOISE_DEG)
        _advance(pos, heading, v)
        along, _ = _along_cross_nm(pos[0], pos[1], rw)
        if along >= 0.0:
            break
    _roll_out(samples, pos, seconds=6, decel_kt=20.0, floor_kt=25.0)
    return samples


def _fly_ga(rng: np.random.Generator) -> list[_Sample]:
    rw = DEFAULT_RUNWAY
    theta = rw.centerline_course
    final_d = rng.uniform(3.0, 5.5)
    entry_d = rng.uniform(1.5, 3.0)
    side = 1.0 if rng.random() < 0.5 else -1.0
    entry_ang = side * rng.uniform(25.0, 70.0)
    v0 = rng.uniform(*_GA_SPEED_KT)
    fpm = rng.uniform(*_GA_DESCENT_FPM)
    glide = math.atan2(fpm, 0.8 * v0 * 101.269)
    pattern_agl = rng.uniform(800.0, 1200.0)
    max_turn = rng.uniform(*_GA_TURN_DEG_S)

    de, dn = _unit(theta)
    turn_pt = (-final_d * NM_TO_M * de, -final_d * NM_TO_M * dn)
    h1 = (theta + entry_ang) % 360.0
    ue, un = _unit(h1)
    pos = [turn_pt[0] - entry_d * NM_TO_M * ue, turn_pt[1] - entry_d * NM_TO_M * un]
    heading = h1
    samples: list[_Sample] = []
    on_final = False
    for _ in range(1200):
        dist_m = math.hypot(*pos)
        if not on_final and math.hypot(pos[0] - turn_pt[0], pos[1] - turn_pt[1]) < 350.0:
            on_final = True
        v = 0.8 * v0 if on_final else v0
        alt = rw.threshold_elev + min(pattern_agl,
                                      math.tan(glide) * dist_m / FT_TO_M) + rng.normal(0.0, 10.0)
        samples.append(_Sample(pos[0], pos[1], alt, heading, v + rng.normal(0.0, 1.2)))
        target = (0.0, 0.0) if on_final else turn_pt
        desired = _bearing((pos[0], pos[1]), target)
        heading = _steer(heading, desired, max_turn) + rng.normal(0.0, _GA_HEADING_NOISE_DEG)
        _advance(pos, heading, v)
        along, _ = _along_cross_nm(pos[0], pos[1], rw)
        if along >= 0.0:
            break
    _roll_out(samples, pos, seconds=4, decel_kt=15.0, floor_kt=15.0)
    return samples


def _fly_helicopter(rng: np.random.Generator) -> list[_Sample]:
    rw = DEFAULT_RUNWAY
    off, pad_r = _PAD_SITE
    pad_bearing = (rw.centerline_course + off) % 360.0
    pe, pn = _unit(pad_bearing)
    pad = (pad_r * NM_TO_M * pe, pad_r * NM_TO_M * pn)

    start_brg = (pad_bearing + rng.uniform(*_HELI_START_BEARING_DEG)) % 360.0
    d_start = rng.uniform(*_HELI_START_NM)
    se, sn = _unit(start_brg)
    pos = [pad[0] + d_start * NM_TO_M * se, pad[1] + d_start * NM_TO_M * sn]

    v0 = rng.uniform(*_HELI_SPEED_KT)
    agl0 = rng.uniform(*_HELI_AGL0_FT)
    wander = rng.uniform(*_HELI_WANDER_DEG)
    # per-aircraft sensor/airmass noise scales; observation noise only, so the
    # flown geometry (and the corridor guarantees) are unaffected
    s_alt = rng.uniform(*_HELI_ALT_NOISE_FT)
    s_gs = rng.uniform(*_HELI_GS_NOISE_KT)
    s_crs = rng.uniform(*_HELI_CRS_NOISE_DEG)
    if rng.random() < _HELI_ROUGH_FRACTION:
        s_alt *= _HELI_ROUGH_MULT
        s_gs *= _HELI_ROUGH_MULT
        s_crs *= _HELI_ROUGH_MULT
    d0_m = math.hypot(pos[0] - pad[0], pos[1] - pad[1])
    heading = _bearing((pos[0], pos[1]), pad)
    samples: list[_Sample] = []
    for _ in range(900):
        to_pad_m = math.hypot(pos[0] - pad[0], pos[1] - pad[1])
        if to_pad_m < 60.0:
            break
        v = v0 if to_pad_m > 900.0 else max(14.0, v0 * to_pad_m / 900.0)
        agl = agl0 * (to_pad_m / d0_m) ** 1.1 + 25.0
        samples.append(_Sample(pos[0], pos[1],
                               rw.threshold_elev + agl + rng.normal(0.0, s_alt),
                               heading + rng.normal(0.0, s_crs),
                               v + rng.normal(0.0, s_gs)))
        desired = _bearing((pos[0], pos[1]), pad)
        heading = _steer(heading, desired, 6.0) + rng.normal(0.0, wander)
        _advance(pos, heading, v)
    # flare and set down on the pad
    for i in range(6):
        samples.append(_Sample(pos[0] + rng.normal(0.0, 2.0), pos[1] + rng.normal(0.0, 2.0),
                               rw.threshold_elev + max(4.0, 20.0 - 4.0 * i),
                               heading, max(2.0, 10.0 - 1.5 * i)))
    return samples


def _heli_geometry_ok(samples: list[_Sample]) -> bool:
    dists = _distances_nm(samples)
    if min(dists) < _HELI_MIN_THRESHOLD_NM:
        return False
    lo, hi = _CORRIDOR_ALONG_NM
    for s in samples:
        along, cross = _along_cross_nm(s.east, s.north, DEFAULT_RUNWAY)
        if lo < along < hi and abs(cross) * NM_TO_M / FT_TO_M < _CORRIDOR_HALF_WIDTH_FT:
            return False
    return True


_TAIL_WINDOW = 20   # closest approach falls within a track's last this many samples


def _track_shape_ok(samples: list[_Sample]) -> bool:
    if len(samples) < 130:
        return False
    dists = _distances_nm(samples)
    closest = dists.index(min(dists))
    return closest >= 110 and closest >= len(samples) - _TAIL_WINDOW


_TAIL_LETTERS = "ABCDEFGHJKLMNPQRSTUVWXYZ"   # no I or O, as in real tail numbers


def _identity(rng: np.random.Generator, cls: str, global_idx: int,
              catalog: tuple) -> tuple[dict, RegistrationRecord | None]:
    tail = "N" + str(301 + global_idx) + "".join(
        _TAIL_LETTERS[int(rng.integers(len(_TAIL_LETTERS)))] for _ in range(2))
    mode_s = f"A{global_idx:05X}"
    model, manufacturer, designator = catalog[int(rng.integers(len(catalog)))]

    u = rng.random()
    has_tail, has_mode_s = (True, True) if u < 0.78 else (False, True) if u < 0.90 else (False, False)

    u = rng.random()
    if cls == CLASS_HELICOPTER:
        if u < 0.25:
            declared = designator
        elif u < 0.50:
            declared = "HELO" if rng.random() < 0.5 else "HELI"
        elif u < 0.60:
            declared = "FLGT"   # stale/invalid declared type
        else:
            declared = None
    else:
        declared = designator if u < 0.70 else None

    if cls == CLASS_HELICOPTER:
        scratchpad = False
        runway_id = None
        callsign = f"LIFE{10 + global_idx % 89}"
    else:
        scratchpad = bool(rng.random() < (0.9 if cls == CLASS_COMMERCIAL else 0.5))
        runway_id = DEFAULT_RUNWAY.runway_id if rng.random() < 0.9 else None
        callsign = f"SWA{100 + global_idx}" if cls == CLASS_COMMERCIAL else tail

    identity = {
        "callsign": callsign,
        "mode_s": mode_s if has_mode_s else None,
        "tail_number": tail if has_tail else None,
        "declared_type": declared,
        "arrival_airport": "SYN",
        "runway_id": runway_id,
        "scratchpad_runway": scratchpad,
    }
    if not (has_tail or has_mode_s):
        return identity, None
    reg = RegistrationRecord(
        n_number=tail,
        mode_s_code=mode_s,
        model=model,
        manufacturer=manufacturer,
        aircraft_class=AircraftClass.ROTORCRAFT if cls == CLASS_HELICOPTER else AircraftClass.FIXED_WING,
        type_designator=designator,
    )
    return identity, reg


@dataclass
class Scenario:
    """Everything one synthetic run produces."""

    tracks: list[Track]
    labels: list[tuple[str, str]]                     # (track_id, class)
    registration: list[RegistrationRecord]
    runway: Runway = DEFAULT_RUNWAY
    heli_types: frozenset = frozenset(d for _, _, d in HELI_CATALOG)


# class -> (RNG stream code, flier, registration catalog, track-id prefix)
_CLASSES = {
    CLASS_HELICOPTER: (1, _fly_helicopter, HELI_CATALOG, "H"),
    CLASS_GA: (2, _fly_ga, GA_CATALOG, "G"),
    CLASS_COMMERCIAL: (3, _fly_commercial, COMMERCIAL_CATALOG, "C"),
}


def generate(spec: ScenarioSpec) -> Scenario:
    """Produce the full scenario; identical spec gives identical output."""
    tracks: list[Track] = []
    labels: list[tuple[str, str]] = []
    registration: list[RegistrationRecord] = []
    counts = ((CLASS_HELICOPTER, spec.helicopters), (CLASS_GA, spec.ga),
              (CLASS_COMMERCIAL, spec.commercial))
    global_idx = 0
    for cls, n in counts:
        code, fly, catalog, prefix = _CLASSES[cls]
        for i in range(n):
            rng = np.random.default_rng([spec.seed, _STREAM_DOMAIN, code, i])
            samples = None
            for _ in range(60):
                candidate = fly(rng)
                if not _track_shape_ok(candidate):
                    continue
                if cls == CLASS_HELICOPTER and not _heli_geometry_ok(candidate):
                    continue
                samples = candidate
                break
            if samples is None:
                raise ScenarioError(f"could not generate a valid {cls} track (seed {spec.seed}, index {i})")
            track_id = f"{prefix}{i:04d}"
            identity, reg = _identity(rng, cls, global_idx, catalog)
            t0 = 1_700_000_000.0 + 3600.0 * global_idx
            tracks.append(_to_track(samples, track_id, t0, identity))
            labels.append((track_id, cls))
            if reg is not None:
                registration.append(reg)
            global_idx += 1
    return Scenario(tracks=tracks, labels=labels, registration=registration)
