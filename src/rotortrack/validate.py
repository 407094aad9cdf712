"""Check predictions against the aircraft registration table.

Predictions are joined to registration rows by tail number first, then by
mode-S code.  A rule-based baseline (declared type found in a helicopter
type-designator list, or a HELO/HELI pseudo type) provides the comparison
sets for the overlap counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Collection, Iterable, Optional

from .identify import ClassificationResult
from .trackdata import AircraftClass, RegistrationTable, Track, utf8_lines

PSEUDO_TYPES = frozenset({"HELO", "HELI"})


class ValidationError(Exception):
    """A prediction that cannot be checked, such as one whose track is missing."""


class MatchKind(Enum):
    BY_TAIL = "by_tail"
    BY_MODE_S = "by_mode_s"
    UNMATCHED = "unmatched"


@dataclass(frozen=True)
class ValidationRecord:
    """One prediction annotated with its registration join; never re-decided."""

    track_id: str
    mae: float
    runway_score: float
    pred_is_helicopter: bool
    matched: MatchKind
    is_helicopter_ac_reg: Optional[bool]   # None when unmatched
    aircraft_class: Optional[str]
    model: Optional[str]
    manufacturer: Optional[str]
    type_designator: Optional[str]
    declared_type: Optional[str]
    class_conflict: bool   # tail and mode-S rows disagree on aircraft class


@dataclass(frozen=True)
class ConfusionMetrics:
    tp: int
    fp: int
    fn: int
    tn: int
    unmatched: int
    precision: Optional[float]   # None when no predicted positives
    recall: Optional[float]      # None when no actual positives


@dataclass(frozen=True)
class VennCounts:
    both: int
    autoencoder_only: int
    baseline_only: int


def load_heli_types(path) -> frozenset[str]:
    """Helicopter type designators, one per line; '#' starts a comment.  A line that
    is not UTF-8 is a MalformedRecord."""
    designators = (line.split("#", 1)[0].strip().upper() for line in utf8_lines(path))
    return frozenset(filter(None, designators))


def rule_based_baseline(track: Track, heli_types: frozenset[str]) -> bool:
    """True when the declared aircraft type names a helicopter outright."""
    declared = (track.declared_type or "").strip().upper()
    if not declared:
        return False
    return declared in heli_types or declared in PSEUDO_TYPES


def join_registration(results: Iterable[ClassificationResult],
                      tracks_by_id: dict[str, Track],
                      table: RegistrationTable) -> list[ValidationRecord]:
    """Annotate each prediction with its registration row, tail key first."""
    records = []
    for res in results:
        track = tracks_by_id.get(res.track_id)
        if track is None:
            raise ValidationError(f"no track for result {res.track_id!r}")
        by_tail = table.lookup_tail(track.tail_number)
        by_mode_s = table.lookup_mode_s(track.mode_s)
        rec = by_tail or by_mode_s
        conflict = (by_tail is not None and by_mode_s is not None
                    and by_tail.aircraft_class is not by_mode_s.aircraft_class)
        if rec is None:
            kind = MatchKind.UNMATCHED
        elif rec is by_tail:
            kind = MatchKind.BY_TAIL
        else:
            kind = MatchKind.BY_MODE_S
        records.append(ValidationRecord(
            track_id=res.track_id,
            mae=res.mae,
            runway_score=res.runway_score,
            pred_is_helicopter=res.pred_is_helicopter,
            matched=kind,
            is_helicopter_ac_reg=None if rec is None else rec.aircraft_class is AircraftClass.ROTORCRAFT,
            aircraft_class=None if rec is None else rec.aircraft_class.value,
            model=None if rec is None else rec.model,
            manufacturer=None if rec is None else rec.manufacturer,
            type_designator=None if rec is None else rec.type_designator,
            declared_type=track.declared_type,
            class_conflict=conflict,
        ))
    return records


def confusion_metrics(records: Iterable[ValidationRecord]) -> ConfusionMetrics:
    """Precision/recall against registration class, over matched records only."""
    tp = fp = fn = tn = unmatched = 0
    for r in records:
        if r.is_helicopter_ac_reg is None:
            unmatched += 1
        elif r.pred_is_helicopter:
            tp, fp = (tp + 1, fp) if r.is_helicopter_ac_reg else (tp, fp + 1)
        else:
            fn, tn = (fn + 1, tn) if r.is_helicopter_ac_reg else (fn, tn + 1)
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    return ConfusionMetrics(tp, fp, fn, tn, unmatched, precision, recall)


def venn_compare(autoencoder_ids: Iterable[str], baseline_ids: Iterable[str]) -> VennCounts:
    """Overlap counts of the two predicted-helicopter sets."""
    a = set(autoencoder_ids)
    b = set(baseline_ids)
    return VennCounts(both=len(a & b), autoencoder_only=len(a - b), baseline_only=len(b - a))


def resolve_pseudo_types(records: Iterable[ValidationRecord]) -> list[ValidationRecord]:
    """Matched records whose declared type is a pseudo type or missing.

    These are the tracks where the registration join supplies the concrete
    airframe that the declared type could not.
    """
    out = []
    for r in records:
        if r.matched is MatchKind.UNMATCHED or r.model is None:
            continue
        declared = (r.declared_type or "").strip().upper()
        if not declared or declared in PSEUDO_TYPES:
            out.append(r)
    return out


def validate_predictions(results: list[ClassificationResult], unclassifiable: Collection[str],
                         tracks_by_id: dict[str, Track], table: RegistrationTable,
                         heli_types: frozenset[str]) -> tuple:
    """(join_registration records, their confusion_metrics, venn_compare counts, and
    resolve_pseudo_types records) of the results.

    The rule-based baseline of the Venn counts also sees the unclassifiable
    track ids.  A result or unclassifiable id without a track is a ValidationError.
    """
    records = join_registration(results, tracks_by_id, table)
    for tid in unclassifiable:
        if tid not in tracks_by_id:
            raise ValidationError(f"no track for unclassifiable result {tid!r}")
    autoencoder_ids = {r.track_id for r in results if r.pred_is_helicopter}
    candidates = {r.track_id for r in results} | set(unclassifiable)
    baseline_ids = {tid for tid in candidates if rule_based_baseline(tracks_by_id[tid], heli_types)}
    return (records, confusion_metrics(records), venn_compare(autoencoder_ids, baseline_ids),
            resolve_pseudo_types(records))
