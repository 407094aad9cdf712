"""Property tests of the file formats and the config against their round-trip oracles."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rotortrack import cli  # noqa: E402
from rotortrack import identify as idf  # noqa: E402
from rotortrack import trackdata as td  # noqa: E402

# Every key a config file may set, by section; histogram_bins is a top-level key.
SETTABLE = {
    "paths": ("out_dir", "tracks", "labels", "runways", "registration", "heli_types", "model",
              "loss_history", "thresholds", "histogram", "results", "validation", "venn_csv",
              "venn_txt", "pseudo_types", "metrics", "report"),
    "synth": ("seed", "helicopters", "ga", "commercial"),
    "autoencoder": ("encoder_convs", "latent_dim", "activation", "seed", "dtype"),
    "training": ("epochs", "batch_size", "learning_rate", "beta1", "beta2", "eps",
                 "validation_fraction", "patience", "seed"),
    "thresholds": ("percentile", "runway_score_threshold"),
    "runway_score": ("distance_scale_nm", "course_full_scale_deg", "lateral_full_scale_ft",
                     "length_full_scale_ft", "weights"),
}
TOP_LEVEL = tuple(SETTABLE) + ("histogram_bins",)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


def finite(lo=None, hi=None, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


optional_text = st.none() | st.text()
points = st.lists(
    st.tuples(finite(), finite(-90.0, 90.0), finite(-180.0, 180.0), finite(),
              finite(0.0, 360.0, exclude_max=True), finite(0.0)),
    min_size=1, max_size=6, unique_by=lambda p: p[0],
).map(lambda ps: [td.TrackPoint(*p) for p in sorted(ps)])
tracks = st.builds(
    td.Track, track_id=st.text(min_size=1), points=points, callsign=optional_text,
    mode_s=optional_text, tail_number=optional_text, declared_type=optional_text,
    arrival_airport=optional_text, runway_id=optional_text,
    scratchpad_runway=st.none() | st.booleans())


@settings(max_examples=60, deadline=None)
@given(st.lists(tracks, min_size=1, max_size=3, unique_by=lambda t: t.track_id))
def test_tracks_round_trip_through_jsonl(workdir, given_tracks):
    path = workdir / "tracks.jsonl"
    td.save_tracks(given_tracks, path)
    result = td.load_tracks(path)
    assert result.rejects == []
    assert result.tracks == given_tracks


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.text(), finite(0.0), finite(0.0, 1.0)), max_size=4))
def test_results_csv_round_trips_for_any_track_id(workdir, rows):
    results = [idf.decide(tid, mae, score, idf.Thresholds()) for tid, mae, score in rows]
    path = workdir / "results.csv"
    cli._write_csv(path, [cli.RESULTS_HEADER] + [cli._result_row(r) for r in results])
    assert cli.read_results(path) == (results, {})


def test_every_settable_key_can_be_set(workdir):
    defaults = cli.load_config(None)
    path = workdir / "one_key.json"
    for section, keys in SETTABLE.items():
        for key in keys:
            built = defaults[section]
            value = built[key] if isinstance(built, dict) else getattr(built, key)
            path.write_text(json.dumps({section: {key: value}}))
            assert cli.load_config(str(path)) == defaults, f"{section}.{key}"
    path.write_text(json.dumps({"histogram_bins": 12}))
    assert cli.load_config(str(path))["histogram_bins"] == 12


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((None,) + tuple(SETTABLE)), st.text())
def test_any_key_outside_the_settable_set_exits_1(workdir, section, key):
    allowed = TOP_LEVEL if section is None else SETTABLE[section]
    hypothesis.assume(key not in allowed)
    doc = {key: 1} if section is None else {section: {key: 1}}
    name = key if section is None else f"{section}.{key}"
    path = workdir / "unknown_key.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(cli.CliError) as exc:
        cli.load_config(str(path))
    assert name in str(exc.value)
    assert cli.main(["--out-dir", str(workdir / "out"), "--config", str(path), "synth"]) == 1
