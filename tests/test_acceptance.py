"""Acceptance checks for the full toolkit, one test per release criterion.

Run with `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion.  The end-to-end tests drive the real command line twice in
separate directories; everything else exercises the library against
independently coded oracles.
"""

import json
import struct
import time

import numpy as np
import pytest

from rotortrack import autoencoder as ae
from rotortrack import cli
from rotortrack import identify as idf
from rotortrack import neuralcore as nn
from rotortrack import trackdata as td
from rotortrack import validate as va

# ---------------------------------------------------------------------------
# shared end-to-end fixture: the pipeline runs twice on the default scenario

TRAIN_HELICOPTERS = 80
E2E_BUDGET_S = 600.0


def run_pipeline(out_dir):
    """synth -> train on 80 helicopters -> calibrate -> classify -> validate."""
    base = ["--out-dir", str(out_dir)]
    assert cli.main(base + ["synth"]) == 0

    # hold out everything except the first 80 helicopters for training
    lines = (out_dir / "labels.csv").read_text().splitlines()
    heli = [ln for ln in lines[1:] if ln.endswith(",helicopter")][:TRAIN_HELICOPTERS]
    (out_dir / "train_labels.csv").write_text("\n".join([lines[0]] + heli) + "\n")
    cfg = out_dir / "cfg.json"
    cfg.write_text(json.dumps({"paths": {"labels": "train_labels.csv"}}))

    with_cfg = base + ["--config", str(cfg)]
    for command in ("train", "calibrate", "classify"):
        assert cli.main(with_cfg + [command]) == 0
    for command in ("validate", "report"):
        assert cli.main(base + [command]) == 0
    return {r.split(",")[0] for r in heli}


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    dirs = [tmp_path_factory.mktemp(f"run{i}") for i in (1, 2)]
    start = time.monotonic()
    train_ids = run_pipeline(dirs[0])
    elapsed = time.monotonic() - start
    run_pipeline(dirs[1])
    return {"dirs": dirs, "train_ids": train_ids, "elapsed_s": elapsed}


# ---------------------------------------------------------------------------
# criterion: analytic gradients agree with central finite differences

def test_gradients_match_finite_differences():
    spec = ae.AutoencoderSpec(input_len=8, n_features=2,
                              encoder_convs=((3, 2, 4),), latent_dim=3, seed=0)
    start = time.monotonic()
    worst = 0.0
    for seed in range(5):
        model = ae.build(ae.AutoencoderSpec(**{**spec.__dict__, "seed": seed}))
        batch = np.random.default_rng(1000 + seed).normal(size=(2, 8, 2))

        def loss():
            return nn.mae(batch, ae._forward(model, batch))

        trail = []
        rec = ae._forward(model, batch, trail)
        ws = nn.Workspace([stage.layer for stage in model.stages])
        ae._backward(trail, nn.mae_grad(batch, rec), ws)
        analytic = [g for stage in model.stages for g in ws.grads[id(stage.layer)]]

        h = 1e-5
        for p, g in zip(model.parameters(), analytic):
            flat, gflat = p.reshape(-1), g.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = loss()
                flat[i] = keep - h
                dn = loss()
                flat[i] = keep
                numeric = (up - dn) / (2.0 * h)
                err = abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric), 1.0)
                worst = max(worst, err)
    assert worst < 1e-6, f"max relative gradient error {worst:.3e}"
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# criterion: convolutions match naive loops; transpose is the exact adjoint

def naive_conv(x, w, b, stride):
    batch, n_in, _ = x.shape
    k, _, c_out = w.shape
    left = (k - 1) // 2
    xp = np.zeros((batch, n_in + k - 1, x.shape[2]))
    xp[:, left:left + n_in] = x
    n_out = -(-n_in // stride)
    y = np.zeros((batch, n_out, c_out))
    for t in range(n_out):
        for j in range(k):
            y[:, t] += xp[:, t * stride + j] @ w[j]
    return y + b


def test_convolutions_match_naive_loops_and_adjoint_identity():
    rng = np.random.default_rng(424242)
    for _ in range(20):
        k = int(rng.integers(1, 8))
        stride = int(rng.integers(1, 4))
        c_in, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        n_in = int(rng.integers(max(k, 4), 40))
        conv = nn.Conv1DLayer.init(rng, k, stride, c_in, c_out)
        x = rng.normal(size=(2, n_in, c_in))
        fast = conv.forward(x)
        assert np.max(np.abs(fast - naive_conv(x, conv.w, conv.b, stride))) < 1e-12

        conv.b[:] = 0.0
        y = conv.forward(x)
        cot = rng.normal(size=y.shape)
        tr = nn.ConvTranspose1DLayer(k, stride, c_out, c_in,
                                     np.ascontiguousarray(np.swapaxes(conv.w, 1, 2)),
                                     np.zeros(c_in))
        back = tr.forward(cot)
        n = min(back.shape[1], n_in)
        lhs = float(np.sum(y * cot))
        rhs = float(np.sum(x[:, :n] * back[:, :n]))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# criterion: MAE equals the elementwise definition

def test_mae_matches_elementwise_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 25, 3))
    y = rng.normal(size=(4, 25, 3))
    total = 0.0
    for idx in np.ndindex(x.shape):
        total += abs(x[idx] - y[idx])
    assert nn.mae(x, y) == total / x.size
    assert nn.mae(x, x) == 0.0


# ---------------------------------------------------------------------------
# criterion: percentile calibration matches a sort-and-interpolate oracle

def test_percentile_calibration_matches_sort_oracle():
    assert idf.calibrate(range(1, 101), 80.0) == pytest.approx(80.2, abs=1e-12)
    rng = np.random.default_rng(99)
    values = rng.gamma(2.0, 0.05, size=100).tolist()
    v = sorted(values)
    for q in (1.0, 50.0, 80.0, 99.0, 100.0):
        pos = (len(v) - 1) * q / 100.0
        lo = int(pos)
        want = v[-1] if q == 100.0 else v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
        assert idf.calibrate(values, q) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# criterion: the decision rule is strict on both gates

def test_two_gate_decision_truth_table():
    delta, gate = 0.0844, 0.5
    th = idf.Thresholds(mae_threshold=delta, runway_score_threshold=gate)
    for mae_value in (delta / 2, delta, delta * 2):
        for score in (gate / 2, gate, gate * 2):
            res = idf.decide("t", mae_value, score, th)
            assert res.pred_is_helicopter is (mae_value < delta and score < gate)
    # a quiet air-ambulance arrival: tiny error, low score, both gates pass
    res = idf.decide("N208SH", 0.00017365, 0.21, idf.Thresholds(0.01))
    assert res.pred_is_helicopter is True and res.reasons == ()


# ---------------------------------------------------------------------------
# criterion: end-to-end recall and precision on the held-out synthetic split

def test_end_to_end_recall_and_precision(pipeline_runs):
    out = pipeline_runs["dirs"][0]
    train_ids = pipeline_runs["train_ids"]
    labels = td.load_labels(out / "labels.csv")
    results, unclassifiable = cli.read_results(out / "results.csv")
    assert not unclassifiable

    held = [r for r in results if r.track_id not in train_ids]
    assert len(held) == 220
    tp = sum(1 for r in held if r.pred_is_helicopter
             and labels[r.track_id] == td.CLASS_HELICOPTER)
    fp = sum(1 for r in held if r.pred_is_helicopter
             and labels[r.track_id] != td.CLASS_HELICOPTER)
    fn = sum(1 for r in held if not r.pred_is_helicopter
             and labels[r.track_id] == td.CLASS_HELICOPTER)
    recall = tp / (tp + fn)
    precision = tp / (tp + fp)
    assert recall >= 0.85, f"recall {recall:.4f} (tp={tp} fn={fn})"
    assert precision >= 0.85, f"precision {precision:.4f} (tp={tp} fp={fp})"
    assert pipeline_runs["elapsed_s"] < E2E_BUDGET_S


# ---------------------------------------------------------------------------
# criterion: overlap counts reproduce known prediction-set fixtures

def test_overlap_counts_match_replayed_sets():
    shared = {f"s{i}" for i in range(67)}
    auto = shared | {f"a{i}" for i in range(892)}
    base = shared | {f"b{i}" for i in range(3)}
    v = va.venn_compare(auto, base)
    assert (v.both, v.autoencoder_only, v.baseline_only) == (67, 892, 3)

    shared = {f"s{i}" for i in range(17)}
    v = va.venn_compare(shared | {f"a{i}" for i in range(375)}, shared)
    assert (v.both, v.autoencoder_only, v.baseline_only) == (17, 375, 0)


# ---------------------------------------------------------------------------
# criterion: the pipeline is deterministic from seed to report

def test_pipeline_runs_are_byte_identical(pipeline_runs):
    a, b = pipeline_runs["dirs"]
    for name in ("tracks.jsonl", "model.rtae", "thresholds.json",
                 "results.csv", "validation.csv", "metrics.json", "report.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# ---------------------------------------------------------------------------
# criterion: the model container round-trips bit-exactly and rejects damage

def test_model_container_round_trip_and_rejection(pipeline_runs, tmp_path):
    model = ae.load(pipeline_runs["dirs"][0] / "model.rtae")
    window = np.random.default_rng(5).normal(size=(td.WINDOW_LEN, td.FEATURE_COUNT))
    want = ae.reconstruction_error(model, window)

    path = tmp_path / "model.rtae"
    ae.save(model, path)
    again = ae.load(path)
    assert ae.reconstruction_error(again, window) == want   # bit-exact weights

    raw = bytearray(path.read_bytes())
    raw[len(raw) // 3] ^= 0x01
    corrupt = tmp_path / "corrupt.rtae"
    corrupt.write_bytes(bytes(raw))
    with pytest.raises(ae.ChecksumError):
        ae.load(corrupt)

    raw = bytearray(path.read_bytes())
    raw[len(ae.MAGIC):len(ae.MAGIC) + 4] = struct.pack("<I", 99)
    wrong_version = tmp_path / "version.rtae"
    wrong_version.write_bytes(bytes(raw))
    with pytest.raises(ae.VersionError):
        ae.load(wrong_version)
