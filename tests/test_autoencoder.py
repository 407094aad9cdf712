"""Autoencoder architecture checks, training behavior, and the model container."""

import hashlib
import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from rotortrack import autoencoder as ae
from rotortrack import neuralcore as nn
from rotortrack import runwayscore as rs
from rotortrack import trackdata as td

SMALL_SPEC = ae.AutoencoderSpec(encoder_convs=((5, 2, 8),), latent_dim=8, seed=42)
# Two conv stages, so a ReLU sits between the decoder convs; small enough to
# check every parameter by finite differences.
TWO_STAGE_SPEC = ae.AutoencoderSpec(input_len=8, n_features=2,
                                    encoder_convs=((3, 2, 4), (3, 2, 3)), latent_dim=3, seed=0)
FAST_TRAIN = ae.TrainConfig(epochs=25, seed=3)


def sine_windows(n, seed=0, noise=0.05, label=td.CLASS_HELICOPTER):
    """Smooth per-feature sinusoids with small jitter; learnable structure."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, td.WINDOW_LEN)[:, None]
    wins = []
    for i in range(n):
        amp = rng.uniform(0.5, 1.5, size=(1, td.FEATURE_COUNT))
        phase = rng.uniform(0.0, 2.0 * np.pi, size=(1, td.FEATURE_COUNT))
        vals = amp * np.sin(2.0 * np.pi * t + phase)
        vals += rng.normal(0.0, noise, size=vals.shape)
        wins.append(td.FeatureWindow(vals, f"w{i}", label=label))
    return wins


class TestSpec:
    def test_default_encoder_halves_length_twice(self):
        assert ae.AutoencoderSpec().encoded_shape() == (25, 32)

    def test_stride_must_divide_length(self):
        with pytest.raises(ae.SpecError):
            ae.AutoencoderSpec(encoder_convs=((3, 3, 8),))
        # a third halving stage would need to split a length of 25
        with pytest.raises(ae.SpecError):
            ae.AutoencoderSpec(encoder_convs=((3, 2, 8), (3, 2, 8), (3, 2, 8)))

    def test_invalid_fields_rejected(self):
        with pytest.raises(ae.SpecError):
            ae.AutoencoderSpec(latent_dim=0)
        with pytest.raises(ae.SpecError):
            ae.AutoencoderSpec(encoder_convs=())
        with pytest.raises(ae.SpecError):
            ae.AutoencoderSpec(encoder_convs=((5, 0, 8),))

    def test_dict_round_trip(self):
        spec = ae.AutoencoderSpec(encoder_convs=((3, 2, 4), (3, 5, 6)), latent_dim=5)
        assert ae.AutoencoderSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("fields", [
        {"latent_dim": 2.0}, {"input_len": 100.0}, {"seed": True}, {"n_features": False},
        {"encoder_convs": ((7.0, 2, 16), (5, 2, 32))}, {"encoder_convs": ((7, 2, True),)},
    ], ids=["float_latent_dim", "float_input_len", "bool_seed", "bool_n_features",
            "float_kernel", "bool_channels"])
    def test_sizes_and_seed_are_ints_not_floats_or_bools(self, fields):
        # a whole float or a bool would be written back as an int, so it is refused
        with pytest.raises(ae.SpecError):
            ae.AutoencoderSpec(**fields)

    def test_dtype_field_sets_the_layer_dtype_of_that_model_only(self):
        narrow = ae.build(ae.AutoencoderSpec(dtype="float32"))
        assert all(p.dtype == np.float32 for p in narrow.parameters())
        # a default spec built afterwards in the same process is unaffected
        assert all(p.dtype == np.float64 for p in ae.build(ae.AutoencoderSpec()).parameters())

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ae.SpecError):
            ae.AutoencoderSpec(dtype="float16")


class TestForwardShapes:
    def test_reconstruction_restores_window_shape(self):
        model = ae.build(SMALL_SPEC)
        x = np.random.default_rng(0).normal(size=(td.WINDOW_LEN, td.FEATURE_COUNT))
        assert ae.reconstruct(model, x).shape == x.shape
        batch = np.stack([x, x, x])
        assert ae.reconstruct(model, batch).shape == batch.shape

    def test_latent_has_requested_width(self):
        stages = {stage.name: stage for stage in ae.build(SMALL_SPEC).stages}
        enc_dense = stages["enc_dense"].layer
        assert enc_dense.d_out == SMALL_SPEC.latent_dim
        assert enc_dense.forward(np.zeros((2, enc_dense.d_in))).shape == (2, SMALL_SPEC.latent_dim)

    def test_wrong_window_shape_rejected(self):
        model = ae.build(SMALL_SPEC)
        with pytest.raises(ae.AutoencoderError):
            ae.reconstruct(model, np.zeros((td.WINDOW_LEN, td.FEATURE_COUNT + 1)))

    def test_reconstruction_error_is_mae_of_reconstruction(self):
        model = ae.build(SMALL_SPEC)
        x = np.random.default_rng(1).normal(size=(td.WINDOW_LEN, td.FEATURE_COUNT))
        assert ae.reconstruction_error(model, x) == nn.mae(x, ae.reconstruct(model, x))

    def test_two_stage_gradients_match_finite_differences(self):
        worst = 0.0
        for seed in range(3):
            model = ae.build(ae.AutoencoderSpec(**{**TWO_STAGE_SPEC.__dict__, "seed": seed}))
            batch = np.random.default_rng(2000 + seed).normal(size=(2, 8, 2))
            cache = {}
            rec = ae._forward(model, batch, cache)
            analytic = ae._backward(model, cache, nn.mae_grad(batch, rec))
            h = 1e-5
            for p, g in zip(model.parameters(), analytic):
                flat, gflat = p.reshape(-1), g.reshape(-1)
                for i in range(flat.size):
                    keep = flat[i]
                    flat[i] = keep + h
                    up = nn.mae(batch, ae._forward(model, batch))
                    flat[i] = keep - h
                    dn = nn.mae(batch, ae._forward(model, batch))
                    flat[i] = keep
                    numeric = (up - dn) / (2.0 * h)
                    err = abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric), 1.0)
                    worst = max(worst, err)
        assert worst < 1e-6, f"max relative gradient error {worst:.3e}"

    def test_build_is_deterministic_for_a_seed(self):
        a = ae.build(SMALL_SPEC)
        b = ae.build(SMALL_SPEC)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)


class TestTraining:
    def test_loss_decreases_on_structured_data(self):
        model = ae.build(SMALL_SPEC)
        wins = sine_windows(40)
        before = ae.reconstruction_error(model, wins[0].values)
        history = ae.train(model, wins, FAST_TRAIN)
        assert history[0].epoch == 1
        assert history[-1].train_mae < history[0].train_mae
        assert ae.reconstruction_error(model, wins[0].values) < before

    def test_training_is_deterministic(self):
        wins = sine_windows(36, seed=5)
        runs = []
        for _ in range(2):
            model = ae.build(SMALL_SPEC)
            ae.train(model, wins, ae.TrainConfig(epochs=5, seed=3))
            runs.append([p.copy() for p in model.parameters()])
        for pa, pb in zip(*runs):
            assert np.array_equal(pa, pb)

    def test_early_stopping_restores_best_epoch_weights(self):
        # pure noise has nothing to learn, so validation loss stalls quickly
        rng = np.random.default_rng(9)
        wins = [td.FeatureWindow(rng.normal(size=(td.WINDOW_LEN, td.FEATURE_COUNT)),
                                 f"w{i}", label=td.CLASS_HELICOPTER) for i in range(40)]
        model = ae.build(SMALL_SPEC)
        cfg = ae.TrainConfig(epochs=60, seed=11)
        history = ae.train(model, wins, cfg)
        assert len(history) < cfg.epochs       # patience kicked in
        # replay the split to check the restored weights hit the best val loss
        rng = np.random.default_rng(cfg.seed)
        order = rng.permutation(len(wins))
        n_val = max(1, round(cfg.validation_fraction * len(wins)))
        val = np.stack([wins[i].values for i in order[:n_val]])
        best = min(h.val_mae for h in history)
        assert nn.mae(val, ae.reconstruct(model, val)) == pytest.approx(best, abs=1e-12)

    def test_rejects_windows_not_tagged_helicopter(self):
        model = ae.build(SMALL_SPEC)
        wins = sine_windows(40)
        wins[7] = td.FeatureWindow(wins[7].values, "bad", label=td.CLASS_GA)
        with pytest.raises(ae.AutoencoderError, match="bad"):
            ae.train(model, wins, FAST_TRAIN)

    def test_rejects_too_few_windows(self):
        model = ae.build(SMALL_SPEC)
        with pytest.raises(ae.AutoencoderError):
            ae.train(model, sine_windows(ae.MIN_TRAIN_WINDOWS - 1), FAST_TRAIN)

    def test_memorizes_a_repeated_window(self):
        # 32 copies of one window: the only optimum is exact reproduction;
        # 26 of them train, one batch and so one step an epoch
        model = ae.build(SMALL_SPEC)
        base = sine_windows(1, seed=2, noise=0.0)[0]
        wins = [td.FeatureWindow(base.values.copy(), f"c{i}", label=td.CLASS_HELICOPTER)
                for i in range(ae.MIN_TRAIN_WINDOWS)]
        ae.train(model, wins, ae.TrainConfig(epochs=400, seed=3))
        assert ae.reconstruction_error(model, base.values) < 0.05


def train_without_workspace(model, wins, cfg):
    """ae.train's loop with no workspace: every pass allocates its arrays, and
    Adam updates one vector of the gradients concatenated in parameter order."""
    data = np.stack([w.values for w in wins]).astype(model.spec.dtype)
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(data))
    n_val = max(1, round(cfg.validation_fraction * len(data)))
    val, tr = data[order[:n_val]], data[order[n_val:]]
    flat = nn.flatten([stage.layer for stage in model.stages])
    state = nn.adam_init(flat)
    history, best_val, best_epoch, best = [], np.inf, 0, flat.copy()
    for epoch in range(1, cfg.epochs + 1):
        idx = rng.permutation(len(tr))
        losses = []
        for start in range(0, len(tr), cfg.batch_size):
            batch = tr[idx[start:start + cfg.batch_size]]
            cache = {}
            rec = ae._forward(model, batch, cache)
            losses.append(nn.mae(batch, rec))
            grads = ae._backward(model, cache, nn.mae_grad(batch, rec))
            nn.adam_step(flat, np.concatenate([g.ravel() for g in grads]), state)
        val_mae = nn.mae(val, ae._forward(model, val))
        history.append(ae.EpochStats(epoch, float(np.mean(losses)), val_mae))
        if val_mae < best_val:
            best_val, best_epoch, best = val_mae, epoch, flat.copy()
        elif epoch - best_epoch >= cfg.patience:
            break
    flat[...] = best
    return history


def parameter_bytes(model) -> list[bytes]:
    return [p.tobytes() for p in model.parameters()]


F32_SPEC = ae.AutoencoderSpec(**{**SMALL_SPEC.__dict__, "dtype": "float32"})
# 56 windows: training batches of 32 and 13, then a validation pass of 11
SHORT_BATCH_WINDOWS = 56
SHORT_BATCHES = ae.TrainConfig(epochs=6, seed=3)


@pytest.fixture
def spaces(monkeypatch):
    """Every Workspace that ae.train makes, in order."""
    made = []

    class Recorded(nn.Workspace):
        def __init__(self, layers):
            super().__init__(layers)
            made.append(self)

    monkeypatch.setattr(nn, "Workspace", Recorded)
    return made


class TestWorkspace:
    def test_short_batches_match_the_loop_without_a_workspace(self, spaces, monkeypatch):
        wins = sine_windows(SHORT_BATCH_WINDOWS, seed=5)
        rows = []
        mae = nn.mae
        monkeypatch.setattr(nn, "mae", lambda x, x_prime: rows.append(len(x)) or mae(x, x_prime))
        model = ae.build(SMALL_SPEC)
        history = ae.train(model, wins, SHORT_BATCHES)
        assert rows[:3] == [32, 13, 11] and len(spaces) == 1
        reference = ae.build(SMALL_SPEC)
        assert train_without_workspace(reference, wins, SHORT_BATCHES) == history
        assert parameter_bytes(model) == parameter_bytes(reference)

    def test_float64_then_float32_each_match_a_run_in_its_own_process(self, spaces, tmp_path):
        wins = sine_windows(36, seed=5)
        np.save(tmp_path / "windows.npy", np.stack([w.values for w in wins]))
        cfg = ae.TrainConfig(epochs=3, seed=3)
        script = (
            "import hashlib, json, sys\n"
            "import numpy as np\n"
            "from rotortrack import autoencoder as ae, trackdata as td\n"
            "spec, cfg, path = sys.argv[1:]\n"
            "model = ae.build(ae.AutoencoderSpec.from_dict(json.loads(spec)))\n"
            "wins = [td.FeatureWindow(v, f'w{i}', label=td.CLASS_HELICOPTER)\n"
            "        for i, v in enumerate(np.load(path))]\n"
            "history = ae.train(model, wins, ae.TrainConfig(**json.loads(cfg)))\n"
            "body = repr(history).encode() + b''.join(p.tobytes() for p in model.parameters())\n"
            "print(hashlib.sha256(body).hexdigest())\n")
        for spec in (SMALL_SPEC, F32_SPEC):
            model = ae.build(spec)
            history = ae.train(model, wins, cfg)
            digest = hashlib.sha256(repr(history).encode() + b"".join(parameter_bytes(model)))
            alone = subprocess.run(
                [sys.executable, "-c", script, json.dumps(spec.to_dict()), json.dumps(cfg.__dict__),
                 str(tmp_path / "windows.npy")],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}).stdout.strip()
            assert digest.hexdigest() == alone, spec.dtype
            assert all(p.dtype == np.dtype(spec.dtype) for p in model.parameters())
        for ws, dtype in zip(spaces, (np.float64, np.float32)):
            assert ws.grad.dtype == dtype
            assert {a.dtype for a in ws.arrays.values()} == {np.dtype(dtype)}

    def test_nothing_is_allocated_after_the_first_epoch(self, spaces, monkeypatch):
        seen = []   # (batch rows, the workspace's arrays by key) at each loss
        mae = nn.mae

        def spy(x, x_prime):
            seen.append((len(x), {key: id(a) for key, a in spaces[0].arrays.items()}))
            return mae(x, x_prime)
        monkeypatch.setattr(nn, "mae", spy)
        ae.train(ae.build(SMALL_SPEC), sine_windows(SHORT_BATCH_WINDOWS, seed=5),
                 ae.TrainConfig(epochs=4, seed=3))
        assert [rows for rows, _ in seen] == [32, 13, 11] * 4
        # a grown array replaces its key's array while that one is still held,
        # so a new allocation always shows as a new id
        after_first_epoch = seen[2][1]
        assert after_first_epoch
        assert all(arrays == after_first_epoch for _, arrays in seen[2:])
        assert {key: id(a) for key, a in spaces[0].arrays.items()} == after_first_epoch

    def test_first_stage_keeps_no_input_gradient(self, spaces):
        model = ae.build(SMALL_SPEC)
        ae.train(model, sine_windows(36, seed=5), SHORT_BATCHES)
        first, second = (id(stage.layer) for stage in model.stages[:2])
        assert (second, "grad") in spaces[0].arrays
        assert (first, "grad") not in spaces[0].arrays

    def test_a_default_step_on_stale_work_arrays_matches_one_without_a_workspace(self):
        model = ae.build(ae.AutoencoderSpec())
        batch = np.random.default_rng(8).normal(size=(32, td.WINDOW_LEN, td.FEATURE_COUNT))
        ws = nn.Workspace([stage.layer for stage in model.stages])

        def step(ws):
            cache = {}
            rec = ae._forward(model, batch, cache, ws)
            return ae._backward(model, cache, nn.mae_grad(batch, rec), ws)
        step(ws)
        for a in ws.arrays.values():   # padding margins and kept rows must not leak in
            a.fill(np.nan)
        step(ws)
        alone = np.concatenate([g.ravel() for g in step(None)])
        assert ws.grad.tobytes() == alone.tobytes()

    def test_reconstructions_do_not_share_memory(self):
        model = trained_small_model()
        x = sine_windows(3, seed=4)
        batch = np.stack([w.values for w in x])
        first, second = ae.reconstruct(model, batch), ae.reconstruct(model, batch)
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(ae.reconstruct(model, x[0].values),
                                    ae.reconstruct(model, x[0].values))


def trained_small_model():
    model = ae.build(SMALL_SPEC)
    wins = sine_windows(36, seed=8)
    ae.train(model, wins, ae.TrainConfig(epochs=3, seed=3))
    model.norm_stats = td.fit_norm_stats([w.values + 5.0 for w in wins])
    return model


def resign(path, header_edit=None, arrays_edit=None):
    """Rewrite a saved model with its header or arrays edited, under a valid checksum."""
    body = path.read_bytes()[:-32]
    start = len(ae.MAGIC) + 4
    (n,) = struct.unpack("<I", body[start:start + 4])
    header, arrays = body[start + 4:start + 4 + n], body[start + 4 + n:]
    if header_edit is not None:
        header = header_edit(header)
    if arrays_edit is not None:
        arrays = arrays_edit(arrays)
    body = body[:start] + struct.pack("<I", len(header)) + header + arrays
    path.write_bytes(body + hashlib.sha256(body).digest())


def edit_json(fn, separators=None):
    def edit(header):
        doc = json.loads(header)
        fn(doc)
        return json.dumps(doc, separators=separators).encode("utf-8")
    return edit


class TestFixedValues:
    """Values the method runs at one setting are constants, not fields."""

    @pytest.mark.parametrize("build", [
        lambda: rs.ScoreParams(weights=(0.2, 0.2, 0.2, 0.2, 0.2)),
        lambda: rs.ScoreParams(distance_scale_nm=2.0),
        lambda: ae.TrainConfig(learning_rate=1e-2),
        lambda: ae.TrainConfig(validation_fraction=0.5),
        lambda: ae.TrainConfig(batch_size=16),
        lambda: ae.TrainConfig(patience=3),
        lambda: nn.adam_init(np.zeros(3), lr=1e-2),
    ], ids=["score_weights", "score_scale", "learning_rate", "validation_fraction", "batch_size",
            "patience", "adam_lr"])
    def test_a_fixed_value_cannot_be_set(self, build):
        with pytest.raises(TypeError):
            build()

    def test_the_fixed_values_are_in_range(self):
        params = rs.ScoreParams()
        assert len(params.weights) == 5 and min(params.weights) >= 0
        assert sum(params.weights) == pytest.approx(1.0, rel=0, abs=1e-9)
        assert min(params.distance_scale_nm, params.course_full_scale_deg,
                   params.lateral_full_scale_ft, params.length_full_scale_ft) > 0
        config = ae.TrainConfig()
        assert 0 < config.validation_fraction < 1
        assert (config.validation_fraction, config.batch_size, config.patience) == (0.2, 32, 20)
        assert min(config.batch_size, config.patience) >= 1
        assert nn.ADAM_LR > 0


def test_a_model_is_built_with_its_stages():
    # build and load give every model its layer plan's stages
    with pytest.raises(TypeError):
        ae.ModelParams(ae.AutoencoderSpec())


class TestModelContainer:
    def test_round_trip_reproduces_reconstructions_bitwise(self, tmp_path):
        model = trained_small_model()
        x = np.random.default_rng(4).normal(size=(td.WINDOW_LEN, td.FEATURE_COUNT))
        want = ae.reconstruct(model, x)
        path = tmp_path / "model.rtae"
        ae.save(model, path)
        again = ae.load(path)
        assert np.array_equal(ae.reconstruct(again, x), want)
        assert again.spec == model.spec

    def test_norm_stats_survive_round_trip(self, tmp_path):
        model = trained_small_model()
        path = tmp_path / "model.rtae"
        ae.save(model, path)
        again = ae.load(path)
        assert np.array_equal(again.norm_stats.mean, model.norm_stats.mean)
        assert np.array_equal(again.norm_stats.std, model.norm_stats.std)

    def test_a_model_without_stats_is_refused_before_anything_is_written(self, tmp_path):
        path = tmp_path / "model.rtae"
        with pytest.raises(ae.AutoencoderError, match="no normalization stats"):
            ae.save(ae.build(SMALL_SPEC), path)
        assert not path.exists()

    def test_flipped_byte_fails_checksum(self, tmp_path):
        model = trained_small_model()
        path = tmp_path / "model.rtae"
        ae.save(model, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ae.ChecksumError):
            ae.load(path)

    def test_truncated_file_fails_checksum(self, tmp_path):
        model = trained_small_model()
        path = tmp_path / "model.rtae"
        ae.save(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-40])
        with pytest.raises(ae.ChecksumError):
            ae.load(path)

    def test_unsupported_version_is_named_error(self, tmp_path):
        model = trained_small_model()
        path = tmp_path / "model.rtae"
        ae.save(model, path)
        raw = bytearray(path.read_bytes())
        raw[len(ae.MAGIC):len(ae.MAGIC) + 4] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(ae.VersionError):
            ae.load(path)

    @pytest.mark.parametrize("header_edit", [
        edit_json(lambda d: d.pop("has_norm_stats")),
        edit_json(lambda d: d["spec"].pop("dtype")),
        edit_json(lambda d: d["spec"].pop("latent_dim")),
        edit_json(lambda d: d["spec"].update(dtype="float16")),
        edit_json(lambda d: d.update(has_norm_stats=1)),
        edit_json(lambda d: d.update(has_norm_stats=False)),
        edit_json(lambda d: d.update(spec=[1, 2])),
        edit_json(lambda d: d["spec"].update(latent_dim=float("inf"))),
        edit_json(lambda d: d["spec"].update(latent_dim=10**12)),
        edit_json(lambda d: d["spec"].update(input_len=10**12, encoder_convs=[[1, 10**12, 8]])),
        lambda h: b"[1, 2]",
        lambda h: b"{not json",
        lambda h: b"\xff\xfe",
    ], ids=["no_norm_flag", "no_dtype", "no_spec_key", "bad_dtype", "norm_flag_not_bool",
            "norm_flag_false",
            "spec_not_object", "infinite_size", "huge_latent_dim", "huge_input_and_stride",
            "header_not_object", "bad_json", "bad_utf8"])
    def test_checksum_valid_malformed_header_is_format_error(self, tmp_path, header_edit):
        path = tmp_path / "model.rtae"
        ae.save(trained_small_model(), path)
        resign(path, header_edit=header_edit)
        with pytest.raises(ae.ModelFormatError):
            ae.load(path)

    @pytest.mark.parametrize("header_edit", [
        edit_json(lambda d: None),
        edit_json(lambda d: d.update(y=2), separators=(",", ":")),
        edit_json(lambda d: d["spec"].update(y=2), separators=(",", ":")),
    ], ids=["default_separators", "extra_header_key", "extra_spec_key"])
    def test_a_header_that_save_would_not_write_is_a_format_error(self, tmp_path, header_edit):
        """Each of these headers reads as a valid spec: only the comparison with the
        header save writes for the loaded model refuses it."""
        path = tmp_path / "model.rtae"
        ae.save(trained_small_model(), path)
        resign(path, header_edit=header_edit)
        with pytest.raises(ae.ModelFormatError, match="not the one save writes"):
            ae.load(path)

    @pytest.mark.parametrize("edits, named", [
        ({"arrays_edit": lambda arrays: arrays + b"junk-after-arrays"}, "has 17 bytes after"),
        ({"arrays_edit": lambda arrays: arrays[:-8]}, "inside array 'norm.std'"),
        ({"header_edit": edit_json(lambda d: d["spec"].update(dtype="float32"))}, "bytes after"),
    ], ids=["bytes_after_arrays", "last_array_short", "float32_spec_over_float64_bytes"])
    def test_checksum_valid_array_bytes_not_the_plans_are_format_error(self, tmp_path, edits,
                                                                         named):
        path = tmp_path / "model.rtae"
        ae.save(trained_small_model(), path)
        resign(path, **edits)
        with pytest.raises(ae.ModelFormatError, match=re.escape(named)):
            ae.load(path)

    def test_foreign_file_is_rejected_on_magic(self, tmp_path):
        path = tmp_path / "model.rtae"
        path.write_bytes(b"PK\x03\x04" + bytes(64))
        with pytest.raises(ae.ModelFormatError):
            ae.load(path)

    def test_save_writes_the_layer_plan_arrays_in_order(self, tmp_path):
        path = tmp_path / "model.rtae"
        model = two_stage_model_with_stats()
        ae.save(model, path)
        body = path.read_bytes()[:-32]
        start = len(ae.MAGIC) + 4
        (n,) = struct.unpack_from("<I", body, start)
        assert [s.name for s in model.stages] == [
            "enc0", "enc1", "enc_dense", "dec_dense", "dec0", "dec1"]
        arrays = model.parameters() + [model.norm_stats.mean, model.norm_stats.std]
        assert body[start + 4 + n:] == b"".join(a.astype("<f8").tobytes() for a in arrays)

    def test_body_truncated_at_any_offset_and_resigned_is_format_error(self, tmp_path):
        path = tmp_path / "model.rtae"
        ae.save(two_stage_model_with_stats(), path)
        body = path.read_bytes()[:-32]
        for end in range(len(body)):
            path.write_bytes(body[:end] + hashlib.sha256(body[:end]).digest())
            with pytest.raises(ae.ModelFormatError):
                ae.load(path)


def two_stage_model_with_stats():
    model = ae.build(TWO_STAGE_SPEC)
    shape = (TWO_STAGE_SPEC.input_len, TWO_STAGE_SPEC.n_features)
    model.norm_stats = td.NormStats(mean=np.full(shape, 0.5), std=np.full(shape, 2.0))
    return model

