"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion NN <name>: PASS`` line when it
succeeds (visible with ``pytest -s`` or on failure); with ``pytest -v``
the per-test PASSED/FAILED column gives the same one-line verdict.

Criteria 5-8 share one desk-scale training protocol: full-codebook data
in fixed order, identical seed, 2^12 epochs at train Eb/N0 0 dB. Models
are trained once per session by fixtures and reused.
"""

import json
import math

import numpy as np
import pytest

from polarlab import cli
from polarlab import evaluation as ev
from polarlab import polar
from polarlab.models import (AsChannels, AsSequence, Flatten, TakeLast,
                             ModelSpec, build)
from polarlab.nn import (Affine, Conv1D, LSTM, MaxPool1D, ReLU, Sequential,
                         Sigmoid)
from polarlab.training import TrainConfig, gen_dataset, train

from gradcheck import ModelObjective, MseObjective, grad_check

SEED = 1
EPOCHS = 2 ** 12
BATCH = 64
# fixed evaluation budget so every decoder sees identical frames; sized so
# the lowest-BER point still collects well over 100 bit errors
PAIRED_STOP = ev.StopRule(min_bit_errors=10 ** 9, max_frames=120_000)


def _passed(num, name):
    print(f"criterion {num:02d} {name}: PASS")


@pytest.fixture(scope="module")
def code16():
    return polar.construct_code(16, 8)


def _train_model(family, variant, code):
    spec = ModelSpec(family=family, variant=variant, N=code.N, K=code.K)
    model = build(spec, seed=SEED)
    config = TrainConfig(batch_size=BATCH, epochs=EPOCHS, seed=SEED,
                         log_every=2 ** 30)
    train(model, gen_dataset(code), config)
    return model


@pytest.fixture(scope="module")
def trained_mlp_rnnd(code16):
    return _train_model("mlp", "rnnd", code16)


@pytest.fixture(scope="module")
def trained_mlp_nnd(code16):
    return _train_model("mlp", "nnd", code16)


@pytest.fixture(scope="module")
def trained_cnn_rnnd(code16):
    return _train_model("cnn", "rnnd", code16)


# --------------------------------------------------------------- criterion 1

def test_criterion_01_parameter_count_regression(capsys):
    assert cli.main(["params", "mlp-nnd-16-8", "mlp-rnnd-16-8"]) == 0
    out = capsys.readouterr().out
    assert out == "mlp-nnd-16-8 27336\nmlp-rnnd-16-8 25816\n"
    _passed(1, "parameter count regression")


# --------------------------------------------------------------- criterion 2

def _grad_cases(seed):
    rng = np.random.default_rng(seed)
    x38 = rng.standard_normal((3, 8))
    x25 = rng.standard_normal((2, 5))
    return [
        ("affine", 1e-5, MseObjective(Sequential([Affine(5, 4, rng)]), 4),
         x25, rng.standard_normal((2, 4))),
        ("conv1d", 1e-5, MseObjective(Sequential(
            [AsChannels(), Conv1D(1, 3, rng), Flatten()]), 24),
         x38, rng.standard_normal((3, 24))),
        ("maxpool1d", 1e-4, MseObjective(Sequential(
            [AsChannels(), Conv1D(1, 2, rng), MaxPool1D(), Flatten()]), 8),
         x38, rng.standard_normal((3, 8))),
        ("relu", 1e-4, MseObjective(Sequential(
            [Affine(5, 6, rng), ReLU(), Affine(6, 3, rng)]), 3),
         x25, rng.standard_normal((2, 3))),
        ("sigmoid", 1e-4, MseObjective(Sequential(
            [Affine(5, 4, rng), Sigmoid()]), 4),
         x25, rng.standard_normal((2, 4))),
        ("lstm", 1e-4, MseObjective(Sequential(
            [AsSequence(), LSTM(1, 4, rng), TakeLast(), Affine(4, 2, rng)]), 2),
         x25, rng.standard_normal((2, 2))),
    ]


def test_criterion_02_gradient_correctness(code16):
    for seed in range(20):
        for name, tol, objective, x, target in _grad_cases(seed):
            report = grad_check(objective, x, target, tolerance=tol)
            assert report.passed, (f"{name} seed {seed}: rel err "
                                   f"{report.max_rel_error:.3e} at "
                                   f"{report.worst_param}")
    # end-to-end multi-task loss gradient on an N=4 toy residual decoder,
    # checked at a generic parameter point (zero biases would park relu
    # inputs exactly on the kink, where subgradients and finite differences
    # legitimately disagree)
    spec = ModelSpec(family="mlp", variant="rnnd", N=4, K=2,
                     mlp_hidden=(8, 6, 4))
    for seed in range(20):
        rng = np.random.default_rng(seed)
        model = build(spec, seed=seed)
        for p in model.params():
            p.value[...] = rng.uniform(-0.5, 0.5, size=p.value.shape)
        y = rng.standard_normal((3, 4))
        s = polar.bpsk_modulate(rng.integers(0, 2, size=(3, 4)))
        u = rng.integers(0, 2, size=(3, 2)).astype(float)
        report = grad_check(ModelObjective(model), y, (s, u), tolerance=1e-4)
        assert report.passed, (f"end-to-end seed {seed}: rel err "
                               f"{report.max_rel_error:.3e} at "
                               f"{report.worst_param}")
    _passed(2, "gradient correctness")


# --------------------------------------------------------------- criterion 3

def test_criterion_03_codec_correctness(code16):
    for n_exp in range(1, 5):
        n = 2 ** n_exp
        # the rate-1 code encodes with the plain transform
        rate1 = polar.construct_code(n, n)
        g = polar.encode(rate1, np.eye(n, dtype=np.int64))
        assert np.array_equal(polar.encode(rate1, g), np.eye(n, dtype=np.int64)), \
            f"transform is not an involution at N={n}"
    msgs = np.array([[(m >> (7 - j)) & 1 for j in range(8)] for m in range(256)])
    y = polar.bpsk_modulate(polar.encode(code16, msgs)).astype(float)
    decoded = polar.sc_decode_batch(code16, y, sigma=0.3)
    assert np.array_equal(decoded, msgs), "SC failed on a noiseless codeword"
    _passed(3, "codec correctness")


# --------------------------------------------------------------- criterion 4

def _sc_ber_with_se(code, ebn0_db, frames, seed):
    """BER plus its standard error, computed per point.

    SC bit errors cluster within a frame (an early wrong decision corrupts
    later bits), so the frame is the independent sampling unit and the
    binomial per-bit formula would understate the error by about 2x. The
    standard error therefore comes from the per-frame error-count variance.
    """
    rng = np.random.default_rng(seed)
    sigma = polar.ebn0_to_sigma(ebn0_db, code.rate)
    msgs = rng.integers(0, 2, size=(frames, code.K))
    y = polar.awgn_channel(polar.bpsk_modulate(polar.encode(code, msgs)),
                           sigma, rng)
    per_frame = (polar.sc_decode_batch(code, y, sigma) != msgs).sum(axis=1)
    ber = per_frame.mean() / code.K
    se = per_frame.std(ddof=1) / (code.K * math.sqrt(frames))
    return ber, se, int(per_frame.sum())


def test_criterion_04_sc_ber_curve(code16):
    points = [0.0, 2.0, 4.0, 6.0]
    frames = 60_000
    runs = [[_sc_ber_with_se(code16, p, frames, seed * 1000 + i)
             for i, p in enumerate(points)] for seed in (101, 202)]
    for rows in runs:
        for (ber, _, errors), point in zip(rows, points):
            assert errors >= 100, f"only {errors} errors at {point} dB"
        bers = [ber for ber, _, _ in rows]
        assert all(a > b for a, b in zip(bers, bers[1:])), \
            f"BER not strictly decreasing: {bers}"
    for (ber_a, se_a, _), (ber_b, se_b, _), point in zip(*runs, points):
        gap = abs(ber_a - ber_b)
        limit = 3 * math.sqrt(se_a ** 2 + se_b ** 2)
        assert gap <= limit, (f"seed runs disagree at {point} dB: "
                              f"|{ber_a:.3e} - {ber_b:.3e}| > {limit:.3e}")
    _passed(4, "sc ber curve")


# --------------------------------------------------------------- criterion 5

def test_criterion_05_denoiser_gain(code16, trained_mlp_rnnd):
    points = [2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    rows = ev.snr_gain(trained_mlp_rnnd, code16, points, frames=20_000,
                       rng=np.random.default_rng(99))
    for row in rows:
        gain = row.output_snr_db - row.input_snr_db
        assert gain >= 2.0, f"gain {gain:.2f} dB at {row.ebn0_db} dB"
    _passed(5, "denoiser gain")


# --------------------------------------------------------------- criterion 6

def test_criterion_06_residual_vs_plain_ordering(code16, trained_mlp_rnnd,
                                                 trained_mlp_nnd):
    points = [3.0, 4.0, 5.0, 6.0]
    # fresh generators with the same seed pair both decoders on identical
    # frames, making the comparison a paired one
    rnnd_rows = ev.ber_eval(ev.ModelDecoder(trained_mlp_rnnd), code16, points,
                            stop=PAIRED_STOP, rng=np.random.default_rng(77))
    nnd_rows = ev.ber_eval(ev.ModelDecoder(trained_mlp_nnd), code16, points,
                           stop=PAIRED_STOP, rng=np.random.default_rng(77))
    for r_row, n_row in zip(rnnd_rows, nnd_rows):
        assert r_row.bit_errors >= 100 and n_row.bit_errors >= 100, \
            f"too few errors at {r_row.ebn0_db} dB"
        assert r_row.ber <= n_row.ber, \
            (f"residual decoder worse at {r_row.ebn0_db} dB: "
             f"{r_row.ber:.3e} > {n_row.ber:.3e}")
    _passed(6, "residual vs plain ordering")


# --------------------------------------------------------------- criterion 7

def test_criterion_07_architecture_ordering(code16, trained_mlp_rnnd,
                                            trained_cnn_rnnd):
    (mlp_row,) = ev.ber_eval(ev.ModelDecoder(trained_mlp_rnnd), code16,
                             [5.0], stop=PAIRED_STOP,
                             rng=np.random.default_rng(77))
    (cnn_row,) = ev.ber_eval(ev.ModelDecoder(trained_cnn_rnnd), code16,
                             [5.0], stop=PAIRED_STOP,
                             rng=np.random.default_rng(77))
    assert mlp_row.ber <= cnn_row.ber, \
        f"mlp {mlp_row.ber:.3e} > cnn {cnn_row.ber:.3e} at 5 dB"
    _passed(7, "architecture ordering")


# --------------------------------------------------------------- criterion 8

def test_criterion_08_density_concentration(code16, trained_mlp_rnnd):
    for ebn0_db in (2.0, 5.0):
        sigma = polar.ebn0_to_sigma(ebn0_db, code16.rate)
        rng = np.random.default_rng(55)
        msgs = rng.integers(0, 2, size=(20_000, code16.K))
        s = polar.bpsk_modulate(polar.encode(code16, msgs))
        y = polar.awgn_channel(s, sigma, rng)
        s_hat = trained_mlp_rnnd.denoise(y)
        var_received = float(((y - s) ** 2).mean())
        var_denoised = float(((s_hat - s) ** 2).mean())
        assert var_denoised < var_received, \
            (f"no concentration at {ebn0_db} dB: denoised {var_denoised:.4f} "
             f">= received {var_received:.4f}")
        rows = ev.pdf_hist(trained_mlp_rnnd, code16, ebn0_db, frames=4096,
                           rng=np.random.default_rng(56), bins=80)
        width = (rows[0].bin_right - rows[0].bin_left)
        for field in ("density_received", "density_denoised"):
            integral = sum(getattr(r, field) for r in rows) * width
            assert abs(integral - 1.0) <= 1e-6, f"{field} integral {integral}"
    _passed(8, "density concentration")


# --------------------------------------------------------------- criterion 9

def test_criterion_09_timing_report(code16):
    decoders = [ev.ScDecoder(code16)]
    for family in ("mlp", "cnn", "rnn"):
        for variant in ("nnd", "rnnd"):
            spec = ModelSpec(family=family, variant=variant)
            decoders.append(ev.ModelDecoder(build(spec, seed=0)))
    rows = ev.timing_bench(code16, decoders, frames=64, batch=32,
                           rng=np.random.default_rng(0))
    assert [r.decoder for r in rows] == [
        "sc", "mlp-nnd-16-8", "mlp-rnnd-16-8", "cnn-nnd-16-8",
        "cnn-rnnd-16-8", "rnn-nnd-16-8", "rnn-rnnd-16-8"]
    for row in rows:
        assert row.per_frame_s > 0
        assert row.frames == 64
    _passed(9, "timing report")


# -------------------------------------------------------------- criterion 10

def test_criterion_10_determinism(tmp_path):
    config = {
        "code": {"N": 8, "K": 4},
        "arch": "mlp-rnnd",
        "train": {"batch_size": 8, "epochs": 3},
        "eval": {"ebn0_db": [1.0, 3.0], "min_bit_errors": 25,
                 "max_frames": 6000, "frames": 500},
        "seed": 9,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))

    outs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        ckpt = str(out / "checkpoint.json")
        assert cli.main(["ber", "--config", str(cfg), "--out", str(out),
                         ckpt]) == 0
        assert cli.main(["snr", "--config", str(cfg), "--out", str(out),
                         ckpt]) == 0
        assert cli.main(["pdf", "--config", str(cfg), "--out", str(out),
                         ckpt]) == 0
        outs.append(out)
    for name in ("checkpoint.json", "trace.csv", "ber.csv", "snr.csv",
                 "pdf.csv"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    _passed(10, "determinism")
