"""Tests for the Monte-Carlo evaluation harness and its CSV formats."""

import dataclasses
import os
import pickle
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarlab import evaluation as ev
from polarlab import nn
from polarlab import polar
from polarlab.cli import EvalSettings
from polarlab.models import ModelSpec, build
from polarlab.training import (
    TraceRow, TrainConfig, TrainingDiverged, gen_dataset, train)

CODE = polar.construct_code(16, 8)
# the CLI's default stop rule
STOP = ev.StopRule(min_bit_errors=100, max_frames=1_000_000)


def tiny_model(variant="rnnd", seed=0):
    spec = ModelSpec(family="mlp", variant=variant, N=16, K=8,
                     mlp_hidden=(16, 12, 8))
    return build(spec, seed=seed)


def zeroed_denoiser(model):
    for p in model.denoiser.params():
        p.value[...] = 0.0
    return model


# ------------------------------------------------------------------ stop rule

def test_stop_rule_defaults():
    settings = EvalSettings()
    assert settings.min_bit_errors == 100
    assert settings.max_frames == 1_000_000


def test_stop_rule_validation():
    with pytest.raises(ValueError):
        ev.StopRule(min_bit_errors=-1, max_frames=1)
    with pytest.raises(ValueError):
        ev.StopRule(min_bit_errors=0, max_frames=0)


# ------------------------------------------------------------------ decoders

def test_sc_decoder_name_and_shape():
    dec = ev.ScDecoder(CODE)
    assert dec.name == "sc"
    rng = np.random.default_rng(0)
    y = rng.standard_normal((5, 16))
    assert dec.decode(y, 1.0).shape == (5, 8)


def test_model_decoder_name_and_shape():
    dec = ev.ModelDecoder(tiny_model())
    assert dec.name == "mlp-rnnd-16-8"
    rng = np.random.default_rng(0)
    y = rng.standard_normal((5, 16))
    out = dec.decode(y, 1.0)
    assert out.shape == (5, 8)
    assert set(np.unique(out)) <= {0, 1}


# ------------------------------------------------------------------ ber_eval

def test_ber_sc_high_snr_zero_errors():
    rows = ev.ber_eval(ev.ScDecoder(CODE), CODE, [12.0],
                       stop=ev.StopRule(min_bit_errors=100, max_frames=500),
                       rng=np.random.default_rng(1))
    (row,) = rows
    assert row.decoder == "sc"
    assert row.ebn0_db == 12.0
    assert row.bit_errors == 0
    assert row.ber == 0.0
    # no errors to stop on, so the frame budget is spent in full
    assert row.frames == 500


def test_ber_sc_low_snr_stops_on_errors():
    stop = ev.StopRule(min_bit_errors=50, max_frames=100_000)
    (row,) = ev.ber_eval(ev.ScDecoder(CODE), CODE, [0.0], stop=stop,
                         rng=np.random.default_rng(2))
    assert row.bit_errors >= 50
    assert row.frames < 100_000
    assert row.frames % ev.BER_BLOCK_FRAMES == 0
    assert row.ber == row.bit_errors / (row.frames * CODE.K)


def test_ber_untrained_model_near_half():
    # an untrained decoder carries no information about the message bits
    dec = ev.ModelDecoder(tiny_model())
    stop = ev.StopRule(min_bit_errors=10 ** 9, max_frames=4096)
    (row,) = ev.ber_eval(dec, CODE, [4.0], stop=stop,
                         rng=np.random.default_rng(3))
    assert row.frames == 4096
    assert abs(row.ber - 0.5) < 0.05


def test_ber_deterministic_given_seed():
    stop = ev.StopRule(min_bit_errors=30, max_frames=50_000)
    a = ev.ber_eval(ev.ScDecoder(CODE), CODE, [1.0, 2.0], stop=stop,
                    rng=np.random.default_rng(7))
    b = ev.ber_eval(ev.ScDecoder(CODE), CODE, [1.0, 2.0], stop=stop,
                    rng=np.random.default_rng(7))
    assert a == b


def test_ber_same_frames_for_different_decoders():
    # same entry seed means both decoders face identical frames, which is
    # what makes side-by-side BER rows a paired comparison
    stop = ev.StopRule(min_bit_errors=10 ** 9, max_frames=2048)
    (a,) = ev.ber_eval(ev.ScDecoder(CODE), CODE, [2.0], stop=stop,
                       rng=np.random.default_rng(11))
    (b,) = ev.ber_eval(ev.ModelDecoder(tiny_model()), CODE, [2.0], stop=stop,
                       rng=np.random.default_rng(11))
    assert a.frames == b.frames == 2048


def sc_sweep():
    return (ev.ScDecoder(CODE), [1.0, 3.0],
            ev.StopRule(min_bit_errors=40, max_frames=20_000))


def mlp_sweep(forwarded=False):
    model = tiny_model()
    if forwarded:
        # a training forward in the parent leaves every layer's cache on
        # the decoder the workers receive
        model.forward(np.ones((ev.BER_BLOCK_FRAMES, 16)), keep=True)
    # an untrained decoder makes ~8k bit errors a block, so the rule fires
    # on the third of ten blocks while later ones are still in flight
    return (ev.ModelDecoder(model), [0.0, 2.0, 4.0],
            ev.StopRule(min_bit_errors=20_000, max_frames=20_000))


@pytest.mark.parametrize("sweep", [sc_sweep, mlp_sweep, lambda: mlp_sweep(True)],
                         ids=["sc", "mlp-rnnd", "mlp-rnnd-forwarded"])
def test_ber_workers_match_serial(sweep):
    decoder, ebn0, stop = sweep()
    serial = ev.ber_eval(decoder, CODE, ebn0, stop=stop,
                         rng=np.random.default_rng(5), workers=1)
    parallel = ev.ber_eval(decoder, CODE, ebn0, stop=stop,
                           rng=np.random.default_rng(5), workers=2)
    assert serial == parallel


def test_ber_pool_capped_at_usable_cpus(monkeypatch):
    sizes, start_methods = [], []

    class NoPool:
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            start_methods.append(kwargs["mp_context"].get_start_method())
            raise RuntimeError("no pool started")

    def pool_size(workers):
        with pytest.raises(RuntimeError, match="no pool started"):
            ev.ber_eval(ev.ScDecoder(CODE), CODE, [1.0], STOP,
                        rng=np.random.default_rng(0), workers=workers)
        return sizes[-1]

    monkeypatch.setattr(ev, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert pool_size(2) == 2
    assert pool_size(500) == 3
    # one usable CPU still takes the pool path
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert pool_size(2) == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert pool_size(500) == 5
    # workers inherit the decoder and the one BLAS thread, whatever the
    # platform's default start method
    assert start_methods == ["fork"] * 4


def blas_threads():
    return nn._openblas_function("get_num_threads")()


def process_threads():
    """(OS threads, BLAS threads) of the calling process; OS threads are
    None where there is no /proc to count them."""
    try:
        return len(os.listdir("/proc/self/task")), blas_threads()
    except FileNotFoundError:
        return None, blas_threads()


@pytest.fixture
def two_blas_threads():
    """The parent at two BLAS threads, so a change of its count shows;
    its own count is put back afterwards."""
    if nn._openblas_function("get_num_threads") is None:
        pytest.skip("numpy has no OpenBLAS thread controls here")
    with nn.blas_threads(2):
        yield


def test_ber_pool_workers_run_one_blas_thread(two_blas_threads):
    with ev._make_pool(ev.ScDecoder(CODE), CODE, 1) as pool:
        threads, blas = pool.submit(process_threads).result(timeout=60)
    assert blas == 1
    assert blas_threads() == 2
    if threads is None:
        pytest.skip("no /proc/self/task to count a worker's threads")
    # an OpenBLAS server thread started in a worker would busy-wait beside it
    assert threads == 1


def test_ber_pool_parent_blas_threads_restored_on_error(two_blas_threads,
                                                        monkeypatch):
    seen = []

    class NoPool:
        def __init__(self, max_workers, **kwargs):
            seen.append(blas_threads())
            raise RuntimeError("no pool started")

    monkeypatch.setattr(ev, "ProcessPoolExecutor", NoPool)
    with pytest.raises(RuntimeError, match="no pool started"):
        ev.ber_eval(ev.ScDecoder(CODE), CODE, [1.0], STOP,
                    rng=np.random.default_rng(0), workers=2)
    # one thread while the pool would fork, the old count after
    assert seen == [1]
    assert blas_threads() == 2


# the counts passed to OpenBLAS's set call while ``set_calls`` is in use;
# a forked pool worker has its own copy
_SET_CALLS = []


@pytest.fixture
def set_calls(monkeypatch):
    """Records every count ``nn.blas_threads`` sets, and sets it."""
    lookup = nn._openblas_function

    def spy(name):
        fn = lookup(name)
        if name != "set_num_threads" or fn is None:
            return fn
        return lambda n: (_SET_CALLS.append(n), fn(n))

    _SET_CALLS.clear()
    monkeypatch.setattr(nn, "_openblas_function", spy)
    yield _SET_CALLS
    _SET_CALLS.clear()


def test_training_runs_at_one_blas_thread_and_restores_it(two_blas_threads):
    spec = ModelSpec("mlp", "rnnd", N=8, K=4, mlp_hidden=(16, 8))
    dataset = gen_dataset(polar.construct_code(8, 4))
    seen = []
    train(build(spec, seed=1), dataset, TrainConfig(epochs=2, seed=1, checkpoint_every=1),
          epoch_callback=lambda model, epoch: seen.append(blas_threads()))
    assert seen == [1, 1]
    assert blas_threads() == 2
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged):
            train(build(spec, seed=1), dataset, TrainConfig(epochs=50, lr=1e300, seed=1))
    assert blas_threads() == 2


def _spy_forward(monkeypatch, cls, seen, fail=False):
    """Make ``cls.forward`` record the BLAS thread count, or raise."""
    forward = cls.forward

    def spy(self, x, keep=False):
        seen.append(blas_threads())
        if fail:
            raise RuntimeError("forward failed")
        return forward(self, x, keep)

    monkeypatch.setattr(cls, "forward", spy)


@pytest.mark.parametrize("family,layer", [("cnn", nn.Conv1D), ("rnn", nn.LSTM)])
def test_tiled_forward_runs_at_one_blas_thread_and_restores_it(
        two_blas_threads, monkeypatch, family, layer):
    model = build(ModelSpec(family, "rnnd", N=16, K=8), seed=0)
    y = np.random.default_rng(0).standard_normal((300, 16))
    seen = []
    _spy_forward(monkeypatch, layer, seen)
    model.forward(y)
    assert len(seen) > 2 and set(seen) == {1}
    assert blas_threads() == 2
    _spy_forward(monkeypatch, layer, seen, fail=True)
    with pytest.raises(RuntimeError, match="forward failed"):
        model.forward(y)
    assert blas_threads() == 2


def test_mlp_forward_runs_its_layers_at_one_blas_thread(two_blas_threads, monkeypatch,
                                                        set_calls):
    model = build(ModelSpec("mlp", "rnnd", N=16, K=8), seed=0)
    seen = []
    _spy_forward(monkeypatch, nn.Affine, seen)
    model.forward(np.random.default_rng(0).standard_normal((ev.BER_BLOCK_FRAMES, 16)))
    # two tiles, each through the four Affines of both stacks
    assert len(seen) == 16 and set(seen) == {1}
    # one thread for the whole forward, the old count after
    assert set_calls == [1, 2]
    assert blas_threads() == 2


# a layer each tile of the family's stacks runs through
_FAMILY_LAYER = {"mlp": nn.Affine, "cnn": nn.Conv1D, "rnn": nn.LSTM}


def _spy_threads(monkeypatch, family, seen, fail_off_caller=False):
    """Make the family's layer record the thread that runs it, and raise
    on any thread but the caller's with ``fail_off_caller``."""
    cls = _FAMILY_LAYER[family]
    forward, caller = cls.forward, threading.get_ident()

    def spy(self, x, keep=False):
        seen.add(threading.get_ident())
        if fail_off_caller and threading.get_ident() != caller:
            raise RuntimeError("tile failed")
        return forward(self, x, keep)

    monkeypatch.setattr(cls, "forward", spy)


def _decode_blocks(family):
    """A one-stack (nnd) and a two-stack (rnnd) model of ``family``, each
    with a block of frames that is several of its tiles."""
    y = np.random.default_rng(0).standard_normal((ev.BER_BLOCK_FRAMES, 16))
    return [(build(ModelSpec(family, variant, N=16, K=8), seed=0), y)
            for variant in ("nnd", "rnnd")]


def _count_starts(monkeypatch):
    """Make ``threading.Thread.start`` record the threads it starts."""
    starts, start = [], threading.Thread.start

    def spy(thread):
        starts.append(thread)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return starts


@pytest.mark.parametrize("family", list(_FAMILY_LAYER))
def test_multi_tile_forward_runs_on_the_caller_and_one_helper(two_blas_threads,
                                                              monkeypatch, family):
    for model, y in _decode_blocks(family):
        before, seen = threading.active_count(), set()
        with monkeypatch.context() as patch:
            _spy_threads(patch, family, seen)
            starts = _count_starts(patch)
            model.forward(y)
        # one helper for the whole forward, however many stacks it has
        assert len(starts) == 1
        assert len(seen) == 2 and threading.get_ident() in seen
        assert blas_threads() == 2
        assert threading.active_count() == before


@pytest.mark.parametrize("family", list(_FAMILY_LAYER))
def test_forward_at_one_blas_thread_starts_no_thread(two_blas_threads, monkeypatch,
                                                     family):
    def no_start(thread):
        raise AssertionError(f"{thread} started")

    for model, y in _decode_blocks(family):
        seen = set()
        with monkeypatch.context() as patch:
            _spy_threads(patch, family, seen)
            patch.setattr(threading.Thread, "start", no_start)
            with nn.blas_threads(1):
                model.forward(y)
        assert seen == {threading.get_ident()}
        assert blas_threads() == 2


@pytest.mark.parametrize("family", list(_FAMILY_LAYER))
def test_tile_error_in_a_helper_reraises_in_the_caller(two_blas_threads, monkeypatch,
                                                       family):
    for model, y in _decode_blocks(family):
        before, seen = threading.active_count(), set()
        with monkeypatch.context() as patch:
            _spy_threads(patch, family, seen, fail_off_caller=True)
            with pytest.raises(RuntimeError, match="tile failed"):
                model.forward(y)
        assert len(seen) == 2
        assert blas_threads() == 2
        assert threading.active_count() == before


def _decode_in_worker():
    """In a pool worker: the set calls one tiled decode makes, then the
    worker's (OS threads, BLAS threads)."""
    before = len(_SET_CALLS)
    decoder, code = ev._worker
    decoder.decode(np.random.default_rng(0).standard_normal((300, code.N)), 0.8)
    return _SET_CALLS[before:], process_threads()


def test_pool_worker_decodes_with_no_blas_set_call(two_blas_threads, set_calls):
    decoder = ev.ModelDecoder(build(ModelSpec("cnn", "rnnd", N=16, K=8), seed=0))
    with ev._make_pool(decoder, CODE, 1) as pool:
        calls, (threads, blas) = pool.submit(_decode_in_worker).result(timeout=60)
    assert calls == []
    assert blas == 1 and threads in (1, None)
    # the parent's own calls: one thread for the pool, its count after
    assert set_calls == [1, 2]
    assert blas_threads() == 2


def _pickled_size(obj):
    return len(pickle.dumps(obj))


@pytest.mark.parametrize("arch", ["mlp-nnd", "mlp-rnnd", "cnn-nnd", "cnn-rnnd",
                                  "rnn-nnd", "rnn-rnnd"])
def test_decoding_keeps_no_training_state(arch):
    # what a decoder holds after decoding is what the pool ships and what
    # stays resident between blocks: the weights, not the activations
    family, variant = arch.split("-")
    spec = ModelSpec(family=family, variant=variant, N=16, K=8)
    fresh = _pickled_size(ev.ModelDecoder(build(spec, seed=0)))
    decoder = ev.ModelDecoder(build(spec, seed=0))
    msgs, s, y = ev._frames(CODE, ev.BER_BLOCK_FRAMES, 0.8, np.random.default_rng(1))
    decoder.decode(y, 0.8)
    assert abs(_pickled_size(decoder) - fresh) <= 2 ** 20
    decoder.model.loss(y[:64], s[:64], msgs[:64], compute_grads=True)
    decoder.decode(y, 0.8)
    assert abs(_pickled_size(decoder) - fresh) <= 2 ** 20


def test_ber_workers_validation():
    with pytest.raises(ValueError, match="workers"):
        ev.ber_eval(ev.ScDecoder(CODE), CODE, [1.0], STOP,
                    rng=np.random.default_rng(0), workers=0)


def test_ber_max_frames_not_exceeded():
    stop = ev.StopRule(min_bit_errors=10 ** 9, max_frames=3000)
    (row,) = ev.ber_eval(ev.ScDecoder(CODE), CODE, [0.0], stop=stop,
                         rng=np.random.default_rng(0))
    assert row.frames == 3000


# ------------------------------------------------------------------ snr_gain

def test_snr_identity_denoiser_zero_gain():
    # zero weights make the residual stage an identity, so both SNRs match
    model = zeroed_denoiser(tiny_model())
    (row,) = ev.snr_gain(model, CODE, [2.0], frames=2000,
                         rng=np.random.default_rng(0))
    assert row.output_snr_db == pytest.approx(row.input_snr_db, abs=1e-12)


def test_snr_input_matches_theory():
    # E s^2 = 1 and E (y-s)^2 = sigma^2, so input SNR -> -20 log10(sigma)
    model = zeroed_denoiser(tiny_model())
    for ebn0_db in [0.0, 4.0]:
        sigma = polar.ebn0_to_sigma(ebn0_db, CODE.rate)
        (row,) = ev.snr_gain(model, CODE, [ebn0_db], frames=100_000,
                             rng=np.random.default_rng(1))
        assert row.input_snr_db == pytest.approx(-20.0 * np.log10(sigma), abs=0.1)
        assert row.ebn0_db == ebn0_db


def test_snr_deterministic():
    model = tiny_model()
    a = ev.snr_gain(model, CODE, [1.0, 3.0], frames=1000,
                    rng=np.random.default_rng(4))
    b = ev.snr_gain(model, CODE, [1.0, 3.0], frames=1000,
                    rng=np.random.default_rng(4))
    assert a == b


def test_snr_of_noise_below_float_resolution_is_infinite(tmp_path):
    # at 400 dB sigma is about 1e-20, so y == s exactly: zero noise, +inf
    # dB, and the row survives a CSV round trip
    model = zeroed_denoiser(tiny_model())
    rows = ev.snr_gain(model, CODE, [400.0], frames=10,
                       rng=np.random.default_rng(0))
    assert rows[0].input_snr_db == rows[0].output_snr_db == np.inf
    ev.write_rows(tmp_path / "snr.csv", ev.SnrRow, rows)
    assert ev.read_rows(tmp_path / "snr.csv", ev.SnrRow) == rows


def test_snr_rejects_decode_only_model():
    with pytest.raises(ValueError, match="denoiser"):
        ev.snr_gain(tiny_model(variant="nnd"), CODE, [1.0], frames=10,
                    rng=np.random.default_rng(0))


def test_snr_rejects_bad_frames():
    with pytest.raises(ValueError, match="frames"):
        ev.snr_gain(tiny_model(), CODE, [1.0], frames=0,
                    rng=np.random.default_rng(0))


# ------------------------------------------------------------------ pdf_hist

def test_pdf_shape_and_edges():
    rows = ev.pdf_hist(tiny_model(), CODE, 0.0, frames=256,
                       rng=np.random.default_rng(0), bins=80)
    assert len(rows) == 80
    assert rows[0].bin_left == -4.0
    assert rows[-1].bin_right == 4.0
    for prev, cur in zip(rows, rows[1:]):
        assert cur.bin_left == pytest.approx(prev.bin_right)


def test_pdf_densities_integrate_to_one():
    rows = ev.pdf_hist(tiny_model(), CODE, 0.0, frames=2048,
                       rng=np.random.default_rng(1), bins=80)
    width = (4.0 - (-4.0)) / 80
    for field in ("density_received", "density_denoised"):
        integral = sum(getattr(r, field) for r in rows) * width
        assert integral == pytest.approx(1.0, abs=1e-6)


def test_pdf_clips_outliers_into_edge_bins():
    # at a very noisy operating point many received values fall beyond the
    # histogram range and must be absorbed by the first and last bin
    rows = ev.pdf_hist(tiny_model(), CODE, -10.0, frames=2048,
                       rng=np.random.default_rng(2), bins=16)
    assert len(rows) == 16
    assert rows[0].density_received > 0
    assert rows[-1].density_received > 0
    width = 0.5
    integral = sum(r.density_received for r in rows) * width
    assert integral == pytest.approx(1.0, abs=1e-6)


def test_pdf_received_moments_match_theory():
    # coded BPSK symbols are +-1 with mean 0, so Var y = 1 + sigma^2; the
    # histogram moments must reproduce that (2 dB keeps clipping negligible)
    ebn0_db = 2.0
    sigma = polar.ebn0_to_sigma(ebn0_db, CODE.rate)
    rows = ev.pdf_hist(tiny_model(), CODE, ebn0_db, frames=20_000,
                       rng=np.random.default_rng(8), bins=80)
    width = 0.1
    centers = [(r.bin_left + r.bin_right) / 2 for r in rows]
    mean = sum(c * r.density_received for c, r in zip(centers, rows)) * width
    second = sum(c * c * r.density_received for c, r in zip(centers, rows)) * width
    var = second - mean ** 2
    assert abs(mean) < 0.02
    assert var == pytest.approx(1.0 + sigma ** 2, rel=0.02)


def test_pdf_received_mass_concentrates_at_modes():
    # low noise (sigma ~ 0.32 at 10 dB): received samples pile up within
    # +-0.75 of the two BPSK levels
    rows = ev.pdf_hist(tiny_model(), CODE, 10.0, frames=2048,
                       rng=np.random.default_rng(3), bins=80)
    width = 0.1
    near_modes = sum(r.density_received * width for r in rows
                     if abs(abs(r.bin_left + width / 2) - 1.0) < 0.75)
    assert near_modes > 0.95


def test_pdf_validation():
    model = tiny_model()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="denoiser"):
        ev.pdf_hist(tiny_model(variant="nnd"), CODE, 0.0, frames=10, rng=rng,
                    bins=80)
    with pytest.raises(ValueError, match="bins"):
        ev.pdf_hist(model, CODE, 0.0, frames=10, rng=rng, bins=0)
    with pytest.raises(ValueError, match="frames"):
        ev.pdf_hist(model, CODE, 0.0, frames=0, rng=rng, bins=80)


def test_pdf_deterministic():
    a = ev.pdf_hist(tiny_model(), CODE, 1.0, frames=300,
                    rng=np.random.default_rng(9), bins=80)
    b = ev.pdf_hist(tiny_model(), CODE, 1.0, frames=300,
                    rng=np.random.default_rng(9), bins=80)
    assert a == b


# ------------------------------------------------------------- timing_bench

def test_timing_rows():
    decoders = [ev.ScDecoder(CODE), ev.ModelDecoder(tiny_model())]
    rows = ev.timing_bench(CODE, decoders, frames=32, batch=16,
                           rng=np.random.default_rng(0))
    assert [r.decoder for r in rows] == ["sc", "mlp-rnnd-16-8"]
    for row in rows:
        assert row.frames == 32
        assert row.total_time_s > 0
        assert row.per_frame_s == pytest.approx(row.total_time_s / 32)
    assert rows[0].batch == 1
    assert rows[1].batch == 16


def test_timing_validation():
    with pytest.raises(ValueError, match="frames"):
        ev.timing_bench(CODE, [ev.ScDecoder(CODE)], frames=0, batch=1024,
                        rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="batch"):
        ev.timing_bench(CODE, [ev.ScDecoder(CODE)], frames=4, batch=0,
                        rng=np.random.default_rng(0))


def test_timing_repeatable_within_2x():
    # enough frames that wall-clock jitter stays well under the 2x bound
    decoders = [ev.ScDecoder(CODE)]
    times = []
    for _ in range(2):
        (row,) = ev.timing_bench(CODE, decoders, frames=512, batch=1024,
                                 rng=np.random.default_rng(0))
        times.append(row.total_time_s)
    ratio = max(times) / min(times)
    assert ratio < 2.0


def test_timing_batched_amortizes_neural_decode():
    # one-shot batched forwards amortize per-frame overhead by a wide margin
    dec = ev.ModelDecoder(tiny_model())
    (batched,) = ev.timing_bench(CODE, [dec], frames=512, batch=512,
                                 rng=np.random.default_rng(1))
    (single,) = ev.timing_bench(CODE, [dec], frames=512, batch=1,
                                rng=np.random.default_rng(1))
    assert batched.per_frame_s < single.per_frame_s


def test_timing_sc_roughly_linear_in_frames():
    decoders = [ev.ScDecoder(CODE)]
    (small,) = ev.timing_bench(CODE, decoders, frames=128, batch=1024,
                               rng=np.random.default_rng(2))
    (large,) = ev.timing_bench(CODE, decoders, frames=512, batch=1024,
                               rng=np.random.default_rng(2))
    # ideal ratio is 4; generous bounds absorb scheduler noise
    ratio = large.total_time_s / small.total_time_s
    assert 2.0 < ratio < 8.0


# ------------------------------------------------------------------ CSV I/O

def test_ber_csv_round_trip(tmp_path):
    rows = [ev.BerRow("sc", 1.5, 2048, 77, 77 / (2048 * 8)),
            ev.BerRow("mlp-rnnd-16-8", 2.0, 4096, 0, 0.0)]
    path = tmp_path / "ber.csv"
    ev.write_rows(path, ev.BerRow, rows)
    assert ev.read_rows(path, ev.BerRow) == rows
    header = path.read_text().splitlines()[0]
    assert header == "decoder,ebn0_db,frames,bit_errors,ber"


def test_snr_csv_round_trip(tmp_path):
    rows = [ev.SnrRow(0.0, 0.0123456789012345678, 2.5)]
    path = tmp_path / "snr.csv"
    ev.write_rows(path, ev.SnrRow, rows)
    assert ev.read_rows(path, ev.SnrRow) == rows
    header = path.read_text().splitlines()[0]
    assert header == "ebn0_db,input_snr_db,output_snr_db"


def test_pdf_csv_round_trip(tmp_path):
    rows = ev.pdf_hist(tiny_model(), CODE, 0.0, frames=64,
                       rng=np.random.default_rng(5), bins=80)
    path = tmp_path / "pdf.csv"
    ev.write_rows(path, ev.HistRow, rows)
    assert ev.read_rows(path, ev.HistRow) == rows
    header = path.read_text().splitlines()[0]
    assert header == "bin_left,bin_right,density_received,density_denoised"


def test_timing_csv_round_trip(tmp_path):
    rows = [ev.TimingRow("sc", 100, 1.25, 0.0125, 1)]
    path = tmp_path / "timing.csv"
    ev.write_rows(path, ev.TimingRow, rows)
    assert ev.read_rows(path, ev.TimingRow) == rows
    header = path.read_text().splitlines()[0]
    assert header == "decoder,frames,total_time_s,per_frame_s,batch"


def test_csv_header_mismatch_rejected(tmp_path):
    path = tmp_path / "ber.csv"
    path.write_text("wrong,header\n")
    with pytest.raises(ValueError, match="header"):
        ev.read_rows(path, ev.BerRow)


BER_HEAD = "decoder,ebn0_db,frames,bit_errors,ber\r\n"


@pytest.mark.parametrize("text,where", [
    ("", "line 1: no header"),
    ("decoder,ebn0_db,frames,bit_errors\r\n", "line 1: header"),
    (BER_HEAD + "sc,0.0,10,1,0.0125\r\nsc,1.0,10,1\r\n", "line 3: 4 fields"),
    (BER_HEAD + "sc,0.0,10,1,0.0125,7\r\n", "line 2: 6 fields"),
    (BER_HEAD + "sc,0.0,ten,1,0.0125\r\n", "line 2: invalid literal"),
    # one over the csv module's default field size limit
    (BER_HEAD + "sc,0.0,1" + "0" * 131_072 + ",1,0.0125\r\n",
     "line 2: field larger"),
    # a lone surrogate escapes to the byte 0xff, which is not UTF-8
    (BER_HEAD + "sc,0.0,10,1,0.0125\r\nsc\udcff,1.0,10,1,0.0125\r\n",
     "line 3: not UTF-8"),
], ids=["empty", "header", "short-row", "long-row", "bad-value", "huge-field",
        "not-utf-8"])
def test_csv_reader_names_file_and_line(tmp_path, text, where):
    path = tmp_path / "ber.csv"
    path.write_bytes(text.encode(errors="surrogateescape"))
    with pytest.raises(ValueError, match=f"ber.csv, {where}"):
        ev.read_rows(path, ev.BerRow)


_BER_CSV = (BER_HEAD + "sc,0.0,2048,77,0.004699707031250\r\n"
            "mlp-rnnd-16-8,2.5,4096,0,0.0\r\n").encode()


@st.composite
def _damaged_csvs(draw):
    """The bytes of a valid ber.csv, truncated, or with a few bytes cut,
    inserted or overwritten."""
    data = bytearray(_BER_CSV)
    chunks = st.text(min_size=1, max_size=3).map(str.encode) | st.sampled_from(
        [b",", b"\r\n", b"\r", b"\n", b'"', b"\x00", b"\xff", b"\xc3", b"-",
         b"nan", b"1e999", b"_", b"9" * 5000])
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["truncate", "cut", "insert", "overwrite"]))
        # mostly in the rows, since any edit of the header fails the same way
        at = draw(st.integers(min(len(BER_HEAD), len(data)), len(data))
                  | st.integers(0, len(data)))
        if op == "truncate":
            del data[at:]
        elif op == "cut":
            del data[at:at + draw(st.integers(1, 8))]
        else:
            chunk = draw(chunks)
            data[at:at + (len(chunk) if op == "overwrite" else 0)] = chunk
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(data=_damaged_csvs())
def test_damaged_csv_raises_only_value_error_naming_file_and_line(tmp_path_factory,
                                                                  data):
    path = tmp_path_factory.getbasetemp() / "fuzz_ber.csv"
    path.write_bytes(data)
    try:
        rows = ev.read_rows(path, ev.BerRow)
    except ValueError as exc:
        assert re.match(rf"{re.escape(str(path))}, line [1-9][0-9]*: ", str(exc))
    else:
        assert all(isinstance(r, ev.BerRow) for r in rows)


def test_csv_bytes_golden(tmp_path):
    big = 2 ** 70 + 1
    cases = [
        (ev.BerRow("sc", -0.0, big, 3, 5e-324),
         "decoder,ebn0_db,frames,bit_errors,ber\r\n"
         "sc,-0.0,1180591620717411303425,3,5e-324\r\n"),
        (ev.SnrRow(np.float64(0.1), 1 / 3, 1e308),
         "ebn0_db,input_snr_db,output_snr_db\r\n"
         "0.1,0.3333333333333333,1e+308\r\n"),
        (ev.HistRow(-0.0, 0.1, np.float64(1 / 3), 5e-324),
         "bin_left,bin_right,density_received,density_denoised\r\n"
         "-0.0,0.1,0.3333333333333333,5e-324\r\n"),
        (ev.TimingRow("cnn-rnnd-16-8", big, 1e308, np.float64(5e-324), 2 ** 40),
         "decoder,frames,total_time_s,per_frame_s,batch\r\n"
         "cnn-rnnd-16-8,1180591620717411303425,1e+308,5e-324,1099511627776\r\n"),
        (TraceRow(big, 2 ** 53 + 1, 0.1, -0.0, 1 / 3),
         "epoch,step,total_loss,denoise_loss,decode_loss\r\n"
         "1180591620717411303425,9007199254740993,0.1,-0.0,0.3333333333333333\r\n"),
    ]
    for row, expected in cases:
        path = tmp_path / f"{type(row).__name__}.csv"
        ev.write_rows(path, type(row), [row])
        assert path.read_bytes() == expected.encode()


_VALUES = {
    str: st.from_regex(r"[a-z0-9-]+", fullmatch=True),
    int: st.integers(min_value=-2 ** 100, max_value=2 ** 100),
    float: st.floats(allow_nan=False, allow_infinity=False),
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_csv_rows_round_trip_exactly(tmp_path_factory, data):
    row_type = data.draw(st.sampled_from(
        [ev.BerRow, ev.SnrRow, ev.HistRow, ev.TimingRow, TraceRow]))
    rows = data.draw(st.lists(st.builds(
        row_type, *(_VALUES[f.type] for f in dataclasses.fields(row_type))),
        max_size=4))
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    ev.write_rows(path, row_type, rows)
    # repr tells -0.0 from 0.0 and 1 from 1.0, which == does not
    assert [repr(r) for r in ev.read_rows(path, row_type)] == [repr(r) for r in rows]
