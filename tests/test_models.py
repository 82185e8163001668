"""Decoder-zoo tests: parameter-count regressions (each re-derived with
inline arithmetic), residual wiring, loss composition, and end-to-end
gradient checks on small instances.
"""

import resource
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polarlab import nn
from polarlab.models import (
    FAMILIES,
    INFERENCE_TILE,
    VARIANTS,
    Model,
    ModelSpec,
    build,
    hard_decision,
    parse_arch_name,
    spec_param_count,
)
from polarlab.nn import mse_loss, param_count

from gradcheck import ModelObjective, grad_check

ALL_ARCHS = ["mlp-nnd", "mlp-rnnd", "cnn-nnd", "cnn-rnnd", "rnn-nnd", "rnn-rnnd"]


def spec_for(arch, N=16, K=8, **dims):
    family, variant = arch.split("-")
    return ModelSpec(family=family, variant=variant, N=N, K=K, **dims)


def affine_params(n_in, n_out):
    return n_in * n_out + n_out


def conv_params(c_in, c_out):
    return c_in * c_out * 3 + c_out


def lstm_params(n_in, hidden):
    return 4 * (n_in * hidden + hidden * hidden + hidden)


# ------------------------------------------------------------- parameter counts

def test_param_count_mlp_nnd():
    expected = (affine_params(16, 128) + affine_params(128, 64)
                + affine_params(64, 32) + affine_params(32, 128)
                + affine_params(128, 64) + affine_params(64, 32)
                + affine_params(32, 8))
    assert expected == 27336
    assert param_count(build(spec_for("mlp-nnd"), seed=0)) == 27336


def test_param_count_mlp_rnnd():
    denoiser = (affine_params(16, 128) + affine_params(128, 64)
                + affine_params(64, 32) + affine_params(32, 16))
    decoder = (affine_params(16, 128) + affine_params(128, 64)
               + affine_params(64, 32) + affine_params(32, 8))
    assert denoiser + decoder == 25816
    assert param_count(build(spec_for("mlp-rnnd"), seed=0)) == 25816


def test_param_count_cnn_rnnd():
    denoiser = (conv_params(1, 64) + conv_params(64, 48) + conv_params(48, 32)
                + affine_params(32 * 4, 16))
    decoder = (conv_params(1, 64) + conv_params(64, 32) + conv_params(32, 32)
               + affine_params(32 * 4, 8))
    assert denoiser + decoder == 26792
    assert param_count(build(spec_for("cnn-rnnd"), seed=0)) == 26792


def test_param_count_cnn_nnd():
    expected = (conv_params(1, 64) + conv_params(64, 48) + conv_params(48, 32)
                + conv_params(32, 64) + conv_params(64, 32) + conv_params(32, 32)
                + affine_params(32 * 1, 8))
    assert expected == 29912
    assert param_count(build(spec_for("cnn-nnd"), seed=0)) == 29912


def test_param_count_rnn_rnnd():
    expected = (lstm_params(1, 64) + affine_params(64, 16)
                + lstm_params(1, 48) + affine_params(48, 8))
    assert expected == 27928
    assert param_count(build(spec_for("rnn-rnnd"), seed=0)) == 27928


def test_param_count_rnn_nnd():
    expected = (lstm_params(1, 64) + lstm_params(64, 48) + affine_params(48, 8))
    assert expected == 38984
    assert param_count(build(spec_for("rnn-nnd"), seed=0)) == 38984


_WIDTH = st.integers(1, 9)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_spec_param_count_matches_built_model(data):
    # the closed form a checkpoint is checked against before it is built
    family = data.draw(st.sampled_from(FAMILIES))
    variant = data.draw(st.sampled_from(VARIANTS))
    step = {"nnd": 16, "rnnd": 4}[variant] if family == "cnn" else 1
    N = step * data.draw(st.integers(1, 32 // step))
    spec = ModelSpec(
        family=family, variant=variant, N=N, K=data.draw(st.integers(1, N)),
        mlp_hidden=tuple(data.draw(st.lists(_WIDTH, max_size=4))),
        cnn_denoiser_channels=tuple(data.draw(st.lists(_WIDTH, min_size=3, max_size=3))),
        cnn_decoder_channels=tuple(data.draw(st.lists(_WIDTH, min_size=3, max_size=3))),
        rnn_denoiser_hidden=data.draw(_WIDTH), rnn_decoder_hidden=data.draw(_WIDTH))
    assert spec_param_count(spec) == param_count(build(spec, seed=0))


@pytest.mark.parametrize("arch", ALL_ARCHS)
def test_params_are_named_params_in_order(arch):
    # Adam lays params() out in its flat buffers and checkpoints name
    # named_params(): the two must be the same objects in the same order
    model = build(spec_for(arch), seed=0)
    named = [p for _, p in model.named_params()]
    params = model.params()
    assert len(params) == len(named)
    assert all(a is b for a, b in zip(params, named))


def test_cnn_channels_come_in_threes():
    with pytest.raises(ValueError, match="three"):
        spec_for("cnn-rnnd", cnn_decoder_channels=(64, 32))


# ------------------------------------------------------------------ arch naming

def test_arch_name_round_trip():
    for arch in ALL_ARCHS:
        spec = spec_for(arch)
        assert spec.arch_name == f"{arch}-16-8"
        assert parse_arch_name(spec.arch_name) == spec


def test_parse_arch_name_rejects_garbage():
    for bad in ("mlp-16-8", "gru-nnd-16-8", "mlp-nnd-x-8", "mlp-nnd-16-8-extra"):
        with pytest.raises(ValueError):
            parse_arch_name(bad)


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(family="mlp", variant="plain")
    with pytest.raises(ValueError):
        ModelSpec(family="dense", variant="nnd")
    with pytest.raises(ValueError):
        ModelSpec(family="mlp", variant="nnd", N=16, K=17)


def test_cnn_dims_must_support_pooling():
    with pytest.raises(ValueError):
        build(spec_for("cnn-rnnd", N=6, K=3), seed=0)
    with pytest.raises(ValueError):
        build(spec_for("cnn-nnd", N=8, K=4), seed=0)


# --------------------------------------------------------------------- forward

@pytest.mark.parametrize("arch", ALL_ARCHS)
def test_forward_shapes_and_range(arch):
    model = build(spec_for(arch), seed=1)
    y = np.random.default_rng(2).standard_normal((5, 16))
    s_hat, u_soft = model.forward(y)
    assert u_soft.shape == (5, 8)
    assert ((u_soft > 0.0) & (u_soft < 1.0)).all()
    if arch.endswith("rnnd"):
        assert s_hat.shape == (5, 16)
        np.testing.assert_allclose(model.denoise(y), s_hat, atol=0)
    else:
        assert s_hat is None
        with pytest.raises(ValueError):
            model.denoise(y)


@pytest.mark.parametrize("arch", ALL_ARCHS)
def test_forward_finite_for_large_inputs(arch):
    model = build(spec_for(arch), seed=3)
    y = np.random.default_rng(4).standard_normal((3, 16)) * 100.0
    s_hat, u_soft = model.forward(y)
    assert np.isfinite(u_soft).all()
    if s_hat is not None:
        assert np.isfinite(s_hat).all()


@pytest.mark.parametrize("arch", ["mlp-rnnd", "cnn-rnnd", "rnn-rnnd"])
def test_zero_denoiser_is_identity(arch):
    model = build(spec_for(arch), seed=5)
    for p in model.denoiser.params():
        p.value[...] = 0.0
    y = np.random.default_rng(6).standard_normal((4, 16))
    np.testing.assert_allclose(model.denoise(y), y, atol=1e-15)


def test_build_deterministic_and_seed_sensitive():
    a = build(spec_for("mlp-rnnd"), seed=9)
    b = build(spec_for("mlp-rnnd"), seed=9)
    c = build(spec_for("mlp-rnnd"), seed=10)
    for (name_a, pa), (name_b, pb) in zip(a.named_params(), b.named_params()):
        assert name_a == name_b
        np.testing.assert_array_equal(pa.value, pb.value)
    assert any(not np.array_equal(pa.value, pc.value)
               for (_, pa), (_, pc) in zip(a.named_params(), c.named_params()))


def test_forward_deterministic():
    model = build(spec_for("cnn-rnnd"), seed=11)
    y = np.random.default_rng(12).standard_normal((3, 16))
    _, u1 = model.forward(y)
    _, u2 = model.forward(y)
    np.testing.assert_array_equal(u1, u2)


def test_forward_rejects_bad_width():
    model = build(spec_for("mlp-nnd"), seed=0)
    with pytest.raises(ValueError):
        model.forward(np.zeros((2, 15)))
    with pytest.raises(ValueError):
        model.forward(np.zeros(16))


# both sides of every boundary of a 64-, a 128- and a 256-frame tile, the
# decode block and two blocks
@pytest.mark.parametrize("batch",
                         [1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257, 2048, 4096])
@pytest.mark.parametrize("arch", ALL_ARCHS)
def test_inference_forward_equals_training_forward(arch, batch):
    # the training forward runs the batch whole, the inference forward in
    # tiles, on one thread or on two; the bits must not tell them apart
    model = build(spec_for(arch), seed=16)
    y = np.random.default_rng(batch).standard_normal((batch, 16))
    for budget in (1, 2):
        with nn.blas_threads(budget):
            s_want, u_want = model.forward(y, keep=True)
            s_got, u_got = model.forward(y)
            s_alone = None if s_want is None else model.denoise(y)
        assert u_got.tobytes() == u_want.tobytes()
        if s_want is None:
            assert s_got is None
        else:
            assert s_got.tobytes() == s_want.tobytes()
            assert s_alone.tobytes() == s_want.tobytes()


@pytest.mark.parametrize("arch", ALL_ARCHS)
@settings(max_examples=10, deadline=None)
@example(batch=3, tile=3).via("the smallest tile that never cuts one frame")
@example(batch=2049, tile=2048).via("a one-frame excess over the tile")
@example(batch=2048, tile=2).via("a tile of two on an even batch")
@given(batch=st.integers(2, 2100), tile=st.integers(2, 2049))
def test_inference_bits_do_not_depend_on_the_tile_size(arch, batch, tile):
    # the oracle is the training forward, which runs the batch whole; any
    # tile of 3 or more cuts no single frame from a batch of 2 or more, and
    # a tile of 2 only on odd batches, where the lone frame's gemv moves bits
    assume(tile > 2 or batch % 2 == 0)
    model = build(spec_for(arch), seed=16)
    y = np.random.default_rng(batch).standard_normal((batch, 16))
    with mock.patch.dict(INFERENCE_TILE, {model.spec.family: tile}):
        for budget in (1, 2):
            with nn.blas_threads(budget):
                s_want, u_want = model.forward(y, keep=True)
                s_got, u_got = model.forward(y)
                s_alone = None if s_want is None else model.denoise(y)
            assert u_got.tobytes() == u_want.tobytes()
            if s_want is not None:
                assert s_got.tobytes() == s_want.tobytes()
                assert s_alone.tobytes() == s_want.tobytes()


class _RowRecorder:
    """A stack that returns its input and records the row numbers it saw,
    per thread, as the threads of one forward interleave."""

    def __init__(self):
        self.tiles = {}

    def forward(self, x, keep=False):
        rows = x[:, 0].astype(int).tolist()
        self.tiles.setdefault(threading.get_ident(), []).append(rows)
        return x


# small sizes, the sizes in use and 64, the cnn size before them
@pytest.mark.parametrize("tile", sorted({3, 4, 5, 64, *INFERENCE_TILE.values()}))
def test_inference_tiles_cover_rows_in_order_without_single_frames(tile,
                                                                   monkeypatch):
    monkeypatch.setitem(INFERENCE_TILE, "cnn", tile)
    for budget in (1, 2):
        for batch in range(1, 2 * tile + 4):
            stack = _RowRecorder()
            y = np.repeat(np.arange(batch, dtype=float)[:, None], 16, axis=1)
            with nn.blas_threads(budget):
                threads = nn.blas_thread_count()
                _, out = Model(spec_for("cnn-nnd"), None, stack).forward(y)
            assert out.tobytes() == y.tobytes()
            # contiguous and in order
            tiles = sorted(sum(stack.tiles.values(), []))
            assert sum(tiles, []) == list(range(batch))
            sizes = [len(rows) for rows in tiles]
            assert max(sizes) <= tile
            assert min(sizes) >= min(batch, 2)
            # the fewest tiles that fit, and near-equal
            assert len(sizes) == -(-batch // tile)
            assert max(sizes) - min(sizes) <= 1
            # one contiguous run of tiles per thread, the caller's first
            runs = sorted(sum(own, []) for own in stack.tiles.values())
            assert sum(runs, []) == list(range(batch))
            assert stack.tiles[threading.get_ident()][0][0] == 0
            assert len(runs) == min(threads, len(tiles))


@pytest.mark.parametrize("arch", ALL_ARCHS)
def test_backward_after_inference_forward_raises(arch):
    # the training step leaves caches on every layer; the inference
    # forward after it must drop them, not leave them for a backward
    model = build(spec_for(arch), seed=17)
    rng = np.random.default_rng(18)
    y = rng.standard_normal((4, 16))
    model.loss(y, np.sign(y), rng.integers(0, 2, size=(4, 8)), compute_grads=True)
    s_hat, u_soft = model.forward(y)
    with pytest.raises(RuntimeError, match="keep=True"):
        model.decoder.backward(np.ones_like(u_soft))
    if s_hat is not None:
        with pytest.raises(RuntimeError, match="keep=True"):
            model.denoiser.backward(np.ones_like(s_hat))


@pytest.mark.skipif(not nn.KEEPS_FREED_HEAP,
                    reason="no C library mallopt that takes the heap policy")
def test_warm_inference_forward_does_not_page_fault():
    # every 2048-frame block frees its temporaries; the next one must reuse
    # the heap they came from, not fault fresh pages in (about 15k without it)
    model = build(spec_for("cnn-rnnd"), seed=19)
    y = np.random.default_rng(20).standard_normal((2048, 16))
    for _ in range(2):
        model.forward(y)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    model.forward(y)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


# ------------------------------------------------------------------------ loss

def test_rnnd_loss_is_sum_of_terms():
    model = build(spec_for("mlp-rnnd"), seed=13)
    rng = np.random.default_rng(14)
    y = rng.standard_normal((6, 16))
    s = np.sign(rng.standard_normal((6, 16)))
    u = rng.integers(0, 2, size=(6, 8)).astype(float)
    values = model.loss(y, s, u)
    assert values.total == pytest.approx(values.denoise + values.decode, abs=1e-15)
    s_hat, u_soft = model.forward(y)
    denoise_ref, _ = mse_loss(s_hat, s, 16)
    decode_ref, _ = mse_loss(u_soft, u, 8)
    assert values.denoise == pytest.approx(denoise_ref, abs=1e-15)
    assert values.decode == pytest.approx(decode_ref, abs=1e-15)


def test_nnd_loss_has_no_denoise_term():
    model = build(spec_for("mlp-nnd"), seed=15)
    rng = np.random.default_rng(16)
    y = rng.standard_normal((6, 16))
    u = rng.integers(0, 2, size=(6, 8)).astype(float)
    values = model.loss(y, None, u)
    assert values.denoise == 0.0
    assert values.total == values.decode > 0.0


@pytest.mark.parametrize("arch", ALL_ARCHS)
def test_loss_gradients_do_not_depend_on_the_last_step(arch):
    # each backward writes its gradients, so a second loss on the same
    # batch leaves the bytes of the first, not their sum
    model = build(spec_for(arch), seed=17)
    rng = np.random.default_rng(18)
    y = rng.standard_normal((8, 16))
    s = np.sign(rng.standard_normal((8, 16)))
    u = rng.integers(0, 2, size=(8, 8)).astype(float)
    grads = []
    for _ in range(2):
        model.loss(y, s, u, compute_grads=True)
        grads.append([p.grad.tobytes() for p in model.params()])
    assert grads[0] == grads[1]


def test_hard_decision_threshold():
    np.testing.assert_array_equal(hard_decision(np.array([0.2, 0.5, 0.8])),
                                  [0, 1, 1])


class _ProductReLU(nn.Layer):
    """ReLU as ``x * (x > 0)``, which gives -0.0 where ``nn.ReLU`` gives
    +0.0 (for a negative input and for -0.0); the same backward."""

    def forward(self, x, keep=False):
        mask = x > 0
        self._cache = np.ascontiguousarray(mask) if keep else None
        return x * mask

    def backward(self, dout):
        return dout * self._saved()


_WIDTHS_1_3 = st.tuples(*[st.integers(1, 3)] * 3)
_RELU_SPECS = st.one_of(
    st.sampled_from([spec_for(arch) for arch in ALL_ARCHS]),
    st.builds(lambda variant, hidden: spec_for(f"mlp-{variant}", mlp_hidden=hidden),
              st.sampled_from(VARIANTS), _WIDTHS_1_3),
    st.builds(lambda variant, den, dec: spec_for(
        f"cnn-{variant}", cnn_denoiser_channels=den, cnn_decoder_channels=dec),
        st.sampled_from(VARIANTS), _WIDTHS_1_3, _WIDTHS_1_3))
# few distinct values, so sums land on exact zeros of both signs
_DISCRETE = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]


def _model_bits(model, y, s, u):
    """The bits of both forwards, the loss and every parameter gradient."""
    out = []
    for keep in (False, True):
        out += [None if a is None else a.tobytes() for a in model.forward(y, keep)]
    loss = model.loss(y, s, u, compute_grads=True)
    return out + [loss, [p.grad.tobytes() for p in model.params()]]


@settings(max_examples=300, deadline=None)
@example(spec=spec_for("cnn-rnnd"), batch=1, seed=0).via("one frame: gemv products")
@example(spec=spec_for("mlp-rnnd"), batch=300, seed=0).via("the largest batch")
@example(spec=spec_for("cnn-nnd", cnn_denoiser_channels=(1, 1, 1),
                       cnn_decoder_channels=(1, 1, 1)),
         batch=1, seed=1).via("a length-1 conv of one channel: a scalar-product dW")
@given(spec=_RELU_SPECS, batch=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
def test_relu_sign_of_zero_moves_no_model_bit(spec, batch, seed):
    # nn.ReLU gives +0.0 where x * (x > 0) gives -0.0; every ReLU output
    # reaches a gemm (through MaxPool1D and Flatten in a cnn), whose sum
    # starts from +0.0, so no output or gradient may tell the two apart
    rng = np.random.default_rng(seed)
    model = build(spec, seed=0)
    for p in model.params():
        p.value[...] = rng.choice(_DISCRETE, size=p.value.shape)
    y = rng.choice(_DISCRETE, size=(batch, spec.N))
    s = rng.choice([-1.0, 1.0], size=(batch, spec.N))
    u = rng.integers(0, 2, size=(batch, spec.K)).astype(float)
    want = _model_bits(model, y, s, u)
    for stack in (model.denoiser, model.decoder):
        if stack is not None:
            stack.layers = [_ProductReLU() if isinstance(layer, nn.ReLU) else layer
                            for layer in stack.layers]
    assert _model_bits(model, y, s, u) == want


# --------------------------------------------------------- end-to-end gradients

def _toy_target(rng, N, K, batch=3):
    y = rng.standard_normal((batch, N))
    s = np.sign(rng.standard_normal((batch, N)))
    u = rng.integers(0, 2, size=(batch, K)).astype(float)
    return y, (s, u)


def _randomize(model, rng):
    # Zero-init biases can park relu/pool inputs exactly on a kink (a dead
    # relu row makes the next pre-activation exactly the bias), where the
    # subgradient convention and finite differences legitimately disagree.
    # Checking at a generic parameter point avoids that measure-zero case.
    for p in model.params():
        p.value[...] = rng.uniform(-0.5, 0.5, size=p.value.shape)


@pytest.mark.parametrize("seed", range(20))
def test_grad_end_to_end_mlp_rnnd_toy(seed):
    spec = spec_for("mlp-rnnd", N=4, K=2, mlp_hidden=(8, 6, 5))
    model = build(spec, seed=seed)
    rng = np.random.default_rng(seed + 100)
    _randomize(model, rng)
    y, target = _toy_target(rng, 4, 2)
    report = grad_check(ModelObjective(model), y, target, tolerance=1e-4)
    assert report.passed, f"{report.max_rel_error:.3e} at {report.worst_param}"


@pytest.mark.parametrize("seed", range(8))
def test_grad_end_to_end_cnn_rnnd_toy(seed):
    spec = spec_for("cnn-rnnd", N=4, K=2,
                    cnn_denoiser_channels=(3, 4, 2), cnn_decoder_channels=(3, 2, 2))
    model = build(spec, seed=seed)
    rng = np.random.default_rng(seed + 200)
    _randomize(model, rng)
    y, target = _toy_target(rng, 4, 2)
    report = grad_check(ModelObjective(model), y, target, tolerance=1e-4)
    assert report.passed, f"{report.max_rel_error:.3e} at {report.worst_param}"


@pytest.mark.parametrize("seed", range(8))
def test_grad_end_to_end_rnn_rnnd_toy(seed):
    spec = spec_for("rnn-rnnd", N=4, K=2, rnn_denoiser_hidden=5, rnn_decoder_hidden=4)
    model = build(spec, seed=seed)
    rng = np.random.default_rng(seed + 300)
    _randomize(model, rng)
    y, target = _toy_target(rng, 4, 2)
    report = grad_check(ModelObjective(model), y, target, tolerance=1e-4)
    assert report.passed, f"{report.max_rel_error:.3e} at {report.worst_param}"


@pytest.mark.parametrize("seed", range(8))
def test_grad_end_to_end_nnd_toys(seed):
    for spec in (spec_for("mlp-nnd", N=4, K=2, mlp_hidden=(6, 5, 4)),
                 spec_for("rnn-nnd", N=4, K=2,
                          rnn_denoiser_hidden=4, rnn_decoder_hidden=3)):
        model = build(spec, seed=seed)
        rng = np.random.default_rng(seed + 400)
        _randomize(model, rng)
        y, target = _toy_target(rng, 4, 2)
        report = grad_check(ModelObjective(model), y, target, tolerance=1e-4)
        assert report.passed, (
            f"{spec.arch_name}: {report.max_rel_error:.3e} at {report.worst_param}")
