"""Engine tests: forward oracles, finite-difference gradient checks,
optimizer behaviour. Parameterless layers (pool, relu, sigmoid) are
gradient-checked through surrounding affine layers, whose parameter
gradients are wrong if the intermediate backward is wrong. The conv, pool
and LSTM kernels are also held bit for bit to the plain gather/scatter,
per-tap ``tensordot`` and per-gate versions below, ReLU to a ``np.where``
select on C-ordered copies (+0.0 for every input not above zero, NaN kept),
and every layer's inference forward to its training forward. No layer's
forward writes its input.
"""

import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polarlab.models import VARIANTS, ModelSpec, build
from polarlab.nn import (
    Adam,
    Affine,
    Conv1D,
    LSTM,
    MaxPool1D,
    Param,
    ReLU,
    Sequential,
    Sigmoid,
    mse_loss,
    param_count,
)

from gradcheck import MseObjective, grad_check

SEEDS = list(range(20))


def _sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


# -------------------------------------------------------------------- forwards

def test_affine_forward_hand_case():
    layer = Affine(2, 2, np.random.default_rng(0))
    layer.w.value[:] = [[1.0, 2.0], [3.0, 4.0]]
    layer.b.value[:] = [10.0, 20.0]
    np.testing.assert_allclose(layer.forward(np.array([[1.0, 1.0]])),
                               [[14.0, 26.0]])


def test_conv1d_forward_matches_direct_sum():
    rng = np.random.default_rng(1)
    layer = Conv1D(2, 3, rng)
    x = rng.standard_normal((4, 2, 8))
    out = layer.forward(x)
    assert out.shape == (4, 3, 8)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1)))
    w, b = layer.w.value, layer.b.value
    expected = np.zeros((4, 3, 8))
    for bi in range(4):
        for co in range(3):
            for pos in range(8):
                acc = b[co]
                for ci in range(2):
                    for k in range(3):
                        acc += xp[bi, ci, pos + k] * w[ci, co, k]
                expected[bi, co, pos] = acc
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_conv1d_rejects_channel_mismatch():
    layer = Conv1D(2, 3, np.random.default_rng(0))
    with pytest.raises(ValueError):
        layer.forward(np.zeros((1, 4, 8)))


@pytest.mark.parametrize("shape", [(8, 3, 4), (2, 3, 8), (4, 3, 16), (4, 2, 8)],
                         ids=["same-rows", "batch", "length", "c_out"])
def test_conv1d_backward_rejects_a_gradient_of_another_shape(shape):
    # unlike the forward's (4, 3, 8) output; the first has its row count
    layer = Conv1D(2, 3, np.random.default_rng(0))
    layer.forward(np.zeros((4, 2, 8)), keep=True)
    with pytest.raises(ValueError, match=r"\(4, 3, 8\).*" + re.escape(str(shape))):
        layer.backward(np.zeros(shape))


def test_maxpool_forward_and_tie_routing():
    pool = MaxPool1D()
    x = np.array([[[1.0, 3.0, 2.0, 2.0, 5.0, 4.0]]])
    np.testing.assert_array_equal(pool.forward(x), [[[3.0, 2.0, 5.0]]])
    # exact tie: gradient goes to the earlier slot
    tie = np.array([[[2.0, 2.0]]])
    np.testing.assert_array_equal(pool.forward(tie, keep=True), [[[2.0]]])
    np.testing.assert_array_equal(pool.backward(np.array([[[1.0]]])),
                                  [[[1.0, 0.0]]])


def test_maxpool_rejects_odd_length():
    with pytest.raises(ValueError):
        MaxPool1D().forward(np.zeros((1, 1, 5)))


def test_relu_derivative_zero_at_zero():
    relu = ReLU()
    out = relu.forward(np.array([-1.0, 0.0, 2.0]), keep=True)
    np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])
    np.testing.assert_array_equal(relu.backward(np.ones(3)), [0.0, 0.0, 1.0])


def test_sigmoid_stable_at_extremes():
    sig = Sigmoid()
    # underflow to 0 is the desired limiting value; overflow/NaN are bugs
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        y = sig.forward(np.array([-1000.0, 0.0, 1000.0]))
    assert np.isfinite(y).all()
    assert 0.0 <= y[0] < 1e-12 and y[1] == 0.5 and 1.0 - 1e-12 < y[2] <= 1.0


def test_sigmoid_bit_identical_to_two_branch_formula():
    x = np.random.default_rng(0).standard_normal((2048, 8)) * 20.0
    x[0, :4] = [np.inf, -np.inf, 0.0, -0.0]
    ref = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                   np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    assert Sigmoid().forward(x).tobytes() == ref.tobytes()


def test_lstm_forward_hand_case():
    # one unit, one step: every weight pinned, so the gate arithmetic is
    # checkable with scalar formulas
    layer = LSTM(1, 1, np.random.default_rng(0))
    vals = {"i": 0.5, "f": 0.25, "g": 0.75, "o": -0.5}
    for gate, v in vals.items():
        layer.wx[gate].value[:] = v
        layer.wh[gate].value[:] = 0.1
        layer.b[gate].value[:] = 0.01
    x = np.array([[[1.0]]])
    h = layer.forward(x)[0, 0, 0]
    i = _sigmoid(0.5 + 0.01)
    f = _sigmoid(0.25 + 0.01)
    g = np.tanh(0.75 + 0.01)
    o = _sigmoid(-0.5 + 0.01)
    c = f * 0.0 + i * g
    np.testing.assert_allclose(h, o * np.tanh(c), atol=1e-15)


def test_lstm_initial_state_is_zero():
    # first-step output must not depend on recurrent weights
    rng = np.random.default_rng(2)
    layer = LSTM(3, 5, rng)
    x = rng.standard_normal((2, 1, 3))
    h1 = layer.forward(x)
    for gate in LSTM.GATES:
        layer.wh[gate].value[:] = rng.standard_normal((5, 5))
    np.testing.assert_allclose(layer.forward(x), h1, atol=1e-15)


def test_sequential_is_composition():
    rng = np.random.default_rng(3)
    a, b = Affine(4, 5, rng), Affine(5, 2, rng)
    seq = Sequential([a, ReLU(), b])
    x = rng.standard_normal((3, 4))
    np.testing.assert_allclose(seq.forward(x),
                               b.forward(np.maximum(a.forward(x), 0.0)))


def test_forward_outputs_finite_for_finite_inputs():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        seq = Sequential([Affine(8, 16, rng), ReLU(), Affine(16, 8, rng), Sigmoid()])
        x = rng.standard_normal((4, 8)) * 100.0
        assert np.isfinite(seq.forward(x)).all()


# ------------------------------------------------------------ kernel oracles

def _ref_pool(x, dout):
    """Pooling by gather and scatter over (..., length / 2, 2) pairs: the
    output and the input gradient."""
    pairs = x.reshape(x.shape[:-1] + (x.shape[-1] // 2, 2))
    idx = pairs.argmax(axis=-1)
    out = np.take_along_axis(pairs, idx[..., None], axis=-1)[..., 0]
    dpairs = np.zeros(pairs.shape)
    np.put_along_axis(dpairs, idx[..., None], dout[..., None], axis=-1)
    return out, dpairs.reshape(x.shape)


def _ref_conv(x, w, b, dout):
    """Convolution as one ``tensordot`` per tap over a channels-first padded
    input: the output, dx, dW and db. Where a frame's dx product is a gemv
    (one input channel, or length 1), dx stays a product per frame."""
    length = x.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1)))
    out = np.zeros((x.shape[0], length, w.shape[1]))
    for k in range(3):
        out += np.tensordot(xp[:, :, k:k + length], w[:, :, k], axes=([1], [0]))
    dt = dout.transpose(0, 2, 1)
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for k in range(3):
        dw[:, :, k] += np.tensordot(xp[:, :, k:k + length], dt,
                                    axes=([0, 2], [0, 1]))
        if w.shape[0] == 1 or length == 1:
            dx_k = dt @ w[:, :, k].T
        else:
            dx_k = np.tensordot(dt, w[:, :, k], axes=([2], [1]))
        dxp[:, :, k:k + length] += dx_k.transpose(0, 2, 1)
    return (out.transpose(0, 2, 1) + b[None, :, None], dxp[:, :, 1:1 + length],
            dw, dout.sum(axis=(0, 2)))


def _bits(a):
    """Shape and bytes: equal only if every element, sign of zero included,
    is identical."""
    return a.shape, a.tobytes()


def _array(rng, shape, channels_last, values=None):
    """A (batch, channels, length) array, C-ordered or a transposed view of
    a (batch, length, channels) one as the conv layer returns; drawn from
    ``values`` if given, else standard normal."""
    batch, channels, length = shape
    inner = (batch, length, channels) if channels_last else shape
    data = (rng.standard_normal(inner) if values is None
            else rng.choice(values, size=inner))
    return data.transpose(0, 2, 1) if channels_last else data


_SEED = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=200, deadline=None)
@given(batch=st.integers(1, 70), channels=st.integers(1, 70),
       half=st.integers(1, 10), channels_last=st.booleans(),
       dout_last=st.booleans(), seed=_SEED)
# a tie of +0.0 and -0.0, which np.maximum(first, second) resolves the other
# way (README's numeric contract, row 9), and a channels-last input (row 6)
@example(batch=1, channels=1, half=2, channels_last=False, dout_last=False, seed=0)
@example(batch=1, channels=2, half=2, channels_last=True, dout_last=False, seed=0)
def test_maxpool_matches_gather_scatter_reference(batch, channels, half,
                                                  channels_last, dout_last, seed):
    # few distinct values, so most pairs tie, +0.0 against -0.0 included
    rng = np.random.default_rng(seed)
    x = _array(rng, (batch, channels, 2 * half), channels_last,
               values=[-1.5, -0.0, 0.0, 0.25, 2.0])
    dout = _array(rng, (batch, channels, half), dout_last,
                  values=[-1.0, -0.0, 0.0, 3.0])
    pool = MaxPool1D()
    out = pool.forward(x, keep=True)
    # a channels-last input still leaves a mask in the gradients' C layout
    assert pool._cache.flags.c_contiguous
    dx = pool.backward(dout)
    ref_out, ref_dx = _ref_pool(x, dout)
    assert _bits(out) == _bits(ref_out)
    assert _bits(dx) == _bits(ref_dx)


@settings(max_examples=200, deadline=None)
@given(batch=st.integers(1, 70), channels=st.integers(1, 70),
       length=st.integers(1, 20), channels_last=st.booleans(),
       dout_last=st.booleans(), seed=_SEED)
@example(batch=1, channels=2, length=2, channels_last=True, dout_last=False, seed=0)
def test_relu_matches_elementwise_reference(batch, channels, length,
                                            channels_last, dout_last, seed):
    # the input arrives as a conv output does, possibly a channels-last view;
    # zeros of both signs, negatives and -inf all give +0.0, and NaN stays
    # NaN (``x * (x > 0)`` gave -0.0 for the first two and NaN for -inf)
    rng = np.random.default_rng(seed)
    x = _array(rng, (batch, channels, length), channels_last,
               values=[-np.inf, -1.5, -0.0, 0.0, 0.25, 2.0, np.inf, np.nan])
    dout = _array(rng, (batch, channels, length), dout_last,
                  values=[-1.0, -0.0, 0.0, 3.0])
    relu = ReLU()
    out = relu.forward(x, keep=True)
    assert relu._cache.flags.c_contiguous
    dx = relu.backward(dout)
    xc, doutc = np.ascontiguousarray(x), np.ascontiguousarray(dout)
    nan = np.isnan(xc)
    expected = np.where(xc > 0, xc, 0.0)
    expected[nan] = xc[nan]
    assert _bits(np.ascontiguousarray(out)) == _bits(expected)
    assert _bits(np.ascontiguousarray(dx)) == _bits(doutc * (xc > 0))


def _conv_case(batch, c_in, c_out, length, discrete, seed):
    """A conv layer with a random bias, and an input and an output gradient,
    C-ordered; discrete draws give exact zeros of both signs and exact
    cancellation."""
    rng = np.random.default_rng(seed)
    values = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0] if discrete else None
    layer = Conv1D(c_in, c_out, rng)
    if discrete:
        layer.w.value[:] = rng.choice(values, size=layer.w.value.shape)
    layer.b.value[:] = (rng.choice(values, size=c_out) if discrete
                        else rng.standard_normal(c_out))
    return (layer, _array(rng, (batch, c_in, length), False, values),
            _array(rng, (batch, c_out, length), False, values))


def _conv_run(layer, x, dout):
    layer.w.grad[...] = 0.0
    layer.b.grad[...] = 0.0
    out = layer.forward(x, keep=True)
    dx = layer.backward(dout)
    return [_bits(a) for a in (out, dx, layer.w.grad, layer.b.grad)]


_CONV_SIZES = dict(batch=st.integers(1, 70), c_in=st.integers(1, 70),
                   c_out=st.integers(1, 70), length=st.integers(1, 20),
                   discrete=st.booleans(), seed=_SEED)


@settings(max_examples=200, deadline=None)
@given(**_CONV_SIZES)
# one output value from 1x1 taps, where np.dot takes a scalar product
@example(batch=1, c_in=1, c_out=1, length=1, discrete=True, seed=202822)
# a width where one dx gemm over all frames and a gemm per frame round apart
@example(batch=2, c_in=33, c_out=16, length=2, discrete=False, seed=0)
# a one-row product is a gemv, whose bits follow its vector's stride: a
# contiguous row in place of the strided view rounds this one apart
@example(batch=1, c_in=2, c_out=4, length=1, discrete=False, seed=0)
# dW from the forward's channels-last window, transposed (a TN gemm in place
# of NN), rounds this one apart
@example(batch=2, c_in=2, c_out=65, length=8, discrete=False, seed=1)
# a length-1 conv's one-channel dW is a gemv over every third element of the
# padded input; a contiguous vector rounds this one apart
@example(batch=43, c_in=1, c_out=10, length=1, discrete=False, seed=0)
def test_conv1d_matches_tensordot_reference(batch, c_in, c_out, length,
                                            discrete, seed):
    layer, x, dout = _conv_case(batch, c_in, c_out, length, discrete, seed)
    ref = _ref_conv(x, layer.w.value, layer.b.value, dout)
    assert _conv_run(layer, x, dout) == [_bits(a) for a in ref]


def _per_frame_dx(w, dout):
    """dx as one batched product per tap, a gemm or a gemv for each frame:
    the rounding every conv of the default architectures was trained with."""
    batch, _, length = dout.shape
    dt = dout.transpose(0, 2, 1)
    dxp = np.zeros((batch, length + 2, w.shape[0]))
    for k in range(3):
        dxp[:, k:k + length] += dt @ w[:, :, k].T
    return np.ascontiguousarray(dxp[:, 1:1 + length].transpose(0, 2, 1))


def _default_conv_widths():
    """The (c_in, c_out) of every conv the default architectures build."""
    models = [build(ModelSpec("cnn", variant), seed=0) for variant in VARIANTS]
    return sorted({layer.w.value.shape[:2]
                   for model in models for stack in (model.denoiser, model.decoder)
                   if stack is not None
                   for layer in stack.layers if isinstance(layer, Conv1D)})


def _each_default_conv_width(test):
    """``test`` with an example of every default width at 64 frames of
    length 8, so that a default width inside the rounding rule of README's
    numeric contract, row 3, fails it whatever the random draws."""
    for widths in _default_conv_widths():
        test = example(widths=widths, log_length=3, batch=64, discrete=False,
                       seed=0)(test)
    return test


@settings(max_examples=60, deadline=None)
@given(widths=st.sampled_from(_default_conv_widths()), log_length=st.integers(0, 9),
       batch=st.integers(1, 300), discrete=st.booleans(), seed=_SEED)
# the two gemv convs at the training batch: the first conv of a stack at
# N = 16, and the length-1 conv that closes a cnn-nnd
@example(widths=(1, 64), log_length=4, batch=64, discrete=False, seed=1)
@example(widths=(32, 32), log_length=0, batch=64, discrete=False, seed=2)
@_each_default_conv_width
def test_conv1d_dx_of_default_widths_is_the_per_frame_product(widths, log_length,
                                                             batch, discrete, seed):
    # one gemm over all frames rounds like a gemm per frame only for some
    # widths (c_in % 8 of 1-4 differs once c_out >= 16), so every default
    # width is pinned, at conv lengths up to N = 1024; length 1 and c_in = 1
    # keep their per-frame gemv
    layer, x, dout = _conv_case(batch, *widths, 2 ** log_length, discrete, seed)
    layer.forward(x, keep=True)
    assert _bits(layer.backward(dout)) == _bits(_per_frame_dx(layer.w.value, dout))


@settings(max_examples=40, deadline=None)
@given(widths=st.sampled_from(_default_conv_widths()), log_length=st.integers(0, 10),
       batch=st.integers(1, 300), discrete=st.booleans(), seed=_SEED)
# the (64 -> 48) conv of a 128-frame inference tile, the first conv of a
# stack and the length-1 conv that closes a cnn-nnd
@example(widths=(64, 48), log_length=3, batch=128, discrete=False, seed=3)
@example(widths=(1, 64), log_length=4, batch=128, discrete=False, seed=4)
@example(widths=(32, 32), log_length=0, batch=128, discrete=False, seed=5)
# every conv of a B=64 training step, at its length for N = 16
@example(widths=(1, 64), log_length=4, batch=64, discrete=False, seed=6)
@example(widths=(64, 48), log_length=3, batch=64, discrete=False, seed=7)
@example(widths=(64, 32), log_length=3, batch=64, discrete=False, seed=8)
@example(widths=(48, 32), log_length=2, batch=64, discrete=False, seed=9)
@example(widths=(32, 64), log_length=2, batch=64, discrete=False, seed=10)
@example(widths=(32, 32), log_length=2, batch=64, discrete=False, seed=11)
@example(widths=(64, 32), log_length=1, batch=64, discrete=False, seed=12)
@example(widths=(32, 32), log_length=0, batch=64, discrete=False, seed=13)
def test_conv1d_of_default_widths_matches_tensordot_reference(widths, log_length,
                                                              batch, discrete, seed):
    # the general property draws at most 70 frames of length 20; this one
    # covers the eval tiles, up to 2^16 rows so that no array passes 34 MB
    assume(batch << log_length <= 1 << 16)
    layer, x, dout = _conv_case(batch, *widths, 2 ** log_length, discrete, seed)
    ref = _ref_conv(x, layer.w.value, layer.b.value, dout)
    assert _conv_run(layer, x, dout) == [_bits(a) for a in ref]


@settings(max_examples=100, deadline=None)
@given(**_CONV_SIZES, x_last=st.booleans(), dout_last=st.booleans())
@example(batch=1, c_in=1, c_out=2, length=2, discrete=False, seed=0, x_last=False,
         dout_last=True)
def test_conv1d_bits_do_not_depend_on_input_layout(batch, c_in, c_out, length,
                                                   discrete, seed, x_last,
                                                   dout_last):
    # the pool hands the next conv a channels-last array; a gemm's bits can
    # follow the layout of its operands, so the kernel must not pass it on
    layer, x, dout = _conv_case(batch, c_in, c_out, length, discrete, seed)
    relaid = [np.ascontiguousarray(a.transpose(0, 2, 1)).transpose(0, 2, 1)
              if last else a for a, last in ((x, x_last), (dout, dout_last))]
    assert _conv_run(layer, *relaid) == _conv_run(layer, x, dout)


class _RefLSTM(LSTM):
    """The LSTM as one allocating ``_gate`` call per gate, caching a tuple
    of fresh arrays per step, with zero-started sums in the backward: it
    zeroes its gradients, then adds each step's products into them."""

    def _gate(self, gate, x_t, h_prev):
        a = x_t @ self.wx[gate].value + h_prev @ self.wh[gate].value + self.b[gate].value
        if gate == "g":
            return np.tanh(a)
        return 1.0 / (1.0 + np.exp(-a))

    def forward(self, x, keep=False):
        batch, steps, _ = x.shape
        h = np.zeros((batch, self.n_hidden))
        c = np.zeros((batch, self.n_hidden))
        self._steps = []
        hs = np.zeros((batch, steps, self.n_hidden))
        for t in range(steps):
            x_t = x[:, t, :]
            i, f, g, o = (self._gate(gate, x_t, h) for gate in self.GATES)
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            self._steps.append((x_t, h, c, i, f, g, o, tanh_c))
            c = c_new
            h = o * tanh_c
            hs[:, t, :] = h
        return hs

    def backward(self, dout):
        for p in self.params():
            p.grad[...] = 0.0
        batch, steps, _ = dout.shape
        dx = np.zeros((batch, steps, self.n_in))
        dh_next = np.zeros((batch, self.n_hidden))
        dc_next = np.zeros((batch, self.n_hidden))
        for t in reversed(range(steps)):
            x_t, h_prev, c_prev, i, f, g, o, tanh_c = self._steps[t]
            dh = dout[:, t, :] + dh_next
            dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
            pre = {
                "i": dc * g * i * (1.0 - i),
                "f": dc * c_prev * f * (1.0 - f),
                "g": dc * i * (1.0 - g * g),
                "o": dh * tanh_c * o * (1.0 - o),
            }
            dc_next = dc * f
            dh_next = np.zeros_like(dh)
            dx_t = np.zeros((batch, self.n_in))
            for gate in self.GATES:
                self.wx[gate].grad += x_t.T @ pre[gate]
                self.wh[gate].grad += h_prev.T @ pre[gate]
                self.b[gate].grad += pre[gate].sum(axis=0)
                dh_next += pre[gate] @ self.wh[gate].value.T
                dx_t += pre[gate] @ self.wx[gate].value.T
            dx[:, t, :] = dx_t
        return dx


def _lstm_run(cls, n_in, hidden, x, dout, seed, start_grads):
    """Inference output, training output, dx and every gradient of a ``cls``
    layer with weights and nonzero biases drawn from ``seed``; the gradient
    buffers hold zeros, or with ``start_grads`` stale random values, which
    the backward must overwrite."""
    rng = np.random.default_rng(seed)
    layer = cls(n_in, hidden, rng)
    for p in layer.params():
        if p.name.startswith("b_"):
            p.value[:] = rng.standard_normal(p.value.shape)
        p.grad[:] = rng.standard_normal(p.grad.shape) if start_grads else 0.0
    inferred = layer.forward(x)
    out = layer.forward(x, keep=True)
    dx = layer.backward(dout)
    return [_bits(a) for a in (inferred, out, dx, *(p.grad for p in layer.params()))]


def _lstm_case(batch, n_in, hidden, steps, discrete, seed):
    """An input and an output gradient; discrete draws give exact zeros of
    both signs, so gate sums see +0.0 and -0.0 products."""
    rng = np.random.default_rng(seed)
    values = [-1.0, -0.0, 0.0, 0.5, 2.0]
    return ((rng.choice(values, size=shape) if discrete
             else rng.standard_normal(shape))
            for shape in ((batch, steps, n_in), (batch, steps, hidden)))


@settings(max_examples=200, deadline=None)
@given(batch=st.integers(1, 70), n_in=st.integers(1, 8), hidden=st.integers(1, 40),
       steps=st.integers(1, 20), discrete=st.booleans(), start_grads=st.booleans(),
       seed=_SEED)
# the rnn models' layers at the training batch and the decode block: BLAS
# may pick other kernels for these gemms than for the drawn sizes
@example(batch=64, n_in=1, hidden=64, steps=16, discrete=False, start_grads=True, seed=1)
@example(batch=64, n_in=1, hidden=48, steps=16, discrete=False, start_grads=True, seed=2)
@example(batch=64, n_in=64, hidden=48, steps=16, discrete=False, start_grads=True, seed=3)
@example(batch=2048, n_in=1, hidden=64, steps=16, discrete=False, start_grads=True, seed=4)
@example(batch=2048, n_in=1, hidden=48, steps=16, discrete=False, start_grads=True, seed=5)
@example(batch=2048, n_in=64, hidden=48, steps=16, discrete=False, start_grads=True, seed=6)
# the rnn inference tile, and the partial tile of a 904-frame chunk
@example(batch=256, n_in=1, hidden=64, steps=16, discrete=False, start_grads=True, seed=7)
@example(batch=256, n_in=1, hidden=48, steps=16, discrete=False, start_grads=True, seed=8)
@example(batch=256, n_in=64, hidden=48, steps=16, discrete=False, start_grads=True, seed=9)
@example(batch=226, n_in=1, hidden=64, steps=16, discrete=False, start_grads=True, seed=10)
@example(batch=226, n_in=1, hidden=48, steps=16, discrete=False, start_grads=True, seed=11)
@example(batch=226, n_in=64, hidden=48, steps=16, discrete=False, start_grads=True, seed=12)
# a contiguous copy of the transposed input or recurrent weights rounds these
# apart (README's numeric contract, row 10)
@example(batch=1, n_in=2, hidden=2, steps=2, discrete=False, start_grads=False, seed=0)
@example(batch=1, n_in=1, hidden=3, steps=3, discrete=False, start_grads=False, seed=0)
def test_lstm_matches_per_gate_reference(batch, n_in, hidden, steps, discrete,
                                         start_grads, seed):
    x, dout = _lstm_case(batch, n_in, hidden, steps, discrete, seed)
    args = (n_in, hidden, x, dout, seed, start_grads)
    assert _lstm_run(LSTM, *args) == _lstm_run(_RefLSTM, *args)


@settings(max_examples=60, deadline=None)
@given(batch=st.integers(1, 300), n_in=st.sampled_from([1, 64]),
       hidden=st.integers(1, 64), steps=st.integers(1, 16), discrete=st.booleans(),
       seed=_SEED)
@example(batch=256, n_in=64, hidden=48, steps=16, discrete=False, seed=1)
@example(batch=4, n_in=1, hidden=1, steps=2, discrete=False, seed=1)
def test_lstm_bits_do_not_depend_on_input_layout(batch, n_in, hidden, steps,
                                                 discrete, seed):
    # an LSTM returns a transposed view of its time-major hidden states,
    # and that view is the input of the next LSTM of an rnn-nnd; at n_in = 1
    # the Wx gradient is a gemv per gate, which rounds a strided x_t apart
    x, dout = _lstm_case(batch, n_in, hidden, steps, discrete, seed)
    time_major = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
    assert not time_major.flags.c_contiguous or min(batch, steps) == 1
    assert (_lstm_run(LSTM, n_in, hidden, time_major, dout, seed, True)
            == _lstm_run(LSTM, n_in, hidden, x, dout, seed, True))


def _layer_case(kind, batch, rng):
    """A layer of each type and an input it accepts, at ``batch`` frames."""
    return {
        "Affine": lambda: (Affine(16, 32, rng), (batch, 16)),
        "Conv1D": lambda: (Conv1D(4, 8, rng), (batch, 4, 16)),
        "MaxPool1D": lambda: (MaxPool1D(), (batch, 4, 16)),
        "ReLU": lambda: (ReLU(), (batch, 4, 16)),
        "Sigmoid": lambda: (Sigmoid(), (batch, 16)),
        "LSTM": lambda: (LSTM(3, 24, rng), (batch, 16, 3)),
    }[kind]()


LAYER_TYPES = ("Affine", "Conv1D", "MaxPool1D", "ReLU", "Sigmoid", "LSTM")


@pytest.mark.parametrize("batch", [1, 64, 2048])
@pytest.mark.parametrize("kind", LAYER_TYPES)
def test_inference_forward_equals_training_forward(kind, batch):
    rng = np.random.default_rng(batch)
    layer, shape = _layer_case(kind, batch, rng)
    x = rng.standard_normal(shape)
    trained = layer.forward(x, keep=True)
    assert _bits(layer.forward(x)) == _bits(trained)


@pytest.mark.parametrize("kind", LAYER_TYPES)
def test_backward_after_inference_forward_raises(kind):
    # a training forward leaves a cache; the inference forward after it
    # must drop it, not leave it for a backward to reuse
    rng = np.random.default_rng(0)
    layer, shape = _layer_case(kind, 2, rng)
    x = rng.standard_normal(shape)
    out = layer.forward(x, keep=True)
    layer.backward(np.ones_like(out))
    layer.forward(x)
    with pytest.raises(RuntimeError, match="keep=True"):
        layer.backward(np.ones_like(out))


@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("batch", [1, 64])
@pytest.mark.parametrize("kind", LAYER_TYPES)
def test_forward_leaves_its_input_unchanged(kind, batch, keep):
    # a layer may write its own output in place (Affine adds its bias so),
    # never an array its caller passed in
    rng = np.random.default_rng(batch)
    layer, shape = _layer_case(kind, batch, rng)
    for param in layer.params():
        # nonzero biases, so a bias added into the input would show
        param.value[...] = rng.standard_normal(param.value.shape)
    x = rng.standard_normal(shape)
    before = _bits(x)
    out = layer.forward(x, keep=keep)
    assert _bits(x) == before
    if kind in ("Affine", "ReLU"):
        assert not np.shares_memory(out, x)


def _step_over_grads(layer, x, fill):
    """Output, dx and every gradient of one training step of ``layer`` on
    ``x``, its gradient buffers filled with ``fill`` before it."""
    for param in layer.params():
        param.grad[...] = fill
    out = layer.forward(x, keep=True)
    dx = layer.backward(np.random.default_rng(1).standard_normal(out.shape))
    return [_bits(a) for a in (out, dx, *(p.grad for p in layer.params()))]


@pytest.mark.parametrize("batch", [1, 64])
@pytest.mark.parametrize("kind", LAYER_TYPES)
def test_backward_writes_over_stale_gradients(kind, batch):
    # a backward writes this batch's gradients: what the buffers held
    # before, NaN here, must reach neither the gradients nor dx
    rng = np.random.default_rng(batch)
    layer, shape = _layer_case(kind, batch, rng)
    x = rng.standard_normal(shape)
    assert _step_over_grads(layer, x, np.nan) == _step_over_grads(layer, x, 0.0)


@pytest.mark.parametrize("batch", [1, 64])
@pytest.mark.parametrize("c_in", [1, 4])
def test_length_one_conv_writes_zero_outer_taps(c_in, batch):
    # at length 1 taps 0 and 2 read only padding, and their dW is +0.0
    rng = np.random.default_rng(c_in)
    layer = Conv1D(c_in, 3, rng)
    x = rng.standard_normal((batch, c_in, 1))
    assert _step_over_grads(layer, x, np.nan) == _step_over_grads(layer, x, 0.0)
    assert _bits(layer.w.grad[:, :, 0::2]) == _bits(np.zeros((c_in, 3, 2)))


# ------------------------------------------------------------------------ loss

def test_mse_frozen_example():
    loss, grad = mse_loss(np.array([1.0, -1.0]), np.zeros(2), normalizer=2)
    assert loss == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(grad, [1.0, -1.0], atol=1e-15)


def test_mse_batch_mean():
    pred = np.array([[1.0, 0.0], [0.0, 0.0]])
    target = np.zeros((2, 2))
    loss, grad = mse_loss(pred, target, normalizer=2)
    assert loss == pytest.approx(0.25, abs=1e-15)
    np.testing.assert_allclose(grad, [[0.5, 0.0], [0.0, 0.0]], atol=1e-15)


def test_mse_rejects_bad_input():
    with pytest.raises(ValueError):
        mse_loss(np.zeros(3), np.zeros(4), 1)
    with pytest.raises(ValueError):
        mse_loss(np.zeros(3), np.zeros(3), 0)


# -------------------------------------------------------------- gradient checks

def _check(stack, x, target, tol, normalizer=None):
    report = grad_check(MseObjective(stack, normalizer), x, target, tolerance=tol)
    assert report.passed, (
        f"max rel err {report.max_rel_error:.3e} at {report.worst_param}"
        f"[{report.worst_index}]")


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_affine(seed):
    rng = np.random.default_rng(seed)
    stack = Sequential([Affine(8, 3, rng)])
    _check(stack, rng.standard_normal((4, 8)), rng.standard_normal((4, 3)), 1e-5)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_conv1d(seed):
    rng = np.random.default_rng(seed)
    stack = Sequential([Conv1D(2, 4, rng)])
    _check(stack, rng.standard_normal((3, 2, 8)), rng.standard_normal((3, 4, 8)), 1e-5)


@pytest.mark.parametrize("seed", SEEDS)
# a length-1 conv, as closes a cnn-nnd, whose outer taps read only padding,
# and a conv of one channel in and out, whose products are all gemvs
@pytest.mark.parametrize("c_in, c_out, length", [(3, 4, 1), (1, 1, 8)])
def test_grad_conv1d_of_edge_shapes(c_in, c_out, length, seed):
    rng = np.random.default_rng(seed)
    stack = Sequential([Conv1D(c_in, c_out, rng)])
    _check(stack, rng.standard_normal((5, c_in, length)),
           rng.standard_normal((5, c_out, length)), 1e-5)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_maxpool_route(seed):
    rng = np.random.default_rng(seed)
    stack = Sequential([Conv1D(1, 3, rng), MaxPool1D(), Conv1D(3, 2, rng)])
    _check(stack, rng.standard_normal((2, 1, 8)), rng.standard_normal((2, 2, 4)), 1e-4)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_relu_route(seed):
    rng = np.random.default_rng(seed)
    stack = Sequential([Affine(6, 10, rng), ReLU(), Affine(10, 4, rng)])
    _check(stack, rng.standard_normal((5, 6)), rng.standard_normal((5, 4)), 1e-4)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_sigmoid_route(seed):
    rng = np.random.default_rng(seed)
    stack = Sequential([Affine(6, 4, rng), Sigmoid()])
    _check(stack, rng.standard_normal((5, 6)), rng.standard_normal((5, 4)), 1e-4)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_lstm(seed):
    rng = np.random.default_rng(seed)
    stack = Sequential([LSTM(2, 4, rng)])
    _check(stack, rng.standard_normal((3, 5, 2)), rng.standard_normal((3, 5, 4)), 1e-4)


def test_grad_check_catches_wrong_gradient():
    class Broken:
        def __init__(self):
            rng = np.random.default_rng(0)
            self.layer = Affine(3, 2, rng)

        def params(self):
            return self.layer.params()

        def objective_loss(self, x, target, compute_grads=False):
            pred = self.layer.forward(x, keep=compute_grads)
            loss, dpred = mse_loss(pred, target, 2)
            if compute_grads:
                self.layer.backward(dpred)
                self.layer.w.grad *= 2.0  # sabotage
            return loss

    rng = np.random.default_rng(1)
    report = grad_check(Broken(), rng.standard_normal((4, 3)),
                        rng.standard_normal((4, 2)), tolerance=1e-4)
    assert not report.passed


# ------------------------------------------------------------------- optimizer

def test_adam_first_step_hand_case():
    p = Param.zeros_like("theta", np.zeros(1))
    opt = Adam([p], lr=0.001, beta1=0.99, beta2=0.999, eps=1e-8)
    p.grad[:] = 1.0
    opt.step()
    # m_hat = v_hat = 1 after bias correction, so the step is lr/(1 + eps)
    assert p.value[0] == pytest.approx(-0.001, rel=1e-6)


def test_adam_zero_gradient_is_noop():
    p = Param.zeros_like("theta", np.array([0.5]))
    opt = Adam([p], lr=0.001, beta1=0.99, beta2=0.999, eps=1e-8)
    opt.step()
    assert p.value[0] == 0.5


def test_adam_step_magnitude_bounded():
    rng = np.random.default_rng(4)
    p = Param.zeros_like("theta", np.zeros(16))
    opt = Adam([p], lr=0.001, beta1=0.99, beta2=0.999, eps=1e-8)
    prev = p.value.copy()
    for t in range(300):
        p.grad[:] = rng.standard_normal(16) * 10.0 ** rng.integers(-2, 3)
        opt.step()
        if t >= 50:
            assert np.max(np.abs(p.value - prev)) <= 0.001 * 1.1
        prev = p.value.copy()


def test_adam_deterministic_trajectories():
    def run():
        rng = np.random.default_rng(7)
        layer = Affine(4, 2, np.random.default_rng(0))
        opt = Adam(layer.params(), lr=0.001, beta1=0.99, beta2=0.999, eps=1e-8)
        for _ in range(20):
            x = rng.standard_normal((8, 4))
            t = rng.standard_normal((8, 2))
            loss, dpred = mse_loss(layer.forward(x, keep=True), t, 2)
            layer.backward(dpred)
            opt.step()
        return layer.w.value.copy()

    np.testing.assert_array_equal(run(), run())


class _adam_reference:
    """The per-array Adam: one update per parameter array, in place, with
    the flat optimizer's operations in the same order."""

    def __init__(self, params, lr, beta1, beta2, eps):
        self._params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self._m = [np.zeros_like(p.value) for p in self._params]
        self._v = [np.zeros_like(p.value) for p in self._params]

    def step(self):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self._params, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad * p.grad
            p.value -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


_SHAPES = st.lists(st.lists(st.integers(1, 9), min_size=1, max_size=3).map(tuple),
                   min_size=1, max_size=5)
# huge, tiny, signed zeros and ordinary magnitudes, in any sign
_GRADS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-160, 1e-8, -0.3,
                          1.0, -2.5, 1e8, 1e154, -1e160, 1e300, -1.7e308])


@settings(max_examples=150, deadline=None)
@given(shapes=_SHAPES, steps=st.integers(1, 5),
       hyper=st.sampled_from([(0.001, 0.99, 0.999, 1e-8), (0.5, 0.0, 0.0, 1e-300),
                              (1e-3, 0.9, 0.999, 1.0)]),
       data=st.data())
def test_flat_adam_matches_per_array_reference(shapes, steps, hyper, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    start = [rng.standard_normal(shape) for shape in shapes]
    ours = [Param.zeros_like(f"p{i}", v.copy()) for i, v in enumerate(start)]
    theirs = [Param.zeros_like(f"p{i}", v.copy()) for i, v in enumerate(start)]
    flat, reference = Adam(ours, *hyper), _adam_reference(theirs, *hyper)
    with np.errstate(all="ignore"):
        for _ in range(steps):
            for a, b in zip(ours, theirs):
                grad = np.array(data.draw(st.lists(_GRADS, min_size=a.grad.size,
                                                   max_size=a.grad.size), label="grad"))
                # mixed signs and scales on top of the drawn specials
                grad *= rng.choice([1.0, -1.0, 1e-3, 1e3], size=grad.size)
                a.grad[...] = b.grad[...] = grad.reshape(a.grad.shape)
            flat.step()
            reference.step()
            for a, b in zip(ours, theirs):
                assert a.value.tobytes() == b.value.tobytes()


def test_adam_params_are_views_of_its_buffers():
    rng = np.random.default_rng(3)
    seq = Sequential([Affine(3, 5, rng), ReLU(), LSTM(5, 2, rng), Conv1D(1, 1, rng)])
    before = [p.value.copy() for p in seq.params()]
    opt = Adam(seq.params(), lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    for p, value in zip(seq.params(), before):
        assert np.shares_memory(p.value, opt._value)
        assert np.shares_memory(p.grad, opt._grad)
        assert p.value.tobytes() == value.tobytes()
        assert p.value.flags.c_contiguous and p.value.ctypes.data % 64 == 0
    # writes through the Params reach the buffers, and only their slices
    for p in seq.params():
        p.grad[...] = 1.0
        p.value[...] = 2.0
    assert opt._grad.sum() == opt._value.sum() / 2 == param_count(seq)
    # a step moves every value by -lr: m_hat = v_hat = g = 1
    for p in seq.params():
        p.grad[...] = 1.0
    opt.step()
    for p in seq.params():
        np.testing.assert_allclose(p.value, 1.9, rtol=1e-7)


# ---------------------------------------------------------------- param counts

def test_param_count_units():
    rng = np.random.default_rng(0)
    assert param_count(Sequential([Affine(4, 3, rng)])) == 4 * 3 + 3
    assert param_count(Sequential([Conv1D(2, 4, rng)])) == 2 * 4 * 3 + 4
    assert param_count(Sequential([LSTM(1, 64, rng)])) == 4 * (64 + 64 * 64 + 64)
    assert param_count(Sequential([MaxPool1D(), ReLU(), Sigmoid()])) == 0


def test_named_params_are_qualified_and_cover_everything():
    rng = np.random.default_rng(0)
    seq = Sequential([Affine(2, 3, rng), ReLU(), LSTM(3, 2, rng)])
    names = [name for name, _ in seq.named_params(prefix="enc.")]
    assert names[0] == "enc.0.W" and names[1] == "enc.0.b"
    assert "enc.2.Wx_i" in names and "enc.2.b_o" in names
    assert len(names) == 2 + 12
