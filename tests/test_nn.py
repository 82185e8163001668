"""Engine tests: forward oracles, finite-difference gradient checks,
optimizer behaviour. Parameterless layers (pool, relu, sigmoid) are
gradient-checked through surrounding affine layers, whose parameter
gradients are wrong if the intermediate backward is wrong.
"""

import numpy as np
import pytest

from polarlab.nn import (
    Adam,
    Affine,
    Conv1D,
    LSTM,
    MaxPool1D,
    MseObjective,
    Param,
    ReLU,
    Sequential,
    Sigmoid,
    grad_check,
    mse_loss,
    param_count,
    zero_grads,
)

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


def test_maxpool_forward_and_tie_routing():
    pool = MaxPool1D()
    x = np.array([[[1.0, 3.0, 2.0, 2.0, 5.0, 4.0]]])
    np.testing.assert_array_equal(pool.forward(x), [[[3.0, 2.0, 5.0]]])
    # exact tie: gradient goes to the earlier slot
    tie = np.array([[[2.0, 2.0]]])
    np.testing.assert_array_equal(pool.forward(tie), [[[2.0]]])
    np.testing.assert_array_equal(pool.backward(np.array([[[1.0]]])),
                                  [[[1.0, 0.0]]])


def test_maxpool_rejects_odd_length():
    with pytest.raises(ValueError):
        MaxPool1D().forward(np.zeros((1, 1, 5)))


def test_relu_derivative_zero_at_zero():
    relu = ReLU()
    np.testing.assert_array_equal(relu.forward(np.array([-1.0, 0.0, 2.0])),
                                  [0.0, 0.0, 2.0])
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
            pred = self.layer.forward(x)
            loss, dpred = mse_loss(pred, target, 2)
            if compute_grads:
                zero_grads(self.params())
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
    opt = Adam([p])
    opt.step()
    assert p.value[0] == 0.5


def test_adam_step_magnitude_bounded():
    rng = np.random.default_rng(4)
    p = Param.zeros_like("theta", np.zeros(16))
    opt = Adam([p], lr=0.001)
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
        opt = Adam(layer.params())
        for _ in range(20):
            x = rng.standard_normal((8, 4))
            t = rng.standard_normal((8, 2))
            loss, dpred = mse_loss(layer.forward(x), t, 2)
            opt.zero_grad()
            layer.backward(dpred)
            opt.step()
        return layer.w.value.copy()

    np.testing.assert_array_equal(run(), run())


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
