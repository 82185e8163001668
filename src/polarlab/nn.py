"""Minimal trainable-network engine on float64 numpy arrays.

Every layer implements ``forward(x)`` and ``backward(dout)``; ``backward``
must follow the matching ``forward`` (activations are cached on the layer,
so a layer instance is single-threaded during training). Parameters and
their gradient buffers live in ``Param`` records so the optimizer and the
checkpoint code can treat all layers uniformly.
"""

import numpy as np
from dataclasses import dataclass, field


@dataclass
class Param:
    name: str
    value: np.ndarray
    grad: np.ndarray

    @classmethod
    def zeros_like(cls, name, value):
        return cls(name=name, value=value, grad=np.zeros_like(value))


def glorot_uniform(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    def params(self):
        return []

    def forward(self, x):
        raise NotImplementedError

    def backward(self, dout):
        raise NotImplementedError


class Affine(Layer):
    """y = x W + b with W of shape (n_in, n_out)."""

    def __init__(self, n_in, n_out, rng):
        self.w = Param.zeros_like("W", glorot_uniform(rng, (n_in, n_out), n_in, n_out))
        self.b = Param.zeros_like("b", np.zeros(n_out))

    def params(self):
        return [self.w, self.b]

    def forward(self, x):
        self._x = x
        return x @ self.w.value + self.b.value

    def backward(self, dout):
        self.w.grad += self._x.T @ dout
        self.b.grad += dout.sum(axis=0)
        return dout @ self.w.value.T


class Conv1D(Layer):
    """Channel-wise 1-D cross-correlation, kernel 3, zero padding 1.

    Input and output are (batch, channels, length); the length is preserved.
    Kernel tensor has shape (in_channels, out_channels, KERNEL).
    """

    KERNEL = 3
    PAD = 1

    def __init__(self, c_in, c_out, rng):
        fan_in, fan_out = c_in * self.KERNEL, c_out * self.KERNEL
        self.w = Param.zeros_like(
            "W", glorot_uniform(rng, (c_in, c_out, self.KERNEL), fan_in, fan_out))
        self.b = Param.zeros_like("b", np.zeros(c_out))

    def params(self):
        return [self.w, self.b]

    def forward(self, x):
        if x.ndim != 3 or x.shape[1] != self.w.value.shape[0]:
            raise ValueError(
                f"expected (batch, {self.w.value.shape[0]}, length), got {x.shape}")
        batch, _, length = x.shape
        xp = np.pad(x, ((0, 0), (0, 0), (self.PAD, self.PAD)))
        self._xp, self._length = xp, length
        out = np.zeros((batch, length, self.w.value.shape[1]))
        for k in range(self.KERNEL):
            out += np.tensordot(xp[:, :, k:k + length], self.w.value[:, :, k],
                                axes=([1], [0]))
        return out.transpose(0, 2, 1) + self.b.value[None, :, None]

    def backward(self, dout):
        length = self._length
        dt = dout.transpose(0, 2, 1)
        dxp = np.zeros_like(self._xp)
        for k in range(self.KERNEL):
            self.w.grad[:, :, k] += np.tensordot(
                self._xp[:, :, k:k + length], dt, axes=([0, 2], [0, 1]))
            dxp[:, :, k:k + length] += (dt @ self.w.value[:, :, k].T).transpose(0, 2, 1)
        self.b.grad += dout.sum(axis=(0, 2))
        return dxp[:, :, self.PAD:self.PAD + length]


class MaxPool1D(Layer):
    """Width-2 stride-2 max pooling; ties keep the earlier position."""

    def forward(self, x):
        if x.shape[-1] % 2 != 0:
            raise ValueError(f"pooling needs an even length, got {x.shape[-1]}")
        pairs = x.reshape(x.shape[:-1] + (x.shape[-1] // 2, 2))
        self._idx = pairs.argmax(axis=-1)
        self._shape = x.shape
        return np.take_along_axis(pairs, self._idx[..., None], axis=-1)[..., 0]

    def backward(self, dout):
        dpairs = np.zeros(self._shape[:-1] + (self._shape[-1] // 2, 2))
        np.put_along_axis(dpairs, self._idx[..., None], dout[..., None], axis=-1)
        return dpairs.reshape(self._shape)


class ReLU(Layer):
    def forward(self, x):
        self._mask = x > 0
        return x * self._mask

    def backward(self, dout):
        return dout * self._mask


class Sigmoid(Layer):
    def forward(self, x):
        e = np.exp(-np.abs(x))
        self._y = np.where(x >= 0, 1.0, e) / (1.0 + e)
        return self._y

    def backward(self, dout):
        return dout * self._y * (1.0 - self._y)


class LSTM(Layer):
    """Single-layer LSTM over (batch, time, features), h0 = c0 = 0.

    Gates: input/forget/output logistic, candidate tanh;
    c_t = f * c_{t-1} + i * g, h_t = o * tanh(c_t).
    Each gate owns an input weight (n_in, hidden), a recurrent weight
    (hidden, hidden) and a bias (hidden,), initialized uniform within
    +-1/sqrt(hidden) with zero biases. Returns the full hidden sequence.
    """

    GATES = ("i", "f", "g", "o")

    def __init__(self, n_in, n_hidden, rng):
        limit = 1.0 / np.sqrt(n_hidden)
        self.n_in, self.n_hidden = n_in, n_hidden
        self.wx, self.wh, self.b = {}, {}, {}
        for gate in self.GATES:
            self.wx[gate] = Param.zeros_like(
                f"Wx_{gate}", rng.uniform(-limit, limit, size=(n_in, n_hidden)))
            self.wh[gate] = Param.zeros_like(
                f"Wh_{gate}", rng.uniform(-limit, limit, size=(n_hidden, n_hidden)))
            self.b[gate] = Param.zeros_like(f"b_{gate}", np.zeros(n_hidden))

    def params(self):
        out = []
        for gate in self.GATES:
            out += [self.wx[gate], self.wh[gate], self.b[gate]]
        return out

    def _gate(self, gate, x_t, h_prev):
        a = x_t @ self.wx[gate].value + h_prev @ self.wh[gate].value + self.b[gate].value
        if gate == "g":
            return np.tanh(a)
        return 1.0 / (1.0 + np.exp(-a))

    def forward(self, x):
        if x.ndim != 3 or x.shape[2] != self.n_in:
            raise ValueError(f"expected (batch, time, {self.n_in}), got {x.shape}")
        batch, steps, _ = x.shape
        h = np.zeros((batch, self.n_hidden))
        c = np.zeros((batch, self.n_hidden))
        self._cache = []
        hs = np.zeros((batch, steps, self.n_hidden))
        for t in range(steps):
            x_t = x[:, t, :]
            i = self._gate("i", x_t, h)
            f = self._gate("f", x_t, h)
            g = self._gate("g", x_t, h)
            o = self._gate("o", x_t, h)
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            self._cache.append((x_t, h, c, i, f, g, o, tanh_c))
            c = c_new
            h = o * tanh_c
            hs[:, t, :] = h
        return hs

    def backward(self, dout):
        batch, steps, _ = dout.shape
        dx = np.zeros((batch, steps, self.n_in))
        dh_next = np.zeros((batch, self.n_hidden))
        dc_next = np.zeros((batch, self.n_hidden))
        for t in reversed(range(steps)):
            x_t, h_prev, c_prev, i, f, g, o, tanh_c = self._cache[t]
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


class Sequential(Layer):
    """Chain of layers applied in order."""

    def __init__(self, layers):
        self.layers = list(layers)

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def named_params(self, prefix=""):
        out = []
        for idx, layer in enumerate(self.layers):
            for p in layer.params():
                out.append((f"{prefix}{idx}.{p.name}", p))
        return out

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, dout):
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout


def zero_grads(params):
    for p in params:
        p.grad[...] = 0.0


def param_count(obj):
    """Total number of scalar parameters in anything exposing ``params()``."""
    return sum(p.value.size for p in obj.params())


def mse_loss(pred, target, normalizer):
    """Mean of per-sample ``||pred - target||^2 / normalizer`` over the batch.

    A 1-D input counts as a single sample. Returns ``(loss, dpred)``.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if normalizer <= 0:
        raise ValueError(f"normalizer must be positive, got {normalizer}")
    batch = 1 if pred.ndim == 1 else pred.shape[0]
    diff = pred - target
    loss = float((diff * diff).sum() / (normalizer * batch))
    return loss, 2.0 * diff / (normalizer * batch)


class Adam:
    """Adam with bias correction; update is ``lr * m_hat / (sqrt(v_hat) + eps)``."""

    def __init__(self, params, lr=0.001, beta1=0.99, beta2=0.999, eps=1e-8):
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

    def zero_grad(self):
        zero_grads(self._params)


class MseObjective:
    """Wraps a stack with an MSE head so grad_check can drive it.

    ``normalizer`` defaults to the number of output features per sample.
    """

    def __init__(self, stack, normalizer=None):
        self.stack = stack
        self.normalizer = normalizer

    def params(self):
        return self.stack.params()

    def objective_loss(self, x, target, compute_grads=False):
        pred = self.stack.forward(x)
        norm = self.normalizer or int(np.prod(pred.shape[1:] or pred.shape))
        loss, dpred = mse_loss(pred, target, norm)
        if compute_grads:
            zero_grads(self.stack.params())
            self.stack.backward(dpred)
        return loss


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    worst_index: int
    passed: bool
    tolerance: float
    details: dict = field(default_factory=dict)


def grad_check(objective, x, target, tolerance=1e-4, step=1e-5):
    """Compare analytic gradients against central finite differences.

    ``objective`` must expose ``params()`` and
    ``objective_loss(x, target, compute_grads)``; with ``compute_grads``
    the call must populate every parameter's ``grad``. The error for each
    component is ``|analytic - numeric| / max(|analytic| + |numeric|, 1e-3)``
    and the report carries the maximum over all components.
    """
    params = objective.params()
    zero_grads(params)
    objective.objective_loss(x, target, compute_grads=True)
    analytic = [p.grad.copy() for p in params]

    report = GradCheckReport(0.0, "", -1, True, tolerance)
    for p, grad in zip(params, analytic):
        flat = p.value.reshape(-1)
        gflat = grad.reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + step
            hi = objective.objective_loss(x, target)
            flat[j] = keep - step
            lo = objective.objective_loss(x, target)
            flat[j] = keep
            numeric = (hi - lo) / (2.0 * step)
            rel = abs(gflat[j] - numeric) / max(abs(gflat[j]) + abs(numeric), 1e-3)
            if rel > report.max_rel_error:
                report.max_rel_error = rel
                report.worst_param = p.name
                report.worst_index = j
    report.passed = report.max_rel_error < tolerance
    report.details = {"step": step, "n_params": sum(p.value.size for p in params)}
    return report
