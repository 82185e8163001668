"""Minimal trainable-network engine on float64 numpy arrays.

Every layer implements ``forward(x, keep=False)`` and ``backward(dout)``.
A training forward (``keep=True``) caches on the layer what the matching
``backward`` needs, so a layer instance is single-threaded during training;
each layer's docstring says what it keeps. An inference forward (the
default) keeps nothing and drops what an earlier training forward kept, so
a ``backward`` after it raises instead of reusing stale activations. The
arithmetic is the same either way. Parameters and their gradient buffers
live in ``Param`` records so the optimizer and the checkpoint code can
treat all layers uniformly.
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
    # what the last training forward kept for the backward, else None
    _cache = None

    def params(self):
        return []

    def forward(self, x, keep=False):
        raise NotImplementedError

    def backward(self, dout):
        raise NotImplementedError

    def _saved(self):
        if self._cache is None:
            raise RuntimeError(f"{type(self).__name__}.backward needs a forward "
                               f"with keep=True before it")
        return self._cache


class Affine(Layer):
    """y = x W + b with W of shape (n_in, n_out). A training forward caches
    the input x."""

    def __init__(self, n_in, n_out, rng):
        self.w = Param.zeros_like("W", glorot_uniform(rng, (n_in, n_out), n_in, n_out))
        self.b = Param.zeros_like("b", np.zeros(n_out))

    def params(self):
        return [self.w, self.b]

    def forward(self, x, keep=False):
        self._cache = x if keep else None
        return x @ self.w.value + self.b.value

    def backward(self, dout):
        x = self._saved()
        self.w.grad += x.T @ dout
        self.b.grad += dout.sum(axis=0)
        return dout @ self.w.value.T


class Conv1D(Layer):
    """Channel-wise 1-D cross-correlation, kernel 3, zero padding 1.

    Input and output are (batch, channels, length); the length is preserved.
    Kernel tensor has shape (in_channels, out_channels, KERNEL). The output
    is a transposed view of a (batch, length, out_channels) array.

    A training forward caches the zero-padded input channels first, (batch,
    in_channels, length + 2). Each tap is one gemm whose operands have the
    values and the memory layout ``np.tensordot`` would give it, because the
    layout decides the bits of the result: at batch 1 the rows of a tap are
    a strided view of the padded input, not a copy.
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

    def forward(self, x, keep=False):
        if x.ndim != 3 or x.shape[1] != self.w.value.shape[0]:
            raise ValueError(
                f"expected (batch, {self.w.value.shape[0]}, length), got {x.shape}")
        self._cache = None
        batch, c_in, length = x.shape
        xp = np.zeros((batch, c_in, length + 2 * self.PAD))
        xp[:, :, self.PAD:self.PAD + length] = x
        if keep:
            self._cache = xp
        taps = xp.transpose(0, 2, 1)
        rows = batch * length
        # a gemm sum starts from +0.0, so it never returns -0.0 and the
        # first tap needs no zero-filled accumulator
        out = np.dot(taps[:, :length].reshape(rows, c_in), self.w.value[:, :, 0])
        tap = np.empty_like(out)
        for k in range(1, self.KERNEL):
            out += np.dot(taps[:, k:k + length].reshape(rows, c_in),
                          self.w.value[:, :, k], out=tap)
        out += self.b.value
        return out.reshape(batch, length, -1).transpose(0, 2, 1)

    def backward(self, dout):
        # the gemm operands below are views of dout, whose layout can
        # change the bits of the result
        dout = np.ascontiguousarray(dout)
        batch, c_out, length = dout.shape
        dt = dout.transpose(0, 2, 1)
        dt_rows = dt.reshape(batch * length, c_out)
        taps = self._saved().transpose(1, 0, 2)
        dxp = np.zeros((batch, length + 2 * self.PAD, len(taps)))
        for k in range(self.KERNEL):
            self.w.grad[:, :, k] += np.dot(
                taps[:, :, k:k + length].reshape(len(taps), -1), dt_rows)
            # a batched matmul: one gemv per frame when c_in is 1
            dxp[:, k:k + length] += dt @ self.w.value[:, :, k].T
        self.b.grad += dout.sum(axis=(0, 2))
        # channels first and contiguous, the layout the bias sums of the
        # layers upstream were written against
        return np.ascontiguousarray(
            dxp[:, self.PAD:self.PAD + length].transpose(0, 2, 1))


class MaxPool1D(Layer):
    """Width-2 stride-2 max pooling; ties keep the earlier position.

    Reads the even and odd positions as strided views, in whatever memory
    layout the input has. A training forward caches a boolean mask, true
    where the second of a pair is strictly larger, and the backward routes
    each gradient to the position it names; the input gradient is a new
    C-contiguous array.
    """

    def forward(self, x, keep=False):
        if x.shape[-1] % 2 != 0:
            raise ValueError(f"pooling needs an even length, got {x.shape[-1]}")
        first, second = x[..., 0::2], x[..., 1::2]
        self._cache = second > first if keep else None
        # on equal inputs (+0.0 and -0.0 too) maximum returns its second
        # argument, here the earlier position; a NaN in either propagates
        return np.maximum(second, first)

    def backward(self, dout):
        second = self._saved()
        dx = np.empty(dout.shape[:-1] + (2 * dout.shape[-1],))
        dx[..., 0::2] = np.where(second, 0.0, dout)
        dx[..., 1::2] = np.where(second, dout, 0.0)
        return dx


class ReLU(Layer):
    """max(x, 0) as ``x * (x > 0)``. A training forward caches the boolean
    mask ``x > 0``."""

    def forward(self, x, keep=False):
        mask = x > 0
        self._cache = mask if keep else None
        return x * mask

    def backward(self, dout):
        return dout * self._saved()


class Sigmoid(Layer):
    """Logistic function, from ``exp(-|x|)`` so it cannot overflow. A
    training forward caches the output y, which is all the backward needs."""

    def forward(self, x, keep=False):
        e = np.exp(-np.abs(x))
        y = np.where(x >= 0, 1.0, e) / (1.0 + e)
        self._cache = y if keep else None
        return y

    def backward(self, dout):
        y = self._saved()
        return dout * y * (1.0 - y)


def _product(out, *factors):
    """``out = factors[0] * factors[1] * ...``, multiplied left to right."""
    np.multiply(factors[0], factors[1], out=out)
    for factor in factors[2:]:
        out *= factor


def _sigmoid_in_place(a):
    """``a = 1.0 / (1.0 + np.exp(-a))``, bit for bit, without temporaries."""
    np.negative(a, out=a)
    np.exp(a, out=a)
    a += 1.0
    np.divide(1.0, a, out=a)


class LSTM(Layer):
    """Single-layer LSTM over (batch, time, features), h0 = c0 = 0.

    Gates: input/forget/output logistic, candidate tanh;
    c_t = f * c_{t-1} + i * g, h_t = o * tanh(c_t).
    Each gate owns an input weight (n_in, hidden), a recurrent weight
    (hidden, hidden) and a bias (hidden,), initialized uniform within
    +-1/sqrt(hidden) with zero biases. Returns the full hidden sequence.

    A call allocates its step state once and computes each gate in place,
    with the operations and operands of ``x_t @ Wx + h @ Wh + b`` and
    ``1 / (1 + exp(-a))``. A training forward caches the input, the gate
    activations (steps, 4, batch, hidden), h and c from the zero start on
    (steps + 1, batch, hidden) and tanh(c_t) (steps, batch, hidden); an
    inference forward reuses one slot of each.
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

    def forward(self, x, keep=False):
        if x.ndim != 3 or x.shape[2] != self.n_in:
            raise ValueError(f"expected (batch, time, {self.n_in}), got {x.shape}")
        self._cache = None
        batch, steps, _ = x.shape
        # step t reads state slot t and writes slot t + 1, modulo the count;
        # one slot is enough, as a step reads all of h and c before it writes
        n_gate, n_state = (steps, steps + 1) if keep else (1, 1)
        gates = np.empty((n_gate, len(self.GATES), batch, self.n_hidden))
        tanh_c = np.empty((n_gate, batch, self.n_hidden))
        h = np.empty((n_state, batch, self.n_hidden))
        c = np.empty((n_state, batch, self.n_hidden))
        h[0] = c[0] = 0.0
        work = np.empty((batch, self.n_hidden))
        hs = np.empty((batch, steps, self.n_hidden))
        for t in range(steps):
            x_t, h_prev, c_prev = x[:, t, :], h[t % n_state], c[t % n_state]
            h_t, c_t = h[(t + 1) % n_state], c[(t + 1) % n_state]
            acts, tc = gates[t % n_gate], tanh_c[t % n_gate]
            for gate, a in zip(self.GATES, acts):
                np.matmul(x_t, self.wx[gate].value, out=a)
                a += np.matmul(h_prev, self.wh[gate].value, out=work)
                a += self.b[gate].value
                if gate == "g":
                    np.tanh(a, out=a)
                else:
                    _sigmoid_in_place(a)
            i, f, g, o = acts
            np.multiply(f, c_prev, out=c_t)
            c_t += np.multiply(i, g, out=work)
            np.tanh(c_t, out=tc)
            np.multiply(o, tc, out=h_t)
            hs[:, t] = h_t
        if keep:
            self._cache = (x, gates, h, c, tanh_c)
        return hs

    def backward(self, dout):
        x, gates, h, c, tanh_c = self._saved()
        batch, steps, _ = dout.shape
        dx = np.empty((batch, steps, self.n_in))
        dx_t = np.empty((batch, self.n_in))
        work_x = np.empty((batch, self.n_in))
        dh_next = np.zeros((batch, self.n_hidden))
        dc_next = np.zeros((batch, self.n_hidden))
        dh, dc, work = (np.empty((batch, self.n_hidden)) for _ in range(3))
        pre = np.empty((len(self.GATES), batch, self.n_hidden))
        for t in reversed(range(steps)):
            x_t, h_prev, c_prev = x[:, t, :], h[t], c[t]
            i, f, g, o = gates[t]
            tc = tanh_c[t]
            np.add(dout[:, t, :], dh_next, out=dh)
            # dc = dc_next + dh * o * (1 - tc^2)
            np.subtract(1.0, np.multiply(tc, tc, out=work), out=work)
            _product(dc, dh, o, work)
            dc += dc_next
            pre_i, pre_f, pre_g, pre_o = pre
            _product(pre_i, dc, g, i, np.subtract(1.0, i, out=work))
            _product(pre_f, dc, c_prev, f, np.subtract(1.0, f, out=work))
            np.subtract(1.0, np.multiply(g, g, out=work), out=work)
            _product(pre_g, dc, i, work)
            _product(pre_o, dh, tc, o, np.subtract(1.0, o, out=work))
            np.multiply(dc, f, out=dc_next)
            # the sums over gates start from the first product, not from
            # zeros: a gemm never returns -0.0, so 0.0 + p == p
            for k, (gate, p) in enumerate(zip(self.GATES, pre)):
                self.wx[gate].grad += x_t.T @ p
                self.wh[gate].grad += h_prev.T @ p
                self.b[gate].grad += p.sum(axis=0)
                if k == 0:
                    np.matmul(p, self.wh[gate].value.T, out=dh_next)
                    np.matmul(p, self.wx[gate].value.T, out=dx_t)
                else:
                    dh_next += np.matmul(p, self.wh[gate].value.T, out=work)
                    dx_t += np.matmul(p, self.wx[gate].value.T, out=work_x)
            dx[:, t, :] = dx_t
        return dx


class Sequential(Layer):
    """Chain of layers applied in order; caches nothing of its own."""

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

    def forward(self, x, keep=False):
        for layer in self.layers:
            x = layer.forward(x, keep)
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
        pred = self.stack.forward(x, keep=compute_grads)
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
