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

Importing this module makes the process keep its freed heap (glibc only;
elsewhere nothing changes). An inference forward frees all of its
temporaries when it returns. By default glibc hands that memory back to
the kernel, and the next block of the same size faults every page of it
in again: about 15k minor faults a 2048-frame ``cnn-rnnd`` forward, run in
32 tiles. With the heap kept, warm forwards fault none.
"""

import ctypes
import numpy as np
from dataclasses import dataclass

# glibc's mallopt parameter numbers, from <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# Allocations below this size come from the heap, whose freed pages can be
# reused, not from a private mapping that free unmaps at once. A cnn or rnn
# model runs inference in tiles of at most 128 frames, whose temporaries
# stay under 2 MiB; the largest temporary left is an untiled mlp's 128-wide
# layer over a 4096-frame snr/pdf chunk, 4 MiB. 32 MiB, the largest value
# glibc accepts on 64-bit hosts, keeps all of them on the heap with room to
# spare. Setting it stops glibc from moving this threshold and the next one
# by itself.
MMAP_THRESHOLD = 32 << 20
# The heap is trimmed only once this much is free at its top, more than a
# decode block or a training step frees at once, so the next one reuses the
# same pages. Peak memory is unchanged; only its return is deferred.
TRIM_THRESHOLD = 256 << 20


def _keep_freed_heap():
    """Set the C allocator's heap policy above through glibc's ``mallopt``.
    Returns True if every setting took, False where there is no mallopt or
    it refused one."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return all([mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1,
                mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1])


# once per process; a pool worker inherits it by fork or sets it on import
KEEPS_FREED_HEAP = _keep_freed_heap()


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
        if out.size == 1 and c_in == 1:
            # np.dot of two 1x1 operands is a scalar product, -0.0 for
            # 0.0 * -w; adding +0.0 gives the sign a gemm sum has
            out += 0.0
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
    layout the input has. A training forward caches a C-contiguous boolean
    mask, true where the second of a pair is strictly larger, and the
    backward routes each gradient to the position it names; the gradients
    and the mask then share one layout. The input gradient is a new
    C-contiguous array.
    """

    def forward(self, x, keep=False):
        if x.shape[-1] % 2 != 0:
            raise ValueError(f"pooling needs an even length, got {x.shape[-1]}")
        first, second = x[..., 0::2], x[..., 1::2]
        self._cache = np.greater(second, first, order="C") if keep else None
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
    mask ``x > 0`` C-contiguous, the layout its gradients arrive in, even
    where x is a channels-last view."""

    def forward(self, x, keep=False):
        mask = x > 0
        self._cache = np.ascontiguousarray(mask) if keep else None
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

    A call stacks the per-gate weights once, in ``STACK`` order (i, f, o,
    g: the logistic gates first), and allocates its step state once. Each
    step computes the four gates as one (4, batch, hidden) tensor in place:
    a batched gemm each for ``h @ Wh`` and ``x_t @ Wx`` (a broadcast
    product when n_in is 1), ``H + X + b``, one logistic over the first
    three gates and one tanh. Per gate these are the bits of
    ``x_t @ Wx + h @ Wh + b`` and ``1 / (1 + exp(-a))``. A training forward
    caches the input, the gate activations (steps, 4, batch, hidden) in
    ``STACK`` order, h and c from the zero start on (steps + 1, batch,
    hidden) and tanh(c_t) (steps, batch, hidden); an inference forward
    reuses one slot of each.

    The backward builds the four pre-activation gradients as one (4,
    batch, hidden) tensor and accumulates the weight and bias gradients
    with batched gemms and one sum over the batch into stacked copies,
    written back to the per-gate ``Param``s at the end. It sums the dh and
    dx products over the gates in ``GATES`` order (i, f, g, o) from the
    first product, as a per-gate kernel does; one gemm summing over all
    four gates would reorder that sum.
    """

    GATES = ("i", "f", "g", "o")
    STACK = ("i", "f", "o", "g")

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

    def _stacked(self, table, field="value"):
        """A fresh array of ``table``'s per-gate arrays in ``STACK`` order."""
        return np.stack([getattr(table[gate], field) for gate in self.STACK])

    def forward(self, x, keep=False):
        if x.ndim != 3 or x.shape[2] != self.n_in:
            raise ValueError(f"expected (batch, time, {self.n_in}), got {x.shape}")
        self._cache = None
        batch, steps, _ = x.shape
        wx, wh = self._stacked(self.wx), self._stacked(self.wh)
        # repeated along the batch axis: the add is 2x faster at 64 frames
        # and 10-20% at 2048 than a broadcast one
        b = np.repeat(self._stacked(self.b)[:, None, :], batch, axis=1)
        # step t reads state slot t and writes slot t + 1, modulo the count;
        # one slot is enough, as a step reads all of h and c before it writes
        n_gate, n_state = (steps, steps + 1) if keep else (1, 1)
        gates = np.empty((n_gate, len(self.STACK), batch, self.n_hidden))
        tanh_c = np.empty((n_gate, batch, self.n_hidden))
        h = np.empty((n_state, batch, self.n_hidden))
        c = np.empty((n_state, batch, self.n_hidden))
        h[0] = c[0] = 0.0
        xw = np.empty((len(self.STACK), batch, self.n_hidden))
        work = np.empty((batch, self.n_hidden))
        hs = np.empty((batch, steps, self.n_hidden))
        for t in range(steps):
            x_t, h_prev, c_prev = x[:, t, :], h[t % n_state], c[t % n_state]
            h_t, c_t = h[(t + 1) % n_state], c[(t + 1) % n_state]
            acts, tc = gates[t % n_gate], tanh_c[t % n_gate]
            # H + X + b has the bits of X + H + b, as addition commutes. For
            # n_in = 1 a broadcast product takes 30% less time than the k=1
            # gemm, whose bits it has but -0.0 where the gemm gives +0.0; a
            # gemm never returns -0.0, so adding H drops that sign again
            np.matmul(h_prev, wh, out=acts)
            if self.n_in == 1:
                np.multiply(x_t, wx, out=xw)
            else:
                np.matmul(x_t, wx, out=xw)
            acts += xw
            acts += b
            _sigmoid_in_place(acts[:3])
            np.tanh(acts[3], out=acts[3])
            i, f, o, g = acts
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
        # transposed views, the operands the per-gate products p @ W.T had
        wx_t = self._stacked(self.wx).transpose(0, 2, 1)
        wh_t = self._stacked(self.wh).transpose(0, 2, 1)
        tables = (self.wx, self.wh, self.b)
        grads = [self._stacked(table, "grad") for table in tables]
        g_wx, g_wh, g_b = grads
        d_wx, d_wh, d_b = (np.empty_like(grad) for grad in grads)
        n_gate = len(self.STACK)
        dx = np.empty((batch, steps, self.n_in))
        dx_t = np.empty((batch, self.n_in))
        back_x = np.empty((n_gate, batch, self.n_in))
        back_h = np.empty((n_gate, batch, self.n_hidden))
        dh_next = np.zeros((batch, self.n_hidden))
        dc_next = np.zeros((batch, self.n_hidden))
        dh, dc, work = (np.empty((batch, self.n_hidden)) for _ in range(3))
        pre = np.empty((n_gate, batch, self.n_hidden))
        slope = np.empty((3, batch, self.n_hidden))
        for t in reversed(range(steps)):
            x_t, h_prev, c_prev = x[:, t, :], h[t], c[t]
            acts, tc = gates[t], tanh_c[t]
            i, f, o, g = acts
            np.add(dout[:, t, :], dh_next, out=dh)
            # dc = dc_next + dh * o * (1 - tc^2)
            np.subtract(1.0, np.multiply(tc, tc, out=work), out=work)
            _product(dc, dh, o, work)
            dc += dc_next
            # pre_i = dc * g * i * (1 - i), pre_f = dc * c_prev * f * (1 - f),
            # pre_o = dh * tc * o * (1 - o), pre_g = dc * i * (1 - g^2)
            np.multiply(dc, g, out=pre[0])
            np.multiply(dc, c_prev, out=pre[1])
            np.multiply(dh, tc, out=pre[2])
            pre[:3] *= acts[:3]
            pre[:3] *= np.subtract(1.0, acts[:3], out=slope)
            np.subtract(1.0, np.multiply(g, g, out=work), out=work)
            _product(pre[3], dc, i, work)
            np.multiply(dc, f, out=dc_next)
            g_wx += np.matmul(x_t.T, pre, out=d_wx)
            g_wh += np.matmul(h_prev.T, pre, out=d_wh)
            g_b += pre.sum(axis=1, out=d_b)
            np.matmul(pre, wh_t, out=back_h)
            np.matmul(pre, wx_t, out=back_x)
            # in GATES order, i + f + g + o, from the first product: a gemm
            # never returns -0.0, so this equals a sum started from zeros.
            # dx_t is contiguous: a row of dx[:, t] is steps rows from the next
            for out, terms in ((dh_next, back_h), (dx_t, back_x)):
                np.add(terms[0], terms[1], out=out)
                out += terms[3]
                out += terms[2]
            dx[:, t, :] = dx_t
        for table, grad in zip(tables, grads):
            for gate, value in zip(self.STACK, grad):
                table[gate].grad[...] = value
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
