"""Minimal trainable-network engine on float64 numpy arrays.

Every layer implements ``forward(x, keep=False)`` and ``backward(dout)``.
A training forward (``keep=True``) caches on the layer what the matching
``backward`` needs, so a layer instance is single-threaded during training;
each layer's docstring says what it keeps. An inference forward (the
default) keeps nothing and drops what an earlier training forward kept, so
a ``backward`` after it raises instead of reusing stale activations; it
only reads the layer's weights, so threads may run inference forwards of
one layer at once. The arithmetic is the same either way. Parameters and
their gradient buffers live in ``Param`` records so the optimizer and the
checkpoint code can treat all layers uniformly.

Importing this module makes the process keep its freed heap (glibc only;
elsewhere nothing changes). An inference forward frees all of its
temporaries when it returns. By default glibc hands that memory back to
the kernel, and the next block of the same size faults every page of it
in again: about 7.7k minor faults a warm 2048-frame ``cnn-rnnd`` forward,
run in 16 tiles on two threads. With the heap kept, it faults 3-4 pages.

``blas_threads(n)`` runs a block at ``n`` OpenBLAS threads, and
``blas_thread_count()`` reads the count. Training, every inference forward
and the ``ber`` pool run at one: their gemms are too small to split, and a
second thread would only busy-wait beside them. An inference forward puts
the count it found to work instead, as that many Python threads over its
tiles.
"""

import contextlib
import ctypes
import functools

import numpy as np
from dataclasses import dataclass

# glibc's mallopt parameter numbers, from <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# Allocations below this size come from the heap, whose freed pages can be
# reused, not from a private mapping that free unmaps at once. Inference
# runs in tiles of at most 128 frames (cnn), 256 (rnn) or 1024 (mlp), whose
# temporaries are at most 2.2 MB; the largest is an rnn tile's hidden-state
# buffer, (17, 256, 64): the zero start and 16 steps of 256 frames by 64
# units. 32 MiB, the largest value
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


# once per process; the ber pool's workers inherit it by fork
KEEPS_FREED_HEAP = _keep_freed_heap()

# (restype, argtypes) of the OpenBLAS functions called here
_OPENBLAS_TYPES = {"get_num_threads": (ctypes.c_int, []),
                   "set_num_threads": (None, [ctypes.c_int])}


@functools.cache
def _openblas_function(name):
    """``openblas_<name>`` of the OpenBLAS loaded into this process, under
    any of the symbol spellings numpy's builds use, typed, or None if none
    is. Looked up once per process; forked workers inherit the lookup."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (f"openblas_{name}", f"openblas_{name}64_",
                       f"scipy_openblas_{name}64_", f"scipy_openblas_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = _OPENBLAS_TYPES[name]
                return fn
    return None


def blas_thread_count():
    """The OpenBLAS thread count of this process now, or 1 without
    OpenBLAS: what an inference forward may spread its tiles over."""
    get_threads = _openblas_function("get_num_threads")
    return 1 if get_threads is None else get_threads()


@contextlib.contextmanager
def blas_threads(n):
    """Run the ``with`` block at ``n`` OpenBLAS threads, then restore the
    count the process had, also on error; without OpenBLAS, do nothing.
    The count is set only where it differs, on entry and on exit: in a
    freshly forked process any set call starts a server thread, which then
    busy-waits."""
    get_threads = _openblas_function("get_num_threads")
    set_threads = _openblas_function("set_num_threads")
    if get_threads is None or set_threads is None:
        yield
        return
    before = get_threads()
    if before != n:
        set_threads(n)
    try:
        yield
    finally:
        if get_threads() != before:
            set_threads(before)


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
        # the product is a fresh array, so the bias goes in without a copy
        out = x @ self.w.value
        out += self.b.value
        return out

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

    The forward copies the input once, channels last, into a buffer of its
    ``batch * length`` rows between two zero rows; tap k is one gemm on
    the rows ``xp[k:k + rows]``, summed ``((t0 + t1) + t2) + b``. Where the
    window of tap 0 reads across a frame's start, or that of tap 2 across
    its end, +0.0 is written after the gemm: what a gemm over a zero pad
    gives for finite weights (a non-finite weight gave NaN there; the
    output is non-finite either way, and checkpoints refuse such weights).
    At batch 1 the buffer is the channels-first padded input, transposed,
    so the operands are ``np.tensordot``'s strided views: a one-row product
    is a gemv, whose bits follow the stride of its vector.

    A training forward caches the input. The backward copies it once,
    channels first, into a (c_in, rows + 2) buffer ``xt`` of all frames'
    rows in one run between two zero columns. Tap 1's dW is one gemm on
    the view ``xt[:, 1:-1]``; taps 0 and 2 copy their window and zero the
    columns that read across a frame's start or end, which gives the bytes
    of a padded copy. The dx products ``P_k`` of the taps are summed in
    rows as in the forward, ``P1``, then ``P0`` one row up and ``P2`` one
    row down, with the rows that cross a frame boundary set to +0.0. Each
    product is a sum started from +0.0, never -0.0, and addition commutes,
    so these are the bits of ``((0 + P0) + P1) + P2`` over a zero-padded
    buffer. ``P_k`` is one gemm wherever a frame's product ``dt[frame] @
    W[:, :, k].T`` is a gemm: more than one input channel and a length
    above 1. The other frames' products are gemvs (the first conv of a
    stack has one input channel; a length-1 conv closes a cnn-nnd), and
    one 2-D product over all frames rounds those differently, so they stay
    a batched product, one gemv per frame. For the gemm case the two forms
    round alike at the default widths, whose input widths are multiples of
    8; under OpenBLAS they round apart when ``c_in % 8`` is 1-4 and
    ``c_out >= 16``.

    A length-1 conv runs only tap 1, forward and backward, since the other
    two read only padding. Its forward adds +0.0 to the product, as the
    tap sum did, for a 1x1 ``np.dot`` is a scalar product that can give
    -0.0. With one input channel its dW operand stays every third element
    of the padded input, as that product is a gemv.
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

    def _padded(self, x):
        """x zero-padded along its length: (batch, c_in, length + 2)."""
        batch, c_in, length = x.shape
        xp = np.zeros((batch, c_in, length + 2 * self.PAD))
        xp[:, :, self.PAD:self.PAD + length] = x
        return xp

    def forward(self, x, keep=False):
        if x.ndim != 3 or x.shape[1] != self.w.value.shape[0]:
            raise ValueError(
                f"expected (batch, {self.w.value.shape[0]}, length), got {x.shape}")
        self._cache = x if keep else None
        batch, c_in, length = x.shape
        rows = batch * length
        if batch == 1:
            xp = self._padded(x)[0].T
        else:
            xp = np.empty((rows + 2, c_in))
            xp[0] = xp[-1] = 0.0
            xp[1:-1].reshape(batch, length, c_in)[...] = x.transpose(0, 2, 1)
        w = self.w.value
        if length == 1:
            # taps 0 and 2 read only pad rows. A 1x1 np.dot is a scalar
            # product and can give -0.0, where the tap sum from +0.0 gave +0.0
            out = np.dot(xp[1:-1], w[:, :, 1])
            out += 0.0
        else:
            out = np.dot(xp[:rows], w[:, :, 0])
            # a frame's first row read the row before the frame
            out[::length] = 0.0
            tap = np.dot(xp[1:-1], w[:, :, 1])
            out += tap
            np.dot(xp[2:], w[:, :, 2], out=tap)
            # a frame's last row read the row after the frame
            tap[length - 1::length] = 0.0
            out += tap
        out += self.b.value
        return out.reshape(batch, length, -1).transpose(0, 2, 1)

    def backward(self, dout):
        x = self._saved()
        batch, c_in, length = x.shape
        expected = (batch, self.w.value.shape[1], length)
        if dout.shape != expected:
            raise ValueError(f"expected dout of shape {expected}, got {dout.shape}")
        rows = batch * length
        # the gemm operands below are views of dout, whose layout can
        # change the bits of the result
        dout = np.ascontiguousarray(dout)
        dt = dout.transpose(0, 2, 1)
        dt_rows = dt.reshape(rows, -1)
        grad = self.w.grad
        if length == 1 and c_in == 1:
            # a one-row product is a gemv, whose bits follow the stride of
            # its vector: here every third element of the padded input
            grad[:, :, 1] += np.dot(self._padded(x)[:, :, 1].T, dt_rows)
        else:
            xt = np.empty((c_in, rows + 2))
            xt[:, 0] = xt[:, -1] = 0.0
            xt[:, 1:-1].reshape(c_in, batch, length)[...] = x.transpose(1, 0, 2)
            grad[:, :, 1] += np.dot(xt[:, 1:-1], dt_rows)
        # at length 1, taps 0 and 2 read only padding
        if length > 1:
            # their windows, with the columns that read across a frame's
            # start or end zeroed: the padded input's bytes
            window = xt[:, :rows].copy()
            window[:, ::length] = 0.0
            grad[:, :, 0] += np.dot(window, dt_rows)
            window[...] = xt[:, 2:]
            window[:, length - 1::length] = 0.0
            grad[:, :, 2] += np.dot(window, dt_rows)

        def product(k):
            w_k = self.w.value[:, :, k].T
            if c_in == 1 or length == 1:
                # one gemv per frame; one product over all rows rounds
                # differently
                return (dt @ w_k).reshape(rows, c_in)
            return np.dot(dt_rows, w_k)

        dx = product(1)
        if length > 1:
            # the rows that cross a frame boundary add +0.0
            tap = product(0)
            tap[::length] = 0.0
            dx[:-1] += tap[1:]
            tap = product(2)
            tap[length - 1::length] = 0.0
            dx[1:] += tap[:-1]
        self.b.grad += dout.sum(axis=(0, 2))
        # channels first and contiguous, the layout the bias sums of the
        # layers upstream were written against
        return np.ascontiguousarray(
            dx.reshape(batch, length, c_in).transpose(0, 2, 1))


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
    """max(x, 0) as ``np.maximum(x, 0.0)``, one pass. A training forward
    caches the boolean mask ``x > 0`` C-contiguous, the layout its
    gradients arrive in, even where x is a channels-last view; the backward
    reads only the mask.

    On a tie maximum returns its second argument, so a negative x, -inf
    and a zero of either sign give +0.0, and NaN stays NaN; ``x * (x >
    0)`` would give -0.0 for a negative x and for -0.0, and NaN for -inf.
    No model output moves with that sign: every ReLU output reaches a
    gemm, directly or through ``MaxPool1D`` (whose strict ``>`` mask routes
    +0.0 and -0.0 ties alike) and ``Flatten``, and a gemm sum starts from
    +0.0, so the sign of a zero term never shows.
    """

    def forward(self, x, keep=False):
        self._cache = np.ascontiguousarray(x > 0) if keep else None
        return np.maximum(x, 0.0)

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
    a batched gemm each for ``h @ Wh`` and ``x_t @ Wx``, ``H + X + b``, one
    logistic over the first three gates and one tanh. Per gate these are
    the bits of ``x_t @ Wx + h @ Wh + b`` and ``1 / (1 + exp(-a))``:

    - The i, f and o slices of the stacked ``Wx``, ``Wh`` and ``b`` are
      negated, so those gates sum to -a and the logistic is ``exp``,
      ``+ 1`` and a division. Negation is exact and round-to-nearest is
      symmetric in sign, so each product and sum is the exact negation of
      the one it replaces. Only a zero may change its sign (and a NaN
      from non-finite input), and ``exp(-0.0) == exp(0.0) == 1``.
    - ``b``, and for n_in = 1 ``Wx``, are repeated along the batch axis.
      Each n_in = 1 step copies x_t across a (batch, hidden) row block, and
      ``x_t * Wx`` is one elementwise loop per gate.

    The hidden states live in one (steps + 1, batch, hidden) buffer, h[0]
    the zero start; step t writes h[t + 1] in place. The output is its
    view ``h[1:].transpose(1, 0, 2)``: a step's states are contiguous rows
    for ``TakeLast`` and for the next LSTM. A training forward caches the
    input, the gate activations (steps, 4, batch, hidden) in ``STACK``
    order, h and c (steps + 1, batch, hidden) and tanh(c_t) (steps, batch,
    hidden); an inference forward reuses one slot of each but h.

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
        wx, wh, b = (self._stacked(table) for table in (self.wx, self.wh, self.b))
        # the logistic gates then sum to -a, which exp takes as it is
        for w in (wx, wh, b):
            np.negative(w[:3], out=w[:3])
        # repeated along the batch axis: the add is 2x faster at 64 frames
        # and 10-20% at 2048 than a broadcast one, and the n_in = 1 product
        # runs as one loop per gate instead of one per frame and gate
        b = np.repeat(b[:, None, :], batch, axis=1)
        if self.n_in == 1:
            wx = np.repeat(wx, batch, axis=1)
            x_t = np.empty((batch, self.n_hidden))
        # step t reads cell slot t and writes slot t + 1, modulo the count;
        # one slot is enough, as a step reads all of c before it writes
        n_gate, n_cell = (steps, steps + 1) if keep else (1, 1)
        gates = np.empty((n_gate, len(self.STACK), batch, self.n_hidden))
        tanh_c = np.empty((n_gate, batch, self.n_hidden))
        h = np.empty((steps + 1, batch, self.n_hidden))
        c = np.empty((n_cell, batch, self.n_hidden))
        h[0] = c[0] = 0.0
        xw = np.empty((len(self.STACK), batch, self.n_hidden))
        work = np.empty((batch, self.n_hidden))
        for t in range(steps):
            c_prev, c_t = c[t % n_cell], c[(t + 1) % n_cell]
            acts, tc = gates[t % n_gate], tanh_c[t % n_gate]
            # H + X + b has the bits of X + H + b, as addition commutes. For
            # n_in = 1 a product takes 30% less time than the k=1 gemm,
            # whose bits it has but -0.0 where the gemm gives +0.0; a gemm
            # never returns -0.0, so adding H drops that sign again
            np.matmul(h[t], wh, out=acts)
            if self.n_in == 1:
                x_t[...] = x[:, t]
                np.multiply(x_t, wx, out=xw)
            else:
                np.matmul(x[:, t], wx, out=xw)
            acts += xw
            acts += b
            logistic = acts[:3]
            np.exp(logistic, out=logistic)
            logistic += 1.0
            np.divide(1.0, logistic, out=logistic)
            np.tanh(acts[3], out=acts[3])
            i, f, o, g = acts
            np.multiply(f, c_prev, out=c_t)
            c_t += np.multiply(i, g, out=work)
            np.tanh(c_t, out=tc)
            np.multiply(o, tc, out=h[t + 1])
        if keep:
            self._cache = (x, gates, h, c, tanh_c)
        return h[1:].transpose(1, 0, 2)

    def backward(self, dout):
        x, gates, h, c, tanh_c = self._saved()
        if self.n_in == 1:
            # x_t.T @ pre is then a gemv per gate, and OpenBLAS rounds a
            # strided vector (x_t of a C-ordered x) apart from a contiguous
            # one at some sizes; the models feed these layers C-ordered x
            x = np.ascontiguousarray(x)
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
    """Adam with bias correction; update is ``lr * m_hat / (sqrt(v_hat) + eps)``.

    The optimizer owns two flat buffers, one of parameter values and one of
    gradients, each parameter's slice starting on a 64-byte line. It copies
    every ``Param`` into them and rebinds its ``value`` and ``grad`` to views
    of its slices, so a step is a few whole-buffer ufunc calls. Layers and
    ``load_checkpoint`` write parameters in place, so their writes reach the
    buffers. The update is the per-array one, operation for operation:
    elementwise IEEE arithmetic does not depend on layout, so the values
    are the same bits. The padding between slices stays zero.
    """

    # float64s in a 64-byte line
    _LINE = 8

    def __init__(self, params, lr, beta1, beta2, eps):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        params = list(params)
        starts = np.cumsum([0] + [-(-p.value.size // self._LINE) * self._LINE
                                  for p in params])
        self._value, self._grad, self._m, self._v = (
            self._aligned_zeros(int(starts[-1])) for _ in range(4))
        for p, lo in zip(params, starts):
            view = slice(lo, lo + p.value.size)
            self._value[view] = p.value.reshape(-1)
            self._grad[view] = p.grad.reshape(-1)
            p.value = self._value[view].reshape(p.value.shape)
            p.grad = self._grad[view].reshape(p.grad.shape)

    @classmethod
    def _aligned_zeros(cls, n):
        """``n`` float64 zeros starting on a 64-byte boundary."""
        raw = np.zeros(n + cls._LINE - 1)
        skip = -raw.ctypes.data % (8 * cls._LINE) // 8
        return raw[skip:skip + n]

    def step(self):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        g, m, v = self._grad, self._m, self._v
        # scratch for this step only: between steps its memory serves the
        # layers' temporaries, which keeps a training run's peak lower
        work, denom = np.empty_like(g), np.empty_like(g)
        # m = b1 m + (1 - b1) g
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, g, out=work)
        # v = b2 v + ((1 - b2) g) g
        v *= self.beta2
        np.multiply(1.0 - self.beta2, g, out=work)
        work *= g
        v += work
        # value -= (lr (m / b1c)) / (sqrt(v / b2c) + eps)
        np.divide(m, b1c, out=work)
        work *= self.lr
        np.sqrt(np.divide(v, b2c, out=denom), out=denom)
        denom += self.eps
        work /= denom
        self._value -= work
