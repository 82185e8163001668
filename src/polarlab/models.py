"""Decoder model zoo: MLP / CNN / RNN families, each as a plain decoder
(NND) or with a residual denoiser in front (RNND).

The RNND forward is ``s_hat = y + H(y)`` followed by ``u_soft = G(s_hat)``;
its training loss is the sum of a denoising term ``||s_hat - s||^2 / N``
and a decoding term ``||u_soft - u||^2 / K``, both averaged over the batch.
The NND keeps the same trunk depth, drops the shortcut and the N-wide
bottleneck, and trains on the decoding term alone.
"""

import numpy as np
from dataclasses import dataclass
from itertools import accumulate

from polarlab.nn import (
    Affine,
    Conv1D,
    LSTM,
    Layer,
    MaxPool1D,
    ReLU,
    Sequential,
    Sigmoid,
    mse_loss,
    zero_grads,
)

FAMILIES = ("mlp", "cnn", "rnn")
VARIANTS = ("nnd", "rnnd")


class AsChannels(Layer):
    """(batch, N) -> (batch, 1, N)"""

    def forward(self, x, keep=False):
        return x[:, None, :]

    def backward(self, dout):
        return dout[:, 0, :]


class Flatten(Layer):
    """(batch, channels, length) -> (batch, channels * length)"""

    def forward(self, x, keep=False):
        self._cache = x.shape if keep else None
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self._saved())


class AsSequence(Layer):
    """(batch, N) -> (batch, N, 1): one symbol per timestep."""

    def forward(self, x, keep=False):
        return x[:, :, None]

    def backward(self, dout):
        return dout[:, :, 0]


class TakeLast(Layer):
    """(batch, time, hidden) -> (batch, hidden), keeping the final step."""

    def forward(self, x, keep=False):
        self._cache = x.shape if keep else None
        return x[:, -1, :]

    def backward(self, dout):
        dx = np.zeros(self._saved())
        dx[:, -1, :] = dout
        return dx


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; dimension defaults target the (16, 8) code."""

    family: str
    variant: str
    N: int = 16
    K: int = 8
    mlp_hidden: tuple = (128, 64, 32)
    cnn_denoiser_channels: tuple = (64, 48, 32)
    cnn_decoder_channels: tuple = (64, 32, 32)
    rnn_denoiser_hidden: int = 64
    rnn_decoder_hidden: int = 48

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        sizes = (self.N, self.K, self.rnn_denoiser_hidden, self.rnn_decoder_hidden,
                 *self.mlp_hidden, *self.cnn_denoiser_channels,
                 *self.cnn_decoder_channels)
        if not all(type(n) is int and n >= 1 for n in sizes):
            raise ValueError(f"sizes and widths must be positive integers: {self}")
        if not (len(self.cnn_denoiser_channels) == len(self.cnn_decoder_channels) == 3):
            raise ValueError(f"a cnn trunk has three conv layers, so each channel "
                             f"list needs three widths: {self}")
        if not 1 <= self.K <= self.N:
            raise ValueError(f"need 1 <= K <= N, got K={self.K}, N={self.N}")
        # a cnn trunk pools twice; an NND stack runs two trunks in series
        shrink = 4 if self.variant == "rnnd" else 16
        if self.family == "cnn" and self.N % shrink:
            raise ValueError(f"cnn-{self.variant} pools by {shrink}, so N must "
                             f"be divisible by {shrink}, got N={self.N}")

    @property
    def arch_name(self):
        return f"{self.family}-{self.variant}-{self.N}-{self.K}"


def parse_arch_name(name, N=16, K=8):
    """Inverse of ``ModelSpec.arch_name`` for the default dimension table; a
    short 'family-variant' name takes the code size ``N``, ``K``."""
    parts = name.split("-")
    if len(parts) == 4:
        N, K = int(parts[2]), int(parts[3])
    elif len(parts) != 2:
        raise ValueError("want family-variant or family-variant-N-K")
    return ModelSpec(family=parts[0], variant=parts[1], N=N, K=K)


@dataclass
class LossValues:
    total: float
    denoise: float
    decode: float


def _head(dims_in, dims_out, rng, sigmoid):
    """The closing Affine, squashed into (0, 1) on a decoding stack."""
    return [Affine(dims_in, dims_out, rng)] + ([Sigmoid()] if sigmoid else [])


def _mlp_stack(n, hidden, dims_out, rng, sigmoid):
    layers = []
    prev = n
    for width in hidden:
        layers += [Affine(prev, width, rng), ReLU()]
        prev = width
    return Sequential(layers + _head(prev, dims_out, rng, sigmoid))


def _cnn_trunk(c_in, channels, rng):
    """Three conv blocks with pooling after the first two (length -> length/4)."""
    c1, c2, c3 = channels
    return [Conv1D(c_in, c1, rng), ReLU(), MaxPool1D(),
            Conv1D(c1, c2, rng), ReLU(), MaxPool1D(),
            Conv1D(c2, c3, rng), ReLU()]


def _cnn_stack(n, trunks, dims_out, rng, sigmoid):
    """One conv trunk per channel triple in ``trunks``, in series."""
    shrink = 4 ** len(trunks)
    layers = [AsChannels()]
    c_in = 1
    for channels in trunks:
        layers += _cnn_trunk(c_in, channels, rng)
        c_in = channels[-1]
    return Sequential(layers + [Flatten()]
                      + _head(c_in * (n // shrink), dims_out, rng, sigmoid))


def _rnn_stack(n, hidden, dims_out, rng, sigmoid):
    """LSTMs in series, reading one symbol per step, so ``n`` sizes nothing."""
    layers = [AsSequence()]
    prev = 1
    for width in hidden:
        layers.append(LSTM(prev, width, rng))
        prev = width
    return Sequential(layers + [TakeLast()] + _head(prev, dims_out, rng, sigmoid))


def _stack_plans(spec):
    """``(n, widths, dims_out, sigmoid)`` of each stack, denoiser first.

    An NND runs the RNND's denoiser and decoder trunks in series as one
    stack, without the shortcut and without the N-wide bottleneck.
    """
    den, dec = {
        "mlp": (spec.mlp_hidden, spec.mlp_hidden),
        "cnn": ((spec.cnn_denoiser_channels,), (spec.cnn_decoder_channels,)),
        "rnn": ((spec.rnn_denoiser_hidden,), (spec.rnn_decoder_hidden,)),
    }[spec.family]
    if spec.variant == "rnnd":
        return [(spec.N, den, spec.N, False), (spec.N, dec, spec.K, True)]
    return [(spec.N, den + dec, spec.K, True)]


def _build_stacks(spec, rng):
    """Returns (denoiser, decoder); denoiser is None for NND variants."""
    stack = {"mlp": _mlp_stack, "cnn": _cnn_stack, "rnn": _rnn_stack}[spec.family]
    *denoiser, decoder = [stack(n, widths, dims_out, rng, sigmoid)
                          for n, widths, dims_out, sigmoid in _stack_plans(spec)]
    return (denoiser[0] if denoiser else None), decoder


def _mlp_count(n, hidden, dims_out):
    dims = (n, *hidden, dims_out)
    return sum(a * b + b for a, b in zip(dims, dims[1:]))


def _cnn_count(n, trunks, dims_out):
    channels = (1, *(c for trunk in trunks for c in trunk))
    convs = sum(a * b * Conv1D.KERNEL + b for a, b in zip(channels, channels[1:]))
    flat = channels[-1] * (n // 4 ** len(trunks))
    return convs + flat * dims_out + dims_out


def _rnn_count(n, hidden, dims_out):
    dims = (1, *hidden)
    cells = sum(len(LSTM.GATES) * (a * b + b * b + b) for a, b in zip(dims, dims[1:]))
    return cells + dims[-1] * dims_out + dims_out


def spec_param_count(spec):
    """``param_count(build(spec, seed))`` from the spec alone, without
    allocating a tensor: what a checkpoint must hold before it is built."""
    count = {"mlp": _mlp_count, "cnn": _cnn_count, "rnn": _rnn_count}[spec.family]
    return sum(count(n, widths, dims_out)
               for n, widths, dims_out, _ in _stack_plans(spec))


# Frames per tile of an inference forward. A 2048-frame block's temporaries
# are 4-16 MiB each and come from L3; a cnn tile of 64 frames or an rnn tile
# of 128 keeps them in a 2 MiB L2. An mlp's are small already, and its few
# gemms use every BLAS thread on the whole block, so it is not tiled.
INFERENCE_TILE = {"mlp": None, "cnn": 64, "rnn": 128}


def tile_slices(batch, tile):
    """Contiguous row slices that split ``batch`` frames into the fewest
    tiles of at most ``tile`` frames, near-equal as ``np.array_split``
    makes them. For ``tile >= 3`` no tile is a single frame unless the
    batch is, since a one-row product goes to gemv and changes the bits.
    """
    count = max(1, -(-batch // tile))
    size, extra = divmod(batch, count)
    bounds = list(accumulate([size + 1] * extra + [size] * (count - extra),
                             initial=0))
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _join(parts):
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class Model:
    """A built decoder (optionally with its residual denoiser)."""

    def __init__(self, spec, denoiser, decoder):
        self.spec = spec
        self.denoiser = denoiser
        self.decoder = decoder

    def params(self):
        return [p for _, p in self.named_params()]

    def named_params(self):
        out = []
        if self.denoiser is not None:
            out += self.denoiser.named_params(prefix="denoiser.")
        out += self.decoder.named_params(prefix="decoder.")
        return out

    def _check_input(self, y):
        y = np.asarray(y, dtype=np.float64)
        if y.ndim != 2 or y.shape[1] != self.spec.N:
            raise ValueError(f"expected (batch, {self.spec.N}), got {y.shape}")
        return y

    def forward(self, y, keep=False):
        """Returns ``(s_hat, u_soft)``; ``s_hat`` is None for NND variants.

        Only with ``keep`` do the layers keep what a backward needs; by
        default the model holds no activations afterwards, and the batch
        runs through the whole chain one tile of frames at a time.
        """
        y = self._check_input(y)
        if keep:
            return self._forward(y, keep)
        tiles = [self._forward(y[rows]) for rows in self._tiles(len(y))]
        return tuple(None if part[0] is None else _join(part)
                     for part in zip(*tiles))

    def denoise(self, y):
        """``s_hat`` alone, tiled as ``forward`` is."""
        if self.denoiser is None:
            raise ValueError(f"{self.spec.arch_name} has no denoiser stage")
        y = self._check_input(y)
        return _join([self._denoise(y[rows]) for rows in self._tiles(len(y))])

    def _tiles(self, batch):
        tile = INFERENCE_TILE[self.spec.family]
        return [slice(0, batch)] if tile is None else tile_slices(batch, tile)

    def _forward(self, y, keep=False):
        if self.denoiser is None:
            return None, self.decoder.forward(y, keep)
        s_hat = self._denoise(y, keep)
        return s_hat, self.decoder.forward(s_hat, keep)

    def _denoise(self, y, keep=False):
        return y + self.denoiser.forward(y, keep)

    def loss(self, y, s_true, u_true, compute_grads=False):
        """Multi-task loss for RNND, decoding loss for NND.

        With ``compute_grads`` the parameter gradients of this batch are
        left in the layers (previous gradients are cleared first).
        """
        u_true = np.asarray(u_true, dtype=np.float64)
        s_hat, u_soft = self.forward(y, keep=compute_grads)
        decode, d_u = mse_loss(u_soft, u_true, self.spec.K)
        if self.denoiser is None:
            if compute_grads:
                zero_grads(self.params())
                self.decoder.backward(d_u)
            return LossValues(total=decode, denoise=0.0, decode=decode)
        denoise, d_s = mse_loss(s_hat, np.asarray(s_true, dtype=np.float64),
                                self.spec.N)
        if compute_grads:
            zero_grads(self.params())
            d_s_total = d_s + self.decoder.backward(d_u)
            self.denoiser.backward(d_s_total)
        return LossValues(total=denoise + decode, denoise=denoise, decode=decode)


def build(spec, seed):
    """Construct a model with deterministic seeded initialization.

    Affine and conv weights are Glorot-uniform, LSTM weights uniform within
    +-1/sqrt(hidden), all biases zero; the draw order is fixed (denoiser
    stack first, then decoder, in layer order).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    denoiser, decoder = _build_stacks(spec, rng)
    return Model(spec, denoiser, decoder)


def hard_decision(u_soft):
    """Threshold soft bits at 0.5; exactly 0.5 rounds to 1."""
    return (np.asarray(u_soft) >= 0.5).astype(np.int64)
