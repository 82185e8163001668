"""Decoder model zoo: MLP / CNN / RNN families, each as a plain decoder
(NND) or with a residual denoiser in front (RNND).

The RNND forward is ``s_hat = y + H(y)`` followed by ``u_soft = G(s_hat)``;
its training loss is the sum of a denoising term ``||s_hat - s||^2 / N``
and a decoding term ``||u_soft - u||^2 / K``, both averaged over the batch.
The NND keeps the same trunk depth, drops the shortcut and the N-wide
bottleneck, and trains on the decoding term alone.
"""

import contextlib

import numpy as np
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from polarlab.nn import (
    Affine,
    Conv1D,
    LSTM,
    Layer,
    MaxPool1D,
    ReLU,
    Sequential,
    Sigmoid,
    blas_thread_count,
    blas_threads,
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


def _mlp_layers(n, hidden):
    """Affine and ReLU per hidden width; returns the layers and the width out."""
    dims = (n, *hidden)
    pairs = zip(dims, dims[1:])
    return [layer for a, b in pairs for layer in ((Affine, a, b), (ReLU,))], dims[-1]


def _cnn_layers(n, trunks):
    """One conv trunk per channel triple, in series; a trunk pools after its
    first two convs (length -> length/4)."""
    layers, c_in = [(AsChannels,)], 1
    for c1, c2, c3 in trunks:
        layers += [(Conv1D, c_in, c1), (ReLU,), (MaxPool1D,),
                   (Conv1D, c1, c2), (ReLU,), (MaxPool1D,),
                   (Conv1D, c2, c3), (ReLU,)]
        c_in = c3
    return layers + [(Flatten,)], c_in * (n // 4 ** len(trunks))


def _rnn_layers(n, hidden):
    """LSTMs in series, reading one symbol per step, so ``n`` sizes nothing."""
    dims = (1, *hidden)
    return ([(AsSequence,), *((LSTM, a, b) for a, b in zip(dims, dims[1:])),
             (TakeLast,)], dims[-1])


def _stack_layers(spec):
    """The layer plan of each stack, denoiser first: one ``(layer class,
    *dims)`` per layer, with no dims for a layer without parameters. Each
    stack closes with an Affine, squashed into (0, 1) on the decoding stack.

    An NND runs the RNND's denoiser and decoder trunks in series as one
    stack, without the shortcut and without the N-wide bottleneck.
    """
    den, dec = {
        "mlp": (spec.mlp_hidden, spec.mlp_hidden),
        "cnn": ((spec.cnn_denoiser_channels,), (spec.cnn_decoder_channels,)),
        "rnn": ((spec.rnn_denoiser_hidden,), (spec.rnn_decoder_hidden,)),
    }[spec.family]
    trunk = {"mlp": _mlp_layers, "cnn": _cnn_layers, "rnn": _rnn_layers}[spec.family]
    stacks = ([(den, spec.N, []), (dec, spec.K, [(Sigmoid,)])] if spec.variant == "rnnd"
              else [(den + dec, spec.K, [(Sigmoid,)])])
    plans = []
    for widths, dims_out, squash in stacks:
        layers, width = trunk(spec.N, widths)
        plans.append(layers + [(Affine, width, dims_out)] + squash)
    return plans


# parameter count of each layer class with parameters, from its plan dims
_PARAMS = {
    Affine: lambda n_in, n_out: (n_in + 1) * n_out,
    Conv1D: lambda c_in, c_out: (c_in * Conv1D.KERNEL + 1) * c_out,
    LSTM: lambda n_in, h: len(LSTM.GATES) * (n_in + h + 1) * h,
}


def spec_param_count(spec):
    """``param_count(build(spec, seed))`` from the spec alone, without
    allocating a tensor: what a checkpoint must hold before it is built."""
    return sum(_PARAMS[cls](*dims) for plan in _stack_layers(spec)
               for cls, *dims in plan if dims)


# Frames per tile of an inference forward, each the fastest size of those
# timed for a 2048-frame forward on a 2-core AVX-512 Xeon, sizes alternating
# in one process, 30-40 forwards each. A block's temporaries are 4-16 MiB
# each and come from L3; a tile's stay within a 2 MiB L2. rnn: 256 beat 128
# by 7-8% in 72 of 80 forwards (nnd and rnnd), and 512 beat 256 in 24 of
# 60. cnn: 128 beat 64 by 11-19% in 69 of 80, and 256 beat 128 in 12 of 60.
# mlp: its tiles are small already, and 1024 gives a 2048-frame block a tile
# for each of two threads; 512 gained 1.4% on the eval-serial mlp lane,
# within its noise.
INFERENCE_TILE = {"mlp": 1024, "cnn": 128, "rnn": 256}


class Model:
    """A built decoder (optionally with its residual denoiser)."""

    def __init__(self, spec, denoiser, decoder):
        self.spec = spec
        self.denoiser = denoiser
        self.decoder = decoder

    def params(self):
        """The ``Param`` of each ``named_params`` entry, in the same order,
        without building the names."""
        out = [] if self.denoiser is None else self.denoiser.params()
        return out + self.decoder.params()

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

        Only with ``keep`` do the layers keep what a backward needs, and
        then the batch runs whole on the calling thread. By default the
        model holds no activations afterwards, and each tile of frames runs
        through the denoiser, the shortcut add and the decoder in one pass
        (``_tiled``).
        """
        y = self._check_input(y)
        return self._pass(y, keep) if keep else self._tiled(self._pass, y)

    def denoise(self, y):
        """``s_hat`` alone, tiled as ``forward`` is."""
        if self.denoiser is None:
            raise ValueError(f"{self.spec.arch_name} has no denoiser stage")
        return self._tiled(lambda tile: (self._denoise(tile),), self._check_input(y))[0]

    def _denoise(self, y, keep=False):
        return y + self.denoiser.forward(y, keep)

    def _pass(self, y, keep=False):
        """``(s_hat, u_soft)`` of ``y`` through the whole model."""
        s_hat = None if self.denoiser is None else self._denoise(y, keep)
        return s_hat, self.decoder.forward(y if s_hat is None else s_hat, keep)

    def _tiled(self, per_tile, y):
        """The outputs of ``per_tile`` (a tuple of arrays or Nones per
        tile), each joined in tile order over the fewest ``np.array_split``
        parts of ``y`` of at most ``INFERENCE_TILE`` rows: for a tile of 3
        or more none is a single frame unless the batch is, as a one-row
        product goes to gemv and changes the bits.

        Tiles run at one BLAS thread, as their gemms are too small to split,
        on as many Python threads as the process had BLAS threads on entry
        (at most one per tile): the calling thread runs the first contiguous
        run of tiles and each helper of a pool made for this call, only if
        there is a second run, one more. A tile goes through every stack on
        the thread that runs it, so a forward makes one pool at most. numpy
        drops the GIL in its kernels, so the threads overlap, and a tile's
        bits do not depend on the thread that runs it. The pool does not
        outlive the call, as ``ber --workers`` forks this process and a fork
        with live threads is unsafe."""
        tile = INFERENCE_TILE[self.spec.family]
        tiles = np.array_split(y, max(1, -(-len(y) // tile)))
        per_thread = -(-len(tiles) // min(blas_thread_count(), len(tiles)))
        first, *rest = [tiles[i:i + per_thread]
                        for i in range(0, len(tiles), per_thread)]

        def run(part):
            return [per_tile(t) for t in part]

        pool = ThreadPoolExecutor(len(rest)) if rest else contextlib.nullcontext()
        with blas_threads(1), pool as helpers:
            pending = [helpers.submit(run, part) for part in rest]
            outs = run(first)
            for done in pending:
                outs += done.result()
        return tuple(None if parts[0] is None else np.concatenate(parts)
                     for parts in zip(*outs))

    def loss(self, y, s_true, u_true, compute_grads=False):
        """Multi-task loss for RNND, decoding loss for NND.

        With ``compute_grads`` the parameter gradients of this batch are
        left in the layers (previous gradients are cleared first).
        """
        s_hat, u_soft = self.forward(y, keep=compute_grads)
        decode, d_u = mse_loss(u_soft, u_true, self.spec.K)
        denoise, d_s = ((0.0, 0.0) if s_hat is None
                        else mse_loss(s_hat, s_true, self.spec.N))
        if compute_grads:
            zero_grads(self.params())
            d_y = self.decoder.backward(d_u)
            if self.denoiser is not None:
                self.denoiser.backward(d_s + d_y)
        return LossValues(total=denoise + decode, denoise=denoise, decode=decode)


def build(spec, seed):
    """Construct a model with deterministic seeded initialization.

    Affine and conv weights are Glorot-uniform, LSTM weights uniform within
    +-1/sqrt(hidden), all biases zero; the draw order is fixed (denoiser
    stack first, then decoder, in layer order).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    *denoiser, decoder = [
        Sequential([cls(*dims, rng) if dims else cls() for cls, *dims in plan])
        for plan in _stack_layers(spec)]
    return Model(spec, denoiser[0] if denoiser else None, decoder)


def hard_decision(u_soft):
    """Threshold soft bits at 0.5; exactly 0.5 rounds to 1."""
    return (np.asarray(u_soft) >= 0.5).astype(np.int64)
