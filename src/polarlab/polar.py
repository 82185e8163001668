"""Polar codec over a BPSK/AWGN chain.

Conventions used throughout:

* message index 0 is the first synthetic channel; frozen positions carry 0
* the encoder computes ``x = u B F`` where ``F`` is the n-fold Kronecker
  power of ``[[1, 0], [1, 1]]`` and ``B`` is the bit-reversal permutation;
  it places the message bits at their bit-reversed positions (``u B``) and
  runs the butterfly network (``F``) in place
* BPSK maps bit 0 to +1.0 and bit 1 to -1.0
* channel LLRs are ``2 y / sigma^2``; positive LLR favours bit 0
"""

import functools
import math

import numpy as np
from dataclasses import dataclass

# SC f-function inputs are clamped here so arctanh stays finite.
LLR_CLAMP = 30.0

# Kinds of node in the SC decoding tree (``PolarCode.sc_tree``).
RATE0, RATE1, REP, SPLIT = "rate-0", "rate-1", "rep", "split"


@dataclass(frozen=True)
class PolarCode:
    """A polar code of length ``N`` with ``K`` information positions.

    ``info_set`` and ``frozen_set`` are ascending tuples of message indices
    that partition ``range(N)``. Their array forms and the SC decoding
    tree are built on first use and are read-only.
    """

    N: int
    K: int
    info_set: tuple
    frozen_set: tuple

    @property
    def rate(self):
        return self.K / self.N

    @functools.cached_property
    def info_index(self):
        """``info_set`` as an int64 index array."""
        return _read_only(np.array(self.info_set, dtype=np.int64))

    @functools.cached_property
    def frozen_mask(self):
        """Length-``N`` boolean array, true at the frozen positions."""
        mask = np.zeros(self.N, dtype=bool)
        mask[list(self.frozen_set)] = True
        return _read_only(mask)

    @functools.cached_property
    def sc_tree(self):
        """The SC decoding tree, as nested tuples ``(kind, size)`` and
        ``(SPLIT, size, left, right)``. A node covers ``size`` consecutive
        message positions: ``RATE0`` all frozen, ``RATE1`` none frozen,
        ``REP`` only the last one free, ``SPLIT`` anything else."""
        return _sc_node(self.frozen_mask)


def _sc_node(frozen):
    size = len(frozen)
    if frozen.all():
        return (RATE0, size)
    if not frozen.any():
        return (RATE1, size)
    if frozen[:-1].all():
        return (REP, size)
    return (SPLIT, size, _sc_node(frozen[:size // 2]), _sc_node(frozen[size // 2:]))


def _read_only(a):
    a.flags.writeable = False
    return a


def check_block_length(N):
    """Raise ``ValueError`` unless ``N`` is a power of two."""
    if N < 1 or N & (N - 1):
        raise ValueError(f"block length N must be a power of two, got {N}")


@functools.cache
def bit_reversal_permutation(N):
    """Permutation ``p`` with ``p[i]`` = ``i`` with its n address bits reversed.

    Built once per ``N``; every call returns the same read-only array.
    """
    check_block_length(N)
    perm = np.zeros(1, dtype=np.int64)
    while len(perm) < N:
        # a new top address bit of i becomes the lowest bit of its reversal
        perm = np.concatenate([2 * perm, 2 * perm + 1])
    return _read_only(perm)


def bhattacharyya_bounds(N):
    """Synthetic-channel unreliability parameters in natural message order.

    Starts from 0.5 at the root and doubles with ``z -> (2z - z^2, z^2)``;
    smaller means more reliable.
    """
    check_block_length(N)
    z = np.array([0.5])
    while len(z) < N:
        nxt = np.empty(2 * len(z))
        nxt[0::2] = 2.0 * z - z * z
        nxt[1::2] = z * z
        z = nxt
    return z


def construct_code(N, K):
    """Pick the ``K`` most reliable synthetic channels as the information set.

    Ties in the reliability parameter break toward the lower index.

    Parameters
    ----------
    N : int
        Block length, a power of two.
    K : int
        Number of information bits, ``1 <= K <= N``.

    Returns
    -------
    PolarCode
    """
    check_block_length(N)
    if not 1 <= K <= N:
        raise ValueError(f"need 1 <= K <= N, got K={K}, N={N}")
    z = bhattacharyya_bounds(N)
    order = np.argsort(z, kind="stable")
    info = np.sort(order[:K])
    frozen = np.sort(order[K:])
    return PolarCode(N=N, K=K, info_set=tuple(int(i) for i in info),
                     frozen_set=tuple(int(i) for i in frozen))


def _butterfly(x):
    """Apply ``F``, its own inverse, in place along the first axis of the
    C-contiguous int array ``x``: each XOR pairs two runs of frames."""
    N = x.shape[0]
    h = 1
    while h < N:
        v = x.reshape(N // (2 * h), 2, h * (x.size // N))
        v[:, 0] ^= v[:, 1]
        h *= 2
    return x


def _all_binary(bits):
    """True if every element equals 0 or 1. Two comparisons, not ``np.isin``,
    which sorts: the Monte-Carlo loop checks every block it draws."""
    return bool(((bits == 0) | (bits == 1)).all())


def encode(code, info_bits):
    """Scatter ``info_bits`` into the information set and polar-transform.

    Parameters
    ----------
    code : PolarCode
    info_bits : array_like
        0/1 array whose last axis has length ``code.K``; leading axes are
        treated as a batch.

    Returns
    -------
    ndarray
        Codeword bits, same leading shape with last axis ``code.N``.
    """
    info_bits = np.asarray(info_bits)
    if info_bits.shape[-1] != code.K:
        raise ValueError(f"info_bits must have length {code.K}, got {info_bits.shape[-1]}")
    if not _all_binary(info_bits):
        raise ValueError("info_bits must be 0/1 valued")
    # x = u B F = (u B) F: each bit goes to its bit-reversed position
    x = np.zeros((code.N,) + info_bits.shape[-2::-1], dtype=np.int64)
    x[bit_reversal_permutation(code.N)[code.info_index]] = info_bits.T
    # a column-major view: a row-major copy costs a pass and made training,
    # which slices rows of the codebook, about 2% slower
    return _butterfly(x).T


def bpsk_modulate(bits):
    """Map bits {0, 1} to symbols {+1.0, -1.0}."""
    bits = np.asarray(bits)
    if not _all_binary(bits):
        raise ValueError("bpsk_modulate expects 0/1 input")
    return 1.0 - 2.0 * bits.astype(np.float64)


def ebn0_to_sigma(ebn0_db, rate):
    """Noise standard deviation for a given Eb/N0 (dB) at code rate ``rate``.

    Raises ``ValueError`` if the result is not a positive finite number,
    as happens for an Eb/N0 beyond about +-3080 dB, or if the channel LLR
    scale ``2 / sigma^2`` is not finite, as at rate 1/2 from 3080 dB up.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    try:
        sigma = float(np.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))))
    except (OverflowError, ZeroDivisionError):
        sigma = float("nan")
    if not (0.0 < sigma < float("inf") and 2.0 / (sigma * sigma) < float("inf")):
        raise ValueError(f"Eb/N0 of {ebn0_db} dB gives no positive finite noise "
                         f"sigma and LLR scale at rate {rate}")
    return sigma


def awgn_channel(symbols, sigma, rng):
    """Add i.i.d. Gaussian noise of standard deviation ``sigma``."""
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    symbols = np.asarray(symbols, dtype=np.float64)
    return symbols + sigma * rng.standard_normal(symbols.shape)


def channel_llr(y, sigma):
    """BPSK LLRs through AWGN of deviation ``sigma``, ``2 y / sigma**2``
    rounded once; an overflow of that value is infinite.

    ``y`` is divided by half the noise variance, so no ``2 * y`` can
    overflow on the way to a finite LLR; halving a variance above 2**-1021
    (any sigma above 2.2e-154) is exact, so the one rounding is that of
    the quotient."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    with np.errstate(over="ignore"):
        return np.asarray(y, dtype=np.float64) / (sigma * sigma / 2.0)


def _boxplus(a, b):
    t = np.tanh(np.clip(a, -LLR_CLAMP, LLR_CLAMP) / 2.0)
    t *= np.tanh(np.clip(b, -LLR_CLAMP, LLR_CLAMP) / 2.0)
    return 2.0 * np.arctanh(t)


def _rate1_min_llr(size):
    """Least |LLR| at which a rate-1 node of ``size`` leaves takes the hard
    decision of its LLRs.

    Inside a rate-1 node SC's decisions re-encode to the hard decision of
    the node's LLRs as long as no f-value is zero: each f then has the sign
    product of its inputs, so each g = b + sign(a b) a = sign(b) (|a| + |b|)
    keeps the sign of b. Let theta = tanh(bound / 2) and every node LLR
    have tanh(min(|llr|, LLR_CLAMP) / 2) >= theta. A left child gets
    tanh(|f| / 2) = t_a t_b (up to rounding) and a right child
    tanh(|g| / 2) >= t_b, so every value at depth d keeps
    tanh(|.| / 2) >= theta^(2^d) >= theta^size. The bound sets
    theta^size = 2^-1000: every tanh, product and arctanh stays a normal
    double, 2^22 above the smallest, so no rounding takes one to a signed
    zero. An exact 0 or a NaN fails the bound too.
    """
    return 2.0 * math.atanh(2.0 ** (-1000.0 / size))


def _sc_node_decode(node, llr):
    """SC decisions of one tree node for natural-order LLR rows ``llr``,
    returned as their butterfly re-encoding ``x_hat = u_hat F`` (no output
    permutation); ``u_hat`` is ``x_hat F`` again."""
    kind, size = node[:2]
    if kind == RATE0:
        return np.zeros(llr.shape, dtype=np.int64)
    if kind == REP:
        # every g above the free leaf is b + a, added in SC's order
        with np.errstate(invalid="ignore"):
            while llr.shape[1] > 1:
                llr = llr[:, llr.shape[1] // 2:] + llr[:, :llr.shape[1] // 2]
        return np.repeat((llr < 0).astype(np.int64), size, axis=1)
    if kind == RATE1:
        x = (llr < 0).astype(np.int64)
        if size > 1:
            far = np.abs(llr) >= _rate1_min_llr(size)
            if not far.all():
                # rows that could reach a zero f-value take SC's own recursion
                near = ~far.all(axis=1)
                half = (RATE1, size // 2)
                x[near] = _sc_node_decode((SPLIT, size, half, half), llr[near])
        return x
    half = size // 2
    x_left = _sc_node_decode(node[2], _boxplus(llr[:, :half], llr[:, half:]))
    # opposite infinities add to NaN in g, which SC decides as bit 0, as a tie
    with np.errstate(invalid="ignore"):
        llr_right = llr[:, half:] + (1 - 2 * x_left) * llr[:, :half]
    x_right = _sc_node_decode(node[3], llr_right)
    return np.concatenate([x_left ^ x_right, x_right], axis=1)


def sc_decode_batch(code, y, sigma):
    """Successive-cancellation decode a batch of received vectors.

    Parameters
    ----------
    code : PolarCode
    y : ndarray
        Received symbols, shape ``(frames, N)``.
    sigma : float
        Channel noise standard deviation, must be positive.

    Returns
    -------
    ndarray
        Decoded information bits, shape ``(frames, K)``.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != code.N:
        raise ValueError(f"y must have shape (frames, {code.N}), got {y.shape}")
    llr = channel_llr(y, sigma)[:, bit_reversal_permutation(code.N)]
    x_hat = np.ascontiguousarray(_sc_node_decode(code.sc_tree, llr).T)
    return _butterfly(x_hat)[code.info_index].T


def sc_decode(code, y, sigma):
    """Successive-cancellation decode one received vector of length ``N``."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (code.N,):
        raise ValueError(f"y must have shape ({code.N},), got {y.shape}")
    return sc_decode_batch(code, y[None, :], sigma)[0]
