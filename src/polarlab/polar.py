"""Polar codec over a BPSK/AWGN chain.

Conventions used throughout:

* message index 0 is the first synthetic channel; frozen positions carry 0
* the encoder computes ``x = u B F`` where ``F`` is the n-fold Kronecker
  power of ``[[1, 0], [1, 1]]`` and ``B`` is the bit-reversal permutation;
  ``B`` commutes with ``F``, so this is implemented as a butterfly network
  followed by an output permutation
* BPSK maps bit 0 to +1.0 and bit 1 to -1.0
* channel LLRs are ``2 y / sigma^2``; positive LLR favours bit 0
"""

import functools

import numpy as np
from dataclasses import dataclass

# SC f-function inputs are clamped here so arctanh stays finite.
LLR_CLAMP = 30.0


@dataclass(frozen=True)
class PolarCode:
    """A polar code of length ``N`` with ``K`` information positions.

    ``info_set`` and ``frozen_set`` are ascending tuples of message indices
    that partition ``range(N)``. Their array forms are built on first use
    and are read-only.
    """

    N: int
    K: int
    info_set: tuple
    frozen_set: tuple

    @property
    def n(self):
        return self.N.bit_length() - 1

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


def _read_only(a):
    a.flags.writeable = False
    return a


def _check_block_length(N):
    if N < 1 or (N & (N - 1)) != 0:
        raise ValueError(f"block length must be a power of two, got {N}")


@functools.cache
def bit_reversal_permutation(N):
    """Permutation ``p`` with ``p[i]`` = ``i`` with its n address bits reversed.

    Built once per ``N``; every call returns the same read-only array.
    """
    _check_block_length(N)
    n = N.bit_length() - 1
    perm = np.zeros(N, dtype=np.int64)
    for i in range(N):
        r = 0
        for b in range(n):
            if (i >> b) & 1:
                r |= 1 << (n - 1 - b)
        perm[i] = r
    return _read_only(perm)


def bhattacharyya_bounds(N):
    """Synthetic-channel unreliability parameters in natural message order.

    Starts from 0.5 at the root and doubles with ``z -> (2z - z^2, z^2)``;
    smaller means more reliable.
    """
    _check_block_length(N)
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
    _check_block_length(N)
    if not 1 <= K <= N:
        raise ValueError(f"need 1 <= K <= N, got K={K}, N={N}")
    z = bhattacharyya_bounds(N)
    order = np.argsort(z, kind="stable")
    info = np.sort(order[:K])
    frozen = np.sort(order[K:])
    return PolarCode(N=N, K=K, info_set=tuple(int(i) for i in info),
                     frozen_set=tuple(int(i) for i in frozen))


def polar_transform(bits):
    """Apply ``x = v B F`` to the last axis of a 0/1 array.

    The transform is an involution: applying it twice returns the input.
    """
    bits = np.asarray(bits)
    N = bits.shape[-1]
    _check_block_length(N)
    x = bits.astype(np.int64)
    h = 1
    while h < N:
        x = x.reshape(x.shape[:-1] + (N // (2 * h), 2, h))
        x[..., 0, :] ^= x[..., 1, :]
        x = x.reshape(x.shape[:-3] + (N,))
        h *= 2
    return x[..., bit_reversal_permutation(N)]


def _all_binary(bits):
    """True if every element equals 0 or 1. Two comparisons, not ``np.isin``,
    which sorts: the Monte-Carlo loop checks every block it draws."""
    return bool(((bits == 0) | (bits == 1)).all())


def _validate_bits(bits, length, what):
    bits = np.asarray(bits)
    if bits.shape[-1] != length:
        raise ValueError(f"{what} must have length {length}, got {bits.shape[-1]}")
    if not _all_binary(bits):
        raise ValueError(f"{what} must be 0/1 valued")
    return bits.astype(np.int64)


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
    info_bits = _validate_bits(info_bits, code.K, "info_bits")
    u = np.zeros(info_bits.shape[:-1] + (code.N,), dtype=np.int64)
    u[..., code.info_index] = info_bits
    return polar_transform(u)


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
    """LLRs of BPSK symbols observed through AWGN with deviation ``sigma``."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return 2.0 * np.asarray(y, dtype=np.float64) / (sigma * sigma)


def _boxplus(a, b):
    t = np.tanh(np.clip(a, -LLR_CLAMP, LLR_CLAMP) / 2.0)
    t *= np.tanh(np.clip(b, -LLR_CLAMP, LLR_CLAMP) / 2.0)
    return 2.0 * np.arctanh(t)


def _sc_recurse(llr, frozen):
    """Batched SC recursion on natural-order LLRs.

    Returns ``(u_hat, x_hat)`` where ``x_hat`` is the re-encoding of
    ``u_hat`` under the butterfly (no output permutation).
    """
    M = llr.shape[1]
    if M == 1:
        if frozen[0]:
            u = np.zeros(llr.shape[0], dtype=np.int64)
        else:
            u = (llr[:, 0] < 0).astype(np.int64)
        u = u[:, None]
        return u, u
    half = M // 2
    u_left, x_left = _sc_recurse(_boxplus(llr[:, :half], llr[:, half:]),
                                 frozen[:half])
    llr_right = llr[:, half:] + (1 - 2 * x_left) * llr[:, :half]
    u_right, x_right = _sc_recurse(llr_right, frozen[half:])
    return (np.concatenate([u_left, u_right], axis=1),
            np.concatenate([x_left ^ x_right, x_right], axis=1))


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
    u_hat, _ = _sc_recurse(llr, code.frozen_mask)
    return u_hat[:, code.info_index]


def sc_decode(code, y, sigma):
    """Successive-cancellation decode one received vector of length ``N``."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (code.N,):
        raise ValueError(f"y must have shape ({code.N},), got {y.shape}")
    return sc_decode_batch(code, y[None, :], sigma)[0]
