"""Codec tests.

The construction and encoder tests check against two independent oracles:
an exact erasure-channel enumeration (reliability parameters computed by
brute force over all erasure patterns) and the explicit generator matrix
built from Kronecker powers. Expected values derived from those oracles
are also frozen inline as regression fixtures.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from polarlab.polar import (
    PolarCode,
    awgn_channel,
    bhattacharyya_bounds,
    bit_reversal_permutation,
    bpsk_modulate,
    channel_llr,
    construct_code,
    ebn0_to_sigma,
    encode,
    polar_transform,
    sc_decode,
    sc_decode_batch,
)

# Frozen from the erasure-channel enumeration oracle below (exact at N=8)
# and from the doubling recursion at N=16 (minimum pairwise gap 6.87e-3,
# so the selection is tie-free).
Z8_EXPECTED = [0.99609375, 0.87890625, 0.80859375, 0.31640625,
               0.68359375, 0.19140625, 0.12109375, 0.00390625]
INFO_SET_16_8 = (7, 9, 10, 11, 12, 13, 14, 15)


def generator_matrix(N):
    """Oracle: explicit ``B F^{kron n}`` over GF(2)."""
    F = np.array([[1, 0], [1, 1]], dtype=np.int64)
    G = np.array([[1]], dtype=np.int64)
    for _ in range(N.bit_length() - 1):
        G = np.kron(G, F)
    B = np.zeros((N, N), dtype=np.int64)
    for i, r in enumerate(bit_reversal_permutation(N)):
        B[i, r] = 1
    return (B @ G) % 2


def erasure_unreliability(N):
    """Oracle: P(message bit i not recoverable) on an erasure channel.

    Enumerates all 2^N equiprobable erasure patterns. Bit i is recoverable
    from the surviving codeword positions and the already-decoded prefix
    iff the first unit vector lies in the column space of the surviving
    columns of G restricted to rows i..N-1, checked by GF(2) elimination.
    """
    G = generator_matrix(N)
    z = np.zeros(N)
    for i in range(N):
        rows = G[i:, :]
        lost = 0
        for pattern in itertools.product((0, 1), repeat=N):
            basis = []
            for j in range(N):
                if pattern[j]:
                    continue
                v = 0
                for r in range(N - i):
                    if rows[r, j]:
                        v |= 1 << r
                for b in basis:
                    v = min(v, v ^ b)
                if v:
                    basis.append(v)
            t = 1
            for b in basis:
                t = min(t, t ^ b)
            if t:
                lost += 1
        z[i] = lost / 2.0 ** N
    return z


# ---------------------------------------------------------------- construction

@pytest.mark.parametrize("N", [2, 4, 8])
def test_bhattacharyya_matches_erasure_enumeration(N):
    np.testing.assert_allclose(bhattacharyya_bounds(N), erasure_unreliability(N),
                               atol=1e-12)


def test_bhattacharyya_frozen_values_n8():
    np.testing.assert_allclose(bhattacharyya_bounds(8), Z8_EXPECTED, atol=1e-12)


def test_construct_16_8_info_set():
    code = construct_code(16, 8)
    assert code.info_set == INFO_SET_16_8
    assert code.frozen_set == (0, 1, 2, 3, 4, 5, 6, 8)


def test_construct_2_1_info_set():
    assert construct_code(2, 1).info_set == (1,)


def test_construct_partitions_and_sorted():
    for N, K in [(4, 2), (8, 5), (16, 8), (32, 20)]:
        code = construct_code(N, K)
        assert len(code.info_set) == K
        assert sorted(code.info_set + code.frozen_set) == list(range(N))
        assert list(code.info_set) == sorted(code.info_set)
        assert list(code.frozen_set) == sorted(code.frozen_set)


def test_construct_deterministic():
    assert construct_code(16, 8) == construct_code(16, 8)


def test_code_index_arrays_are_built_once_and_read_only():
    # every SC decode and encode reads them, so they are shared, not rebuilt
    code = construct_code(16, 8)
    for get in (lambda: bit_reversal_permutation(16), lambda: code.info_index,
                lambda: code.frozen_mask):
        a = get()
        assert get() is a and not a.flags.writeable
    assert code.info_index.tolist() == list(INFO_SET_16_8)
    assert np.flatnonzero(code.frozen_mask).tolist() == list(code.frozen_set)


def test_construct_rejects_bad_shapes():
    with pytest.raises(ValueError):
        construct_code(12, 4)
    with pytest.raises(ValueError):
        construct_code(16, 17)
    with pytest.raises(ValueError):
        construct_code(16, 0)


# -------------------------------------------------------------------- encoding

def test_transform_matches_matrix_oracle():
    rng = np.random.default_rng(7)
    for N in (2, 4, 8, 16):
        G = generator_matrix(N)
        u = rng.integers(0, 2, size=(5, N))
        np.testing.assert_array_equal(polar_transform(u), (u @ G) % 2)


def test_unit_vector_encodes_to_matrix_row():
    # frozen fixture: row 0 of the N=4 generator matrix
    code = construct_code(4, 4)
    np.testing.assert_array_equal(encode(code, [1, 0, 0, 0]), [1, 0, 0, 0])
    G = generator_matrix(4)
    for i in range(4):
        e = np.eye(4, dtype=np.int64)[i]
        np.testing.assert_array_equal(encode(code, e), G[i])


_SEED = st.integers(0, 2**32 - 1)


@st.composite
def _codes(draw):
    """A code of length N = 2..1024 with any 1 <= K <= N."""
    N = 2 ** draw(st.integers(1, 10))
    return construct_code(N, draw(st.integers(1, N)))


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 10), frames=st.integers(1, 4), seed=_SEED)
def test_transform_is_involution(m, frames, seed):
    u = np.random.default_rng(seed).integers(0, 2, size=(frames, 2 ** m))
    np.testing.assert_array_equal(polar_transform(polar_transform(u)), u)


@settings(max_examples=100, deadline=None)
@given(code=_codes(), seed=_SEED)
def test_encode_is_linear(code, seed):
    a, b = np.random.default_rng(seed).integers(0, 2, size=(2, 4, code.K))
    np.testing.assert_array_equal(encode(code, a ^ b),
                                  encode(code, a) ^ encode(code, b))


@settings(max_examples=100, deadline=None)
@given(code=_codes(), frames=st.integers(1, 4),
       sigma=st.sampled_from([0.1, 0.5, 1.0]), seed=_SEED)
def test_sc_decodes_noiseless_codewords(code, frames, sigma, seed):
    # without noise every channel LLR has the sign of its code bit, so each
    # SC decision is right given the earlier ones and SC returns the message
    u = np.random.default_rng(seed).integers(0, 2, size=(frames, code.K))
    y = bpsk_modulate(encode(code, u))
    np.testing.assert_array_equal(sc_decode_batch(code, y, sigma), u)


def test_encode_scatters_frozen_zeros():
    code = construct_code(16, 8)
    x = encode(code, np.zeros(8, dtype=np.int64))
    np.testing.assert_array_equal(x, np.zeros(16, dtype=np.int64))


def test_encode_rejects_bad_input():
    code = construct_code(16, 8)
    with pytest.raises(ValueError):
        encode(code, np.zeros(7, dtype=np.int64))
    with pytest.raises(ValueError):
        encode(code, np.array([0, 1, 2, 0, 0, 0, 0, 0]))


def _bit_like(dtype, values):
    return arrays(dtype, st.tuples(st.integers(1, 6), st.just(8)),
                  elements=st.sampled_from(values))


@settings(max_examples=300, deadline=None)
@given(bits=st.one_of(
    _bit_like(np.int64, [0, 1, 2, -1]), _bit_like(np.int8, [0, 1, -1]),
    _bit_like(bool, [False, True]),
    _bit_like(np.float64, [0.0, -0.0, 1.0, 0.5, 2.0, float("nan"), float("inf")])))
def test_bit_checks_match_isin_reference(bits):
    # the codec's 0/1 check accepts exactly what np.isin(bits, (0, 1)) does
    code = construct_code(16, 8)
    ok = bool(np.isin(bits, (0, 1)).all())
    for check in (lambda: encode(code, bits), lambda: bpsk_modulate(bits)):
        if ok:
            check()
        else:
            with pytest.raises(ValueError, match="0/1"):
                check()


# --------------------------------------------------------------------- channel

def test_bpsk_mapping():
    np.testing.assert_array_equal(bpsk_modulate(np.array([0, 1, 0])),
                                  [1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        bpsk_modulate(np.array([0, 2]))


def test_ebn0_to_sigma():
    assert ebn0_to_sigma(0.0, 0.5) == pytest.approx(1.0, abs=1e-15)
    expected = np.sqrt(1.0 / (2.0 * 0.5 * 10.0 ** 0.3))
    assert ebn0_to_sigma(3.0, 0.5) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(ValueError):
        ebn0_to_sigma(0.0, 0.0)


@pytest.mark.parametrize("ebn0_db",
                         [4000.0, 1e308, -1e308, -3090.0, np.nan, 3080.0])
def test_ebn0_to_sigma_refuses_values_without_usable_sigma(ebn0_db):
    # 10 ** (ebn0_db / 10) overflows, underflows to zero, or leaves
    # 1 / (2 R Eb/N0) past the largest float; at 3080 dB sigma is a
    # positive 1e-154, but the LLR scale 2 / sigma^2 overflows
    with pytest.raises(ValueError, match="no positive finite noise sigma"):
        ebn0_to_sigma(ebn0_db, 0.5)


def test_awgn_seeded_reproducibility():
    s = bpsk_modulate(np.zeros(64, dtype=np.int64))
    y1 = awgn_channel(s, 0.8, np.random.default_rng(42))
    y2 = awgn_channel(s, 0.8, np.random.default_rng(42))
    np.testing.assert_array_equal(y1, y2)


def test_awgn_moments():
    rng = np.random.default_rng(0)
    sigma = 0.7
    n = 1_000_000
    noise = awgn_channel(np.zeros(n), sigma, rng)
    assert abs(noise.mean()) < 4.0 * sigma / np.sqrt(n)
    assert noise.var() == pytest.approx(sigma * sigma, rel=0.01)


def test_awgn_zero_sigma_is_identity():
    s = bpsk_modulate(np.array([0, 1, 1, 0]))
    np.testing.assert_array_equal(awgn_channel(s, 0.0, np.random.default_rng(1)), s)


def test_channel_llr_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        channel_llr(np.zeros(4), 0.0)
    with pytest.raises(ValueError):
        sc_decode(construct_code(4, 2), np.zeros(4), -1.0)


# ------------------------------------------------------------------ SC decoding

def test_sc_hand_case_n2():
    # (2,1): message bit rides the more reliable second channel; with
    # y = [+3, +3] the upgraded-channel LLR is 6 + 6 = 12 > 0, so bit 0.
    code = construct_code(2, 1)
    np.testing.assert_array_equal(sc_decode(code, np.array([3.0, 3.0]), 1.0), [0])


def test_sc_decodes_all_noiseless_codewords_16_8():
    code = construct_code(16, 8)
    msgs = np.array([[(m >> (7 - j)) & 1 for j in range(8)] for m in range(256)])
    y = bpsk_modulate(encode(code, msgs))
    np.testing.assert_array_equal(sc_decode_batch(code, y, 1.0), msgs)


@pytest.mark.parametrize("N,K", [(4, 2), (8, 4), (32, 16)])
def test_sc_noiseless_random_codewords(N, K):
    rng = np.random.default_rng(N)
    code = construct_code(N, K)
    msgs = rng.integers(0, 2, size=(50, K))
    y = bpsk_modulate(encode(code, msgs))
    np.testing.assert_array_equal(sc_decode_batch(code, y, 0.6), msgs)


def _sc_ber(code, ebn0_db, frames, seed):
    rng = np.random.default_rng(seed)
    sigma = ebn0_to_sigma(ebn0_db, code.rate)
    errors = 0
    for _ in range(frames // 10_000):
        msgs = rng.integers(0, 2, size=(10_000, code.K))
        y = awgn_channel(bpsk_modulate(encode(code, msgs)), sigma, rng)
        errors += int((sc_decode_batch(code, y, sigma) != msgs).sum())
    return errors / (frames * code.K)


def test_sc_ber_decreases_with_snr():
    code = construct_code(16, 8)
    bers = [_sc_ber(code, ebn0, 100_000, seed=5) for ebn0 in (0.0, 2.0, 4.0)]
    assert bers[0] > bers[1] > bers[2] > 0.0


def test_sc_single_frame_matches_batch():
    code = construct_code(16, 8)
    rng = np.random.default_rng(9)
    msgs = rng.integers(0, 2, size=(20, 8))
    y = awgn_channel(bpsk_modulate(encode(code, msgs)), 0.9, rng)
    batch = sc_decode_batch(code, y, 0.9)
    for i in range(20):
        np.testing.assert_array_equal(sc_decode(code, y[i], 0.9), batch[i])


def test_sc_rejects_bad_shape():
    code = construct_code(16, 8)
    with pytest.raises(ValueError):
        sc_decode(code, np.zeros(8), 1.0)


def test_llr_clamp_keeps_values_finite():
    code = construct_code(16, 8)
    y = bpsk_modulate(encode(code, np.ones(8, dtype=np.int64)))
    # tiny sigma drives raw channel LLRs to +-2e6; decode must stay finite
    got = sc_decode(code, y, 1e-3)
    np.testing.assert_array_equal(got, np.ones(8, dtype=np.int64))
