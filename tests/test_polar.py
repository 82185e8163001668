"""Codec tests.

The construction and encoder tests check against two independent oracles:
an exact erasure-channel enumeration (reliability parameters computed by
brute force over all erasure patterns) and the explicit generator matrix
built from Kronecker powers and a bit reversal of address strings.
Expected values derived from those oracles are also frozen inline as
regression fixtures. The pruned SC decoder is checked against the plain SC
recursion, which visits every node.
"""

import fractions
import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from polarlab import polar
from polarlab.polar import (
    LLR_CLAMP,
    RATE0,
    RATE1,
    REP,
    SPLIT,
    PolarCode,
    awgn_channel,
    bhattacharyya_bounds,
    bit_reversal_permutation,
    bpsk_modulate,
    channel_llr,
    construct_code,
    ebn0_to_sigma,
    encode,
    sc_decode,
    sc_decode_batch,
)

# Frozen from the erasure-channel enumeration oracle below (exact at N=8)
# and from the doubling recursion at N=16 (minimum pairwise gap 6.87e-3,
# so the selection is tie-free).
Z8_EXPECTED = [0.99609375, 0.87890625, 0.80859375, 0.31640625,
               0.68359375, 0.19140625, 0.12109375, 0.00390625]
INFO_SET_16_8 = (7, 9, 10, 11, 12, 13, 14, 15)


def reversed_address(i, N):
    """Oracle: ``i`` with its ``log2 N`` address bits reversed, as a string."""
    return int(format(i, f"0{N.bit_length() - 1}b")[::-1], 2)


@functools.cache
def generator_matrix(N):
    """Oracle: explicit ``B F^{kron n}`` over GF(2). Cached and read-only,
    since a 1024 x 1024 product takes seconds."""
    F = np.array([[1, 0], [1, 1]], dtype=np.int64)
    G = np.array([[1]], dtype=np.int64)
    for _ in range(N.bit_length() - 1):
        G = np.kron(G, F)
    B = np.zeros((N, N), dtype=np.int64)
    for i in range(N):
        B[i, reversed_address(i, N)] = 1
    G = (B @ G) % 2
    G.flags.writeable = False
    return G


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


@pytest.mark.parametrize("N", [2 ** m for m in range(11)])
def test_bit_reversal_matches_string_reversal(N):
    assert bit_reversal_permutation(N).tolist() == [reversed_address(i, N)
                                                    for i in range(N)]


def test_code_index_arrays_are_built_once_and_read_only():
    # every SC decode and encode reads them, so they are shared, not rebuilt
    code = construct_code(16, 8)
    for get in (lambda: bit_reversal_permutation(16), lambda: code.info_index,
                lambda: code.frozen_mask):
        a = get()
        assert get() is a and not a.flags.writeable
    assert code.info_index.tolist() == list(INFO_SET_16_8)
    assert np.flatnonzero(code.frozen_mask).tolist() == list(code.frozen_set)


def _tree_parts(node):
    yield node
    for child in node[2:]:
        yield from _tree_parts(child)


def test_sc_tree_is_built_once_and_read_only():
    code = construct_code(16, 8)
    tree = code.sc_tree
    assert code.sc_tree is tree
    # nested tuples of strings and ints: nothing in it can be changed
    for node in _tree_parts(tree):
        assert type(node) is tuple and len(node) in (2, 4)
        assert type(node[0]) is str and type(node[1]) is int
    with pytest.raises(TypeError):
        tree[2] = (RATE0, 8)


def test_sc_tree_16_8():
    # frozen (0..6, 8): u[0:8] has only its last bit free, u[8:10] likewise,
    # u[10:12] and u[12:16] none frozen
    assert construct_code(16, 8).sc_tree == (
        SPLIT, 16, (REP, 8),
        (SPLIT, 8, (SPLIT, 4, (REP, 2), (RATE1, 2)), (RATE1, 4)))


def test_construct_rejects_bad_shapes():
    with pytest.raises(ValueError):
        construct_code(12, 4)
    with pytest.raises(ValueError):
        construct_code(16, 17)
    with pytest.raises(ValueError):
        construct_code(16, 0)


# -------------------------------------------------------------------- encoding

def test_transform_matches_matrix_oracle():
    # the rate-1 encode is the plain transform x = u B F
    rng = np.random.default_rng(7)
    for N in (2, 4, 8, 16):
        G = generator_matrix(N)
        u = rng.integers(0, 2, size=(5, N))
        np.testing.assert_array_equal(encode(construct_code(N, N), u), (u @ G) % 2)


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
    code = construct_code(2 ** m, 2 ** m)
    u = np.random.default_rng(seed).integers(0, 2, size=(frames, 2 ** m))
    np.testing.assert_array_equal(encode(code, encode(code, u)), u)


@settings(max_examples=100, deadline=None)
@given(code=_codes(), seed=_SEED)
def test_encode_is_linear(code, seed):
    a, b = np.random.default_rng(seed).integers(0, 2, size=(2, 4, code.K))
    np.testing.assert_array_equal(encode(code, a ^ b),
                                  encode(code, a) ^ encode(code, b))


@settings(max_examples=100, deadline=None)
@given(code=_codes(), frames=st.integers(1, 4), seed=_SEED)
def test_encode_matches_generator_matrix(code, frames, seed):
    msgs = np.random.default_rng(seed).integers(0, 2, size=(frames, code.K))
    u = np.zeros((frames, code.N), dtype=np.int64)
    u[:, list(code.info_set)] = msgs
    x = encode(code, msgs)
    assert x.dtype == np.int64
    np.testing.assert_array_equal(x, (u @ generator_matrix(code.N)) % 2)
    np.testing.assert_array_equal(encode(code, msgs[0]), x[0])


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


def _channel_llr_doubling_first(y, sigma):
    """The form ``channel_llr`` had, whose ``2.0 * y`` overflows first."""
    with np.errstate(over="ignore"):
        return 2.0 * np.asarray(y, dtype=np.float64) / (sigma * sigma)


@settings(max_examples=500)
@example(y=1e308, sigma=2.0)
@example(y=-np.finfo(float).max, sigma=1.5)
@example(y=5e-324, sigma=0.5)
@given(y=st.floats(allow_nan=False, allow_infinity=False),
       sigma=st.floats(2.2e-154, 1e154))
def test_channel_llr_rounds_the_exact_value_once(y, sigma):
    # oracle: 2 y / sigma**2 in exact rationals, with sigma**2 rounded as
    # the decoder rounds it, then rounded to the nearest double
    llr = channel_llr(np.array([y]), sigma)[0]
    try:
        want = float(2 * fractions.Fraction(y) / fractions.Fraction(sigma * sigma))
    except OverflowError:
        want = np.copysign(np.inf, y)
    assert llr == want
    # wherever the doubling-first form was finite, the bits are its bits
    old = _channel_llr_doubling_first(np.array([y]), sigma)[0]
    if np.isfinite(old):
        assert llr.tobytes() == old.tobytes()


def test_channel_llr_of_a_huge_sample_is_finite():
    assert channel_llr(1e308, 2.0) == 5e307
    assert _channel_llr_doubling_first(1e308, 2.0) == np.inf


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


# ------------------------------------------------------------- pruned SC oracle

def _sc_reference(llr, frozen):
    """Oracle: the plain batched SC recursion, which visits every node.

    Returns ``(u_hat, x_hat)`` where ``x_hat`` is the re-encoding of
    ``u_hat`` under the butterfly (no output permutation). Its f-rule is
    ``polar._boxplus``, so equal decisions mean equal bits, not near ones.
    Like the decoder, its g-step adds opposite infinities to NaN, which
    decides bit 0.
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
    u_left, x_left = _sc_reference(polar._boxplus(llr[:, :half], llr[:, half:]),
                                   frozen[:half])
    with np.errstate(invalid="ignore"):
        llr_right = llr[:, half:] + (1 - 2 * x_left) * llr[:, :half]
    u_right, x_right = _sc_reference(llr_right, frozen[half:])
    return (np.concatenate([u_left, u_right], axis=1),
            np.concatenate([x_left ^ x_right, x_right], axis=1))


def _reference_decode(code, y, sigma):
    llr = channel_llr(y, sigma)[:, bit_reversal_permutation(code.N)]
    return _sc_reference(llr, code.frozen_mask)[0][:, code.info_index]


def _special_llrs(N):
    """Values where a shortcut could part from SC: exact and signed zeros,
    the smallest subnormal, clamp-sized and non-finite values, and values
    just either side of each rate-1 node size's bound."""
    values = [0.0, -0.0, 5e-324, -5e-324, 1e-320, 1e6, -1e6, np.inf, -np.inf,
              np.nan, LLR_CLAMP, -LLR_CLAMP]
    size = 2
    while size <= N:
        bound = polar._rate1_min_llr(size)
        values += [bound, np.nextafter(bound, 0.0), -bound, -np.nextafter(bound, 0.0),
                   bound * 0.5, bound * 2.0]
        size *= 2
    return values


@st.composite
def _llr_batches(draw):
    """A code, and natural-order LLR rows of noisy codewords (one row or
    many) with special values written over some of them."""
    code = draw(_codes())
    frames = draw(st.one_of(st.just(1), st.integers(2, 40)))
    rng = np.random.default_rng(draw(_SEED))
    sigma = draw(st.sampled_from([0.3, 0.8, 1.5, 4.0]))
    y = awgn_channel(bpsk_modulate(encode(code, rng.integers(0, 2, (frames, code.K)))),
                     sigma, rng)
    llr = channel_llr(y, sigma)[:, bit_reversal_permutation(code.N)]
    values = _special_llrs(code.N)
    for _ in range(draw(st.integers(0, 12))):
        row, col = draw(st.integers(0, frames - 1)), draw(st.integers(0, code.N - 1))
        llr[row, col] = draw(st.sampled_from(values))
    return code, llr


@settings(max_examples=200, deadline=None)
@given(case=_llr_batches())
# ROADMAP's case: N = 2, y = (0, -1) at sigma 1. A hard decision of the
# rate-1 root gives u = (1, 1); SC gives (0, 1).
@example(case=(construct_code(2, 2), np.array([[0.0, -2.0]])))
# opposite infinities meet in the repetition node's sum and the oracle's
# g-step: both give NaN, decided as bit 0
@example(case=(construct_code(2, 1), np.array([[np.inf, -np.inf]])))
def test_pruned_sc_matches_reference_recursion(case):
    code, llr = case
    u_ref, x_ref = _sc_reference(llr, code.frozen_mask)
    x_hat = polar._sc_node_decode(code.sc_tree, llr)
    np.testing.assert_array_equal(x_hat, x_ref)
    np.testing.assert_array_equal(
        polar._butterfly(np.ascontiguousarray(x_hat.T)).T, u_ref)


@settings(max_examples=100, deadline=None)
@given(code=_codes(), frames=st.one_of(st.just(1), st.integers(2, 40)),
       sigma=st.floats(0.05, 5.0), seed=_SEED)
def test_sc_decode_batch_matches_reference_recursion(code, frames, sigma, seed):
    rng = np.random.default_rng(seed)
    y = awgn_channel(bpsk_modulate(encode(code, rng.integers(0, 2, (frames, code.K)))),
                     sigma, rng)
    # zeros, a subnormal and clamp-sized values among the received symbols
    y.flat[rng.integers(0, y.size, 3)] = rng.choice([0.0, -0.0, 5e-324, 1e6], 3)
    np.testing.assert_array_equal(sc_decode_batch(code, y, sigma),
                                  _reference_decode(code, y, sigma))
    np.testing.assert_array_equal(sc_decode(code, y[0], sigma),
                                  _reference_decode(code, y[:1], sigma)[0])


@pytest.mark.parametrize("M", [2 ** m for m in range(1, 11)])
def test_rate1_bound_sits_above_the_underflow(M):
    # rows of a rate-1 (M, M) code whose |LLR| all equal one magnitude:
    # at the bound SC takes the hard decision; where tanh(|llr| / 2)^M is
    # below half the smallest subnormal an f-value underflows to a signed
    # zero and SC parts from it, so those rows must take SC's recursion
    code = construct_code(M, M)
    signs = np.random.default_rng(M).choice([-1.0, 1.0], size=(32, M))
    bound = signs * polar._rate1_min_llr(M)
    np.testing.assert_array_equal(_sc_reference(bound, code.frozen_mask)[1], bound < 0)
    under = signs * 2.0 * np.arctanh(2.0 ** (-1076.0 / M))
    x_ref = _sc_reference(under, code.frozen_mask)[1]
    assert (x_ref != (under < 0)).any()
    np.testing.assert_array_equal(polar._sc_node_decode(code.sc_tree, under), x_ref)


def test_sc_rate1_tie_decides_as_sc():
    # LLRs (0, -2): the f-value is 0, so SC decides u_0 = 0 and then
    # u_1 = 1; the rate-1 root's hard decision x = (0, 1) would give u = (1, 1)
    np.testing.assert_array_equal(
        sc_decode(construct_code(2, 2), np.array([0.0, -1.0]), 1.0), [0, 1])


def test_sc_opposite_infinite_llrs_decide_bit_0():
    # finite symbols whose LLRs overflow to +-inf: their repetition sum is
    # NaN, decided as bit 0 without a warning
    got = sc_decode_batch(construct_code(2, 1), [[1e308, -1e308]], 0.5)
    np.testing.assert_array_equal(got, [[0]])


def test_pruned_sc_16_8_calls_boxplus_three_times(monkeypatch):
    # the plain recursion makes 15 calls: one per internal node of the tree
    calls = []
    boxplus = polar._boxplus

    def counted(a, b):
        calls.append(a.shape)
        return boxplus(a, b)

    monkeypatch.setattr(polar, "_boxplus", counted)
    code = construct_code(16, 8)
    y = bpsk_modulate(encode(code, np.ones(8, dtype=np.int64)))
    np.testing.assert_array_equal(sc_decode(code, y, 0.8), np.ones(8))
    assert calls == [(1, 8), (1, 4), (1, 2)]
    calls.clear()
    _sc_reference(channel_llr(y, 0.8)[None, bit_reversal_permutation(16)],
                  code.frozen_mask)
    assert len(calls) == 15
