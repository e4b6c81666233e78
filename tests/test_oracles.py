"""Oracle construction and promise verification."""

from dataclasses import replace

import numpy as np
import pytest

from adiabatic_sim.errors import DomainError, PromiseError
from adiabatic_sim.oracles import (
    BvMask,
    SimonOracle,
    simon_build,
    simon_orthogonal_row,
)
from helpers import bv_eval, simon_eval


def assert_promise(oracle: SimonOracle) -> None:
    """Both directions of the 2-to-1 promise, exhaustively.

    g is constant on every coset {w, w ^ a}, and takes 2^(n-1) distinct
    values, so no two inputs outside one coset share a label.
    """
    g = oracle.outputs()
    w = np.arange(1 << oracle.n)
    assert (g[w ^ oracle.a] == g).all()
    assert np.unique(g).size == 1 << (oracle.n - 1)


def test_bv_eval_direct_cases():
    assert bv_eval(BvMask(3, 0b110), 0b011) == 1
    assert all(bv_eval(BvMask(3, 0), w) == 0 for w in range(8))
    assert bv_eval(BvMask(3, 0b101), 0b101) == 0


@pytest.mark.parametrize("n", range(1, 9))
def test_bv_eval_all_matches_bv_eval(n):
    for a in {0, 1, (1 << n) - 1, 0b10110101 & ((1 << n) - 1)}:
        mask = BvMask(n, a)
        assert mask.outputs().tolist() == [bv_eval(mask, w) for w in range(1 << n)]


def test_bv_eval_out_of_range():
    with pytest.raises(DomainError):
        bv_eval(BvMask(2, 1), 4)


@pytest.mark.parametrize("a", [0b101, 0b1, 0b111111])
def test_bv_eval_gf2_linear(a):
    n = 6
    mask = BvMask(n, a)
    f = np.array([bv_eval(mask, w) for w in range(1 << n)], dtype=np.uint8)
    w_all = np.arange(1 << n)
    xor = np.bitwise_xor.outer(w_all, w_all)
    assert np.array_equal(f[xor], f[:, None] ^ f[None, :])


def test_bv_eval_gf2_linear_exhaustive_n12():
    n = 12
    mask = BvMask(n, 0b101101110001)
    w_all = np.arange(1 << n)
    f = (np.bitwise_count(w_all & mask.a) & 1).astype(np.uint8)
    for w in range(0, 1 << n, 64):  # chunk rows to bound memory
        rows = np.arange(w, w + 64)
        xor = np.bitwise_xor.outer(rows, w_all)
        assert np.array_equal(f[xor], f[rows, None] ^ f[None, :])


def test_simon_build_n2_a3_table():
    # construction rule by hand: pivot 0, rep has bit 0 clear, g = top bit
    oracle = simon_build(2, 3)
    table = {w: simon_eval(oracle, w) for w in range(4)}
    assert table == {0b00: 0, 0b11: 0, 0b01: 1, 0b10: 1}
    assert_promise(oracle)


def test_simon_build_n3_a1_pivot():
    # a=1: pivot bit 0, so g(w) is just the top two bits of w
    oracle = simon_build(3, 1)
    assert oracle.pivot_bit == 0
    for w in range(8):
        assert simon_eval(oracle, w) == simon_eval(oracle, w ^ 1)
        assert simon_eval(oracle, w) == w >> 1


def test_simon_zero_mask_impossible():
    with pytest.raises(PromiseError):
        simon_build(3, 0)
    with pytest.raises(DomainError):
        simon_build(1, 1)


def test_simon_eval_matches_promise():
    oracle = simon_build(2, 3)
    assert simon_eval(oracle, 0b01) == 1
    oracle5 = simon_build(3, 5)
    assert simon_eval(oracle5, 2) == simon_eval(oracle5, 7)
    for w in range(8):
        assert simon_eval(oracle5, w) == simon_eval(oracle5, w ^ 5)


def test_simon_eval_out_of_range():
    with pytest.raises(DomainError):
        simon_eval(simon_build(2, 3), 4)


def test_verify_promise_clean_and_scrambled():
    assert_promise(simon_build(4, 9))
    assert_promise(simon_build(2, 1, scramble_seed=7))


def test_verify_promise_planted_violation():
    oracle = simon_build(3, 4)
    labels = np.arange(4)
    labels[1] = labels[0]  # g(1) := g(0) although 0 ^ 1 != a
    corrupted = SimonOracle(n=3, a=4, pivot_bit=oracle.pivot_bit, scramble=labels)
    with pytest.raises(AssertionError):
        assert_promise(corrupted)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_promise_holds_for_all_masks(n):
    for a in range(1, 1 << n):
        assert_promise(simon_build(n, a))
        assert_promise(simon_build(n, a, scramble_seed=a + 17))


@pytest.mark.parametrize("n,a,seed", [(5, 9, None), (8, 0b10110001, 3), (12, 0b100000000001, None)])
def test_simon_image_is_all_outputs(n, a, seed):
    oracle = simon_build(n, a, scramble_seed=seed)
    outputs = np.unique(oracle.outputs())
    assert outputs.size == 1 << (n - 1)


@pytest.mark.parametrize("n,a", [(2, 0b11), (4, 0b1000), (5, 0b10110), (6, 0b110101)])
def test_simon_dual_row_is_transpose_of_g(n, a):
    # x . w == z . g(w) for every input w; 0b1000 puts the pivot on the top bit
    oracle = simon_build(n, a)
    rows = set()
    for z in range(1 << (n - 1)):
        x = simon_orthogonal_row(oracle, z)
        assert all(
            bin(x & w).count("1") % 2 == bin(z & simon_eval(oracle, w)).count("1") % 2
            for w in range(1 << n)
        )
        rows.add(x)
    assert len(rows) == 1 << (n - 1)  # L^T is injective


@pytest.mark.parametrize("n", [2, 5, 12, 20])
def test_scramble_is_the_seeded_permutation_as_uint32(n):
    for seed in (0, 1, 5, 2**31 - 1):
        scramble = simon_build(n, 1, scramble_seed=seed).scramble
        assert scramble.dtype == np.uint32
        assert np.array_equal(scramble, np.random.default_rng(seed).permutation(2 ** (n - 1)))


@pytest.mark.parametrize("n,a,seed", [(2, 0b11, 3), (5, 0b10110, 8), (9, 0b100000001, 4)])
def test_scrambled_oracle_evaluates_as_with_an_int64_table(n, a, seed):
    oracle = simon_build(n, a, scramble_seed=seed)
    wide = replace(oracle, scramble=oracle.scramble.astype(np.int64))
    table = oracle.outputs().tolist()
    assert table == wide.outputs().tolist()
    assert table == [simon_eval(oracle, w) for w in range(1 << n)]
    assert table == [simon_eval(wide, w) for w in range(1 << n)]
    assert_promise(oracle)
    assert_promise(wide)


def test_negative_scramble_seed_is_a_domain_error():
    with pytest.raises(DomainError):
        simon_build(4, 3, scramble_seed=-1)


@pytest.mark.parametrize("n", [0, 1])
def test_too_few_bits_with_a_scramble_seed_is_a_domain_error(n):
    # the n check comes before the 2^(n-1)-label permutation is drawn
    with pytest.raises(DomainError):
        simon_build(n, 1, scramble_seed=3)
