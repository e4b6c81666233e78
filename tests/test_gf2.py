"""GF(2) elimination, incremental rank, and mask recovery by back-substitution."""

import numpy as np
import pytest

from adiabatic_sim.errors import ContradictionError, DomainError
from adiabatic_sim.gf2 import Gf2Matrix, recover_mask

from helpers import dot2, factored_row, gf2_nullspace, gf2_rank


def test_dot2_cases():
    assert dot2(0b010, 0b101) == 0
    assert dot2(0b101, 0b101) == 0
    assert dot2(0b100, 0b101) == 1


def matrix(n: int, rows) -> Gf2Matrix:
    """A Gf2Matrix with ``rows`` added in order."""
    m = Gf2Matrix(n)
    for row in rows:
        m.add_row(row)
    return m


def test_rank_independent_rows():
    rows = [0b110, 0b011]
    m = matrix(3, rows)
    assert m.rank == gf2_rank(rows, 3) == 2


def test_rank_dependent_row():
    # third row is the xor of the first two
    rows = [0b110, 0b011, 0b101]
    m = matrix(3, rows)
    assert m.rank == gf2_rank(rows, 3) == 2
    assert rows == [0b110, 0b011, 0b101]  # input unmodified


def test_rank_empty():
    m = Gf2Matrix(4)
    assert m.rank == gf2_rank([], 4) == 0


def test_nullspace_two_rows():
    # brute force over all 8 candidates leaves only 111
    rows = [0b110, 0b011]
    m = matrix(3, rows)
    assert gf2_nullspace(rows, 3) == [0b111]
    assert recover_mask(m) == 0b111


def test_nullspace_no_rows():
    m = Gf2Matrix(3)
    assert m.n_cols - m.rank == 3
    assert set(gf2_nullspace([], 3)) | {0} == set(range(8))


def test_nullspace_single_row_n2():
    m = matrix(2, [0b11])
    assert gf2_nullspace([0b11], 2) == [0b11]
    assert recover_mask(m) == 0b11


@pytest.mark.parametrize("n,seed", [(4, 0), (5, 1), (6, 2), (10, 3)])
def test_nullspace_properties_random_rows(n, seed):
    rng = np.random.default_rng(seed)
    rows = [int(r) for r in rng.integers(1, 1 << n, size=n - 1)]
    m = matrix(n, rows)
    solutions = gf2_nullspace(rows, n)
    assert m.rank == gf2_rank(rows, n)
    assert len(solutions) + 1 == 1 << (n - m.rank)
    for v in solutions:
        assert all(dot2(r, v) == 0 for r in rows)
    mask = recover_mask(m)
    if m.rank == n - 1:
        assert [mask] == solutions
    else:
        assert mask is None


def test_recover_mask_unique():
    # both rows are orthogonal to 101 only (checked by brute force)
    rows = [0b010, 0b111]
    assert gf2_nullspace(rows, 3) == [0b101]
    assert recover_mask(matrix(3, rows)) == 0b101


def test_recover_mask_underdetermined():
    assert recover_mask(matrix(3, [0b010])) is None


def test_recover_mask_contradiction():
    with pytest.raises(ContradictionError):
        recover_mask(matrix(2, [0b11, 0b01]))


def test_zero_rows_counted_but_rank_inert():
    # a zero row is accepted and leaves the basis as it was; callers count it
    m = Gf2Matrix(3)
    m.add_row(0)
    assert m.rank == 0 and m._basis == [0, 0, 0]
    m.add_row(0b110)
    assert m.rank == gf2_rank([0, 0b110], 3) == 1


def test_add_row_range_check():
    m = Gf2Matrix(3)
    with pytest.raises(DomainError):
        m.add_row(8)


def test_rows_from_ideal_sampler_recover_planted_mask():
    from adiabatic_sim.measurement import RandomSource
    from adiabatic_sim.oracles import simon_build

    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    for seed in range(10):
        n, a = 5, 0b10110
        oracle = simon_build(n, a)
        m, rng = Gf2Matrix(n), RandomSource(seed, 1)
        for _ in range(200):
            m.add_row(factored_row(oracle, e0, e1, rng))
            if m.rank == n - 1:
                break
        assert recover_mask(m) == a


@pytest.mark.parametrize("n,seed", [(3, 0), (6, 1), (12, 2), (60, 3)])
def test_incremental_rank_matches_elimination(n, seed):
    # random streams with zero rows and repeats; checked after every row
    rng = np.random.default_rng(seed)
    m, rows = Gf2Matrix(n), []
    for _ in range(n + 10):
        kind = rng.integers(4)
        if kind == 0:
            row = 0
        elif kind == 1 and rows:
            row = rows[int(rng.integers(len(rows)))]
        else:
            row = int(rng.integers(1 << n))
        m.add_row(row)
        if row:
            rows.append(row)
        assert m.rank == gf2_rank(rows, n)
    rebuilt = matrix(n, rows)
    assert rebuilt.rank == gf2_rank(rows, n) == m.rank


@pytest.mark.parametrize("n,seed", [(1, 0), (3, 1), (8, 2), (20, 3), (60, 4), (60, 5)])
def test_basis_invariant_after_every_row(n, seed):
    # word k of the basis is 0 or a row led by bit k, and the rank counts the
    # nonzero words and matches elimination on every row added so far
    rng = np.random.default_rng(seed)
    m, rows = Gf2Matrix(n), []
    for _ in range(2 * n + 10):
        kind = rng.integers(5)
        if kind == 0:
            row = 0
        elif kind == 1 and rows:
            row = rows[int(rng.integers(len(rows)))]
        elif kind == 2 and len(rows) >= 2:
            i, j = rng.integers(len(rows), size=2)
            row = rows[int(i)] ^ rows[int(j)]
        else:
            row = int(rng.integers(1 << n))
        m.add_row(row)
        rows.append(row)
        assert len(m._basis) == n
        assert all(word.bit_length() - 1 == k for k, word in enumerate(m._basis) if word)
        assert m.rank == sum(1 for word in m._basis if word) == gf2_rank(rows, n)


def test_back_substitution_matches_brute_force_on_random_systems():
    # rows orthogonal to a planted mask until rank n - 1; the reference is the
    # brute-force nullspace up to n = 10, and above it the elimination rank
    # with orthogonality, which together leave only one nonzero solution
    rng = np.random.default_rng(11)
    for _ in range(2000):
        n = int(rng.integers(2, 61))
        a = int(rng.integers(1, 1 << n, dtype=np.uint64))
        low = a & -a
        m, rows = Gf2Matrix(n), []
        while m.rank < n - 1:
            row = int(rng.integers(0, 1 << n, dtype=np.uint64))
            rows.append(row ^ low if dot2(row, a) else row)
            m.add_row(rows[-1])
        mask = recover_mask(m)
        if n <= 10:
            assert [mask] == gf2_nullspace(rows, n)
        else:
            assert gf2_rank(rows, n) == n - 1
            assert all(dot2(r, mask) == 0 for r in rows)
        assert mask == a
