"""Measurement, collapse, readout, and the factored Simon sampler."""

import math
import tracemalloc

import numpy as np
import pytest

from adiabatic_sim.errors import DomainError, ResampleError
from adiabatic_sim.evolution import Schedule, assemble_bv, assemble_simon, evolve_two_level
from adiabatic_sim.gf2 import dot2
from adiabatic_sim.hamiltonians import TwoLevelBlock
from adiabatic_sim.measurement import (
    RandomSource,
    bv_readout,
    bv_sample_factored,
    measure_x,
    measure_z,
    simon_factored_x_probs,
    simon_row_bit_prob,
    simon_sample,
    simon_sample_factored,
)
from adiabatic_sim.oracles import (
    BvMask,
    simon_build,
    simon_eval,
    simon_orthogonal_row,
)
from adiabatic_sim.qstate import StateVector, fwht_subsystem, plus_state

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)
S2 = 1.0 / math.sqrt(2.0)


def evolved_branches(kind: str, T: float):
    sched = Schedule(T, int(100 * T))
    return (
        evolve_two_level(TwoLevelBlock(0, kind), sched),
        evolve_two_level(TwoLevelBlock(1, kind), sched),
    )


def dense_x_probs_given_y(state: StateVector, y: int) -> np.ndarray:
    """Oracle: conditional x distribution of register A after z-measuring B=y."""
    mat = state.as_matrix()
    column = mat[:, y]
    column = column / np.linalg.norm(column)
    full = np.zeros_like(mat)
    full[:, y] = column
    rotated = fwht_subsystem(StateVector(state.num_qubits_a, state.num_qubits_b, full.reshape(-1)), "A")
    return np.abs(rotated.as_matrix()[:, y]) ** 2


def test_random_source_reproducible():
    a = RandomSource(123, 0)
    b = RandomSource(123, 0)
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]
    c = RandomSource(123, 1)
    d = RandomSource(123, 2)
    assert c.uniform() != d.uniform()


@pytest.mark.parametrize("seed,stream,first_uniform,first_integer,second_integer", [
    (0, 0, 0.011546754286331562, 213000021201967259, 611),
    (7, 1, 0.8824668302545412, 16278639771243212573, 401),
    (2**63 + 5, 12, 0.7877979360856285, 14532306908768185259, 42),
    (-3, 2**64 + 1, 0.17082794953706038, 3151219465746724501, 710),
])
def test_random_source_draws_are_pinned(seed, stream, first_uniform, first_integer, second_integer):
    # the Philox key is (seed, stream) mod 2^64 with a zero counter
    assert RandomSource(seed, stream).uniform() == first_uniform
    rng = RandomSource(seed, stream)
    assert [rng.randrange(1 << 64), rng.randrange(1000)] == [first_integer, second_integer]


def test_sample_index_zero_weights():
    rng = RandomSource(0)
    with pytest.raises(ResampleError):
        rng.sample_index(np.array([0.0, 0.0]))


def test_measure_z_basis_state_is_deterministic():
    # |01> (x) |1>: B outcome 1 with certainty, state untouched
    psi = StateVector(2, 1, np.eye(8)[0b011])
    for seed in range(5):
        record = measure_z(psi, "B", RandomSource(seed))
        assert record.outcome == 1
        np.testing.assert_allclose(record.post_state.amps, psi.amps, atol=1e-15)


def test_measure_z_simon_ideal_marginal():
    oracle = simon_build(2, 3)
    state = assemble_simon(oracle, E0, E1)
    marginal = np.sum(np.abs(state.as_matrix()) ** 2, axis=0)
    np.testing.assert_allclose(marginal, [0.5, 0.5], atol=1e-12)
    counts = [0, 0]
    for seed in range(400):
        counts[measure_z(state, "B", RandomSource(seed)).outcome] += 1
    assert 140 <= counts[0] <= 260


def test_measure_z_collapse_matches_coset_formula():
    # post state is (|w*> + |w* xor a>)/sqrt(2) (x) |y*> with g(w*) = y*
    oracle = simon_build(3, 5)
    state = assemble_simon(oracle, E0, E1)
    record = measure_z(state, "B", RandomSource(11))
    y_star = record.outcome
    members = [w for w in range(8) if simon_eval(oracle, w) == y_star]
    assert len(members) == 2 and members[0] ^ members[1] == 5
    expected = np.zeros((8, 4), dtype=complex)
    expected[members[0], y_star] = S2
    expected[members[1], y_star] = S2
    np.testing.assert_allclose(record.post_state.as_matrix(), expected, atol=1e-12)


def test_measure_x_plus_state_deterministic():
    plus = plus_state(1, 0)
    for seed in range(5):
        record = measure_x(plus, "A", RandomSource(seed))
        assert record.outcome == 0
        np.testing.assert_allclose(record.post_state.amps, plus.amps, atol=1e-12)


def test_measure_x_zero_state_is_unbiased():
    zero = StateVector(1, 0, E0)
    counts = [0, 0]
    for seed in range(400):
        counts[measure_x(zero, "A", RandomSource(seed)).outcome] += 1
    assert 140 <= counts[0] <= 260


def test_measure_x_posterior_is_x_basis_state():
    zero = StateVector(1, 0, E0)
    record = measure_x(zero, "A", RandomSource(3))
    sign = 1.0 if record.outcome == 0 else -1.0
    np.testing.assert_allclose(record.post_state.amps, [S2, sign * S2], atol=1e-12)


def test_collapse_idempotence():
    state = assemble_simon(simon_build(3, 5), E0, E1)
    record = measure_z(state, "B", RandomSource(5))
    marginal = np.sum(np.abs(record.post_state.as_matrix()) ** 2, axis=0)
    assert marginal[record.outcome] >= 1.0 - 1e-12
    record_x = measure_x(record.post_state, "A", RandomSource(6))
    rotated = fwht_subsystem(record_x.post_state, "A")
    marginal_x = np.sum(np.abs(rotated.as_matrix()) ** 2, axis=1)
    assert marginal_x[record_x.outcome] >= 1.0 - 1e-12


def test_bv_ideal_output_qubit_is_unbiased():
    state = assemble_bv(BvMask(3, 5), E0, E1)
    rotated = fwht_subsystem(state, "B")
    marginal = np.sum(np.abs(rotated.as_matrix()) ** 2, axis=0)
    np.testing.assert_allclose(marginal, [0.5, 0.5], atol=1e-12)


def test_bv_readout_recovers_mask_when_informative():
    state = assemble_bv(BvMask(3, 5), E0, E1)
    informative = 0
    for seed in range(60):
        result = bv_readout(state, RandomSource(seed))
        if not result.restart:
            informative += 1
            assert result.a_candidate == 5
    assert informative > 10


def test_bv_readout_initial_state_always_restarts():
    # the |+>|+> state is exactly the uninformative branch
    state = plus_state(3, 1)
    for seed in range(30):
        assert bv_readout(state, RandomSource(seed)).restart


def test_simon_sample_ideal_orthogonal_and_uniform():
    oracle = simon_build(3, 5)
    state = assemble_simon(oracle, E0, E1)
    counts = {}
    shots = 4000
    for seed in range(shots):
        x = simon_sample(state, RandomSource(seed))
        assert dot2(x, 5) == 0
        counts[x] = counts.get(x, 0) + 1
    assert sorted(counts) == [0b000, 0b010, 0b101, 0b111]
    for x, c in counts.items():
        p = c / shots
        sigma = math.sqrt(0.25 * 0.75 / shots)
        assert abs(p - 0.25) <= 3.5 * sigma


def test_simon_sample_exact_violation_mass_is_negligible():
    # coset symmetry keeps the non-orthogonal mass at zero even far from the
    # adiabatic limit; bound it well inside the 1% tolerance
    oracle = simon_build(3, 5)
    phi0, phi1 = evolved_branches("simon", 50.0)
    state = assemble_simon(oracle, phi0, phi1)
    marginal = np.sum(np.abs(state.as_matrix()) ** 2, axis=0)
    violation = 0.0
    for y in range(4):
        probs = dense_x_probs_given_y(state, y)
        violation += marginal[y] * sum(
            p for x, p in enumerate(probs) if dot2(x, oracle.a) == 1
        )
    assert violation <= 0.01
    assert violation <= 1e-12


@pytest.mark.parametrize("scramble", [None, 21])
def test_factored_probs_equal_dense_conditionals(scramble):
    oracle = simon_build(3, 5, scramble_seed=scramble)
    for phi0, phi1 in [(E0, E1), evolved_branches("simon", 5.0)]:
        state = assemble_simon(oracle, phi0, phi1)
        for y in range(4):
            dense = dense_x_probs_given_y(state, y)
            factored = simon_factored_x_probs(oracle, phi0, phi1, y)
            assert np.max(np.abs(dense - factored)) <= 1e-10


def test_factored_sampler_ideal_distribution_exact():
    for n, a in [(2, 3), (3, 6), (4, 9)]:
        oracle = simon_build(n, a)
        orthogonal = {x for x in range(1 << n) if dot2(x, a) == 0}
        for y in range(1 << (n - 1)):
            probs = simon_factored_x_probs(oracle, E0, E1, y)
            uniform = 1.0 / len(orthogonal)
            for x, p in enumerate(probs):
                expected = uniform if x in orthogonal else 0.0
                assert abs(p - expected) <= 1e-12


def test_factored_sampler_empirical_matches_dense_distribution():
    # dense-path joint (y, x) distribution is the oracle; TV <= 0.01 at 1e5 shots
    oracle = simon_build(3, 5)
    phi0, phi1 = evolved_branches("simon", 5.0)
    state = assemble_simon(oracle, phi0, phi1)
    marginal = np.sum(np.abs(state.as_matrix()) ** 2, axis=0)
    exact = np.zeros(8)
    for y in range(4):
        exact += marginal[y] * dense_x_probs_given_y(state, y)
    shots = 100_000
    rng = RandomSource(2024)
    counts = np.zeros(8)
    for _ in range(shots):
        counts[simon_sample_factored(oracle, phi0, phi1, rng)] += 1
    tv = 0.5 * np.sum(np.abs(counts / shots - exact))
    assert tv <= 0.01


def test_factored_sampler_uninformative_branches_give_zero_rows():
    # identical branch vectors leave register A in the all-|+> product, so the
    # x outcome is the zero row with certainty: no mask information at all
    oracle = simon_build(3, 5)
    plus = np.array([S2, S2], dtype=complex)
    probs = simon_factored_x_probs(oracle, plus, plus, y=2)
    np.testing.assert_allclose(probs, np.eye(8)[0], atol=1e-12)
    state = assemble_simon(oracle, plus, plus)
    for seed in range(10):
        assert simon_sample(state, RandomSource(seed)) == 0
        assert simon_sample_factored(oracle, plus, plus, RandomSource(seed + 50)) == 0


def test_factored_sampler_multinomial_consistency():
    # ideal branches, n = 4: frequencies within 3 sigma of the exact uniform law
    n, a = 4, 9
    oracle = simon_build(n, a)
    orthogonal = sorted(x for x in range(1 << n) if dot2(x, a) == 0)
    shots = 100_000
    rng = RandomSource(99)
    counts = {}
    for _ in range(shots):
        x = simon_sample_factored(oracle, E0, E1, rng)
        counts[x] = counts.get(x, 0) + 1
    assert set(counts) <= set(orthogonal)
    p = 1.0 / len(orthogonal)
    sigma = math.sqrt(p * (1 - p) / shots)
    for x in orthogonal:
        assert abs(counts.get(x, 0) / shots - p) <= 3.5 * sigma


def test_randrange_uses_every_bit():
    # a value built from one double is a multiple of 2^7 at bound 2^60
    values = [RandomSource(seed).randrange(1 << 60) for seed in range(200)]
    assert 60 <= sum(v & 1 for v in values) <= 140
    assert all(0 <= v < 1 << 60 for v in values)


def test_randrange_bounds_and_draw_count():
    rng = RandomSource(4)
    assert [rng.randrange(1) for _ in range(3)] == [0, 0, 0]
    assert 0 <= rng.randrange(1 << 64) < 1 << 64
    assert rng.draws == 4
    for bound in (0, (1 << 64) + 1):
        with pytest.raises(DomainError):
            rng.randrange(bound)


def test_bv_factored_readout_law_equals_dense_law():
    # on the assembled state, P(restart) = 1 - q and an informative shot
    # leaves the input register on the point a; a factored shot is one draw
    branch_sets = [(E0, E1), evolved_branches("bv", 1.0)]
    masks = np.random.default_rng(8)
    for n in range(2, 11):
        for a in (0, int(masks.integers(1, 1 << n))):
            mask = BvMask(n, a)
            for phi0, phi1 in branch_sets:
                state = assemble_bv(mask, phi0, phi1)
                joint = np.abs(fwht_subsystem(fwht_subsystem(state, "B"), "A").as_matrix()) ** 2
                q = simon_row_bit_prob(phi0, phi1)
                assert abs(joint[:, 0].sum() - (1.0 - q)) <= 1e-12
                informative = joint[:, 1] / joint[:, 1].sum()
                assert np.max(np.abs(informative - np.eye(1 << n)[a])) <= 1e-12
                for seed in range(200):
                    rng = RandomSource(seed, 1)
                    readout = bv_sample_factored(mask, phi0, phi1, rng)
                    assert rng.draws == 1
                    assert readout.restart or readout.a_candidate == a


def test_factored_samplers_keep_input_checks():
    nan = np.array([np.nan, np.nan], dtype=complex)
    for oracle in (simon_build(3, 5), simon_build(3, 5, scramble_seed=4)):
        with pytest.raises(ResampleError):
            simon_sample_factored(oracle, nan, nan, RandomSource(0))
        with pytest.raises(DomainError):
            simon_sample_factored(oracle, 2 * E0, E1, RandomSource(0))
    with pytest.raises(ResampleError):
        bv_sample_factored(BvMask(3, 5), nan, nan, RandomSource(0))
    with pytest.raises(DomainError):
        bv_sample_factored(BvMask(3, 5), E0, 2 * E1, RandomSource(0))


@pytest.mark.parametrize("n,a", [(3, 5), (4, 0b1000), (5, 0b10110), (6, 0b100000), (7, 0b1011011)])
def test_linear_simon_row_law_equals_dense_average(n, a):
    # P(x = L^T z) = prod_k q^z_k (1-q)^(1-z_k) against the output-marginal
    # average of the dense conditionals; pivots on the top bit for 0b1000, 0b100000
    oracle = simon_build(n, a)
    m = n - 1
    for phi0, phi1 in [(E0, E1), evolved_branches("simon", 1.0), evolved_branches("simon", 5.0)]:
        state = assemble_simon(oracle, phi0, phi1)
        marginal = np.sum(np.abs(state.as_matrix()) ** 2, axis=0)
        dense = sum(
            marginal[y] * simon_factored_x_probs(oracle, phi0, phi1, y)
            for y in range(1 << m)
        )
        q = simon_row_bit_prob(phi0, phi1)
        law = np.zeros(1 << n)
        for z in range(1 << m):
            ones = z.bit_count()
            law[simon_orthogonal_row(oracle, z)] += q**ones * (1 - q) ** (m - ones)
        assert np.max(np.abs(law - dense)) <= 1e-12


def test_linear_simon_sampler_draws_one_uniform_per_output_bit():
    phi0, phi1 = evolved_branches("simon", 1.0)
    for n, a in [(2, 3), (9, 0b100000000), (60, (1 << 59) | 1)]:
        oracle = simon_build(n, a)
        rng = RandomSource(n)
        x = simon_sample_factored(oracle, phi0, phi1, rng)
        assert rng.draws == n - 1
        assert dot2(x, a) == 0


class ScriptedRowBits(RandomSource):
    """Forces the row bits z (uniform 0 sets a bit, 1 clears it), then draws ``row_uniform``."""

    def __init__(self, z: int, m: int, row_uniform: float = 0.0):
        super().__init__(0)
        self.z, self.m, self.row_uniform = z, m, row_uniform

    def uniform(self) -> float:
        k = self.draws
        self.draws += 1
        if k < self.m:
            return 0.0 if (self.z >> k) & 1 else 1.0
        return self.row_uniform


def walsh_masses(scramble: np.ndarray, z: int) -> np.ndarray:
    """S(t)^2 for s(u) = (-1)^(z . scramble[u]), by the Sylvester Hadamard matrix."""
    hadamard = np.ones((1, 1))
    while hadamard.shape[0] < scramble.size:
        hadamard = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]), hadamard)
    signs = np.array([1.0 - 2.0 * ((int(label) & z).bit_count() & 1) for label in scramble])
    return (hadamard @ signs) ** 2


@pytest.mark.parametrize("n", range(2, 9))
def test_scrambled_simon_row_law_equals_dense_average(n):
    # sum_z P(z) P(x | z) against the output-marginal average of the dense
    # y-conditionals; the second mask puts the pivot on the top bit
    m = n - 1
    for a in ((1 << n) - 1, 1 << m):
        oracle = simon_build(n, a, scramble_seed=n + a)
        for phi0, phi1 in [(E0, E1), evolved_branches("simon", 1.0), evolved_branches("simon", 5.0)]:
            state = assemble_simon(oracle, phi0, phi1)
            marginal = np.sum(np.abs(state.as_matrix()) ** 2, axis=0)
            dense = sum(
                marginal[y] * simon_factored_x_probs(oracle, phi0, phi1, y)
                for y in range(1 << m)
            )
            q = simon_row_bit_prob(phi0, phi1)
            law = np.zeros(1 << n)
            for z in range(1 << m):
                weights = walsh_masses(oracle.scramble, z)
                ones = z.bit_count()
                for t, p in enumerate(weights / weights.sum()):
                    law[simon_orthogonal_row(oracle, t)] += q**ones * (1 - q) ** (m - ones) * p
            assert np.max(np.abs(law - dense)) <= 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_scrambled_simon_row_is_the_inverse_cdf_of_the_walsh_masses(n):
    # the row uniform at the left edge of t's CDF interval, and just below its
    # right edge, both give t; every mass is an integer, the total N^2 = 4^m
    m = n - 1
    oracle = simon_build(n, (1 << n) - 1, scramble_seed=n)
    picks = np.random.default_rng(n)
    for z in (0, (1 << m) - 1, *picks.integers(0, 1 << m, 2)):
        masses = walsh_masses(oracle.scramble, int(z))
        total = float(4**m)
        assert masses.sum() == total
        cdf = np.concatenate(([0.0], np.cumsum(masses)))
        for t in np.flatnonzero(masses):
            for u in (cdf[t] / total, np.nextafter(cdf[t + 1] / total, 0.0)):
                rng = ScriptedRowBits(int(z), m, float(u))
                assert simon_sample_factored(oracle, E0, E1, rng) == simon_orthogonal_row(oracle, t)
                assert rng.draws == n
        for u in picks.random(20):
            x = simon_sample_factored(oracle, E0, E1, ScriptedRowBits(int(z), m, float(u)))
            assert x in {simon_orthogonal_row(oracle, t) for t in np.flatnonzero(masses)}


def test_scrambled_simon_shot_memory_at_n20():
    # the sign vector and its temporaries, halved in place by the descent
    phi0, phi1 = evolved_branches("simon", 1.0)
    oracle = simon_build(20, 0b1011_0000_1110_0101_0011, scramble_seed=5)
    tracemalloc.start()
    try:
        simon_sample_factored(oracle, phi0, phi1, RandomSource(3, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * oracle.scramble.nbytes


def test_scrambled_simon_sampler_draws_and_orthogonality_at_n20():
    phi0, phi1 = evolved_branches("simon", 1.0)
    a = 0b1011_0000_1110_0101_0011
    oracle = simon_build(20, a, scramble_seed=5)
    for shot in range(8):
        rng = RandomSource(11, shot)
        x = simon_sample_factored(oracle, phi0, phi1, rng)
        assert rng.draws == 20
        assert dot2(x, a) == 0


def test_scrambled_simon_sampler_refuses_complex_branch_overlap():
    oracle = simon_build(4, 0b0110, scramble_seed=2)
    phi1 = np.array([1j * S2, S2])
    with pytest.raises(DomainError):
        simon_sample_factored(oracle, E0, phi1, RandomSource(0))
