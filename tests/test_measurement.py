"""RandomSource, the dense readout, and the factored samplers."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from adiabatic_sim import measurement, protocols
from adiabatic_sim.errors import DomainError, ResampleError
from adiabatic_sim.evolution import Schedule, assemble, evolve_full
from adiabatic_sim.gf2 import dot2
from adiabatic_sim.hamiltonians import interpolated
from adiabatic_sim.measurement import (
    RandomSource,
    SHORT_BLOCK,
    _bv_shot,
    _linear_rows,
    _read_factored,
    _scrambled_row,
    dense_shot,
    rotate_output,
    simon_factored_x_probs,
    simon_row_bit_prob,
    simon_sample_factored,
)
from adiabatic_sim.oracles import (
    BvMask,
    simon_build,
    simon_orthogonal_row,
)
from adiabatic_sim.protocols import RunConfig, run_simon
from adiabatic_sim.qstate import StateVector, fwht_subsystem, plus_state
from helpers import HADAMARD, array_block_read, kron_chain, random_state

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)
S2 = 1.0 / math.sqrt(2.0)


def evolved_branches(T: float):
    return protocols.branch_pair(T, int(100 * T))


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


@pytest.mark.parametrize("seed", [0, -3, -(2**63), 2**63 + 5])
@pytest.mark.parametrize("stream", [0, 12, 2**64 - 1, 2**64 + 1])
def test_key_words_match_numpys_philox_constructor(seed, stream):
    # the key words (seed, stream) mod 2^64 are the low and high halves of the
    # 128-bit key numpy's own constructor takes, with a zero counter
    key = (seed % 2**64) | (stream % 2**64) << 64
    reference = np.random.Generator(np.random.Philox(key=key, counter=0))
    rng = RandomSource(seed, stream)
    assert [rng.uniform() for _ in range(3)] == reference.random(3).tolist()
    block = np.empty(37)
    rng.fill(block)
    assert block.tolist() == reference.random(37).tolist()
    for bound in (1000, 1 << 64):
        assert rng.randrange(bound) == int(reference.integers(bound, dtype=np.uint64))


def test_restart_draws_what_a_new_source_draws():
    # each restart follows uniform, block and integer draws; an odd number of
    # randrange calls below 2^32 leaves half a Philox word buffered.  Every
    # second re-key is a reseed to another seed, which counts draws afresh
    rng = np.random.default_rng(23)
    seeds = rng.integers(0, 2**64, size=250, dtype=np.uint64).tolist()
    seeds[:4] = [0, -1, -(2**63), 2**63]
    pairs = 0
    for seed in seeds:
        source = RandomSource(seed, int(rng.integers(2**64, dtype=np.uint64)))
        draws = 0
        streams = rng.integers(0, 2**64, size=4, dtype=np.uint64).tolist() + [2**64 + 3]
        for i, stream in enumerate(streams):
            for _ in range(int(rng.integers(0, 4))):
                source.uniform()
            source.fill(np.empty(int(rng.integers(1, 70))))
            for _ in range(int(rng.integers(0, 4))):
                source.randrange(int(rng.integers(1, 2**32)))
            draws = source.draws
            if i % 2:
                seed, draws = int(rng.integers(2**64, dtype=np.uint64)) - 2**63, 0
                source.reseed(seed, stream)
            else:
                source.restart(stream)
            fresh = RandomSource(seed, stream)
            count = int(rng.integers(1, 70))
            mine, theirs = np.empty(count), np.empty(count)
            source.fill(mine)
            fresh.fill(theirs)
            assert mine.tolist() == theirs.tolist()
            assert source.uniform() == fresh.uniform()
            bound = int(rng.integers(1, 2**32))
            assert source.randrange(bound) == fresh.randrange(bound)
            assert source.randrange(1 << 64) == fresh.randrange(1 << 64)
            assert source.uniform() == fresh.uniform()
            assert (source.seed, source.stream) == (fresh.seed, fresh.stream) == (seed, stream)
            assert source.draws == draws + count + 4  # counted since construction or reseed
            pairs += 1
    assert pairs >= 1000


def scalar_row_bits(q: float, bits: int, rng: RandomSource) -> int:
    """Reference: the row bits z drawn one scalar uniform per bit, ascending."""
    z = 0
    for k in range(bits):
        if rng.uniform() < q:
            z |= 1 << k
    return z


def test_row_bits_block_draw_equals_scalar_loop():
    # a block of shots gives each shot in turn the z of one scalar uniform per
    # bit, read in order from the same stream, the draw count of those scalar
    # draws and, after the block, the next draw of that stream, for every
    # width a linear Simon row can have; a row is L^T z with L of full rank,
    # so equal rows are equal z
    cases = [(bits, q) for bits in range(1, 60) for q in (0.0, 1e-3, 0.5, 0.75, 1.0)] * 4
    keys = np.random.default_rng(17).integers(0, 2**63, size=(len(cases), 2)).tolist()
    for (bits, q), (seed, stream) in zip(cases, keys):
        oracle = simon_build(bits + 1, (1 << bits) | (seed & ((1 << bits) - 1)))
        block, scalar = RandomSource(seed, stream), RandomSource(seed, stream)
        rows = _read_factored(oracle, q, block, 3)
        assert rows == [simon_orthogonal_row(oracle, scalar_row_bits(q, bits, scalar)) for _ in rows]
        assert block.draws == scalar.draws == bits * 3
        assert block.uniform() == scalar.uniform()
    # a BV shot is the one bit z: a restart (None) iff the uniform is not below q
    for q in (0.0, 0.3, 1.0):
        shot, scalar = RandomSource(5, 1), RandomSource(5, 1)
        for _ in range(39):
            z = scalar_row_bits(q, 1, scalar)
            assert _bv_shot(BvMask(4, 9), q, shot) == (9 if z else None)
        assert shot.draws == 39
        assert shot.uniform() == scalar.uniform()


@pytest.mark.parametrize("kind", ["bv", "linear", "scrambled"])
def test_factored_shots_do_not_depend_on_the_block_size(kind):
    # one block of k shots, k blocks of one shot and k calls of the public
    # one-shot sampler (BV: k scalar shots, one block fill of k uniforms and
    # the documented draw, informative iff the uniform is below q) give the
    # same outcomes and draws, and leave the stream at the same place
    branch_sets = [(E0, E1), evolved_branches(0.5), evolved_branches(5.0)]
    for n, (phi0, phi1), seed in zip((2, 5, 9, 12), branch_sets * 2, range(4)):
        a = (1 << (n - 1)) | seed
        if kind == "bv":
            oracle = BvMask(n, a)
        else:
            oracle = simon_build(n, a, scramble_seed=seed if kind == "scrambled" else None)
        q = simon_row_bit_prob(phi0, phi1)
        for k in (1, 2, 7, 30):
            sources = [RandomSource(seed, 1) for _ in range(3)]
            if kind == "bv":
                u = np.empty(k)
                sources[0].fill(u)
                blocks = [a if x < q else None for x in u.tolist()]
                singles = [_bv_shot(oracle, q, sources[1]) for _ in range(k)]
                public = [a if sources[2].uniform() < q else None for _ in range(k)]
            else:
                blocks = _read_factored(oracle, q, sources[0], k)
                singles = [_read_factored(oracle, q, sources[1], 1)[0] for _ in range(k)]
                public = [simon_sample_factored(oracle, phi0, phi1, sources[2]) for _ in range(k)]
            assert blocks == singles == public
            assert len({s.draws for s in sources}) == 1
            assert len({s.uniform() for s in sources}) == 1


def short_read_cases():
    """(oracle, k) for linear widths 1 to 70 and scrambled widths 2 to 12, with k
    from 1 to two rows past the largest block read as a list."""
    masks = np.random.default_rng(33).integers(1, 2**62, size=71).tolist()
    for n in range(2, 72):
        a = (1 << (n - 1)) | masks[n - 1] % (1 << (n - 1))
        oracles = [simon_build(n, a)] + ([simon_build(n, a, scramble_seed=n)] if n <= 12 else [])
        for oracle in oracles:
            width = n - (oracle.scramble is None)
            for k in range(1, SHORT_BLOCK // width + 3):
                yield oracle, k


def test_short_and_long_blocks_read_what_one_row_reads_and_an_array_read_give():
    # a block of k rows equals k one-row reads and the array read of the same
    # stream, on either side of SHORT_BLOCK and across 64 bits, and draws k x width
    q = 0.4
    for i, (oracle, k) in enumerate(short_read_cases()):
        width = oracle.n - (oracle.scramble is None)
        sources = [RandomSource(i, 1) for _ in range(3)]
        block = _read_factored(oracle, q, sources[0], k)
        singles = [_read_factored(oracle, q, sources[1], 1)[0] for _ in range(k)]
        assert block == singles == array_block_read(oracle, q, sources[2], k)
        assert sources[0].draws == sources[1].draws == sources[2].draws == k * width
        assert len({s.uniform() for s in sources}) == 1


def test_only_a_long_block_reads_its_bits_as_an_array(monkeypatch):
    calls = []
    row_bits = measurement._row_bits
    monkeypatch.setattr(measurement, "_row_bits", lambda q, u: calls.append(u.shape) or row_bits(q, u))
    for scramble_seed in (None, 4):
        oracle = simon_build(5, 0b10011, scramble_seed)
        width = 5 - (scramble_seed is None)
        short, long = SHORT_BLOCK // width, SHORT_BLOCK // width + 1
        _read_factored(oracle, 0.5, RandomSource(1, 1), short)
        assert calls == []
        _read_factored(oracle, 0.5, RandomSource(1, 1), long)
        assert calls == [(long, 4)]
        calls.clear()


def test_linear_rows_equal_the_orthogonal_row():
    # every z for every mask up to n = 6, and for a few masks up to n = 10
    for n in range(2, 11):
        masks = range(1, 1 << n) if n <= 6 else (1, 1 << (n - 1), (1 << n) - 1, 0b1011 << (n - 4))
        for a in masks:
            oracle = simon_build(n, a)
            zs = range(1 << (n - 1))
            assert _linear_rows(oracle, zs) == [simon_orthogonal_row(oracle, z) for z in zs]
    # random z at widths past one word
    rng = np.random.default_rng(64)
    for n in (64, 65, 1024):
        for _ in range(4):
            a = int.from_bytes(rng.bytes(n // 8 + 1), "little") % (1 << n) or 1
            oracle = simon_build(n, a)
            zs = [int.from_bytes(rng.bytes(n // 8 + 1), "little") % (1 << (n - 1)) for _ in range(50)]
            assert _linear_rows(oracle, zs) == [simon_orthogonal_row(oracle, z) for z in zs]


def test_sample_index_zero_weights():
    rng = RandomSource(0)
    with pytest.raises(ResampleError):
        rng.sample_index(np.array([0.0, 0.0]))


def reference_measure_z(psi: StateVector, subsystem: str, rng: RandomSource):
    """The z-basis measurement with collapse the dense readouts replaced, kept as the reference.

    Returns the outcome and the renormalized conditional state.
    """
    mat = psi.as_matrix()
    axis = 1 if subsystem == "A" else 0
    probs = np.abs(mat) ** 2
    marginal = probs.sum(axis=axis)
    outcome = rng.sample_index(marginal)
    post = np.zeros_like(mat)
    if subsystem == "A":
        post[outcome, :] = mat[outcome, :] / math.sqrt(marginal[outcome])
    else:
        post[:, outcome] = mat[:, outcome] / math.sqrt(marginal[outcome])
    return outcome, StateVector(psi.num_qubits_a, psi.num_qubits_b, post.reshape(-1))


def reference_measure_x(psi: StateVector, subsystem: str, rng: RandomSource):
    """The x-basis measurement with collapse: Hadamard, z-measure, Hadamard back."""
    outcome, post = reference_measure_z(fwht_subsystem(psi, subsystem), subsystem, rng)
    return outcome, fwht_subsystem(post, subsystem)


def reference_dense_shot(final: StateVector, rng: RandomSource):
    """The output register's x measurement with collapse, then, unless it gave 0,
    the input register's."""
    output, post = reference_measure_x(final, "B", rng)
    return None if output == 0 else reference_measure_x(post, "A", rng)[0]


@pytest.mark.parametrize(
    "problem,n", [("bv", n) for n in range(1, 9)] + [("simon", n) for n in range(2, 6)]
)
def test_dense_readouts_match_the_collapse_chain(problem, n):
    # the same outcome after the same draws on every shot; input weights may
    # differ from the chain's in the last bit, which sums |v / sqrt(2^m)|^2
    # over the output columns, so outcomes are compared, not weights
    a = 0b1011_0101 & ((1 << n) - 1)
    anneals = [evolved_branches(T) for T in (0.5, 5.0, 50.0)]
    if problem == "bv":
        states = [random_state(n, 1, n)]
        states += [assemble(BvMask(n, a), *branches) for branches in anneals]
    else:
        states = [random_state(n, n - 1, n)]
        for scramble in (None, n):
            oracle = simon_build(n, a, scramble_seed=scramble)
            states += [assemble(oracle, *branches) for branches in anneals]
    for state in states:
        rotated, marginal = rotate_output(state)
        for seed in range(200):
            rng, reference_rng = RandomSource(seed, 1), RandomSource(seed, 1)
            assert dense_shot(rotated, marginal, rng) == reference_dense_shot(state, reference_rng)
            assert rng.draws == reference_rng.draws


class ForcedDraws:
    """Stands in for a RandomSource: ``sample_index`` records the normalized
    weights it is given and returns the next forced index."""

    def __init__(self, *forced):
        self.forced, self.laws = list(forced), []

    def sample_index(self, probs):
        self.laws.append(np.asarray(probs) / np.sum(probs))
        return self.forced.pop(0)


def dense_readout_law(state: StateVector) -> dict:
    """{(z, row): probability} that ``dense_shot`` samples from the rotated
    state, row 0 where it returns None, read off the weights it draws from."""
    rotated, marginal = rotate_output(state)
    law = {}
    for z in range(marginal.size):
        rng = ForcedDraws(z, 0)
        dense_shot(rotated, marginal, rng)
        p_z = rng.laws[0][z]
        rows = rng.laws[1] if len(rng.laws) > 1 else np.eye(1)[0]
        for row, p in enumerate(rows):
            law[z, row] = law.get((z, row), 0.0) + p_z * p
    return law


def factored_readout_law(oracle, q: float) -> dict:
    """{(z, row): q^|z| (1-q)^(m-|z|) P(row | z)}, P(row | z) the Walsh spectrum,
    by an explicit Hadamard matrix, of the input register's
    2^(-n/2) sum_w (-1)^(z . f(w)) |w>."""
    n, m, f = oracle.n, oracle.m, oracle.outputs()
    walsh = kron_chain([HADAMARD] * n)
    law = {}
    for z in range(1 << m):
        p_z = q ** z.bit_count() * (1 - q) ** (m - z.bit_count())
        signs = (-1.0) ** (np.bitwise_count(f & z) & 1) / math.sqrt(1 << n)
        for row, amp in enumerate(walsh @ signs):
            law[z, row] = p_z * abs(amp) ** 2
    return law


@pytest.mark.parametrize("total_time", [1.0, 5.0])
@pytest.mark.parametrize("problem,n,scramble_seed", [("bv", n, None) for n in range(1, 6)]
                         + [("simon", n, s) for n in range(2, 6) for s in (None, 3 * n)])
def test_dense_readout_law_is_the_factored_law(problem, n, scramble_seed, total_time):
    # the full path's final state, its output register read in x: the (z, row)
    # law of its shots is that of iid Bernoulli(q) output bits and, given z,
    # the Walsh spectrum of (-1)^(z . f(w)); at z = 0 the row is exactly 0
    a = 0b10110 & ((1 << n) - 1) or 1
    oracle = BvMask(n, a) if problem == "bv" else simon_build(n, a, scramble_seed)
    steps = int(20 * total_time)
    final = evolve_full(interpolated(oracle), plus_state(n, oracle.m),
                        Schedule(total_time, steps)).final_state
    dense = dense_readout_law(final)
    factored = factored_readout_law(oracle, simon_row_bit_prob(*protocols.branch_pair(total_time, steps)))
    for key in dense.keys() | factored.keys():
        assert abs(dense.get(key, 0.0) - factored.get(key, 0.0)) <= 1e-12, key


def traced_peak(call):
    """``call()``'s result and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_dense_readout_shot_memory():
    # no post-measurement state is built: a run rotates one copy of the state
    # for the output register's Walsh transform, and a shot transforms the one
    # selected column.  BV's one butterfly level holds one temporary of half
    # the state; at several levels numpy also copies ``bot`` before
    # ``top += bot``, whose interleaved 2-D views its overlap check cannot
    # tell apart
    mask = BvMask(16, 0b1011_0000_1110_0101)
    state = assemble(mask, E0, E1)
    _, peak = traced_peak(lambda: rotate_output(state))
    assert peak < 1.6 * state.amps.nbytes
    for seed in range(64):
        outcome, peak = traced_peak(
            lambda: dense_shot(*rotate_output(state), RandomSource(seed, 1)))
        if outcome is not None:
            break
    assert outcome == mask.a
    assert peak < 3.0 * state.amps.nbytes
    state = assemble(simon_build(8, 0b1011_0101), E0, E1)
    (rotated, marginal), peak = traced_peak(lambda: rotate_output(state))
    assert peak < 2.6 * state.amps.nbytes
    for seed in range(64):
        x, peak = traced_peak(lambda: dense_shot(rotated, marginal, RandomSource(seed, 1)))
        if x is not None:
            break
    assert x and dot2(x, 0b1011_0101) == 0
    assert peak < 1.5 * state.amps.nbytes


def test_bv_ideal_output_qubit_is_unbiased():
    _, marginal = rotate_output(assemble(BvMask(3, 5), E0, E1))
    np.testing.assert_allclose(marginal, [0.5, 0.5], atol=1e-12)


def test_bv_readout_recovers_mask_when_informative():
    rotated, marginal = rotate_output(assemble(BvMask(3, 5), E0, E1))
    outcomes = [dense_shot(rotated, marginal, RandomSource(seed)) for seed in range(60)]
    assert set(outcomes) == {None, 5}
    assert outcomes.count(5) > 10


def test_bv_readout_initial_state_always_restarts():
    # the |+>|+> state is exactly the uninformative branch, of Simon's too
    for n_b in (1, 2):
        rotated, marginal = rotate_output(plus_state(3, n_b))
        for seed in range(30):
            assert dense_shot(rotated, marginal, RandomSource(seed)) is None


def test_simon_sample_ideal_orthogonal_and_uniform():
    oracle = simon_build(3, 5)
    rotated, marginal = rotate_output(assemble(oracle, E0, E1))
    counts = {}
    shots = 4000
    for seed in range(shots):
        x = dense_shot(rotated, marginal, RandomSource(seed)) or 0
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
    phi0, phi1 = evolved_branches(50.0)
    state = assemble(oracle, phi0, phi1)
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
    for phi0, phi1 in [(E0, E1), evolved_branches(5.0)]:
        state = assemble(oracle, phi0, phi1)
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
    phi0, phi1 = evolved_branches(5.0)
    state = assemble(oracle, phi0, phi1)
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
    rotated, marginal = rotate_output(assemble(oracle, plus, plus))
    for seed in range(10):
        assert dense_shot(rotated, marginal, RandomSource(seed)) is None
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
    # above 2^64 an attempt reads ceil(bits / 64) words: 2 for 65 bits, 17 for 1025
    for bound, words in (((1 << 64) + 1, 2), ((1 << 1024) + 1, 17)):
        before = rng.draws
        assert 0 <= rng.randrange(bound) < bound
        spent = rng.draws - before
        assert spent >= words and spent % words == 0
    for bound in (0, -1):
        with pytest.raises(DomainError):
            rng.randrange(bound)


@pytest.mark.parametrize("seed,stream,bound,value,draws", [
    (7, 1, 1 << 64, 16278639771243212573, 1),      # one integer draw, as at every n <= 64
    (7, 1, 1 << 65, 13615111426293259949, 2),      # the top 65 bits of two words
    (1, 0, (1 << 64) + 1, 1147624963084715332, 4),  # the first attempt is rejected
])
def test_randrange_draws_are_pinned_on_both_sides_of_2_64(seed, stream, bound, value, draws):
    rng = RandomSource(seed, stream)
    assert (rng.randrange(bound), rng.draws) == (value, draws)
    if bound > 1 << 64:
        key = (seed % 2**64) | (stream % 2**64) << 64
        words = np.random.Philox(key=key, counter=0).random_raw(draws).tolist()
        attempts = [(words[i] | words[i + 1] << 64) >> 63 for i in range(0, draws, 2)]
        assert attempts[-1] == value and all(v >= bound for v in attempts[:-1])


def test_randrange_above_2_64_is_uniform():
    # 66 bits per attempt, kept below 3 * 2^64: each third and each low-bit
    # parity takes its share
    values = [RandomSource(seed).randrange(3 << 64) for seed in range(600)]
    assert all(0 <= v < 3 << 64 for v in values)
    for third in range(3):
        assert 150 <= sum(v >> 64 == third for v in values) <= 250
    assert 240 <= sum(v & 1 for v in values) <= 360


@pytest.mark.parametrize("width", [1, 63, 64, 65, 128, 1024])
def test_row_bits_match_a_per_bit_reference(width):
    u = np.random.default_rng(width).random((9, width))
    for q in (0.0, 0.3, 0.5, 1.0):
        expected = [sum(1 << k for k in range(width) if row[k] < q) for row in u.tolist()]
        assert measurement._row_bits(q, u) == expected


def test_bv_factored_readout_law_equals_dense_law():
    # on the assembled state, P(restart) = 1 - q and an informative shot
    # leaves the input register on the point a; a factored shot is one draw
    branch_sets = [(E0, E1), evolved_branches(1.0)]
    masks = np.random.default_rng(8)
    for n in range(2, 11):
        for a in (0, int(masks.integers(1, 1 << n))):
            mask = BvMask(n, a)
            for phi0, phi1 in branch_sets:
                state = assemble(mask, phi0, phi1)
                joint = np.abs(fwht_subsystem(fwht_subsystem(state, "B"), "A").as_matrix()) ** 2
                q = simon_row_bit_prob(phi0, phi1)
                assert abs(joint[:, 0].sum() - (1.0 - q)) <= 1e-12
                informative = joint[:, 1] / joint[:, 1].sum()
                assert np.max(np.abs(informative - np.eye(1 << n)[a])) <= 1e-12
                for seed in range(200):
                    rng = RandomSource(seed)
                    found = _bv_shot(mask, q, rng)
                    assert rng.draws == 1
                    assert found is None or found == a


def test_factored_samplers_keep_input_checks():
    nan = np.array([np.nan, np.nan], dtype=complex)
    for oracle in (simon_build(3, 5), simon_build(3, 5, scramble_seed=4)):
        with pytest.raises(ResampleError):
            simon_sample_factored(oracle, nan, nan, RandomSource(0))
        with pytest.raises(DomainError):
            simon_sample_factored(oracle, 2 * E0, E1, RandomSource(0))


@pytest.mark.parametrize("n,a", [(3, 5), (4, 0b1000), (5, 0b10110), (6, 0b100000), (7, 0b1011011)])
def test_linear_simon_row_law_equals_dense_average(n, a):
    # P(x = L^T z) = prod_k q^z_k (1-q)^(1-z_k) against the output-marginal
    # average of the dense conditionals; pivots on the top bit for 0b1000, 0b100000
    oracle = simon_build(n, a)
    m = n - 1
    for phi0, phi1 in [(E0, E1), evolved_branches(1.0), evolved_branches(5.0)]:
        state = assemble(oracle, phi0, phi1)
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
    phi0, phi1 = evolved_branches(1.0)
    for n, a in [(2, 3), (9, 0b100000000), (60, (1 << 59) | 1)]:
        oracle = simon_build(n, a)
        rng = RandomSource(n)
        x = simon_sample_factored(oracle, phi0, phi1, rng)
        assert rng.draws == n - 1
        assert dot2(x, a) == 0


class ScriptedRowBits(RandomSource):
    """Forces the row bits z (uniform 0 sets a bit, 1 clears it), then draws ``row_uniform``.

    A block of uniforms is scripted as that many single draws.
    """

    def __init__(self, z: int, m: int, row_uniform: float = 0.0):
        super().__init__(0)
        self.z, self.m, self.row_uniform = z, m, row_uniform

    def uniform(self) -> float:
        k = self.draws
        self.draws += 1
        if k < self.m:
            return 0.0 if (self.z >> k) & 1 else 1.0
        return self.row_uniform

    def fill(self, out: np.ndarray) -> None:
        out.flat[:] = [self.uniform() for _ in range(out.size)]


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
        for phi0, phi1 in [(E0, E1), evolved_branches(1.0), evolved_branches(5.0)]:
            state = assemble(oracle, phi0, phi1)
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


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("scrambled", [False, True])
def test_a_row_stays_in_a_hyperplane_with_probability_at_most_max_q(n, scrambled):
    # the bound the default shot budget rests on, from exact row laws: every
    # hyperplane {x : c.x = 0} of a-perp, c not in {0, a}, holds row mass at
    # most max(q, 1 - q), so a row misses a new rank no more often than that
    x = np.arange(1 << n)
    for a in (1, 1 << (n - 1), (1 << n) - 1, 0b110 ^ n):
        oracle = simon_build(n, a, scramble_seed=n * a if scrambled else None)
        for T in (0.5, 1.0, 5.77, 50.0):
            phi0, phi1 = protocols.branch_pair(T, round(100 * T))
            marginal = np.sum(np.abs(assemble(oracle, phi0, phi1).as_matrix()) ** 2, axis=0)
            law = sum(
                marginal[y] * simon_factored_x_probs(oracle, phi0, phi1, y)
                for y in range(1 << (n - 1))
            )
            q = simon_row_bit_prob(phi0, phi1)
            in_a_perp = np.bitwise_count(x & a) % 2 == 0
            assert law[in_a_perp].sum() == pytest.approx(1.0, abs=1e-12)
            for c in set(range(1, 1 << n)) - {a}:
                mass = law[in_a_perp & (np.bitwise_count(x & c) % 2 == 0)].sum()
                assert mass <= max(q, 1 - q) + 1e-12, (a, T, c)


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
    phi0, phi1 = evolved_branches(1.0)
    oracle = simon_build(20, 0b1011_0000_1110_0101_0011, scramble_seed=5)
    tracemalloc.start()
    try:
        simon_sample_factored(oracle, phi0, phi1, RandomSource(3, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * oracle.scramble.nbytes


def test_scrambled_row_peak_stays_below_one_float64_sign_vector_at_n20():
    # the uint8 parities, the int8 fold and the half-length float64 vector
    # after the top bit; z sets every output bit
    oracle = simon_build(20, 0b1011_0000_1110_0101_0011, scramble_seed=5)
    tracemalloc.start()
    try:
        _scrambled_row(oracle, (1 << 19) - 1, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (1 << 19)


def float64_descent_row(oracle, z: int, u: float) -> int:
    """The scrambled row by the descent over all 2^(n-1) float64 signs, one einsum a level."""
    if not z:
        return simon_orthogonal_row(oracle, 0)
    parity = np.bitwise_count(oracle.scramble & z)
    parity &= 1
    v = parity.astype(np.float64)
    v *= -2.0
    v += 1.0
    target = u * float(v.size) ** 2
    t = 0
    while v.size > 1:
        half = v.size // 2
        lo, hi = v[:half], v[half:]
        lo += hi
        left = half * float(np.einsum("i,i->", lo, lo))
        t <<= 1
        if target >= left:
            target -= left
            lo -= hi
            lo -= hi
            t |= 1
        v = lo
    assert v[0] != 0
    return simon_orthogonal_row(oracle, t)


def test_scrambled_row_equals_the_float64_descent():
    # n >= 17 takes dot products of more than 10,000 elements; for n <= 10
    # the row uniform also sits on both edges of each label's CDF interval,
    # as in the inverse-CDF test above
    picks = np.random.default_rng(15)
    cases = 0
    for n in range(2, 19):
        m = n - 1
        oracle = simon_build(n, int(picks.integers(1, 1 << n)), int(picks.integers(1 << 31)))
        zs = [0, (1 << m) - 1, *picks.integers(0, 1 << m, 40 if n <= 14 else 3).tolist()]
        for k, z in enumerate(zs):
            us = picks.random(10).tolist()
            if n <= 10 and k < 4:
                masses = walsh_masses(oracle.scramble, z)
                cdf = np.concatenate(([0.0], np.cumsum(masses))) / float(4**m)
                for t in np.flatnonzero(masses):
                    us += [cdf[t], np.nextafter(cdf[t + 1], 0.0)]
            for u in us:
                assert _scrambled_row(oracle, z, float(u)) == float64_descent_row(oracle, z, float(u))
            cases += len(us)
    assert cases >= 10_000


def test_seeded_scrambled_run_at_n20_equals_the_float64_descent(monkeypatch):
    sources = []  # the run's source, new or taken from the free list, is the one reseed keys
    reseed = RandomSource.reseed

    def recording_reseed(self, *args):
        sources.append(self)
        reseed(self, *args)

    monkeypatch.setattr(RandomSource, "reseed", recording_reseed)
    cfg = RunConfig(problem="simon", n=20, a=0b1011_0000_1110_0101_0011, seed=20, scramble_seed=5)
    runs = []
    for kernel in (_scrambled_row, float64_descent_row):
        monkeypatch.setattr(measurement, "_scrambled_row", kernel)
        report = run_simon(cfg)
        runs.append((replace(report, wall_time=0.0), sources[-1].draws))
    assert len(sources) == 2  # one per run
    assert runs[0] == runs[1]
    assert runs[0][0].success and runs[0][1] == 20 * runs[0][0].quantum_runs


def test_scrambled_simon_sampler_draws_and_orthogonality_at_n20():
    phi0, phi1 = evolved_branches(1.0)
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
