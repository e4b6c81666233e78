"""Seeded sampling of both algorithms' readouts, dense and factored.

Both readouts measure the output register, then the input register in the
x basis.  The dense readouts sample that two-stage law straight from the
final state's (input, output) amplitude matrix: the output outcome from its
column marginal (after a Walsh transform of the output qubit for BV, which
measures it in x), then the input register's x outcome from the Walsh
transform of the one column that outcome selects.  No post-measurement
state is built.  x outcomes are labeled with bit 0 <-> |+> and bit 1 <-> |->.

Randomness flows through ``RandomSource``, a counter-based (Philox) generator:
identical (seed, stream) plus an identical sequence of draw calls reproduces
identical outcomes.  Samplers draw in a fixed documented order so whole runs
replay bit-for-bit; parallel shots must use streams derived per shot.  A run
keeps one source and re-keys it to each shot's stream with ``restart``,
which draws exactly what a new source on that stream would.  Both steps
cost about a key write: a source seeds its Philox with zero words instead of
a ``SeedSequence``, and ``restart`` writes the (seed, stream) key words, held
as Python ints, with a zero counter and an empty buffer.

The factored readouts sample the exact outcome law of the assembled state
from the two branch vectors alone.  Every output qubit ends in phi_{f_k(w)}
with phi_1 = sigma_x phi_0, so measuring the output register in the x basis
gives iid row bits z_k ~ Bernoulli(q), q = ||phi_0 - phi_1||^2 / 4, and
leaves the input register proportional to sum_w (-1)^(z . f(w)) |w>.  q
depends on the anneal alone, and ``_read_factored(oracle, q, rng, streams)``
reads a block of shots, each on its own stream.  A shot draws z first, one
uniform per output bit, ascending (z_k = 1 iff the uniform is below q):
one row of a (shots, width) block of the values scalar draws would give,
whose z are read off 64 bits per integer matrix product, of any width:

* BV, one draw per shot, compared with q as a float, so a BV block builds
  no array.  z = 0 restarts; z = 1 leaves the input register on the Walsh
  point a, which is returned.
* Simon, the row x = L^T z for an unscrambled (linear) oracle, O(n) per
  shot; for a scrambled one, one more uniform for the row and a bit-by-bit
  descent through the Walsh spectrum of 2^(n-1) labels, O(2^(n-1)) per row,
  skipped at z = 0, whose spectrum is the single label 0.  The descent
  counts uint8 label parities for its top bit and then takes one dot
  product per bit; every mass it compares is an exact integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, ResampleError
from .evolution import check_branch_vector
from .oracles import BvMask, SimonOracle, simon_eval_all, simon_orthogonal_row
from .qstate import StateVector, _fwht_inplace


class _ZeroSeedSequence(np.random.bit_generator.ISeedSequence):
    """Seeds a Philox with zero words: its key and counter are then set by ``restart``.

    Philox(key=...) would read OS entropy for an unused seed sequence, and a
    ``SeedSequence`` would hash a key that ``restart`` overwrites at once.
    """

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


_ZERO_SEED_SEQUENCE = _ZeroSeedSequence()
_ZERO_WORDS = (0, 0, 0, 0)
_POWERS_OF_TWO = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


class RandomSource:
    """Seeded counter-based random stream (numpy Philox under the hood).

    The Philox key is (seed, stream) mod 2^64 and the counter starts at zero.
    Distinct streams of one seed are independent.  ``restart(stream)`` re-keys
    the one generator: Philox output is a pure function of key and counter, so
    the draws that follow are those of a new ``RandomSource(seed, stream)``.
    ``draws`` counts every draw since construction, restarts included, for
    run-record provenance.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self._key = [self.seed & 0xFFFFFFFFFFFFFFFF, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO_WORDS, "key": self._key},
            "buffer": _ZERO_WORDS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._bit_generator = np.random.Philox(_ZERO_SEED_SEQUENCE)
        self._gen = np.random.Generator(self._bit_generator)
        self.draws = 0
        self.restart(stream)

    def restart(self, stream: int) -> None:
        """Re-key to (seed, stream), zero the counter and drop buffered words."""
        self.stream = int(stream)
        self._key[1] = self.stream & 0xFFFFFFFFFFFFFFFF
        self._bit_generator.state = self._state

    def uniform(self) -> float:
        self.draws += 1
        return float(self._gen.random())

    def fill(self, out: np.ndarray) -> None:
        """Overwrite ``out`` with the values ``out.size`` ``uniform()`` calls return."""
        self.draws += out.size
        self._gen.random(out=out)

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound): one integer draw for a bound up to 2^64.

        Above 2^64 each attempt reads ceil(bits / 64) raw words as one integer,
        first word lowest, and keeps its top ``bits`` bits, the width of
        bound - 1, until they fall below bound; ``draws`` counts the words.
        """
        if bound < 1:
            raise DomainError(f"randrange bound must be at least 1, got {bound}")
        if bound <= 1 << 64:
            self.draws += 1
            return int(self._gen.integers(bound, dtype=np.uint64))
        bits = (bound - 1).bit_length()
        words = -(-bits // 64)
        value = bound
        while value >= bound:
            self.draws += words
            raw = self._bit_generator.random_raw(words).tobytes()
            value = int.from_bytes(raw, "little") >> (64 * words - bits)
        return value

    def sample_index(self, probs: np.ndarray) -> int:
        """Draw an index with the given (unnormalized) probability weights."""
        cum = np.cumsum(probs)
        total = cum[-1]
        if not total > 0:
            raise ResampleError("measurement weights sum to zero")
        idx = int(np.searchsorted(cum, self.uniform() * total, side="right"))
        idx = min(idx, len(probs) - 1)
        if not probs[idx] > 0:
            raise ResampleError("sampled a zero-probability branch")
        return idx


@dataclass(frozen=True)
class BvReadout:
    restart: bool
    a_candidate: Optional[int] = None


_RESTART = BvReadout(restart=True)


def bv_readout(final: StateVector, rng: RandomSource) -> BvReadout:
    """BV readout: x-measure the output qubit, then the input register.

    Outcome |+> on the output qubit carries no mask information, so the
    caller must restart.  Outcome |-> leaves the input register in a product
    of x eigenstates whose orientations spell out the mask bits.
    """
    rotated = final.as_matrix().copy()
    _fwht_inplace(rotated)  # columns indexed by the output register's x outcome
    marginal = (np.abs(rotated) ** 2).sum(axis=0)
    output = rng.sample_index(marginal)
    if output == 0:
        return BvReadout(restart=True, a_candidate=None)
    a_candidate = _x_outcome(rotated[:, output], marginal[output], rng)
    return BvReadout(restart=False, a_candidate=a_candidate)


def simon_sample(final: StateVector, rng: RandomSource) -> int:
    """Simon readout: z-measure the output register, then x-measure the input.

    The returned x outcome is orthogonal (mod 2) to the hidden mask.
    """
    mat = final.as_matrix()
    marginal = (np.abs(mat) ** 2).sum(axis=0)
    output = rng.sample_index(marginal)
    return _x_outcome(mat[:, output], marginal[output], rng)


def _x_outcome(column: np.ndarray, weight: float, rng: RandomSource) -> int:
    """The input register's x outcome given the output outcome that selects ``column``.

    ``weight`` is the column's squared norm, the output outcome's probability.
    """
    conditional = column / math.sqrt(weight)
    _fwht_inplace(conditional)
    return rng.sample_index(np.abs(conditional) ** 2)


def simon_factored_x_probs(
    oracle: SimonOracle, phi0: np.ndarray, phi1: np.ndarray, y: int
) -> np.ndarray:
    """Exact x-outcome distribution of the input register given output y.

    The y-conditional reference that tests average to check the sampler.
    The unnormalized branch amplitudes are prod_k phi_{g_k(w)}[y_k]; grouping
    the factors by the four (g_k, y_k) bit combinations leaves popcounts.
    """
    g = np.asarray(simon_eval_all(oracle))
    c11 = np.bitwise_count(g & y)
    c10 = int(y).bit_count() - c11           # g_k=0, y_k=1
    c01 = np.bitwise_count(g) - c11          # g_k=1, y_k=0
    c00 = oracle.n - 1 - c11 - c10 - c01
    phi0 = np.asarray(phi0, dtype=np.complex128)
    phi1 = np.asarray(phi1, dtype=np.complex128)
    alpha = phi0[0] ** c00 * phi1[0] ** c01 * phi0[1] ** c10 * phi1[1] ** c11
    norm = np.linalg.norm(alpha)
    if not norm > 0:
        raise ResampleError("conditional branch weights underflowed to zero")
    alpha = (alpha / norm).reshape(1, -1)
    _fwht_inplace(alpha)
    return np.abs(alpha.reshape(-1)) ** 2


def simon_row_bit_prob(phi0: np.ndarray, phi1: np.ndarray) -> float:
    """q = ||phi_0 - phi_1||^2 / 4, the Bernoulli parameter of each row bit z_k.

    For a linear g(w) = L w, expanding phi_{g_k}[y_k] over the parity of g_k
    and summing the joint (y, x) law over the unobserved y leaves
    P(x = L^T z) = prod_k q^z_k (1-q)^(1-z_k), with 1 - q = ||phi_0 + phi_1||^2 / 4.
    """
    phi0 = check_branch_vector(phi0)
    phi1 = check_branch_vector(phi1)
    plus = float(np.vdot(phi0 + phi1, phi0 + phi1).real)
    minus = float(np.vdot(phi0 - phi1, phi0 - phi1).real)
    total = plus + minus
    if not total > 0:
        raise ResampleError("row bit weights sum to zero")
    return minus / total


def _row_bits(q: float, u: np.ndarray) -> list:
    """Each shot's output register x outcome z, bit k 1 iff u[shot, k] < q, of any
    width: one exact uint64 product per 64 columns, the words joined as ints."""
    zs = ((u[:, :64] < q) @ _POWERS_OF_TWO[: u.shape[1]]).tolist()
    for k in range(64, u.shape[1], 64):
        words = ((u[:, k:k + 64] < q) @ _POWERS_OF_TWO[: u.shape[1] - k]).tolist()
        zs = [z | word << k for z, word in zip(zs, words)]
    return zs


def simon_sample_factored(
    oracle: SimonOracle, phi0: np.ndarray, phi1: np.ndarray, rng: RandomSource
) -> int:
    """One Simon readout from the branch vectors alone, drawn from ``rng``.

    It follows the law of ``simon_sample`` on the assembled state (see the
    module notes); a scrambled oracle needs a real overlap <phi_0|phi_1>,
    as phi_1 = sigma_x phi_0 gives.
    """
    q = simon_row_bit_prob(phi0, phi1)
    if oracle.scramble is not None and abs(np.vdot(phi0, phi1).imag) > 1e-9:
        raise DomainError("scrambled Simon sampling needs a real branch overlap <phi_0|phi_1>")
    u = np.empty((1, oracle.n - (oracle.scramble is None)))
    rng.fill(u)
    return _readout(oracle, q, u)[0]


def _read_factored(
    oracle: BvMask | SimonOracle, q: float, rng: RandomSource, streams: range
) -> list:
    """The shots on ``streams`` at row-bit probability q, each after ``rng.restart(stream)``;
    a BV shot's one uniform is read as a float, so a BV block builds no array."""
    if isinstance(oracle, BvMask):
        found, shots = BvReadout(False, oracle.a), []
        for stream in streams:
            rng.restart(stream)
            shots.append(found if rng.uniform() < q else _RESTART)
        return shots
    u = np.empty((len(streams), oracle.n - (oracle.scramble is None)))
    for row, stream in zip(u, streams):
        rng.restart(stream)
        rng.fill(row)
    return _readout(oracle, q, u)


def _readout(oracle: SimonOracle, q: float, u: np.ndarray) -> list:
    """The Simon rows of the shots whose uniforms are the rows of u."""
    m = oracle.n - 1
    zs = _row_bits(q, u[:, :m])
    if oracle.scramble is None:
        return [simon_orthogonal_row(oracle, z) for z in zs]
    return [_scrambled_row(oracle, z, w) for z, w in zip(zs, u[:, m].tolist())]


def _scrambled_row(oracle: SimonOracle, z: int, u: float) -> int:
    """The row of a scrambled shot with output outcome z and descent uniform u.

    Its label t is the one whose Walsh mass S(t)^2 holds u of the total, t in
    natural order, where S is the unnormalized Walsh transform of the signs
    v(l) = (-1)^(z . scramble[l]) over the N = 2^(n-1) labels l.  At z = 0,
    v = 1 and the spectrum is the single label 0.  Otherwise t is chosen from
    its top bit down: splitting v into halves lo and hi, the labels with that
    bit 0 are the spectrum of lo + hi, of mass (N/2) ||lo + hi||^2 by
    Parseval, and those with it 1 the spectrum of lo - hi.  Each level halves
    v, so the whole draw is O(N).

    The masses are computed exactly, in narrow integers where they fit.  The
    top bit needs only the uint8 parities p of z . scramble[l]: with
    v = 1 - 2p, lo . hi = N/2 - 2 #(p_lo != p_hi).  The chosen half,
    (lo + hi)/2 = 1 - p_lo - p_hi or (lo - hi)/2 = p_hi - p_lo, is formed in
    int8, and the masses below it scale by 1/4.  Each further bit costs one
    dot product lo . hi and one in-place fold, as ||lo +- hi||^2 =
    sq +- 2 lo . hi with sq = ||v||^2 carried along.  Every mass is an
    integer of at most N^2 <= 2^38 and u N^2 / 4 is exact, so the float64
    comparisons are exact: this is the inverse CDF ``searchsorted`` would
    read off the whole spectrum.  The arrays are freed when the row returns.
    """
    if not z:
        return simon_orthogonal_row(oracle, 0)
    parity = np.bitwise_count(oracle.scramble & z)
    parity &= 1
    half = parity.size // 2
    p_lo, p_hi = parity[:half].view(np.int8), parity[half:].view(np.int8)
    differ = int(np.count_nonzero(p_lo != p_hi))
    target = u * float(parity.size) ** 2
    left = half * (parity.size + 2 * (half - 2 * differ))
    if target >= left:
        target -= left
        t, sq, fold = 1, differ, p_hi - p_lo
    else:
        t, sq, fold = 0, half - differ, 1 - p_lo
        fold -= p_hi
    target *= 0.25
    v = fold.astype(np.float64)
    while v.size > 1:
        half = v.size // 2
        lo, hi = v[:half], v[half:]
        # OpenBLAS runs ddot on the calling thread up to 10,000 elements
        # (n <= 16) and may wake its helper threads on longer vectors
        cross = float(np.dot(lo, hi))
        left = half * (sq + 2 * cross)
        t <<= 1
        if target >= left:
            target -= left
            lo -= hi
            sq -= 2 * cross
            t |= 1
        else:
            lo += hi
            sq += 2 * cross
        v = lo
    if v[0] == 0:
        raise ResampleError("sampled a zero-probability branch")
    return simon_orthogonal_row(oracle, t)
