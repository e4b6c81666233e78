"""Projective measurement, collapse, and the readout procedures of both algorithms.

z-basis measurement samples a register's marginal distribution and collapses
to the renormalized conditional state.  x-basis measurement is the Hadamard
sandwich: rotate the register with the Walsh-Hadamard transform, measure in
z, rotate back.  x outcomes are labeled with bit 0 <-> |+> and bit 1 <-> |->.

Randomness flows through ``RandomSource``, a counter-based (Philox) generator:
identical (seed, stream) plus an identical sequence of draw calls reproduces
identical outcomes.  Samplers draw in a fixed documented order so whole runs
replay bit-for-bit; parallel shots must use streams derived per shot.  A run
keeps one source and re-keys it to each shot's stream with ``restart``,
which draws exactly what a new source on that stream would.

The factored readouts sample the exact outcome law of the assembled state
from the two branch vectors alone.  Every output qubit ends in phi_{f_k(w)}
with phi_1 = sigma_x phi_0, so measuring the output register in the x basis
gives iid row bits z_k ~ Bernoulli(q), q = ||phi_0 - phi_1||^2 / 4, and
leaves the input register proportional to sum_w (-1)^(z . f(w)) |w>.  q
depends on the anneal alone, so ``factored_row_bit_prob`` computes it once
and ``_sample_factored(oracle, q, rng)`` reads out each shot.  Every shot
draws z first, one uniform per output bit, ascending (z_k = 1 iff the
uniform is below q); those uniforms are taken as one block per shot, the
same values in the same order as one scalar draw per bit:

* BV, one draw per shot.  z = 0 restarts; z = 1 leaves the input register
  on the Walsh point a, which is returned.
* Simon, the row x = L^T z for an unscrambled (linear) oracle, O(n) per
  shot; for a scrambled one, one more uniform for the row and a bit-by-bit
  descent through the Walsh spectrum of 2^(n-1) labels, O(2^(n-1)) per row.

``bv_sample_factored`` and ``simon_sample_factored`` take the branch vectors
instead of q, for callers that read out one shot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, ResampleError
from .evolution import check_branch_vector
from .oracles import BvMask, SimonOracle, simon_eval_all, simon_orthogonal_row
from .qstate import StateVector, fwht_subsystem, _fwht_inplace


# Seeds the Philox before its key and counter are set through its state:
# Philox(key=...) reads OS entropy for an unused seed sequence.
_FIXED_SEED_SEQUENCE = np.random.SeedSequence(0)
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)


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
        self._key = np.array([self.seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO_COUNTER, "key": self._key},
            "buffer": _ZERO_COUNTER,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._bit_generator = np.random.Philox(_FIXED_SEED_SEQUENCE)
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

    def uniforms(self, count: int) -> np.ndarray:
        """``count`` uniforms in one call: the values ``count`` ``uniform()`` calls return."""
        self.draws += count
        return self._gen.random(count)

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound) from one integer draw; bound <= 2^64."""
        if not 1 <= bound <= 1 << 64:
            raise DomainError(f"randrange bound must be in [1, 2^64], got {bound}")
        self.draws += 1
        return int(self._gen.integers(bound, dtype=np.uint64))

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
class MeasurementRecord:
    basis: str
    subsystem: str
    outcome: int
    post_state: StateVector


def measure_z(psi: StateVector, subsystem: str, rng: RandomSource) -> MeasurementRecord:
    """Projective z-basis measurement of one whole register."""
    if subsystem not in ("A", "B"):
        raise DomainError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
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
    return MeasurementRecord(
        basis="z",
        subsystem=subsystem,
        outcome=outcome,
        post_state=StateVector(psi.num_qubits_a, psi.num_qubits_b, post.reshape(-1)),
    )


def measure_x(psi: StateVector, subsystem: str, rng: RandomSource) -> MeasurementRecord:
    """Projective x-basis measurement: Hadamard, z-measure, Hadamard back."""
    rotated = fwht_subsystem(psi, subsystem)
    record = measure_z(rotated, subsystem, rng)
    post = fwht_subsystem(record.post_state, subsystem)
    return MeasurementRecord(
        basis="x", subsystem=subsystem, outcome=record.outcome, post_state=post
    )


@dataclass(frozen=True)
class BvReadout:
    restart: bool
    a_candidate: Optional[int] = None


def bv_readout(final: StateVector, rng: RandomSource) -> BvReadout:
    """BV readout: x-measure the output qubit, then the input register.

    Outcome |+> on the output qubit carries no mask information, so the
    caller must restart.  Outcome |-> leaves the input register in a product
    of x eigenstates whose orientations spell out the mask bits.
    """
    output = measure_x(final, "B", rng)
    if output.outcome == 0:
        return BvReadout(restart=True, a_candidate=None)
    inputs = measure_x(output.post_state, "A", rng)
    return BvReadout(restart=False, a_candidate=inputs.outcome)


def bv_sample_factored(
    mask: BvMask, phi0: np.ndarray, phi1: np.ndarray, rng: RandomSource
) -> BvReadout:
    """``bv_readout``'s outcome law on the assembled BV state, from the branch vectors.

    The output qubit's x outcome is the one row bit z.  Given z = 1 the input
    register is proportional to sum_w (-1)^(w . a) |w>, whose Walsh transform
    is the single point a, at any T.
    """
    return _sample_factored(mask, factored_row_bit_prob(mask, phi0, phi1), rng)


def simon_sample(final: StateVector, rng: RandomSource) -> int:
    """Simon readout: z-measure the output register, then x-measure the input.

    The returned x outcome is orthogonal (mod 2) to the hidden mask.
    """
    output = measure_z(final, "B", rng)
    inputs = measure_x(output.post_state, "A", rng)
    return inputs.outcome


def _branch_weights(
    oracle: SimonOracle, phi0: np.ndarray, phi1: np.ndarray, y: int
) -> np.ndarray:
    """Unnormalized input-branch amplitudes conditioned on output outcome y.

    weight(w) = prod_k phi_{g_k(w)}[y_k]; grouping the factors by the four
    (g_k, y_k) bit combinations reduces each branch to popcounts.
    """
    m = oracle.n - 1
    g = np.asarray(simon_eval_all(oracle))
    pop_g = np.bitwise_count(g)
    c11 = np.bitwise_count(g & y)
    c10 = int(y).bit_count() - c11           # g_k=0, y_k=1
    c01 = pop_g - c11                        # g_k=1, y_k=0
    c00 = m - c11 - c10 - c01
    phi0 = np.asarray(phi0, dtype=np.complex128)
    phi1 = np.asarray(phi1, dtype=np.complex128)
    return (
        np.power(phi0[0], c00)
        * np.power(phi1[0], c01)
        * np.power(phi0[1], c10)
        * np.power(phi1[1], c11)
    )


def simon_factored_x_probs(
    oracle: SimonOracle, phi0: np.ndarray, phi1: np.ndarray, y: int
) -> np.ndarray:
    """Exact x-outcome distribution of the input register given output y.

    The y-conditional reference that tests average to check the sampler.
    """
    alpha = _branch_weights(oracle, phi0, phi1, y)
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


def factored_row_bit_prob(
    oracle: BvMask | SimonOracle, phi0: np.ndarray, phi1: np.ndarray
) -> float:
    """q for every factored shot of ``oracle`` on the branch pair (phi_0, phi_1).

    A scrambled Simon row also needs a real overlap <phi_0|phi_1> (see
    ``simon_sample_factored``), which phi_1 = sigma_x phi_0 gives.
    """
    q = simon_row_bit_prob(phi0, phi1)
    if getattr(oracle, "scramble", None) is not None and abs(np.vdot(phi0, phi1).imag) > 1e-9:
        raise DomainError("scrambled Simon sampling needs a real branch overlap <phi_0|phi_1>")
    return q


def _row_bits(q: float, bits: int, rng: RandomSource) -> int:
    """The output register's x outcome z: bits iid Bernoulli(q), one uniform each.

    Bit k is 1 iff the k-th uniform of one block of ``bits`` is below q.
    """
    ones = rng.uniforms(bits) < q
    return int.from_bytes(np.packbits(ones, bitorder="little").tobytes(), "little")


def _walsh_descent(v: np.ndarray, u: float) -> int:
    """The label t whose Walsh mass S(t)^2 holds u of the total, t in natural order.

    S is the unnormalized Walsh transform of the integer-valued ``v`` (length
    N = 2^k), overwritten here.  t is chosen from its top bit down: splitting
    v into halves lo and hi, the labels with that bit 0 are the spectrum of
    lo + hi, of mass (N/2) ||lo + hi||^2 by Parseval, and those with it 1 the
    spectrum of lo - hi.  Each level halves v, so the whole draw is O(N).
    With v = +-1 every mass is an integer of at most N^2 <= 2^38 and u N^2 is
    exact, so the float64 comparisons are exact: this is the inverse CDF
    ``searchsorted`` would read off the whole spectrum.
    """
    target = u * float(v.size) ** 2
    t = 0
    while v.size > 1:
        half = v.size // 2
        lo, hi = v[:half], v[half:]
        lo += hi
        # einsum sums in numpy; a BLAS dot may wake its threads on long vectors
        left = half * float(np.einsum("i,i->", lo, lo))
        t <<= 1
        if target >= left:
            target -= left
            lo -= hi
            lo -= hi
            t |= 1
        v = lo
    if v[0] == 0:
        raise ResampleError("sampled a zero-probability branch")
    return t


def simon_sample_factored(
    oracle: SimonOracle, phi0: np.ndarray, phi1: np.ndarray, rng: RandomSource
) -> int:
    """Sample one Simon readout from branch vectors alone.

    Exactly reproduces the distribution of ``simon_sample`` on the assembled
    state.  The input register's x law does not depend on the basis the
    output register is measured in.  In the x basis the output bits z_k are
    iid Bernoulli(q) and, given z, the input register is proportional to
    sum_w (-1)^(z . g(w)) |w>.  A linear oracle's row is then x = L^T z.  For
    a scrambled one the Walsh transform of that register vanishes off
    x . a = 0, and on x . a = 0 it is, up to a factor, the transform of
    s(u) = (-1)^(z . scramble[u]) over the 2^(n-1) canonical labels u, taken
    at x without its pivot bit.  That mixture needs a real overlap
    <phi_0|phi_1>, as phi_1 = sigma_x phi_0 gives.  One more uniform picks
    the label by a bit-by-bit descent through that spectrum, O(2^(n-1)),
    without transforming it whole.
    """
    return _sample_factored(oracle, factored_row_bit_prob(oracle, phi0, phi1), rng)


def _sample_factored(oracle: BvMask | SimonOracle, q: float, rng: RandomSource) -> BvReadout | int:
    """One factored shot at row-bit probability q: a ``BvReadout`` for BV, a row for Simon."""
    if isinstance(oracle, BvMask):
        if _row_bits(q, 1, rng):
            return BvReadout(restart=False, a_candidate=oracle.a)
        return BvReadout(restart=True, a_candidate=None)
    z = _row_bits(q, oracle.n - 1, rng)
    if oracle.scramble is None:
        return simon_orthogonal_row(oracle, z)
    # s(u) = 1 - 2 (popcount(z & scramble[u]) mod 2), with one float array
    parity = np.bitwise_count(oracle.scramble & z)
    parity &= 1
    signs = parity.astype(np.float64)
    signs *= -2.0
    signs += 1.0
    return simon_orthogonal_row(oracle, _walsh_descent(signs, rng.uniform()))
