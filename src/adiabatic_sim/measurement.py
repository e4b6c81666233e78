"""Projective measurement, collapse, and the readout procedures of both algorithms.

z-basis measurement samples a register's marginal distribution and collapses
to the renormalized conditional state.  x-basis measurement is the Hadamard
sandwich: rotate the register with the Walsh-Hadamard transform, measure in
z, rotate back.  x outcomes are labeled with bit 0 <-> |+> and bit 1 <-> |->.

Randomness flows through ``RandomSource``, a counter-based (Philox) generator:
identical (seed, stream) plus an identical sequence of draw calls reproduces
identical outcomes.  Samplers draw in a fixed documented order so whole runs
replay bit-for-bit; parallel shots must use streams derived per shot.

The factored readouts sample the exact outcome law of the assembled state
from the two branch vectors alone.  Every output qubit ends in phi_{f_k(w)}
with phi_1 = sigma_x phi_0, so measuring the output register in the x basis
gives iid row bits z_k ~ Bernoulli(q), q = ||phi_0 - phi_1||^2 / 4, and
leaves the input register proportional to sum_w (-1)^(z . f(w)) |w>.  Both
samplers draw z first, one uniform per output bit, ascending (z_k = 1 iff
the uniform is below q):

* ``bv_sample_factored``, one draw per shot.  z = 0 restarts; z = 1 leaves
  the input register on the Walsh point a, which is returned.
* ``simon_sample_factored``, the row x = L^T z for an unscrambled (linear)
  oracle, O(n) per shot; for a scrambled one, one real Walsh transform on
  2^(n-1) labels and then one uniform for the row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, ResampleError
from .evolution import check_branch_vector
from .oracles import BvMask, SimonOracle, simon_dual_row, simon_eval_all, simon_orthogonal_row
from .qstate import StateVector, fwht_subsystem, _fwht_inplace


class RandomSource:
    """Seeded counter-based random stream (numpy Philox under the hood).

    Distinct streams of one seed are independent; the draw counter is
    informational, for run-record provenance.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array(
            [self.seed & 0xFFFFFFFFFFFFFFFF, self.stream & 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64,
        )
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self.draws = 0

    def uniform(self) -> float:
        self.draws += 1
        return float(self._gen.random())

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
    if _row_bits(phi0, phi1, 1, rng):
        return BvReadout(restart=False, a_candidate=mask.a)
    return BvReadout(restart=True, a_candidate=None)


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


def _row_bits(phi0: np.ndarray, phi1: np.ndarray, bits: int, rng: RandomSource) -> int:
    """The output register's x outcome z: bits iid Bernoulli(q), one uniform each.

    Bit k is drawn k-th and is 1 iff its uniform is below q.
    """
    q = simon_row_bit_prob(phi0, phi1)
    z = 0
    for k in range(bits):
        if rng.uniform() < q:
            z |= 1 << k
    return z


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
    <phi_0|phi_1>, as phi_1 = sigma_x phi_0 gives.
    """
    z = _row_bits(phi0, phi1, oracle.n - 1, rng)
    if oracle.scramble is None:
        return simon_dual_row(oracle, z)
    if abs(np.vdot(phi0, phi1).imag) > 1e-9:
        raise DomainError("scrambled Simon sampling needs a real branch overlap <phi_0|phi_1>")
    spectrum = 1.0 - 2.0 * (np.bitwise_count(oracle.scramble & z) & 1)
    _fwht_inplace(spectrum)
    return simon_orthogonal_row(oracle, rng.sample_index(spectrum**2))
