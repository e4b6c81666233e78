"""Seeded sampling of both algorithms' readouts, dense and factored.

Both readouts measure the output register in the x basis, then the input
register in the x basis.  The dense readout samples that two-stage law
straight from the final state's (input, output) amplitude matrix, for BV and
Simon alike: ``rotate_output`` Walsh-transforms a copy of the output register
once per run and takes its column marginal, the law of the output outcome z;
each ``dense_shot`` draws z from it and, only when z != 0, the input
register's x outcome from the Walsh transform of the one column z selects.
At z = 0 the output register is in |+...+>, which each branch phi_b
overlaps alike (phi_1 = sigma_x phi_0), so that column is flat in w and its
Walsh transform is the single label 0: the row is 0, and BV restarts.  No
post-measurement state is built.  x outcomes are labeled with bit 0 <-> |+>
and bit 1 <-> |->.

Randomness flows through ``RandomSource``, a counter-based (Philox) generator:
identical (seed, stream) plus an identical sequence of draw calls reproduces
identical outcomes.  Samplers draw in a fixed documented order so whole runs
replay bit-for-bit.  A run re-keys a source with ``reseed`` to stream 0 of
its seed, which draws the mask, then once with ``restart`` to stream 1,
which serves every shot in order: Philox output is a pure function of key
and counter, so one key with a running counter gives shots as independent
as a key per shot.  A sweep re-keys its source to each trial's seed.  A
re-key draws exactly what a new source would: it writes the whole Philox
state, the (seed, stream) key words, held as Python ints, a zero counter,
an empty buffer and no cached 32-bit word; a new source seeds its Philox
with zero words instead of a ``SeedSequence``.  So ``protocols`` keeps its
sources on a free list and builds none per run.

The factored readouts sample the same law from the two branch vectors
alone.  Every output qubit ends in phi_{f_k(w)} with phi_1 = sigma_x phi_0,
so measuring the output register in the x basis gives iid row bits
z_k ~ Bernoulli(q), q = ||phi_0 - phi_1||^2 / 4, and leaves the input
register proportional to sum_w (-1)^(z . f(w)) |w>.  q depends on the
anneal alone.  A shot draws z first, one uniform per output bit, ascending
(z_k = 1 iff the uniform is below q):

* BV, one ``uniform()`` per shot, compared with q as a float by ``_bv_shot``,
  with no array.  z = 0 restarts; z = 1 leaves the input register on the
  Walsh point a, which is returned.
* Simon, ``_read_factored(oracle, q, rng, shots)`` reads the next ``shots``
  rows with one ``fill`` of shots * width uniforms, the values one-shot
  reads in order would draw.  A block of at most ``SHORT_BLOCK`` uniforms
  is read as one list of floats and its z bits set by Python comparisons;
  a longer one reads its z off 64 bits per integer matrix product, of any
  width.  The row is x = L^T z for an unscrambled (linear) oracle, O(n) per
  shot, its pivot masks built once a block; for a scrambled one, one more
  uniform for the row and a bit-by-bit descent through the Walsh spectrum
  of 2^(n-1) labels, O(2^(n-1)) per row, skipped at z = 0, whose spectrum
  is the single label 0.  The descent counts uint8 label parities for its
  top bit and then takes one dot product per bit; every mass it compares is
  an exact integer.  A single row is a block of one: there is no other
  factored Simon sampler.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import DomainError, ResampleError
from .evolution import check_branch_vector
from .oracles import BvMask, SimonOracle, simon_orthogonal_row
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
# _read_factored reads a block of at most this many uniforms as one list and
# compares each with q in Python, about 0.1 us a uniform, where _row_bits'
# boolean matrix, uint64 product and list cost about 3.5 us at any short
# width.  On a 2-core x86-64 VM the two tie at 42 to 44 uniforms (5.9 us),
# the list is 0.2 to 0.4 us faster at 36 to 40 and slower by as much at 48.
SHORT_BLOCK = 44


class RandomSource:
    """Seeded counter-based random stream (numpy Philox under the hood).

    The Philox key is (seed, stream) mod 2^64 and the counter starts at zero.
    Distinct streams of one seed are independent.  ``restart(stream)`` re-keys
    the one generator: Philox output is a pure function of key and counter, so
    the draws that follow are those of a new ``RandomSource(seed, stream)``.
    ``reseed(seed, stream)`` re-keys to another seed too.  ``draws`` counts
    every draw since the last (re)seed, restarts included, for provenance.
    """

    def __init__(self, seed: int, stream: int = 0):
        self._key = [0, 0]
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
        self.reseed(seed, stream)

    def reseed(self, seed: int, stream: int = 0) -> None:
        """Draw from here on what a new ``RandomSource(seed, stream)`` would, for a key write."""
        self.seed = int(seed)
        self._key[0] = self.seed & 0xFFFFFFFFFFFFFFFF
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


def rotate_output(final: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """The final state's (input, output) amplitude matrix, a copy, with the output
    register Walsh-transformed so that column z is output x outcome z, and its
    column marginal, the law of z.  A run rotates once; every shot reads both."""
    rotated = final.as_matrix().copy()
    _fwht_inplace(rotated)
    return rotated, (np.abs(rotated) ** 2).sum(axis=0)


def dense_shot(rotated: np.ndarray, marginal: np.ndarray, rng: RandomSource) -> Optional[int]:
    """The next dense shot from ``rng``: the output outcome z from ``marginal``, then
    the input register's x outcome given z, or None at z = 0, whose row is 0.

    BV keeps the outcome as its mask at z = 1 and restarts at None; a Simon
    row is the outcome, or 0 at None.
    """
    z = rng.sample_index(marginal)
    if not z:
        return None
    conditional = rotated[:, z] / math.sqrt(marginal[z])
    _fwht_inplace(conditional)
    return rng.sample_index(np.abs(conditional) ** 2)


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


def _list_row_bits(q: float, u: list, width: int, m: int) -> list:
    """``_row_bits`` of the rows of ``width`` values that the flat list u holds,
    read off their first m values, by one Python comparison with q each."""
    zs = []
    for start in range(0, len(u), width):
        z = 0
        for k in range(m):
            if u[start + k] < q:
                z |= 1 << k
        zs.append(z)
    return zs


def _row_bits(q: float, u: np.ndarray) -> list:
    """Each shot's output register x outcome z, bit k 1 iff u[shot, k] < q, of any
    width: one exact uint64 product per 64 columns, the words joined as ints."""
    zs = ((u[:, :64] < q) @ _POWERS_OF_TWO[: u.shape[1]]).tolist()
    for k in range(64, u.shape[1], 64):
        words = ((u[:, k:k + 64] < q) @ _POWERS_OF_TWO[: u.shape[1] - k]).tolist()
        zs = [z | word << k for z, word in zip(zs, words)]
    return zs


def _bv_shot(mask: BvMask, q: float, rng: RandomSource) -> Optional[int]:
    """The next BV shot from ``rng`` at row-bit probability q: the mask a if its
    one uniform is below q, else None, a restart."""
    return mask.a if rng.uniform() < q else None


def _read_factored(oracle: SimonOracle, q: float, rng: RandomSource, shots: int) -> list:
    """The next ``shots`` Simon rows from ``rng`` at row-bit probability q, read from one
    fill: m = n - 1 row-bit uniforms a shot, then a scrambled shot's descent uniform."""
    m = oracle.n - 1
    width = m + (oracle.scramble is not None)
    u = np.empty(shots * width)
    rng.fill(u)
    if u.size <= SHORT_BLOCK:
        u = u.tolist()
        zs = _list_row_bits(q, u, width, m)
    else:
        zs = _row_bits(q, u.reshape(shots, width)[:, :m])
    if oracle.scramble is None:
        return _linear_rows(oracle, zs)
    return [_scrambled_row(oracle, z, float(w)) for z, w in zip(zs, u[m::width])]


def _linear_rows(oracle: SimonOracle, zs: list) -> list:
    """The rows L^T z of an unscrambled oracle, each ``simon_orthogonal_row(oracle, z)``,
    with the pivot bit j and a with bit j dropped computed once."""
    j = oracle.pivot_bit
    low_mask = (1 << j) - 1
    a_dropped = ((oracle.a >> (j + 1)) << j) | (oracle.a & low_mask)
    return [((z >> j) << (j + 1)) | (((z & a_dropped).bit_count() & 1) << j) | (z & low_mask)
            for z in zs]


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
