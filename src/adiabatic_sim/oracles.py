"""Black-box oracles: the Bernstein-Vazirani parity function and Simon's 2-to-1 function.

The BV oracle is f(w) = w . a mod 2 (bitwise dot product with a hidden mask).
The Simon oracle g maps n-bit inputs onto (n-1)-bit outputs and is constant
exactly on the cosets {w, w xor a} of a hidden nonzero mask a.

Construction of g: let j be the lowest set bit of a.  Every coset contains
exactly one representative whose bit j is clear; deleting bit j from that
representative is a bijection onto {0,1}^(n-1).  An optional seeded
permutation of the output labels ("scramble") hides this canonical structure
from anything that might accidentally exploit it.  No oracle keeps a 2^n
table: g(w) is evaluated by that O(1) rule and, when scrambled, one lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, PromiseError
from .qstate import check_capacity


@dataclass(frozen=True)
class BvMask:
    """Hidden n-bit mask a of the Bernstein-Vazirani function (a = 0 allowed)."""

    n: int
    a: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError("BV mask needs at least one bit")
        if not 0 <= self.a < (1 << self.n):
            raise DomainError(f"mask {self.a} out of range for {self.n} bits")


def bv_eval(mask: BvMask, w: int) -> int:
    """f(w): parity of the bitwise AND of w with the hidden mask."""
    if not 0 <= w < (1 << mask.n):
        raise DomainError(f"input {w} out of range for {mask.n} bits")
    return (w & mask.a).bit_count() & 1


def bv_eval_all(mask: BvMask) -> np.ndarray:
    """Vector of f(w) for all w < 2**n (refused above the dense-array cap)."""
    check_capacity(mask.n)
    return np.bitwise_count(np.arange(1 << mask.n) & mask.a) & 1


def hamming(y: int, z: int) -> int:
    """Number of differing bits between y and z."""
    return (y ^ z).bit_count()


@dataclass(frozen=True)
class SimonOracle:
    """Black box g with g(w) == g(y) iff w == y or w xor y == a.

    ``scramble`` is an optional permutation of the 2**(n-1) output labels
    applied after the O(1) canonical rule; no table of g is kept.
    """

    n: int
    a: int
    pivot_bit: int
    scramble_seed: Optional[int] = None
    scramble: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DomainError("Simon oracle needs at least two bits")
        if not 0 < self.a < (1 << self.n):
            raise PromiseError(
                "the xor-mask must be a positive n-bit integer; a 2-to-1 map "
                "onto (n-1)-bit outputs cannot exist otherwise"
            )


def _canonical_g(n: int, a: int, pivot: int, w):
    """g before scrambling: drop the pivot bit from the coset representative.

    Works elementwise on ints or integer arrays.
    """
    rep = w ^ (a * ((w >> pivot) & 1))
    low = rep & ((1 << pivot) - 1)
    high = (rep >> (pivot + 1)) << pivot
    return high | low


def simon_build(n: int, a: int, scramble_seed: Optional[int] = None) -> SimonOracle:
    """Construct a Simon oracle for mask a, optionally scrambling output labels.

    Scrambling materializes a permutation of 2**(n-1) labels, so it is
    refused (CapacityError) above ``qstate.DENSE_QUBIT_CAP`` input qubits.
    """
    if n < 2:
        raise DomainError("Simon oracle needs at least two bits")
    if not 0 < a < (1 << n):
        raise PromiseError(f"xor-mask must satisfy 0 < a < 2^{n}, got {a}")
    pivot = (a & -a).bit_length() - 1

    scramble = None
    if scramble_seed is not None:
        if scramble_seed < 0:
            raise DomainError(f"scramble_seed must be non-negative, got {scramble_seed}")
        check_capacity(n)
        rng = np.random.default_rng(scramble_seed)
        scramble = rng.permutation(1 << (n - 1)).astype(np.int64)
        scramble.flags.writeable = False

    return SimonOracle(
        n=n,
        a=a,
        pivot_bit=pivot,
        scramble_seed=scramble_seed,
        scramble=scramble,
    )


def simon_eval(oracle: SimonOracle, w: int) -> int:
    """g(w) as an (n-1)-bit integer."""
    if not 0 <= w < (1 << oracle.n):
        raise DomainError(f"input {w} out of range for {oracle.n} bits")
    g = _canonical_g(oracle.n, oracle.a, oracle.pivot_bit, w)
    if oracle.scramble is not None:
        g = int(oracle.scramble[g])
    return int(g)


def simon_orthogonal_row(oracle: SimonOracle, t: int) -> int:
    """The x with x . a = 0 that is t with the pivot bit j re-inserted.

    Bit j of x is t . drop_j(a), the one choice that makes x orthogonal to a.
    For the unscrambled oracle, g(w) = L w drops bit j of w xor w_j a, and this
    x is the transpose x = L^T t: x . w = t . g(w) for every input w.
    """
    j = oracle.pivot_bit
    low_mask = (1 << j) - 1
    a_dropped = ((oracle.a >> (j + 1)) << j) | (oracle.a & low_mask)
    x_j = (t & a_dropped).bit_count() & 1
    return ((t >> j) << (j + 1)) | (x_j << j) | (t & low_mask)


def simon_eval_all(oracle: SimonOracle) -> np.ndarray:
    """Vector of g(w) for all w < 2**n (refused above the dense-array cap)."""
    check_capacity(oracle.n)
    w_all = np.arange(1 << oracle.n, dtype=np.int64)
    g = _canonical_g(oracle.n, oracle.a, oracle.pivot_bit, w_all)
    if oracle.scramble is not None:
        g = oracle.scramble[g]
    return g


@dataclass(frozen=True)
class PromiseReport:
    holds: bool
    witness: Optional[tuple] = None


def verify_promise(oracle: SimonOracle) -> PromiseReport:
    """Exhaustively check both directions of the 2-to-1 promise.

    Returns a violating input pair as witness when the promise fails.
    """
    g = simon_eval_all(oracle)
    seen: dict[int, int] = {}
    for w in range(1 << oracle.n):
        gw = int(g[w])
        if gw in seen:
            y = seen[gw]
            if w ^ y != oracle.a:
                return PromiseReport(False, (y, w))
        else:
            seen[gw] = w
    for w in range(1 << oracle.n):
        if g[w] != g[w ^ oracle.a]:
            return PromiseReport(False, (w, w ^ oracle.a))
    return PromiseReport(True, None)
