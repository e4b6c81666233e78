"""GF(2) linear algebra on integer bitsets: incremental rank and mask recovery.

Rows are n-bit integers; bit k is column k.  Each stored row encodes one
linear constraint row . v = 0 (mod 2) on the unknown mask.  Elimination is
word-parallel XOR on Python ints.  ``Gf2Matrix.rank`` is kept incrementally,
O(n) word operations per added row, and at rank n - 1 the mask is read off
the echelon basis by back-substitution, O(n) word operations more.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import ContradictionError, DomainError


def dot2(x: int, a: int) -> int:
    """Bitwise dot product mod 2."""
    return (x & a).bit_count() & 1


@dataclass
class Gf2Matrix:
    """Accumulator for measurement rows; zero rows are counted but not stored.

    Rows go in through the constructor or ``add_row``, which also reduce them
    into an echelon basis keyed by leading bit, so ``rank`` is a lookup.
    """

    n_cols: int
    rows: list = field(default_factory=list)
    zero_rows: int = 0
    _basis: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_cols < 1:
            raise DomainError("need at least one column")
        for row in self.rows:
            if not 0 < row < (1 << self.n_cols):
                raise DomainError(f"row {row} out of range (rows must be nonzero)")
            self._reduce(row)

    def _reduce(self, x: int) -> None:
        """Add x to the echelon basis unless the basis already spans it."""
        while x:
            lead = x.bit_length() - 1
            pivot_row = self._basis.get(lead)
            if pivot_row is None:
                self._basis[lead] = x
                return
            x ^= pivot_row

    @property
    def rank(self) -> int:
        """Rank over GF(2) of the rows added so far."""
        return len(self._basis)

    def add_row(self, x: int) -> bool:
        """Record a row; returns False for the (rank-inert) zero row."""
        if not 0 <= x < (1 << self.n_cols):
            raise DomainError(f"row {x} out of range for {self.n_cols} columns")
        if x == 0:
            self.zero_rows += 1
            return False
        self.rows.append(x)
        self._reduce(x)
        return True


@dataclass(frozen=True)
class MaskRecovery:
    status: str  # "unique" | "underdetermined"
    a_candidate: Optional[int] = None


def recover_mask(m: Gf2Matrix) -> MaskRecovery:
    """Solve for the hidden mask once the rows pin it down.

    Rank n - 1 leaves exactly one nonzero solution (the mask); full rank is
    impossible under the promise and flags corrupted input rows.  The mask is
    back-substituted from the echelon basis: the one non-lead column is set,
    and as the basis row with lead k has no bit above k, visiting columns in
    ascending order fixes bit k from the bits below it, O(n) word operations.
    """
    r = m.rank
    if r == m.n_cols:
        raise ContradictionError(
            "rows have full rank; no nonzero mask is orthogonal to all of them"
        )
    if r < m.n_cols - 1:
        return MaskRecovery(status="underdetermined", a_candidate=None)
    mask = 0
    for col in range(m.n_cols):
        row = m._basis.get(col)
        if row is None or (row & mask).bit_count() & 1:
            mask |= 1 << col
    return MaskRecovery(status="unique", a_candidate=mask)
