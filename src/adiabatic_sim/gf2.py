"""GF(2) linear algebra on integer bitsets: incremental rank and mask recovery.

Rows are n-bit integers; bit k is column k.  Each added row encodes one
linear constraint row . v = 0 (mod 2) on the unknown mask.  Only the echelon
basis is kept: n words, word k holding the basis row whose leading bit is k
(0 when there is none).  A row is reduced from its top bit down by word-
parallel XOR, one list index per lead, O(n) word operations, and at rank
n - 1 the mask is read off the basis by back-substitution, O(n) more.
"""

from __future__ import annotations

from typing import Optional

from .errors import ContradictionError, DomainError


class Gf2Matrix:
    """Echelon basis of the measurement rows added so far, and its rank."""

    def __init__(self, n_cols: int) -> None:
        if n_cols < 1:
            raise DomainError("need at least one column")
        self.n_cols = n_cols
        self.rank = 0
        self._basis = [0] * n_cols

    def add_row(self, x: int) -> None:
        """Reduce x against the basis and store it under its lead unless spanned."""
        if not 0 <= x < (1 << self.n_cols):
            raise DomainError(f"row {x} out of range for {self.n_cols} columns")
        basis = self._basis
        while x:
            lead = x.bit_length() - 1
            pivot = basis[lead]
            if not pivot:
                basis[lead] = x
                self.rank += 1
                return
            x ^= pivot


def recover_mask(m: Gf2Matrix) -> Optional[int]:
    """The hidden mask once the rows pin it down, else None (rank below n - 1).

    Rank n - 1 leaves exactly one nonzero solution (the mask); full rank is
    impossible under the promise and flags corrupted input rows.  The mask is
    back-substituted from the echelon basis: the one non-lead column is set,
    and as the basis row with lead k has no bit above k, visiting columns in
    ascending order fixes bit k from the bits below it, O(n) word operations.
    """
    if m.rank == m.n_cols:
        raise ContradictionError(
            "rows have full rank; no nonzero mask is orthogonal to all of them"
        )
    if m.rank < m.n_cols - 1:
        return None
    mask = 0
    for col, row in enumerate(m._basis):
        if not row or (row & mask).bit_count() & 1:
            mask |= 1 << col
    return mask
