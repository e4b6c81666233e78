"""The capacity rule: every dense builder refuses above its qubit cap before allocating.

2^n arrays (states, problem diagonals, oracle label tables) are capped at
DENSE_QUBIT_CAP qubits; the gap scan's dense operators at DENSE_OPERATOR_CAP.
"""

import tracemalloc

import numpy as np
import pytest

from adiabatic_sim.errors import CapacityError, DomainError
from adiabatic_sim.evolution import assemble_bv, assemble_simon
from adiabatic_sim.hamiltonians import (
    DENSE_OPERATOR_CAP,
    bv_interpolated,
    interpolate,
    min_gap_scan,
    simon_interpolated,
)
from adiabatic_sim.oracles import (
    BvMask,
    bv_eval_all,
    simon_build,
    simon_eval_all,
    verify_promise,
)
from adiabatic_sim.qstate import DENSE_QUBIT_CAP, check_capacity, plus_state

E0 = np.array([1.0, 0.0])
E1 = np.array([0.0, 1.0])
# one qubit over each cap: n + 1 qubits for BV, n + (n - 1) for Simon
OVER = DENSE_QUBIT_CAP + 1
OVER_OP = DENSE_OPERATOR_CAP + 1

BUILDERS = {
    "check_capacity": lambda: check_capacity(OVER),
    "plus_state": lambda: plus_state(OVER - 1, 1),
    "bv_interpolated": lambda: bv_interpolated(BvMask(OVER - 1, 1)),
    "simon_interpolated": lambda: simon_interpolated(simon_build((OVER + 1) // 2, 1)),
    "assemble_bv": lambda: assemble_bv(BvMask(OVER - 1, 1), E0, E1),
    "assemble_simon": lambda: assemble_simon(simon_build((OVER + 1) // 2, 1), E0, E1),
    "simon_eval_all": lambda: simon_eval_all(simon_build(OVER, 1)),
    "bv_eval_all": lambda: bv_eval_all(BvMask(OVER, 1)),
    "verify_promise": lambda: verify_promise(simon_build(OVER, 1)),
    "scramble": lambda: simon_build(OVER, 1, scramble_seed=0),
    # the matrix-free Hamiltonian exists above DENSE_OPERATOR_CAP; its dense form does not
    "interpolate": lambda: interpolate(bv_interpolated(BvMask(OVER_OP - 1, 3)), 0.5),
    "min_gap_scan": lambda: min_gap_scan(bv_interpolated(BvMask(OVER_OP - 1, 3)), grid=5),
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_dense_builders_refuse_above_cap_before_allocation(build):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as refused:
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(refused.value, DomainError)
    assert peak < 1 << 20
