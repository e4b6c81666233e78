"""The capacity rule: every dense builder refuses above the qubit cap before allocating.

2^n arrays (states, problem diagonals, oracle label tables, the gap scan's
subspace basis) are capped at DENSE_QUBIT_CAP qubits, the one cap constant.
"""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from adiabatic_sim.errors import CapacityError, DomainError
from adiabatic_sim.evolution import assemble
from adiabatic_sim.hamiltonians import InterpolatedHamiltonian, interpolated, min_gap_scan
from adiabatic_sim.oracles import BvMask, simon_build
from adiabatic_sim.qstate import DENSE_QUBIT_CAP, check_capacity, plus_state

E0 = np.array([1.0, 0.0])
E1 = np.array([0.0, 1.0])
# one qubit over the cap: n + 1 qubits for BV, n + (n - 1) for Simon
OVER = DENSE_QUBIT_CAP + 1

BUILDERS = {
    "check_capacity": lambda: check_capacity(OVER),
    "plus_state": lambda: plus_state(OVER - 1, 1),
    "bv_interpolated": lambda: interpolated(BvMask(OVER - 1, 1)),
    "simon_interpolated": lambda: interpolated(simon_build((OVER + 1) // 2, 1)),
    "assemble_bv": lambda: assemble(BvMask(OVER - 1, 1), E0, E1),
    "assemble_simon": lambda: assemble(simon_build((OVER + 1) // 2, 1), E0, E1),
    "simon_outputs": lambda: simon_build(OVER, 1).outputs(),
    "bv_outputs": lambda: BvMask(OVER, 1).outputs(),
    "scramble": lambda: simon_build(OVER, 1, scramble_seed=0),
    # a hand-built Hamiltonian on OVER qubits reaches the scan's own refusal
    "min_gap_scan": lambda: min_gap_scan(InterpolatedHamiltonian(np.zeros(1), (OVER - 1, 1)), 5),
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


def test_the_only_cap_constant_is_the_dense_qubit_cap():
    # one capacity rule: a new module-level *_CAP constant in src/ fails here
    package = Path(__file__).resolve().parent.parent / "src" / "adiabatic_sim"
    caps = {
        target.id
        for path in package.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.endswith("_CAP")
    }
    assert caps == {"DENSE_QUBIT_CAP"}
