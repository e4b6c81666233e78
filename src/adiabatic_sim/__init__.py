"""Adiabatic-evolution simulator for the Bernstein-Vazirani and Simon problems.

The package provides dense state vectors and matrix-free Hamiltonians (qstate,
hamiltonians), oracles with Simon's 2-to-1 promise built in (oracles),
Schrodinger propagation in full and branch-factored form (evolution),
seeded sampling of both readouts (measurement), GF(2) mask recovery (gf2),
end-to-end experiment protocols (protocols), and a CLI (cli).
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    ContradictionError,
    DomainError,
    IntegrationError,
    PromiseError,
    ResampleError,
    ShapeError,
    SimulatorError,
)
from .evolution import (
    EvolutionResult,
    Schedule,
    assemble,
    evolve_full,
    evolve_two_level,
)
from .gf2 import Gf2Matrix, recover_mask
from .hamiltonians import (
    InterpolatedHamiltonian,
    TwoLevelBlock,
    gap,
    gap_table,
    interpolated,
)
from .measurement import RandomSource, dense_shot, rotate_output
from .oracles import BvMask, SimonOracle, simon_build
from .protocols import (
    RunConfig,
    RunReport,
    run_bv,
    run_simon,
    sweep,
)
from .qstate import StateVector, plus_state
