"""Adiabatic-evolution simulator for the Bernstein-Vazirani and Simon problems.

The package provides dense state vectors and Hamiltonians (qstate,
hamiltonians), oracles with a verifiable 2-to-1 promise (oracles),
Schrodinger propagation in full and branch-factored form (evolution),
projective measurement and readout (measurement), GF(2) mask recovery (gf2),
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
    assemble_bv,
    assemble_simon,
    evolve_full,
    evolve_two_level,
)
from .gf2 import Gf2Matrix, dot2, nullspace, rank, recover_mask
from .hamiltonians import (
    InterpolatedHamiltonian,
    TwoLevelBlock,
    bv_interpolated,
    gap,
    interpolate,
    min_gap_scan,
    simon_interpolated,
    two_level,
)
from .measurement import (
    BvReadout,
    MeasurementRecord,
    RandomSource,
    bv_readout,
    bv_sample_factored,
    measure_x,
    measure_z,
    simon_sample,
    simon_sample_factored,
)
from .oracles import (
    BvMask,
    SimonOracle,
    bv_eval,
    hamming,
    simon_build,
    simon_eval,
    verify_promise,
)
from .protocols import (
    RunConfig,
    RunReport,
    classical_bv,
    classical_simon,
    run_bv,
    run_simon,
    sweep,
)
from .qstate import StateVector, fwht_subsystem, inner, plus_state
