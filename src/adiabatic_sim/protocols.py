"""End-to-end BV and Simon experiments, classical baselines, and sweeps.

A run is: prepare |+>|+>, anneal for time T (path "full" integrates the
dense state, applying H(s) without a matrix; path "factored" integrates the
two branch qubits and samples the product state's readout from them),
measure, repeat per the algorithm's rule, and reduce the collected outcomes
to a mask candidate.  Every factored readout first draws the output
register's x outcome, one uniform per output qubit: a BV shot is that one
draw, an unscrambled Simon row is O(n), and a scrambled Simon row adds one
real Walsh transform on 2^(n-1) labels; see ``measurement``.  The factored
fidelity is |phi_0[0]^m|^2 for m output qubits.

Randomness discipline (everything derives from RunConfig.seed):
  stream 0          draws the mask when ``a`` is None (one integer draw),
  stream 1 + i      drives the i-th quantum shot (readout or row sample),
  sweep trials      reseed per (value index, trial index) via SeedSequence.
Identical configs therefore reproduce identical reports, wall time aside.

Branch evolutions depend only on (kind, T, steps), so they are memoized;
re-running an evolution for a restart is physically a fresh anneal but
numerically the identical deterministic vector.  A cache miss costs one
vectorized two-level evolution: phi_1 is sigma_x phi_0.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DomainError
from .evolution import (
    Schedule,
    assemble_bv,
    assemble_simon,
    evolve_full,
    evolve_two_level,
)
from .gf2 import Gf2Matrix, recover_mask
from .hamiltonians import TwoLevelBlock, bv_interpolated, simon_interpolated
from .measurement import (
    RandomSource,
    bv_readout,
    bv_sample_factored,
    simon_sample,
    simon_sample_factored,
)
from .oracles import TABLE_CAP_QUBITS, BvMask, SimonOracle, bv_eval, simon_build, simon_eval
from .qstate import plus_state

DEFAULT_TIME = 50.0
DEFAULT_STEPS = 5000
BV_MAX_REPEATS = 64
SIMON_EXTRA_REPEATS = 40
# Factored BV and unscrambled Simon read out in O(n) per shot with no 2^n
# array; scrambled Simon is capped where simon_build caps its label scramble.
FACTORED_CAP = 60
# The full path steps a dense state of 2^total amplitudes, total = input plus
# output qubits, applying H(s) without a matrix.
FULL_CAP_QUBITS = 20
# The full path runs one Python-level Lanczos step per schedule step; larger
# step counts are refused.
MAX_STEPS = 1 << 20


@dataclass(frozen=True)
class RunConfig:
    problem: str
    n: int
    a: Optional[int] = None
    total_time: float = DEFAULT_TIME
    steps: int = DEFAULT_STEPS
    path: str = "factored"
    seed: int = 0
    max_repeats: Optional[int] = None
    scramble_seed: Optional[int] = None

    def validate(self) -> None:
        if self.problem not in ("bv", "simon"):
            raise DomainError(f"unknown problem {self.problem!r}")
        min_n = 1 if self.problem == "bv" else 2
        if self.n < min_n:
            raise DomainError(f"{self.problem} needs n >= {min_n}")
        total = self.n + 1 if self.problem == "bv" else 2 * self.n - 1
        if self.path == "full":
            if total > FULL_CAP_QUBITS:
                raise DomainError(
                    f"path=full steps a dense state on {total} qubits; "
                    f"cap is {FULL_CAP_QUBITS}"
                )
        elif self.path == "factored":
            scrambled = self.problem == "simon" and self.scramble_seed is not None
            cap = TABLE_CAP_QUBITS if scrambled else FACTORED_CAP
            if self.n > cap:
                kind = "scrambled simon" if scrambled else self.problem
                raise DomainError(f"path=factored caps {kind} at n <= {cap}")
        else:
            raise DomainError(f"unknown path {self.path!r}")
        if self.a is not None:
            if not 0 <= self.a < (1 << self.n):
                raise DomainError(f"mask {self.a} out of range for {self.n} bits")
            if self.problem == "simon" and self.a == 0:
                raise DomainError("Simon's promise requires a positive mask")
        if not (self.total_time > 0 and math.isfinite(self.total_time)):
            raise DomainError("total_time must be positive and finite")
        if not 1 <= self.steps <= MAX_STEPS:
            raise DomainError(f"steps must be between 1 and {MAX_STEPS}")
        if self.max_repeats is not None and self.max_repeats < 1:
            raise DomainError("max_repeats must be at least 1")


def resolve_config(cfg: RunConfig) -> RunConfig:
    """Fill in the drawn mask and default repeat budget; idempotent."""
    cfg.validate()
    a = cfg.a
    if a is None:
        rng = RandomSource(cfg.seed, stream=0)
        if cfg.problem == "bv":
            a = rng.randrange(1 << cfg.n)
        else:
            a = 1 + rng.randrange((1 << cfg.n) - 1)
    max_repeats = cfg.max_repeats
    if max_repeats is None:
        max_repeats = BV_MAX_REPEATS if cfg.problem == "bv" else cfg.n + SIMON_EXTRA_REPEATS
    return replace(cfg, a=a, max_repeats=max_repeats)


@dataclass(frozen=True)
class RunReport:
    success: bool
    recovered_a: Optional[int]
    quantum_runs: int
    restarts: int
    rows_collected: int
    per_run_fidelity: float
    wall_time: float


@lru_cache(maxsize=256)
def _branch_pair_cached(kind: str, total_time: float, steps: int):
    # phi_1 = sigma_x phi_0; the integrator makes this exact to the bit
    phi0 = evolve_two_level(TwoLevelBlock(0, kind), Schedule(total_time, steps))
    return tuple(phi0.tolist()), tuple(phi0[::-1].tolist())


def branch_pair(kind: str, total_time: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Memoized (phi_0, phi_1) branch vectors for the given schedule."""
    phi0, phi1 = _branch_pair_cached(kind, total_time, steps)
    return np.array(phi0, dtype=np.complex128), np.array(phi1, dtype=np.complex128)


def _factored_fidelity(phi0: np.ndarray, m: int) -> float:
    """|<target|psi>|^2 of the factored state with m output qubits.

    Each output qubit overlaps its ideal vector e_f(w) by phi_f(w)[f(w)], which
    is phi_0[0] on either branch, as phi_1[1] = phi_0[0]; so the overlap is
    phi_0[0]^m for every oracle.
    """
    return abs(phi0[0] ** m) ** 2


def run_bv(cfg: RunConfig) -> RunReport:
    """Repeat prepare/evolve/readout until the informative branch is seen."""
    cfg = resolve_config(cfg)
    if cfg.problem != "bv":
        raise DomainError("run_bv needs a bv config")
    t0 = time.perf_counter()
    mask = BvMask(cfg.n, cfg.a)

    final = None
    if cfg.path == "factored":
        phi0, phi1 = branch_pair("bv", cfg.total_time, cfg.steps)
        fidelity_value = _factored_fidelity(phi0, 1)
    else:
        sched = Schedule(cfg.total_time, cfg.steps)
        target = assemble_bv(mask, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        result = evolve_full(bv_interpolated(mask), plus_state(cfg.n, 1), sched, target)
        final = result.final_state
        fidelity_value = result.fidelity_to_target

    restarts = 0
    recovered = None
    for attempt in range(cfg.max_repeats):
        rng = RandomSource(cfg.seed, stream=1 + attempt)
        if cfg.path == "factored":
            readout = bv_sample_factored(mask, phi0, phi1, rng)
        else:
            readout = bv_readout(final, rng)
        if readout.restart:
            restarts += 1
            continue
        recovered = readout.a_candidate
        break
    quantum_runs = restarts + (1 if recovered is not None else 0)
    success = recovered == cfg.a
    return RunReport(
        success=success,
        recovered_a=recovered,
        quantum_runs=quantum_runs,
        restarts=restarts,
        rows_collected=0,
        per_run_fidelity=float(fidelity_value),
        wall_time=time.perf_counter() - t0,
    )


def run_simon(cfg: RunConfig) -> RunReport:
    """Collect orthogonal rows until they pin the mask down, then solve."""
    cfg = resolve_config(cfg)
    if cfg.problem != "simon":
        raise DomainError("run_simon needs a simon config")
    t0 = time.perf_counter()
    oracle = simon_build(cfg.n, cfg.a, cfg.scramble_seed)

    final = None
    if cfg.path == "factored":
        phi0, phi1 = branch_pair("simon", cfg.total_time, cfg.steps)
        fidelity_value = _factored_fidelity(phi0, cfg.n - 1)
    else:
        sched = Schedule(cfg.total_time, cfg.steps)
        ideal0 = np.array([1.0, 0.0])
        ideal1 = np.array([0.0, 1.0])
        target = assemble_simon(oracle, ideal0, ideal1)
        result = evolve_full(
            simon_interpolated(oracle), plus_state(cfg.n, cfg.n - 1), sched, target
        )
        final = result.final_state
        fidelity_value = result.fidelity_to_target

    system = Gf2Matrix(cfg.n)
    runs = 0
    while runs < cfg.max_repeats and system.rank < cfg.n - 1:
        rng = RandomSource(cfg.seed, stream=1 + runs)
        if cfg.path == "factored":
            row = simon_sample_factored(oracle, phi0, phi1, rng)
        else:
            row = simon_sample(final, rng)
        system.add_row(row)
        runs += 1

    recovered = None
    success = False
    if system.rank == cfg.n - 1:
        recovery = recover_mask(system)
        recovered = recovery.a_candidate
        success = recovered == cfg.a
    return RunReport(
        success=success,
        recovered_a=recovered,
        quantum_runs=runs,
        restarts=0,
        rows_collected=runs,
        per_run_fidelity=float(fidelity_value),
        wall_time=time.perf_counter() - t0,
    )


def run(cfg: RunConfig) -> RunReport:
    """Dispatch on cfg.problem."""
    return run_bv(cfg) if cfg.problem == "bv" else run_simon(cfg)


@dataclass(frozen=True)
class ClassicalResult:
    queries: int
    a: int


def classical_bv(mask: BvMask) -> ClassicalResult:
    """Probe the powers of two; bit k of the mask is f(2^k).  Exactly n queries."""
    a = 0
    for k in range(mask.n):
        a |= bv_eval(mask, 1 << k) << k
    return ClassicalResult(queries=mask.n, a=a)


def classical_simon(oracle: SimonOracle, rng: RandomSource) -> ClassicalResult:
    """Query distinct random inputs until two collide; their xor is the mask.

    Birthday statistics put the query count near 2^(n/2); a collision is
    forced after at most 2^(n-1) + 1 distinct queries.
    """
    seen: dict[int, int] = {}
    queried: set[int] = set()
    space = 1 << oracle.n
    while True:
        w = rng.randrange(space)
        if w in queried:
            continue
        queried.add(w)
        out = simon_eval(oracle, w)
        if out in seen:
            return ClassicalResult(queries=len(queried), a=seen[out] ^ w)
        seen[out] = w


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    trials: int
    success_rate: float
    mean_fidelity: float
    mean_rows: float
    mean_restarts: float
    wall_ms: float


def _trial_seed(master: int, value_index: int, trial: int) -> int:
    seq = np.random.SeedSequence((master & 0xFFFFFFFFFFFFFFFF, value_index, trial))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def sweep(axis: str, values: list, base: RunConfig, trials: int) -> list[SweepRow]:
    """Run ``trials`` seeded repetitions of ``base`` at each axis value.

    Every per-value config is validated before the first run.
    """
    if axis not in ("n", "T", "steps"):
        raise DomainError(f"unknown sweep axis {axis!r}")
    if not values:
        raise DomainError("sweep needs at least one value")
    if trials < 1:
        raise DomainError("trials must be at least 1")
    configs = []
    for value in values:
        if axis == "n":
            cfg_value = replace(base, n=int(value))
        elif axis == "T":
            cfg_value = replace(base, total_time=float(value))
        else:
            cfg_value = replace(base, steps=int(value))
        cfg_value.validate()
        configs.append(cfg_value)
    rows = []
    for value_index, (value, cfg_value) in enumerate(zip(values, configs)):
        t0 = time.perf_counter()
        reports = []
        for trial in range(trials):
            cfg_trial = replace(cfg_value, seed=_trial_seed(base.seed, value_index, trial))
            reports.append(run(cfg_trial))
        wall_ms = (time.perf_counter() - t0) * 1000.0
        rows.append(
            SweepRow(
                axis_value=float(value),
                trials=trials,
                success_rate=sum(r.success for r in reports) / trials,
                mean_fidelity=sum(r.per_run_fidelity for r in reports) / trials,
                mean_rows=sum(r.rows_collected for r in reports) / trials,
                mean_restarts=sum(r.restarts for r in reports) / trials,
                wall_ms=wall_ms,
            )
        )
    return rows

