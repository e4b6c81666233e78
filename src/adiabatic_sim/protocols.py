"""End-to-end BV and Simon experiments, classical baselines, and sweeps.

A run is: prepare |+>|+>, anneal for time T (path "full" integrates the
dense state, applying H(s) without a matrix; path "factored" integrates the
two branch qubits and samples the product state's readout from them),
measure, repeat per the algorithm's rule, and reduce the collected outcomes
to a mask candidate; both problems share that one shot loop, ``_shoot``.
Every factored readout first draws the output register's x outcome, one
uniform per output qubit: a BV shot is that one draw, an unscrambled Simon
row is O(n), and a scrambled Simon row adds a bit-by-bit descent through the
Walsh spectrum of 2^(n-1) labels, O(2^(n-1)) per row; see ``measurement``.
The factored fidelity is |phi_0[0]^m|^2 for m output qubits.

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
from functools import lru_cache, partial
from typing import Callable, Optional

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
from .oracles import BvMask, SimonOracle, bv_eval, simon_build, simon_eval
from .qstate import StateVector, check_capacity, plus_state

DEFAULT_TIME = 50.0
DEFAULT_STEPS = 5000
BV_MAX_REPEATS = 64
SIMON_EXTRA_REPEATS = 40
# Integer width: factored BV and unscrambled Simon hold no 2^n array, but
# masks are drawn as integers of at most 64 bits.  The full path (2^(input +
# output qubits) amplitudes) and scrambled Simon (2^(n-1) labels) are bound
# by qstate.check_capacity instead.
FACTORED_CAP = 60
# Run time: the full path runs one Python-level Lanczos step per schedule
# step, and the gap scan one diagonalization per grid point.
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
        if self.path == "full":
            check_capacity(self.n + 1 if self.problem == "bv" else 2 * self.n - 1)
        elif self.path == "factored":
            if self.problem == "simon" and self.scramble_seed is not None:
                check_capacity(self.n)
            elif self.n > FACTORED_CAP:
                raise DomainError(f"path=factored caps {self.problem} at n <= {FACTORED_CAP}")
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
        if self.scramble_seed is not None and self.scramble_seed < 0:
            raise DomainError(f"scramble_seed must be non-negative, got {self.scramble_seed}")


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


def _anneal(
    cfg: RunConfig,
    oracle: BvMask | SimonOracle,
    on_final_state: Optional[Callable[[StateVector], None]] = None,
) -> tuple:
    """One anneal serves every shot of a run: (shot, fidelity); shot(rng) reads out once.

    The factored path reads out from the memoized branch pair; the full path
    steps the dense state from |+>|+>, hands it to ``on_final_state`` if
    given, and reads out its final state.
    """
    if cfg.problem == "bv":
        m, assemble, interpolated = 1, assemble_bv, bv_interpolated
        factored_shot, full_shot = bv_sample_factored, bv_readout
    else:
        m, assemble, interpolated = cfg.n - 1, assemble_simon, simon_interpolated
        factored_shot, full_shot = simon_sample_factored, simon_sample
    if cfg.path == "factored":
        phi0, phi1 = branch_pair(cfg.problem, cfg.total_time, cfg.steps)
        return partial(factored_shot, oracle, phi0, phi1), _factored_fidelity(phi0, m)
    sched = Schedule(cfg.total_time, cfg.steps)
    target = assemble(oracle, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    result = evolve_full(interpolated(oracle), plus_state(cfg.n, m), sched, target)
    if on_final_state is not None:
        on_final_state(result.final_state)
    return partial(full_shot, result.final_state), result.fidelity_to_target


def _shoot(
    cfg: RunConfig,
    oracle: BvMask | SimonOracle,
    absorb: Callable[[object], Optional[int]],
    on_final_state: Optional[Callable[[StateVector], None]] = None,
) -> tuple[Optional[int], int, float]:
    """One anneal, then shot i from stream 1 + i until ``absorb`` names a mask.

    Returns (mask or None, shots taken, fidelity); at most cfg.max_repeats shots.
    """
    shot, fidelity = _anneal(cfg, oracle, on_final_state)
    for shots in range(1, cfg.max_repeats + 1):
        found = absorb(shot(RandomSource(cfg.seed, stream=shots)))
        if found is not None:
            return found, shots, float(fidelity)
    return None, cfg.max_repeats, float(fidelity)


def run_bv(cfg: RunConfig) -> RunReport:
    """Repeat prepare/evolve/readout until the informative branch is seen."""
    cfg = resolve_config(cfg)
    if cfg.problem != "bv":
        raise DomainError("run_bv needs a bv config")
    t0 = time.perf_counter()
    found, shots, fidelity = _shoot(cfg, BvMask(cfg.n, cfg.a), lambda r: r.a_candidate)
    return RunReport(
        success=found == cfg.a,
        recovered_a=found,
        quantum_runs=shots,
        restarts=shots - (found is not None),
        rows_collected=0,
        per_run_fidelity=fidelity,
        wall_time=time.perf_counter() - t0,
    )


def run_simon(
    cfg: RunConfig, on_final_state: Optional[Callable[[StateVector], None]] = None
) -> RunReport:
    """Collect orthogonal rows until they pin the mask down, then solve.

    On the full path, ``on_final_state`` (if given) receives the annealed
    state before the first shot.
    """
    cfg = resolve_config(cfg)
    if cfg.problem != "simon":
        raise DomainError("run_simon needs a simon config")
    t0 = time.perf_counter()
    system = Gf2Matrix(cfg.n)

    def absorb(row: int) -> Optional[int]:
        system.add_row(row)
        return recover_mask(system).a_candidate if system.rank == cfg.n - 1 else None

    oracle = simon_build(cfg.n, cfg.a, cfg.scramble_seed)
    found, shots, fidelity = _shoot(cfg, oracle, absorb, on_final_state)
    return RunReport(
        success=found == cfg.a,
        recovered_a=found,
        quantum_runs=shots,
        restarts=0,
        rows_collected=shots,
        per_run_fidelity=fidelity,
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

