"""End-to-end BV and Simon experiments and sweeps.

A run is the algorithm's one loop, in ``_run_seeded``: prepare |+>|+>,
anneal once for time T (path "full" integrates the dense state, applying
H(s) without a matrix; path "factored" integrates the two branch qubits and
samples the product state's readout from them), measure, repeat until the
outcomes pin the mask, then solve.  Shots are read in blocks of those that
cannot end the run: n - 1 - rank for Simon (a row raises the rank by at most
one) and 1 for BV, which stops at its first informative shot.  Factored
shots read the row-bit probability q computed once per schedule: a BV shot
is one ``uniform()`` compared with q, a Simon block reads its
output-register x outcomes together, a linear Simon row costs O(n), and a
scrambled one adds a Walsh descent, O(2^(n-1)); see ``measurement``.  The
factored fidelity is |phi_0[0]^m|^2.  Full-path shots of either problem are
one ``dense_shot`` each on the final state, whose output register is rotated
to the x basis once per run; its fidelity is |sum_w psi[w, f(w)]|^2 / 2^n.
Masks and rows are Python ints of any width; ``qstate.check_capacity``
bounds n.

A run builds no resolved RunConfig: its config fixes ``_schedule`` (steps,
shot budget), its seed the one RandomSource that draws the mask and shots.

Randomness discipline (everything derives from RunConfig.seed):
  the run's source  comes from a free list, built only when the list is
                    empty, and is ``reseed``-ed to stream 0 of the seed,
                    which draws what a new source would; the run returns it
                    to the list when it ends, by return or raise, and a run
                    alive beside another (nested, or on another thread)
                    takes its own,
  stream 0          draws the mask when ``a`` is None (``randrange``: one
                    integer draw up to n = 64, 64-bit words above),
  stream 1          serves every quantum shot (readout or row sample) in
                    order; the run's source is re-keyed to it once, whether
                    or not a mask was drawn, so a config with the drawn mask
                    filled in reads the same shots,
  sweep trials      get their own seed, a bijective mix of the master seed
                    and (value index, trial index), on one source, taken
                    from the free list and ``reseed``-ed per trial, one
                    schedule per value.
Identical configs therefore reproduce identical reports, wall time aside.

A factored run reads q and phi_0[0] off ``evolve_two_level``, memoized per
(T, steps) in ``_branch_law``: an output qubit's branch is that times the
phase exp(-iT/2), which neither value keeps, so BV and Simon runs on one
schedule share one evolution, and a restart re-reads the identical
deterministic vector.  A cache miss costs one vectorized two-level
evolution: phi_1 is sigma_x phi_0.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
import time
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from numbers import Real
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .evolution import Schedule, evolve_full, evolve_two_level
from .gf2 import Gf2Matrix, recover_mask
from .hamiltonians import TwoLevelBlock, interpolated
from .measurement import RandomSource, _bv_shot, _read_factored, dense_shot, rotate_output, simon_row_bit_prob
from .oracles import BvMask, SimonOracle, simon_build
from .qstate import StateVector, check_capacity, plus_state

DEFAULT_TIME = 50.0
# default steps per unit of T: norm drift below 1e-9, branch fidelity at T = 50 above 0.999
STEPS_PER_UNIT_TIME = 100
BUDGET_FAILURE_PROB = 1e-9  # at most this share of working runs exhausts a default budget
# Run time: the full path runs one Python-level Lanczos step per schedule step,
# the gap scan one d x d eigvalsh per grid point; it caps default budgets too.
MAX_STEPS = 1 << 20


@dataclass(frozen=True, slots=True)
class RunConfig:
    """A run's inputs, checked when built (``replace`` too); integer fields are
    stored as Python ints.  A run draws ``a`` and defaults ``steps`` and
    ``max_repeats`` where they are None, as ``resolve_config`` shows."""

    problem: str
    n: int
    a: Optional[int] = None
    total_time: float = DEFAULT_TIME
    steps: Optional[int] = None
    path: str = "factored"
    seed: int = 0
    max_repeats: Optional[int] = None
    scramble_seed: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("n", "a", "steps", "seed", "max_repeats", "scramble_seed"):
            value = getattr(self, name)
            if value is None and name not in ("n", "seed"):
                continue  # drawn or defaulted by resolve_config, or unscrambled
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise DomainError(f"{name} must be an integer, got {value!r}") from None
        if self.problem not in ("bv", "simon"):
            raise DomainError(f"unknown problem {self.problem!r}")
        bv = self.problem == "bv"
        min_n = 1 if bv else 2
        if self.n < min_n:
            raise DomainError(f"{self.problem} needs n >= {min_n}")
        if bv and self.scramble_seed is not None:
            raise DomainError("scramble_seed needs a simon config: a BV oracle has no labels to scramble")
        if self.path == "full":
            check_capacity(self.n + (1 if bv else self.n - 1))  # n + m qubits
        elif self.path == "factored":
            if self.scramble_seed is not None:
                check_capacity(self.n)  # 2^(n-1) labels
            else:  # BV holds less, but shares the bound
                rule = "factored BV takes Simon's bound: a" if bv else "a Simon"
                check_capacity((self.n * (self.n - 1)).bit_length(),
                               f"at n = {self.n}, {rule} shot block of n(n - 1) uniforms")
        else:
            raise DomainError(f"unknown path {self.path!r}")
        if self.a is not None:
            if not 0 <= self.a < (1 << self.n):
                raise DomainError(f"mask {self.a} out of range for {self.n} bits")
            if self.problem == "simon" and self.a == 0:
                raise DomainError("Simon's promise requires a positive mask")
        T = self.total_time
        if isinstance(T, bool) or not (isinstance(T, Real) and 0 < T <= sys.float_info.max):
            raise DomainError(f"total_time must be positive and finite, got {T!r}")
        object.__setattr__(self, "total_time", float(T))
        steps = _steps_for(self)
        if not 1 <= steps <= MAX_STEPS:
            default = "" if self.steps is not None else f" ({STEPS_PER_UNIT_TIME} * T by default)"
            raise DomainError(f"steps must be between 1 and {MAX_STEPS}, got {steps}{default}")
        if self.max_repeats is not None and self.max_repeats < 1:
            raise DomainError("max_repeats must be at least 1")
        if self.scramble_seed is not None and self.scramble_seed < 0:
            raise DomainError(f"scramble_seed must be non-negative, got {self.scramble_seed}")


def _steps_for(cfg: RunConfig) -> int:
    """cfg.steps, or by default STEPS_PER_UNIT_TIME * T rounded, at least 1."""
    if cfg.steps is not None:
        return cfg.steps
    steps = STEPS_PER_UNIT_TIME * cfg.total_time
    if not math.isfinite(steps):
        raise DomainError(f"total_time {cfg.total_time} gives no default steps: "
                          f"{STEPS_PER_UNIT_TIME} * T is not finite")
    return max(1, round(steps))


def _shot_budget(stages: int, s: float) -> float:
    """Shots that leave a run needing ``stages`` successes, each shot one with
    probability at least s, short with probability at most BUDGET_FAILURE_PROB.

    A BV shot succeeds with probability q.  A Simon row is simon_orthogonal_row(t);
    given output bits z, t follows the Walsh spectrum of (-1)^(z.pi(l)), pi = id if
    linear.  By Poisson summation P(t in V | z) = 2^-k sum_{d in V-perp} C_z(d) for V
    of codimension k, C_z the autocorrelation, whose mean over z,
    N^-1 sum_l (1-2q)^|pi(l) xor pi(l xor d)|, is at most |1-2q| for d != 0: a row
    fails to raise the rank with probability at most max(q, 1-q).  The negative
    binomial's Chernoff lower tail gives ceil(mu / s), mu = stages + L + sqrt(L^2 +
    2 stages L), L = -ln BUDGET_FAILURE_PROB; inf if s is 0 or NaN, or mu / s overflows."""
    L = -math.log(BUDGET_FAILURE_PROB)
    mu = stages + L + math.sqrt(L * L + 2 * stages * L)
    need = mu / s if s > 0 else math.inf
    return math.ceil(need) if need < math.inf else need


def _schedule(cfg: RunConfig) -> tuple[int, int]:
    """What cfg fixes for every seed: (steps, shot budget); a default budget,
    read off the branch cache's q, is refused above MAX_STEPS."""
    steps, budget = _steps_for(cfg), cfg.max_repeats
    if budget is None:
        q = _branch_law(cfg.total_time, steps)[0]
        budget = _shot_budget(1, q) if cfg.problem == "bv" else _shot_budget(cfg.n - 1, min(q, 1 - q))
        if not budget <= MAX_STEPS:
            raise DomainError(f"at q = {q:.3g} the default shot budget is {budget} shots, over "
                              f"{MAX_STEPS}, to fail at most {BUDGET_FAILURE_PROB:g} of runs; give max_repeats")
    return steps, budget


# Sources not in use.  A run pops one and appends it back when it ends, so
# the list never holds more than the most runs alive at once; list.pop and
# list.append are atomic, so threads never share a source.
_FREE_SOURCES: list[RandomSource] = []


def _take_source(seed: int) -> RandomSource:
    """A source keyed to stream 0 of seed: a free one re-keyed, else a new one.
    The caller appends it to ``_FREE_SOURCES`` when done with it."""
    try:
        rng = _FREE_SOURCES.pop()
    except IndexError:
        return RandomSource(seed)
    rng.reseed(seed)
    return rng


def _draw_mask(cfg: RunConfig, rng: RandomSource) -> int:
    """cfg.a, or a mask drawn from rng, keyed to stream 0 of cfg.seed."""
    if cfg.a is not None:
        return cfg.a
    if cfg.problem == "bv":
        return rng.randrange(1 << cfg.n)
    return 1 + rng.randrange((1 << cfg.n) - 1)


def _oracle(cfg: RunConfig, a: int) -> BvMask | SimonOracle:
    """The oracle of cfg's problem with mask a, scrambled as cfg says."""
    return BvMask(cfg.n, a) if cfg.problem == "bv" else simon_build(cfg.n, a, cfg.scramble_seed)


def resolve_config(cfg: RunConfig) -> RunConfig:
    """The config a run of cfg resolves to, for the CLI to echo: the drawn mask,
    the steps and the shot budget filled in; idempotent."""
    steps, budget = _schedule(cfg)
    rng = _take_source(cfg.seed)
    try:
        return replace(cfg, a=_draw_mask(cfg, rng), steps=steps, max_repeats=budget)
    finally:
        _FREE_SOURCES.append(rng)


@dataclass(frozen=True, slots=True)
class RunReport:
    success: bool
    recovered_a: Optional[int]
    quantum_runs: int
    restarts: int
    rows_collected: int
    per_run_fidelity: float
    wall_time: float


@lru_cache(maxsize=256)
def _branch_law(total_time: float, steps: int) -> tuple[float, complex]:
    """What factored runs of either problem read off the branch, q and phi_0[0],
    which the phase ``branch_pair`` applies leaves as ``evolve_two_level`` gives them."""
    # phi_1 = sigma_x phi_0, exact to the bit; so <phi_0|phi_1> = 2 Re(conj(a) b)
    # is real and a scrambled row needs no overlap check
    phi0 = evolve_two_level(TwoLevelBlock(0), Schedule(total_time, steps))
    return simon_row_bit_prob(phi0, phi0[::-1]), phi0[0]


def branch_pair(total_time: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """A new (phi_0, phi_1) of the schedule: an output qubit's block is ``TwoLevelBlock``'s
    plus s*1, which sums to T/2 over the midpoints, so its branch is evolve_two_level's
    times exp(-iT/2)."""
    phi0 = evolve_two_level(TwoLevelBlock(0), Schedule(total_time, steps))
    phi0 *= cmath.exp(-0.5j * total_time)
    return phi0, phi0[::-1].copy()


def _run_seeded(cfg: RunConfig, steps: int, budget: int, rng: RandomSource,
                on_final_state: Optional[Callable[[StateVector], None]] = None) -> RunReport:
    """A run of cfg on its ``_schedule``, from ``rng`` keyed to stream 0 of the run's seed.

    One anneal of ``steps`` serves every shot; on the full path, ``on_final_state``
    (if given) receives its final state before the first shot.  The shots are
    read in order from stream 1, in blocks that end where the run can, so no
    shot is drawn past the stop.
    """
    a = _draw_mask(cfg, rng)
    rng.restart(1)
    t0 = time.perf_counter()
    bv = cfg.problem == "bv"
    oracle = _oracle(cfg, a)
    m, system = oracle.m, (None if bv else Gf2Matrix(cfg.n))
    if cfg.path == "factored":
        q, phi00 = _branch_law(cfg.total_time, steps)
        read = partial(_bv_shot if bv else _read_factored, oracle, q, rng)
        # the factored fidelity |<target|psi>|^2: each output qubit overlaps its
        # ideal vector e_f(w) by phi_f(w)[f(w)], which is phi_0[0] on either
        # branch, as phi_1[1] = phi_0[0]; so the overlap is phi_0[0]^m
        fidelity = abs(phi00 ** m) ** 2
    else:
        final = evolve_full(interpolated(oracle), plus_state(cfg.n, m),
                            Schedule(cfg.total_time, steps)).final_state
        if on_final_state is not None:
            on_final_state(final)
        shot = partial(dense_shot, *rotate_output(final), rng)
        read = shot if bv else lambda shots: [shot() or 0 for _ in range(shots)]
        # |<target|psi>|^2 with the ideal target 2^(-n/2) sum_w |w>|f(w)>
        overlap = final.as_matrix()[np.arange(1 << cfg.n), oracle.outputs()].sum()
        fidelity = abs(overlap) ** 2 / (1 << cfg.n)
    shots, found = 0, None
    while found is None and shots < budget:
        if bv:
            found = read()
            shots += 1
        else:
            block = min(m - system.rank, budget - shots)
            for row in read(block):
                system.add_row(row)
            shots += block
            found = recover_mask(system)
    return RunReport(
        success=found == a,
        recovered_a=found,
        quantum_runs=shots,
        restarts=shots - (found is not None) if bv else 0,
        rows_collected=0 if bv else shots,
        per_run_fidelity=float(fidelity),
        wall_time=time.perf_counter() - t0,
    )


def _run_scheduled(cfg: RunConfig,
                   on_final_state: Optional[Callable[[StateVector], None]] = None) -> RunReport:
    """A run of cfg on its ``_schedule``, from a free source keyed to cfg.seed."""
    steps, budget = _schedule(cfg)
    rng = _take_source(cfg.seed)
    try:
        return _run_seeded(cfg, steps, budget, rng, on_final_state)
    finally:
        _FREE_SOURCES.append(rng)


def run_bv(cfg: RunConfig) -> RunReport:
    """Repeat prepare/evolve/readout until the informative branch is seen."""
    if cfg.problem != "bv":
        raise DomainError("run_bv needs a bv config")
    return _run_scheduled(cfg)


def run_simon(
    cfg: RunConfig, on_final_state: Optional[Callable[[StateVector], None]] = None
) -> RunReport:
    """Collect orthogonal rows until they pin the mask down, then solve.

    On the full path, ``on_final_state`` (if given) receives the annealed
    state before the first shot.
    """
    if cfg.problem != "simon":
        raise DomainError("run_simon needs a simon config")
    return _run_scheduled(cfg, on_final_state)


def run(cfg: RunConfig) -> RunReport:
    """Dispatch on cfg.problem."""
    return run_bv(cfg) if cfg.problem == "bv" else run_simon(cfg)


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
    """SplitMix64's finalizer, a bijection of 64-bit words, of master mod 2^64 xor
    (value_index << 32 | trial) times an odd constant: distinct pairs below 2^32
    get distinct seeds."""
    x = (master ^ (value_index << 32 | trial) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    x = (x ^ x >> 27) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return x ^ x >> 31


def sweep(axis: str, values: list, base: dict, trials: int) -> list[SweepRow]:
    """Run ``trials`` seeded repetitions at each axis value.

    ``base`` holds the ``RunConfig`` fields; the swept one is set per value.
    Only the per-value configs are built, and so checked, all before the
    first run.  A value's schedule is resolved inside its timed section.
    """
    field = {"n": "n", "T": "total_time", "steps": "steps"}.get(axis)
    if field is None:
        raise DomainError(f"unknown sweep axis {axis!r}")
    if not values:
        raise DomainError("sweep needs at least one value")
    try:
        trials = operator.index(trials)
    except TypeError:
        raise DomainError(f"trials must be an integer, got {trials!r}") from None
    if trials < 1:
        raise DomainError("trials must be at least 1")
    configs = [RunConfig(**{**base, field: value}) for value in values]
    rng = _take_source(0)  # re-keyed to each trial's seed
    rows = []
    try:
        for value_index, (value, cfg_value) in enumerate(zip(values, configs)):
            t0 = time.perf_counter()
            steps, budget = _schedule(cfg_value)
            seeds = (_trial_seed(cfg_value.seed, value_index, trial) for trial in range(trials))
            reports = [_run_seeded(cfg_value, steps, budget, rng) for _ in map(rng.reseed, seeds)]
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
    finally:
        _FREE_SOURCES.append(rng)
    return rows
