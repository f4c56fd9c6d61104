"""Disorder-averaged fidelity sweeps over interaction-strength grids.

Each sweep cell (chain length, V0/Omega point) runs its realizations in
blocks of max(1, BATCH_AMPLITUDES // d^n).  Once per block: the (R, 2)
Philox keys of the realizations' positional seeds (one SeedSequence hash of
the seed's prefix, :func:`rydchain.lattice.realization_keys`), one quenched
atom configuration per realization as one (R, n, 3) stack, the (R, n, n)
couplings checked as one HamiltonianSpec, the (d^n, R) interaction diagonals
in one product, and the scores of the (d^n, R) final states.  Once per
max(1, COEF_CHUNK // (d K)) realizations, K the plan's gathered blocks:
the gathered pulses' 2x2 mixes (:func:`rydchain.protocols.gathered_mixes`),
so when d K <= COEF_CHUNK one pass's (R, 2, d, K) mixes hold at most
2 COEF_CHUNK complex entries, 128 KiB.  Once per realization: one
:func:`rydchain.protocols.execute`, on that realization's column of
diagonals and row of mixes, which runs only its pulse loop.  A GHZ cell
scores its final states at the target's two basis states only
(:func:`rydchain.targets.ghz_target` returns its support), a dimer cell
against the whole chain, and a transport cell through the last site's
reduced state.
execute is the one way a pulse runs, its pulse kernel does not take a
realization axis, and perfbench's traced run counts one execute per
realization.  One position sample is held fixed for the whole pulse
sequence of a run.  A disorder-free cell runs once and hashes no seed: zero
widths give the ideal chain whatever the seed.  Omega is 1 rad/us and V0
the grid ratio; fidelities depend on the ratio only.  Seeding is
positional and the block and pass sizes constants, so results are
independent of worker count and identical across reruns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import HamiltonianSpec, InteractionRange, interaction_diagonal
from .errors import CapacityError
from .lattice import (
    R0_DEFAULT,
    DisorderSpec,
    coupling_matrix,
    disorder_preset,
    realization_keys,
    sample_configuration,
    truncate_couplings,
)
from .protocols import (
    COEF_CHUNK,
    ProtocolKind,
    ProtocolPlan,
    RealisticBackend,
    check_shape,
    execute,
    gathered_mixes,
    plan_for,
)
from .statekit import check_integer, reduce_to_site, require_capacity
from .targets import dimer_target_direct, fidelity_mixed_single_qubit, fidelity_pure, ghz_target

#: Amplitudes of the final states a block of realizations holds at once: a
#: cell runs max(1, BATCH_AMPLITUDES // d^n) realizations per block.  A
#: constant, so no result depends on the host.
BATCH_AMPLITUDES = 2**16


@dataclass(frozen=True)
class SweepSpec:
    protocol: ProtocolKind
    n_list: tuple[int, ...]
    grid: tuple[float, ...]
    disorder: DisorderSpec
    realizations: int
    master_seed: int
    interaction_range: InteractionRange = InteractionRange.FULL
    z: float = 1.0
    blockade_range: int = 1
    alpha: complex = 2**-0.5
    beta: complex = 2**-0.5

    def __post_init__(self):
        object.__setattr__(self, "realizations", check_integer(self.realizations, "realizations"))
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if not self.grid or not self.n_list:
            raise ValueError("grid and n_list must each hold at least one value")
        object.__setattr__(self, "n_list", tuple(check_integer(n, "each n_list entry") for n in self.n_list))
        object.__setattr__(self, "master_seed", check_integer(self.master_seed, "master_seed"))
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))
        if not np.all(np.isfinite(self.grid)):
            raise ValueError("grid values must be finite")
        if any(not b > a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")
        if isinstance(self.disorder, str):
            object.__setattr__(self, "disorder", disorder_preset(self.disorder))
        check_shape(self.protocol, z=self.z, blockade_range=self.blockade_range,
                    alpha=self.alpha, beta=self.beta)


@dataclass(frozen=True)
class SweepRecord:
    protocol: str
    n: int
    v0_over_omega: float
    disorder: str
    realizations: int
    mean_fidelity: float
    std_error: float
    fid_min: float
    fid_max: float
    error: str | None = None  # why the cell is a NaN row; not written to the CSV


def _target_state(spec: SweepSpec, plan: ProtocolPlan) -> tuple | None:
    """(support, coefficients): the target's amplitudes ``coefficients`` at
    the basis states ``support`` indexes, all others zero; None for transport."""
    if spec.protocol is ProtocolKind.TRANSPORT:
        return None  # compared through the reduced final-site state
    if spec.protocol is ProtocolKind.DIMER_MPS:
        return slice(None), dimer_target_direct(plan.n_sites, spec.z, spec.blockade_range)
    return ghz_target(plan.n_sites, plan.scheme)


def _block(
    spec: SweepSpec, grid_index: int, indices: range, plan: ProtocolPlan, target: tuple | None
) -> np.ndarray:
    """Fidelities of the realizations ``indices`` of one cell.  Every stage
    but the pulses runs once over the block's stack: seed keys (R, 2),
    positions (R, n, 3), couplings (R, n, n), one checked HamiltonianSpec,
    diagonals (d^n, R) and the scores of the final states (d^n, R), read at
    the target's support.  The gathered pulses' mixes come from one pass per
    max(1, COEF_CHUNK // (d K)) realizations, K the plan's gathered blocks;
    the pulses run through one ``execute`` per realization, on its column of
    diagonals and its row of mixes."""
    n, ratio = plan.n_sites, spec.grid[grid_index]
    runs = len(indices)
    if spec.disorder.is_none:  # zero widths draw nothing, so no seed is hashed
        keys = np.zeros((runs, 2), dtype=np.uint64)
    else:
        keys = realization_keys(spec.master_seed, n, grid_index, np.arange(indices.start, indices.stop))
    configs = sample_configuration(n, R0_DEFAULT, spec.disorder, keys)
    couplings = coupling_matrix(configs, ratio, R0_DEFAULT)
    if spec.interaction_range is InteractionRange.NEAREST_NEIGHBOR:
        couplings = truncate_couplings(couplings, 1)
    energies = interaction_diagonal(HamiltonianSpec(couplings), plan.scheme.local_dim)
    blocks = len(plan.schedule.half_theta)
    # twice these passes' mixes grew the heap past glibc's trim threshold and
    # gave it back on every pass: some 2,100 more page faults per pass of
    # perfbench's disorder-table workload, at no gain in speed
    per_pass = max(1, COEF_CHUNK // (plan.scheme.local_dim * blocks)) if blocks else runs
    finals = []
    for start in range(0, runs, per_pass):
        columns = energies[:, start : start + per_pass]
        mixes = gathered_mixes(plan, columns, 1.0)
        finals += [execute(plan, RealisticBackend(column, 1.0, mix))
                   for column, mix in zip(columns.T, mixes)]
    # a block of one is a view of its state: no second state-sized array
    finals = finals[0][:, None] if len(finals) == 1 else np.stack(finals, axis=1)
    if target is None:
        rho = reduce_to_site(finals, n)
        return fidelity_mixed_single_qubit(np.array([spec.alpha, spec.beta]), rho)
    support, coefficients = target
    return fidelity_pure(coefficients, finals[support])


def _cell(args) -> SweepRecord:
    """One (n, grid) cell, its realizations run in blocks of
    max(1, BATCH_AMPLITUDES // d^n).  A disorder-free cell runs once, so its
    value is reported exactly as mean, min and max with zero standard error;
    a cell over the capacity limit is a NaN row carrying the error message."""
    spec, plan, grid_index = args
    runs = 1 if spec.disorder.is_none else spec.realizations
    mean = std_err = lo = hi = float("nan")
    error = None
    try:
        block = max(1, BATCH_AMPLITUDES // require_capacity(plan.n_sites, plan.scheme.local_dim))
        target = _target_state(spec, plan)
        values = np.concatenate([
            _block(spec, grid_index, range(start, min(start + block, runs)), plan, target)
            for start in range(0, runs, block)
        ])
    except CapacityError as exc:
        error = str(exc)
    else:
        mean, lo, hi = float(values.mean()), float(values.min()), float(values.max())
        std_err = float(values.std(ddof=1) / np.sqrt(runs)) if runs > 1 else 0.0
    return SweepRecord(
        protocol=spec.protocol.value,
        n=plan.n_sites,
        v0_over_omega=spec.grid[grid_index],
        disorder=spec.disorder.kind,
        realizations=spec.realizations,
        mean_fidelity=mean,
        std_error=std_err,
        fid_min=lo,
        fid_max=hi,
        error=error,
    )


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRecord]:
    """All (n, grid) cells in canonical order, once every n has its plan (a bad n
    raises before any cell runs); a cell over the capacity limit becomes a NaN
    row carrying the error message rather than aborting the sweep."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    plans = [plan_for(spec.protocol, n, spec.z, spec.blockade_range, spec.alpha, spec.beta)
             for n in spec.n_list]
    cells = [(spec, plan, gi) for plan in plans for gi in range(len(spec.grid))]
    if workers > 1 and len(cells) > 1:
        # imported here: a single-process sweep never holds the pool's modules
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_cell, cells))
    return list(map(_cell, cells))
