"""Disorder-averaged fidelity sweeps over interaction-strength grids.

Each sweep cell (chain length, V0/Omega point) draws quenched atom
configurations: one position sample per protocol run, held fixed for the
whole pulse sequence.  Omega is set to 1 rad/us and V0 to the grid ratio;
fidelities depend on the ratio only.  Seeding is positional, so results
are independent of worker count and identical across reruns.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import HamiltonianSpec, InteractionRange
from .errors import CapacityError
from .lattice import (
    R0_DEFAULT,
    DisorderSpec,
    coupling_matrix,
    disorder_preset,
    ideal_configuration,
    realization_seed,
    sample_configuration,
    truncate_couplings,
)
from .protocols import ProtocolKind, ProtocolPlan, RealisticBackend, execute, plan_for
from .statekit import StateVector, reduce_to_site
from .targets import dimer_target_direct, fidelity_mixed_single_qubit, fidelity_pure, ghz_target

#: SweepSpec fields that shape one protocol's plan or input; every other
#: protocol ignores them, so they must keep their defaults there
SHAPE_FIELDS = {
    ProtocolKind.DIMER_MPS: ("z", "blockade_range"),
    ProtocolKind.TRANSPORT: ("alpha", "beta"),
}


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
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))
        if isinstance(self.disorder, str):
            object.__setattr__(self, "disorder", disorder_preset(self.disorder))
        defaults = {f.name: f.default for f in fields(self)}
        ignored = [
            name
            for kind, names in SHAPE_FIELDS.items() if kind is not self.protocol
            for name in names if getattr(self, name) != defaults[name]  # a NaN differs too
        ]
        if ignored:
            raise ValueError(f"protocol {self.protocol.value} ignores {', '.join(ignored)}")


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


def _target_state(spec: SweepSpec, plan: ProtocolPlan) -> StateVector | None:
    if spec.protocol is ProtocolKind.TRANSPORT:
        return None  # compared through the reduced final-site state
    if spec.protocol is ProtocolKind.DIMER_MPS:
        return dimer_target_direct(plan.n_sites, spec.z, spec.blockade_range)
    return ghz_target(plan.n_sites, plan.scheme)


def _one_realization(
    spec: SweepSpec,
    grid_index: int,
    realization_index: int,
    plan: ProtocolPlan,
    target: StateVector | None,
) -> float:
    n, ratio = plan.n_sites, spec.grid[grid_index]
    if spec.disorder.is_none:
        config = ideal_configuration(n, R0_DEFAULT)
    else:
        seed = realization_seed(spec.master_seed, n, grid_index, realization_index)
        config = sample_configuration(n, R0_DEFAULT, spec.disorder, seed)
    couplings = coupling_matrix(config, ratio, R0_DEFAULT)
    if spec.interaction_range is InteractionRange.NEAREST_NEIGHBOR:
        couplings = truncate_couplings(couplings, 1)
    final = execute(plan, RealisticBackend(HamiltonianSpec(couplings), omega=1.0))
    if target is None:
        rho = reduce_to_site(final, n)
        return fidelity_mixed_single_qubit(np.array([spec.alpha, spec.beta]), rho)
    return fidelity_pure(target, final)


def _cell(spec: SweepSpec, plan: ProtocolPlan, grid_index: int) -> SweepRecord:
    reps = 1 if spec.disorder.is_none else spec.realizations
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # odd-length GHZ targets warn per call
        target = _target_state(spec, plan)
    values = np.array(
        [_one_realization(spec, grid_index, i, plan, target) for i in range(reps)]
    )
    if spec.disorder.is_none:
        values = np.repeat(values, spec.realizations)
    std_err = 0.0
    if spec.realizations > 1:
        std_err = float(values.std(ddof=1) / np.sqrt(spec.realizations))
    return SweepRecord(
        protocol=spec.protocol.value,
        n=plan.n_sites,
        v0_over_omega=spec.grid[grid_index],
        disorder=spec.disorder.kind,
        realizations=spec.realizations,
        mean_fidelity=float(values.mean()),
        std_error=std_err,
        fid_min=float(values.min()),
        fid_max=float(values.max()),
    )


def _cell_or_nan(args) -> SweepRecord:
    spec, plan, gi = args
    try:
        return _cell(spec, plan, gi)
    except CapacityError as exc:
        nan = float("nan")
        return SweepRecord(
            spec.protocol.value, plan.n_sites, spec.grid[gi], spec.disorder.kind,
            spec.realizations, nan, nan, nan, nan, error=str(exc),
        )


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRecord]:
    """All (n, grid) cells in canonical order, once every n has its plan (a bad n
    raises before any cell runs); a cell over the capacity limit becomes a NaN
    row carrying the error message rather than aborting the sweep."""
    plans = [plan_for(spec.protocol, n, spec.z, spec.blockade_range, spec.alpha, spec.beta)
             for n in spec.n_list]
    cells = [(spec, plan, gi) for plan in plans for gi in range(len(spec.grid))]
    if workers > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_cell_or_nan, cells))
    return list(map(_cell_or_nan, cells))
