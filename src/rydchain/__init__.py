"""Exact simulator for pulsed Rydberg-chain state preparation and transport."""

__version__ = "0.1.0"

from .dynamics import (
    HamiltonianSpec,
    InteractionRange,
    PulseStep,
    Transition,
    apply_ideal_gate,
    apply_realistic_pulse,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    ground_state_dense,
)
from .errors import CapacityError, GeometryError, NumericalError
from .lattice import (
    DISORDER_PRESETS,
    DisorderSpec,
    coupling_matrix,
    ideal_configuration,
    sample_configuration,
)
from .protocols import (
    IdealBackend,
    ProtocolKind,
    ProtocolPlan,
    RealisticBackend,
    execute,
    mps_area_schedule,
    mps_area_schedule_polynomial,
    plan_dimer_mps,
    plan_for,
    plan_ghz,
    plan_transport,
    protocol_duration,
)
from .statekit import (
    LevelScheme,
    StateVector,
    embed_initial_qubit,
    ground_state,
    inner_product,
    reduce_to_site,
)
from .targets import (
    dimer_target_direct,
    dimer_target_mps,
    fidelity_mixed_single_qubit,
    fidelity_pure,
    ghz_target,
)

__all__ = [name for name in dir() if not name.startswith("_")]
