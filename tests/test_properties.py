"""Property tests of the pulse kernel: unitarity for random couplings and
angles, independent single-site rotations when nothing interacts, the ideal
gate and the interaction diagonal against per-index oracles, the realistic
backend approaching the ideal one as V0/Omega grows, and the growing-prefix
execution equal to the full-width one."""

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import chain_hamiltonian, realistic_backend, run_ideal, run_realistic
from oracles import (
    execute_full_width, ideal_gate_by_index, initial_amplitudes, interaction_energy_by_index,
)
from rydchain.dynamics import (
    HamiltonianSpec, InteractionRange, PulseStep, Transition, interaction_diagonal,
)
from rydchain.lattice import R0_DEFAULT, coupling_matrix, disorder_preset, sample_configuration
from rydchain.protocols import (
    IdealBackend, ProtocolKind, execute, plan_for,
)
from rydchain.statekit import LevelScheme

SETTINGS = settings(max_examples=25, deadline=None)

angles = st.floats(-np.pi, np.pi, allow_nan=False)


def dimer_z(kind, z) -> dict:
    """plan_for's z argument for ``kind``: only the dimer plan takes one."""
    return {"z": z} if kind is ProtocolKind.DIMER_MPS else {}


@st.composite
def chains(draw):
    """(scheme, couplings, detuning, omega) on 2-4 sites, plus one pulse."""
    scheme = draw(st.sampled_from(list(LevelScheme)))
    n = draw(st.integers(2, 4 if scheme is LevelScheme.TWO_LEVEL else 3))
    pairs = n * (n - 1) // 2
    V = np.zeros((n, n))
    V[np.triu_indices(n, 1)] = draw(st.lists(st.floats(0.0, 50.0), min_size=pairs, max_size=pairs))
    V = V + V.T
    detuning = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    omega = draw(st.floats(0.1, 10.0))
    transitions = [Transition.GROUND_RYDBERG]
    if scheme is LevelScheme.THREE_LEVEL:
        transitions.append(Transition.RYDBERG_HYPERFINE)
    step = PulseStep(draw(st.integers(1, n)), draw(st.sampled_from(transitions)), draw(angles))
    return scheme, HamiltonianSpec(V, detuning), omega, step


def pulse_matrix(scheme, n, apply) -> np.ndarray:
    """Columns are the images of the basis states."""
    dim = scheme.local_dim**n
    cols = [apply(np.eye(dim, dtype=np.complex128)[k]) for k in range(dim)]
    return np.stack(cols, axis=1)


@SETTINGS
@given(chains())
def test_realistic_pulse_is_unitary(chain):
    scheme, ham, omega, step = chain
    U = pulse_matrix(scheme, ham.n_sites, lambda s: run_realistic(s, step, ham, omega))
    assert np.abs(U.conj().T @ U - np.eye(len(U))).max() < 1e-12


def rotation(theta: float) -> np.ndarray:
    """exp(-i theta sigma_y) in the convention |0> -> cos|0> + sin|1>."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


@SETTINGS
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(1, n), angles), min_size=1, max_size=6),
        )
    ),
    st.floats(0.1, 10.0),
    st.integers(0, 2**32 - 1),
)
def test_no_interaction_gives_independent_rotations(chain, omega, seed):
    n, pulses = chain
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    start = amp / np.linalg.norm(amp)
    per_site = [np.eye(2) for _ in range(n)]
    realistic, ideal = start, start
    free = HamiltonianSpec(np.zeros((n, n)))
    for site, theta in pulses:
        step = PulseStep(site, Transition.GROUND_RYDBERG, theta)
        realistic = run_realistic(realistic, step, free, omega)
        ideal = run_ideal(ideal, step, blockade_range=0)
        per_site[site - 1] = rotation(theta) @ per_site[site - 1]
    U = per_site[0]
    for R in per_site[1:]:
        U = np.kron(U, R)  # site 1 is the most significant digit
    expected = U @ start
    assert np.abs(realistic - expected).max() < 1e-12
    assert np.abs(ideal - expected).max() < 1e-12


@SETTINGS
@given(
    st.sampled_from(list(LevelScheme)).flatmap(
        lambda scheme: st.tuples(
            st.just(scheme), st.integers(1, 6 if scheme is LevelScheme.TWO_LEVEL else 4)
        )
    ),
    st.integers(0, 3),
    angles,
    st.integers(0, 2**32 - 1),
)
def test_ideal_gate_matches_per_index_oracle(chain, radius, theta, seed):
    scheme, n = chain
    d = scheme.local_dim
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
    start = amp / np.linalg.norm(amp)
    transitions = [Transition.GROUND_RYDBERG]
    if scheme is LevelScheme.THREE_LEVEL:
        transitions.append(Transition.RYDBERG_HYPERFINE)
    for site in range(1, n + 1):  # every site, the chain ends included
        for transition in transitions:
            out = run_ideal(start, PulseStep(site, transition, theta), blockade_range=radius)
            expected = ideal_gate_by_index(start, n, d, site, transition.levels, theta, radius)
            assert np.abs(out - expected).max() < 1e-14


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from([
        # mps with full range keeps next-nearest-neighbour phases the ideal gate has not
        (ProtocolKind.GHZ3, InteractionRange.FULL),
        (ProtocolKind.TRANSPORT, InteractionRange.FULL),
        (ProtocolKind.DIMER_MPS, InteractionRange.NEAREST_NEIGHBOR),
    ]),
    st.integers(2, 6),
    st.floats(2.0, 5.0),
    st.floats(-3.0, 3.0),
)
@example((ProtocolKind.DIMER_MPS, InteractionRange.NEAREST_NEIGHBOR), 2, 2.0, 1e-09)  # |z| << 1
def test_realistic_approaches_ideal_as_interaction_grows(case, n, log_ratio, z):
    kind, interaction_range = case
    ratio = 10.0**log_ratio  # V0 / Omega, log-uniform in [1e2, 1e5]
    plan = plan_for(kind, n, **dimer_z(kind, z))
    ideal = execute(plan, IdealBackend())
    backend = realistic_backend(chain_hamiltonian(n, ratio, interaction_range), 1.0, plan.scheme)
    realistic = execute(plan, backend)
    infidelity = 1.0 - abs(np.vdot(ideal, realistic)) ** 2
    assert infidelity <= 1.0 / ratio  # worst seen on a 40-ratio grid per N: 0.64 / ratio


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 10), st.integers(0, 2**32 - 1))
@example(2, 1, 0)
@example(2, 10, 1)  # the smallest split chain
@example(3, 6, 2)  # the largest unsplit one
@example(3, 10, 3)
def test_interaction_diagonal_matches_per_index_oracle(local_dim, n, seed):
    rng = np.random.default_rng(seed)
    V = np.triu(rng.uniform(0.0, 50.0, (n, n)), 1)
    V = V + V.T
    detuning = rng.uniform(-10.0, 10.0, n)
    e = interaction_diagonal(HamiltonianSpec(V, detuning), local_dim)
    expected = interaction_energy_by_index(V, detuning, n, local_dim)
    assert np.abs(e - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(list(ProtocolKind)),
    st.integers(2, 14),
    st.sampled_from(["iso", "aniso"]),
    st.floats(1.0, 40.0),
    st.floats(0.5, 2.0),
    st.booleans(),
    st.integers(1, 2),
    st.integers(0, 2**32 - 1),
)
def test_prefix_execution_equals_full_width(kind, n, disorder, ratio, omega, realistic, radius, seed):
    # n reaches pulses past COEF_CHUNK blocks (2^13 at n = 14, 3^8 at n = 9)
    if kind is ProtocolKind.GHZ3:
        n = min(n, 9)
    rng = np.random.default_rng(seed)
    plan = plan_for(kind, n, **dimer_z(kind, float(rng.uniform(-3.0, 3.0))))
    if realistic:
        config = sample_configuration(n, R0_DEFAULT, disorder_preset(disorder), seed)
        detuning = rng.uniform(-2.0, 2.0, n)
        couplings = coupling_matrix(config, ratio * omega, R0_DEFAULT)
        backend = realistic_backend(HamiltonianSpec(couplings, detuning), omega, plan.scheme)
    else:
        plan, backend = dataclasses.replace(plan, blockade_range=radius), IdealBackend()
    prefix = execute(plan, backend)
    full = execute_full_width(plan, backend, initial_amplitudes(plan))
    assert np.abs(prefix - full).max() <= 1e-14
