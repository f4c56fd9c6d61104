"""Property tests of the pulse kernels: unitarity for random couplings and
angles, independent single-site rotations when nothing interacts, and the
ideal gate against a per-index oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_ideal, run_realistic
from oracles import ideal_gate_by_index
from rydchain.dynamics import HamiltonianSpec, PulseStep, Transition
from rydchain.statekit import LevelScheme, from_amplitudes

SETTINGS = settings(max_examples=25, deadline=None)

angles = st.floats(-np.pi, np.pi, allow_nan=False)


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
    cols = [apply(from_amplitudes(n, scheme, np.eye(dim)[k])).amplitudes for k in range(dim)]
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
    start = from_amplitudes(n, LevelScheme.TWO_LEVEL, amp / np.linalg.norm(amp))
    per_site = [np.eye(2) for _ in range(n)]
    realistic, ideal = start, start
    free = HamiltonianSpec(np.zeros((n, n)))
    for site, theta in pulses:
        step = PulseStep(site, Transition.GROUND_RYDBERG, theta)
        realistic = run_realistic(realistic, step, free, omega)
        ideal = run_ideal(ideal, step, blockade_radius=0)
        per_site[site - 1] = rotation(theta) @ per_site[site - 1]
    U = per_site[0]
    for R in per_site[1:]:
        U = np.kron(U, R)  # site 1 is the most significant digit
    expected = U @ start.amplitudes
    assert np.abs(realistic.amplitudes - expected).max() < 1e-12
    assert np.abs(ideal.amplitudes - expected).max() < 1e-12


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
    start = from_amplitudes(n, scheme, amp / np.linalg.norm(amp))
    transitions = [Transition.GROUND_RYDBERG]
    if scheme is LevelScheme.THREE_LEVEL:
        transitions.append(Transition.RYDBERG_HYPERFINE)
    for site in range(1, n + 1):  # every site, the chain ends included
        for transition in transitions:
            out = run_ideal(start, PulseStep(site, transition, theta), blockade_radius=radius)
            expected = ideal_gate_by_index(
                start.amplitudes, n, d, site, transition.levels, theta, radius
            )
            assert np.abs(out.amplitudes - expected).max() < 1e-14
