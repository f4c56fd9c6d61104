import sys

import numpy as np
import pytest

from rydchain.dynamics import HamiltonianSpec, InteractionRange
from rydchain.lattice import truncate_couplings
from rydchain.protocols import IdealBackend, ProtocolKind, ProtocolPlan, RealisticBackend, execute


def pytest_terminal_summary(terminalreporter):
    """Echo the per-criterion acceptance lines after the test summary."""
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "_results", None)
    if results:
        terminalreporter.section("acceptance criteria")
        for line in results:
            terminalreporter.write_line(line)


def chain_couplings(n: int, v0: float) -> np.ndarray:
    """Exact ideal-chain couplings v0 / |k-m|^6."""
    V = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                V[i, j] = v0 / abs(i - j) ** 6
    return V


def chain_hamiltonian(n: int, v0: float, rng=InteractionRange.FULL) -> HamiltonianSpec:
    V = chain_couplings(n, v0)
    if rng is InteractionRange.NEAREST_NEIGHBOR:
        V = truncate_couplings(V, 1)
    return HamiltonianSpec(V)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_state(rng, dim: int) -> np.ndarray:
    amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amp / np.linalg.norm(amp)


def run_steps(state, backend, *steps, blockade_range=1):
    """``steps`` as a hand-built plan on ``state``'s chain, run by ``execute``."""
    plan = ProtocolPlan(ProtocolKind.GHZ2, state.n_sites, state.scheme, steps,
                        blockade_range=blockade_range)
    return execute(plan, backend, initial=state)


def run_ideal(state, step, blockade_range=1):
    return run_steps(state, IdealBackend(), step, blockade_range=blockade_range)


def run_realistic(state, step, hamiltonian, omega):
    return run_steps(state, RealisticBackend(hamiltonian, omega), step)
