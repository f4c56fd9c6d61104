import sys

import numpy as np
import pytest

from oracles import execute_full_width
from rydchain.dynamics import HamiltonianSpec, InteractionRange, interaction_diagonal
from rydchain.lattice import truncate_couplings
from rydchain.protocols import IdealBackend, ProtocolKind, ProtocolPlan, RealisticBackend
from rydchain.statekit import LevelScheme


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


def realistic_backend(hamiltonian, omega, scheme=LevelScheme.TWO_LEVEL) -> RealisticBackend:
    """The realistic backend of one chain: the basis energies of
    ``hamiltonian`` under ``scheme``, and the Rabi frequency ``omega``."""
    return RealisticBackend(interaction_diagonal(hamiltonian, scheme.local_dim), omega)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_state(rng, dim: int) -> np.ndarray:
    amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amp / np.linalg.norm(amp)


def chain_of(amp) -> tuple[int, LevelScheme]:
    """(n_sites, scheme) of an amplitude array: 2^n amplitudes are a two-level
    chain and 3^n a three-level one (no length is both, past n = 0)."""
    for scheme in LevelScheme:
        n = round(np.log(len(amp)) / np.log(scheme.local_dim))
        if scheme.local_dim**n == len(amp):
            return n, scheme
    raise ValueError(f"{len(amp)} amplitudes are not a chain")


def run_steps(amp, backend, *steps, blockade_range=1):
    """``steps`` as a hand-built plan on ``amp``'s chain, run over the whole
    chain from ``amp`` by the full-width reference."""
    n, scheme = chain_of(amp)
    plan = ProtocolPlan(ProtocolKind.GHZ2, n, scheme, steps, blockade_range=blockade_range)
    return execute_full_width(plan, backend, amp)


def run_ideal(amp, step, blockade_range=1):
    return run_steps(amp, IdealBackend(), step, blockade_range=blockade_range)


def run_realistic(amp, step, hamiltonian, omega):
    return run_steps(amp, realistic_backend(hamiltonian, omega, chain_of(amp)[1]), step)
