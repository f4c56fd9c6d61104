import numpy as np
import pytest
from scipy.linalg import expm

from conftest import chain_hamiltonian, random_state, realistic_backend
from rydchain.errors import CapacityError, NumericalError
from rydchain.protocols import (
    IdealBackend, ProtocolKind, ProtocolPlan, execute, plan_transport,
)
from rydchain.statekit import (
    LevelScheme,
    basis_digits,
    check_norm,
    encode_occupations,
    reduce_to_site,
)

TWO = LevelScheme.TWO_LEVEL
THREE = LevelScheme.THREE_LEVEL


def ground_state(n_sites, scheme):
    """|0...0>, the start of a plan with no pulses: the whole-chain array
    execute writes its initial state into and pulses in place."""
    return execute(ProtocolPlan(ProtocolKind.GHZ2, n_sites, scheme, ()), IdealBackend())


def embed_initial_qubit(alpha, beta, n_sites):
    """(alpha|0> + beta|1>) on site 1, the start of a transport plan with no pulses."""
    plan = ProtocolPlan(ProtocolKind.TRANSPORT, n_sites, TWO, (), alpha=alpha, beta=beta)
    return execute(plan, IdealBackend())


class TestGroundState:
    def test_single_site(self):
        s = ground_state(1, TWO)
        assert np.array_equal(s, [1, 0])

    def test_three_level_two_sites(self):
        s = ground_state(2, THREE)
        assert len(s) == 9
        assert s[0] == 1
        assert np.all(s[1:] == 0)

    def test_thirteen_sites(self):
        s = ground_state(13, TWO)
        assert len(s) == 8192
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-15)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            ground_state(21, TWO)
        with pytest.raises(CapacityError):
            ground_state(13, THREE)

    def test_invalid_sites(self):
        with pytest.raises(ValueError):
            ground_state(0, TWO)


class TestReduceToSite:
    def test_product_state(self):
        s = np.array([0, 1, 0, 0], complex)  # |0 1>
        rho = reduce_to_site(s, 2)
        assert np.allclose(rho, np.diag([0, 1]), atol=1e-15)

    def test_bell_state(self):
        s = np.array([1, 0, 0, 1], complex) / np.sqrt(2)
        rho = reduce_to_site(s, 2)
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-15)

    def test_random_product_state_is_pure(self, rng):
        kets = [random_state(rng, 2) for _ in range(3)]
        s = np.kron(np.kron(kets[0], kets[1]), kets[2])
        for site in (1, 2, 3):
            rho = reduce_to_site(s, site)
            k = kets[site - 1]
            assert np.real(np.vdot(k, rho @ k)) == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_unit_trace(self, rng):
        s = random_state(rng, 8)
        rho = reduce_to_site(s, 2)
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_stack_gives_one_matrix_per_column(self, rng):
        states = np.stack([random_state(rng, 16) for _ in range(3)], axis=1)
        for site in (1, 3, 4):
            rho = reduce_to_site(states, site)
            assert rho.shape == (3, 2, 2)
            for r in range(3):
                assert np.abs(rho[r] - reduce_to_site(states[:, r], site)).max() <= 1e-15

    def test_out_of_range(self):
        s = ground_state(2, TWO)
        with pytest.raises(IndexError):
            reduce_to_site(s, 0)
        with pytest.raises(IndexError):
            reduce_to_site(s, 3)

    def test_three_level_rejected(self):
        with pytest.raises(ValueError):
            reduce_to_site(ground_state(2, THREE), 1)

    @pytest.mark.parametrize("length", [0, 1, 3, 6, 12])
    def test_length_not_a_qubit_chain_rejected(self, length):
        # the chain length is read from the array: only 2^n, n >= 1, is one
        with pytest.raises(ValueError, match="not a two-level chain"):
            reduce_to_site(np.ones(length, complex), 1)

    def test_transport_output_matches_dense_oracle(self):
        """N=2 transport at V0/Omega=10: compare against direct 4x4 matrix
        exponentials and an explicitly summed partial trace."""
        ratio, omega = 10.0, 1.0
        alpha = beta = 1 / np.sqrt(2)
        plan = plan_transport(2, alpha, beta)
        out = execute(plan, realistic_backend(chain_hamiltonian(2, ratio), omega))
        rho = reduce_to_site(out, 2)

        # oracle: dense evolution, hand-indexed trace
        sy = np.array([[0, -1j], [1j, 0]])
        eye = np.eye(2)
        n_op = np.diag([0.0, 1.0])
        h_int = ratio * np.kron(n_op, n_op)
        h2 = 2 * omega * np.kron(eye, sy) + h_int
        h1 = 2 * omega * np.kron(sy, eye) + h_int
        t = (np.pi / 2) / (2 * omega)
        psi = np.zeros(4, complex)
        psi[0], psi[2] = alpha, beta
        psi = expm(-1j * h1 * t) @ expm(-1j * h2 * t) @ psi
        corr = 1j ** (2 - 1) * np.kron(eye, sy)  # i^(N-1) sigma_y on site 2
        psi = corr @ psi
        rho_oracle = np.zeros((2, 2), complex)
        for a in range(2):
            for b in range(2):
                for pre in range(2):
                    rho_oracle[a, b] += psi[2 * pre + a] * np.conj(psi[2 * pre + b])
        assert np.abs(rho - rho_oracle).max() < 1e-10


class TestEmbedInitialQubit:
    def test_classical_zero(self):
        s = embed_initial_qubit(1, 0, 4)
        assert np.array_equal(s, ground_state(4, TWO))

    def test_equal_superposition(self):
        s = embed_initial_qubit(1 / np.sqrt(2), 1 / np.sqrt(2), 4)
        assert s[0] == pytest.approx(1 / np.sqrt(2))
        assert s[8] == pytest.approx(1 / np.sqrt(2))
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)

    def test_reference_amplitude_pair(self):
        s = embed_initial_qubit(-0.7, np.sqrt(0.51), 4)
        assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            embed_initial_qubit(1.0, 0.1, 3)

    @pytest.mark.parametrize("alpha,beta", [(np.nan, 0.5), (2.0, np.nan), (np.nan, np.nan)])
    def test_rejects_nan(self, alpha, beta):
        with pytest.raises(ValueError):
            embed_initial_qubit(alpha, beta, 3)


class TestCheckNorm:
    @pytest.mark.parametrize("amp", [[1.0, 1e-4, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0]])
    def test_rejects_drift_and_nan(self, amp):
        with pytest.raises(NumericalError):
            check_norm(np.array(amp, complex))


class TestBasisIndexing:
    @pytest.mark.parametrize("scheme", [TWO, THREE])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip_exhaustive(self, scheme, n):
        d = scheme.local_dim
        for idx, occ in enumerate(basis_digits(n, d)):
            assert encode_occupations(occ, d) == idx

    def test_site_one_most_significant(self):
        # |1 0> lives at index 2 in a two-level 2-site chain
        assert encode_occupations((1, 0), 2) == 2
        dig = basis_digits(2, 2)
        assert list(dig[2]) == [1, 0]

