import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import chain_hamiltonian, random_state, realistic_backend
from oracles import dimer_target_by_digits, dimer_target_mps, ghz_dense
from rydchain.analytics import two_atom_coefficients
from rydchain.errors import CapacityError, NumericalError
from rydchain.protocols import execute, plan_transport
from rydchain.statekit import (
    HYPERFINE,
    RYDBERG,
    LevelScheme,
    basis_digits,
    encode_occupations,
    reduce_to_site,
)
from rydchain.targets import (
    FIDELITY_TOL,
    dimer_target_direct,
    fidelity_mixed_single_qubit,
    fidelity_pure,
    ghz_target,
)

TWO = LevelScheme.TWO_LEVEL
THREE = LevelScheme.THREE_LEVEL


class TestGhzTarget:
    def test_two_sites_three_level(self):
        t = ghz_dense(2, THREE)
        # |0 1~> at index 2, |1~ 0> at index 6
        assert t[2] == pytest.approx(1 / np.sqrt(2))
        assert t[6] == pytest.approx(1 / np.sqrt(2))
        assert np.count_nonzero(t) == 2

    def test_four_sites_two_components(self):
        t = ghz_dense(4, TWO)
        nz = np.flatnonzero(t)
        assert list(nz) == [0b0101, 0b1010]
        assert np.allclose(t[nz], 1 / np.sqrt(2))

    def test_normalized(self):
        assert np.linalg.norm(ghz_dense(6, THREE)) == pytest.approx(1.0, abs=1e-12)

    def test_odd_length_is_quiet(self):
        # an odd length once warned on every call, and the sweep filtered it out
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = ghz_dense(3, TWO)
        assert list(np.flatnonzero(t)) == [0b010, 0b101]

    @pytest.mark.parametrize("scheme", [TWO, THREE])
    def test_support_scatters_to_the_dense_target(self, scheme):
        # ghz_target once returned this d^n array itself
        x = HYPERFINE if scheme is THREE else RYDBERG
        for n in range(2, 13):
            amp = np.zeros(scheme.local_dim**n, dtype=np.complex128)
            amp[encode_occupations([0 if k % 2 else x for k in range(n)], scheme.local_dim)] = 1 / np.sqrt(2)
            amp[encode_occupations([x if k % 2 else 0 for k in range(n)], scheme.local_dim)] = 1 / np.sqrt(2)
            assert np.array_equal(ghz_dense(n, scheme), amp)
            support, coefficients = ghz_target(n, scheme)
            assert support[0] < support[1] and coefficients.shape == (2,)

    def test_capacity_checked_before_allocation(self):
        with pytest.raises(CapacityError, match="exceeds the cap"):
            ghz_target(13, THREE)

    def test_too_short(self):
        with pytest.raises(ValueError):
            ghz_target(1, TWO)


class TestDimerDirect:
    def test_vacuum_at_zero(self):
        t = dimer_target_direct(4, 0.0)
        assert t[0] == 1.0
        assert np.count_nonzero(t) == 1

    def test_two_sites_equal_weights(self):
        t = dimer_target_direct(2, 1.0, 1)
        expect = np.zeros(4)
        expect[0b00] = expect[0b10] = expect[0b01] = 1 / np.sqrt(3)
        assert np.allclose(t, expect, atol=1e-15)

    def test_range_two_support(self):
        t = dimer_target_direct(3, 1.0, 2)
        nz = set(np.flatnonzero(t))
        assert nz == {0b000, 0b100, 0b010, 0b001}

    @pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 10.0])
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_amplitude_ratio_law(self, n, z):
        t = dimer_target_direct(n, z)
        occ = basis_digits(n, 2)
        n_exc = occ.sum(axis=1)
        vac = t[0]
        for idx in np.flatnonzero(np.abs(t) > 0):
            ratio = (t[idx] / vac).real
            assert ratio == pytest.approx(z ** n_exc[idx], rel=1e-12)

    def test_large_z_odd_chain_is_crystal(self):
        t = dimer_target_direct(7, 1e3)
        assert np.argmax(np.abs(t)) == 0b1010101

    def test_negative_z_signs(self):
        t = dimer_target_direct(3, -1.0)
        assert t[0b000].real > 0
        assert t[0b100].real < 0
        assert t[0b101].real > 0

    @pytest.mark.parametrize("z", [-3.0, -0.4, 0.0, 1.0, 7.5])
    @pytest.mark.parametrize("blockade_range", [1, 2, 3])
    def test_bits_equal_the_digit_table(self, blockade_range, z):
        for n in range(1, 15):
            want = dimer_target_by_digits(n, z, blockade_range)
            got = dimer_target_direct(n, z, blockade_range)
            assert got.tobytes() == want.tobytes(), n

    def test_memory_is_a_few_state_sized_arrays(self):
        # the (2^18, 18) int64 digit table alone took 37.7 MB
        basis_digits.cache_clear()
        tracemalloc.start()
        try:
            amp = dimer_target_direct(18, -1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * amp.nbytes  # 16.8 MB; the state itself is 4.2 MB


class TestDimerMps:
    def test_single_site(self):
        t = dimer_target_mps(1, 1.0)
        assert np.allclose(t, np.array([1, 1]) / np.sqrt(2), atol=1e-15)

    def test_matches_direct_two_sites(self):
        a = dimer_target_mps(2, 1.0)
        b = dimer_target_direct(2, 1.0)
        assert np.abs(a - b).max() < 1e-15

    def test_forbidden_amplitude_exact_zero(self):
        t = dimer_target_mps(2, 3.7)
        assert t[0b11] == 0.0

    @pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 10.0])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_cross_method_equality(self, n, z):
        a = dimer_target_mps(n, z)
        b = dimer_target_direct(n, z)
        assert np.abs(a - b).max() <= 1e-12


class TestFidelityPure:
    def test_identical(self, rng):
        s = random_state(rng, 8)
        assert fidelity_pure(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        a = np.array([1, 0], complex)
        b = np.array([0, 1], complex)
        assert fidelity_pure(a, b) == 0.0

    def test_global_phase_invariance(self, rng):
        s = random_state(rng, 4)
        t = random_state(rng, 4)
        f = fidelity_pure(t, s)
        s_rot = np.exp(0.77j) * s
        t_rot = np.exp(-1.2j) * t
        assert fidelity_pure(t_rot, s_rot) == pytest.approx(f, abs=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            fidelity_pure(
                random_state(rng, 4),
                random_state(rng, 8),
            )

    def test_excess_beyond_bound_raises(self):
        s = np.array([1.1, 0.0], complex)  # |<s|s>|^2 = 1.4641
        with pytest.raises(NumericalError):
            fidelity_pure(s, s)

    def test_rounding_excess_is_clipped(self):
        s = np.array([np.sqrt(1 + 4e-10), 0.0], complex)
        assert fidelity_pure(s, s) == 1.0

    def test_stack_scores_each_column(self, rng):
        target = random_state(rng, 8)
        finals = np.stack([random_state(rng, 8) for _ in range(5)], axis=1)
        f = fidelity_pure(target, finals)
        assert f.shape == (5,)
        for r in range(5):
            assert abs(f[r] - fidelity_pure(target, finals[:, r])) <= 1e-15

    def test_stack_with_one_column_beyond_bound_raises(self, rng):
        target = random_state(rng, 4)
        finals = np.stack([target, target * np.sqrt(1 + 2 * FIDELITY_TOL), target], axis=1)
        with pytest.raises(NumericalError):
            fidelity_pure(target, finals)
        finals[:, 1] = target * np.sqrt(1 + FIDELITY_TOL / 2)  # within the bound: clipped
        assert np.array_equal(fidelity_pure(target, finals), [1.0, 1.0, 1.0])

    def test_ghz_two_atom_value(self):
        """Realistic 2-atom GHZ output lands at |1+gamma|^2/4."""
        from rydchain.protocols import plan_ghz

        ratio = 11.3
        out = execute(plan_ghz(2, TWO), realistic_backend(chain_hamiltonian(2, ratio), 1.0))
        gamma = two_atom_coefficients(ratio, 1.0).gamma
        f = fidelity_pure(ghz_dense(2, TWO), out)
        assert f == pytest.approx(abs(1 + gamma) ** 2 / 4, abs=1e-12)


class TestFidelityMixed:
    def test_pure_projector(self, rng):
        ket = random_state(rng, 2)
        rho = np.outer(ket, ket.conj())
        assert fidelity_mixed_single_qubit(ket, rho) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        ket = np.array([1, 1j]) / np.sqrt(2)
        assert fidelity_mixed_single_qubit(ket, np.eye(2) / 2) == pytest.approx(0.5)

    def test_invalid_density_matrix(self):
        ket = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            fidelity_mixed_single_qubit(ket, np.array([[1.0, 0.5], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            fidelity_mixed_single_qubit(np.array([1.0, 1.0]), np.eye(2) / 2)

    def test_excess_beyond_bound_raises(self):
        # Hermitian with unit trace but not positive: <0|rho|0> = 1.5
        with pytest.raises(NumericalError):
            fidelity_mixed_single_qubit(np.array([1.0, 0.0]), np.diag([1.5, -0.5]))
        with pytest.raises(NumericalError):
            fidelity_mixed_single_qubit(np.array([0.0, 1.0]), np.diag([1.5, -0.5]))

    def test_rounding_excess_is_clipped(self):
        rho = np.diag([1 + 4e-10, -4e-10])
        assert fidelity_mixed_single_qubit(np.array([1.0, 0.0]), rho) == 1.0
        assert fidelity_mixed_single_qubit(np.array([0.0, 1.0]), rho) == 0.0

    def test_stack_checks_and_scores_each_matrix(self, rng):
        ket = random_state(rng, 2)
        rhos = []
        for _ in range(4):
            k = random_state(rng, 2)
            rhos.append(np.outer(k, k.conj()))
        f = fidelity_mixed_single_qubit(ket, np.stack(rhos))
        assert f.shape == (4,)
        for r, rho in enumerate(rhos):
            assert abs(f[r] - fidelity_mixed_single_qubit(ket, rho)) <= 1e-15
        # one matrix that is not a density matrix, beside valid ones
        with pytest.raises(ValueError, match="density matrix"):
            fidelity_mixed_single_qubit(ket, np.stack([np.eye(2) / 2, np.diag([0.6, 0.6])]))
        with pytest.raises(ValueError, match="density matrix"):
            fidelity_mixed_single_qubit(ket, np.stack([np.eye(2) / 2, [[1.0, 0.5], [0.0, 0.0]]]))
        # one value beyond the clip bound, beside valid ones
        with pytest.raises(NumericalError):
            stack = np.stack([np.eye(2) / 2, np.diag([1.5, -0.5])])
            fidelity_mixed_single_qubit(np.array([1.0, 0.0]), stack)

    def test_nan_inputs_rejected(self):
        with pytest.raises(ValueError):
            fidelity_mixed_single_qubit(np.array([np.nan, 0.0]), np.eye(2) / 2)
        with pytest.raises(ValueError):
            fidelity_mixed_single_qubit(np.array([1.0, 0.0]), np.diag([np.nan, 0.5]))
        with pytest.raises(ValueError):
            fidelity_mixed_single_qubit(np.array([1.0, 0.0]), np.full((2, 2), np.nan))

    @pytest.mark.parametrize("ratio", [2.0, 6.9, 10.0, 25.0])
    def test_transport_two_atoms_against_closed_forms(self, ratio):
        alpha, beta = 0.6, 0.8
        plan = plan_transport(2, alpha, beta)
        out = execute(plan, realistic_backend(chain_hamiltonian(2, ratio), 1.0))
        rho = reduce_to_site(out, 2)
        c = two_atom_coefficients(ratio, 1.0)
        # assemble the corrected final state from the closed-form branches
        pre = np.zeros(4, complex)
        pre[0b01] = alpha * c.gamma - beta * c.leak**2
        pre[0b11] = alpha * c.leak + beta * c.delta_prime
        pre[0b00] = -beta * c.gamma
        post = np.zeros(4, complex)
        post[0b00], post[0b01] = pre[0b01], -pre[0b00]
        post[0b10], post[0b11] = pre[0b11], -pre[0b10]
        post *= 1j**2  # i^(N-1) sigma_y = i^N R(pi/2) at N=2
        m = post.reshape(2, 2)
        rho_oracle = np.einsum("ia,ib->ab", m, m.conj())
        assert np.abs(rho - rho_oracle).max() < 1e-10
        f = fidelity_mixed_single_qubit(np.array([alpha, beta]), rho)
        f_oracle = float(np.real(np.vdot([alpha, beta], rho_oracle @ [alpha, beta])))
        assert f == pytest.approx(f_oracle, abs=1e-10)
