import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import chain_hamiltonian, random_state, run_ideal, run_realistic
from oracles import (
    build_effective_hamiltonian, ideal_on_array_once, pulse_on_array_once, rotate_pairs_once,
)
from rydchain import dynamics
from rydchain.dynamics import (
    HamiltonianSpec,
    InteractionRange,
    PulseStep,
    Transition,
    _ideal_on_array,
    _pulse_on_array,
    _rotate_pairs,
    build_full_hamiltonian,
    ground_state_dense,
    half_pi_pulse,
    interaction_diagonal,
    pi_pulse,
)
from rydchain.errors import CapacityError
from rydchain.statekit import LevelScheme, ground_tail, site_view

TWO = LevelScheme.TWO_LEVEL
THREE = LevelScheme.THREE_LEVEL
G_R = Transition.GROUND_RYDBERG


def basis(n, idx, scheme=TWO):
    amp = np.zeros(scheme.local_dim**n, complex)
    amp[idx] = 1.0
    return amp


class TestPulseStep:
    def test_named_angles_enforced(self):
        assert pi_pulse(1).theta == np.pi / 2
        assert half_pi_pulse(1).theta == np.pi / 4

    def test_site_and_range_validation(self):
        with pytest.raises(ValueError):
            PulseStep(0, G_R, 0.1)
        with pytest.raises(ValueError):
            PulseStep(1, G_R, 4.0)

    @pytest.mark.parametrize("site", [True, 2.0, np.float64(1.0)])
    def test_site_must_be_an_integer(self, site):
        # PulseStep(True, ...) once ran as site 1, and PulseStep(2.0, ...) failed inside execute
        with pytest.raises(ValueError, match="site must be an integer"):
            PulseStep(site, G_R, 0.1)
        assert PulseStep(np.int64(2), G_R, 0.1).site == 2


class TestIdealGate:
    def test_free_atom_pi(self):
        s = run_ideal(basis(1, 0), pi_pulse(1))
        assert np.allclose(s, [0, 1], atol=1e-15)
        s = run_ideal(basis(1, 1), pi_pulse(1))
        assert np.allclose(s, [-1, 0], atol=1e-15)

    def test_toffoli_truth_table(self):
        # control on |0>: the middle atom flips only when both neighbors are down
        table = {
            (0, 0, 0): (0, 1, 0),
            (0, 0, 1): (0, 0, 1),
            (0, 1, 0): (0, 0, 0),
            (0, 1, 1): (0, 1, 1),
            (1, 0, 0): (1, 0, 0),
            (1, 0, 1): (1, 0, 1),
            (1, 1, 0): (1, 1, 0),
            (1, 1, 1): (1, 1, 1),
        }
        for occ_in, occ_out in table.items():
            idx_in = int("".join(map(str, occ_in)), 2)
            idx_out = int("".join(map(str, occ_out)), 2)
            out = run_ideal(basis(3, idx_in), pi_pulse(2))
            assert abs(out[idx_out]) == pytest.approx(1.0, abs=1e-15)

    def test_blockaded_neighbor_frozen(self):
        # |0 1 0>: a pi pulse on site 1 is blocked by the excited site 2
        out = run_ideal(basis(3, 0b010), pi_pulse(1))
        assert out[0b010] == 1.0

    def test_ghz_step(self):
        s = np.array([1, 0, 1, 0]) / np.sqrt(2)  # (|00>+|10>)/sqrt2
        out = run_ideal(s, pi_pulse(2))
        expected = np.zeros(4)
        expected[0b01] = expected[0b10] = 1 / np.sqrt(2)
        assert np.allclose(out, expected, atol=1e-15)

    def test_unitarity_random_states(self, rng):
        for _ in range(10):
            a = random_state(rng, 8)
            b = random_state(rng, 8)
            step = PulseStep(2, G_R, rng.uniform(0, np.pi))
            ua, ub = run_ideal(a, step), run_ideal(b, step)
            assert np.linalg.norm(ua) == pytest.approx(1.0, abs=1e-10)
            assert np.vdot(ua, ub) == pytest.approx(np.vdot(a, b), abs=1e-9)

    def test_rotation_inverse_is_exact(self, rng):
        s = random_state(rng, 8)
        fwd = run_ideal(s, PulseStep(2, G_R, 0.813))
        back = run_ideal(fwd, PulseStep(2, G_R, -0.813))
        assert np.abs(back - s).max() < 1e-12

    def test_blockade_radius_two(self):
        # |1 0 0>: site 3 is blocked at radius 2 but free at radius 1
        frozen = run_ideal(basis(3, 0b100), pi_pulse(3), blockade_range=2)
        assert frozen[0b100] == 1.0
        flipped = run_ideal(basis(3, 0b100), pi_pulse(3), blockade_range=1)
        assert abs(flipped[0b101]) == pytest.approx(1.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            run_ideal(basis(3, 0), pi_pulse(2), blockade_range=-1)

    def test_hyperfine_needs_three_levels(self):
        with pytest.raises(ValueError):
            run_ideal(basis(2, 0), pi_pulse(1, Transition.RYDBERG_HYPERFINE))

    def test_hyperfine_transfer_orientation(self):
        # |1> -> -|1~> under a full transfer
        s = basis(1, 1, THREE)
        out = run_ideal(s, pi_pulse(1, Transition.RYDBERG_HYPERFINE))
        assert out[2] == pytest.approx(-1.0, abs=1e-15)
        back = run_ideal(out, pi_pulse(1, Transition.RYDBERG_HYPERFINE))
        assert back[1] == pytest.approx(-1.0, abs=1e-15)


class TestRealisticPulse:
    def test_no_interaction_equals_ideal_on_free_atom(self, rng):
        ham = HamiltonianSpec(np.zeros((1, 1)))
        s = random_state(rng, 2)
        step = PulseStep(1, G_R, np.pi / 2)
        real = run_realistic(s, step, ham, omega=1.3)
        ideal = run_ideal(s, step)
        assert np.abs(real - ideal).max() < 1e-12

    def test_no_interaction_free_neighborhood(self, rng):
        # superposition confined to configurations with the neighbor down
        ham = HamiltonianSpec(np.zeros((2, 2)))
        s = np.zeros(4, complex)
        s[0b00], s[0b10] = random_state(rng, 2)
        step = PulseStep(1, G_R, 0.77)
        real = run_realistic(s, step, ham, omega=2.0)
        ideal = run_ideal(s, step)
        assert np.abs(real - ideal).max() < 1e-12

    @pytest.mark.parametrize("ratio", [1.0, 6.9, 15.5])
    def test_two_atom_stay_amplitude(self, ratio):
        """W2(pi) W1(pi/2)|00> leaves gamma on |10>, with gamma the printed
        blocked-pulse closed form."""
        from rydchain.analytics import two_atom_coefficients

        ham = chain_hamiltonian(2, ratio)
        s = basis(2, 0)
        s = run_realistic(s, half_pi_pulse(1), ham, omega=1.0)
        s = run_realistic(s, pi_pulse(2), ham, omega=1.0)
        coeffs = two_atom_coefficients(ratio, 1.0)
        assert abs(s[0b10] * np.sqrt(2) - coeffs.gamma) < 1e-10
        assert abs(abs(s[0b11]) * np.sqrt(2) - coeffs.delta) < 1e-10

    def test_blockade_limit_matches_ideal_gate(self):
        ham = chain_hamiltonian(2, 1e6)
        s = np.array([1, 0, 1, 0]) / np.sqrt(2)
        real = run_realistic(s, pi_pulse(2), ham, omega=1.0)
        ideal = run_ideal(s, pi_pulse(2))
        assert np.linalg.norm(real - ideal) < 1e-4

    def test_long_range_tail_breaks_convergence_at_three_sites(self):
        # |101>: with full-range interactions the spectator pair leaves a
        # dynamical phase the constrained gate does not have
        step = pi_pulse(2)
        s = basis(3, 0b101)
        ideal = run_ideal(s, step)
        full = run_realistic(s, step, chain_hamiltonian(3, 1e6), omega=1.0)
        assert np.linalg.norm(full - ideal) > 0.1
        nn = run_realistic(
            s, step, chain_hamiltonian(3, 1e6, InteractionRange.NEAREST_NEIGHBOR), omega=1.0
        )
        assert np.linalg.norm(nn - ideal) < 1e-4

    def test_zero_omega_rejected(self):
        with pytest.raises(ValueError):
            run_realistic(basis(2, 0), pi_pulse(1), chain_hamiltonian(2, 1.0), 0.0)

    @pytest.mark.parametrize("n,detuning", [
        pytest.param(2, None, id="2"),
        pytest.param(3, None, id="3"),
        pytest.param(4, None, id="4"),
        pytest.param(3, [0.9, -1.7, 2.3], id="3-detuned"),
        pytest.param(4, [-0.4, 1.1, 0.0, 3.2], id="4-detuned"),
    ])
    def test_block_decomposition_equals_dense_exponential(self, n, detuning, rng):
        ratio, omega = 3.7, 1.0
        ham = HamiltonianSpec(chain_hamiltonian(n, ratio).couplings, detuning)
        site = 2
        theta = 1.234
        omegas = np.zeros(n)
        omegas[site - 1] = omega
        H = build_full_hamiltonian(ham, omegas)
        s = random_state(rng, 2**n)
        dense = expm(-1j * H * theta / (2 * omega)) @ s
        fast = run_realistic(s, PulseStep(site, G_R, theta), ham, omega)
        assert np.abs(dense - fast).max() < 1e-9

    def test_three_level_pulse_against_dense_oracle(self, rng):
        """Hyperfine pulse on atom 1 of a 2-atom chain vs a hand-built 9x9
        Hamiltonian: drive on (|1~>,|1>), interactions on Rydberg pairs."""
        ratio, omega, theta = 5.0, 1.0, np.pi / 2
        sy_h = np.zeros((3, 3), complex)
        sy_h[1, 2] = 1j  # i|1><1~|
        sy_h[2, 1] = -1j
        n_r = np.diag([0.0, 1.0, 0.0])
        H = 2 * omega * np.kron(sy_h, np.eye(3)) + ratio * np.kron(n_r, n_r)
        s = random_state(rng, 9)
        dense = expm(-1j * H * theta / (2 * omega)) @ s
        fast = run_realistic(
            s,
            PulseStep(1, Transition.RYDBERG_HYPERFINE, theta),
            chain_hamiltonian(2, ratio),
            omega,
        )
        assert np.abs(dense - fast).max() < 1e-9


class TestInPlaceKernel:
    """execute pulses the strided prefix view of one whole-chain array in place."""

    CASES = [
        (d, n, m, site, transition)
        for d in (2, 3) for n in range(1, 6) for m in range(1, n + 1) for site in range(1, m + 1)
        for transition in Transition if d == 3 or transition is G_R
    ]

    @pytest.mark.parametrize("d, n, m, site", sorted({case[:4] for case in CASES}))
    def test_site_view_of_prefix_shares_the_buffer(self, d, n, m, site):
        buf = np.zeros(d**n, complex)
        assert np.shares_memory(site_view(ground_tail(buf, n, d, m), m, d, site), buf)

    @pytest.mark.parametrize("d, n, m, site, transition", CASES)
    def test_rotate_pairs_on_strided_prefix(self, rng, d, n, m, site, transition):
        # site 1 and site m are among the cases: there level_rows is a view of
        # the state, so a row written early would corrupt the other's input
        buf = random_state(rng, d**n)
        before = buf.copy()
        prefix = ground_tail(buf, n, d, m)
        contiguous = prefix.copy()
        step = PulseStep(site, transition, 0.7)
        configs = d ** (m - 1)
        coefficients = [rng.normal(size=configs) + 1j * rng.normal(size=configs) for _ in range(4)]
        used = coefficients[: 3 + (d == 3)]  # u_idle on three levels only
        pre = d ** (site - 1)
        entries = lambda rows: [u.reshape(pre, -1)[rows] for u in used]  # noqa: E731
        _rotate_pairs(prefix, m, d, step, entries)
        _rotate_pairs(contiguous, m, d, step, entries)
        assert prefix.tobytes() == contiguous.tobytes()
        # the same products, level by level, from the untouched input
        v = site_view(ground_tail(before, n, d, m), m, d, site)
        u_lo, u_off, u_hi, u_idle = (u.reshape(len(v), -1) for u in coefficients)
        lo, hi = transition.levels
        expected = v.copy()
        expected[:, lo] = u_lo * v[:, lo] - u_off * v[:, hi]
        expected[:, hi] = u_off * v[:, lo] + u_hi * v[:, hi]
        if d == 3:
            expected[:, transition.idle_level] = v[:, transition.idle_level] * u_idle
        assert contiguous.tobytes() == expected.tobytes()
        # every entry outside the prefix is unchanged
        outside = np.ones(d**n, bool)
        outside[:: d ** (n - m)] = False
        assert buf[outside].tobytes() == before[outside].tobytes()


@st.composite
def kernel_cases(draw):
    """A pulse on an m-site chain of d levels and a slice bound small enough
    for ragged last slices and for rows longer than the bound (post > bound)."""
    d = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, 7 if d == 2 else 5))
    site = draw(st.integers(1, m))
    transition = draw(st.sampled_from(list(Transition) if d == 3 else [G_R]))
    theta = draw(st.floats(-np.pi, np.pi))
    bound = draw(st.sampled_from([1, 3, 7]))
    return d, m, PulseStep(site, transition, theta), bound, draw(st.integers(0, 2**32 - 1))


class TestSlicedKernel:
    """The view kernel, slice by slice, against the one-shot reference."""

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    def test_sliced_entries_equal_the_one_shot_mix(self, case):
        d, m, step, bound, seed = case
        rng = np.random.default_rng(seed)
        amp = random_state(rng, d**m)
        pre = d ** (step.site - 1)
        entries = [rng.normal(size=d ** (m - 1)) + 1j * rng.normal(size=d ** (m - 1))
                   for _ in range(3 + (d == 3))]
        expected = amp.copy()
        rotate_pairs_once(expected, m, d, step, *entries)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "COEF_CHUNK", bound)
            _rotate_pairs(amp, m, d, step, lambda rows: [u.reshape(pre, -1)[rows] for u in entries])
        assert amp.tobytes() == expected.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases(), st.floats(0.3, 3.0))
    def test_sliced_pulse_equals_the_one_shot_pulse(self, case, omega):
        d, m, step, bound, seed = case
        rng = np.random.default_rng(seed)
        amp = random_state(rng, d**m)
        energies = rng.uniform(-20.0, 20.0, d**m)
        expected = amp.copy()
        pulse_on_array_once(expected, m, d, step, energies, omega)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "COEF_CHUNK", bound)
            _pulse_on_array(amp, m, d, step, energies, omega)
        assert amp.tobytes() == expected.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases(), st.integers(0, 3))
    def test_sliced_ideal_gate_equals_the_one_shot_gate(self, case, radius):
        d, m, step, bound, seed = case
        amp = random_state(np.random.default_rng(seed), d**m)
        expected = amp.copy()
        ideal_on_array_once(expected, m, d, step, radius)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "COEF_CHUNK", bound)
            _ideal_on_array(amp, m, d, step, radius)
        assert amp.tobytes() == expected.tobytes()


class TestHamiltonianSpec:
    def test_asymmetric_couplings_rejected(self):
        # the diagonal sees only V_km + V_mk, so V_01 = 1, V_10 = 3 once ran as 2 and 2
        with pytest.raises(ValueError, match="symmetric"):
            HamiltonianSpec(np.array([[0.0, 1.0], [3.0, 0.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            HamiltonianSpec(np.array([[0.0, np.nan], [np.nan, 0.0]]))
        V = chain_hamiltonian(4, 6.9).couplings
        V[0, 1] *= 1 + 1e-13  # rounding-level asymmetry passes
        assert HamiltonianSpec(V).couplings[0, 1] == V[0, 1]

    @pytest.mark.parametrize("diagonal", [[1.0, 0.0], [0.0, -2.5], [1e-300, 0.0]])
    def test_nonzero_diagonal_rejected(self, diagonal):
        # V_kk once acted silently as a detuning V_kk/2 on site k
        with pytest.raises(ValueError, match="zero diagonal"):
            HamiltonianSpec(np.diag(diagonal))

    def test_complex_input_rejected(self):
        # a complex array once only warned, then ran on its real part
        V = chain_hamiltonian(3, 6.9).couplings
        with pytest.raises(ValueError, match="couplings must be real"):
            HamiltonianSpec(V + 0.5j)
        with pytest.raises(ValueError, match="detuning must be real"):
            HamiltonianSpec(V, np.zeros(3) + 0.5j)

    def test_nan_diagonal_rejected(self):
        with pytest.raises(ValueError):
            HamiltonianSpec(np.array([[np.nan, 1.0], [1.0, 0.0]]))

    def test_stack_holds_each_matrix_to_its_own_scale(self):
        # 1e-10 of the weak matrix's scale is 1e-16 of the stack's largest
        # coupling, which a check scaled by the whole stack would let through
        weak = chain_hamiltonian(4, 1.0).couplings
        weak[0, 1] *= 1 + 1e-10
        strong = chain_hamiltonian(4, 1e6).couplings
        with pytest.raises(ValueError, match="symmetric"):
            HamiltonianSpec(np.stack([strong, weak]))
        weak[0, 1] = weak[1, 0] * (1 + 1e-13)  # rounding-level asymmetry passes
        assert HamiltonianSpec(np.stack([strong, weak])).n_sites == 4

    def test_stack_with_one_nonzero_diagonal_entry_rejected(self):
        stack = np.stack([chain_hamiltonian(3, 6.9).couplings] * 3)
        stack[2, 1, 1] = 1e-300
        with pytest.raises(ValueError, match="zero diagonal"):
            HamiltonianSpec(stack)

    def test_stack_detuning_shape_must_match(self):
        stack = np.stack([chain_hamiltonian(3, 6.9).couplings] * 2)
        assert HamiltonianSpec(stack).detuning.shape == (2, 3)
        with pytest.raises(ValueError, match="detuning"):
            HamiltonianSpec(stack, np.zeros(3))


@pytest.mark.parametrize("n, local_dim", [(4, 2), (10, 2), (5, 3), (7, 3)])  # unsplit and split
def test_stacked_diagonal_holds_each_chain_in_its_column(rng, n, local_dim):
    stack = np.triu(rng.uniform(0.0, 50.0, (3, n, n)), 1)
    stack += stack.transpose(0, 2, 1)
    detuning = rng.uniform(-5.0, 5.0, (3, n))
    e = interaction_diagonal(HamiltonianSpec(stack, detuning), local_dim)
    assert e.shape == (local_dim**n, 3)
    for r in range(3):
        one = interaction_diagonal(HamiltonianSpec(stack[r], detuning[r]), local_dim)
        assert np.abs(e[:, r] - one).max() <= 1e-12 * np.abs(one).max()


class TestFullHamiltonian:
    def test_zero_drive_is_interaction_diagonal(self):
        H = build_full_hamiltonian(chain_hamiltonian(3, 2.0), 0.0)
        expected = np.diag([0, 0, 0, 2, 0, 2 / 64, 2, 2 + 2 + 2 / 64])
        assert np.allclose(H, expected, atol=1e-14)

    def test_detuning_enters_diagonal(self):
        spec = HamiltonianSpec(np.zeros((2, 2)), detuning=[0.5, -0.3])
        H = build_full_hamiltonian(spec, 0.0)
        assert np.allclose(np.diag(H), [0, -0.3, 0.5, 0.2], atol=1e-14)

    def test_two_atom_block_matches_pulse_backend(self):
        # driving atom 1 with atom 2 excited closes on the (|01>, |11>) pair
        ratio, omega = 6.9, 1.0
        ham = chain_hamiltonian(2, ratio)
        H = build_full_hamiltonian(ham, [omega, 0.0])
        idx = [0b01, 0b11]
        block = H[np.ix_(idx, idx)]
        assert np.allclose(block, [[0, -2j * omega], [2j * omega, ratio]], atol=1e-14)

    def test_nearest_neighbor_toggle(self):
        ham = chain_hamiltonian(4, 64.0, InteractionRange.NEAREST_NEIGHBOR)
        H = build_full_hamiltonian(ham, 0.0)
        # |1001> carries no interaction once the range is truncated
        assert H[0b1001, 0b1001] == 0
        assert H[0b1100, 0b1100] == 64.0

    def test_hermitian(self):
        H = build_full_hamiltonian(chain_hamiltonian(3, 2.0), 0.7)
        assert np.abs(H - H.conj().T).max() < 1e-14

    def test_capacity(self):
        with pytest.raises(CapacityError):
            build_full_hamiltonian(chain_hamiltonian(13, 1.0), 1.0)


class TestEffectiveHamiltonian:
    def test_blockaded_drive_annihilated(self):
        H = build_effective_hamiltonian(2, 1.0)
        assert np.all(H[:, 0b11] == 0)
        assert np.all(H[0b11, :] == 0)

    def test_single_site_drive_matches_ideal_gate(self, rng):
        theta = 0.9
        omegas = np.zeros(3)
        omegas[1] = 1.0
        H = build_effective_hamiltonian(3, omegas)
        s = random_state(rng, 8)
        dense = expm(-1j * H * theta) @ s
        gate = run_ideal(s, PulseStep(2, G_R, theta))
        assert np.abs(dense - gate).max() < 1e-12


class TestGroundStateDense:
    def test_diagonal(self):
        energy, vec = ground_state_dense(np.diag([3.0, -1.0, 2.0, 0.0]))
        assert energy == -1.0
        assert abs(vec[1]) == pytest.approx(1.0)

    def test_pauli_spectrum(self):
        omega = 2.5
        energy, _ = ground_state_dense(np.array([[0, -1j * omega], [1j * omega, 0]]))
        assert energy == pytest.approx(-omega, abs=1e-12)

    def test_residual_bound(self, rng):
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        H = m + m.conj().T
        energy, vec = ground_state_dense(H)
        assert np.linalg.norm(H @ vec - energy * vec) < 1e-8 * np.abs(H).max()

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            ground_state_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected_before_eigh(self, bad):
        # a NaN difference once passed the check and reached eigh
        H = np.diag([1.0, 2.0, 3.0]).astype(complex)
        H[1, 2] = H[2, 1] = bad
        with pytest.raises(ValueError, match="not Hermitian"):
            ground_state_dense(H)

    def test_hermiticity_check_holds_no_full_size_temporary(self, monkeypatch):
        H = build_full_hamiltonian(chain_hamiltonian(10, 64.0), 0.5)  # dim 1024, 16 MiB

        class Reached(Exception):
            pass

        def stop(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(np.linalg, "eigh", stop)
        tracemalloc.start()
        try:
            with pytest.raises(Reached):
                ground_state_dense(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # three dim x dim temporaries took 32 MiB
