import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import chain_hamiltonian, realistic_backend
from oracles import ghz_dense, leftmost_fidelity_peak, reference_decay_fit, rk_overlap_dense
from rydchain import analytics
from rydchain.analytics import (
    estimate_n_max,
    fit_exponential_decay,
    ghz_fidelity_two_atoms,
    rk_ground_state_overlap,
    rk_point,
    two_atom_coefficients,
)
from rydchain.dynamics import InteractionRange
from rydchain.errors import CapacityError, NumericalError
from rydchain.protocols import (
    HyperfinePolicy,
    ProtocolKind,
    execute,
    plan_ghz,
    plan_transport,
    protocol_duration,
    plan_dimer_mps,
)
from rydchain.statekit import LevelScheme
from rydchain.targets import fidelity_pure

TWO = LevelScheme.TWO_LEVEL


class TestTwoAtomCoefficients:
    def test_zero_interaction(self):
        c = two_atom_coefficients(0.0, 1.0)
        assert abs(c.gamma) < 1e-15
        assert c.delta == pytest.approx(1.0, abs=1e-15)

    def test_blockade_limit(self):
        c = two_atom_coefficients(1e6, 1.0)
        assert abs(c.gamma) == pytest.approx(1.0, abs=1e-6)

    def test_normalization_identities_random(self, rng):
        for _ in range(1000):
            v0 = rng.uniform(0.01, 100.0)
            omega = rng.uniform(0.1, 10.0)
            c = two_atom_coefficients(v0, omega)
            assert abs(abs(c.gamma) ** 2 + c.delta**2 - 1) < 1e-12
            assert abs(c.delta**2 + abs(c.delta_prime) ** 2 + c.delta_double_prime**2 - 1) < 1e-12
            assert c.tau == pytest.approx(np.sqrt(v0**2 + 16 * omega**2))

    def test_against_simulation_at_peak(self):
        ratio = 6.9
        out = execute(plan_ghz(2, TWO), realistic_backend(chain_hamiltonian(2, ratio), 1.0))
        c = two_atom_coefficients(ratio, 1.0)
        amp = out * np.sqrt(2)
        assert abs(amp[0b10] - c.gamma) < 1e-10
        assert abs(abs(amp[0b11]) - c.delta) < 1e-10

    def test_omega_validation(self):
        # NaN once gave delta=0.0 and NaN amplitudes without complaint
        for omega in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                two_atom_coefficients(1.0, omega)

    @pytest.mark.parametrize("v0", [np.nan, np.inf, -np.inf])
    def test_non_finite_v0_rejected(self, v0):
        # a NaN v0 once gave delta=0.0, NaN amplitudes and a NaN GHZ fidelity
        with pytest.raises(ValueError):
            two_atom_coefficients(v0, 1.0)
        with pytest.raises(ValueError):
            ghz_fidelity_two_atoms(v0, 1.0)


class TestTransportAmplitudes:
    @pytest.mark.parametrize("ratio", np.linspace(0.5, 40, 20))
    def test_branches_match_simulation(self, ratio):
        from rydchain.protocols import ProtocolPlan

        c = two_atom_coefficients(ratio, 1.0)
        ham = chain_hamiltonian(2, ratio)
        for alpha, beta, checks in (
            (1.0, 0.0, {0b01: c.gamma, 0b11: c.leak}),
            (0.0, 1.0, {0b00: -c.gamma, 0b01: -c.leak**2, 0b11: c.delta_prime}),
        ):
            plan = plan_transport(2, alpha, beta)
            bare = ProtocolPlan(plan.kind, 2, TWO, plan.steps, (), alpha=alpha, beta=beta)
            out = execute(bare, realistic_backend(ham, 1.0))
            for idx, expect in checks.items():
                assert abs(out[idx] - expect) < 1e-10

    def test_against_dense_exponential(self):
        ratio, omega = 7.3, 1.0
        sy = np.array([[0, -1j], [1j, 0]])
        n_op = np.diag([0.0, 1.0])
        h_int = ratio * np.kron(n_op, n_op)
        t = (np.pi / 2) / (2 * omega)
        u2 = expm(-1j * (2 * omega * np.kron(np.eye(2), sy) + h_int) * t)
        u1 = expm(-1j * (2 * omega * np.kron(sy, np.eye(2)) + h_int) * t)
        final = u1 @ u2 @ np.array([0, 0, 1, 0], complex)  # beta branch from |10>
        c = two_atom_coefficients(ratio, omega)
        assert abs(final[0b00] + c.gamma) < 1e-12
        assert abs(final[0b01] + c.leak**2) < 1e-12
        assert abs(final[0b11] - c.delta_prime) < 1e-12


class TestGhzFidelityCurve:
    def test_zero_interaction_quarter(self):
        assert ghz_fidelity_two_atoms(0.0, 1.0) == pytest.approx(0.25, abs=1e-15)

    def test_matches_simulation_on_grid(self):
        for ratio in np.linspace(0.1, 100, 25):
            out = execute(plan_ghz(2, TWO), realistic_backend(chain_hamiltonian(2, ratio), 1.0))
            f = fidelity_pure(ghz_dense(2, TWO), out)
            assert abs(f - ghz_fidelity_two_atoms(ratio, 1.0)) < 1e-10

    def test_leftmost_peak_location(self):
        peak = leftmost_fidelity_peak()
        assert min(abs(peak - 6.9), abs(peak - 7.2)) <= 0.5

    def test_large_ratio_approaches_unity(self):
        assert ghz_fidelity_two_atoms(1e4, 1.0) > 0.999

    @pytest.mark.parametrize("omega", [0.0, -1.0, np.nan, np.inf])
    def test_omega_validation(self, omega):
        # NaN once returned a NaN fidelity
        with pytest.raises(ValueError):
            ghz_fidelity_two_atoms(6.9, omega)


class TestRkPoint:
    def test_sign_and_values(self):
        p = rk_point(64.0, 1.0)
        assert p.z == pytest.approx(-1.0)
        assert p.delta == pytest.approx(-2.0)
        assert rk_point(10.0, 2.0).z < 0

    def test_substitution(self):
        v0, om = 37.0, 1.3
        p = rk_point(v0, om)
        assert p.delta == pytest.approx(64 * om**2 / v0 - 3 * v0 / 64)
        assert p.z == pytest.approx(-v0 / (64 * om))

    def test_validation(self):
        for v0, omega in [(0.0, 1.0), (1.0, 0.0), (np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0),
                          (1.0, np.inf)]:
            with pytest.raises(ValueError):
                rk_point(v0, omega)

    def test_ground_state_overlap_short_range(self):
        res = rk_ground_state_overlap(6, 64.0, InteractionRange.NEAREST_NEIGHBOR)
        assert res.z == pytest.approx(-1.0)
        assert res.overlap >= 0.99

    def test_full_range_tail_lowers_overlap(self):
        nn = rk_ground_state_overlap(4, 64.0, InteractionRange.NEAREST_NEIGHBOR)
        full = rk_ground_state_overlap(4, 64.0, InteractionRange.FULL)
        assert full.overlap < nn.overlap
        assert full.overlap > 0.9  # still a good approximation


def assert_matches_dense(n, ratio, interaction_range, omega=1.0):
    res = rk_ground_state_overlap(n, ratio, interaction_range, omega)
    energy, overlap, norm_bound = rk_overlap_dense(n, ratio, interaction_range, omega)
    assert abs(res.energy - energy) <= 1e-12 * norm_bound
    assert abs(res.overlap - overlap) <= 1e-10


class TestRkLanczos:
    """The matrix-free solver against dense eigh of the whole Hamiltonian."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 9), st.floats(np.log(2.0), np.log(1000.0)),
        st.sampled_from(list(InteractionRange)), st.floats(np.log(0.01), np.log(100.0)),
    )
    def test_matches_dense(self, n, log_ratio, interaction_range, log_omega):
        assert_matches_dense(n, np.exp(log_ratio), interaction_range, np.exp(log_omega))

    @pytest.mark.parametrize("n,ratio,interaction_range", [
        pytest.param(10, 64.0, InteractionRange.NEAREST_NEIGHBOR, id="cli-pipeline"),
        # a restart that keeps only the ground Ritz vector needed > 2000 restarts here
        pytest.param(9, 470.36, InteractionRange.FULL, id="slow"),
    ])
    def test_pinned_cases_match_dense(self, n, ratio, interaction_range):
        assert_matches_dense(n, ratio, interaction_range)

    def test_restart_cap_raises(self, monkeypatch):
        monkeypatch.setattr(analytics, "LANCZOS_MAX_RESTARTS", 2)
        with pytest.raises(NumericalError, match="not converged"):
            rk_ground_state_overlap(9, 470.36, InteractionRange.FULL)

    def test_no_dense_matrix(self, monkeypatch):
        # a dense H of 12 sites alone would be 4096^2 complex entries, 256 MiB
        shapes = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        tracemalloc.start()
        try:
            res = rk_ground_state_overlap(12, 64.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.overlap >= 0.99
        assert shapes and all(rows <= 24 and cols <= 24 for rows, cols in shapes)
        assert peak < 64 * 2**12 * 8

    def test_past_the_state_cap_raises_before_allocating(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the diagonal was built")

        monkeypatch.setattr(analytics, "interaction_diagonal", unreachable)
        with pytest.raises(CapacityError):
            rk_ground_state_overlap(21, 64.0)


class TestDecayFit:
    def test_exact_recovery(self):
        ns = np.arange(2, 9)
        ys = 0.9 * np.exp(-0.05 * (ns - 2))
        fit = fit_exponential_decay(zip(ns, ys))
        assert fit.a == pytest.approx(0.9, abs=1e-9)
        assert fit.b == pytest.approx(0.05, abs=1e-9)
        assert fit.residual < 1e-12

    def test_constant_data(self):
        fit = fit_exponential_decay([(n, 1.0) for n in range(2, 8)])
        assert fit.a == pytest.approx(1.0, abs=1e-9)
        assert fit.b == pytest.approx(0.0, abs=1e-9)

    def test_scale_consistency(self):
        ns = np.arange(2, 9)
        ys = 0.8 * np.exp(-0.12 * (ns - 2))
        f1 = fit_exponential_decay(zip(ns, ys))
        f2 = fit_exponential_decay(zip(ns, 0.5 * ys))
        assert f2.a == pytest.approx(0.5 * f1.a, abs=1e-9)
        assert f2.b == pytest.approx(f1.b, abs=1e-9)

    def test_noisy_data_errors_reported(self, rng):
        ns = np.arange(2, 10)
        ys = 0.95 * np.exp(-0.07 * (ns - 2)) + rng.normal(0, 0.01, len(ns))
        fit = fit_exponential_decay(zip(ns, ys))
        assert fit.a_err > 0
        assert fit.b_err > 0

    def test_degenerate_input(self):
        with pytest.raises(ValueError):
            fit_exponential_decay([(2, 0.5), (2, 0.6), (2, 0.7)])
        with pytest.raises(ValueError):
            fit_exponential_decay([(2, 0.5), (3, 0.6)])

    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from([2, 3]), st.integers(3, 9), st.floats(0.3, 1.0), st.floats(-0.05, 0.4),
        st.floats(0.0, 0.03), st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_fit(self, n0, count, a, b, sigma, seed):
        ns = np.arange(n0, n0 + count)
        ys = a * np.exp(-b * (ns - 2)) + sigma * np.random.default_rng(seed).standard_normal(count)
        fit = fit_exponential_decay(zip(ns, ys))
        ref = reference_decay_fit(zip(ns, ys))
        # 24,000 examples of this domain agreed to 2e-8 in a and b, 1e-7 relative in the errors
        assert fit.a == pytest.approx(ref.a, abs=1e-6)
        assert fit.b == pytest.approx(ref.b, abs=1e-6)
        assert fit.a_err == pytest.approx(ref.a_err, rel=1e-5, abs=1e-9)
        assert fit.b_err == pytest.approx(ref.b_err, rel=1e-5, abs=1e-9)
        assert fit.residual == pytest.approx(ref.residual, rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("b", [20.0, -20.0], ids=["steep-decay", "steep-growth"])
    def test_steep_curves_recovered_without_warnings(self, b):
        # the values span a factor e^140; a growth fit's Jacobian in (a, b) is
        # ill-conditioned about N = 2, yet both must come back exact and silent
        ns = np.arange(2, 10)
        ys = 0.7 * np.exp(-b * (ns - 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_exponential_decay(zip(ns, ys))
        assert fit.a == pytest.approx(0.7, rel=1e-12)
        assert fit.b == pytest.approx(b, rel=1e-12)

    def test_all_zero_fidelities_undetermined(self):
        # b is undetermined; this once returned a = b = 0 with zero errors
        with pytest.raises(NumericalError, match="undetermined"):
            fit_exponential_decay([(n, 0.0) for n in range(2, 8)])

    @pytest.mark.parametrize("points", [
        [(2, 1.0), (3, 0.0), (4, 0.0)], [(2, 0.9), (3, -0.5), (4, 0.2)],
    ], ids=["step-down", "alternating"])
    def test_no_finite_optimum_raises(self, points):
        with pytest.raises(NumericalError, match="no finite optimum"):
            fit_exponential_decay(points)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            fit_exponential_decay([(2, 0.9), (3, bad), (4, 0.8)])
        with pytest.raises(ValueError, match="must be finite"):
            fit_exponential_decay([(2, 0.9), (bad, 0.85), (4, 0.8)])


class TestNMax:
    def test_zero_budget(self):
        assert estimate_n_max(ProtocolKind.TRANSPORT, 52.8, 7.65, 0.0) == 1

    def test_matches_exhaustive_scan(self):
        v0, omega, tau = 52.78, 7.649, 2.0
        instant, same = HyperfinePolicy.INSTANTANEOUS, HyperfinePolicy.SAME_AS_OMEGA
        for kind, z, policy in (
            (ProtocolKind.TRANSPORT, None, instant),
            (ProtocolKind.GHZ3, None, instant),
            (ProtocolKind.GHZ3, None, same),
            (ProtocolKind.GHZ2, None, instant),
            (ProtocolKind.DIMER_MPS, 1.0, instant),
            (ProtocolKind.DIMER_MPS, 10.0, instant),
        ):
            shape = {} if z is None else {"z": z}  # a z the kind ignores raises
            def duration(n):
                if kind is ProtocolKind.TRANSPORT:
                    plan = plan_transport(n, 1.0, 0.0)
                elif kind is ProtocolKind.GHZ3:
                    plan = plan_ghz(n, LevelScheme.THREE_LEVEL)
                elif kind is ProtocolKind.GHZ2:
                    plan = plan_ghz(n, LevelScheme.TWO_LEVEL)
                else:
                    plan = plan_dimer_mps(n, z)
                return protocol_duration(plan, omega, policy)

            def n_max(budget):
                return estimate_n_max(kind, v0, omega, budget, **shape, hyperfine_policy=policy)

            scan = max(n for n in range(1, 200) if n == 1 or duration(n) <= tau)
            assert n_max(tau) == scan >= 2
            assert duration(scan) <= tau < duration(scan + 1)
            # a budget exactly equal to a chain's duration admits that chain
            for n in (2, 3, scan):
                assert n_max(duration(n)) == n
        # all dimer angles vanish at z = 0, so every length up to the cap fits:
        # the cap is no answer (this once returned n_cap)
        with pytest.raises(CapacityError, match="n_cap = 1000"):
            estimate_n_max(ProtocolKind.DIMER_MPS, v0, omega, 0.0, z=0.0)
        with pytest.raises(CapacityError, match="n_cap = 37"):
            estimate_n_max(ProtocolKind.DIMER_MPS, v0, omega, tau, z=0.0, n_cap=37)

    @pytest.mark.parametrize("tau", [np.inf, 1e9])
    def test_budget_past_the_cap_raises(self, tau):
        for kind in ProtocolKind:
            with pytest.raises(CapacityError, match="n_cap = 1000"):
                estimate_n_max(kind, 52.78, 7.649, tau)

    def test_z_of_a_kind_that_ignores_it_raises(self):
        # a z once passed to a transport plan was dropped: 10, as without it
        with pytest.raises(ValueError, match="protocol transport ignores z"):
            estimate_n_max(ProtocolKind.TRANSPORT, 52.78, 7.649, 2.0, z=10.0)

    def test_faster_drive_never_shrinks_reach(self):
        v0 = 52.78
        for kind in (ProtocolKind.TRANSPORT, ProtocolKind.GHZ3):
            slow = estimate_n_max(kind, v0, 7.649, 2.0)
            fast = estimate_n_max(kind, v0, 2 * 7.649, 2.0)
            assert fast >= slow

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_n_max(ProtocolKind.GHZ3, 0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            estimate_n_max(ProtocolKind.GHZ3, 1.0, 1.0, -1.0)

    @pytest.mark.parametrize("v0,omega,tau", [
        pytest.param(52.78, 7.6, np.nan, id="tau"),
        pytest.param(52.78, np.nan, 2.0, id="omega"),
        pytest.param(np.nan, 7.6, 2.0, id="v0"),
        pytest.param(52.78, np.inf, 2.0, id="omega-inf"),
        pytest.param(np.inf, 7.6, 2.0, id="v0-inf"),
    ])
    def test_nan_input_rejected(self, v0, omega, tau):
        # a NaN budget or a NaN or infinite drive once passed every guard and returned the cap, 1000
        with pytest.raises(ValueError):
            estimate_n_max(ProtocolKind.TRANSPORT, v0, omega, tau)
