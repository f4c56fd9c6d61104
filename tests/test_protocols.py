import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import chain_hamiltonian, random_state, run_ideal
from rydchain.dynamics import (
    HamiltonianSpec,
    InteractionRange,
    PulseStep,
    Transition,
    build_full_hamiltonian,
)
from rydchain.protocols import (
    HyperfinePolicy,
    IdealBackend,
    PostStep,
    ProtocolKind,
    ProtocolPlan,
    RealisticBackend,
    execute,
    initial_state,
    mps_area_schedule,
    mps_area_schedule_polynomial,
    plan_dimer_mps,
    plan_for,
    plan_ghz,
    plan_transport,
    protocol_duration,
)
from rydchain.statekit import (
    RYDBERG,
    LevelScheme,
    basis_digits,
    embed_initial_qubit,
    from_amplitudes,
    reduce_to_site,
)
from rydchain.targets import (
    dimer_target_direct,
    fidelity_mixed_single_qubit,
    fidelity_pure,
    ghz_target,
)

TWO = LevelScheme.TWO_LEVEL
THREE = LevelScheme.THREE_LEVEL
G_R = Transition.GROUND_RYDBERG
HYPERFINE = Transition.RYDBERG_HYPERFINE

# closed-form angles for n=3, z=1: arctan(1), arctan(cos(pi/4)), arctan(sqrt(2/3))
N3_Z1_ANGLES = (0.6847192030022829, 0.6154797086703873, 0.7853981633974483)


class TestPlanGhz:
    def test_three_level_two_sites_sequence(self):
        plan = plan_ghz(2, THREE)
        assert [(s.site, s.transition.value, s.theta) for s in plan.steps] == [
            (1, "01", np.pi / 4),
            (2, "01", np.pi / 2),
            (1, "1h", np.pi / 2),
        ]
        assert len(plan.steps) == 3  # 2N - 1
        assert len(plan.post_steps) == 1
        assert plan.post_steps[0].site == 2
        assert plan.post_steps[0].transition is Transition.RYDBERG_HYPERFINE

    def test_two_level_four_sites(self):
        plan = plan_ghz(4, TWO)
        assert len(plan.steps) == 4
        assert plan.steps[0].theta == np.pi / 4
        assert all(s.theta == np.pi / 2 for s in plan.steps[1:])
        assert [s.site for s in plan.steps] == [1, 2, 3, 4]

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_ideal_execution_hits_target(self, n):
        plan = plan_ghz(n, THREE)
        out = execute(plan, IdealBackend())
        target = ghz_target(n, THREE)
        assert fidelity_pure(target, out) == pytest.approx(1.0, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError):
            plan_ghz(1, TWO)


class TestStepCounts:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_table_counts(self, n):
        assert len(plan_ghz(n, TWO).steps) == n
        assert len(plan_ghz(n, THREE).steps) == 2 * n - 1
        assert len(plan_dimer_mps(n, 1.0).steps) == n
        transport = plan_transport(n, 1.0, 0.0)
        assert len(transport.steps) == 2 * n - 2
        assert len(transport.post_steps) == (1 if n % 2 == 0 else 0)


class TestAreaSchedule:
    def test_zero_z(self):
        sched = mps_area_schedule(5, 0.0)
        assert np.all(sched == 0)

    def test_last_site_angle(self):
        for z in (0.3, 1.0, 4.2):
            sched = mps_area_schedule(4, z)
            assert sched[-1] == pytest.approx(np.arctan(z), abs=1e-15)
        assert mps_area_schedule(4, 1.0)[-1] == pytest.approx(np.pi / 4)

    def test_frozen_triple(self):
        sched = mps_area_schedule(3, 1.0)
        assert np.allclose(sched, N3_Z1_ANGLES, atol=1e-12)

    @pytest.mark.parametrize("z", [0.1, 1.0, 10.0, -0.8])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_defining_relation(self, z, r):
        n = 9
        sched = mps_area_schedule(n, z, r)
        th = np.concatenate([sched, np.zeros(r)])  # angles beyond the chain are 0
        for j in range(n):
            lhs = np.sin(th[j]) / np.prod(np.cos(th[j : j + r + 1]))
            assert lhs == pytest.approx(z, abs=1e-12)
        assert np.all(np.cos(sched) > 0)
        if z:
            assert np.all(np.sign(np.sin(sched)) == np.sign(z))

    @pytest.mark.parametrize("n,r,z", [
        (n, r, z)
        for n, z in itertools.chain(
            itertools.product([3, 7, 12], [0.1, 1.0, 10.0]),
            # large N*|z|: the raw root powers overflow without rescaling
            [(320, 10.0), (1000, 30.0), (1000, -3.0)],
        )
        for r in [1, 2, 3]
    ])
    def test_polynomial_method_agrees(self, n, r, z):
        a = mps_area_schedule(n, z, r)
        b = mps_area_schedule_polynomial(n, z, r)
        assert np.abs(a - b).max() < 1e-8

    def test_polynomial_zero_z(self):
        assert np.all(mps_area_schedule_polynomial(6, 0.0, 2) == 0)

    def test_polynomial_roots_r1(self):
        # lambda_pm = (1 +- sqrt(1+4z^2))/2 reproduces the closed form
        z = 0.7
        s = np.sqrt(1 + 4 * z * z)
        roots = np.roots([1, -1, -z * z])
        assert sorted(np.round(roots, 12)) == sorted(
            np.round([(1 - s) / 2, (1 + s) / 2], 12)
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            mps_area_schedule(3, np.inf)
        with pytest.raises(ValueError):
            mps_area_schedule(3, 1.0, 0)

    def test_long_chain_stays_finite(self):
        # the closed-form cross-check must not overflow on long chains
        sched = mps_area_schedule(500, 10.0)
        assert np.isfinite(sched).all()
        assert np.all(np.cos(sched) > 0)


class TestDimerPlan:
    def test_zero_z_leaves_vacuum(self):
        out = execute(plan_dimer_mps(3, 0.0), IdealBackend())
        assert out.amplitudes[0] == 1.0

    def test_three_sites_amplitude_ratios(self):
        out = execute(plan_dimer_mps(3, 1.0), IdealBackend())
        amp = out.amplitudes
        vac = amp[0b000]
        for idx in (0b100, 0b010, 0b001):
            assert (amp[idx] / vac).real == pytest.approx(1.0, abs=1e-12)
        assert (amp[0b101] / vac).real == pytest.approx(1.0, abs=1e-12)
        assert set(np.flatnonzero(np.abs(amp) > 1e-14)) == {0, 0b100, 0b010, 0b001, 0b101}

    def test_six_sites_z10(self):
        out = execute(plan_dimer_mps(6, 10.0), IdealBackend())
        target = dimer_target_direct(6, 10.0)
        assert fidelity_pure(target, out) >= 1 - 1e-10

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_no_forbidden_weight(self, n, r):
        out = execute(plan_dimer_mps(n, 2.0, r), IdealBackend())
        occ = basis_digits(n, 2) == RYDBERG
        forbidden = np.zeros(2**n, dtype=bool)
        for d in range(1, r + 1):
            forbidden |= (occ[:, :-d] & occ[:, d:]).any(axis=1)
        assert np.all(out.amplitudes[forbidden] == 0)


class TestTransportPlan:
    def test_odd_chain_exact(self):
        alpha, beta = 0.3 - 0.4j, np.sqrt(1 - 0.25)
        out = execute(plan_transport(3, alpha, beta), IdealBackend())
        rho = reduce_to_site(out, 3)
        ket = np.array([alpha, beta])
        assert fidelity_mixed_single_qubit(ket, rho) == pytest.approx(1.0, abs=1e-12)
        # the final site state is exactly the input ket (global phase aside)
        assert np.abs(rho - np.outer(ket, ket.conj())).max() < 1e-12

    def test_even_chain_correction(self):
        alpha = beta = 1 / np.sqrt(2)
        out = execute(plan_transport(2, alpha, beta), IdealBackend())
        rho = reduce_to_site(out, 2)
        ket = np.array([alpha, beta])
        assert np.abs(rho - np.outer(ket, ket.conj())).max() < 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_exact_for_random_inputs(self, n, rng):
        for _ in range(10):
            ket = random_state(rng, 2)
            out = execute(plan_transport(n, ket[0], ket[1]), IdealBackend())
            rho = reduce_to_site(out, n)
            assert fidelity_mixed_single_qubit(ket, rho) == pytest.approx(1.0, abs=1e-12)

    def test_classical_bit(self):
        for n in (2, 3, 5):
            out = execute(plan_transport(n, 1.0, 0.0), IdealBackend())
            rho = reduce_to_site(out, n)
            assert np.allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_transport(1, 1.0, 0.0)
        with pytest.raises(ValueError):
            plan_transport(3, 1.0, 0.5)

    @pytest.mark.parametrize("alpha,beta", [(np.nan, 0.5), (2.0, np.nan)])
    def test_nan_amplitudes_rejected(self, alpha, beta):
        with pytest.raises(ValueError):
            plan_transport(3, alpha, beta)


class TestPlanValidation:
    """A plan that a backend could not run as written raises when it is built."""

    @pytest.mark.parametrize("steps,post", [
        # a 1h step on a two-level chain was once skipped silently, leaving |100>
        pytest.param(
            (PulseStep(1, G_R, np.pi / 2), PulseStep(1, HYPERFINE, np.pi / 2)), (),
            id="1h-on-two-level",
        ),
        pytest.param((PulseStep(4, G_R, np.pi / 2),), (), id="step-beyond-chain"),
        pytest.param((), (PostStep(4, G_R, np.pi / 2),), id="post-beyond-chain"),
    ])
    def test_bad_plan_raises_when_built(self, steps, post):
        with pytest.raises(ValueError):
            ProtocolPlan(ProtocolKind.GHZ2, 3, TWO, steps, post)

    @pytest.mark.parametrize("alpha,beta", [
        pytest.param(None, None, id="missing"),
        pytest.param(1.0, None, id="beta-missing"),
        pytest.param(np.nan, 0.5, id="nan"),
        pytest.param(0.6, 0.9, id="not-normalized"),
    ])
    def test_transport_plan_needs_a_normalized_qubit(self, alpha, beta):
        # a hand-built plan without alpha/beta once failed at run time with a bare TypeError
        with pytest.raises(ValueError):
            ProtocolPlan(ProtocolKind.TRANSPORT, 2, TWO, (), alpha=alpha, beta=beta)

    @pytest.mark.parametrize("kind", list(ProtocolKind))
    def test_every_dispatched_plan_builds(self, kind):
        for n in range(2, 9):
            plan = plan_for(kind, n)
            assert plan.n_sites == n
            assert max(s.site for s in (*plan.steps, *plan.post_steps)) <= n


class TestPlanFor:
    def test_dispatch_matches_plan_functions(self):
        assert plan_for(ProtocolKind.GHZ2, 4) == plan_ghz(4, TWO)
        assert plan_for(ProtocolKind.GHZ3, 3) == plan_ghz(3, THREE)
        assert plan_for(ProtocolKind.DIMER_MPS, 5, z=-2.3, blockade_range=2) == plan_dimer_mps(
            5, -2.3, 2
        )
        assert plan_for(ProtocolKind.TRANSPORT, 4, alpha=0.6, beta=0.8) == plan_transport(
            4, 0.6, 0.8
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            plan_for("ghz4", 4)


class TestExecute:
    def test_realistic_backend_honours_detuning(self, rng):
        theta = 1.234
        ham = HamiltonianSpec(chain_hamiltonian(3, 3.7).couplings, [0.9, -1.7, 2.3])
        step = PulseStep(2, Transition.GROUND_RYDBERG, theta)
        plan = ProtocolPlan(ProtocolKind.GHZ2, 3, TWO, (step,))
        init = from_amplitudes(3, TWO, random_state(rng, 8))
        H = build_full_hamiltonian(ham, [0.0, 1.0, 0.0])
        dense = expm(-1j * H * theta / 2.0) @ init.amplitudes
        out = execute(plan, RealisticBackend(ham, 1.0), initial=init)
        assert np.abs(out.amplitudes - dense).max() < 1e-9

    def test_empty_plan_returns_input(self, rng):
        plan = ProtocolPlan(ProtocolKind.TRANSPORT, 2, TWO, (), alpha=1.0, beta=0.0)
        init = embed_initial_qubit(0.6, 0.8, 2)
        out = execute(plan, IdealBackend(), initial=init)
        assert np.array_equal(out.amplitudes, init.amplitudes)

    def test_ghz2_realistic_amplitudes(self):
        from rydchain.analytics import two_atom_coefficients

        ratio = 6.9
        out = execute(plan_ghz(2, TWO), RealisticBackend(chain_hamiltonian(2, ratio), 1.0))
        coeffs = two_atom_coefficients(ratio, 1.0)
        amp = out.amplitudes * np.sqrt(2)
        assert abs(amp[0b01] - 1.0) < 1e-10
        assert abs(amp[0b10] - coeffs.gamma) < 1e-10
        assert abs(abs(amp[0b11]) - coeffs.delta) < 1e-10

    @pytest.mark.parametrize("make_plan", [
        lambda: plan_ghz(4, TWO),
        lambda: plan_ghz(4, THREE),
        lambda: plan_dimer_mps(5, 1.0),
        lambda: plan_transport(5, 0.6, 0.8),
    ])
    def test_blockade_limit_matches_ideal(self, make_plan):
        plan = make_plan()
        ham = chain_hamiltonian(plan.n_sites, 1e6, InteractionRange.NEAREST_NEIGHBOR)
        ideal = execute(plan, IdealBackend())
        real = execute(plan, RealisticBackend(ham, 1.0))
        assert fidelity_pure(ideal, real) >= 1 - 1e-6

    def test_ghz3_leaves_no_rydberg_population(self):
        for n in (2, 4, 6):
            out = execute(plan_ghz(n, THREE), IdealBackend())
            occ = basis_digits(n, 3) == RYDBERG
            pop = float((occ.any(axis=1) * np.abs(out.amplitudes) ** 2).sum())
            assert pop < 1e-24

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            execute(plan_ghz(3, TWO), IdealBackend(), initial=embed_initial_qubit(1, 0, 4))

    @pytest.mark.parametrize("plan", [plan_ghz(4, TWO), plan_dimer_mps(4, 1.0, 2)])
    def test_ideal_backend_radius_zero_equals_stepwise_gates(self, plan):
        stepwise = initial_state(plan)
        for step in plan.steps:
            stepwise = run_ideal(stepwise, step, blockade_radius=0)
        out = execute(plan, IdealBackend(blockade_radius=0))
        assert np.array_equal(out.amplitudes, stepwise.amplitudes)
        blockaded = execute(plan, IdealBackend(blockade_radius=1))
        assert not np.allclose(out.amplitudes, blockaded.amplitudes)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            execute(plan_ghz(3, TWO), IdealBackend(blockade_radius=-1))

    def test_backend_hamiltonian_mismatch(self):
        with pytest.raises(ValueError):
            execute(plan_ghz(3, TWO), RealisticBackend(chain_hamiltonian(4, 1.0), 1.0))


class TestDuration:
    def test_single_pi_pulse(self):
        plan = ProtocolPlan(
            ProtocolKind.TRANSPORT, 2, TWO,
            (plan_transport(2, 1.0, 0.0).steps[0],),
            alpha=1.0, beta=0.0,
        )
        assert protocol_duration(plan, 7.65) == pytest.approx(0.1027, abs=5e-5)

    def test_empty_plan(self):
        plan = ProtocolPlan(ProtocolKind.GHZ2, 2, TWO, ())
        assert protocol_duration(plan, 1.0) == 0.0

    def test_dimer_additivity(self):
        omega = 2.0
        plan = plan_dimer_mps(5, 1.7)
        total = sum(abs(s.theta) for s in plan.steps) / (2 * omega)
        assert protocol_duration(plan, omega) == pytest.approx(total, rel=1e-15)

    def test_hyperfine_policy(self):
        plan = plan_ghz(3, THREE)
        omega = 1.0
        drive = (np.pi / 4 + 2 * (np.pi / 2)) / (2 * omega)
        transfers = 2 * (np.pi / 2) / (2 * omega)  # post transfer stays free
        assert protocol_duration(plan, omega) == pytest.approx(drive)
        assert protocol_duration(plan, omega, HyperfinePolicy.SAME_AS_OMEGA) == pytest.approx(
            drive + transfers
        )

    def test_invalid_omega(self):
        with pytest.raises(ValueError):
            protocol_duration(plan_ghz(2, TWO), 0.0)

