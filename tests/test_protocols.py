import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import chain_hamiltonian, random_state, realistic_backend, run_ideal, run_realistic
from oracles import execute_full_width, initial_amplitudes
from rydchain import protocols
from rydchain.dynamics import (
    HamiltonianSpec,
    InteractionRange,
    PulseStep,
    Transition,
    build_full_hamiltonian,
    interaction_diagonal,
)
from rydchain.errors import CapacityError, NumericalError
from rydchain.lattice import (
    R0_DEFAULT,
    coupling_matrix,
    disorder_preset,
    realization_keys,
    sample_configuration,
)
from rydchain.protocols import (
    COEF_CHUNK,
    HyperfinePolicy,
    IdealBackend,
    ProtocolKind,
    ProtocolPlan,
    RealisticBackend,
    execute,
    gathered_mixes,
    mps_area_schedule,
    mps_area_schedule_polynomial,
    plan_dimer_mps,
    plan_for,
    plan_ghz,
    plan_transport,
    protocol_duration,
)
from rydchain.statekit import RYDBERG, LevelScheme, basis_digits, reduce_to_site
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

    @pytest.mark.parametrize("z", [1e200, -1e200])
    def test_overflowing_cross_check_fails_closed(self, z):
        # 4 z^2 overflows, the closed form turns NaN, and a NaN error once passed
        with pytest.raises(NumericalError, match="closed form"):
            plan_dimer_mps(4, z)

    @pytest.mark.parametrize("z", [1e5, 1e6, 1e8, -1e8])
    def test_large_z_passes_the_conditioned_cross_check(self, z):
        # a fixed 1e-12 tolerance refused these: 1 - q^m cancels as q nears -1
        sched = mps_area_schedule(6, z)
        assert np.abs(sched - mps_area_schedule_polynomial(6, z)).max() < 1e-8
        assert np.all(np.sign(sched) == np.sign(z))

    @pytest.mark.parametrize("n", [2, 6, 1000])
    def test_small_z_passes_the_cross_check(self, n):
        # arccos of a cosine that rounds to 1 refused 3e-5 >~ |z| >~ 1e-9
        worst = 0.0
        for z in [sign * 10.0**-e for e in range(3, 13) for sign in (1, -1)]:
            sched = mps_area_schedule(n, z)
            err = np.abs(sched - protocols._closed_form_range1(n, z)).max()
            worst = max(worst, err / max(1e-12, n * np.finfo(float).eps * abs(z)))
            assert np.all(np.sign(sched) == np.sign(z))
        assert worst < 1e-3  # measured: 2.2e-7

    @pytest.mark.parametrize("z", [1.0, 1e5, 1e8])
    def test_cross_check_catches_a_perturbed_angle(self, z, monkeypatch):
        closed_form = protocols._closed_form_range1

        def perturbed(n_sites, z):
            ref = closed_form(n_sites, z)
            ref[2] += 1e-6
            return ref

        monkeypatch.setattr(protocols, "_closed_form_range1", perturbed)
        with pytest.raises(NumericalError, match="closed form"):
            mps_area_schedule(6, z)

    def test_long_chain_stays_finite(self):
        # the closed-form cross-check must not overflow on long chains
        sched = mps_area_schedule(500, 10.0)
        assert np.isfinite(sched).all()
        assert np.all(np.cos(sched) > 0)


class TestDimerPlan:
    def test_zero_z_leaves_vacuum(self):
        out = execute(plan_dimer_mps(3, 0.0), IdealBackend())
        assert out[0] == 1.0

    def test_three_sites_amplitude_ratios(self):
        amp = execute(plan_dimer_mps(3, 1.0), IdealBackend())
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
        assert np.all(out[forbidden] == 0)


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

    @pytest.mark.parametrize("n", range(2, 10))
    def test_whole_chain_returns_to_ground_but_the_last_site(self, n, rng):
        # the last site's reduced state alone does not show sites 1..N-1 back in |0>
        for _ in range(10):
            ket = random_state(rng, 2)
            out = execute(plan_transport(n, ket[0], ket[1]), IdealBackend())
            expected = np.zeros_like(out)
            expected[:2] = ket  # |0...0> (x) (alpha|0> + beta|1>), up to one global phase
            assert abs(np.vdot(expected, out)) == pytest.approx(1.0, abs=1e-12)

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
        pytest.param((), (PulseStep(4, G_R, np.pi / 2),), id="post-beyond-chain"),
    ])
    def test_bad_plan_raises_when_built(self, steps, post):
        with pytest.raises(ValueError):
            ProtocolPlan(ProtocolKind.GHZ2, 3, TWO, steps, post)

    @pytest.mark.parametrize("site,theta", [
        pytest.param(2, 4.0, id="theta-out-of-range"),
        pytest.param(0, np.pi / 2, id="site-zero"),
    ])
    def test_bad_post_step_raises_when_built(self, site, theta):
        # a post-step was once checked only when execute copied it into a PulseStep
        with pytest.raises(ValueError):
            PulseStep(site, G_R, theta)

    @pytest.mark.parametrize("kind", [ProtocolKind.GHZ2, ProtocolKind.DIMER_MPS])
    def test_non_transport_plan_refuses_a_qubit(self, kind):
        # alpha/beta on a GHZ plan once ran exactly like the plan without them
        steps = plan_ghz(2, TWO).steps
        with pytest.raises(ValueError, match="alpha/beta"):
            ProtocolPlan(kind, 2, TWO, steps, alpha=0.6, beta=0.8)
        with pytest.raises(ValueError, match="alpha/beta"):
            ProtocolPlan(kind, 2, TWO, steps, beta=1.0)

    @pytest.mark.parametrize("field,value", [
        # blockade_range=1.5 once ran silently as radius 1, and a bool as 0 or 1
        ("blockade_range", 1.5), ("blockade_range", True), ("n_sites", 3.0), ("n_sites", True),
    ])
    def test_integer_field_must_be_an_integer(self, field, value):
        fields = {"n_sites": 3, "blockade_range": 1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ProtocolPlan(ProtocolKind.GHZ2, scheme=TWO, steps=(), **fields)
        plan = ProtocolPlan(ProtocolKind.GHZ2, np.int64(3), TWO, (), blockade_range=np.int64(2))
        assert type(plan.n_sites) is int and type(plan.blockade_range) is int

    @pytest.mark.parametrize("blockade_range", [-1, np.nan])
    def test_negative_blockade_range_raises_when_built(self, blockade_range):
        # the range is the ideal backend's radius; a negative one once waited for execute
        with pytest.raises(ValueError, match="blockade_range"):
            ProtocolPlan(ProtocolKind.GHZ2, 3, TWO, (), blockade_range=blockade_range)

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
        with pytest.raises(ValueError):
            plan_for("ghz4", 4, z=2.0)

    @pytest.mark.parametrize("kind,shape,names", [
        (ProtocolKind.GHZ2, {"z": 5.0}, "z"),
        (ProtocolKind.GHZ3, {"blockade_range": 2, "beta": 0.8}, "blockade_range, beta"),
        (ProtocolKind.TRANSPORT, {"blockade_range": 2}, "blockade_range"),
        (ProtocolKind.DIMER_MPS, {"alpha": float("nan")}, "alpha"),
        (ProtocolKind.GHZ2, {"z": 5.0, "alpha": 0.6, "beta": 0.8}, "z, alpha, beta"),
    ])
    def test_argument_the_kind_ignores_raises(self, kind, shape, names):
        # plan_for(GHZ2, 4, z=5.0, ...) once returned the plain GHZ plan, and
        # plan_for(TRANSPORT, 3, blockade_range=2) a range-1 plan
        with pytest.raises(ValueError, match=f"^protocol {kind.value} ignores {names}$"):
            plan_for(kind, 4, **shape)


class TestExecute:
    @pytest.mark.parametrize("plan", [
        plan_transport(25, 0.6, 0.8), plan_ghz(21, TWO), plan_ghz(13, THREE),
    ], ids=lambda plan: f"{plan.kind.value}{plan.n_sites}")
    @pytest.mark.parametrize("realistic", [False, True], ids=["ideal", "realistic"])
    def test_over_capacity_raises_before_allocating(self, plan, realistic):
        # the gate runs before execute allocates its whole-chain array
        backend = IdealBackend()
        if realistic:
            # energies of the right length that allocate nothing: one zero, broadcast
            backend = RealisticBackend(np.broadcast_to(0.0, plan.scheme.local_dim**plan.n_sites), 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="exceeds the cap"):
                execute(plan, backend)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # a 2^20-amplitude state alone takes 16 MiB

    def test_realistic_backend_honours_detuning(self, rng):
        theta = 1.234
        ham = HamiltonianSpec(chain_hamiltonian(3, 3.7).couplings, [0.9, -1.7, 2.3])
        step = PulseStep(2, Transition.GROUND_RYDBERG, theta)
        init = random_state(rng, 8)
        H = build_full_hamiltonian(ham, [0.0, 1.0, 0.0])
        dense = expm(-1j * H * theta / 2.0) @ init
        out = run_realistic(init, step, ham, 1.0)
        assert np.abs(out - dense).max() < 1e-9

    def test_empty_plan_returns_input(self):
        # the transported qubit on site 1 of a zeroed chain, with no pulse run
        plan = ProtocolPlan(ProtocolKind.TRANSPORT, 2, TWO, (), alpha=0.6, beta=0.8)
        out = execute(plan, IdealBackend())
        assert np.array_equal(out, [0.6, 0.0, 0.8, 0.0])

    def test_ghz2_realistic_amplitudes(self):
        from rydchain.analytics import two_atom_coefficients

        ratio = 6.9
        out = execute(plan_ghz(2, TWO), realistic_backend(chain_hamiltonian(2, ratio), 1.0))
        coeffs = two_atom_coefficients(ratio, 1.0)
        amp = out * np.sqrt(2)
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
        real = execute(plan, realistic_backend(ham, 1.0, plan.scheme))
        assert fidelity_pure(ideal, real) >= 1 - 1e-6

    def test_ghz3_leaves_no_rydberg_population(self):
        for n in (2, 4, 6):
            out = execute(plan_ghz(n, THREE), IdealBackend())
            occ = basis_digits(n, 3) == RYDBERG
            pop = float((occ.any(axis=1) * np.abs(out) ** 2).sum())
            assert pop < 1e-24

    @pytest.mark.parametrize("plan", [plan_ghz(4, TWO), plan_dimer_mps(4, 1.0, 2)])
    def test_ideal_backend_radius_zero_equals_stepwise_gates(self, plan):
        stepwise = initial_amplitudes(plan)
        for step in plan.steps:
            stepwise = run_ideal(stepwise, step, blockade_range=0)
        out = execute(dataclasses.replace(plan, blockade_range=0), IdealBackend())
        assert np.array_equal(out, stepwise)
        blockaded = execute(dataclasses.replace(plan, blockade_range=1), IdealBackend())
        assert not np.allclose(out, blockaded)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(plan_ghz(3, TWO), blockade_range=-1)

    def test_backend_hamiltonian_mismatch(self):
        with pytest.raises(ValueError):
            execute(plan_ghz(3, TWO), realistic_backend(chain_hamiltonian(4, 1.0), 1.0))

    @pytest.mark.parametrize("shape", [(7,), (9,), (8, 1), (1, 8)])
    def test_backend_energies_must_be_one_chain_diagonal(self, shape):
        # a block's (d^n, R) diagonals go in one column at a time
        with pytest.raises(ValueError, match="backend energies"):
            execute(plan_ghz(3, TWO), RealisticBackend(np.zeros(shape), 1.0))

    def test_backend_energies_must_be_real(self):
        # a complex diagonal once only warned, then ran on its real part
        with pytest.raises(ValueError, match="energies must be real"):
            RealisticBackend(np.array([0.0, 0.0, 0.0, 6.9]) + 0.5j, 1.0)

    @pytest.mark.parametrize("omega", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_backend_omega_must_be_finite_and_positive(self, omega):
        # NaN and inf were once accepted and failed only inside execute, on the norm check
        with pytest.raises(ValueError, match="omega"):
            realistic_backend(chain_hamiltonian(2, 6.9), omega)


class TestSchedule:
    """The pulse schedule a plan compiles once for execute."""

    # the widest pulses of ghz2/mps N=14, ghz3 N=9 and transport N=14 drive
    # more than COEF_CHUNK blocks, so these plans straddle the gathered/wide
    # boundary; every pulse of ghz3 N=8 is gathered, and the widest of
    # transport N=13 drive exactly COEF_CHUNK blocks
    PLANS = {
        "ghz2-14": lambda: plan_ghz(14, TWO),
        "mps-14": lambda: plan_dimer_mps(14, -3.0),
        "ghz3-8": lambda: plan_ghz(8, THREE),
        "ghz3-9": lambda: plan_ghz(9, THREE),
        "transport-13": lambda: plan_transport(13, 0.6, 0.8),
        "transport-14": lambda: plan_transport(14, 0.6, 0.8),
    }
    STRADDLING = ("ghz2-14", "mps-14", "ghz3-9", "transport-14")

    @pytest.mark.parametrize("name", PLANS)
    @pytest.mark.parametrize("ratio, disorder", [(6.9, "aniso"), (15.5, "iso")])
    def test_chunked_execute_equals_full_width(self, name, ratio, disorder):
        plan = self.PLANS[name]()
        gathered = len(plan.schedule.parts)
        assert gathered > 1 and (gathered < len(plan.steps)) == (name in self.STRADDLING)
        n = plan.n_sites
        config = sample_configuration(n, R0_DEFAULT, disorder_preset(disorder), 2024)
        hamiltonian = HamiltonianSpec(coupling_matrix(config, ratio, R0_DEFAULT))
        backend = realistic_backend(hamiltonian, 1.0, plan.scheme)
        full = execute_full_width(plan, backend, initial_amplitudes(plan))
        assert np.abs(execute(plan, backend) - full).max() <= 1e-14

    @pytest.mark.parametrize("name", PLANS)
    def test_chunks_tile_the_steps(self, name):
        plan = self.PLANS[name]()
        schedule = plan.schedule
        assert schedule is plan.schedule  # compiled once
        dim = plan.scheme.local_dim
        blocks = [dim ** (m - 1) for m in schedule.widths]
        parts = schedule.parts
        # the gathered pulses are steps[:len(parts)]: each drives at most
        # COEF_CHUNK blocks, and every later pulse more
        gathered = len(parts)
        assert max(blocks[:gathered]) <= COEF_CHUNK
        assert all(count > COEF_CHUNK for count in blocks[gathered:])
        assert (gathered < len(blocks)) == (name in self.STRADDLING)
        # each pulse's blocks follow the previous pulse's, from 0 to K
        assert [part.start for part in parts] == [0] + [part.stop for part in parts[:-1]]
        assert [part.stop - part.start for part in parts] == blocks[:gathered]
        total = parts[-1].stop
        # one contiguous array per gathered pulse, one row per level (lo and
        # hi, and on three levels the undriven one) and one column per block
        positions = schedule.positions
        assert [p.shape for p in positions] == [(dim, part.stop - part.start) for part in parts]
        assert all(p.dtype == np.intp and p.flags.c_contiguous for p in positions)
        assert schedule.half_theta.shape == schedule.sign.shape == (total,)
        # one set of post-processing entries per post-step, as plan constants
        assert len(schedule.post) == len(plan.post_steps)
        arrays = schedule_arrays(schedule)
        assert len(arrays) == gathered + 2 and not any(a.flags.writeable for a in arrays)

    def test_execute_returns_its_own_array(self):
        # with no pulse the final state is the initial one: each run must
        # hand out a fresh writable array, never one a later run reuses
        plan = ProtocolPlan(ProtocolKind.GHZ2, 3, TWO, ())
        first, second = execute(plan, IdealBackend()), execute(plan, IdealBackend())
        assert first.flags.writeable and not np.shares_memory(first, second)
        assert np.array_equal(first, initial_amplitudes(plan))

    def test_schedule_memory_is_bounded_by_the_chunk(self):
        # 32 bytes (two positions, |theta|/2 and the sign) per gathered block,
        # and the gathered pulses sum to about 2 COEF_CHUNK blocks; the
        # 2^18-entry diagonal alone would be 512 COEF_CHUNK bytes
        plan = plan_ghz(18, TWO)
        execute(plan, realistic_backend(chain_hamiltonian(18, 15.5), 1.0))
        assert 0 < sum(a.nbytes for a in schedule_arrays(plan.schedule)) <= 128 * COEF_CHUNK

    @pytest.mark.parametrize("name", ["ghz3-8", "transport-13"])
    def test_gathered_pulses_skip_the_view_kernels(self, name, monkeypatch):
        # every pulse of these plans is gathered: the view kernels run only
        # the post-processing gates
        plan = self.PLANS[name]()
        assert len(plan.schedule.parts) == len(plan.steps)
        calls = {"_rotate_pairs": 0, "_pulse_on_array": 0}
        for kernel in calls:
            real = getattr(protocols, kernel)

            def counting(*args, _real=real, _kernel=kernel):
                calls[_kernel] += 1
                return _real(*args)

            monkeypatch.setattr(protocols, kernel, counting)
        hamiltonian = chain_hamiltonian(plan.n_sites, 6.9)
        execute(plan, realistic_backend(hamiltonian, 1.0, plan.scheme))
        assert calls == {"_rotate_pairs": len(plan.post_steps), "_pulse_on_array": 0}
        # the wide pulses of a straddling plan keep the view kernel
        plan = self.PLANS["transport-14"]()
        execute(plan, realistic_backend(chain_hamiltonian(14, 6.9), 1.0))
        wide = len(plan.steps) - len(plan.schedule.parts)
        assert calls["_pulse_on_array"] == wide > 0

    @pytest.mark.parametrize("name", ["mps-14", "ghz3-8"])
    def test_stacked_mixes_equal_each_lone_backend(self, name):
        # one pass over R diagonals gives each realization the row a lone
        # backend computes for itself, bit for bit, and the same final state
        plan = self.PLANS[name]()
        n, dim = plan.n_sites, plan.scheme.local_dim
        keys = realization_keys(5, n, 0, range(3))
        configs = sample_configuration(n, R0_DEFAULT, disorder_preset("aniso"), keys)
        energies = interaction_diagonal(HamiltonianSpec(coupling_matrix(configs, 6.9, R0_DEFAULT)), dim)
        mixes = gathered_mixes(plan, energies, 1.0)
        assert mixes.shape == (3, 2, dim, plan.schedule.parts[-1].stop)
        for column, row in zip(energies.T, mixes):
            assert np.array_equal(row, gathered_mixes(plan, column[:, None], 1.0)[0])
            lone = execute(plan, RealisticBackend(column, 1.0))
            assert np.array_equal(execute(plan, RealisticBackend(column, 1.0, row)), lone)

    def test_mixes_of_another_schedule_raise(self):
        plan, other = plan_ghz(4, TWO), plan_transport(4, 0.6, 0.8)
        energies = realistic_backend(chain_hamiltonian(4, 6.9), 1.0).energies
        row = gathered_mixes(other, energies[:, None], 1.0)[0]
        with pytest.raises(ValueError, match="backend mixes"):
            execute(plan, RealisticBackend(energies, 1.0, row))


class TestKernelMemory:
    """What one execute allocates beyond the state it returns."""

    @pytest.mark.parametrize("kind, n", [(ProtocolKind.GHZ2, 18), (ProtocolKind.GHZ3, 11),
                                         (ProtocolKind.DIMER_MPS, 16), (ProtocolKind.TRANSPORT, 17),
                                         (ProtocolKind.TRANSPORT, 18)])
    @pytest.mark.parametrize("realistic", [True, False])
    def test_execute_allocates_the_state_and_a_few_chunks(self, kind, n, realistic):
        # no kernel temporary grows with the chain: past the returned state,
        # one execute allocates at most 256 COEF_CHUNK bytes (1 MiB).  The
        # realistic run is given its gathered mixes, as a sweep's block gives
        # them; every wide pulse of these plans is sliced
        plan = plan_for(kind, n)
        if realistic:
            energies = interaction_diagonal(chain_hamiltonian(n, 6.9), plan.scheme.local_dim)
            backend = RealisticBackend(energies, 1.0, gathered_mixes(plan, energies[:, None], 1.0)[0])
        else:
            backend = IdealBackend()
        execute(plan, backend)  # compiles the schedule
        tracemalloc.start()
        try:
            final = execute(plan, backend)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - final.nbytes <= 256 * COEF_CHUNK


def schedule_arrays(schedule) -> list[np.ndarray]:
    """Every array a schedule holds, including those inside its tuples."""
    arrays, pending = [], list(vars(schedule).values())
    while pending:
        value = pending.pop()
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, tuple):
            pending.extend(value)
    return arrays


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

    def test_nan_omega_rejected(self):
        # an infinite omega once made every duration 0
        for omega in (np.nan, np.inf):
            with pytest.raises(ValueError):
                protocol_duration(plan_ghz(2, TWO), omega)

