"""Acceptance suite: one test per exit criterion.

Each criterion prints a single ``ACCEPTANCE <k> <name>: PASS|FAIL`` line
(run pytest with ``-s`` to see the lines for passing tests too) and then
asserts.  Criteria 7 and 10 compare simulated results against externally
reported reference values at fixed tolerances; the assertion messages
carry the computed numbers.
"""

import dataclasses
import time

import numpy as np
import pytest

from conftest import chain_hamiltonian, random_state, realistic_backend
from oracles import ghz_dense
from rydchain.analytics import (
    estimate_n_max,
    fit_exponential_decay,
    ghz_fidelity_two_atoms,
    rk_ground_state_overlap,
    two_atom_coefficients,
)
from rydchain.dynamics import InteractionRange
from rydchain.lattice import V0_REFERENCE, disorder_preset
from rydchain.montecarlo import SweepSpec, run_sweep
from rydchain.protocols import (
    IdealBackend,
    ProtocolKind,
    ProtocolPlan,
    execute,
    mps_area_schedule,
    mps_area_schedule_polynomial,
    plan_dimer_mps,
    plan_ghz,
    plan_transport,
)
from rydchain.statekit import RYDBERG, LevelScheme, basis_digits, reduce_to_site
from rydchain.targets import (
    dimer_target_direct,
    fidelity_mixed_single_qubit,
    fidelity_pure,
)

TWO = LevelScheme.TWO_LEVEL
THREE = LevelScheme.THREE_LEVEL
MASTER_SEED = 20260808

_results: list[str] = []


def report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    _results.append(line)
    print(line, flush=True)
    return ok


def test_criterion_01_two_atom_ghz_oracle():
    grid = np.linspace(0.1, 100.0, 100)
    ghz_fidelity_two_atoms(1.0, 1.0)  # warm caches before timing
    execute(plan_ghz(2, TWO), realistic_backend(chain_hamiltonian(2, 1.0), 1.0))
    start = time.perf_counter()
    worst = 0.0
    for ratio in grid:
        out = execute(plan_ghz(2, TWO), realistic_backend(chain_hamiltonian(2, ratio), 1.0))
        f = fidelity_pure(ghz_dense(2, TWO), out)
        worst = max(worst, abs(f - ghz_fidelity_two_atoms(ratio, 1.0)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    report(1, "two-atom GHZ fidelity oracle", ok, f"max dev {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_02_transport_coefficient_oracle():
    grid = np.linspace(0.5, 40.0, 20)
    start = time.perf_counter()
    worst = 0.0
    for ratio in grid:
        c = two_atom_coefficients(ratio, 1.0)
        ham = chain_hamiltonian(2, ratio)
        # alpha branch: |11> amplitude carries |gamma'|
        plan = plan_transport(2, 1.0, 0.0)
        bare = ProtocolPlan(plan.kind, 2, TWO, plan.steps, (), alpha=1.0, beta=0.0)
        out = execute(bare, realistic_backend(ham, 1.0))
        worst = max(worst, abs(abs(out[0b11]) - c.gamma_prime))
        # beta branch: |11> carries |delta'|, |01> the normalization remainder
        plan = plan_transport(2, 0.0, 1.0)
        bare = ProtocolPlan(plan.kind, 2, TWO, plan.steps, (), alpha=0.0, beta=1.0)
        out = execute(bare, realistic_backend(ham, 1.0))
        worst = max(worst, abs(abs(out[0b11]) - abs(c.delta_prime)))
        remainder = np.sqrt(1.0 - abs(c.gamma) ** 2 - abs(c.delta_prime) ** 2)
        worst = max(worst, abs(abs(out[0b01]) - remainder))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    report(2, "transport coefficient magnitudes", ok, f"max dev {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_03_fidelity_limits():
    weak = execute(plan_ghz(2, THREE), realistic_backend(chain_hamiltonian(2, 1e-4), 1.0, THREE))
    f_weak = fidelity_pure(ghz_dense(2, THREE), weak)
    ok_weak = abs(f_weak - 0.25) < 1e-3

    strong = [
        fidelity_pure(
            ghz_dense(n, THREE),
            execute(plan_ghz(n, THREE), realistic_backend(chain_hamiltonian(n, 1e4), 1.0, THREE)),
        )
        for n in (2, 4)
    ]
    ok_strong = all(f >= 0.999 for f in strong)

    two_level = fidelity_pure(
        ghz_dense(4, TWO),
        execute(plan_ghz(4, TWO), realistic_backend(chain_hamiltonian(4, 1e4), 1.0)),
    )
    ok_two = two_level < 0.1

    ok = ok_weak and ok_strong and ok_two
    report(3, "weak/strong blockade limits", ok,
           f"F(1e-4)={f_weak:.5f}, F3(1e4)={min(strong):.5f}, F2(1e4)={two_level:.2e}")
    assert ok


def test_criterion_04_ideal_backend_exactness():
    start = time.perf_counter()
    worst = 1.0
    for n in (2, 4, 6, 8):  # alternating pattern closes on even lengths
        f = fidelity_pure(ghz_dense(n, THREE), execute(plan_ghz(n, THREE), IdealBackend()))
        worst = min(worst, f)
    for z in (0.1, 1.0, 10.0):
        for r in (1, 2):
            for n in range(2, 9):
                out = execute(plan_dimer_mps(n, z, r), IdealBackend())
                worst = min(worst, fidelity_pure(dimer_target_direct(n, z, r), out))
    rng = np.random.default_rng(99)
    for n in range(2, 9):
        for _ in range(10):
            ket = random_state(rng, 2)
            out = execute(plan_transport(n, ket[0], ket[1]), IdealBackend())
            worst = min(worst, fidelity_mixed_single_qubit(ket, reduce_to_site(out, n)))
    elapsed = time.perf_counter() - start
    ok = worst >= 1 - 1e-10 and elapsed < 10.0
    report(4, "ideal-backend exactness", ok, f"min fidelity {worst:.12f}, {elapsed:.1f}s")
    assert ok


def test_criterion_05_schedule_cross_validation():
    worst_cf, worst_poly = 0.0, 0.0
    for z in (0.1, 1.0, 10.0):
        for n in (2, 5, 8, 12):
            rec = mps_area_schedule(n, z, 1)  # self-checks against the closed form at 1e-12
            for r in (1, 2, 3):
                a = mps_area_schedule(n, z, r)
                b = mps_area_schedule_polynomial(n, z, r)
                worst_poly = max(worst_poly, float(np.abs(a - b).max()))
    ok = worst_poly < 1e-8
    report(5, "area-schedule cross-validation", ok, f"max recursion-vs-polynomial {worst_poly:.2e}")
    assert ok


def test_criterion_06_executed_amplitude_law():
    worst = 0.0
    for z in (0.1, 1.0, 10.0):
        for n in range(2, 9):
            out = execute(plan_dimer_mps(n, z), IdealBackend())
            amp = out
            occ = basis_digits(n, 2) == RYDBERG
            adjacent = (occ[:, :-1] & occ[:, 1:]).any(axis=1)
            n_exc = occ.sum(axis=1)
            vac = amp[0]
            for idx in range(2**n):
                if adjacent[idx]:
                    assert amp[idx] == 0
                else:
                    expect = z ** n_exc[idx]
                    worst = max(worst, abs((amp[idx] / vac).real - expect) / expect)
    ok = worst < 1e-12
    report(6, "executed amplitude law z^n", ok, f"max relative dev {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# disorder reproduction (criteria 7 and 8): shared 1000-realization sweeps

TABLE_REFERENCE = {
    # (protocol, ratio, disorder) -> reference (a, b) decay-fit values
    ("ghz2", 6.9, "iso"): (0.93, 0.035),
    ("ghz2", 6.9, "aniso"): (0.80, 0.110),
    ("ghz2", 15.5, "iso"): (0.970, 0.0234),
    ("ghz2", 15.5, "aniso"): (0.94, 0.039),
    ("transport", 6.9, "iso"): (0.94, 0.051),
    ("transport", 6.9, "aniso"): (0.73, 0.09),
    ("transport", 15.5, "iso"): (0.97, 0.036),
    ("transport", 15.5, "aniso"): (0.93, 0.055),
}

FIT_LENGTHS = {"ghz2": (2, 4, 6, 8), "transport": (2, 3, 4, 5, 6, 7)}


@pytest.fixture(scope="module")
def disorder_sweeps():
    """Means and standard errors keyed (protocol, ratio, disorder, n)."""
    data = {}
    start = time.perf_counter()
    bases = {
        "ghz2": SweepSpec(ProtocolKind.GHZ2, FIT_LENGTHS["ghz2"], (6.9, 15.5),
                          disorder_preset("none"), 1000, MASTER_SEED),
        "transport": SweepSpec(ProtocolKind.TRANSPORT, FIT_LENGTHS["transport"], (6.9, 15.5),
                               disorder_preset("none"), 1000, MASTER_SEED),
        "mps": SweepSpec(ProtocolKind.DIMER_MPS, (4, 6), (15.5,),
                         disorder_preset("none"), 1000, MASTER_SEED, z=1.0),
    }
    for proto, base in bases.items():
        for disorder in ("none", "iso", "aniso"):
            for rec in run_sweep(dataclasses.replace(base, disorder=disorder)):
                data[(proto, rec.v0_over_omega, disorder, rec.n)] = (
                    rec.mean_fidelity, rec.std_error
                )
    data["elapsed"] = time.perf_counter() - start
    return data


def test_criterion_07_disorder_reproduction(disorder_sweeps):
    data = disorder_sweeps
    problems = []

    # ordering with separation, at the operating peaks of each protocol
    ordering_cells = [("ghz2", r) for r in (6.9, 15.5)]
    ordering_cells += [("transport", r) for r in (6.9, 15.5)]
    ordering_cells += [("mps", 15.5)]
    for proto, ratio in ordering_cells:
        for n in (4, 6):
            m = {d: data[(proto, ratio, d, n)] for d in ("none", "iso", "aniso")}
            if not (m["none"][0] >= m["iso"][0] >= m["aniso"][0]):
                problems.append(f"{proto}@{ratio} N={n} not ordered")
            sep = m["none"][0] - m["aniso"][0]
            noise = np.sqrt(m["none"][1] ** 2 + m["aniso"][1] ** 2)
            if sep < 2 * noise:
                problems.append(f"{proto}@{ratio} N={n} separation {sep:.3f} < 2SE")

    # transport decay-rate ordering over N = 2..7
    b_by_disorder = {}
    for disorder in ("none", "iso", "aniso"):
        pts = [(n, data[("transport", 6.9, disorder, n)][0]) for n in FIT_LENGTHS["transport"]]
        b_by_disorder[disorder] = fit_exponential_decay(pts).b
    if not (b_by_disorder["none"] < b_by_disorder["iso"] < b_by_disorder["aniso"]):
        problems.append(f"transport b ordering {b_by_disorder}")

    # reference-fit comparison: a within 0.05, b within 50 percent
    fit_lines = []
    for (proto, ratio, disorder), (a_ref, b_ref) in TABLE_REFERENCE.items():
        pts = [(n, data[(proto, ratio, disorder, n)][0]) for n in FIT_LENGTHS[proto]]
        fit = fit_exponential_decay(pts)
        fit_lines.append(f"{proto}@{ratio}/{disorder}: a={fit.a:.4f} b={fit.b:.4f}")
        if abs(fit.a - a_ref) > 0.05:
            problems.append(f"{proto}@{ratio}/{disorder} a={fit.a:.3f} vs {a_ref}+-0.05")
        if not (0.5 * b_ref <= fit.b <= 1.5 * b_ref):
            problems.append(f"{proto}@{ratio}/{disorder} b={fit.b:.4f} vs {b_ref}+-50%")

    elapsed = data["elapsed"]
    ok = not problems and elapsed < 1800
    detail = f"{elapsed:.0f}s; " + "; ".join(fit_lines)
    if problems:
        detail += " | " + "; ".join(problems)
    report(7, "disorder ordering and reference fits", ok, detail)
    assert ok, problems


def test_criterion_08_no_disorder_flatness(disorder_sweeps):
    fids = [disorder_sweeps[("transport", 6.9, "none", n)][0] for n in FIT_LENGTHS["transport"]]
    spread = max(fids) - min(fids)
    fit = fit_exponential_decay(list(zip(FIT_LENGTHS["transport"], fids)))
    ok = spread < 1e-3 and min(fids) >= 0.999 and fit.a >= 0.999 and fit.b <= 1e-4
    report(8, "disorder-free transport flatness", ok,
           f"min {min(fids):.6f}, spread {spread:.2e}, a={fit.a:.6f}, b={fit.b:.2e}")
    assert ok


def test_criterion_09_solvable_point_overlap():
    start = time.perf_counter()
    res = rk_ground_state_overlap(6, 64.0, InteractionRange.NEAREST_NEIGHBOR)
    elapsed = time.perf_counter() - start
    ok = res.overlap >= 0.99 and elapsed < 5.0
    report(9, "solvable-point ground-state overlap", ok,
           f"overlap {res.overlap:.4f}, {elapsed:.2f}s")
    assert ok


def test_criterion_10_size_budget_ordering():
    """Reference reach estimates (transport 6, dimer z=10 7, GHZ 9, dimer z=1 13).

    Under the documented timing model (t = theta/(2 Omega), hyperfine
    transfers free) the estimator gives different absolute values, and the
    reference dimer-vs-GHZ ordering cannot hold for any duration model
    proportional to summed rotation angles at a protocol-independent rate.
    """
    v0 = V0_REFERENCE
    omega = v0 / 6.9
    tau = 2.0
    values = {
        "transport": estimate_n_max(ProtocolKind.TRANSPORT, v0, omega, tau),
        "mps_z10": estimate_n_max(ProtocolKind.DIMER_MPS, v0, omega, tau, z=10.0),
        "ghz": estimate_n_max(ProtocolKind.GHZ3, v0, omega, tau),
        "mps_z1": estimate_n_max(ProtocolKind.DIMER_MPS, v0, omega, tau, z=1.0),
    }
    reference = {"transport": 6, "mps_z10": 7, "ghz": 9, "mps_z1": 13}
    ordered = values["transport"] < values["mps_z10"] < values["ghz"] < values["mps_z1"]
    within = {k: abs(values[k] - reference[k]) <= 3 for k in reference}
    ok = ordered and all(within.values())
    report(10, "size-budget ordering", ok, f"computed {values} vs reference {reference}")
    assert ok, (values, reference)


def test_criterion_11_byte_identical_sweeps(tmp_path):
    from rydchain import cli

    bodies = []
    for tag, workers in (("a", "1"), ("b", "4"), ("c", "16")):
        out = tmp_path / tag
        code = cli.main([
            "sweep", "--protocol", "ghz2", "--n", "2,4", "--grid", "5.0,6.9",
            "--disorder", "aniso", "--realizations", "25", "--seed", "31415",
            "--workers", workers, "--out", str(out),
        ])
        assert code == 0
        bodies.append(out.with_suffix(".csv").read_bytes())
    ok = bodies[0] == bodies[1] == bodies[2]
    report(11, "seed and worker-count determinism", ok,
           f"{len(bodies[0])} bytes per run")
    assert ok
