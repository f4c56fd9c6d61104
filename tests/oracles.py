"""Independent dense oracles for the package's fast paths, used by tests only."""

import numpy as np
import scipy.optimize

from rydchain.analytics import DecayFit, ghz_fidelity_two_atoms, rk_point, two_atom_coefficients
from rydchain.dynamics import (
    MAX_DENSE_DIM,
    HamiltonianSpec,
    InteractionRange,
    _ideal_on_array,
    _pulse_coefficients,
    _pulse_on_array,
    build_full_hamiltonian,
    ground_state_dense,
    interaction_diagonal,
)
from rydchain.errors import CapacityError
from rydchain.lattice import (
    R0_DEFAULT, coupling_matrix, ideal_configuration, realization_seed, sample_configuration,
    truncate_couplings,
)
from rydchain.montecarlo import SweepRecord, _target_state
from rydchain.protocols import ProtocolKind, RealisticBackend, execute
from rydchain.statekit import (
    GROUND, RYDBERG, basis_digits, check_norm, level_rows, reduce_to_site, site_view,
)
from rydchain.targets import dimer_target_direct, fidelity_mixed_single_qubit, fidelity_pure, ghz_target


def execute_full_width(plan, backend, amplitudes) -> np.ndarray:
    """The plan run from ``amplitudes`` over the whole chain: every pulse at
    m = n, then the post-processing gates.

    Reference for :func:`rydchain.protocols.execute`, which starts from the
    plan's own initial state and pulses only the prefix of sites touched so
    far; it runs the same per-site kernels, in place on a copy of
    ``amplitudes``, so both agree to the last bits.
    """
    n, dim = plan.n_sites, plan.scheme.local_dim
    amp = np.array(amplitudes, dtype=np.complex128)
    if amp.shape != (dim**n,):
        raise ValueError(f"amplitude array has shape {amp.shape}, expected ({dim**n},)")
    realistic = isinstance(backend, RealisticBackend)
    for step in plan.steps:
        if realistic:
            _pulse_on_array(amp, n, dim, step, backend.energies, backend.omega)
        else:
            _ideal_on_array(amp, n, dim, step, plan.blockade_range)
    for post in plan.post_steps:
        _ideal_on_array(amp, n, dim, post, 0)
    return check_norm(amp)


def rotate_pairs_once(amp, n_sites, local_dim, step, u_lo, u_off, u_hi, u_idle=None):
    """In ``amp``, the driven pairs of ``step`` mixed by [[u_lo, -u_off],
    [u_off, u_hi]] (scalars or flat arrays over the other atoms'
    configurations) in one shot; on three levels the undriven level is
    multiplied by ``u_idle``.

    Reference for the sliced :func:`rydchain.dynamics._rotate_pairs`: the
    rows are read through one level-major copy (``level_rows``) and written
    back whole, so every temporary is as long as the prefix.
    """
    lo, hi = step.transition.levels
    view = site_view(amp, n_sites, local_dim, step.site)
    a_rows = level_rows(amp, n_sites, local_dim, step.site)
    a_lo, a_hi = a_rows[lo], a_rows[hi]
    # both rows are computed before either is written: on the first and last
    # site a_rows is a view of amp
    new_lo = u_lo * a_lo - u_off * a_hi
    new_hi = u_off * a_lo + u_hi * a_hi
    view[:, lo] = new_lo.reshape(len(view), -1)
    view[:, hi] = new_hi.reshape(len(view), -1)
    if local_dim == 3:
        idle = step.transition.idle_level
        view[:, idle] = (a_rows[idle] * u_idle).reshape(len(view), -1)


def pulse_on_array_once(amp, n_sites, local_dim, step, e_tot, omega):
    """Exact evolution of each closed 2x2 block for t = |theta| / (2 omega),
    in ``amp``, with every block's entries computed at once from the
    diagonal's level-major rows: reference for the sliced
    :func:`rydchain.dynamics._pulse_on_array`."""
    lo, hi = step.transition.levels
    t = abs(step.theta) / (2.0 * omega)
    drive = 2.0 * omega * np.sign(step.theta) if step.theta else 2.0 * omega
    e_rows = level_rows(e_tot, n_sites, local_dim, step.site)
    idle = e_rows[step.transition.idle_level] if local_dim == 3 else None
    coefficients = _pulse_coefficients(e_rows[lo], e_rows[hi], idle, t, drive)
    rotate_pairs_once(amp, n_sites, local_dim, step, *coefficients)


def ideal_on_array_once(amp, n_sites, local_dim, step, radius):
    """The ideal constrained rotation, in ``amp``, from one
    flat blockade mask over all the other atoms' configurations: reference
    for the sliced :func:`rydchain.dynamics._ideal_on_array`."""
    site = step.site
    left, right = min(radius, site - 1), min(radius, n_sites - site)
    none_rydberg = [~(basis_digits(k, local_dim) == RYDBERG).any(axis=1) for k in (left, right)]
    before = np.tile(none_rydberg[0], local_dim ** (site - 1 - left))
    after = np.repeat(none_rydberg[1], local_dim ** (n_sites - site - right))
    free = (before[:, None] & after).reshape(-1)
    c = np.where(free, np.cos(step.theta), 1.0)
    s = np.where(free, np.sin(step.theta), 0.0)
    rotate_pairs_once(amp, n_sites, local_dim, step, c, s, c, 1)


def scatter_support(support, coefficients, dim) -> np.ndarray:
    """The dense (dim,) target that is ``coefficients`` at the basis states
    ``support`` indexes and zero everywhere else."""
    amp = np.zeros(dim, dtype=np.complex128)
    amp[support] = coefficients
    return amp


def ghz_dense(n_sites, scheme) -> np.ndarray:
    """:func:`rydchain.targets.ghz_target` as a whole-chain amplitude array."""
    return scatter_support(*ghz_target(n_sites, scheme), scheme.local_dim**n_sites)


def sweep_cell_by_loop(spec, plan, grid_index) -> SweepRecord:
    """One sweep cell, one realization at a time: each realization samples
    one (n, 3) configuration from its own seed, builds and checks its own
    couplings and diagonal, runs its pulses and scores its one final state,
    a pure target as a dense array over the whole chain.

    Reference for :func:`rydchain.montecarlo.run_sweep`, which runs every
    stage but the pulses once over a block of realizations; this is the
    loop it replaced, on the same seeds.
    """
    n, ratio = plan.n_sites, spec.grid[grid_index]
    runs = 1 if spec.disorder.is_none else spec.realizations
    target = _target_state(spec, plan)
    if target is not None:
        target = scatter_support(*target, plan.scheme.local_dim**n)
    values = []
    for i in range(runs):
        seed = realization_seed(spec.master_seed, n, grid_index, i)
        config = sample_configuration(n, R0_DEFAULT, spec.disorder, seed)
        couplings = coupling_matrix(config, ratio, R0_DEFAULT)
        if spec.interaction_range is InteractionRange.NEAREST_NEIGHBOR:
            couplings = truncate_couplings(couplings, 1)
        energies = interaction_diagonal(HamiltonianSpec(couplings), plan.scheme.local_dim)
        final = execute(plan, RealisticBackend(energies, 1.0))
        if target is None:
            rho = reduce_to_site(final, n)
            values.append(fidelity_mixed_single_qubit(np.array([spec.alpha, spec.beta]), rho))
        else:
            values.append(fidelity_pure(target, final))
    values = np.array(values)
    return SweepRecord(
        protocol=spec.protocol.value,
        n=n,
        v0_over_omega=ratio,
        disorder=spec.disorder.kind,
        realizations=spec.realizations,
        mean_fidelity=float(values.mean()),
        std_error=float(values.std(ddof=1) / np.sqrt(runs)) if runs > 1 else 0.0,
        fid_min=float(values.min()),
        fid_max=float(values.max()),
    )


def two_atom_disorder_average(ratio, sigma, nodes, alpha=2**-0.5, beta=2**-0.5) -> dict:
    """Exact means of the N = 2 ghz2 and transport sweep cells at V0/Omega =
    ``ratio`` under per-axis disorder widths ``sigma``, keyed by protocol.

    At N = 2 a realization depends only on its one coupling V = ratio (r0/r)^6,
    r = |(0, 0, r0) + d|, where the pair displacement d is Gaussian with width
    sigma_k sqrt(2) on axis k.  The mean is a Gauss-Hermite product rule over
    d with ``nodes`` nodes per axis (the two transverse axes folded onto their
    positive nodes, since r is even in them).  Each node's values come from
    :func:`rydchain.analytics.two_atom_coefficients`:

    * ghz2: |1 + gamma|^2 / 4;
    * transport: the branch map alpha -> gamma|01> + leak|11>,
      beta -> -gamma|00> - leak^2|01> + delta'|11>, then the parity correction
      i sigma_y on site 2 (|x0> -> -|x1>, |x1> -> |x0>), reduced to site 2
      and scored against (alpha, beta).

    Reference for the whole disordered loop (sample, couple, pulse, score),
    independent of the sampler, the kernel and the fidelity code.
    """
    x, w = np.polynomial.hermite.hermgauss(nodes)
    w = w / np.sqrt(np.pi)  # E f(X) for X ~ N(0, s^2) is sum_i w_i f(sqrt(2) s x_i)
    fold = x > 0
    axes = [(x[fold], 2 * w[fold]), (x[fold], 2 * w[fold]), (x, w)]
    d = np.meshgrid(*[2.0 * s * xs for s, (xs, _) in zip(sigma, axes)], indexing="ij")
    weight = np.einsum("i,j,k->ijk", *[ws for _, ws in axes]).ravel()
    r = np.sqrt(d[0] ** 2 + d[1] ** 2 + (R0_DEFAULT + d[2]) ** 2).ravel()
    alpha, beta = complex(alpha), complex(beta)
    values = np.empty((len(r), 2))
    for i, v in enumerate(ratio * (R0_DEFAULT / r) ** 6):
        c = two_atom_coefficients(v, 1.0)
        # after the correction: site 2 in |0> holds a0 (site 1 in |0>) and a1
        # (site 1 in |1>); site 2 in |1> holds b0 (site 1 in |0>) and nothing else
        a0 = alpha * c.gamma - beta * c.leak**2
        a1 = alpha * c.leak + beta * c.delta_prime
        b0 = beta * c.gamma
        rho00, rho11, rho01 = abs(a0) ** 2 + abs(a1) ** 2, abs(b0) ** 2, a0 * b0.conjugate()
        transport = (abs(alpha) ** 2 * rho00 + abs(beta) ** 2 * rho11
                     + 2.0 * (alpha.conjugate() * beta * rho01).real)
        values[i] = abs(1.0 + c.gamma) ** 2 / 4.0, transport
    ghz, transport = weight @ values
    return {ProtocolKind.GHZ2: float(ghz), ProtocolKind.TRANSPORT: float(transport)}


def initial_amplitudes(plan) -> np.ndarray:
    """The plan's initial state over the whole chain: (alpha|0> + beta|1>) on
    site 1 for transport, |0...0> otherwise, written index by index."""
    amp = np.zeros(plan.scheme.local_dim**plan.n_sites, dtype=np.complex128)
    if plan.kind is ProtocolKind.TRANSPORT:
        amp[0], amp[2 ** (plan.n_sites - 1)] = plan.alpha, plan.beta
    else:
        amp[0] = 1.0
    return amp


def build_effective_hamiltonian(n_sites: int, omega_per_site) -> np.ndarray:
    """Blockade-constrained drive sum_k omega_k P_{k-1} sigma_y^(k) P_{k+1}.

    Dense oracle for the ideal backend of :func:`rydchain.protocols.execute`.
    Here the sigma_y coefficient is omega_k itself, so exp(-i t H) on a
    single driven site is a rotation by theta = omega*t.
    """
    dim = 2**n_sites
    if dim > MAX_DENSE_DIM:
        raise CapacityError(f"dense Hamiltonian limited to dimension {MAX_DENSE_DIM}")
    omegas = np.broadcast_to(np.asarray(omega_per_site, dtype=float), (n_sites,))
    dig = basis_digits(n_sites, 2)
    H = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(n_sites):
        stride = 2 ** (n_sites - 1 - k)
        sel = np.where(dig[:, k] == GROUND)[0]
        free = np.ones(len(sel), dtype=bool)
        for kk in (k - 1, k + 1):
            if 0 <= kk < n_sites:
                free &= dig[sel, kk] != RYDBERG
        sel = sel[free]
        H[sel + stride, sel] += 1j * omegas[k]
        H[sel, sel + stride] += -1j * omegas[k]
    return H


def ideal_gate_by_index(amplitudes, n_sites, local_dim, site, levels, theta, radius):
    """The ideal constrained rotation, one basis index at a time.

    A configuration with ``site`` at level ``lo`` and no Rydberg atom within
    ``radius`` sites of it mixes with its partner at level ``hi``:
    |lo> -> cos|lo> + sin|hi>, |hi> -> cos|hi> - sin|lo>.  Occupations come
    from repeated divmod (site 1 most significant), independently of the
    package's layout helpers; chain ends count as empty.
    """
    amp = np.asarray(amplitudes, dtype=np.complex128)
    out = amp.copy()
    lo, hi = levels
    c, s = np.cos(theta), np.sin(theta)
    near = [k for k in range(site - radius, site + radius + 1) if k != site and 1 <= k <= n_sites]
    for idx in range(len(amp)):
        occ, rest = [], idx
        for _ in range(n_sites):
            rest, digit = divmod(rest, local_dim)
            occ.insert(0, digit)
        if occ[site - 1] != lo or any(occ[k - 1] == RYDBERG for k in near):
            continue
        occ[site - 1] = hi
        partner = 0
        for digit in occ:
            partner = partner * local_dim + digit
        out[idx] = c * amp[idx] - s * amp[partner]
        out[partner] = s * amp[idx] + c * amp[partner]
    return out


def interaction_energy_by_index(couplings, detuning, n_sites, local_dim):
    """sum_{k<m} V_km n_k n_m + sum_k Delta_k n_k, one basis index at a time.

    Dense oracle for :func:`rydchain.dynamics.interaction_diagonal` with
    symmetric couplings.  Occupations come from repeated divmod (site 1 most
    significant), and only Rydberg-occupied sites enter the pair sum.
    """
    V = np.asarray(couplings, dtype=float)
    delta = np.asarray(detuning, dtype=float)
    out = np.empty(local_dim**n_sites)
    for idx in range(len(out)):
        occupied, rest = [], idx
        for site in range(n_sites - 1, -1, -1):
            rest, digit = divmod(rest, local_dim)
            if digit == RYDBERG:
                occupied.append(site)
        energy = 0.0
        for i, k in enumerate(occupied):
            energy += delta[k]
            for m in occupied[i + 1 :]:
                energy += V[k, m]
        out[idx] = energy
    return out


def dimer_target_by_digits(n_sites: int, z: float, blockade_range: int = 1) -> np.ndarray:
    """Normalized sum of z^n over the configurations with no two excitations
    within ``blockade_range`` sites, read from the (2^n, n) digit table.

    Reference for :func:`rydchain.targets.dimer_target_direct`, which reads
    the same configurations from the bits of the basis index; this is the
    construction it replaced.
    """
    occ = basis_digits(n_sites, 2) == RYDBERG
    allowed = np.ones(2**n_sites, dtype=bool)
    for d in range(1, blockade_range + 1):
        if d < n_sites:
            allowed &= ~(occ[:, :-d] & occ[:, d:]).any(axis=1)
    n_exc = occ.sum(axis=1)
    amp = np.where(allowed, np.float_power(float(z), n_exc), 0.0).astype(np.complex128)
    amp /= np.linalg.norm(amp)
    return amp


def dimer_target_mps(n_sites: int, z: float) -> np.ndarray:
    """Range-1 dimer state built by contracting the bond-2 tensor chain.

    X0 = (1 - n) + z*sigma_minus and X1 = sigma_plus on the bond space;
    contracting l . X_{i_1} ... X_{i_N} . r gives amplitude z^n on allowed
    configurations and an exact zero whenever two excitations are adjacent.
    The boundary vectors l = (1, z) and r = (1, 0)^T seed and close the
    chain so that the first and last atoms may both be excited.  A per-index
    loop over 2^N, the independent check of
    :func:`rydchain.targets.dimer_target_direct`.
    """
    x = (np.array([[1.0, z], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]))
    left, right = np.array([1.0, z]), np.array([1.0, 0.0])
    dig = basis_digits(n_sites, 2)
    amp = np.empty(2**n_sites, dtype=np.complex128)
    for idx, occ in enumerate(dig):
        vec = right
        for i in occ[::-1]:
            vec = x[i] @ vec
        amp[idx] = left @ vec
    norm = np.linalg.norm(amp)
    amp /= norm
    return amp


def rk_overlap_dense(n_sites, v0_over_omega, interaction_range, omega=1.0):
    """(energy, overlap, norm bound) of the solvable-point check by dense eigh.

    Reference for :func:`rydchain.analytics.rk_ground_state_overlap`, which
    finds the same ground state matrix-free: here the complex Hamiltonian
    with its omega sigma_y drive is built whole, diagonalized, and its ground
    state rotated by (-i)^{n_exc} before the overlap with the dimer target.
    The norm bound is max|diag H| + n omega, the scale of the solver's
    stopping rule.
    """
    v0 = v0_over_omega * omega
    point = rk_point(v0, omega)
    base = coupling_matrix(ideal_configuration(n_sites, 1.0), v0, 1.0)
    if interaction_range is InteractionRange.NEAREST_NEIGHBOR:
        base = truncate_couplings(base, 2)
    detuning = np.full(n_sites, point.delta)
    detuning[0] += v0 / 64.0
    detuning[-1] += v0 / 64.0
    H = build_full_hamiltonian(HamiltonianSpec(base, detuning), omega / 2.0)
    energy, ground = ground_state_dense(H)
    n_exc = (basis_digits(n_sites, 2) == RYDBERG).sum(axis=1)
    aligned = (-1j) ** n_exc * ground
    overlap = abs(np.vdot(dimer_target_direct(n_sites, point.z), aligned)) ** 2
    return energy, overlap, np.abs(np.diag(H)).max() + n_sites * omega


def leftmost_fidelity_peak() -> float:
    """Location (in V0/Omega) of the first local maximum of the two-atom GHZ
    fidelity |1 + gamma|^2 / 4.

    A 20,000-point grid over 0.5..30 brackets the peak with gamma written
    out here as one array expression (Omega = 1, t = pi/4, tau = sqrt(V0^2 +
    16)); :func:`rydchain.analytics.ghz_fidelity_two_atoms` then refines it.
    """
    v = np.linspace(0.5, 30.0, 20000)
    tau = np.sqrt(v**2 + 16.0)
    gamma = np.exp(-0.125j * np.pi * v) * (np.cos(np.pi * tau / 8) + 1j * v / tau * np.sin(np.pi * tau / 8))
    f = np.abs(1.0 + gamma) ** 2 / 4.0
    interior = np.flatnonzero((f[1:-1] > f[:-2]) & (f[1:-1] > f[2:]))
    if len(interior) == 0:
        raise ValueError("no interior fidelity maximum found")
    i = interior[0] + 1
    res = scipy.optimize.minimize_scalar(
        lambda x: -ghz_fidelity_two_atoms(x, 1.0),
        bounds=(v[i - 1], v[i + 1]),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return float(res.x)


def reference_decay_fit(points) -> DecayFit:
    """f(N) = a * exp(-b (N - 2)) fitted by scipy's curve_fit: Levenberg-Marquardt
    from a log-linear guess, with the analytic Jacobian and tight tolerances.

    Reference for :func:`rydchain.analytics.fit_exponential_decay`, which
    solves the same least-squares problem by variable projection.  With
    curve_fit's default forward-difference Jacobian and tolerances its b_err
    is off by up to 0.4% where b is near 0, and its covariance is inf or
    wrong when the noise is below about 1e-5.
    """
    pts = [(float(n), float(f)) for n, f in points]
    ns = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])

    def model(n, a, b):
        return a * np.exp(-b * (n - 2.0))

    def jacobian(n, a, b):
        e = np.exp(-b * (n - 2.0))
        return np.column_stack([e, -a * (n - 2.0) * e])

    a0 = ys[np.argmin(ns)]
    if np.all(ys > 0):
        slope = np.polyfit(ns, np.log(ys), 1)[0]
        b0 = max(-slope, 0.0)
    else:
        b0 = 0.0
    popt, pcov = scipy.optimize.curve_fit(
        model, ns, ys, p0=[a0, b0], jac=jacobian, maxfev=10000, ftol=1e-14, xtol=1e-14
    )
    resid = float(np.sqrt(np.mean((model(ns, *popt) - ys) ** 2)))
    errs = np.sqrt(np.diag(pcov))
    return DecayFit(float(popt[0]), float(popt[1]), float(errs[0]), float(errs[1]), resid)
