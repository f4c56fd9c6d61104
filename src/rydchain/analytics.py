"""Closed-form two-atom amplitudes, solvable-point check, decay fits, size budgets.

Two-atom closed forms (drive 2*Omega, pi pulse duration pi/(4*Omega),
tau = sqrt(V0^2 + 16 Omega^2)):

    gamma  = e^{-i pi V0/(8 Om)} [cos(pi tau/(8 Om)) + i (V0/tau) sin(pi tau/(8 Om))]
    leak   = e^{-i pi V0/(8 Om)} (4 Om/tau) sin(pi tau/(8 Om))
    delta' = leak * e^{-i pi V0/(8 Om)} [cos(pi tau/(8 Om)) - i (V0/tau) sin(pi tau/(8 Om))]

gamma is the amplitude for a blocked atom to stay put, leak the amplitude
to co-excite despite the blockade (|leak|^2 = 1 - |gamma|^2), delta' the
doubly-excited residue after the two transport pulses.  All three are
evaluated in one place, :func:`two_atom_coefficients`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .dynamics import HamiltonianSpec, InteractionRange, build_full_hamiltonian, ground_state_dense
from .errors import CapacityError, NumericalError
from .lattice import coupling_matrix, ideal_configuration, truncate_couplings
from .protocols import HyperfinePolicy, ProtocolKind, plan_for, protocol_duration
from .statekit import RYDBERG, basis_digits
from .targets import dimer_target_direct


@dataclass(frozen=True)
class TwoAtomCoefficients:
    """Closed-form two-atom amplitudes of the pi pulse pair.

    The two transport pulses take the input branches, before the parity
    correction, to alpha -> gamma|01> + leak|11> and
    beta -> -gamma|00> - leak^2|01> + delta'|11>.  delta, gamma_prime and
    delta_double_prime are fixed by the normalization identities and carried
    as magnitudes."""

    gamma: complex
    leak: complex
    delta: float
    delta_prime: complex
    delta_double_prime: float
    tau: float

    @property
    def gamma_prime(self) -> float:
        return self.delta


def two_atom_coefficients(v0: float, omega: float) -> TwoAtomCoefficients:
    if not (np.isfinite(v0) and 0 < omega < np.inf):  # a NaN fails too
        raise ValueError("v0 must be finite, and omega finite and positive")
    tau = np.sqrt(v0**2 + 16.0 * omega**2)
    t = np.pi / (4.0 * omega)
    phase = np.exp(-0.5j * v0 * t)
    bt = 0.5 * tau * t
    gamma = complex(phase * (np.cos(bt) + 1j * (v0 / tau) * np.sin(bt)))
    leak = complex(phase * (4.0 * omega / tau) * np.sin(bt))
    # 2 e^{-i pi V0/(4 Om)} Om (-i V0 + i V0 cos(pi tau/(4 Om)) + tau sin(pi tau/(4 Om))) / tau^2
    arg = np.pi * tau / (4.0 * omega)
    delta_prime = complex(
        2.0
        * np.exp(-1j * np.pi * v0 / (4.0 * omega))
        * omega
        * (-1j * v0 + 1j * v0 * np.cos(arg) + tau * np.sin(arg))
        / tau**2
    )
    delta = float(np.sqrt(max(0.0, 1.0 - abs(gamma) ** 2)))
    ddp = float(np.sqrt(max(0.0, 1.0 - delta**2 - abs(delta_prime) ** 2)))
    return TwoAtomCoefficients(gamma, leak, delta, delta_prime, ddp, float(tau))


def ghz_fidelity_two_atoms(v0: float, omega: float) -> float:
    """|1 + gamma|^2 / 4, the exact two-atom fidelity of the GHZ sequence."""
    return float(abs(1.0 + two_atom_coefficients(v0, omega).gamma) ** 2 / 4.0)


# ---------------------------------------------------------------------------
# solvable-point ground-state check

@dataclass(frozen=True)
class RkPoint:
    delta: float
    z: float


def rk_point(v0: float, omega: float) -> RkPoint:
    """Detuning and dimer parameter of the exactly solvable manifold:
    Delta = 2^6 Omega^2 / V0 - 3 V0 / 2^6 and z = -V0 / (2^6 Omega)."""
    if not (0 < v0 < np.inf and 0 < omega < np.inf):  # a NaN fails too
        raise ValueError("v0 and omega must be finite and positive")
    return RkPoint(delta=64.0 * omega**2 / v0 - 3.0 * v0 / 64.0, z=-v0 / (64.0 * omega))


@dataclass(frozen=True)
class RkOverlapResult:
    delta: float
    z: float
    energy: float
    overlap: float


def rk_ground_state_overlap(
    n_sites: int,
    v0_over_omega: float,
    interaction_range: InteractionRange = InteractionRange.NEAREST_NEIGHBOR,
    omega: float = 1.0,
) -> RkOverlapResult:
    """Squared overlap of the dense ground state with the dimer target.

    The solvable construction lives in the blockade model where couplings
    beyond next-nearest neighbors are dropped, so the short-range variant
    keeps the nearest and next-nearest shells.  Edge atoms miss one
    next-nearest partner; the construction compensates with an extra
    V0/64 detuning on the two end sites.  The drive is built with a bare
    omega*sigma_y coefficient (half the pulse-backend coupling), and the
    drive phase is rotated out per excitation before comparing with the
    real-amplitude dimer state.
    """
    v0 = v0_over_omega * omega
    point = rk_point(v0, omega)  # checks both before H is built
    v_nnn = v0 / 64.0
    base = coupling_matrix(ideal_configuration(n_sites, 1.0), v0, 1.0)
    if interaction_range is InteractionRange.NEAREST_NEIGHBOR:
        base = truncate_couplings(base, 2)
    detuning = np.full(n_sites, point.delta)
    detuning[0] += v_nnn
    detuning[-1] += v_nnn
    spec = HamiltonianSpec(base, detuning)
    H = build_full_hamiltonian(spec, omega / 2.0)  # sigma_y coefficient = omega
    energy, gs = ground_state_dense(H)
    target = dimer_target_direct(n_sites, point.z)
    n_exc = (basis_digits(n_sites, 2) == RYDBERG).sum(axis=1)
    aligned = (-1j) ** n_exc * gs
    overlap = float(abs(np.vdot(target, aligned)) ** 2)
    return RkOverlapResult(point.delta, point.z, energy, overlap)


# ---------------------------------------------------------------------------
# exponential decay fits

@dataclass(frozen=True)
class DecayFit:
    a: float
    b: float
    a_err: float
    b_err: float
    residual: float


def fit_exponential_decay(points) -> DecayFit:
    """Least-squares fit of f(N) = a * exp(-b (N - 2)) in linear space.

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413,
    1973): for a fixed b the best a is (y.e)/(e.e) with e = exp(-b (N - 2)),
    so b maximizes the profile (y.e)^2/(e.e).  The root of its derivative is
    bracketed by doubling steps from b = 0 and then bisected.  e is taken
    relative to its largest entry, so it stays <= 1 and no exp overflows.
    The covariance is inv(J^T J) SSR/(n - 2) with the analytic Jacobian
    J = [e, -a (N - 2) e], which is what curve_fit reports with
    absolute_sigma=False; it is formed about the peak of e and mapped to
    (a, b) exactly.
    """
    pts = [(float(n), float(f)) for n, f in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    x = np.array([p[0] for p in pts]) - 2.0
    ys = np.array([p[1] for p in pts])
    if not (np.isfinite(x).all() and np.isfinite(ys).all()):
        raise ValueError("fit points must be finite; a NaN fidelity marks a failed sweep cell")
    span = float(np.ptp(x))
    if span == 0.0:
        raise ValueError("degenerate fit input: all N equal")

    def scaled_basis(b):
        """e / max(e), x - x_ref and x_ref, the x at which e peaks."""
        x_ref = x.min() if b >= 0 else x.max()
        return np.exp(-b * (x - x_ref)), x - x_ref, x_ref

    def slope_sign(b):
        """Sign of d/db (y.e)^2/(e.e).  Neither rescaling e nor shifting x changes
        it, and the shifted x keeps the difference below from cancelling."""
        e, shifted, _ = scaled_basis(b)
        ye, se = ys @ e, shifted * e
        return np.sign(ye * (ye * (e @ se) - (ys @ se) * (e @ e)))

    # the profile rises from b = 0 towards the optimum in this direction
    direction = slope_sign(0.0)
    inner = outer = 0.0
    step = direction / span
    limit = 350 / span  # keeps every e**2 above the smallest normal float
    while direction != 0 and slope_sign(outer) != -direction:
        if abs(outer) >= limit:
            raise NumericalError(f"decay fit has no finite optimum: |b| exceeds {limit:.4g}")
        inner, outer, step = outer, direction * min(abs(outer + step), limit), 2 * step
    while abs(outer - inner) > 4 * np.finfo(float).eps * max(abs(inner), abs(outer), 1 / span):
        mid = 0.5 * (inner + outer)
        if slope_sign(mid) == direction:
            inner = mid
        else:
            outer = mid
    b = 0.5 * (inner + outer)

    e, shifted, x_ref = scaled_basis(b)
    a_scaled = (ys @ e) / (e @ e)
    resid = ys - a_scaled * e
    # Jacobian of a_scaled * exp(-b (x - x_ref)) in (a_scaled, b): well conditioned
    # even where J in (a, b) is not, because e peaks where x - x_ref = 0
    jac = np.column_stack([e, -a_scaled * shifted * e])
    normal = jac.T @ jac
    det = normal[0, 0] * normal[1, 1] - normal[0, 1] ** 2
    if not det > 4 * np.finfo(float).eps * normal[0, 0] * normal[1, 1]:
        raise NumericalError("decay fit is undetermined: singular normal matrix (all fidelities zero?)")
    try:
        scale = math.exp(b * x_ref)
    except OverflowError:
        raise NumericalError(f"decay fit amplitude overflows at b = {b:.4g}") from None
    a = a_scaled * scale
    # a = a_scaled exp(b x_ref) maps the covariance exactly: d(a, b)/d(a_scaled, b)
    to_ab = np.array([[scale, a * x_ref], [0.0, 1.0]])
    cov = to_ab @ np.linalg.inv(normal) @ to_ab.T * (resid @ resid) / (len(ys) - 2)
    return DecayFit(
        float(a), float(b), float(np.sqrt(cov[0, 0])), float(np.sqrt(cov[1, 1])),
        float(np.sqrt(np.mean(resid**2))),
    )


# ---------------------------------------------------------------------------
# how many atoms fit in the coherence budget

def estimate_n_max(
    kind: ProtocolKind,
    v0: float,
    omega: float,
    tau_exp: float,
    z: float = 1.0,
    hyperfine_policy: HyperfinePolicy = HyperfinePolicy.INSTANTANEOUS,
    n_cap: int = 1000,
) -> int:
    """Largest chain length whose full pulse sequence fits in tau_exp; raises
    CapacityError if the n_cap-site plan fits too (the search cap is no answer).

    Pulse durations depend on ``omega`` alone: ``v0`` is only checked to be
    finite and positive and does not enter the result.

    Every plan of N+1 sites holds the pulses of the N-site plan plus more
    (the dimer recursion runs from the chain end), so durations never
    decrease with N and a bisection over 2..n_cap finds the answer.  z goes
    to :func:`rydchain.protocols.plan_for`, which rejects it for other kinds.
    """
    if not (0 < v0 < np.inf and 0 < omega < np.inf):  # a NaN fails too
        raise ValueError("v0 and omega must be finite and positive")
    if not tau_exp >= 0:
        raise ValueError("tau_exp must be nonnegative")

    def duration(n: int) -> float:
        return protocol_duration(plan_for(kind, n, z), omega, hyperfine_policy)

    n_max = 1 + bisect_right(range(2, n_cap + 1), tau_exp, key=duration)
    if n_max == n_cap:
        raise CapacityError(f"every chain up to n_cap = {n_cap} sites fits in tau_exp = {tau_exp!r}")
    return n_max
