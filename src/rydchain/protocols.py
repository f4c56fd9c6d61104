"""The three pulse sequences, their area schedules, execution and timing.

Sequences (sites are 1-based, all pulses are named pi pulses unless noted):

* GHZ, two-level: pi/2 on site 1, then pi on sites 2..N.  N pulses.
* GHZ, three-level: pi/2 on site 1, then for k = 1..N-1 a pi pulse on site
  k+1 (0<->1) followed by a transfer pi pulse on site k (1<->1~), 2N-1
  pulses; the final transfer on site N is a post-processing gate (by then
  the addressed atom is the only one that can hold Rydberg population, so
  the transfer is interaction-free).
* Dimer preparation: one literal-angle pulse per site, angles from the
  backward recursion tan A_j = z * prod_{k=j+1..j+R} cos A_k with
  cos A_{N+j} = 1, positive cosines, sin following the sign of z.
* Transport: for k = 1..N-1 a pi pulse on site k+1 then on site k, 2N-2
  pulses, plus the single-site correction i^(N-1) sigma_y on site N for
  even chain lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import (
    HamiltonianSpec,
    PulseStep,
    Transition,
    _ideal_on_array,
    _pulse_on_array,
    half_pi_pulse,
    interaction_diagonal,
    pi_pulse,
)
from .errors import NumericalError
from .statekit import (
    LevelScheme, StateVector, check_norm, check_qubit, embed_initial_qubit, ground_state,
)


class ProtocolKind(Enum):
    GHZ2 = "ghz2"
    GHZ3 = "ghz3"
    DIMER_MPS = "mps"
    TRANSPORT = "transport"


@dataclass(frozen=True)
class PostStep:
    """Post-processing single-site gate: i^(q) times a theta rotation."""

    site: int
    transition: Transition
    theta: float
    phase_quarter_turns: int = 0


@dataclass(frozen=True)
class ProtocolPlan:
    kind: ProtocolKind
    n_sites: int
    scheme: LevelScheme
    steps: tuple[PulseStep, ...]
    post_steps: tuple[PostStep, ...] = ()
    blockade_range: int = 1  # the ideal backend's default radius
    alpha: complex | None = None
    beta: complex | None = None

    def __post_init__(self):
        """Every step and post-step addresses a site of the chain, a
        hyperfine transfer needs the three-level scheme, and a transport plan
        carries the normalized qubit it moves."""
        if self.kind is ProtocolKind.TRANSPORT:
            check_qubit(self.alpha, self.beta)
        three_level = self.scheme is LevelScheme.THREE_LEVEL
        for step in (*self.steps, *self.post_steps):
            if not 1 <= step.site <= self.n_sites:
                raise ValueError(f"step on site {step.site} outside the chain 1..{self.n_sites}")
            if step.transition is Transition.RYDBERG_HYPERFINE and not three_level:
                raise ValueError(f"transition {step.transition.value} needs three levels")


# ---------------------------------------------------------------------------
# plans

def plan_ghz(n_sites: int, scheme: LevelScheme) -> ProtocolPlan:
    """Alternating-pattern entangler; scheme selects the 2- or 3-level variant."""
    if n_sites < 2:
        raise ValueError("GHZ preparation needs at least 2 sites")
    steps = [half_pi_pulse(1)]
    post = ()
    if scheme is LevelScheme.THREE_LEVEL:
        for k in range(1, n_sites):
            steps.append(pi_pulse(k + 1))
            steps.append(pi_pulse(k, Transition.RYDBERG_HYPERFINE))
        post = (PostStep(n_sites, Transition.RYDBERG_HYPERFINE, np.pi / 2),)
        kind = ProtocolKind.GHZ3
    else:
        for k in range(2, n_sites + 1):
            steps.append(pi_pulse(k))
        kind = ProtocolKind.GHZ2
    return ProtocolPlan(kind, n_sites, scheme, tuple(steps), post)


def mps_area_schedule(n_sites: int, z: float, blockade_range: int = 1) -> np.ndarray:
    """Backward-recursion pulse angles A_1..A_N for the dimer target.

    For range 1 the result is cross-checked against the closed form; a
    disagreement beyond 1e-12 raises.
    """
    if blockade_range < 1:
        raise ValueError("blockade_range must be >= 1")
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    if not np.isfinite(z):
        raise ValueError("z must be finite")
    r = blockade_range
    th = np.zeros(n_sites + r)
    for j in range(n_sites - 1, -1, -1):
        th[j] = np.arctan(z * np.prod(np.cos(th[j + 1 : j + 1 + r])))
    thetas = th[:n_sites]
    if r == 1:
        ref = _closed_form_range1(n_sites, z)
        err = np.abs(thetas - ref).max()
        if err > 1e-12:
            raise NumericalError(f"recursion disagrees with the closed form by {err:.2e}")
    return thetas


def _closed_form_range1(n_sites: int, z: float) -> np.ndarray:
    """cos A_k = sqrt(2 [(1+s)^(N+2-k) - (1-s)^(N+2-k)] /
    [(1+s)^(N+3-k) - (1-s)^(N+3-k)]), s = sqrt(1+4z^2).

    Evaluated as (2/(1+s)) (1-q^m)/(1-q^(m+1)) with q = (1-s)/(1+s) and
    m = N+2-k, so large chains do not overflow the raw powers.
    """
    s = np.sqrt(1.0 + 4.0 * z * z)
    q = (1.0 - s) / (1.0 + s)  # |q| < 1 for z != 0
    m = np.arange(n_sites + 1, 1, -1)  # N+2-k for k = 1..N
    cos2 = (2.0 / (1.0 + s)) * (1.0 - q**m) / (1.0 - q ** (m + 1))
    cos = np.sqrt(np.minimum(cos2, 1.0))
    return np.sign(z) * np.arccos(cos) if z else np.arccos(cos) * 0.0


def mps_area_schedule_polynomial(n_sites: int, z: float, blockade_range: int = 1) -> np.ndarray:
    """Same angles via the characteristic polynomial of the linear recursion.

    cos^2 A_{N+1-k} = q_{k-1}/q_k where q_k = sum_j A_j lambda_j^k, the
    lambda_j are the roots of lambda^(R+1) = lambda^R + z^2 and the A_j
    solve the Vandermonde boundary system q_0 = ... = q_{-R} = 1.
    """
    if blockade_range < 1:
        raise ValueError("blockade_range must be >= 1")
    a = z * z
    if a == 0.0:
        return np.zeros(n_sites)
    r = blockade_range
    coeffs = np.zeros(r + 2)
    coeffs[0], coeffs[1], coeffs[-1] = 1.0, -1.0, -a
    lam = np.roots(coeffs)
    powers = np.arange(-r, 1)[:, None]
    M = lam[None, :] ** powers
    try:
        A = np.linalg.solve(M, np.ones(r + 1))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"degenerate recursion roots: {exc}") from exc
    # q_k / top^k: the positive real root dominates all others, so the
    # scaled powers stay bounded where lam^k itself would overflow
    top = np.abs(lam).max()
    ks = np.arange(0, n_sites + 1)
    q = (A[None, :] * (lam[None, :] / top) ** ks[:, None]).sum(axis=1)
    if np.abs(q.imag).max() > 1e-8 * np.abs(q.real).max():
        raise NumericalError(f"recursion solution not real, residual {np.abs(q.imag).max():.2e}")
    x = q.real[:-1] / (top * q.real[1:])  # cos^2 A_{N+1-k} for k = 1..N
    x = np.clip(x, 0.0, 1.0)
    return np.sign(z) * np.arccos(np.sqrt(x[::-1]))


def plan_dimer_mps(n_sites: int, z: float, blockade_range: int = 1) -> ProtocolPlan:
    steps = tuple(
        PulseStep(k + 1, Transition.GROUND_RYDBERG, float(th))
        for k, th in enumerate(mps_area_schedule(n_sites, z, blockade_range))
    )
    return ProtocolPlan(
        ProtocolKind.DIMER_MPS, n_sites, LevelScheme.TWO_LEVEL, steps, blockade_range=blockade_range
    )


def plan_transport(n_sites: int, alpha: complex, beta: complex) -> ProtocolPlan:
    """Move (alpha|0> + beta|1>) from site 1 to site N."""
    if n_sites < 2:
        raise ValueError("transport needs at least 2 sites")
    steps = []
    for k in range(1, n_sites):
        steps.append(pi_pulse(k + 1))
        steps.append(pi_pulse(k))
    post = ()
    if n_sites % 2 == 0:
        # i^(N-1) sigma_y = i^N exp(-i (pi/2) sigma_y) on the last site
        post = (PostStep(n_sites, Transition.GROUND_RYDBERG, np.pi / 2, n_sites % 4),)
    return ProtocolPlan(
        ProtocolKind.TRANSPORT,
        n_sites,
        LevelScheme.TWO_LEVEL,
        tuple(steps),
        post,
        alpha=complex(alpha),
        beta=complex(beta),
    )


def plan_for(
    kind: ProtocolKind,
    n_sites: int,
    z: float = 1.0,
    blockade_range: int = 1,
    alpha: complex = 2**-0.5,
    beta: complex = 2**-0.5,
) -> ProtocolPlan:
    """The plan of ``kind`` on ``n_sites``; z and blockade_range shape the
    dimer plan, alpha and beta the transported qubit."""
    if kind is ProtocolKind.GHZ2:
        return plan_ghz(n_sites, LevelScheme.TWO_LEVEL)
    if kind is ProtocolKind.GHZ3:
        return plan_ghz(n_sites, LevelScheme.THREE_LEVEL)
    if kind is ProtocolKind.DIMER_MPS:
        return plan_dimer_mps(n_sites, z, blockade_range)
    if kind is ProtocolKind.TRANSPORT:
        return plan_transport(n_sites, alpha, beta)
    raise ValueError(f"unknown protocol kind {kind}")


def initial_state(plan: ProtocolPlan) -> StateVector:
    if plan.kind is ProtocolKind.TRANSPORT:
        return embed_initial_qubit(plan.alpha, plan.beta, plan.n_sites)
    return ground_state(plan.n_sites, plan.scheme)


# ---------------------------------------------------------------------------
# execution backends

@dataclass(frozen=True)
class IdealBackend:
    """Perfect-blockade gates; radius defaults to the plan's blockade range."""

    blockade_radius: int | None = None


@dataclass(frozen=True)
class RealisticBackend:
    hamiltonian: HamiltonianSpec
    omega: float

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("omega must be positive")


def execute(plan: ProtocolPlan, backend, initial: StateVector | None = None) -> StateVector:
    """Apply the plan's pulses then its post-processing gates: the one way a
    pulse is run.  A single pulse is a plan of one step with ``initial`` set."""
    state = initial_state(plan) if initial is None else initial
    if state.n_sites != plan.n_sites or state.scheme is not plan.scheme:
        raise ValueError("initial state does not match the plan")
    amp = state.amplitudes.copy()
    n, dim = plan.n_sites, plan.scheme.local_dim
    if isinstance(backend, IdealBackend):
        radius = backend.blockade_radius
        radius = plan.blockade_range if radius is None else radius
        if radius < 0:
            raise ValueError("blockade radius must be >= 0")
        for step in plan.steps:
            amp = _ideal_on_array(amp, n, dim, step, radius)
    elif isinstance(backend, RealisticBackend):
        if backend.hamiltonian.n_sites != n:
            raise ValueError("backend Hamiltonian does not match the plan")
        e_tot = interaction_diagonal(backend.hamiltonian, dim)
        for step in plan.steps:
            amp = _pulse_on_array(amp, n, dim, step, e_tot, backend.omega)
    else:
        raise TypeError(f"unknown backend {backend!r}")
    for post in plan.post_steps:
        step = PulseStep(post.site, post.transition, post.theta)
        amp = _ideal_on_array(amp, n, dim, step, radius=0)
        amp = amp * 1j ** (post.phase_quarter_turns % 4)
    return check_norm(StateVector(n, plan.scheme, amp))


# ---------------------------------------------------------------------------
# timing

class HyperfinePolicy(Enum):
    INSTANTANEOUS = "instant"
    SAME_AS_OMEGA = "same"


def protocol_duration(
    plan: ProtocolPlan,
    omega: float,
    hyperfine_policy: HyperfinePolicy = HyperfinePolicy.INSTANTANEOUS,
) -> float:
    """Total pulse time: t = theta/(2 omega) per drive pulse.

    Hyperfine transfers run on an independent laser; by default they cost
    no blockade-limited time.  Post-processing gates are free.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    total = 0.0
    for step in plan.steps:
        if step.transition is Transition.GROUND_RYDBERG:
            total += abs(step.theta) / (2.0 * omega)
        elif hyperfine_policy is HyperfinePolicy.SAME_AS_OMEGA:
            total += abs(step.theta) / (2.0 * omega)
    return total
