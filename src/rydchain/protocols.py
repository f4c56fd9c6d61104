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
  pulses, plus for even N the correction sigma_y on site N, up to a global
  phase: the post-processing pi pulse exp(-i (pi/2) sigma_y) = -i sigma_y.

Every sequence addresses sites in nearly increasing order, which
:func:`execute` turns into less work.  Sites past the highest one pulsed so
far (m) are still exactly |0>, and |0> carries no interaction or detuning
energy, so the state is |psi_m> (x) |0...0> and a pulse needs only the d^m
prefix amplitudes: every d^(n-m)-th entry of the whole chain's, and of its
diagonal.  execute writes the initial state into one zeroed array over the
whole chain and runs each pulse in place on the strided view of its prefix
(:func:`rydchain.statekit.ground_tail`); a step past m only widens the
view, and the post-processing gates run on the whole array.

What of this depends on the plan alone, its :class:`PulseSchedule`, is
compiled on the first :func:`execute` and kept on the plan: each pulse's
width m, the gathered pulses and the post-processing gates' entries.  A
pulse at width m drives d^(m-1) blocks (one per configuration of the other
atoms), so pulses never drive fewer blocks than the ones before them; the
leading pulses that drive at most :data:`COEF_CHUNK` blocks each are
gathered, and the schedule holds the positions of their blocks' levels in
the whole chain.  A wider pulse, and every ideal gate, runs the view
kernel, which mixes the site view's rows in slices of at most COEF_CHUNK
blocks and reads the diagonal through views, so neither the schedule nor
any kernel temporary grows with d^n.  A post-processing gate mixes the
schedule's constant entries into the whole chain's site view in the same
slices.

A :class:`RealisticBackend` holds one realization's basis energies (the
diagonal of H over the whole chain) and Omega, not a Hamiltonian, and the
realization's 2x2 mixes of the gathered pulses.  A sweep (see
:mod:`rydchain.montecarlo`) checks a block's couplings and builds its
diagonals once for the whole block, computes the mixes with one
:func:`gathered_mixes` pass per group of at most COEF_CHUNK blocks' worth
of realizations, and runs :func:`execute` once per realization.  So what
runs once per realization is only its pulse loop: one take, one 2x2 mixing
expression and one put per gathered pulse, a view kernel per wide pulse,
and the post-processing gates with the schedule's constant entries.  A
backend built without mixes gets them from the same pass over its one
diagonal.  execute runs one state: its per-site kernel has no realization
axis yet, so a block's pulses stay one call per realization.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate

import numpy as np

from .dynamics import (
    COEF_CHUNK,
    PulseStep,
    Transition,
    _ideal_coefficients,
    _ideal_on_array,
    _mix_gathered,
    _pulse_coefficients,
    _pulse_on_array,
    _rotate_pairs,
    half_pi_pulse,
    pi_pulse,
)
from .errors import NumericalError
from .statekit import (
    LevelScheme,
    check_integer,
    check_norm,
    check_qubit,
    ground_tail,
    level_rows,
    require_capacity,
)


class ProtocolKind(Enum):
    GHZ2 = "ghz2"
    GHZ3 = "ghz3"
    DIMER_MPS = "mps"
    TRANSPORT = "transport"


@dataclass(frozen=True)
class ProtocolPlan:
    kind: ProtocolKind
    n_sites: int
    scheme: LevelScheme
    steps: tuple[PulseStep, ...]
    post_steps: tuple[PulseStep, ...] = ()
    blockade_range: int = 1  # the ideal backend's blockade radius
    alpha: complex | None = None
    beta: complex | None = None

    def __post_init__(self):
        """The chain has an integer number of sites, at least one, every
        step and post-step addresses one of them, a hyperfine transfer needs
        the three-level scheme, the blockade range is a non-negative integer,
        and a transport plan, and no other, carries the normalized qubit."""
        for name in ("n_sites", "blockade_range"):
            object.__setattr__(self, name, check_integer(getattr(self, name), name))
        if self.n_sites < 1:
            raise ValueError("a plan needs at least one site")
        if self.blockade_range < 0:
            raise ValueError("blockade_range must be >= 0")
        if self.kind is ProtocolKind.TRANSPORT:
            check_qubit(self.alpha, self.beta)
        elif self.alpha is not None or self.beta is not None:
            raise ValueError(f"a {self.kind.value} plan takes no alpha/beta")
        three_level = self.scheme is LevelScheme.THREE_LEVEL
        for step in (*self.steps, *self.post_steps):
            if not 1 <= step.site <= self.n_sites:
                raise ValueError(f"step on site {step.site} outside the chain 1..{self.n_sites}")
            if step.transition is Transition.RYDBERG_HYPERFINE and not three_level:
                raise ValueError(f"transition {step.transition.value} needs three levels")

    @cached_property
    def schedule(self) -> PulseSchedule:
        """The pulse schedule :func:`execute` runs, compiled on first use and
        kept on the plan."""
        return _compile_schedule(self)


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
        post = (pi_pulse(n_sites, Transition.RYDBERG_HYPERFINE),)
        kind = ProtocolKind.GHZ3
    else:
        for k in range(2, n_sites + 1):
            steps.append(pi_pulse(k))
        kind = ProtocolKind.GHZ2
    return ProtocolPlan(kind, n_sites, scheme, tuple(steps), post)


def mps_area_schedule(n_sites: int, z: float, blockade_range: int = 1) -> np.ndarray:
    """Backward-recursion pulse angles A_1..A_N for the dimer target.

    For range 1 the result is cross-checked against the closed form; a
    disagreement beyond its conditioning, or a closed form that overflows to
    NaN, raises.  As |z| grows q = (1-s)/(1+s) nears -1 and 1 - q^m cancels,
    so the closed form's error grows like N eps |z| (worst seen: 0.27 of that
    for N <= 1000, 1e-3 <= |z| <= 1e15, and under 1e-6 of the 1e-12 floor for
    |z| <= 1e-3); the tolerance is that bound, at least 1e-12.
    """
    n_sites = check_integer(n_sites, "n_sites")
    blockade_range = check_integer(blockade_range, "blockade_range")
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
        with np.errstate(over="ignore", invalid="ignore"):  # |z| >~ 1e154 overflows
            ref = _closed_form_range1(n_sites, z)
        err = np.abs(thetas - ref).max()
        tol = max(1e-12, n_sites * np.finfo(float).eps * abs(z))
        if not err <= tol:  # a NaN fails too
            raise NumericalError(
                f"recursion disagrees with the closed form by {err:.2e} (tolerance {tol:.1e})"
            )
    return thetas


def _closed_form_range1(n_sites: int, z: float) -> np.ndarray:
    """cos A_k = sqrt(2 [(1+s)^(N+2-k) - (1-s)^(N+2-k)] /
    [(1+s)^(N+3-k) - (1-s)^(N+3-k)]), s = sqrt(1+4z^2).

    Evaluated with q = (1-s)/(1+s) and m = N+2-k, so large chains do not
    overflow the raw powers: cos^2 A_k = (2/(1+s)) (1-q^m)/(1-q^(m+1)) and
    sin^2 A_k = -q (1-q^(m-1))/(1-q^(m+1)).  q = -4z^2/(1+s)^2 is formed
    without the cancellation in 1-s, and the angle comes from arctan2, so a
    small |z| keeps its relative accuracy where arccos of a cosine that
    rounds to 1 would not.
    """
    zz = 4.0 * z * z
    s = np.sqrt(1.0 + zz)
    q = -zz / (1.0 + s) ** 2  # |q| < 1 for z != 0
    m = np.arange(n_sites + 1, 1, -1)  # N+2-k for k = 1..N
    den = 1.0 - q ** (m + 1)
    cos2 = (2.0 / (1.0 + s)) * (1.0 - q**m) / den
    sin2 = -q * (1.0 - q ** (m - 1)) / den
    return np.sign(z) * np.arctan2(np.sqrt(sin2), np.sqrt(cos2))


def mps_area_schedule_polynomial(n_sites: int, z: float, blockade_range: int = 1) -> np.ndarray:
    """Same angles via the characteristic polynomial of the linear recursion.

    cos^2 A_{N+1-k} = q_{k-1}/q_k where q_k = sum_j A_j lambda_j^k, the
    lambda_j are the roots of lambda^(R+1) = lambda^R + z^2 and the A_j
    solve the Vandermonde boundary system q_0 = ... = q_{-R} = 1.
    """
    n_sites = check_integer(n_sites, "n_sites")
    blockade_range = check_integer(blockade_range, "blockade_range")
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
        # sigma_y up to a global phase: exp(-i (pi/2) sigma_y) = -i sigma_y
        post = (pi_pulse(n_sites),)
    return ProtocolPlan(
        ProtocolKind.TRANSPORT,
        n_sites,
        LevelScheme.TWO_LEVEL,
        tuple(steps),
        post,
        alpha=complex(alpha),
        beta=complex(beta),
    )


#: plan_for arguments that shape one kind's plan; every other kind ignores them
SHAPE_FIELDS = {
    ProtocolKind.DIMER_MPS: ("z", "blockade_range"),
    ProtocolKind.TRANSPORT: ("alpha", "beta"),
}


def check_shape(kind: ProtocolKind, **shape) -> None:
    """Raise unless each ``shape`` argument ``kind`` ignores keeps its plan_for default."""
    defaults = inspect.signature(plan_for).parameters
    ignored = [name for name, value in shape.items()  # a NaN differs from its default
               if name not in SHAPE_FIELDS.get(kind, ()) and value != defaults[name].default]
    if ignored:
        raise ValueError(f"protocol {ProtocolKind(kind).value} ignores {', '.join(ignored)}")


def plan_for(
    kind: ProtocolKind,
    n_sites: int,
    z: float = 1.0,
    blockade_range: int = 1,
    alpha: complex = 2**-0.5,
    beta: complex = 2**-0.5,
) -> ProtocolPlan:
    """The plan of ``kind`` on ``n_sites``; z and blockade_range shape the
    dimer plan, alpha and beta the transported qubit, and an argument the
    kind ignores must keep its default (:func:`check_shape`)."""
    check_shape(kind, z=z, blockade_range=blockade_range, alpha=alpha, beta=beta)
    if kind is ProtocolKind.GHZ2:
        return plan_ghz(n_sites, LevelScheme.TWO_LEVEL)
    if kind is ProtocolKind.GHZ3:
        return plan_ghz(n_sites, LevelScheme.THREE_LEVEL)
    if kind is ProtocolKind.DIMER_MPS:
        return plan_dimer_mps(n_sites, z, blockade_range)
    if kind is ProtocolKind.TRANSPORT:
        return plan_transport(n_sites, alpha, beta)
    raise ValueError(f"unknown protocol kind {kind}")


# ---------------------------------------------------------------------------
# execution backends

@dataclass(frozen=True)
class IdealBackend:
    """Perfect-blockade gates within the plan's blockade range."""


@dataclass(frozen=True)
class RealisticBackend:
    """Exact pulsed evolution of one realization: ``energies`` is the diagonal
    of H over the whole chain's basis, as
    :func:`rydchain.dynamics.interaction_diagonal` gives it (one column of a
    stack's), and ``omega`` the Rabi frequency.  ``mixes`` is the
    realization's row of :func:`gathered_mixes` for the plan it runs; a
    backend without one has it computed by :func:`execute`.  The energies
    are read as given: the :class:`rydchain.dynamics.HamiltonianSpec` they
    came from was checked when it was built; a complex diagonal raises."""

    energies: np.ndarray
    omega: float
    mixes: np.ndarray | None = None

    def __post_init__(self):
        if np.asarray(self.energies).dtype.kind == "c":  # a float cast drops imaginary parts
            raise ValueError("energies must be real")
        object.__setattr__(self, "energies", np.asarray(self.energies, dtype=float))
        if not 0 < self.omega < np.inf:  # a NaN fails too
            raise ValueError("omega must be finite and positive")


@dataclass(frozen=True)
class PulseSchedule:
    """What :func:`execute` needs of a plan beyond its steps, compiled once.

    ``widths`` holds each pulse's prefix width m, the highest site pulsed
    so far.  The pulses ``steps[:len(parts)]``, those driving at most
    COEF_CHUNK blocks, are gathered.  ``positions`` holds one contiguous
    array per gathered pulse: the positions in the whole chain's basis of
    each of its blocks' driven levels lo and hi and, on three levels, its
    undriven one, one row per level and one column per block in
    :func:`rydchain.dynamics._rotate_pairs`' order.  Pulse after pulse,
    their K blocks are the columns of :func:`gathered_mixes`.
    ``half_theta`` (|theta|/2) and ``sign`` (sign(theta), +1 for theta =
    0) repeat each pulse's value over its blocks, and ``parts`` slices out
    each pulse's blocks.  ``post`` holds each post-processing gate's
    entries (cos theta, sin theta, cos theta, 1), the constants
    :func:`rydchain.dynamics._rotate_pairs` mixes into every slice.  Every
    array is read-only.
    """

    widths: tuple[int, ...]
    positions: tuple[np.ndarray, ...]
    half_theta: np.ndarray
    sign: np.ndarray
    parts: tuple[slice, ...]
    post: tuple[tuple, ...]


def _compile_schedule(plan: ProtocolPlan) -> PulseSchedule:
    n, dim = plan.n_sites, plan.scheme.local_dim
    widths = tuple(accumulate((step.site for step in plan.steps), max))
    # widths never decrease, so the pulses that drive at most COEF_CHUNK
    # blocks are a leading run
    per_block = [dim ** (m - 1) for m in widths if dim ** (m - 1) <= COEF_CHUNK]
    steps = plan.steps[: len(per_block)]
    offsets = list(accumulate(per_block, initial=0))
    parts = tuple(map(slice, offsets[:-1], offsets[1:]))
    positions = []
    for step, m in zip(steps, widths):
        roles = step.transition.levels + ((step.transition.idle_level,) if dim == 3 else ())
        # the prefix's positions in the chain, read through the layout helpers
        # (a range slices without allocating the whole chain)
        prefix = np.asarray(ground_tail(range(dim**n), n, dim, m))
        positions.append(level_rows(prefix, m, dim, step.site)[list(roles)])
    half_theta = np.repeat([abs(step.theta) / 2.0 for step in steps], per_block)
    sign = np.repeat([np.sign(step.theta) if step.theta else 1.0 for step in steps], per_block)
    # complex scalars: numpy mixes them into complex rows faster than real ones
    post = tuple(tuple(map(np.complex128, _ideal_coefficients(p))) for p in plan.post_steps)
    for table in (*positions, half_theta, sign):
        table.setflags(write=False)
    return PulseSchedule(widths, tuple(positions), half_theta, sign, parts, post)


def gathered_mixes(plan: ProtocolPlan, energies: np.ndarray, omega: float) -> np.ndarray:
    """The 2x2 block mixes of the plan's gathered pulses for each column of a
    (d^n, R) stack of diagonals, as an (R, 2, d, K) array: row r, block b is
    [[u_lo, -u_off], [u_off, u_hi]] in its first two columns, and on three
    levels a third column [u_idle, 0], as
    :func:`rydchain.dynamics._mix_gathered` reads it.

    One take along the basis axis and one
    :func:`rydchain.dynamics._pulse_coefficients` call over (R, K); row r is
    what realization r's :class:`RealisticBackend` carries into
    :func:`execute`.
    """
    schedule = plan.schedule
    dim = plan.scheme.local_dim
    index = np.concatenate([np.empty((dim, 0), dtype=np.intp), *schedule.positions], axis=1)
    rows = energies.T.take(index, axis=1)  # (R, roles, K)
    t, drive = schedule.half_theta / omega, schedule.sign * (2.0 * omega)
    u = _pulse_coefficients(rows[:, 0], rows[:, 1], rows[:, 2] if dim == 3 else None, t, drive)
    mixes = np.zeros((len(rows), 2, dim, len(t)), dtype=np.complex128)
    mixes[:, 0, 0], mixes[:, 1, 0], mixes[:, 1, 1] = u[0], u[1], u[2]
    np.negative(u[1], out=mixes[:, 0, 1])
    if dim == 3:
        mixes[:, 0, 2] = u[3]
    return mixes


def execute(plan: ProtocolPlan, backend) -> np.ndarray:
    """Apply the plan's pulses then its post-processing gates: the one way a
    pulse is run.  Returns the final amplitudes over the plan's whole chain.

    Pulses run in place on a growing prefix of the one array returned, from
    the plan's compiled schedule (see the module docstring).
    """
    n, dim = plan.n_sites, plan.scheme.local_dim
    size = require_capacity(n, dim)
    schedule = plan.schedule
    realistic = isinstance(backend, RealisticBackend)
    if realistic:
        e_tot = backend.energies
        if e_tot.shape != (size,):
            raise ValueError(f"{e_tot.shape} backend energies do not match the plan's {size}")
        mixes = backend.mixes
        if mixes is None:  # a lone backend
            mixes = gathered_mixes(plan, e_tot[:, None], backend.omega)[0]
        if mixes.shape != (2, dim, len(schedule.half_theta)):
            raise ValueError(f"{mixes.shape} backend mixes do not match the plan's schedule")
    elif not isinstance(backend, IdealBackend):
        raise TypeError(f"unknown backend {backend!r}")
    amp = np.zeros(size, dtype=np.complex128)
    if plan.kind is ProtocolKind.TRANSPORT:  # the plan checked its qubit when built
        amp[0], amp[size // dim] = plan.alpha, plan.beta
    else:
        amp[0] = 1.0
    gathered = len(schedule.parts) if realistic else 0
    for positions, part in zip(schedule.positions[:gathered], schedule.parts):
        _mix_gathered(amp, positions, mixes[:, :, part])
    for step, m in zip(plan.steps[gathered:], schedule.widths[gathered:]):
        prefix = ground_tail(amp, n, dim, m)
        if realistic:
            _pulse_on_array(prefix, m, dim, step, ground_tail(e_tot, n, dim, m), backend.omega)
        else:
            _ideal_on_array(prefix, m, dim, step, plan.blockade_range)
    for post, entries in zip(plan.post_steps, schedule.post):
        _rotate_pairs(amp, n, dim, post, lambda rows, entries=entries: entries)
    return check_norm(amp)


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
    if not 0 < omega < np.inf:  # a NaN fails too
        raise ValueError("omega must be finite and positive")
    timed_transfers = hyperfine_policy is HyperfinePolicy.SAME_AS_OMEGA
    total = 0.0
    for step in plan.steps:
        if timed_transfers or step.transition is Transition.GROUND_RYDBERG:
            total += abs(step.theta) / (2.0 * omega)
    return total
