"""Pulse kernels: constrained ideal rotations and exact pulsed evolution.

The kernels act on raw amplitude arrays and run only through
:func:`rydchain.protocols.execute`, whose plan has checked every site and
transition when it was built.  They address one atom through
:func:`rydchain.statekit.site_view`, the one home of the basis layout.

Rotation convention
-------------------
Every pulse is a rotation exp(-i theta sigma_y) on the addressed transition,
with sigma_y oriented so that

    |0>  ->  cos(theta)|0>  + sin(theta)|1>      (transition 0 <-> 1)
    |1~> ->  cos(theta)|1~> + sin(theta)|1>      (transition 1 <-> 1~)

so a named "pi pulse" inverts population and corresponds to theta = pi/2,
a named "pi/2 pulse" to theta = pi/4.  The hyperfine orientation makes a
full transfer send |1> to -|1~>, which fixes the signs of the alternating
entangled states the sequences produce.

The ideal backend applies 1 - P_left P_right + P_left P_right exp(-i theta
sigma_y), where the projectors require every neighbor within the blockade
radius to be outside the Rydberg level; chain ends count as empty.

The realistic backend evolves exactly under

    H = 2 Omega sigma_y^(site) + sum_{k<m} V_km n_k n_m + sum_k Delta_k n_k

for a time t = theta / (2 Omega) by splitting the Hamiltonian into closed
2x2 blocks: the two driven levels of the addressed atom against each
frozen configuration of the others, whose interaction and detuning energy
(:func:`interaction_diagonal`) enters the block diagonal.  Undriven levels
only accumulate their diagonal phase.  The matrix element 2 Omega together
with t = theta / (2 Omega) is the unique pairing that makes a free pulse a
theta rotation and reproduces the closed-form two-atom amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import CapacityError, NumericalError
from .statekit import GROUND, HYPERFINE, RYDBERG, basis_digits, site_view

PI_HALF = np.pi / 2
PI_QUARTER = np.pi / 4


class Transition(Enum):
    GROUND_RYDBERG = "01"
    RYDBERG_HYPERFINE = "1h"

    @property
    def levels(self) -> tuple[int, int]:
        """(low, high) level indices in the rotation convention above."""
        if self is Transition.GROUND_RYDBERG:
            return (GROUND, RYDBERG)
        return (HYPERFINE, RYDBERG)


@dataclass(frozen=True)
class PulseStep:
    site: int
    transition: Transition
    theta: float

    def __post_init__(self):
        if self.site < 1:
            raise ValueError("site indices are 1-based")
        if not -np.pi <= self.theta <= np.pi:
            raise ValueError("theta out of range [-pi, pi]")


def pi_pulse(site: int, transition: Transition = Transition.GROUND_RYDBERG) -> PulseStep:
    return PulseStep(site, transition, PI_HALF)


def half_pi_pulse(site: int, transition: Transition = Transition.GROUND_RYDBERG) -> PulseStep:
    return PulseStep(site, transition, PI_QUARTER)


class InteractionRange(Enum):
    """Coupling range of a sweep or solvable-point check.  The short range is
    applied by masking couplings with :func:`rydchain.lattice.truncate_couplings`
    (one shell in sweeps, two at the solvable point)."""

    FULL = "full"
    NEAREST_NEIGHBOR = "nn"


@dataclass(frozen=True)
class HamiltonianSpec:
    """Couplings V_km and per-site detunings Delta_k of the diagonal part of H.

    Every coupling is used as given; a shorter interaction range is
    expressed by zeroing couplings before building the spec.
    """

    couplings: np.ndarray
    detuning: np.ndarray = field(default=None)  # defaults to zeros

    def __post_init__(self):
        V = np.asarray(self.couplings, dtype=float)
        if V.ndim != 2 or V.shape[0] != V.shape[1]:
            raise ValueError("couplings must be a square matrix")
        object.__setattr__(self, "couplings", V)
        det = self.detuning
        det = np.zeros(len(V)) if det is None else np.asarray(det, dtype=float)
        if det.shape != (len(V),):
            raise ValueError("detuning array length must match the chain")
        object.__setattr__(self, "detuning", det)

    @property
    def n_sites(self) -> int:
        return len(self.couplings)


def interaction_diagonal(hamiltonian: HamiltonianSpec, local_dim: int) -> np.ndarray:
    """Diagonal of H for every basis configuration: pairwise interaction
    energy plus the detunings of the Rydberg-occupied sites."""
    occ = (basis_digits(hamiltonian.n_sites, local_dim) == RYDBERG).astype(float)
    pairs = 0.5 * np.einsum("ij,jk,ik->i", occ, hamiltonian.couplings, occ)
    return pairs + occ @ hamiltonian.detuning


# ---------------------------------------------------------------------------
# per-site kernels on the (pre, level, post) view of statekit.site_view

def _free_of_blockade(n_sites, local_dim, site, radius):
    """(pre, post) mask, True where no neighbor within ``radius`` of ``site``
    is Rydberg, or ``...`` (everything) when no neighbor lies that close."""
    if radius == 0 or n_sites == 1:
        return ...
    occ = site_view(basis_digits(n_sites, local_dim), n_sites, local_dim, site)[:, GROUND]
    near = occ[..., max(site - 1 - radius, 0) : site + radius]  # the site itself reads GROUND
    return ~(near == RYDBERG).any(axis=-1)


def _ideal_on_array(amp, n_sites, local_dim, step: PulseStep, radius: int):
    lo, hi = step.transition.levels
    view = site_view(amp, n_sites, local_dim, step.site)
    free = _free_of_blockade(n_sites, local_dim, step.site, radius)
    a_lo, a_hi = view[:, lo].copy()[free], view[:, hi].copy()[free]
    new = view.copy()
    c, s = np.cos(step.theta), np.sin(step.theta)
    new[:, lo][free] = c * a_lo - s * a_hi
    new[:, hi][free] = s * a_lo + c * a_hi
    return new.reshape(-1)


def _pulse_on_array(amp, n_sites, local_dim, step: PulseStep, e_tot, omega):
    lo, hi = step.transition.levels
    t = abs(step.theta) / (2.0 * omega)
    drive = 2.0 * omega * np.sign(step.theta) if step.theta else 2.0 * omega
    view = site_view(amp, n_sites, local_dim, step.site)
    if local_dim == 2:
        new = np.empty_like(view)  # every amplitude lies in a driven pair
    else:
        # undriven levels of the addressed atom keep their diagonal phase
        new = (amp * np.exp(-1j * e_tot * t)).reshape(view.shape)
    # level-major copies, row k = level k in basis order: ufuncs cost more per
    # call on the strided 2-D slices of the view than on one flat block
    e_rows = e_tot.reshape(view.shape).transpose(1, 0, 2).reshape(local_dim, -1)
    d_lo, d_hi = e_rows[lo], e_rows[hi]
    avg = 0.5 * (d_lo + d_hi)
    w = 0.5 * (d_hi - d_lo)
    b = np.hypot(drive, w)
    phase = np.exp(-1j * avg * t)
    c = np.cos(b * t)
    s = np.sin(b * t) / b
    a_rows = view.transpose(1, 0, 2).reshape(local_dim, -1)
    a_lo, a_hi = a_rows[lo], a_rows[hi]
    new[:, lo] = (phase * ((c + 1j * w * s) * a_lo - drive * s * a_hi)).reshape(len(view), -1)
    new[:, hi] = (phase * (drive * s * a_lo + (c - 1j * w * s) * a_hi)).reshape(len(view), -1)
    return new.reshape(-1)


# ---------------------------------------------------------------------------
# dense Hamiltonians

MAX_DENSE_DIM = 4096


def build_full_hamiltonian(hamiltonian: HamiltonianSpec, omega_per_site) -> np.ndarray:
    """Dense two-level Hamiltonian: drives 2*omega_k sigma_y plus diagonal terms.

    The sigma_y coefficient is 2*omega_k, matching the pulse backend; pass
    half the desired coefficient when a bare omega*sigma_y drive is wanted.
    """
    n = hamiltonian.n_sites
    if 2**n > MAX_DENSE_DIM:
        raise CapacityError(f"dense Hamiltonian limited to dimension {MAX_DENSE_DIM}")
    omegas = np.broadcast_to(np.asarray(omega_per_site, dtype=float), (n,))
    H = np.diag(interaction_diagonal(hamiltonian, 2)).astype(np.complex128)
    index = np.arange(len(H))
    for k in range(n):
        sel = site_view(index, n, 2, k + 1)
        H[sel[:, RYDBERG], sel[:, GROUND]] += 2j * omegas[k]
        H[sel[:, GROUND], sel[:, RYDBERG]] += -2j * omegas[k]
    return H


def ground_state_dense(H: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair (energy, normalized eigenvector) of a Hermitian matrix."""
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("H must be square")
    dim = H.shape[0]
    if dim > MAX_DENSE_DIM:
        raise CapacityError(f"dense diagonalization limited to dimension {MAX_DENSE_DIM}")
    scale = max(np.abs(H).max(), 1.0)
    if np.abs(H - H.conj().T).max() > 1e-10 * scale:
        raise ValueError("H is not Hermitian")
    evals, evecs = np.linalg.eigh(H)
    energy = float(evals[0])
    vec = evecs[:, 0]
    residual = np.linalg.norm(H @ vec - energy * vec)
    if residual > 1e-8 * scale:
        raise NumericalError(f"eigenpair residual {residual:.2e}")
    return energy, vec
