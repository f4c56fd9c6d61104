"""Pulse kernels: constrained ideal rotations and exact pulsed evolution.

The kernels act on raw amplitude arrays and run only through
:func:`rydchain.protocols.execute`, whose plan has checked every site and
transition when it was built.

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
from functools import lru_cache

import numpy as np

from .errors import CapacityError, NumericalError
from .statekit import GROUND, HYPERFINE, RYDBERG, basis_digits

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


# ---------------------------------------------------------------------------
# index plumbing (cached per chain shape)

@lru_cache(maxsize=256)
def _pair_indices(n_sites: int, local_dim: int, site: int, lo: int, hi: int):
    dig = basis_digits(n_sites, local_dim)
    k = site - 1
    stride = local_dim ** (n_sites - 1 - k)
    sel_lo = np.where(dig[:, k] == lo)[0]
    sel_hi = sel_lo + (hi - lo) * stride
    for a in (sel_lo, sel_hi):
        a.setflags(write=False)
    return sel_lo, sel_hi


@lru_cache(maxsize=256)
def _free_mask(n_sites: int, local_dim: int, site: int, lo: int, hi: int, radius: int):
    """Mask over the lo-index set: True where no neighbor within ``radius`` is Rydberg."""
    if radius < 0:
        raise ValueError("blockade radius must be >= 0")
    dig = basis_digits(n_sites, local_dim)
    sel_lo, _ = _pair_indices(n_sites, local_dim, site, lo, hi)
    k = site - 1
    blocked = np.zeros(len(sel_lo), dtype=bool)
    for d in range(1, radius + 1):
        for kk in (k - d, k + d):
            if 0 <= kk < n_sites:
                blocked |= dig[sel_lo, kk] == RYDBERG
    free = ~blocked
    free.setflags(write=False)
    return free


def interaction_diagonal(hamiltonian: HamiltonianSpec, local_dim: int) -> np.ndarray:
    """Diagonal of H for every basis configuration: pairwise interaction
    energy plus the detunings of the Rydberg-occupied sites."""
    occ = (basis_digits(hamiltonian.n_sites, local_dim) == RYDBERG).astype(float)
    pairs = 0.5 * np.einsum("ij,jk,ik->i", occ, hamiltonian.couplings, occ)
    return pairs + occ @ hamiltonian.detuning


# ---------------------------------------------------------------------------
# ideal constrained gate

def _ideal_on_array(amp, n_sites, local_dim, step: PulseStep, radius: int):
    lo, hi = step.transition.levels
    sel_lo, sel_hi = _pair_indices(n_sites, local_dim, step.site, lo, hi)
    free = _free_mask(n_sites, local_dim, step.site, lo, hi, radius)
    new = amp.copy()
    c, s = np.cos(step.theta), np.sin(step.theta)
    a_lo, a_hi = amp[sel_lo[free]], amp[sel_hi[free]]
    new[sel_lo[free]] = c * a_lo - s * a_hi
    new[sel_hi[free]] = s * a_lo + c * a_hi
    return new


# ---------------------------------------------------------------------------
# realistic pulsed evolution

def _pulse_on_array(amp, n_sites, local_dim, step: PulseStep, e_tot, omega):
    lo, hi = step.transition.levels
    t = abs(step.theta) / (2.0 * omega)
    drive = 2.0 * omega * np.sign(step.theta) if step.theta else 2.0 * omega
    sel_lo, sel_hi = _pair_indices(n_sites, local_dim, step.site, lo, hi)
    # undriven levels of the addressed atom keep their diagonal phase
    new = amp * np.exp(-1j * e_tot * t)
    d_lo, d_hi = e_tot[sel_lo], e_tot[sel_hi]
    avg = 0.5 * (d_lo + d_hi)
    w = 0.5 * (d_hi - d_lo)
    b = np.hypot(drive, w)
    phase = np.exp(-1j * avg * t)
    c = np.cos(b * t)
    s = np.sin(b * t) / b
    a_lo, a_hi = amp[sel_lo], amp[sel_hi]
    new[sel_lo] = phase * ((c + 1j * w * s) * a_lo - drive * s * a_hi)
    new[sel_hi] = phase * (drive * s * a_lo + (c - 1j * w * s) * a_hi)
    return new


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
    dig = basis_digits(n, 2)
    H = np.diag(interaction_diagonal(hamiltonian, 2)).astype(np.complex128)
    for k in range(n):
        stride = 2 ** (n - 1 - k)
        sel = np.where(dig[:, k] == GROUND)[0]
        H[sel + stride, sel] += 2j * omegas[k]
        H[sel, sel + stride] += -2j * omegas[k]
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
