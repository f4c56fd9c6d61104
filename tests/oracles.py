"""Independent dense oracles for the package's fast paths, used by tests only."""

import numpy as np

from rydchain.dynamics import MAX_DENSE_DIM
from rydchain.errors import CapacityError
from rydchain.statekit import GROUND, RYDBERG, LevelScheme, StateVector, basis_digits


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


def dimer_target_mps(n_sites: int, z: float) -> StateVector:
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
    return StateVector(n_sites, LevelScheme.TWO_LEVEL, amp)
