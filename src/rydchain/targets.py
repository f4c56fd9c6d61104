"""Target states (alternating GHZ, blockaded-dimer superpositions) and fidelities."""

from __future__ import annotations

import numpy as np

from .statekit import (
    HYPERFINE,
    RYDBERG,
    LevelScheme,
    StateVector,
    basis_digits,
    encode_occupations,
    warn_if_odd_ghz,
)


def ghz_target(n_sites: int, scheme: LevelScheme) -> StateVector:
    """(|0x0x...> + |x0x0...>)/sqrt(2), x the excited level of the scheme.

    Two-level chains store the pattern in the Rydberg level, three-level
    chains in the hyperfine level.  Odd lengths are allowed but warned
    about: the two components then differ in excitation number.
    """
    if n_sites < 2:
        raise ValueError("GHZ pattern needs at least 2 sites")
    warn_if_odd_ghz(n_sites)
    x = HYPERFINE if scheme is LevelScheme.THREE_LEVEL else RYDBERG
    dim = scheme.local_dim
    a = [x if k % 2 else 0 for k in range(n_sites)]  # x 0 x 0 ...
    b = [0 if k % 2 else x for k in range(n_sites)]
    amp = np.zeros(dim**n_sites, dtype=np.complex128)
    amp[encode_occupations(b, dim)] = 1 / np.sqrt(2)  # 0 x 0 x ...
    amp[encode_occupations(a, dim)] = 1 / np.sqrt(2)
    return StateVector(n_sites, scheme, amp)


def dimer_target_direct(n_sites: int, z: float, blockade_range: int = 1) -> StateVector:
    """Normalized sum of z^n over all configurations with no two excitations
    within ``blockade_range`` sites; every forbidden amplitude is an exact zero."""
    if blockade_range < 1:
        raise ValueError("blockade_range must be >= 1")
    dig = basis_digits(n_sites, 2)
    occ = dig == RYDBERG
    allowed = np.ones(2**n_sites, dtype=bool)
    for d in range(1, blockade_range + 1):
        if d < n_sites:
            allowed &= ~(occ[:, :-d] & occ[:, d:]).any(axis=1)
    n_exc = occ.sum(axis=1)
    amp = np.where(allowed, np.float_power(float(z), n_exc), 0.0).astype(np.complex128)
    amp /= np.linalg.norm(amp)
    return StateVector(n_sites, LevelScheme.TWO_LEVEL, amp)


def dimer_target_mps(n_sites: int, z: float) -> StateVector:
    """Range-1 dimer state built by contracting the bond-2 tensor chain.

    X0 = (1 - n) + z*sigma_minus and X1 = sigma_plus on the bond space;
    contracting l . X_{i_1} ... X_{i_N} . r gives amplitude z^n on allowed
    configurations and an exact zero whenever two excitations are adjacent.
    The boundary vectors l = (1, z) and r = (1, 0)^T seed and close the
    chain so that the first and last atoms may both be excited.  A per-index
    loop over 2^N, kept as the independent check of :func:`dimer_target_direct`.
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


def fidelity_pure(target: StateVector, final: StateVector) -> float:
    """|<target|final>|^2."""
    if target.dim != final.dim:
        raise ValueError("state dimensions differ")
    f = abs(np.vdot(target.amplitudes, final.amplitudes)) ** 2
    return float(min(f, 1.0))


def fidelity_mixed_single_qubit(target_ket, rho: np.ndarray) -> float:
    """<psi|rho|psi> for a single-qubit density matrix."""
    ket = np.asarray(target_ket, dtype=np.complex128)
    if ket.shape != (2,):
        raise ValueError("target ket must be a 2-vector")
    if not abs(np.linalg.norm(ket) - 1.0) <= 1e-10:  # a NaN fails too
        raise ValueError("target ket must be normalized")
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (2, 2):
        raise ValueError("rho must be 2x2")
    if not (np.abs(rho - rho.conj().T).max() <= 1e-8 and abs(np.trace(rho).real - 1.0) <= 1e-8):
        raise ValueError("rho is not a density matrix")
    f = float(np.real(np.vdot(ket, rho @ ket)))
    return min(max(f, 0.0), 1.0)
