"""Target states (alternating GHZ, blockaded-dimer superpositions) and fidelities."""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .statekit import (
    HYPERFINE,
    RYDBERG,
    LevelScheme,
    encode_occupations,
    require_capacity,
)

#: Largest excess of an unclipped fidelity beyond [0, 1] that is clipped;
#: states within check_norm's tolerance stay well inside it.
FIDELITY_TOL = 1e-9


def ghz_target(n_sites: int, scheme: LevelScheme) -> tuple[np.ndarray, np.ndarray]:
    """(|0x0x...> + |x0x0...>)/sqrt(2), x the excited level of the scheme, as
    its support: (indices, amplitudes), the two basis indices in increasing
    order and their two amplitudes.  Every other amplitude is zero, so a
    fidelity reads only ``final[indices]``: no d^n target is built.

    Two-level chains store the pattern in the Rydberg level, three-level
    chains in the hyperfine level.  At odd lengths the two components differ
    in excitation number, and the three-level sequence prepares them with a
    relative minus sign this target lacks, so it scores about 0 there.
    """
    if n_sites < 2:
        raise ValueError("GHZ pattern needs at least 2 sites")
    dim = scheme.local_dim
    require_capacity(n_sites, dim)  # no chain state this long exists to score
    x = HYPERFINE if scheme is LevelScheme.THREE_LEVEL else RYDBERG
    a = [x if k % 2 else 0 for k in range(n_sites)]  # 0 x 0 x ...
    b = [0 if k % 2 else x for k in range(n_sites)]  # x 0 x 0 ...
    support = np.array([encode_occupations(a, dim), encode_occupations(b, dim)])
    return support, np.full(2, 1 / np.sqrt(2), dtype=np.complex128)


def dimer_target_direct(n_sites: int, z: float, blockade_range: int = 1) -> np.ndarray:
    """Normalized sum of z^n over all configurations with no two excitations
    within ``blockade_range`` sites; every forbidden amplitude is an exact zero.

    A two-level basis index x holds site k's occupation in bit n - k, so x
    has two excitations d sites apart exactly when x & (x >> d) is nonzero,
    and its excitation count is its number of set bits: no (2^n, n) table.
    """
    if blockade_range < 1:
        raise ValueError("blockade_range must be >= 1")
    x = np.arange(require_capacity(n_sites, 2))
    allowed = np.ones(len(x), dtype=bool)
    shifted = np.empty_like(x)
    for d in range(1, min(blockade_range, n_sites - 1) + 1):
        np.right_shift(x, d, out=shifted)
        shifted &= x
        allowed &= shifted == 0
    n_exc = np.zeros_like(x)
    for k in range(n_sites):  # np.bitwise_count needs numpy >= 2
        np.right_shift(x, k, out=shifted)
        shifted &= 1
        n_exc += shifted
    del x, shifted  # freed before the complex state is allocated
    amp = np.where(allowed, np.float_power(float(z), n_exc), 0.0).astype(np.complex128)
    amp /= np.linalg.norm(amp)
    return amp


def fidelity_pure(target: np.ndarray, final: np.ndarray):
    """|<target|final>|^2 of two amplitude arrays over the same basis states
    (a whole chain, or a target's support and ``final`` read there).  A
    (len, R) stack of final states gives an (R,) array, column by column;
    each column is held to the clip tolerance on its own."""
    if len(target) != len(final):
        raise ValueError("state dimensions differ")
    # one vdot per column: a product with the conjugated target would first
    # copy a whole state, which costs a large chain more than the product
    columns = np.reshape(final, (len(final), -1)).T
    f = np.abs([np.vdot(target, column) for column in columns]) ** 2
    return _clip_unit(f if np.ndim(final) == 2 else f[0])


def fidelity_mixed_single_qubit(target_ket, rho: np.ndarray):
    """<psi|rho|psi> for a single-qubit density matrix.  An (R, 2, 2) stack of
    them gives an (R,) array; each must be a density matrix, and each value
    is held to the clip tolerance on its own."""
    ket = np.asarray(target_ket, dtype=np.complex128)
    if ket.shape != (2,):
        raise ValueError("target ket must be a 2-vector")
    if not abs(np.linalg.norm(ket) - 1.0) <= 1e-10:  # a NaN fails too
        raise ValueError("target ket must be normalized")
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (2, 2):
        raise ValueError("rho must be 2x2 or a stack of 2x2 matrices")
    hermitian = np.abs(rho - np.swapaxes(rho, -1, -2).conj()).max(axis=(-2, -1)) <= 1e-8
    unit_trace = np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0) <= 1e-8
    if not np.all(hermitian & unit_trace):  # a NaN fails too
        raise ValueError("rho is not a density matrix")
    return _clip_unit(np.real((rho @ ket) @ ket.conj()))


def _clip_unit(f):
    """f (a scalar, or an array of them) clipped to [0, 1]; an excess beyond
    FIDELITY_TOL (or a NaN) anywhere raises."""
    f = np.asarray(f, dtype=float)
    outside = ~((-FIDELITY_TOL <= f) & (f <= 1.0 + FIDELITY_TOL))
    if outside.any():
        raise NumericalError(
            f"fidelity {float(f[outside][0])!r} lies outside [0, 1] by more than {FIDELITY_TOL:g}"
        )
    f = np.clip(f, 0.0, 1.0)
    return float(f) if f.ndim == 0 else f
