"""Dense state vectors for chains of two- or three-level atoms.

Basis convention: a product state |i_1 i_2 ... i_N> is stored at the index
whose base-d digits are the site occupations, site 1 being the most
significant digit (d = 2 or 3).  Level labels are GROUND = 0, RYDBERG = 1
and HYPERFINE = 2; only the Rydberg level interacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import CapacityError, NumericalError

GROUND = 0
RYDBERG = 1
HYPERFINE = 2

#: Hard cap on the amplitude count of any dense state (memory guard).
MAX_AMPLITUDES = 2**20

#: Norm drift allowed after any norm-preserving operation.
NORM_TOL = 1e-10


class LevelScheme(Enum):
    TWO_LEVEL = 2
    THREE_LEVEL = 3

    @property
    def local_dim(self) -> int:
        return self.value


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitude array over the chain's product basis.

    Treated as immutable: operations return new instances and never write
    into ``amplitudes`` of an existing one.
    """

    n_sites: int
    scheme: LevelScheme
    amplitudes: np.ndarray

    def __post_init__(self):
        dim = self.scheme.local_dim**self.n_sites
        if self.amplitudes.shape != (dim,):
            raise ValueError(
                f"amplitude array has shape {self.amplitudes.shape}, expected ({dim},)"
            )

    @property
    def dim(self) -> int:
        return self.scheme.local_dim**self.n_sites

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def require_capacity(n_sites: int, local_dim: int) -> int:
    """Amplitude count of a dense chain state; raises before anything is
    allocated when it exceeds :data:`MAX_AMPLITUDES`."""
    dim = local_dim**n_sites
    if dim > MAX_AMPLITUDES:
        raise CapacityError(
            f"state of dimension {dim} ({local_dim}^{n_sites}) exceeds the cap of {MAX_AMPLITUDES}"
        )
    return dim


@lru_cache(maxsize=64)
def basis_digits(n_sites: int, local_dim: int) -> np.ndarray:
    """(dim, n_sites) table of site occupations for every basis index."""
    dim = require_capacity(n_sites, local_dim)
    out = np.stack(np.unravel_index(np.arange(dim), (local_dim,) * n_sites), axis=1)
    out.setflags(write=False)
    return out


def site_view(array: np.ndarray, n_sites: int, local_dim: int, site: int) -> np.ndarray:
    """View of ``array`` (basis index on axis 0) shaped ``(d**(site-1), d,
    d**(n_sites-site), ...)``: axis 1 is the level of ``site``."""
    shape = (local_dim ** (site - 1), local_dim, local_dim ** (n_sites - site))
    return array.reshape(shape + array.shape[1:])


def encode_occupations(occupations, local_dim: int) -> int:
    """Basis index of a site-occupation list (site 1 most significant)."""
    idx = 0
    for occ in occupations:
        if not 0 <= occ < local_dim:
            raise ValueError(f"occupation {occ} out of range for local dimension {local_dim}")
        idx = idx * local_dim + int(occ)
    return idx


def ground_state(n_sites: int, scheme: LevelScheme) -> StateVector:
    """|00...0> on ``n_sites`` atoms."""
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    amp = np.zeros(require_capacity(n_sites, scheme.local_dim), dtype=np.complex128)
    amp[0] = 1.0
    return StateVector(n_sites, scheme, amp)


def from_amplitudes(n_sites: int, scheme: LevelScheme, amplitudes) -> StateVector:
    """Wrap a raw amplitude array (copied, cast to complex) without normalizing."""
    amp = np.asarray(amplitudes, dtype=np.complex128).copy()
    return StateVector(n_sites, scheme, amp)


def check_qubit(alpha: complex | None, beta: complex | None) -> None:
    """Raise ValueError unless alpha|0> + beta|1> is a normalized qubit."""
    if alpha is None or beta is None or not abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= NORM_TOL:
        raise ValueError("|alpha|^2 + |beta|^2 must equal 1")  # None and NaN fail too


def embed_initial_qubit(alpha: complex, beta: complex, n_sites: int) -> StateVector:
    """(alpha|0> + beta|1>) on site 1, all other atoms in |0>.

    The pair must be normalized already; nothing is silently rescaled.
    """
    check_qubit(alpha, beta)
    state = ground_state(n_sites, LevelScheme.TWO_LEVEL)
    amp = state.amplitudes
    amp[0] = alpha
    amp[2 ** (n_sites - 1)] = beta
    return state


def reduce_to_site(state: StateVector, site: int) -> np.ndarray:
    """2x2 reduced density matrix of one atom, all others traced out."""
    if state.scheme is not LevelScheme.TWO_LEVEL:
        raise ValueError("single-qubit reduction is defined for two-level chains only")
    if not 1 <= site <= state.n_sites:
        raise IndexError(f"site {site} out of range 1..{state.n_sites}")
    m = site_view(state.amplitudes, state.n_sites, 2, site)
    rho = np.einsum("iaj,ibj->ab", m, m.conj())
    return rho


def check_norm(state: StateVector, tol: float = NORM_TOL) -> StateVector:
    """Pass-through norm assertion used after norm-preserving operations."""
    drift = abs(state.norm() - 1.0)
    if not drift <= tol:  # a NaN amplitude fails too
        raise NumericalError(f"state norm drifted by {drift:.3e}")
    return state
