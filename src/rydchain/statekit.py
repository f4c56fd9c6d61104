"""Dense amplitude arrays for chains of two- or three-level atoms.

A chain state is a plain ``complex128`` array with the basis index on axis
0; its chain length and level scheme live on the plan that made it.  Basis
convention: a product state |i_1 i_2 ... i_N> is stored at the index whose
base-d digits are the site occupations, site 1 being the most significant
digit (d = 2 or 3).  Level labels are GROUND = 0, RYDBERG = 1 and
HYPERFINE = 2; only the Rydberg level interacts.

In this layout a chain whose sites past m are all |0> keeps its m-site
amplitudes at every d**(n-m)-th index: :func:`ground_tail` is the strided
view of them, through which they are read and written in place.
"""

from __future__ import annotations

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
    """(dim, n_sites) table of site occupations for every basis index; zero
    sites have one configuration, an empty row."""
    dim = require_capacity(n_sites, local_dim)
    place = local_dim ** np.arange(n_sites - 1, -1, -1)  # site 1 most significant
    out = np.arange(dim)[:, None] // place % local_dim
    out.setflags(write=False)
    return out


def site_view(array: np.ndarray, n_sites: int, local_dim: int, site: int) -> np.ndarray:
    """View of ``array`` (basis index on axis 0) shaped ``(d**(site-1), d,
    d**(n_sites-site), ...)``: axis 1 is the level of ``site``."""
    shape = (local_dim ** (site - 1), local_dim, local_dim ** (n_sites - site))
    return array.reshape(shape + array.shape[1:])


def level_rows(array: np.ndarray, n_sites: int, local_dim: int, site: int) -> np.ndarray:
    """Flat ``array`` in level-major order, shaped ``(d, d**(n_sites-1))``:
    row k holds the entries with ``site`` at level k, in the basis order of
    the other atoms.  A view when ``site`` is 1 or ``n_sites``, else a copy."""
    return site_view(array, n_sites, local_dim, site).transpose(1, 0, 2).reshape(local_dim, -1)


def ground_tail(array: np.ndarray, n_sites: int, local_dim: int, prefix_sites: int) -> np.ndarray:
    """Strided view of the entries of ``array`` (basis index on axis 0) whose
    sites past ``prefix_sites`` are all |0>, in the prefix's basis order.
    Its stride is uniform, so :func:`site_view` reshapes it without a copy."""
    return array[:: local_dim ** (n_sites - prefix_sites)]


def encode_occupations(occupations, local_dim: int) -> int:
    """Basis index of a site-occupation list (site 1 most significant)."""
    idx = 0
    for occ in occupations:
        if not 0 <= occ < local_dim:
            raise ValueError(f"occupation {occ} out of range for local dimension {local_dim}")
        idx = idx * local_dim + int(occ)
    return idx


def check_qubit(alpha: complex | None, beta: complex | None) -> None:
    """Raise ValueError unless alpha|0> + beta|1> is a normalized qubit."""
    if alpha is None or beta is None or not abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= NORM_TOL:
        raise ValueError("|alpha|^2 + |beta|^2 must equal 1")  # None and NaN fail too


def reduce_to_site(amp: np.ndarray, site: int) -> np.ndarray:
    """2x2 reduced density matrix of one atom of a two-level chain state,
    all others traced out; the chain length is read from ``len(amp)``.  A
    (2^n, R) stack of states gives an (R, 2, 2) stack, one per column."""
    n = len(amp).bit_length() - 1
    if n < 1 or len(amp) != 2**n:
        raise ValueError(f"{len(amp)} amplitudes are not a two-level chain of >= 1 sites")
    if not 1 <= site <= n:
        raise IndexError(f"site {site} out of range 1..{n}")
    m = site_view(amp, n, 2, site)
    return np.einsum("iaj...,ibj...->...ab", m, m.conj())


def check_norm(amp: np.ndarray) -> np.ndarray:
    """Pass-through norm assertion used after norm-preserving operations."""
    drift = abs(float(np.sqrt(np.vdot(amp, amp).real)) - 1.0)
    if not drift <= NORM_TOL:  # a NaN amplitude fails too
        raise NumericalError(f"state norm drifted by {drift:.3e}")
    return amp
