"""Chain geometry, Gaussian positional disorder and van der Waals couplings.

Units: lengths in micrometers, energies and Rabi frequencies as angular
frequencies in rad/us.  A value quoted as "2 pi x f MHz" enters as
2 * pi * f (see :data:`V0_REFERENCE`), so no 2 pi floats around the core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

#: Trap separation used for the shipped disorder scenarios (um).
R0_DEFAULT = 4.1

#: Interaction strength of the reference experiment, 2 pi x 8.4 MHz in rad/us.
V0_REFERENCE = 2 * np.pi * 8.4


@dataclass(frozen=True)
class DisorderSpec:
    """Per-axis Gaussian widths (sigma_1, sigma_2, sigma_3) in um.

    The chain lies along axis 3; axes 1 and 2 are transverse.
    """

    sigma: tuple[float, float, float]

    def __post_init__(self):
        if len(self.sigma) != 3 or not all(s >= 0 for s in self.sigma):  # a NaN fails too
            raise ValueError("sigma must be three nonnegative widths")

    @property
    def kind(self) -> str:
        s1, s2, s3 = self.sigma
        if s1 == s2 == s3 == 0:
            return "none"
        if s1 == s2 == s3:
            return "iso"
        if s2 == s3 != s1:
            return "aniso"
        return "custom"

    @property
    def is_none(self) -> bool:
        return self.kind == "none"


#: Disorder scenarios of the reference experiment (sigma in um).
DISORDER_PRESETS = {
    "none": DisorderSpec((0.0, 0.0, 0.0)),
    "iso": DisorderSpec((0.12, 0.12, 0.12)),
    "aniso": DisorderSpec((1.0, 0.12, 0.12)),
}


def disorder_preset(name: str) -> DisorderSpec:
    try:
        return DISORDER_PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown disorder preset {name!r}; use none|iso|aniso") from None


def ideal_configuration(n_sites: int, spacing_r0: float) -> np.ndarray:
    """(n, 3) positions (0, 0, k*r0), k = 1..n."""
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    if not spacing_r0 > 0:
        raise ValueError("spacing_r0 must be positive")
    pos = np.zeros((n_sites, 3))
    pos[:, 2] = spacing_r0 * np.arange(1, n_sites + 1)
    return pos


def sample_configuration(
    n_sites: int, spacing_r0: float, disorder: DisorderSpec, seed
) -> np.ndarray:
    """Ideal positions plus independent per-axis Gaussian displacements.

    ``seed`` is an int, a tuple or array of ints or a ``numpy.random.SeedSequence``
    (such as :func:`realization_seed` returns), any form
    ``numpy.random.Philox`` accepts, and gives one (n, 3) configuration.  A
    list of such seeds gives an (R, n, 3) stack, row r drawn from seed r
    exactly as that seed alone would draw it.  The stream is a Philox
    counter generator, so a given seed reproduces the same configuration on
    any machine.  Zero widths return the ideal chain unchanged, whatever the
    seed.
    """
    stacked = isinstance(seed, list)
    seeds = seed if stacked else [seed]
    pos = np.tile(ideal_configuration(n_sites, spacing_r0), (len(seeds), 1, 1))
    if not disorder.is_none:  # the widths are >= 0, so some is > 0
        noise = np.empty(pos.shape)
        for row, s in zip(noise, seeds):
            np.random.Generator(np.random.Philox(s)).standard_normal(out=row)
        pos += noise * np.asarray(disorder.sigma)
    return pos if stacked else pos[0]


def realization_seed(master_seed: int, *path: int) -> np.random.SeedSequence:
    """Stable per-realization seed: master entropy plus an index path."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(path))


def coupling_matrix(config: np.ndarray, v0: float, r0: float) -> np.ndarray:
    """Pairwise interaction energies v0 * (r0 / |r_k - r_m|)^6, zero diagonal,
    of an (n, 3) configuration, or of each one of an (R, n, 3) stack as an
    (R, n, n) stack; v0 and r0 must be finite."""
    if not (math.isfinite(v0) and math.isfinite(r0)):
        raise ValueError("v0 and r0 must be finite")
    pos = np.asarray(config, dtype=float)
    if pos.ndim not in (2, 3) or pos.shape[-1] != 3:
        raise ValueError("configuration must be an (n, 3) array or an (R, n, 3) stack")
    if not np.all(np.isfinite(pos)):
        raise GeometryError("non-finite atom position")
    diff = pos[..., :, None, :] - pos[..., None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    sites = np.arange(pos.shape[-2])
    dist[..., sites, sites] = np.inf  # an atom is no neighbor of itself
    if dist.min(initial=np.inf) < 1e-9:
        raise GeometryError("coincident atoms in configuration")
    V = v0 * (r0 / dist) ** 6
    V[..., sites, sites] = 0.0  # exactly +0.0, whatever the sign of v0
    return V


def truncate_couplings(V: np.ndarray, max_neighbor_distance: int) -> np.ndarray:
    """Zero all couplings between sites more than ``max_neighbor_distance``
    apart, in one (n, n) matrix or in each of an (R, n, n) stack."""
    n = V.shape[-1]
    sep = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return np.where(sep <= max_neighbor_distance, V, 0.0)
