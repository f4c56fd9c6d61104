"""Chain geometry, Gaussian positional disorder and van der Waals couplings.

Units: lengths in micrometers, energies and Rabi frequencies as angular
frequencies in rad/us.  A value quoted as "2 pi x f MHz" enters as
2 * pi * f (see :data:`V0_REFERENCE`), so no 2 pi floats around the core.

Each realization's positions are drawn from a Philox stream keyed by the
SeedSequence of its (master seed, N, grid index, realization index)
position (:func:`realization_seed`).  A block of realizations gets its
(R, 2) keys from :func:`realization_keys`, which hashes the common prefix
once, and :func:`sample_configuration` draws the stacked form from them:
the draws are bit for bit those of each realization's own seed.
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

    ``seed`` is an int, a 1-D tuple or array of ints or a
    ``numpy.random.SeedSequence`` (such as :func:`realization_seed`
    returns), any form ``numpy.random.Philox`` accepts, and gives one (n, 3)
    configuration.  An (R, 2) uint64 array of Philox keys (such as
    :func:`realization_keys` returns) gives an (R, n, 3) stack: one Philox
    generator is re-keyed for each row, counter zero and empty buffer, so
    row r is drawn exactly as ``Philox`` seeded with the SeedSequence whose
    key is row r would draw it alone.  The stream is a Philox counter
    generator, so a given seed reproduces the same configuration on any
    machine.  Zero widths return the ideal chain unchanged, whatever the
    seed, and read no key.
    """
    stacked = isinstance(seed, np.ndarray) and seed.ndim == 2
    if stacked and (seed.dtype != np.uint64 or seed.shape[1] != 2):
        raise ValueError(f"stacked keys must be an (R, 2) uint64 array, not {seed.shape} {seed.dtype}")
    count = len(seed) if stacked else 1
    pos = np.tile(ideal_configuration(n_sites, spacing_r0), (count, 1, 1))
    if not disorder.is_none:  # the widths are >= 0, so some is > 0
        noise = np.empty(pos.shape)
        if stacked:
            bit_generator = np.random.Philox(key=0)
            generator = np.random.Generator(bit_generator)
            state = bit_generator.state  # counter zero, buffer empty
            for row, key in zip(noise, seed):
                state["state"]["key"] = key
                bit_generator.state = state
                generator.standard_normal(out=row)
        else:
            np.random.Generator(np.random.Philox(seed)).standard_normal(out=noise[0])
        pos += noise * np.asarray(disorder.sigma)
    return pos if stacked else pos[0]


def realization_seed(master_seed: int, *path: int) -> np.random.SeedSequence:
    """Stable per-realization seed: master entropy plus an index path."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(path))


# numpy.random.SeedSequence's hash constants, part of numpy's stream-compatibility
# promise (numpy/random/bit_generator.pyx): pool size, hashmix, mix, generate_state
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _uint32_words(value: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: little-endian 32-bit words, [0] for 0."""
    if value < 0:
        raise ValueError(f"seed entropy must be a non-negative integer, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hashmix(value, const: int):
    """SeedSequence's hashmix of the word ``value`` at hash constant ``const``:
    (hashed value, next constant)."""
    value ^= const
    const = const * _MULT_A & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    """SeedSequence's mix of two words (ints, or uint32 arrays, whose products wrap)."""
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ result >> 16


def _constant_pairs(const: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constants before and after each of ``count`` successive rounds,
    as (count, 1) uint32 columns."""
    pairs = []
    for _ in range(count):
        pairs.append((const, const * mult & _MASK32))
        const = pairs[-1][1]
    return np.array(pairs, dtype=np.uint32).T[:, :, None]


def realization_keys(master_seed: int, n_sites: int, grid_index: int, indices) -> np.ndarray:
    """(R, 2) uint64 Philox keys, row r equal to
    ``realization_seed(master_seed, n_sites, grid_index, indices[r]).generate_state(2, np.uint64)``.

    SeedSequence assembles its entropy as the master seed's words,
    zero-padded to its pool of 4 words, then the spawn key's words, and
    hashes them word by word into the pool; the index is the last word.  So
    the pool before it is hashed once here, in Python ints, and only the
    rounds that read the index run over the whole index array, in uint32.
    Each index must lie in [0, 2^32), where it is one word.
    """
    idx = np.asarray(indices)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise ValueError("indices must be a 1-D array of integers")
    if idx.size and not (idx.min() >= 0 and idx.max() <= _MASK32):
        raise ValueError("realization indices must lie in [0, 2^32)")
    run = _uint32_words(int(master_seed))
    run += [0] * (_POOL_SIZE - len(run))
    entropy = run + _uint32_words(int(n_sites)) + _uint32_words(int(grid_index))
    const, pool = _INIT_A, []
    for word in entropy[:_POOL_SIZE]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    # the index word's four rounds, one per pool word, as one (4, R) array
    before, after = _constant_pairs(const, _MULT_A, _POOL_SIZE)
    hashed = (idx.astype(np.uint32) ^ before) * after
    hashed ^= hashed >> 16
    pool = _mix(np.array(pool, dtype=np.uint32)[:, None], hashed)
    # generate_state(2, np.uint64): one more round per word, then the four
    # 32-bit words of each row read as two little-endian uint64
    before, after = _constant_pairs(_INIT_B, _MULT_B, _POOL_SIZE)
    state = (pool ^ before) * after
    state ^= state >> 16
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


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
