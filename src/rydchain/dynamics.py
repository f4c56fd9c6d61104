"""Pulse kernel: constrained ideal rotations and exact pulsed evolution.

Two kernels write the driven pairs, with the same products and sums: for
each frozen configuration of the other atoms they mix the two driven levels
of the addressed atom by a 2x2 matrix [[u_lo, -u_off], [u_off, u_hi]] of
complex entries, and on a three-level chain multiply the undriven level by
u_idle.  :func:`_rotate_pairs` works on the (pre, d, post) view of the state
(:func:`rydchain.statekit.site_view`, the one home of the basis layout) and
mixes its rows in slices of max(1, COEF_CHUNK // post), writing each slice
back in place; each slice asks for its own entries, so no temporary
outgrows :data:`COEF_CHUNK` blocks.  The ideal gate builds a slice's
entries, cos and sin, from the same slice of its blockade
mask, read off the two neighbor windows; a wide realistic pulse
(:func:`_pulse_on_array`) builds them with :func:`_pulse_coefficients` from
the same slice of the diagonal's site view, and the post-processing gates
pass constants.  Every operation is elementwise, so the result does not
depend on the slicing, bit for bit.  :func:`_mix_gathered` mixes a gathered
realistic pulse's pairs read at precompiled positions.  _pulse_coefficients
works elementwise over blocks, so :func:`rydchain.protocols.gathered_mixes`
computes the entries of all of a plan's gathered pulses, for a group of
realizations, in one pass.  The kernels act on raw amplitude arrays and
run only through :func:`rydchain.protocols.execute`, whose plan has checked
every site, transition and the blockade range when it was built, and whose
schedule compiles the gathered positions from the same layout helpers.

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
sigma_y), where the projectors require every neighbor within the plan's
blockade range to be outside the Rydberg level; chain ends count as empty.
A blocked configuration gets the identity (cos = 1, sin = 0).

The realistic backend evolves exactly under

    H = 2 Omega sigma_y^(site) + sum_{k<m} V_km n_k n_m + sum_k Delta_k n_k

for a time t = theta / (2 Omega) by splitting the Hamiltonian into closed
2x2 blocks: the two driven levels of the addressed atom against each
frozen configuration of the others, whose interaction and detuning energy
(:func:`interaction_diagonal`) enters the block diagonal.  Undriven levels
only accumulate their diagonal phase.  The matrix element 2 Omega together
with t = theta / (2 Omega) is the unique pairing that makes a free pulse a
theta rotation and reproduces the closed-form two-atom amplitudes.

The view kernel acts on an m-site prefix of the chain whenever the sites
past m are all |0> (see :mod:`rydchain.protocols`): it receives m as
``n_sites``, the prefix as a strided view of the whole state
(:func:`rydchain.statekit.ground_tail`), which it writes in place, and the
matching view of the diagonal, and never sees the untouched tail.
The diagonal itself (:func:`interaction_diagonal`) is the quadratic form
n^T M n, M = V/2 + diag(Delta), summed from small tables of the two
half-chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import CapacityError, NumericalError
from .statekit import GROUND, HYPERFINE, RYDBERG, basis_digits, check_integer, site_view

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

    @property
    def idle_level(self) -> int:
        """The level of a three-level atom that this transition leaves undriven."""
        return HYPERFINE if self is Transition.GROUND_RYDBERG else GROUND


@dataclass(frozen=True)
class PulseStep:
    site: int
    transition: Transition
    theta: float

    def __post_init__(self):
        check_integer(self.site, "site")
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
    """Couplings V_km and per-site detunings Delta_k of the diagonal part of H,
    for one chain ((n, n) couplings, (n,) detunings) or for a stack of R
    chains ((R, n, n) and (R, n)), checked once for the whole stack.

    Every coupling is used as given; a shorter interaction range is
    expressed by zeroing couplings before building the spec.  Each V must be
    symmetric (V_km = V_mk to 1e-12 of its own largest coupling): the
    diagonal of H sees only V_km + V_mk, so an asymmetric V would have no
    effect of its own.  Its diagonal must be exactly zero: since n_k^2 = n_k,
    a self-coupling V_kk would act as a detuning V_kk/2, which belongs in
    ``detuning``.
    """

    couplings: np.ndarray
    detuning: np.ndarray = field(default=None)  # defaults to zeros

    def __post_init__(self):
        for name in ("couplings", "detuning"):  # the casts below would drop imaginary parts
            if np.asarray(getattr(self, name)).dtype.kind == "c":
                raise ValueError(f"{name} must be real")
        V = np.asarray(self.couplings, dtype=float)
        if V.ndim not in (2, 3) or V.shape[-2] != V.shape[-1]:
            raise ValueError("couplings must be a square matrix or a stack of them")
        if V.size:
            # each matrix against its own scale: a stack's largest coupling
            # would hide the asymmetry of a much weaker matrix
            asymmetry = np.abs(V - np.swapaxes(V, -1, -2)).max(axis=(-2, -1))
            if not np.all(asymmetry <= 1e-12 * np.abs(V).max(axis=(-2, -1))):  # a NaN fails too
                raise ValueError("couplings must be finite and symmetric")
        if np.diagonal(V, axis1=-2, axis2=-1).any():  # a NaN is nonzero too
            raise ValueError("couplings must have a zero diagonal")
        object.__setattr__(self, "couplings", V)
        det = self.detuning
        det = np.zeros(V.shape[:-1]) if det is None else np.asarray(det, dtype=float)
        if det.shape != V.shape[:-1]:
            raise ValueError("detuning array length must match the chain")
        object.__setattr__(self, "detuning", det)

    @property
    def n_sites(self) -> int:
        return self.couplings.shape[-1]


#: Chains with at least this many amplitudes split for their diagonal; below
#: it one pair table of the whole chain costs less than the split's extra
#: numpy calls (measured crossover between 729 and 1024 amplitudes).
SPLIT_AMPLITUDES = 1024


def interaction_diagonal(hamiltonian: HamiltonianSpec, local_dim: int) -> np.ndarray:
    """Diagonal of H for every basis configuration: pairwise interaction
    energy plus the detunings of the Rydberg-occupied sites.  A (d^n,) array
    for one chain; for a stack of R chains a (d^n, R) array whose column r
    is chain r's diagonal, from one product over the stack.

    Occupations are 0 or 1, so n_k^2 = n_k and the diagonal is the quadratic
    form n^T M n with M = V/2 + diag(Delta).  With the chain split into halves
    A and B (index = x_A d^|B| + x_B),

        e(x_A, x_B) = q_A(x_A) + q_B(x_B) + n_A(x_A) (M + M^T) n_B(x_B),

    where q_H = n_H^T M n_H contracts each half's pair table with M, so no
    (d^N, N) occupation table is built.  A chain below SPLIT_AMPLITUDES keeps
    A empty: e = q_B.
    """
    n = hamiltonian.n_sites
    occ_a, pairs_a, pairs_b, occ_b_t = _half_tables(n, local_dim)
    M = 0.5 * hamiltonian.couplings
    sites = np.arange(n)
    M[..., sites, sites] = hamiltonian.detuning  # the couplings' diagonal is zero
    m = M.reshape(*M.shape[:-2], -1).T  # (n*n[, R])
    q_b = pairs_b @ m
    if len(occ_a) == 1:  # A is empty
        return q_b
    e = occ_a @ (M + np.swapaxes(M, -1, -2)) @ occ_b_t
    if e.ndim == 3:
        e = np.moveaxis(e, 0, -1)  # (A, B, R), so the reshape below copies unless R = 1
    e += (pairs_a @ m)[:, None]
    e += q_b
    return e.reshape(-1, *e.shape[2:])


@lru_cache(maxsize=1)
def _half_tables(n_sites: int, local_dim: int):
    """Read-only tables over the configurations of the halves A (sites
    1..n//2, or no site below SPLIT_AMPLITUDES) and B (the rest), one column per
    site of the whole chain and zero outside the half: the Rydberg occupations
    n_k and the pair products n_j n_k flattened over (j, k).  Returns
    (occ_A, pairs_A, pairs_B, occ_B^T).

    Only the last chain length's tables are kept: a sweep runs its cells one
    length at a time, and at N = 18 they hold 2.7 MiB that no later length
    reads.  A rebuild takes about 2 ms at 2^18 amplitudes and under 0.1 ms
    up to 2^8, once per cell at most."""
    half = n_sites // 2 if local_dim**n_sites >= SPLIT_AMPLITUDES else 0
    tables = []
    for lo, hi in ((0, half), (half, n_sites)):
        occ = np.zeros((local_dim ** (hi - lo), n_sites))
        occ[:, lo:hi] = basis_digits(hi - lo, local_dim) == RYDBERG
        tables.append((occ, (occ[:, :, None] * occ[:, None, :]).reshape(len(occ), -1)))
    (occ_a, pairs_a), (occ_b, pairs_b) = tables
    out = (occ_a, pairs_a, pairs_b, np.ascontiguousarray(occ_b.T))
    for table in out:
        table.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# the per-site kernel on the (pre, level, post) view of statekit.site_view

#: Most blocks one kernel step holds: the view kernel mixes a site view
#: max(1, COEF_CHUNK // post) rows at a time, and a pulse that drives at most
#: this many blocks is gathered (:mod:`rydchain.protocols`).  A constant, so
#: no result depends on the host.
COEF_CHUNK = 4096


def _rotate_pairs(amp, n_sites, local_dim, step: PulseStep, entries):
    """In ``amp``, for every frozen configuration of the other atoms, mix the
    pair that ``step`` drives by [[u_lo, -u_off], [u_off, u_hi]]; a
    three-level chain multiplies its undriven level by u_idle.

    The (pre, d, post) view of ``amp`` is mixed in place,
    max(1, COEF_CHUNK // post) rows at a time: ``entries(rows)`` gives
    (u_lo, u_off, u_hi[, u_idle]) for the view's rows ``rows``, each a scalar
    or a (rows, post) array, so no temporary outgrows COEF_CHUNK blocks (or
    one row, where a row is longer; or one block more, where a lone last
    row joins its slice).  Every operation is elementwise, so the result
    does not depend on the slicing, bit for bit.
    """
    view = site_view(amp, n_sites, local_dim, step.site)
    pre, _, post = view.shape
    # numpy takes its reduction loop for an in-place complex product on one
    # element, and rounds it differently (_pulse_coefficients' u *= phase):
    # no slice holds a lone element unless the whole view does
    size = max(1, COEF_CHUNK // post, 2 // post)
    stops = [*range(size, pre, size), pre]
    if post == 1 and len(stops) > 1 and stops[-1] - stops[-2] == 1:
        del stops[-2]  # the lone last row joins the slice before it
    for start, stop in zip([0, *stops], stops):
        rows = slice(start, stop)
        _mix_block(view[rows], step.transition, *entries(rows))


def _mix_block(block, transition: Transition, u_lo, u_off, u_hi, u_idle=None):
    """In ``block`` (rows, d, post), the pairs ``transition`` drives mixed
    by [[u_lo, -u_off], [u_off, u_hi]] and, on three levels, the undriven
    level multiplied by ``u_idle``."""
    lo, hi = transition.levels
    a_lo, a_hi = block[:, lo], block[:, hi]
    # every result goes to a new array first: numpy's complex product can
    # round differently when its output overlaps an input
    block[:, lo], block[:, hi] = u_lo * a_lo - u_off * a_hi, u_off * a_lo + u_hi * a_hi
    if block.shape[1] == 3:
        idle = transition.idle_level
        block[:, idle] = block[:, idle] * u_idle


def _free_of_blockade(n_sites, local_dim, site, radius):
    """Mask over the other atoms' configurations, True where no neighbor
    within ``radius`` of ``site`` is Rydberg, as a function of the site
    view's rows: ``free(rows)`` is their (rows, post) slice, or True when
    no neighbor lies that close.  Built from the two neighbor windows alone,
    never from a whole-chain table."""
    left, right = min(radius, site - 1), min(radius, n_sites - site)
    if left + right == 0:
        return lambda rows: True
    # site 1 is the most significant digit: the left window is the last
    # digits of a row, so its mask repeats along the rows with period
    # d^left, and the right window is the first digits of a column
    before = _none_rydberg(left, local_dim)
    after = np.repeat(_none_rydberg(right, local_dim), local_dim ** (n_sites - site - right))
    return lambda rows: before[np.arange(rows.start, rows.stop) % len(before), None] & after


def _none_rydberg(n_sites, local_dim):
    """Per configuration of ``n_sites`` atoms, True where none is Rydberg."""
    return ~(basis_digits(n_sites, local_dim) == RYDBERG).any(axis=1)


def _ideal_coefficients(step: PulseStep, free=True):
    """Entries (u_lo, u_off, u_hi, u_idle) of the theta rotation, as
    :func:`_rotate_pairs` takes them, where ``free`` holds; a blocked
    configuration gets the identity."""
    c = np.where(free, np.cos(step.theta), 1.0)
    s = np.where(free, np.sin(step.theta), 0.0)
    return c, s, c, 1


def _ideal_on_array(amp, n_sites, local_dim, step: PulseStep, radius: int):
    """The theta rotation, in ``amp``; a blocked configuration skips it."""
    free = _free_of_blockade(n_sites, local_dim, step.site, radius)
    _rotate_pairs(amp, n_sites, local_dim, step,
                  lambda rows: _ideal_coefficients(step, free(rows)))


def _mix_gathered(amp, positions, mix):
    """In ``amp``, mix each block's driven pair, read at ``positions`` (rows
    lo, hi and, on three levels, the undriven level; one column per block),
    by the block's 2x2 ``mix[:, :2]`` = [[u_lo, -u_off], [u_off, u_hi]]; on
    three levels ``mix[0, 2]`` is the undriven level's factor u_idle.  One
    take, one mixing expression and one put: the products and sums of
    :func:`_rotate_pairs`, operand for operand, so the results agree bit for bit."""
    a = amp.take(positions)
    amp.put(positions[:2], mix[:, 0] * a[0] + mix[:, 1] * a[1])
    if len(a) == 3:
        amp.put(positions[2], a[2] * mix[0, 2])


def _pulse_coefficients(d_lo, d_hi, d_idle, t, drive):
    """Entries (u_lo, u_off, u_hi[, u_idle]) of each closed 2x2 block's
    evolution for a time t under the drive 2 Omega sign(theta) (``drive``),
    as :func:`_rotate_pairs` takes them.

    d_lo and d_hi are the block's diagonal energies, d_idle those of the
    undriven level (None on a two-level chain); with avg and w their mean and
    half difference and b = hypot(drive, w), the block evolves by

        exp(-i avg t) [[c + i w s, -drive s], [drive s, c - i w s]],
        c = cos(b t), s = sin(b t) / b,

    and the undriven level by exp(-i d_idle t).  Elementwise over the blocks,
    so t and drive are scalars for one pulse or arrays over many pulses' blocks;
    the entries are built in place, three complex arrays in all.
    """
    w = np.subtract(d_hi, d_lo)
    w *= 0.5
    b = np.hypot(drive, w)
    bt = np.multiply(b, t)
    c = np.cos(bt)
    s = np.sin(bt, out=bt)
    s /= b
    arg = np.add(d_lo, d_hi, out=b)
    arg *= 0.5
    arg *= t
    phase = np.multiply(arg, -1j)
    np.exp(phase, out=phase)
    w *= s  # w s
    u_lo = np.multiply(w, 1j)
    u_hi = np.subtract(c, u_lo)
    u_lo += c
    u_lo *= phase
    u_hi *= phase
    s *= drive  # drive s
    u_off = np.multiply(phase, s, out=phase)
    if d_idle is None:
        return u_lo, u_off, u_hi
    u_idle = np.multiply(np.multiply(d_idle, t), -1j)
    return u_lo, u_off, u_hi, np.exp(u_idle, out=u_idle)


def _pulse_on_array(amp, n_sites, local_dim, step: PulseStep, e_tot, omega):
    """Exact evolution of each closed 2x2 block for t = |theta| / (2 omega),
    in ``amp``: the one-pulse case of :func:`_pulse_coefficients`, computed
    slice by slice of :func:`_rotate_pairs` from the same rows of the
    diagonal's site view."""
    lo, hi = step.transition.levels
    t = abs(step.theta) / (2.0 * omega)
    drive = 2.0 * omega * np.sign(step.theta) if step.theta else 2.0 * omega
    e_view = site_view(e_tot, n_sites, local_dim, step.site)
    idle = step.transition.idle_level if local_dim == 3 else None

    def entries(rows):
        e = e_view[rows]
        d_idle = None if idle is None else e[:, idle]
        return _pulse_coefficients(e[:, lo], e[:, hi], d_idle, t, drive)

    _rotate_pairs(amp, n_sites, local_dim, step, entries)


# ---------------------------------------------------------------------------
# dense Hamiltonians: the tests' reference, not on any path of the package.
# The solvable-point check finds its ground state matrix-free
# (rydchain.analytics).  These builders move to tests/oracles.py once the
# benchmark's tracer no longer names them as its dynamics.dense_s layer
# (perfbench/spans.LAYERS).

MAX_DENSE_DIM = 4096

#: Rows per block of the hermiticity check in ground_state_dense: it then
#: holds block x dim temporaries instead of several dim x dim ones.
HERMITICITY_BLOCK_ROWS = 64


def build_full_hamiltonian(hamiltonian: HamiltonianSpec, omega_per_site) -> np.ndarray:
    """Dense two-level Hamiltonian: drives 2*omega_k sigma_y plus diagonal terms,
    the tests' reference for the matrix-free paths.

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
    """Lowest eigenpair (energy, normalized eigenvector) of a Hermitian matrix,
    by dense eigh: the tests' reference for the solvable-point check."""
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("H must be square")
    dim = H.shape[0]
    if dim > MAX_DENSE_DIM:
        raise CapacityError(f"dense diagonalization limited to dimension {MAX_DENSE_DIM}")
    scale, err = 1.0, 0.0
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN, which fails below
        for i in range(0, dim, HERMITICITY_BLOCK_ROWS):
            rows = H[i : i + HERMITICITY_BLOCK_ROWS]
            cols = H[:, i : i + HERMITICITY_BLOCK_ROWS]
            # np.maximum keeps a NaN where max() would drop it
            scale = np.maximum(scale, np.abs(rows).max())
            err = np.maximum(err, np.abs(rows - cols.conj().T).max())
    if not err <= 1e-10 * scale:  # a NaN fails too
        raise ValueError("H is not Hermitian or not finite")
    evals, evecs = np.linalg.eigh(H)
    energy = float(evals[0])
    vec = evecs[:, 0]
    residual = np.linalg.norm(H @ vec - energy * vec)
    if residual > 1e-8 * scale:
        raise NumericalError(f"eigenpair residual {residual:.2e}")
    return energy, vec
