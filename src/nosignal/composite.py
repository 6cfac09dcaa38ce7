"""Two particles with spin on a lattice, plus one detector qubit.

The composite Hilbert space is ordered ``(x1, x2, s1, s2, q)`` with the
first-particle position varying slowest and the qubit fastest.  The flat
basis index is normative for every file format in this package:

    index = q + 2 * (s2 + 2 * (s1 + 2 * (x2 + n * x1)))

Particle labels 1 and 2 are bookkeeping slots, not physical identities.
Physical states of indistinguishable particles are the antisymmetric
(fermion) or symmetric (boson) vectors under particle exchange, the index
permutation of :func:`exchange_permutation`; nothing in this module ever
"fixes up" the symmetry of a state behind the caller's back, so symmetry
violations introduced by label-based operations remain visible and
measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Union

import numpy as np

from .qcore import (
    NORMALIZATION_ATOL,
    BranchEnsemble,
    LinearOperator,
    StateVector,
    freeze,
)

# Norm threshold below which a state counts as having no component of the
# requested exchange sector (e.g. antisymmetrizing a Pauli-blocked state).
SYMMETRIZE_NORM_FLOOR = 1e-10

# Side of the square tiles of position pairs in which the x1 <-> x2 transpose
# is done, so that both the read and the write side of a tile stay in cache.
PAIR_TILE = 32

# Column (s1, s2, q) -> column (s2, s1, q) of the (n, n, 8) amplitude tensor.
_SPIN_SWAP = np.array([0, 1, 4, 5, 2, 3, 6, 7])


def site_basis_tag(n_sites: int) -> str:
    """Tag of the single-particle position basis on an ``n_sites`` lattice."""
    return f"site[n={n_sites}]"


class Statistics(str, Enum):
    FERMION = "fermion"
    BOSON = "boson"
    DISTINGUISHABLE = "distinguishable"


@dataclass(frozen=True)
class CompositeSpace:
    """Index bookkeeping for the ``8 * n_sites**2`` dimensional space."""

    n_sites: int

    def __post_init__(self):
        if int(self.n_sites) != self.n_sites or self.n_sites < 2:
            raise ValueError(f"composite space needs at least 2 sites, got {self.n_sites}")
        object.__setattr__(self, "n_sites", int(self.n_sites))

    @property
    def dim(self) -> int:
        return 8 * self.n_sites * self.n_sites

    @property
    def basis_tag(self) -> str:
        return f"x1x2s1s2q[n={self.n_sites}]"

    @property
    def axis_dims(self) -> tuple:
        n = self.n_sites
        return (n, n, 2, 2, 2)


def basis_index(space: CompositeSpace, x1: int, x2: int, s1: int, s2: int, q: int) -> int:
    """Flat index of the basis state ``|x1 s1; x2 s2; q>``.

    Spins and the qubit use 0/1 encoding (spin down = 0, spin up = 1).
    """
    n = space.n_sites
    for name, v, hi in (("x1", x1, n), ("x2", x2, n), ("s1", s1, 2), ("s2", s2, 2), ("q", q, 2)):
        if int(v) != v or not (0 <= int(v) < hi):
            raise ValueError(f"{name} must be an integer in [0, {hi}), got {v}")
    return int(q) + 2 * (int(s2) + 2 * (int(s1) + 2 * (int(x2) + n * int(x1))))


def decode_basis_index(space: CompositeSpace, index: int) -> tuple:
    """Inverse of :func:`basis_index`: returns ``(x1, x2, s1, s2, q)``."""
    index = int(index)
    if not (0 <= index < space.dim):
        raise ValueError(f"index must be in [0, {space.dim}), got {index}")
    q = index % 2
    index //= 2
    s2 = index % 2
    index //= 2
    s1 = index % 2
    index //= 2
    x2 = index % space.n_sites
    x1 = index // space.n_sites
    return (x1, x2, s1, s2, q)


def _space_of(value: StateVector) -> CompositeSpace:
    """Recover the composite space a value lives on, validating its tag."""
    dim = value.dim
    n = int(round(np.sqrt(dim / 8.0)))
    if 8 * n * n != dim:
        raise ValueError(f"dimension {dim} is not of the composite form 8*n^2")
    space = CompositeSpace(n)
    if value.basis_tag != space.basis_tag:
        raise ValueError(f"value tagged {value.basis_tag!r} is not on the composite basis {space.basis_tag!r}")
    return space


def exchange_permutation(space: CompositeSpace) -> np.ndarray:
    """Index permutation realizing particle exchange (an involution)."""
    perm = (
        np.arange(space.dim)
        .reshape(space.axis_dims)
        .transpose(1, 0, 3, 2, 4)
        .ravel()
    )
    return perm


def _pair_tiles(n: int):
    """Pairs of slices covering the ``n x n`` position pairs in square tiles."""
    starts = range(0, n, PAIR_TILE)
    return [(slice(i, i + PAIR_TILE), slice(j, j + PAIR_TILE)) for i in starts for j in starts]


def _with_exchanged(ufunc: np.ufunc, space: CompositeSpace, amps: np.ndarray) -> np.ndarray:
    """``ufunc(amps, S amps)`` for the exchange permutation ``S``, as a fresh flat array.

    Tile ``(i, j)`` of the output reads tile ``(j, i)`` of the input with the
    two spins swapped; each output entry is the same ``a[k] +- a[S k]``.
    """
    n = space.n_sites
    a = amps.reshape(n, n, 8)
    out = np.empty((n, n, 8), dtype=np.complex128)
    for ti, tj in _pair_tiles(n):
        ufunc(a[ti, tj], a[tj, ti][:, :, _SPIN_SWAP].transpose(1, 0, 2), out=out[ti, tj])
    return out.reshape(-1)


def _sector(ufunc: np.ufunc, s: StateVector, blocked: str) -> StateVector:
    """``ufunc(s, S s)``, renormalized; raises ``state has no {blocked}`` if it is (numerically) zero."""
    state = StateVector(freeze(_with_exchanged(ufunc, _space_of(s), s.amps)), s.basis_tag)
    if state.norm <= SYMMETRIZE_NORM_FLOOR:
        raise ValueError(f"state has no {blocked}")
    return state.normalized()


def antisymmetrize(s: StateVector) -> StateVector:
    """Project onto the exchange-antisymmetric sector and renormalize.

    Raises if the antisymmetric component is (numerically) zero, which is
    the Pauli-blocked case of identical position and spin content.
    """
    return _sector(np.subtract, s, "antisymmetric component (Pauli blocked)")


def symmetrize(s: StateVector) -> StateVector:
    """Project onto the exchange-symmetric sector and renormalize."""
    return _sector(np.add, s, "symmetric component")


def antisymmetry_violation(s: StateVector) -> float:
    """Distance of a normalized state from the antisymmetric sector.

    Defined as ``|(I + S) s| / 2``: zero for exchange-antisymmetric states,
    one for symmetric ones, and ``1/sqrt(2)`` for a bare product of two
    disjoint packets with equal spins.
    """
    space = _space_of(s)
    return float(np.linalg.norm(_with_exchanged(np.add, space, s.amps)) / 2.0)


def prepare_initial(
    space: CompositeSpace,
    statistics: Union[Statistics, str],
    packet1: StateVector,
    packet2: StateVector,
) -> StateVector:
    """Initial state: both spins down, qubit ``|0>``, packets in the slots.

    For ``fermion``/``boson`` statistics the product is antisymmetrized or
    symmetrized; this requires the packets to occupy disjoint sets of sites
    (checked exactly, which compact-support packets satisfy).

    Parameters
    ----------
    space : CompositeSpace
    statistics : Statistics or str
        ``fermion``, ``boson``, or ``distinguishable``.
    packet1, packet2 : StateVector
        Normalized single-particle position states for slots 1 and 2.

    Returns
    -------
    StateVector
        Normalized composite state.
    """
    statistics = Statistics(statistics)
    tag = site_basis_tag(space.n_sites)
    for name, p in (("packet1", packet1), ("packet2", packet2)):
        if p.basis_tag != tag:
            raise ValueError(f"{name} tagged {p.basis_tag!r}, expected {tag!r}")
        if p.dim != space.n_sites:
            raise ValueError(f"{name} has dimension {p.dim}, expected {space.n_sites}")
        if abs(p.norm - 1.0) > NORMALIZATION_ATOL:
            raise ValueError(f"{name} must be normalized, |norm - 1| = {abs(p.norm - 1.0):.3e}")
    tensor = np.zeros(space.axis_dims, dtype=np.complex128)
    tensor[:, :, 0, 0, 0] = np.outer(packet1.amps, packet2.amps)
    state = StateVector(freeze(tensor).ravel(), space.basis_tag)
    if statistics is Statistics.DISTINGUISHABLE:
        return state.normalized()
    overlap = np.abs(packet1.amps) * np.abs(packet2.amps)
    if np.any(overlap > 0.0):
        raise ValueError(
            f"{statistics.value} statistics requires packets with disjoint supports; "
            f"{int(np.count_nonzero(overlap))} sites carry amplitude from both"
        )
    if statistics is Statistics.FERMION:
        return antisymmetrize(state)
    return symmetrize(state)


def _live_columns(tensor: np.ndarray) -> np.ndarray:
    """Indices of the nonzero columns of the last axis of a complex ``(n, n, 8)`` tensor.

    ORs the raw 64-bit words over ``x1`` and then over ``x2``, and masks off
    the sign bit: ``-0.0`` counts as zero and a subnormal as nonzero, as in
    ``tensor.any(axis=(0, 1))``.
    """
    bits = np.bitwise_or.reduce(tensor.view(np.uint64).reshape(tensor.shape[0], -1), axis=0)
    bits = np.bitwise_or.reduce(bits.reshape(-1, 16), axis=0) & np.uint64(2**63 - 1)
    return np.flatnonzero(bits.reshape(8, 2).any(axis=1))


def evolve_positions(space: CompositeSpace, u_single: LinearOperator, state: StateVector) -> StateVector:
    """Apply a one-particle position operator to both slots at once.

    Computes ``(u (x) u (x) identity)`` on the reshaped amplitude tensor
    instead of materializing the ``8 n^2`` dimensional matrix, which is what
    makes lattices near ``n = 100`` cheap to evolve.  Only the ``(s1, s2, q)``
    columns with a nonzero amplitude are contracted; the others map to
    exact zeros, so skipping them changes no amplitude.
    """
    n = space.n_sites
    if u_single.dim != n or u_single.basis_tag != site_basis_tag(n):
        raise ValueError(f"u_single must act on the {n}-site position basis")
    if state.basis_tag != space.basis_tag:
        raise ValueError(f"state tagged {state.basis_tag!r} is not on {space.basis_tag!r}")
    u = u_single.to_dense()
    tensor = state.amps.reshape(n, n, 8)
    live = _live_columns(tensor)
    half = np.tensordot(u, tensor[:, :, live], axes=([1], [0]))  # (x1', x2, k)
    full = np.tensordot(u, half, axes=([1], [1]))                # (x2', x1', k)
    out = np.zeros((n, n, 8), dtype=complex)
    for ti, tj in _pair_tiles(n):
        out[ti, tj, live] = full[tj, ti].transpose(1, 0, 2)
    return StateVector(freeze(out).ravel(), space.basis_tag)


def position_occupancy(space: CompositeSpace, x: Union[StateVector, BranchEnsemble]) -> tuple:
    """Per-site occupation of each particle slot, averaged over branches.

    Returns ``(occ1, occ2)``; each array sums to 1.
    """
    if isinstance(x, StateVector):
        x = BranchEnsemble.pure(x)
    if x.basis_tag != space.basis_tag:
        raise ValueError(f"state tagged {x.basis_tag!r} is not on {space.basis_tag!r}")
    n = space.n_sites
    occ1 = np.zeros(n)
    occ2 = np.zeros(n)
    for w, state in x.branches:
        prob = np.abs(state.amps.reshape(n, n, 8)) ** 2
        occ1 += w * prob.sum(axis=(1, 2))
        occ2 += w * prob.sum(axis=(0, 2))
    return occ1, occ2


def joint_position_probability(
    space: CompositeSpace,
    psi: StateVector,
    sites1: Iterable[int],
    sites2: Iterable[int],
) -> float:
    """Probability that slot 1 sits in ``sites1`` and slot 2 in ``sites2``."""
    if psi.basis_tag != space.basis_tag:
        raise ValueError(f"state tagged {psi.basis_tag!r} is not on {space.basis_tag!r}")
    n = space.n_sites
    idx1 = np.asarray(list(sites1), dtype=int)
    idx2 = np.asarray(list(sites2), dtype=int)
    if idx1.size == 0 or idx2.size == 0:
        return 0.0
    if idx1.min() < 0 or idx1.max() >= n or idx2.min() < 0 or idx2.max() >= n:
        raise ValueError("sites out of lattice range")
    block = psi.amps.reshape(n, n, 8)[np.ix_(idx1, idx2)]
    return float((np.abs(block) ** 2).sum())
