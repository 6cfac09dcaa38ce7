"""Two particles with spin on a lattice, plus one detector qubit.

The composite Hilbert space is ordered ``(x1, x2, s1, s2, q)`` with the
first-particle position varying slowest and the qubit fastest.  The flat
basis index is normative for every file format in this package:

    index = q + 2 * (s2 + 2 * (s1 + 2 * (x2 + n * x1)))

Until the detector the qubit is ``|0>``, so the pipeline carries spin-only
states of dimension ``4 n^2``, whose index is the ``8 n^2`` index with
``q = 0``, halved.  Every function here takes either layout, and reads the
lattice size ``n`` and the layout from the dimension alone (:func:`_sites`).

Particle labels 1 and 2 are bookkeeping slots, not physical identities.
Physical states of indistinguishable particles are the antisymmetric
(fermion) or symmetric (boson) vectors under particle exchange, the index
permutation of :func:`exchange_permutation`; nothing in this module ever
"fixes up" the symmetry of a state behind the caller's back, so symmetry
violations introduced by label-based operations remain visible and
measurable.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import Iterable, Union

import numpy as np

from .qcore import (
    NORMALIZATION_ATOL,
    BranchEnsemble,
    StateVector,
    checked_norm,
    freeze,
    reciprocal,
)

# Norm threshold below which a state counts as having no component of the
# requested exchange sector (e.g. antisymmetrizing a Pauli-blocked state).
SYMMETRIZE_NORM_FLOOR = 1e-10

# Output rows per gather of the particle exchange: its slab index holds
# 4 * PAIR_TILE * n entries, a sixteenth of a state at n = 64.
PAIR_TILE = 16


class Statistics(str, Enum):
    FERMION = "fermion"
    BOSON = "boson"
    DISTINGUISHABLE = "distinguishable"


def _integer_in(name: str, v, hi: int) -> int:
    """``int(v)`` if ``v`` is an integer (not a bool) in ``[0, hi)``, else ``ValueError``."""
    if isinstance(v, (bool, np.bool_)) or int(v) != v or not (0 <= int(v) < hi):
        raise ValueError(f"{name} must be an integer in [0, {hi}), got {v}")
    return int(v)


def basis_index(n: int, x1: int, x2: int, s1: int, s2: int, q: int) -> int:
    """Flat index of the basis state ``|x1 s1; x2 s2; q>`` on ``n`` sites.

    Spins and the qubit use 0/1 encoding (spin down = 0, spin up = 1).
    """
    x1, x2 = _integer_in("x1", x1, n), _integer_in("x2", x2, n)
    s1, s2, q = (_integer_in(name, v, 2) for name, v in (("s1", s1), ("s2", s2), ("q", q)))
    return q + 2 * (s2 + 2 * (s1 + 2 * (x2 + n * x1)))


def decode_basis_index(n: int, index: int) -> tuple:
    """Inverse of :func:`basis_index`: returns ``(x1, x2, s1, s2, q)``."""
    index = _integer_in("index", index, 8 * n * n)
    x12, s1, s2, q = index // 8, (index >> 2) & 1, (index >> 1) & 1, index & 1
    return (x12 // n, x12 % n, s1, s2, q)


def _sites(value) -> int:
    """Lattice size ``n`` of a state or ensemble, read from its dimension ``4 n^2`` (spin-only) or ``8 n^2``."""
    for per_pair in (4, 8):  # 4 a^2 = 8 b^2 has no integer solution, so at most one matches
        n = math.isqrt(value.dim // per_pair)
        if per_pair * n * n == value.dim and n >= 2:
            return n
    raise ValueError(f"dimension {value.dim} is not of the composite form 4*n^2 or 8*n^2 with n >= 2")


def _with_qubit(ens: BranchEnsemble) -> BranchEnsemble:
    """``ens`` on the ``8 n^2`` basis: spin-only entry ``i`` moves to index ``2 i``, the ``q = 1`` half is ``+0.0``."""
    if ens.dim == 8 * _sites(ens) ** 2:
        return ens
    return BranchEnsemble([(w, StateVector(np.stack([s.amps, np.zeros_like(s.amps)], 1).ravel()))
                           for w, s in ens.branches])


def exchange_permutation(n: int) -> np.ndarray:
    """Index permutation realizing particle exchange on the ``8 n^2`` basis (an involution)."""
    return np.arange(8 * n * n).reshape(n, n, 2, 2, 2).transpose(1, 0, 3, 2, 4).ravel()


@lru_cache(maxsize=8)
def _slab_index(n: int) -> np.ndarray:
    """``idx[r, x2, f] = 4 (x2 n + r) + (0, 2, 1, 3)[f]``; writable, or ``take`` copies it."""
    idx = np.full((PAIR_TILE, n, 4), 4, dtype=np.intp)
    idx[0] = np.add.outer(np.arange(0, 4 * n * n, 4 * n), (0, 2, 1, 3))
    return np.cumsum(idx, axis=0, out=idx)  # in place: a broadcast sum would allocate ufunc buffers


def _with_exchanged(ufunc: np.ufunc, s: StateVector) -> np.ndarray:
    """``ufunc(amps, S amps)`` for the amplitudes of ``s`` and the exchange permutation ``S``.

    The result is a fresh flat array that owns its memory.  ``S amps`` is a
    pure copy: read as records, one per ``(s1, s2)`` block of a position
    pair (16 bytes for a spin-only state, 32 bytes, a ``q`` pair, otherwise),
    pair ``(j, i)`` moves to ``(i, j)`` with the two spins
    swapped.  Slab ``i0`` of ``PAIR_TILE`` output rows is one ``np.take``
    from ``records[4 i0:]`` with the one cached slab index; the indices are
    in range, and ``mode="clip"`` lets ``take`` write into the slab
    unbuffered.  Each output entry is the same ``a[k] +- a[S k]``.
    """
    n, amps = _sites(s), s.amps  # C-contiguous, as every StateVector's amplitudes are
    out = np.empty_like(amps)
    record = f"V{amps.nbytes // (4 * n * n)}"
    records, idx, slabs = amps.view(record), _slab_index(n), out.view(record).reshape(n, n, 4)
    for i0 in range(0, n, PAIR_TILE):
        slab = slabs[i0 : i0 + PAIR_TILE]
        np.take(records[4 * i0 :], idx[: len(slab)], mode="clip", out=slab)
    return ufunc(amps, out, out=out)


def _sector(ufunc: np.ufunc, s: StateVector, blocked: str) -> StateVector:
    """``ufunc(s, S s)``, renormalized; raises ``state has no {blocked}`` if it is (numerically) zero."""
    amps = _with_exchanged(ufunc, s)
    norm = checked_norm(amps)
    if norm <= SYMMETRIZE_NORM_FLOOR:
        raise ValueError(f"state has no {blocked}")
    amps *= reciprocal(norm)
    return StateVector(freeze(amps))


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
    return float(np.linalg.norm(_with_exchanged(np.add, s)) / 2.0)


def prepare_initial(statistics: Union[Statistics, str], packet1: StateVector, packet2: StateVector) -> StateVector:
    """Initial spin-only state: both spins down, packets in the slots (the qubit is ``|0>``).

    For ``fermion``/``boson`` statistics the product is antisymmetrized or
    symmetrized; this requires the packets to occupy disjoint sets of sites
    (checked exactly, which compact-support packets satisfy).

    Parameters
    ----------
    statistics : Statistics or str
        ``fermion``, ``boson``, or ``distinguishable``.
    packet1, packet2 : StateVector
        Normalized single-particle position states for slots 1 and 2, on
        the same ``n >= 2`` sites.

    Returns
    -------
    StateVector
        Normalized spin-only composite state, of dimension ``4 n^2``.
    """
    statistics, n = Statistics(statistics), packet1.dim
    if packet2.dim != n or n < 2:
        raise ValueError(f"packets need the same number of sites, at least 2; got {n} and {packet2.dim}")
    for name, p in (("packet1", packet1), ("packet2", packet2)):
        if abs(p.norm - 1.0) > NORMALIZATION_ATOL:
            raise ValueError(f"{name} must be normalized, |norm - 1| = {abs(p.norm - 1.0):.3e}")
    tensor = np.zeros((n, n, 2, 2), dtype=np.complex128)
    tensor[:, :, 0, 0] = np.outer(packet1.amps, packet2.amps)
    state = StateVector(freeze(tensor).ravel())
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


def _nonzero(words: np.ndarray) -> np.ndarray:
    """Rows of a 2-D array of raw float words with a bit set besides the sign bit: -0.0 is zero, a subnormal not."""
    return np.flatnonzero(np.bitwise_or.reduce(words, axis=1) & np.uint64(2**63 - 1))


def _live_columns(tensor: np.ndarray) -> np.ndarray:
    """Indices of the nonzero columns of the last axis of a complex ``(n, n, w)`` tensor.

    ORs the raw 64-bit words over ``x1``, then over ``x2``, then over each
    column's words (:func:`_nonzero`), as in ``tensor.any(axis=(0, 1))``.
    """
    bits = np.bitwise_or.reduce(tensor.view(np.uint64).reshape(tensor.shape[0], -1), axis=0)
    return _nonzero(np.bitwise_or.reduce(bits.reshape(-1, 2 * tensor.shape[2]), axis=0).reshape(-1, 2))


def evolve_positions(u: np.ndarray, state: StateVector) -> StateVector:
    """Apply a one-particle position operator ``u`` (an ``n x n`` array) to both slots at once.

    Computes ``(u (x) u (x) identity)`` on the reshaped amplitude tensor
    instead of materializing the ``8 n^2`` dimensional matrix.  Each spin (and
    qubit) column ``X`` with a nonzero amplitude is gathered contiguous and
    contracted as ``u X u^T`` over only its nonzero rows and columns, gathered
    again unless full.  Skipped entries and dead columns are exact zeros, so
    only the order of the sums changes.  The output is allocated last.
    """
    n = _sites(state)
    if u.shape != (n, n):
        raise ValueError(f"u must act on the {n}-site position basis, got shape {u.shape}")
    tensor, images = state.amps.reshape(n, n, -1), []
    for c in _live_columns(tensor):
        x = np.ascontiguousarray(tensor[:, :, c])
        words = x.view(np.uint64).reshape(n, 2 * n)
        rows, cols = (s if s.size < n else slice(None)  # a full range is used in place
                      for s in (_nonzero(words), _nonzero(np.bitwise_or.reduce(words, axis=0).reshape(n, 2))))
        half = u[:, rows] @ x[rows][:, cols]
        del x, words  # the gathered column goes before the second GEMM, the half before the next column
        images.append((c, half @ u[:, cols].T))
        del half
    out = np.zeros(tensor.shape, dtype=complex)
    for c, image in images:
        out[:, :, c] = image
    return StateVector(freeze(out).ravel())


def position_occupancy(x: Union[StateVector, BranchEnsemble]) -> tuple:
    """Per-site occupation of each particle slot, averaged over branches.

    Returns ``(occ1, occ2)``; each array sums to 1.
    """
    if isinstance(x, StateVector):
        x = BranchEnsemble.pure(x)
    n = _sites(x)
    occ1 = np.zeros(n)
    occ2 = np.zeros(n)
    for w, state in x.branches:
        prob = np.abs(state.amps.reshape(n, n, -1)) ** 2
        occ1 += w * prob.sum(axis=(1, 2))
        occ2 += w * prob.sum(axis=(0, 2))
    return occ1, occ2


def joint_position_probability(psi: StateVector, sites1: Iterable[int], sites2: Iterable[int]) -> float:
    """Probability that slot 1 sits in ``sites1`` and slot 2 in ``sites2``; a site listed twice counts once."""
    n = _sites(psi)
    idx1, idx2 = (np.asarray(list(dict.fromkeys(sites)), dtype=int) for sites in (sites1, sites2))  # repeats dropped, order kept
    if idx1.size == 0 or idx2.size == 0:
        return 0.0
    if idx1.min() < 0 or idx1.max() >= n or idx2.min() < 0 or idx2.max() >= n:
        raise ValueError("sites out of lattice range")
    block = psi.amps.reshape(n, n, -1)[np.ix_(idx1, idx2)]
    return float((np.abs(block) ** 2).sum())
