"""Two particles with spin on a lattice, plus one detector qubit.

The composite Hilbert space is ordered ``(x1, x2, s1, s2, q)`` with the
first-particle position varying slowest and the qubit fastest.  The flat
basis index is normative for every file format in this package:

    index = q + 2 * (s2 + 2 * (s1 + 2 * (x2 + n * x1)))

The pipeline carries a column state: a :class:`~nosignal.qcore.StateVector`
whose amplitudes are a tuple of one read-only, C-contiguous ``(n, n)`` array
``X[x1, x2]`` per spin column, ``None`` where a column is absent (zero).
Until the detector the qubit is ``|0>`` and the tuple holds the four
``(s1, s2)`` columns, index ``s2 + 2 s1``; then the eight ``(s1, s2, q)``
ones, index ``q + 2 (s2 + 2 s1)``.  ``n`` and the width are read from the
tuple (:func:`_sites`); :func:`to_flat` and :func:`from_flat` convert.

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
from typing import Iterable, Optional, Union

import numpy as np

from .qcore import (
    NORMALIZATION_ATOL,
    BranchEnsemble,
    StateVector,
    freeze,
    squared_norm,
)

# Norm threshold below which a state counts as having no component of the
# requested exchange sector (e.g. antisymmetrizing a Pauli-blocked state).
SYMMETRIZE_NORM_FLOOR = 1e-10


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
    """Lattice size ``n`` of a column state or ensemble, read from the shape of its live columns."""
    cols = (value.branches[0] if isinstance(value, BranchEnsemble) else value).amps
    shape = next(c.shape for c in cols if c is not None) if isinstance(cols, tuple) else ()
    if len(cols) not in (4, 8) or len(shape) != 2 or shape[0] != shape[1] or shape[0] < 2:
        raise ValueError("not a composite column state: 4 or 8 columns of one shape (n, n) with n >= 2")
    return shape[0]


def to_flat(state: StateVector) -> np.ndarray:
    """The amplitudes of a column state on the ``8 n^2`` basis of :func:`basis_index`, as a fresh array.

    Spin-only column ``c`` lands on ``q = 0``; absent columns and a spin-only ``q = 1`` read ``+0.0``.
    """
    n, cols = _sites(state), state.amps
    out = np.zeros((n, n, 8), dtype=np.complex128)
    for c, x in enumerate(cols):
        if x is not None:
            out[:, :, 8 // len(cols) * c] = x
    return out.ravel()


def from_flat(amps) -> StateVector:
    """The column state of flat amplitudes on the ``8 n^2`` basis, or on the spin-only ``4 n^2`` one.

    The spin-only index is the ``8 n^2`` index with ``q = 0``, halved.  A
    column of zeros, ``-0.0`` included, is absent; one subnormal keeps it live.
    """
    amps = np.asarray(amps, dtype=np.complex128).ravel()
    for width in (4, 8):  # 4 a^2 = 8 b^2 has no integer solution, so at most one matches
        n = math.isqrt(amps.size // width)
        if width * n * n == amps.size and n >= 2:
            tensor = amps.reshape(n, n, width)
            return StateVector(tuple(tensor[:, :, c].copy() if tensor[:, :, c].any() else None for c in range(width)))
    raise ValueError(f"dimension {amps.size} is not of the composite form 4*n^2 or 8*n^2 with n >= 2")


def exchange_permutation(n: int) -> np.ndarray:
    """Index permutation realizing particle exchange on the ``8 n^2`` basis (an involution)."""
    return np.arange(8 * n * n).reshape(n, n, 2, 2, 2).transpose(1, 0, 3, 2, 4).ravel()


# Column c of S psi is the transpose of column _SWAP[width][c] of psi: the two spins trade places.
_SWAP = {4: (0, 2, 1, 3), 8: (0, 1, 4, 5, 2, 3, 6, 7)}


def _exchanged(ufunc: np.ufunc, x: Optional[np.ndarray], xt: Optional[np.ndarray]) -> np.ndarray:
    """``ufunc(x, xt^T)`` as a fresh C-contiguous column, an absent one read as ``+0`` (as in the flat sum).

    The transpose is copied once and summed into: a ufunc would buffer a transposed operand.
    """
    if xt is None:
        return ufunc(x, 0)
    y = np.ascontiguousarray(xt.T)
    return ufunc(0 if x is None else x, y, out=y)


def _sector(ufunc: np.ufunc, s: StateVector, blocked: str) -> StateVector:
    """``ufunc(s, S s)``, renormalized; raises ``state has no {blocked}`` if it is (numerically) zero.

    Column ``c`` is ``ufunc(X_c, X_d^T)`` for ``d = _SWAP[c]``, absent where both are.
    """
    cols = s.amps
    out = StateVector(freeze(tuple(None if x is None and cols[d] is None else _exchanged(ufunc, x, cols[d])
                                   for x, d in zip(cols, _SWAP[len(cols)]))))
    if out.norm <= SYMMETRIZE_NORM_FLOOR:
        raise ValueError(f"state has no {blocked}")
    return out.normalized()


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
    """Distance of a nonzero state from the antisymmetric sector, relative to its norm.

    Defined as ``|(I + S) s| / (2 |s|)``: zero for exchange-antisymmetric
    states, one for symmetric ones, and ``1/sqrt(2)`` for a bare product of
    two disjoint packets with equal spins, whatever the norm of ``s``.
    Column ``d = _SWAP[c]`` of ``(I + S) s`` is the transpose of column
    ``c``, so each pair of columns is summed once, twice weighted, over the
    pairs with a live column.
    """
    cols, total = s.amps, 0.0
    for c, d in enumerate(_SWAP[len(cols)]):
        x, xt = cols[c], cols[d]
        if d >= c and (x is not None or xt is not None):
            total += (2 - (c == d)) * squared_norm(xt if x is None else x if xt is None else _exchanged(np.add, x, xt))
    return math.sqrt(total) / (2.0 * s.norm)


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
        Normalized spin-only column state (four columns), of dimension ``4 n^2``.
    """
    statistics, n = Statistics(statistics), packet1.dim
    if packet2.dim != n or n < 2:
        raise ValueError(f"packets need the same number of sites, at least 2; got {n} and {packet2.dim}")
    for name, p in (("packet1", packet1), ("packet2", packet2)):
        if abs(p.norm - 1.0) > NORMALIZATION_ATOL:
            raise ValueError(f"{name} must be normalized, |norm - 1| = {abs(p.norm - 1.0):.3e}")
    overlap = np.abs(packet1.amps) * np.abs(packet2.amps)  # checked before the n x n product is built
    if statistics is not Statistics.DISTINGUISHABLE and np.any(overlap > 0.0):
        raise ValueError(
            f"{statistics.value} statistics requires packets with disjoint supports; "
            f"{int(np.count_nonzero(overlap))} sites carry amplitude from both"
        )
    state = StateVector((freeze(np.outer(packet1.amps, packet2.amps)), None, None, None))
    if statistics is Statistics.DISTINGUISHABLE:
        return state.normalized()
    return antisymmetrize(state) if statistics is Statistics.FERMION else symmetrize(state)


def _nonzero(words: np.ndarray) -> np.ndarray:
    """Rows of a 2-D array of raw float words with a bit set besides the sign bit: -0.0 is zero, a subnormal not."""
    return np.flatnonzero(np.bitwise_or.reduce(words, axis=1) & np.uint64(2**63 - 1))


def _drift(u: np.ndarray, x: np.ndarray) -> Optional[np.ndarray]:
    """A fresh ``u x u^T`` over only the nonzero rows and columns of ``x``, gathered unless full; ``None`` if none."""
    n = len(x)
    words = x.view(np.uint64).reshape(n, 2 * n)
    rows = _nonzero(words)
    if rows.size == 0:
        return None
    rows = rows if rows.size < n else slice(None)  # a full range is used in place
    cols = _nonzero(np.bitwise_or.reduce(words[rows], axis=0).reshape(n, 2))  # scans the nonzero rows only
    cols = cols if cols.size < n else slice(None)
    return (u[:, rows] @ x[rows][:, cols]) @ u[:, cols].T


def evolve_positions(u: np.ndarray, state: StateVector, less: Optional[StateVector] = None) -> StateVector:
    """Apply a one-particle position operator ``u`` (an ``n x n`` array) to both slots at once.

    Computes ``(u (x) u (x) identity)`` column by column instead of
    materializing the ``8 n^2`` dimensional matrix: each live spin (and
    qubit) column ``X`` is contracted as ``u X u^T`` over only its nonzero
    rows and columns.  Skipped entries are exact zeros, so only the order of
    the sums changes; a column with none stays absent.  ``less``, a state of
    the same width, is subtracted in place, its column negated where no image is.
    """
    n = _sites(state)
    if u.shape != (n, n):
        raise ValueError(f"u must act on the {n}-site position basis, got shape {u.shape}")
    cols = [None if x is None else _drift(u, x) for x in state.amps]
    for c, y in enumerate(() if less is None else less.amps):
        if y is not None:
            cols[c] = np.negative(y) if cols[c] is None else np.subtract(cols[c], y, out=cols[c])
    return StateVector(freeze(tuple(cols)))


def position_occupancy(x: Union[StateVector, BranchEnsemble], sites: slice = slice(None)) -> tuple:
    """Per-site occupation of each particle slot on ``sites`` (every site by default), summed over branches.

    Returns ``(occ1, occ2)``; over every site each sums to the squared norm: 1 for an ensemble.  Only the rows and
    columns of ``sites`` are read; a running column sum keeps the full reduction's order, and so its bits.
    """
    n, branches = _sites(x), x.branches if isinstance(x, BranchEnsemble) else (x,)
    occ1, occ2 = np.zeros(n)[sites], np.zeros(n)[sites]
    for state in branches:
        live = [c for c in state.amps if c is not None]
        occ1 += sum(np.abs(c[sites]) ** 2 for c in live).sum(axis=1)
        occ2 += sum(np.abs(c[:, sites]) ** 2 for c in live).cumsum(axis=0)[-1]
    return occ1, occ2


def joint_position_probability(psi: StateVector, sites1: Iterable[int], sites2: Iterable[int]) -> float:
    """Probability that slot 1 sits in ``sites1`` and slot 2 in ``sites2``; a site listed twice counts once."""
    n = _sites(psi)
    idx1, idx2 = (np.asarray(list(dict.fromkeys(sites)), dtype=int) for sites in (sites1, sites2))  # repeats dropped, order kept
    if idx1.size == 0 or idx2.size == 0:
        return 0.0
    if idx1.min() < 0 or idx1.max() >= n or idx2.min() < 0 or idx2.max() >= n:
        raise ValueError("sites out of lattice range")
    block = np.ix_(idx1, idx2)
    return float(sum((np.abs(c[block]) ** 2).sum() for c in psi.amps if c is not None))
