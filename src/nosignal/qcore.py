"""Finite-dimensional states and the Lueders measurement update.

The scenario pipeline passes the typed values defined here between its
stages: :class:`StateVector` and :class:`BranchEnsemble` (a mixture of
unnormalized pure states, each weighted by its squared norm, which stands in
for a density matrix during non-selective measurements).  The kernels inside
a stage (the drift, ``PairBlocks.apply``) build the spin columns of composite
states (see ``composite``), and each state they build is checked once, by
:class:`StateVector`.

Conventions used throughout the package:

* values are immutable after construction and operations return new
  values (``luders_update`` takes a branch list over, empties it, and
  returns new lists, one per outcome);
* operators are read-only square complex arrays; a state's space is fixed
  by its dimension, which each consumer checks;
* a single spin-1/2 is encoded as ``|down> -> index 0``, ``|up> -> index 1``,
  so ``sigma_z |up> = +|up>`` reads ``PAULI_Z = diag(-1, +1)``;
* measurements are non-selective by default (selection happens at the
  protocol level, never silently in here).

The scenario pipeline never builds an operator on the ``8 n^2``-dimensional
composite space: it drifts each spin column and applies position-controlled
fixed maps to the columns (see ``protocol``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# Tolerances shared by every layer of the package.
HERMITICITY_ATOL = 1e-10
RESOLUTION_ATOL = 1e-10
NORMALIZATION_ATOL = 1e-8
WEIGHT_SUM_ATOL = 1e-10
BRANCH_PRUNE_THRESHOLD = 1e-14


def _parts(amps) -> list:
    """The arrays holding ``amps``: a flat array itself, or the live columns of a column state (a tuple)."""
    return [c for c in amps if c is not None] if isinstance(amps, tuple) else [amps]


def freeze(amps):
    """Mark freshly computed amplitudes (an array or a column tuple) read-only and return them.

    :class:`StateVector` shares such arrays instead of copying them.  Freeze
    the array that owns the memory, then take any reshaped view of it.
    """
    for arr in _parts(amps):
        arr.setflags(write=False)
    return amps


def _owned(arr) -> np.ndarray:
    """``arr`` if it is read-only C-contiguous complex128 memory that no writable array reaches, else a frozen copy."""
    base = arr
    if isinstance(arr, np.ndarray) and arr.dtype == np.complex128 and arr.flags.c_contiguous:
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            if base.base is None:
                return arr
            base = base.base
    return freeze(np.array(arr, dtype=np.complex128, order="C"))


def _frozen_matrix(matrix) -> np.ndarray:
    """A read-only complex copy of ``matrix``; a non-finite entry raises."""
    arr = np.array(matrix, dtype=np.complex128)
    if not np.all(np.isfinite(arr)):
        raise ValueError("operator entries must be finite")
    arr.setflags(write=False)
    return arr


def reciprocal(d: float) -> complex:
    """The factor ``r`` for which ``x * r`` has the bits of numpy's ``x / d``; every normalization scales by it.

    numpy divides complex ``x`` by real ``d`` by Smith's method, ``((xr + xi*0) s, (xi - xr*0) s)``
    with ``s = 1/d``; ``x * (s, -0.0)`` is ``(xr s - xi*(-0.0), xr*(-0.0) + xi s)``.  A product
    with a zero is an exact signed zero, and adding a zero to a nonzero number changes nothing, so
    the bits agree, signed zeros included, unless a nonzero part of ``x s`` underflows to zero
    (then the sign of that zero may differ): that needs ``d > 1``, and a norm is near 1.
    """
    return complex(1.0 / d, -0.0)


def squared_norm(amps) -> float:
    """``|amps|^2``: one real ``vdot`` of the float parts of a flat array, or of each live column, summed in order."""
    return sum(float(np.vdot(arr.view(np.float64), arr.view(np.float64))) for arr in _parts(amps))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state: complex amplitudes over a fixed basis.

    ``amps`` is a flat array, or a column state (see ``composite``): a tuple
    of 2-D columns of one shape, ``None`` where a column is absent, one live
    at least.  It is checked once, when built: ``norm`` is
    ``sqrt(squared_norm(amps))``, and a non-finite entry raises.  ``norm``
    cannot go stale: every array is read-only memory no writable array reaches.
    """

    amps: object
    norm: float = field(init=False)

    def __post_init__(self):
        amps = tuple(None if c is None else _owned(c) for c in self.amps) if isinstance(self.amps, tuple) \
            else _owned(self.amps)
        shapes = {arr.shape for arr in _parts(amps)}
        if isinstance(amps, tuple) and (len(shapes) != 1 or len(*shapes) != 2):
            raise ValueError(f"a column state needs live columns of one 2-D shape, got {shapes or 'none'}")
        if not isinstance(amps, tuple) and (amps.ndim != 1 or amps.size == 0):
            raise ValueError(f"state amplitudes must be a nonempty one-dimensional array, got shape {amps.shape}")
        norm = math.sqrt(squared_norm(amps))
        if not math.isfinite(norm) and not all(np.all(np.isfinite(arr)) for arr in _parts(amps)):
            raise ValueError("state amplitudes must be finite")
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "norm", norm)

    @property
    def dim(self) -> int:
        return len(self.amps) * _parts(self.amps)[0].size if isinstance(self.amps, tuple) else self.amps.size

    def normalized(self) -> "StateVector":
        """Return the unit-norm version of this state; error on (near-)zero norm."""
        n = self.norm
        if n <= 1e-300:
            raise ValueError("cannot normalize a zero state")
        amps, r = self.amps, reciprocal(n)
        amps = tuple(None if c is None else c * r for c in amps) if isinstance(amps, tuple) else amps * r
        return StateVector(freeze(amps))


@dataclass(frozen=True, eq=False)
class BranchEnsemble:
    """Mixture of unnormalized pure states on a common basis.

    This is the package's stand-in for a density matrix during non-selective
    measurement updates: Lueders branching keeps every outcome ``P_i psi`` as
    a branch instead of collapsing or summing to a mixed-state matrix.  A
    branch's Born weight is its squared norm, ``state.norm ** 2``, and the
    weights sum to 1 within ``WEIGHT_SUM_ATOL``, with ``outside``: for a branch held on
    a window (``protocol``), its weight off it, the branch ``None`` if wholly off it.
    """

    branches: tuple
    outside: tuple = ()

    def __post_init__(self):
        branches, outside = tuple(self.branches), tuple(self.outside)
        states = [state for state in branches if state is not None or not outside]
        if not branches or len(outside) not in (0, len(branches)):
            raise ValueError("ensemble must hold at least one branch, and no weight outside or one a branch")
        if not all(isinstance(state, StateVector) for state in states):
            raise TypeError("ensemble branches must be StateVector values")
        if len({state.dim for state in states}) > 1:
            raise ValueError("ensemble branches must share one basis")
        total = sum(state.norm ** 2 for state in states) + sum(outside)
        if abs(total - 1.0) > WEIGHT_SUM_ATOL:
            raise ValueError(f"branch weights |psi|^2 must sum to 1, got {total!r}")
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "outside", outside)

    @classmethod
    def pure(cls, state: StateVector) -> "BranchEnsemble":
        return cls((state,))

    @property
    def branch_count(self) -> int:
        return len(self.branches)

    @property
    def dim(self) -> int:
        return self.branches[0].dim


def luders_update(branches: list, outcomes: Sequence[Callable]) -> list:
    """Non-selective Lueders update of a list of unnormalized branches, outcome by outcome.

    Every input branch ``psi`` spawns the branch ``P_i psi`` per outcome
    ``i``, unnormalized: its weight is its squared norm.  One with no live
    column, or with ``|P_i psi|^2 <= BRANCH_PRUNE_THRESHOLD``, is dropped.
    The update takes the list ``branches`` over, emptying it front to back
    and releasing each input branch once its outcomes are built.
    ``outcomes[i](amps)`` returns ``P_i psi`` as a fresh array that it gives
    up; :class:`StateVector` freezes it and takes its norm, the only pass
    besides the map, and a pruned one is released before the next is built.
    The result holds one list per outcome: its surviving branches, in the
    order of the input branches.
    """
    by_outcome = [[] for _ in outcomes]
    while branches:
        state = branches.pop(0)
        for kept, outcome in zip(by_outcome, outcomes):
            arm = outcome(state.amps)
            if _parts(arm):  # a column state with no live column is zero, and no StateVector
                arm = StateVector(freeze(arm))
                if arm.norm ** 2 > BRANCH_PRUNE_THRESHOLD:
                    kept.append(arm)
            del arm
    return by_outcome


# Single spin-1/2 operators in the (down, up) ordering of this package.
PAULI_X = _frozen_matrix([[0, 1], [1, 0]])
PAULI_Y = _frozen_matrix([[0, 1j], [-1j, 0]])
PAULI_Z = _frozen_matrix([[-1, 0], [0, 1]])
