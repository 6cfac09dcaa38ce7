"""Finite-dimensional states and the Lueders measurement update.

The scenario pipeline passes the typed values defined here between its
stages: :class:`StateVector` and :class:`BranchEnsemble` (a weighted mixture
of pure states, which stands in for a density matrix during non-selective
measurements).  The kernels inside a stage (the drift, ``PairBlocks.apply``)
work on raw ``(n, n, 4)`` or ``(n, n, 8)`` tensors, and each state they
build is checked once, by :class:`StateVector`.

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
composite space: it drifts the amplitude tensor and applies
position-controlled fixed maps to it (see ``protocol``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# Tolerances shared by every layer of the package.
HERMITICITY_ATOL = 1e-10
RESOLUTION_ATOL = 1e-10
NORMALIZATION_ATOL = 1e-8
WEIGHT_SUM_ATOL = 1e-10
BRANCH_PRUNE_THRESHOLD = 1e-14


def freeze(arr: np.ndarray) -> np.ndarray:
    """Mark a freshly computed array read-only and return it.

    :class:`StateVector` shares such an array instead of copying it.  Freeze
    the array that owns the memory, then take any reshaped view of it.
    """
    arr.setflags(write=False)
    return arr


def _is_frozen(amps) -> bool:
    """Whether ``amps`` is read-only complex128 memory that no writable array reaches."""
    if not isinstance(amps, np.ndarray) or amps.dtype != np.complex128:
        return False
    while isinstance(amps, np.ndarray) and not amps.flags.writeable:
        if amps.base is None:
            return True
        amps = amps.base
    return False


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


def checked_norm(arr: np.ndarray) -> float:
    """``np.linalg.norm(arr)``; raises if an entry is not finite (entries are scanned only when the norm is not)."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(arr))
    if not np.isfinite(norm) and not np.all(np.isfinite(arr)):
        raise ValueError("state amplitudes must be finite")
    return norm


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state: complex amplitudes over a fixed basis.

    It is checked once, when built: ``norm`` is ``np.linalg.norm(amps)``, and
    a non-finite entry raises.  ``norm`` cannot go stale, because ``amps`` is
    read-only memory that no writable array reaches.
    """

    amps: np.ndarray
    norm: float = field(init=False)

    def __post_init__(self):
        arr = self.amps if _is_frozen(self.amps) else np.array(self.amps, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError(f"state amplitudes must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("state must have dimension >= 1")
        norm = checked_norm(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)
        object.__setattr__(self, "norm", norm)

    @property
    def dim(self) -> int:
        return self.amps.size

    def normalized(self) -> "StateVector":
        """Return the unit-norm version of this state; error on (near-)zero norm."""
        n = self.norm
        if n <= 1e-300:
            raise ValueError("cannot normalize a zero state")
        return StateVector(freeze(self.amps * reciprocal(n)))


@dataclass(frozen=True, eq=False)
class BranchEnsemble:
    """Weighted mixture of normalized pure states on a common basis.

    This is the package's stand-in for a density matrix during non-selective
    measurement updates: Lueders branching keeps every outcome as a weighted
    branch instead of collapsing or summing to a mixed-state matrix.
    """

    branches: tuple

    def __post_init__(self):
        branches = tuple((float(w), s) for w, s in self.branches)
        if not branches:
            raise ValueError("ensemble must hold at least one branch")
        dim = branches[0][1].dim
        total = 0.0
        for w, state in branches:
            if not isinstance(state, StateVector):
                raise TypeError("ensemble branches must hold StateVector values")
            if not np.isfinite(w) or w < 0.0:
                raise ValueError(f"branch weight must be finite and >= 0, got {w}")
            if state.dim != dim:
                raise ValueError("ensemble branches must share one basis")
            if abs(state.norm - 1.0) > NORMALIZATION_ATOL:
                raise ValueError(f"branch state not normalized: |norm - 1| = {abs(state.norm - 1.0):.3e}")
            total += w
        if abs(total - 1.0) > WEIGHT_SUM_ATOL:
            raise ValueError(f"branch weights must sum to 1, got {total!r}")
        object.__setattr__(self, "branches", branches)

    @classmethod
    def pure(cls, state: StateVector) -> "BranchEnsemble":
        return cls(((1.0, state),))

    @property
    def branch_count(self) -> int:
        return len(self.branches)

    @property
    def dim(self) -> int:
        return self.branches[0][1].dim


def luders_update(branches: list, outcomes: Sequence[Callable]) -> list:
    """Non-selective Lueders update of a list of branches, outcome by outcome.

    Every input branch ``(w, psi)`` spawns one output branch
    ``(w * |P_i psi|^2 / |psi|^2, P_i psi / |P_i psi|)`` per outcome ``i``;
    one whose weight falls at or below ``BRANCH_PRUNE_THRESHOLD`` is dropped.
    The update takes the ``(weight, state)`` list ``branches`` over: it
    empties it front to back, releasing each input branch once its outcomes
    are built.  ``outcomes`` holds one map per outcome, and ``outcomes[i](amps)``
    returns ``P_i psi`` as a fresh array that it gives up: a kept outcome is
    normalized in place and frozen, and a pruned one is released before the
    next is built.  The result is a list of lists, one per outcome: entry
    ``i`` holds the surviving ``(weight, state)`` branches of outcome ``i``,
    in the order of the input branches, and the weights of all entries sum
    to 1.
    """
    by_outcome = [[] for _ in outcomes]
    while branches:
        w, state = branches.pop(0)
        # Outcome probabilities are taken relative to the branch norm so the
        # output weights keep summing to 1 even after ~1e-15 rounding drift.
        base = float(np.vdot(state.amps, state.amps).real)
        for kept, outcome in zip(by_outcome, outcomes):
            arm = outcome(state.amps)
            weight = w * (float(np.vdot(arm, arm).real) / base)
            if weight > BRANCH_PRUNE_THRESHOLD:
                arm *= reciprocal(np.linalg.norm(arm))
                kept.append((weight, StateVector(freeze(arm))))
            del arm
    return by_outcome


# Single spin-1/2 operators in the (down, up) ordering of this package.
PAULI_X = _frozen_matrix([[0, 1], [1, 0]])
PAULI_Y = _frozen_matrix([[0, 1j], [-1j, 0]])
PAULI_Z = _frozen_matrix([[-1, 0], [0, 1]])
