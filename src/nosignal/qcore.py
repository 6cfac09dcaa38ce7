"""Finite-dimensional states, operators, and measurement updates.

The scenario pipeline passes the typed values defined here between its
stages: :class:`StateVector`, :class:`LinearOperator` and
:class:`BranchEnsemble` (a weighted mixture of pure states, which stands in
for a density matrix during non-selective measurements).  The kernels inside
a stage (the drift, ``PairBlocks.apply``) work on raw ``(n, n, 8)`` tensors,
and each state they build is checked once, by :class:`StateVector`.

Conventions used throughout the package:

* values are immutable after construction and operations return new
  values (``luders_update`` takes a branch list over, empties it, and
  returns new lists, one per outcome);
* a single spin-1/2 is encoded as ``|down> -> index 0``, ``|up> -> index 1``,
  so ``sigma_z |up> = +|up>`` reads ``PAULI_Z = diag(-1, +1)``;
* ``apply`` does not normalize;
* measurements are non-selective by default (selection happens at the
  protocol level, never silently in here).

Operators are dense matrices.  The scenario pipeline never builds one on
the ``8 n^2``-dimensional composite space: it drifts the amplitude tensor
and applies position-controlled 8x8 maps to it (see ``protocol``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

# Tolerances shared by every layer of the package.
HERMITICITY_ATOL = 1e-10
RESOLUTION_ATOL = 1e-10
NORMALIZATION_ATOL = 1e-8
IMAG_RESIDUE_ATOL = 1e-10
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

    ``basis_tag`` is an opaque label naming the basis convention; operations
    refuse to mix values whose tags differ.

    It is checked once, when built: ``norm`` is ``np.linalg.norm(amps)``, and
    a non-finite entry raises.  ``norm`` cannot go stale, because ``amps`` is
    read-only memory that no writable array reaches.
    """

    amps: np.ndarray
    basis_tag: str
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
        return StateVector(freeze(self.amps * reciprocal(n)), self.basis_tag)


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """Square dense operator over a tagged basis."""

    matrix: np.ndarray
    basis_tag: str

    def __post_init__(self):
        mat = _frozen_matrix(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator must be square, got shape {mat.shape}")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def to_dense(self) -> np.ndarray:
        return np.array(self.matrix)

    def dagger(self) -> "LinearOperator":
        return LinearOperator(self.matrix.conj().T, self.basis_tag)

    # -- small operator algebra; binary ops require matching tags ----------

    def _check_compatible(self, other: "LinearOperator"):
        if not isinstance(other, LinearOperator):
            raise TypeError(f"expected LinearOperator, got {type(other).__name__}")
        if other.basis_tag != self.basis_tag:
            raise ValueError(f"basis mismatch: {self.basis_tag!r} vs {other.basis_tag!r}")
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        self._check_compatible(other)
        return LinearOperator(self.matrix @ other.matrix, self.basis_tag)

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        self._check_compatible(other)
        return LinearOperator(self.matrix + other.matrix, self.basis_tag)

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        self._check_compatible(other)
        return LinearOperator(self.matrix - other.matrix, self.basis_tag)

    # -- defect norms used by validation checks ----------------------------

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.matrix))

    def hermiticity_defect(self) -> float:
        return (self - self.dagger()).frobenius_norm()

    def unitarity_defect(self) -> float:
        return (self.dagger() @ self - identity(self.dim, self.basis_tag)).frobenius_norm()

    def projector_defect(self) -> float:
        idem = (self @ self - self).frobenius_norm()
        return max(idem, self.hermiticity_defect())


def identity(dim: int, basis_tag: str) -> LinearOperator:
    """Identity operator on ``dim`` basis states."""
    return LinearOperator(np.eye(dim, dtype=np.complex128), basis_tag)


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
        tag = branches[0][1].basis_tag
        dim = branches[0][1].dim
        total = 0.0
        for w, state in branches:
            if not isinstance(state, StateVector):
                raise TypeError("ensemble branches must hold StateVector values")
            if not np.isfinite(w) or w < 0.0:
                raise ValueError(f"branch weight must be finite and >= 0, got {w}")
            if state.basis_tag != tag or state.dim != dim:
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
    def basis_tag(self) -> str:
        return self.branches[0][1].basis_tag

    @property
    def dim(self) -> int:
        return self.branches[0][1].dim


StateLike = Union[StateVector, BranchEnsemble]


def tensor_product(a, b):
    """Kronecker product of two states or two operators.

    The left factor varies slowest in the combined index, i.e. the joint
    basis index is ``i_a * dim_b + i_b``.  Mixing a state with an operator
    is a kind mismatch and raises ``TypeError``.

    Parameters
    ----------
    a, b : StateVector or LinearOperator
        Factors of matching kind.

    Returns
    -------
    StateVector or LinearOperator
        Product on the combined basis, tagged ``f"{a.basis_tag}*{b.basis_tag}"``.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amps, b.amps), f"{a.basis_tag}*{b.basis_tag}")
    if isinstance(a, LinearOperator) and isinstance(b, LinearOperator):
        return LinearOperator(np.kron(a.matrix, b.matrix), f"{a.basis_tag}*{b.basis_tag}")
    raise TypeError(
        f"tensor_product needs two states or two operators, got {type(a).__name__} and {type(b).__name__}"
    )


def apply(op: LinearOperator, x: StateVector) -> StateVector:
    """Apply ``op`` to ``x``.  The result is NOT normalized.

    Measurement weights are read off from the squared norm of results like
    ``apply(projector, x)``, which is why no silent renormalization happens.
    """
    if not isinstance(op, LinearOperator) or not isinstance(x, StateVector):
        raise TypeError("apply expects (LinearOperator, StateVector)")
    if op.basis_tag != x.basis_tag:
        raise ValueError(f"basis mismatch: operator {op.basis_tag!r} vs state {x.basis_tag!r}")
    if op.dim != x.dim:
        raise ValueError(f"dimension mismatch: operator {op.dim} vs state {x.dim}")
    return StateVector(op.matrix @ x.amps, x.basis_tag)


def _check_observable(obs: LinearOperator, dim: int, tag: str):
    if obs.basis_tag != tag:
        raise ValueError(f"basis mismatch: observable {obs.basis_tag!r} vs state {tag!r}")
    if obs.dim != dim:
        raise ValueError(f"dimension mismatch: observable {obs.dim} vs state {dim}")
    defect = obs.hermiticity_defect()
    if defect > HERMITICITY_ATOL:
        raise ValueError(f"observable is not Hermitian: defect {defect:.3e}")


def expectation(obs: LinearOperator, x: StateLike) -> float:
    """Expectation value of a Hermitian observable.

    Parameters
    ----------
    obs : LinearOperator
        Hermitian to within ``HERMITICITY_ATOL`` (checked).
    x : StateVector or BranchEnsemble
        Normalized state, or ensemble (weighted average over branches).

    Returns
    -------
    float
        Real expectation value; the imaginary residue (bounded by the
        hermiticity tolerance) is checked and discarded.
    """
    if isinstance(x, StateVector):
        if abs(x.norm - 1.0) > NORMALIZATION_ATOL:
            raise ValueError(f"expectation needs a normalized state, |norm - 1| = {abs(x.norm - 1.0):.3e}")
        x = BranchEnsemble.pure(x)
    if not isinstance(x, BranchEnsemble):
        raise TypeError(f"expectation expects a StateVector or BranchEnsemble, got {type(x).__name__}")
    _check_observable(obs, x.dim, x.basis_tag)
    value = 0.0 + 0.0j
    for w, state in x.branches:
        value += w * np.vdot(state.amps, obs.matrix @ state.amps)
    if abs(value.imag) > IMAG_RESIDUE_ATOL:
        raise ValueError(f"expectation value has imaginary residue {value.imag:.3e}")
    return float(value.real)


def check_projector_family(projectors: Sequence[LinearOperator]):
    """Raise ``ValueError`` unless the projectors form a complete orthogonal family."""
    if len(projectors) == 0:
        raise ValueError("a projector family needs at least one projector")
    tag = projectors[0].basis_tag
    dim = projectors[0].dim
    for p in projectors:
        if p.basis_tag != tag or p.dim != dim:
            raise ValueError("projectors must share one basis")
        if p.hermiticity_defect() > HERMITICITY_ATOL:
            raise ValueError("projectors must be Hermitian")
    for i in range(len(projectors)):
        for j in range(i + 1, len(projectors)):
            cross = (projectors[i] @ projectors[j]).frobenius_norm()
            if cross > RESOLUTION_ATOL:
                raise ValueError(f"projectors {i} and {j} are not orthogonal: |PiPj| = {cross:.3e}")
    total = projectors[0]
    for p in projectors[1:]:
        total = total + p
    defect = (total - identity(dim, tag)).frobenius_norm()
    if defect > RESOLUTION_ATOL:
        raise ValueError(f"projectors do not resolve the identity: defect {defect:.3e}")


def luders_measure(projectors: Sequence[LinearOperator], x: StateLike) -> BranchEnsemble:
    """Non-selective Lueders update for a complete family of projectors.

    Every input branch ``(w, psi)`` spawns one output branch
    ``(w * |P_i psi|^2, P_i psi / |P_i psi|)`` per outcome ``i``; branches
    whose total weight falls at or below ``BRANCH_PRUNE_THRESHOLD`` are
    dropped.  Weights across outputs still sum to 1 (within tolerance).
    The output lists the branches outcome by outcome: every surviving branch
    of outcome 0 in input order, then those of outcome 1, and so on.

    Parameters
    ----------
    projectors : sequence of LinearOperator
        Mutually orthogonal projectors summing to the identity, both checked
        to ``RESOLUTION_ATOL``.
    x : StateVector or BranchEnsemble
        Input state (a bare state counts as a single branch of weight 1).

    Returns
    -------
    BranchEnsemble
    """
    check_projector_family(projectors)
    if isinstance(x, StateVector):
        if abs(x.norm - 1.0) > NORMALIZATION_ATOL:
            raise ValueError(f"luders_measure needs a normalized state, |norm - 1| = {abs(x.norm - 1.0):.3e}")
        x = BranchEnsemble.pure(x.normalized())
    if not isinstance(x, BranchEnsemble):
        raise TypeError(f"luders_measure expects a StateVector or BranchEnsemble, got {type(x).__name__}")
    if projectors[0].basis_tag != x.basis_tag or projectors[0].dim != x.dim:
        raise ValueError("projectors and state live on different bases")
    return BranchEnsemble(sum(luders_update(list(x.branches), [p.matrix.__matmul__ for p in projectors]), []))


def luders_update(branches: list, outcomes: Sequence[Callable]) -> list:
    """Branch bookkeeping of :func:`luders_measure`, outcome by outcome.

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
                kept.append((weight, StateVector(freeze(arm), state.basis_tag)))
            del arm
    return by_outcome


# Single spin-1/2 constants in the (down, up) ordering of this package.
SPIN_TAG = "spin"
PAULI_X = LinearOperator(np.array([[0, 1], [1, 0]], dtype=np.complex128), SPIN_TAG)
PAULI_Y = LinearOperator(np.array([[0, 1j], [-1j, 0]], dtype=np.complex128), SPIN_TAG)
PAULI_Z = LinearOperator(np.array([[-1, 0], [0, 1]], dtype=np.complex128), SPIN_TAG)
SPIN_IDENTITY = identity(2, SPIN_TAG)
