"""Unit tests for the state, operator, and measurement primitives."""

from __future__ import annotations

import numpy as np
import pytest

from nosignal import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BranchEnsemble,
    LinearOperator,
    StateVector,
    apply,
    expectation,
    identity,
    luders_measure,
    tensor_product,
)
from nosignal import qcore


def _random_state(rng, dim, tag="t"):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(amps / np.linalg.norm(amps), tag)


def _random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_projector_family(rng, dim, groups):
    u = _random_unitary(rng, dim)
    cuts = np.sort(rng.choice(np.arange(1, dim), size=groups - 1, replace=False))
    pieces = np.split(np.arange(dim), cuts)
    family = []
    for cols in pieces:
        block = u[:, cols]
        family.append(LinearOperator(block @ block.conj().T, "t"))
    return family


# ---------------------------------------------------------------------------
# states and operators


def test_state_vector_basics():
    s = StateVector(np.array([3.0, 4.0j]), "t")
    assert s.dim == 2
    assert s.norm == pytest.approx(5.0)
    n = s.normalized()
    assert n.norm == pytest.approx(1.0)
    assert n.basis_tag == "t"
    # amplitudes are frozen
    with pytest.raises(ValueError):
        s.amps[0] = 0.0


def test_state_vector_shares_only_frozen_memory():
    src = np.array([1.0, 2.0j, 3.0])
    s = StateVector(src, "t")
    src[0] = 9.0
    assert s.amps[0] == 1.0
    # a read-only view does not protect a writable base
    base = np.array([1.0, 2.0j, 3.0, 4.0])
    view = base[:3]
    view.setflags(write=False)
    s = StateVector(view, "t")
    base[0] = 9.0
    assert s.amps[0] == 1.0
    owned = np.array([1.0, 2.0j, 3.0])
    owned.setflags(write=False)
    assert np.shares_memory(StateVector(owned, "t").amps, owned)


@pytest.mark.parametrize("bad", [complex(np.inf, 0.0), complex(-np.inf, 1.0), complex(0.0, np.inf),
                                 complex(np.nan, 0.0), complex(0.0, np.nan)])
@pytest.mark.parametrize("frozen", [False, True])
def test_state_vector_rejects_non_finite_entries(bad, frozen):
    amps = np.zeros(1000, dtype=np.complex128)
    amps[617] = bad
    amps.setflags(write=not frozen)
    with pytest.raises(ValueError, match="finite"):
        StateVector(amps, "t")


def test_state_vector_accepts_entries_whose_squares_overflow():
    # |1e200|^2 overflows the sum of squares; the exact scan accepts it
    amps = np.full(64, 1e200 - 1e200j)
    assert np.array_equal(StateVector(amps, "t").amps, amps)
    amps[5] = complex(np.inf, 0.0)
    with pytest.raises(ValueError, match="finite"):
        StateVector(amps, "t")


def test_each_state_is_scanned_once_when_built(monkeypatch):
    dim = 4096
    rng = np.random.default_rng(5)
    fresh = [a / np.linalg.norm(a) for a in rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))]
    calls = []

    def counted(f):
        def wrapper(a, *args, **kwargs):
            if np.size(a) == dim:
                calls.append(f.__name__)
            return f(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np, "vdot", counted(np.vdot))
    monkeypatch.setattr(np.linalg, "norm", counted(np.linalg.norm))
    states = []
    for amps in fresh:
        calls.clear()
        states.append(StateVector(amps, "t"))
        assert len(calls) == 1, calls
    calls.clear()
    BranchEnsemble(tuple(zip((0.2, 0.3, 0.5), states)))
    assert calls == []


def test_operator_requires_square():
    with pytest.raises(ValueError):
        LinearOperator(np.zeros((2, 3)), "t")


def test_operator_algebra_and_tags():
    rng = np.random.default_rng(7)
    a = LinearOperator(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)), "t")
    b = LinearOperator(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)), "t")
    np.testing.assert_allclose((a @ b).to_dense(), a.to_dense() @ b.to_dense())
    np.testing.assert_allclose((a + b).to_dense(), a.to_dense() + b.to_dense())
    np.testing.assert_allclose((a - b).to_dense(), a.to_dense() - b.to_dense())
    np.testing.assert_allclose((a * 2.5j).to_dense(), 2.5j * a.to_dense())
    np.testing.assert_allclose(a.dagger().to_dense(), a.to_dense().conj().T)
    other = LinearOperator(np.eye(3), "elsewhere")
    with pytest.raises(ValueError):
        a @ other
    with pytest.raises(ValueError):
        a + other


def test_operator_defects():
    assert PAULI_X.hermiticity_defect() == 0.0
    assert PAULI_X.unitarity_defect() < 1e-15
    skew = LinearOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), "spin")
    assert skew.hermiticity_defect() > 0.5
    p0 = LinearOperator(np.diag([1.0, 0.0]), "spin")
    assert p0.projector_defect() < 1e-15
    assert PAULI_X.projector_defect() > 0.5


def test_identity_storage_threshold():
    small = identity(8, "t")
    assert isinstance(small.matrix, np.ndarray)
    np.testing.assert_array_equal(small.matrix, np.eye(8))


def test_tensor_product_matches_kron():
    rng = np.random.default_rng(11)
    for _ in range(20):
        da, db = rng.integers(2, 5, size=2)
        a = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
        b = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
        prod = tensor_product(LinearOperator(a, "a"), LinearOperator(b, "b"))
        np.testing.assert_allclose(prod.to_dense(), np.kron(a, b))
        assert prod.basis_tag == "a*b"
    u = _random_state(rng, 3, "a")
    v = _random_state(rng, 4, "b")
    joint = tensor_product(u, v)
    np.testing.assert_allclose(joint.amps, np.kron(u.amps, v.amps))
    assert joint.basis_tag == "a*b"


def test_tensor_product_kind_mismatch():
    s = StateVector(np.array([1.0, 0.0]), "a")
    with pytest.raises(TypeError):
        tensor_product(s, PAULI_X)


def test_apply_matches_matrix_action():
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    op = LinearOperator(mat, "t")
    state = _random_state(rng, 4)
    out = apply(op, state)
    np.testing.assert_allclose(out.amps, mat @ state.amps)
    with pytest.raises(ValueError):
        apply(op, _random_state(rng, 4, tag="other"))


# ---------------------------------------------------------------------------
# expectation values


def test_expectation_basics():
    down = StateVector(np.array([1.0, 0.0]), "spin")
    up = StateVector(np.array([0.0, 1.0]), "spin")
    assert expectation(PAULI_Z, down) == pytest.approx(-1.0)
    assert expectation(PAULI_Z, up) == pytest.approx(1.0)
    assert expectation(PAULI_X, down) == pytest.approx(0.0)
    mixed = BranchEnsemble(((0.25, down), (0.75, up)))
    assert expectation(PAULI_Z, mixed) == pytest.approx(0.5)


def test_expectation_rejects_bad_input():
    down = StateVector(np.array([1.0, 0.0]), "spin")
    skew = LinearOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), "spin")
    with pytest.raises(ValueError):
        expectation(skew, down)
    with pytest.raises(ValueError):
        expectation(PAULI_Z, StateVector(np.array([2.0, 0.0]), "spin"))
    with pytest.raises(ValueError):
        expectation(PAULI_Y, _random_state(np.random.default_rng(0), 2, tag="other"))


def test_expectation_matches_quadratic_form():
    rng = np.random.default_rng(23)
    for _ in range(30):
        dim = int(rng.integers(2, 9))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        herm = (a + a.conj().T) / 2
        state = _random_state(rng, dim)
        want = np.vdot(state.amps, herm @ state.amps).real
        got = expectation(LinearOperator(herm, "t"), state)
        assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# ensembles


def test_branch_ensemble_validation():
    good = StateVector(np.array([1.0, 0.0]), "t")
    with pytest.raises(ValueError):
        BranchEnsemble(((0.5, good),))  # weights sum to 0.5
    with pytest.raises(ValueError):
        BranchEnsemble(((-0.1, good), (1.1, good)))
    with pytest.raises(ValueError):
        BranchEnsemble(((1.0, StateVector(np.array([2.0, 0.0]), "t")),))
    with pytest.raises(ValueError):
        BranchEnsemble(((0.5, good), (0.5, StateVector(np.array([1.0, 0.0]), "other")),))
    ens = BranchEnsemble.pure(good)
    assert ens.branch_count == 1
    assert ens.dim == 2
    assert ens.basis_tag == "t"


# ---------------------------------------------------------------------------
# measurements


def test_luders_splits_plus_state():
    plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0), "spin")
    p0 = LinearOperator(np.diag([1.0, 0.0]), "spin")
    p1 = LinearOperator(np.diag([0.0, 1.0]), "spin")
    ens = luders_measure([p0, p1], plus)
    assert ens.branch_count == 2
    weights = sorted(w for w, _ in ens.branches)
    assert weights == pytest.approx([0.5, 0.5])
    for _, state in ens.branches:
        assert state.norm == pytest.approx(1.0)


def test_luders_prunes_zero_weight_branch():
    down = StateVector(np.array([1.0, 0.0]), "spin")
    p0 = LinearOperator(np.diag([1.0, 0.0]), "spin")
    p1 = LinearOperator(np.diag([0.0, 1.0]), "spin")
    ens = luders_measure([p0, p1], down)
    assert ens.branch_count == 1
    assert ens.branches[0][0] == pytest.approx(1.0)


def test_luders_lists_branches_outcome_by_outcome():
    # Every branch of outcome 0, in input order, then every branch of outcome 1.
    p0 = LinearOperator(np.diag([1.0, 0.0]), "spin")
    p1 = LinearOperator(np.diag([0.0, 1.0]), "spin")
    a = StateVector(np.array([0.6, 0.8]), "spin")
    b = StateVector(np.array([0.8, 0.6j]), "spin")
    ens = luders_measure([p0, p1], BranchEnsemble(((0.25, a), (0.75, b))))
    assert [w for w, _ in ens.branches] == pytest.approx([0.25 * 0.36, 0.75 * 0.64, 0.25 * 0.64, 0.75 * 0.36])
    want = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0j]]
    for (_, state), amps in zip(ens.branches, want):
        np.testing.assert_allclose(state.amps, amps, atol=1e-15)


def test_luders_family_validation():
    p0 = LinearOperator(np.diag([1.0, 0.0]), "spin")
    tilted = LinearOperator(np.array([[0.5, 0.5], [0.5, 0.5]]), "spin")
    down = StateVector(np.array([1.0, 0.0]), "spin")
    with pytest.raises(ValueError):
        luders_measure([p0, tilted], down)  # not orthogonal
    with pytest.raises(ValueError):
        luders_measure([p0], down)  # does not resolve the identity
    with pytest.raises(ValueError):
        luders_measure([p0, LinearOperator(np.diag([0.0, 1.0]), "spin")],
                       StateVector(np.array([2.0, 0.0]), "spin"))


def test_luders_weight_conservation_randomized():
    rng = np.random.default_rng(17)
    for _ in range(200):
        dim = int(rng.integers(3, 13))
        groups = int(rng.integers(2, min(dim, 5)))
        family = _random_projector_family(rng, dim, groups)
        state = _random_state(rng, dim)
        ens = luders_measure(family, state)
        total = sum(w for w, _ in ens.branches)
        assert abs(total - 1.0) <= qcore.WEIGHT_SUM_ATOL
        # The ensemble is exactly the non-selective update of the pure input.
        rho = sum(w * np.outer(s.amps, s.amps.conj()) for w, s in ens.branches)
        want = sum(
            p.to_dense() @ np.outer(state.amps, state.amps.conj()) @ p.to_dense()
            for p in family
        )
        assert np.linalg.norm(rho - want) < 1e-12


def test_luders_chains_through_ensembles():
    rng = np.random.default_rng(29)
    state = _random_state(rng, 8)
    fam1 = _random_projector_family(rng, 8, 3)
    fam2 = _random_projector_family(rng, 8, 4)
    ens = luders_measure(fam2, luders_measure(fam1, state))
    assert abs(sum(w for w, _ in ens.branches) - 1.0) <= qcore.WEIGHT_SUM_ATOL
