"""Unit tests for the state, operator, and measurement primitives."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from nosignal import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BranchEnsemble,
    DensityMatrix,
    LinearOperator,
    StateVector,
    apply,
    expectation,
    identity,
    luders_measure,
    reduced_density,
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
    assert not small.is_sparse
    big = identity(qcore.DENSE_DIM_LIMIT + 1, "t")
    assert big.is_sparse
    forced = identity(8, "t", sparse=True)
    assert forced.is_sparse
    np.testing.assert_allclose(forced.to_dense(), np.eye(8))


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


def test_tensor_product_sparse_propagates():
    a = LinearOperator(sp.csr_array(np.eye(3)), "a")
    b = LinearOperator(np.eye(2), "b")
    assert tensor_product(a, b).is_sparse


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


def test_density_matrix_validation():
    DensityMatrix(np.eye(3) / 3)
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))


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


# ---------------------------------------------------------------------------
# partial trace


def test_reduced_density_of_product_state():
    rng = np.random.default_rng(5)
    a = _random_state(rng, 3, "a")
    b = _random_state(rng, 4, "b")
    joint = tensor_product(a, b)
    rho_a = reduced_density(joint, 0, (3, 4))
    np.testing.assert_allclose(rho_a.matrix, np.outer(a.amps, a.amps.conj()), atol=1e-12)
    rho_b = reduced_density(joint, 1, (3, 4))
    np.testing.assert_allclose(rho_b.matrix, np.outer(b.amps, b.amps.conj()), atol=1e-12)


def test_reduced_density_of_entangled_pair():
    bell = StateVector(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0), "spin*spin")
    rho = reduced_density(bell, 0, (2, 2))
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


def test_reduced_density_matches_explicit_sum():
    rng = np.random.default_rng(31)
    dims = (2, 3, 2)
    state = _random_state(rng, int(np.prod(dims)))
    rho = reduced_density(state, (0, 2), dims).matrix
    # independent computation with explicit index loops
    t = state.amps.reshape(dims)
    want = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for k in range(2):
            for i2 in range(2):
                for k2 in range(2):
                    val = 0.0 + 0.0j
                    for j in range(3):
                        val += t[i, j, k] * np.conj(t[i2, j, k2])
                    want[i * 2 + k, i2 * 2 + k2] = val
    np.testing.assert_allclose(rho, want, atol=1e-12)


def test_reduced_density_validates_arguments():
    state = StateVector(np.array([1.0, 0.0, 0.0, 0.0]), "t")
    with pytest.raises(ValueError):
        reduced_density(state, 2, (2, 2))
    with pytest.raises(ValueError):
        reduced_density(state, (1, 0), (2, 2))
    with pytest.raises(ValueError):
        reduced_density(state, 0, (2, 3))
