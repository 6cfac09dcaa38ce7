"""Unit tests for the two-particle composite space and exchange symmetry."""

from __future__ import annotations

import numpy as np
import pytest

import oracles as oc
from nosignal import (
    CompositeSpace,
    StateVector,
    Statistics,
    antisymmetrize,
    antisymmetry_violation,
    basis_index,
    decode_basis_index,
    evolve_positions,
    exchange_operator,
    is_exchange_symmetric,
    joint_position_probability,
    lift_one_particle,
    make_lattice,
    position_occupancy,
    prepare_initial,
    symmetrize,
    wavepacket,
    Region,
    LinearOperator,
)
from nosignal.composite import exchange_permutation, site_basis_tag
from nosignal.qcore import SPIN_TAG, PAULI_X


def _packets(n=12):
    lat = make_lattice(n, 1.0)
    p1 = wavepacket(lat, Region(0, n // 2), n // 4, 1.0, 0.0)
    p2 = wavepacket(lat, Region(n // 2, n), 3 * n // 4, 1.0, 0.7)
    return lat, p1, p2


def _random_composite_state(rng, n):
    space = CompositeSpace(n)
    amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return space, StateVector(amps / np.linalg.norm(amps), space.basis_tag)


# ---------------------------------------------------------------------------
# the basis contract


def test_basis_index_formula_exhaustive():
    # index = q + 2*(s2 + 2*(s1 + 2*(x2 + n*x1))) checked entry by entry
    space = CompositeSpace(4)
    seen = set()
    for x1 in range(4):
        for x2 in range(4):
            for s1 in (0, 1):
                for s2 in (0, 1):
                    for q in (0, 1):
                        idx = basis_index(space, x1, x2, s1, s2, q)
                        assert idx == oc.basis_index(4, x1, x2, s1, s2, q)
                        assert decode_basis_index(space, idx) == (x1, x2, s1, s2, q)
                        seen.add(idx)
    assert seen == set(range(space.dim))


def test_composite_space_shape():
    space = CompositeSpace(10)
    assert space.dim == 800
    assert space.axis_dims == (10, 10, 2, 2, 2)
    assert space.basis_tag == "x1x2s1s2q[n=10]"
    assert site_basis_tag(10) == "site[n=10]"
    with pytest.raises(ValueError):
        CompositeSpace(0)


def test_basis_index_validates_ranges():
    space = CompositeSpace(4)
    with pytest.raises(ValueError):
        basis_index(space, 4, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        basis_index(space, 0, 0, 2, 0, 0)
    with pytest.raises(ValueError):
        decode_basis_index(space, space.dim)


# ---------------------------------------------------------------------------
# exchange


def test_exchange_permutation_matches_reference():
    space = CompositeSpace(5)
    perm = exchange_permutation(space)
    s_ref = oc.exchange_matrix(5)
    s_pkg = np.zeros_like(s_ref)
    s_pkg[perm, np.arange(space.dim)] = 1.0
    np.testing.assert_array_equal(s_pkg, s_ref)


def test_exchange_involution_is_exact():
    for n in (4, 9, 16):
        space = CompositeSpace(n)
        perm = exchange_permutation(space)
        assert np.array_equal(perm[perm], np.arange(space.dim))


def test_exchange_operator_squares_to_identity():
    space = CompositeSpace(6)
    s = exchange_operator(space)
    np.testing.assert_allclose((s @ s).to_dense(), np.eye(space.dim), atol=0)


def test_antisymmetrize_and_violation():
    rng = np.random.default_rng(13)
    space, state = _random_composite_state(rng, 6)
    anti = antisymmetrize(state)
    assert abs(anti.norm - 1.0) < 1e-12
    assert antisymmetry_violation(anti) < 1e-14
    sym = symmetrize(state)
    assert antisymmetry_violation(sym) == pytest.approx(1.0, abs=1e-12)
    # reference implementation agrees on the raw state
    assert antisymmetry_violation(state) == pytest.approx(
        oc.antisymmetry_violation(6, state.amps), abs=1e-12
    )


def _exchange_test_state(rng, n, kind):
    space, state = _random_composite_state(rng, n)
    tensor = state.amps.reshape(n, n, 8).copy()
    if kind == "dead_columns":
        tensor[:, :, [1, 3, 5, 6, 7]] = 0.0
    elif kind == "negative_zero":
        tensor.real[rng.random(tensor.shape) < 0.3] = -0.0
        tensor.imag[rng.random(tensor.shape) < 0.3] = -0.0
        tensor[:, :, [1, 7]] = complex(-0.0, -0.0)
    return space, StateVector(tensor.ravel(), space.basis_tag)


def _assert_same_floats(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.view(np.float64)), np.signbit(want.view(np.float64)))


# n is no multiple of the tile size, so partial tiles are covered too.
@pytest.mark.parametrize("kind", ["random", "dead_columns", "negative_zero"])
@pytest.mark.parametrize("n", [6, 37, 70])
def test_exchange_sector_maps_equal_permutation_reference(n, kind):
    rng = np.random.default_rng(n)
    space, state = _exchange_test_state(rng, n, kind)
    amps = state.amps
    swapped = amps[exchange_permutation(space)]
    plus, minus = amps + swapped, amps - swapped
    assert antisymmetry_violation(state) == float(np.linalg.norm(plus) / 2.0)
    _assert_same_floats(symmetrize(state).amps, plus / np.linalg.norm(plus))
    _assert_same_floats(antisymmetrize(state).amps, minus / np.linalg.norm(minus))


def test_antisymmetrize_rejects_symmetric_input():
    # identical packets in both slots: the antisymmetric part vanishes
    lat = make_lattice(12, 1.0)
    pk = wavepacket(lat, Region(0, 12), 5.0, 2.0, 0.0)
    space = CompositeSpace(12)
    tensor = np.zeros(space.axis_dims, dtype=np.complex128)
    tensor[:, :, 0, 0, 0] = np.outer(pk.amps, pk.amps)
    state = StateVector(tensor.ravel(), space.basis_tag)
    with pytest.raises(ValueError, match="[Pp]auli"):
        antisymmetrize(state)


def test_product_state_violation_value():
    # a disjoint-support product state sits exactly halfway: violation 1/sqrt(2)
    _, p1, p2 = _packets(12)
    space = CompositeSpace(12)
    tensor = np.zeros(space.axis_dims, dtype=np.complex128)
    tensor[:, :, 0, 0, 0] = np.outer(p1.amps, p2.amps)
    state = StateVector(tensor.ravel(), space.basis_tag)
    assert antisymmetry_violation(state) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


# ---------------------------------------------------------------------------
# initial states


@pytest.mark.parametrize("statistics", ["fermion", "boson", "distinguishable"])
def test_prepare_initial_matches_reference(statistics):
    _, p1, p2 = _packets(12)
    space = CompositeSpace(12)
    psi = prepare_initial(space, statistics, p1, p2)
    assert abs(psi.norm - 1.0) < 1e-12
    if statistics == "fermion":
        want = oc.antisymmetrized_product(12, p1.amps, p2.amps)
        assert antisymmetry_violation(psi) < 1e-14
    elif statistics == "boson":
        want = oc.symmetrized_product(12, p1.amps, p2.amps)
        assert antisymmetry_violation(psi) == pytest.approx(1.0, abs=1e-12)
    else:
        want = oc.product_state(12, p1.amps, p2.amps)
    np.testing.assert_allclose(psi.amps, want, atol=1e-12)


def test_prepare_initial_requires_disjoint_support_for_identical_particles():
    lat = make_lattice(12, 1.0)
    a = wavepacket(lat, Region(0, 8), 3.0, 1.5, 0.0)
    b = wavepacket(lat, Region(2, 10), 5.0, 1.5, 0.0)  # overlaps a
    space = CompositeSpace(12)
    with pytest.raises(ValueError, match="disjoint"):
        prepare_initial(space, "fermion", a, b)
    with pytest.raises(ValueError, match="disjoint"):
        prepare_initial(space, "boson", a, b)
    # distinguishable particles may overlap
    psi = prepare_initial(space, "distinguishable", a, b)
    assert abs(psi.norm - 1.0) < 1e-12


def test_prepare_initial_validates_packets():
    _, p1, p2 = _packets(12)
    space = CompositeSpace(12)
    with pytest.raises(ValueError):
        prepare_initial(space, "fermion", StateVector(p1.amps, "wrong"), p2)
    with pytest.raises(ValueError):
        prepare_initial(space, "fermion", StateVector(2.0 * p1.amps, p1.basis_tag), p2)
    with pytest.raises(ValueError):
        prepare_initial(space, "not-a-statistics", p1, p2)
    assert Statistics("fermion") is Statistics.FERMION


# ---------------------------------------------------------------------------
# lifted operators


def test_lift_position_operator_matches_kron():
    rng = np.random.default_rng(19)
    n = 4
    space = CompositeSpace(n)
    mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    op = LinearOperator(mat, site_basis_tag(n))
    eye_n = np.eye(n)
    eye8 = np.eye(8)
    lifted1 = lift_one_particle(space, op, 1, factor="position").to_dense()
    np.testing.assert_allclose(lifted1, oc.kron_all(mat, eye_n, np.eye(2), np.eye(2), np.eye(2)), atol=1e-14)
    lifted2 = lift_one_particle(space, op, 2, factor="position").to_dense()
    np.testing.assert_allclose(lifted2, oc.kron_all(eye_n, mat, np.eye(2), np.eye(2), np.eye(2)), atol=1e-14)
    assert eye8.shape == (8, 8)


def test_lift_spin_operator_matches_kron():
    n = 4
    space = CompositeSpace(n)
    x = PAULI_X.to_dense()
    eye_n = np.eye(n)
    got1 = lift_one_particle(space, PAULI_X, 1, factor="spin").to_dense()
    np.testing.assert_allclose(got1, oc.kron_all(eye_n, eye_n, x, np.eye(2), np.eye(2)), atol=1e-14)
    got2 = lift_one_particle(space, PAULI_X, 2, factor="spin").to_dense()
    np.testing.assert_allclose(got2, oc.kron_all(eye_n, eye_n, np.eye(2), x, np.eye(2)), atol=1e-14)


def test_lift_both_factor_matches_kron():
    rng = np.random.default_rng(21)
    n = 4
    space = CompositeSpace(n)
    mat = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
    op = LinearOperator(mat, f"{site_basis_tag(n)}*{SPIN_TAG}")
    got1 = lift_one_particle(space, op, 1, factor="both").to_dense()
    # reorder (x1 s1) against the canonical (x1 x2 s1 s2 q) axis order
    tensor = mat.reshape(n, 2, n, 2)
    want = np.zeros((space.dim, space.dim), dtype=complex)
    for x1 in range(n):
        for s1 in (0, 1):
            for xp in range(n):
                for sp in (0, 1):
                    val = tensor[x1, s1, xp, sp]
                    if val == 0:
                        continue
                    for x2 in range(n):
                        for s2 in (0, 1):
                            for q in (0, 1):
                                row = oc.basis_index(n, x1, x2, s1, s2, q)
                                col = oc.basis_index(n, xp, x2, sp, s2, q)
                                want[row, col] += val
    np.testing.assert_allclose(got1, want, atol=1e-14)


def test_lift_validates_factor_and_dims():
    n = 4
    space = CompositeSpace(n)
    op = LinearOperator(np.eye(n), site_basis_tag(n))
    with pytest.raises(ValueError):
        lift_one_particle(space, op, 3, factor="position")
    with pytest.raises(ValueError):
        lift_one_particle(space, op, 1, factor="flavor")
    with pytest.raises(ValueError):
        lift_one_particle(space, PAULI_X, 1, factor="position")  # dim mismatch
    with pytest.raises(ValueError):
        lift_one_particle(space, op, 1, factor="spin")


def test_is_exchange_symmetric():
    n = 6
    space = CompositeSpace(n)
    proj = np.zeros((n, n))
    proj[1, 1] = proj[2, 2] = 1.0
    p = LinearOperator(proj, site_basis_tag(n))
    one_sided = lift_one_particle(space, p, 1, factor="position")
    assert not is_exchange_symmetric(one_sided)
    both = one_sided + lift_one_particle(space, p, 2, factor="position")
    assert is_exchange_symmetric(both)
    assert is_exchange_symmetric(exchange_operator(space))


# ---------------------------------------------------------------------------
# evolution and marginals


@pytest.mark.parametrize(
    "live, n",
    [(range(8), 6), ([0], 6), ([2, 4], 6), ([0, 6], 6), ([], 6), ([0, 2, 4], 37)],
    ids=["all", "0", "2-4", "0-6", "none", "n37-0-2-4"],
)
def test_evolve_positions_matches_kron_action(live, n):
    # Columns are the (s1, s2, q) index; the drift contracts only the live ones.
    # n = 37 is no multiple of the tile size of the x1 <-> x2 scatter.
    rng = np.random.default_rng(37)
    space, state = _random_composite_state(rng, n)
    dead = np.setdiff1d(np.arange(8), list(live))
    tensor = state.amps.reshape(n, n, 8).copy()
    tensor[:, :, dead] = 0.0
    state = StateVector(tensor.ravel(), space.basis_tag)
    u = oc.single_propagator(n, 1.0, 0.8)
    got = evolve_positions(space, LinearOperator(u, site_basis_tag(n)), state)
    # (u (x) u (x) 1_8) v, with the identity factor acting on the 8 columns of v.
    want = (oc.kron_all(u, u) @ state.amps.reshape(n * n, 8)).ravel()
    np.testing.assert_allclose(got.amps, want, atol=1e-12)
    assert np.all(got.amps.reshape(n, n, 8)[:, :, dead] == 0.0)
    assert got.basis_tag == space.basis_tag


def test_evolve_positions_requires_square_site_operator():
    space = CompositeSpace(6)
    state = StateVector(np.eye(space.dim)[0], space.basis_tag)
    with pytest.raises(ValueError):
        evolve_positions(space, PAULI_X, state)


def test_position_occupancy_marginals():
    _, p1, p2 = _packets(12)
    space = CompositeSpace(12)
    psi = prepare_initial(space, "distinguishable", p1, p2)
    occ1, occ2 = position_occupancy(space, psi)
    np.testing.assert_allclose(occ1, np.abs(p1.amps) ** 2, atol=1e-12)
    np.testing.assert_allclose(occ2, np.abs(p2.amps) ** 2, atol=1e-12)
    assert occ1.sum() == pytest.approx(1.0, abs=1e-12)
    assert occ2.sum() == pytest.approx(1.0, abs=1e-12)
    # after antisymmetrization the two slots carry the same marginal
    psi_f = prepare_initial(space, "fermion", p1, p2)
    f1, f2 = position_occupancy(space, psi_f)
    np.testing.assert_allclose(f1, f2, atol=1e-12)
    np.testing.assert_allclose(f1, (np.abs(p1.amps) ** 2 + np.abs(p2.amps) ** 2) / 2, atol=1e-12)


def test_joint_position_probability():
    _, p1, p2 = _packets(12)
    space = CompositeSpace(12)
    psi = prepare_initial(space, "distinguishable", p1, p2)
    # slot 1 lives on [0, 6), slot 2 on [6, 12)
    assert joint_position_probability(space, psi, range(0, 6), range(6, 12)) == pytest.approx(1.0, abs=1e-12)
    assert joint_position_probability(space, psi, range(6, 12), range(0, 6)) == pytest.approx(0.0, abs=1e-15)
    psi_f = prepare_initial(space, "fermion", p1, p2)
    # either ordering carries half the weight for the antisymmetrized state
    assert joint_position_probability(space, psi_f, range(0, 6), range(6, 12)) == pytest.approx(0.5, abs=1e-12)
