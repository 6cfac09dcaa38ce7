"""Unit tests for the two-particle composite basis and exchange symmetry."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import oracles as oc
from nosignal import (
    StateVector,
    Statistics,
    antisymmetrize,
    antisymmetry_violation,
    basis_index,
    decode_basis_index,
    default_scenario,
    evolve_positions,
    joint_position_probability,
    make_lattice,
    position_occupancy,
    prepare_initial,
    prepare_scenario,
    propagator,
    symmetrize,
    wavepacket,
    Region,
)
from nosignal.composite import _live_columns, _sites, _with_exchanged, exchange_permutation
from nosignal.qcore import PAULI_X, freeze


def _packets(n=12):
    lat = make_lattice(n, 1.0)
    p1 = wavepacket(lat, Region(0, n // 2), n // 4, 1.0, 0.0)
    p2 = wavepacket(lat, Region(n // 2, n), 3 * n // 4, 1.0, 0.7)
    return lat, p1, p2


def _random_composite_state(rng, n):
    amps = rng.normal(size=8 * n * n) + 1j * rng.normal(size=8 * n * n)
    return StateVector(amps / np.linalg.norm(amps))


# ---------------------------------------------------------------------------
# the basis contract


def test_basis_index_formula_exhaustive():
    # index = q + 2*(s2 + 2*(s1 + 2*(x2 + n*x1))) checked entry by entry
    seen = set()
    for x1 in range(4):
        for x2 in range(4):
            for s1 in (0, 1):
                for s2 in (0, 1):
                    for q in (0, 1):
                        idx = basis_index(4, x1, x2, s1, s2, q)
                        assert idx == oc.basis_index(4, x1, x2, s1, s2, q)
                        assert decode_basis_index(4, idx) == (x1, x2, s1, s2, q)
                        seen.add(idx)
    assert seen == set(range(8 * 4 * 4))


def test_basis_index_validates_ranges():
    with pytest.raises(ValueError):
        basis_index(4, 4, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        basis_index(4, 0, 0, 2, 0, 0)
    with pytest.raises(ValueError):
        decode_basis_index(4, 8 * 4 * 4)
    # both directions reject what is not an integer, bools included
    for bad in (3.7, True, np.True_):
        with pytest.raises(ValueError):
            decode_basis_index(4, bad)
        with pytest.raises(ValueError):
            basis_index(4, bad, 0, 0, 0, 0)
    assert decode_basis_index(4, np.int64(3)) == decode_basis_index(4, 3.0) == (0, 0, 0, 1, 1)


def test_sites_reads_n_from_either_layout_and_rejects_every_other_dimension():
    assert [_sites(StateVector(np.ones(k * n * n))) for n in (2, 3, 96) for k in (4, 8)] == [2, 2, 3, 3, 96, 96]
    for dim in (1, 4, 8, 12, 96, 4 * 9 + 1, 8 * 36 - 8):  # n = 1 is no lattice
        with pytest.raises(ValueError, match="not of the composite form"):
            _sites(StateVector(np.ones(dim)))


# ---------------------------------------------------------------------------
# exchange


def test_exchange_permutation_matches_reference():
    perm = exchange_permutation(5)
    s_ref = oc.exchange_matrix(5)
    s_pkg = np.zeros_like(s_ref)
    s_pkg[perm, np.arange(perm.size)] = 1.0
    np.testing.assert_array_equal(s_pkg, s_ref)


def test_exchange_involution_is_exact():
    for n in (4, 9, 16):
        perm = exchange_permutation(n)
        assert np.array_equal(perm[perm], np.arange(8 * n * n))


def test_antisymmetrize_and_violation():
    rng = np.random.default_rng(13)
    state = _random_composite_state(rng, 6)
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
    state = _random_composite_state(rng, n)
    tensor = state.amps.reshape(n, n, 8).copy()
    if kind == "dead_columns":
        tensor[:, :, [1, 3, 5, 6, 7]] = 0.0
    elif kind == "negative_zero":
        tensor.real[rng.random(tensor.shape) < 0.3] = -0.0
        tensor.imag[rng.random(tensor.shape) < 0.3] = -0.0
        tensor[:, :, [1, 7]] = complex(-0.0, -0.0)
    return StateVector(tensor.ravel())


def _assert_same_floats(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.view(np.float64)), np.signbit(want.view(np.float64)))


# n is no multiple of the slab size, so partial slabs are covered too.
@pytest.mark.parametrize("kind", ["random", "dead_columns", "negative_zero"])
@pytest.mark.parametrize("n", [6, 37, 70])
def test_exchange_sector_maps_equal_permutation_reference(n, kind):
    rng = np.random.default_rng(n)
    state = _exchange_test_state(rng, n, kind)
    amps = state.amps
    swapped = amps[exchange_permutation(n)]
    plus, minus = amps + swapped, amps - swapped
    assert antisymmetry_violation(state) == float(np.linalg.norm(plus) / 2.0)
    _assert_same_floats(symmetrize(state).amps, plus / np.linalg.norm(plus))
    _assert_same_floats(antisymmetrize(state).amps, minus / np.linalg.norm(minus))


def test_antisymmetry_violation_allocates_one_state_beyond_its_input():
    # S psi is gathered slab by slab into the one output state; an intp index
    # of the exchange permutation, cached or not, would add a quarter of a
    # state or more.
    n = 64
    state = _random_composite_state(np.random.default_rng(64), n)
    tracemalloc.start()
    try:
        antisymmetry_violation(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 128 * n**2


def test_exchange_sector_is_wrapped_without_a_copy():
    state = _random_composite_state(np.random.default_rng(7), 12)
    out = _with_exchanged(np.subtract, state)
    assert out.base is None  # owns its memory, so freeze marks all of it read-only
    assert np.shares_memory(StateVector(freeze(out)).amps, out)


@pytest.mark.parametrize("statistics", ["fermion", "boson", "distinguishable"])
def test_prepare_initial_holds_two_states_at_its_peak(statistics):
    # The product tensor and the state built from it, both spin-only (64 n^2
    # bytes each): the sector is scaled in place.  Wrapping it with a copy and
    # normalizing that took 3.0 states.
    n = 48
    lat = make_lattice(n, 1.0)
    p1 = wavepacket(lat, Region(4, 10), 7.0, 1.5, 0.0)
    p2 = wavepacket(lat, Region(25, 37), 31.0, 3.0, np.pi / 2)
    prepare_initial(statistics, p1, p2)  # fills the slab index cache outside the trace
    tracemalloc.start()
    try:
        prepare_initial(statistics, p1, p2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * 64 * n**2


def test_antisymmetrize_rejects_symmetric_input():
    # identical packets in both slots: the antisymmetric part vanishes
    lat = make_lattice(12, 1.0)
    pk = wavepacket(lat, Region(0, 12), 5.0, 2.0, 0.0)
    tensor = np.zeros((12, 12, 2, 2, 2), dtype=np.complex128)
    tensor[:, :, 0, 0, 0] = np.outer(pk.amps, pk.amps)
    state = StateVector(tensor.ravel())
    with pytest.raises(ValueError, match="[Pp]auli"):
        antisymmetrize(state)


def test_product_state_violation_value():
    # a disjoint-support product state sits exactly halfway: violation 1/sqrt(2)
    _, p1, p2 = _packets(12)
    tensor = np.zeros((12, 12, 2, 2, 2), dtype=np.complex128)
    tensor[:, :, 0, 0, 0] = np.outer(p1.amps, p2.amps)
    state = StateVector(tensor.ravel())
    assert antisymmetry_violation(state) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


# ---------------------------------------------------------------------------
# initial states


@pytest.mark.parametrize("statistics", ["fermion", "boson", "distinguishable"])
def test_prepare_initial_matches_reference(statistics):
    _, p1, p2 = _packets(12)
    psi = prepare_initial(statistics, p1, p2)
    assert abs(psi.norm - 1.0) < 1e-12
    if statistics == "fermion":
        want = oc.antisymmetrized_product(12, p1.amps, p2.amps)
        assert antisymmetry_violation(psi) < 1e-14
    elif statistics == "boson":
        want = oc.symmetrized_product(12, p1.amps, p2.amps)
        assert antisymmetry_violation(psi) == pytest.approx(1.0, abs=1e-12)
    else:
        want = oc.product_state(12, p1.amps, p2.amps)
    assert psi.dim == 4 * 12 * 12 and not np.any(want[1::2])  # spin-only: the q = 0 entries
    np.testing.assert_allclose(psi.amps, want[::2], atol=1e-12)


def test_prepare_initial_requires_disjoint_support_for_identical_particles():
    lat = make_lattice(12, 1.0)
    a = wavepacket(lat, Region(0, 8), 3.0, 1.5, 0.0)
    b = wavepacket(lat, Region(2, 10), 5.0, 1.5, 0.0)  # overlaps a
    with pytest.raises(ValueError, match="disjoint"):
        prepare_initial("fermion", a, b)
    with pytest.raises(ValueError, match="disjoint"):
        prepare_initial("boson", a, b)
    # distinguishable particles may overlap
    psi = prepare_initial("distinguishable", a, b)
    assert abs(psi.norm - 1.0) < 1e-12


def test_prepare_initial_validates_packets():
    _, p1, p2 = _packets(12)
    with pytest.raises(ValueError):
        prepare_initial("fermion", StateVector(p1.amps[:-1]).normalized(), p2)
    with pytest.raises(ValueError):
        prepare_initial("distinguishable", p1, StateVector(p2.amps[:-1]).normalized())
    with pytest.raises(ValueError):
        prepare_initial("distinguishable", StateVector(np.ones(1)), StateVector(np.ones(1)))
    with pytest.raises(ValueError):
        prepare_initial("fermion", StateVector(2.0 * p1.amps), p2)
    with pytest.raises(ValueError):
        prepare_initial("not-a-statistics", p1, p2)
    assert Statistics("fermion") is Statistics.FERMION


# ---------------------------------------------------------------------------
# evolution and marginals


def _cut_to(tensor: np.ndarray, support: str) -> None:
    """Zero ``tensor``'s entries outside one of the compact supports the drift contracts over, in place."""
    n = len(tensor)
    keep = np.ones((n, n), dtype=bool)
    if support == "one-row":
        keep[np.arange(n) != 3] = False
    elif support == "two-intervals":  # rows [1, 4) and [n-5, n-2), columns [0, 2) and [n/2, n/2+3)
        keep[:] = False
        keep[np.ix_(np.r_[1:4, n - 5 : n - 2], np.r_[0:2, n // 2 : n // 2 + 3])] = True
    tensor[~keep] = 0.0
    if support == "subnormal":  # column 3 holds one subnormal and nothing else
        tensor[:, :, 3] = 0.0
        tensor[2, 4, 3] = complex(0.0, 5e-324)
    elif support == "minus-zero-row":
        tensor[5] = complex(-0.0, -0.0)


@pytest.mark.parametrize(
    "live, n, support",
    [
        (range(8), 6, "full"),
        ([0], 6, "full"),
        ([2, 4], 6, "full"),
        ([0, 6], 6, "full"),
        ([], 6, "full"),
        ([0, 2, 4], 37, "full"),
        ([0, 2], 37, "one-row"),
        ([0, 2], 37, "two-intervals"),
        ([0, 3], 37, "subnormal"),
        ([0, 2, 4], 37, "minus-zero-row"),
    ],
    ids=["all", "0", "2-4", "0-6", "none", "n37-0-2-4", "one-row", "two-intervals", "subnormal", "minus-zero-row"],
)
def test_evolve_positions_matches_kron_action(live, n, support):
    # Columns are the (s1, s2, q) index; the drift contracts only the live
    # ones, each over its own nonzero rows and columns.  n = 37 is odd.
    rng = np.random.default_rng(37)
    state = _random_composite_state(rng, n)
    dead = np.setdiff1d(np.arange(8), list(live))
    tensor = state.amps.reshape(n, n, 8).copy()
    tensor[:, :, dead] = 0.0
    _cut_to(tensor, support)
    state = StateVector(tensor.ravel())
    u = oc.single_propagator(n, 1.0, 0.8)
    got = evolve_positions(u, state)
    # (u (x) u (x) 1_8) v, with the identity factor acting on the 8 columns of v.
    want = (oc.kron_all(u, u) @ state.amps.reshape(n * n, 8)).ravel()
    np.testing.assert_allclose(got.amps, want, atol=1e-12)
    assert np.all(got.amps.reshape(n, n, 8)[:, :, dead] == 0.0)


def test_drifting_the_prepared_wavepackets_equals_a_full_contraction():
    # psi0's columns are nonzero only on the packets' sites, so the drift
    # contracts each over a few rows and columns of the 96.
    cfg = default_scenario()
    lat, psi0 = prepare_scenario(cfg)
    n, u = cfg.n, propagator(lat, cfg.t2)
    tensor = psi0.amps.reshape(n, n, 4)
    assert 0 < np.count_nonzero(tensor.any(axis=(1, 2))) < n
    got = evolve_positions(u, psi0).amps.reshape(n, n, 4)
    want = np.stack([u @ tensor[:, :, c] @ u.T for c in range(4)], axis=-1)
    assert np.abs(got - want).max() <= 1e-15


def _gathered_drift(u: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """The drift's own GEMMs in plain numpy: each live column over its nonzero rows and columns, placed into zeros."""
    out = np.zeros(tensor.shape, dtype=complex)
    for c in np.flatnonzero(tensor.any(axis=(0, 1))):
        x = tensor[:, :, c].copy()
        rows, cols = np.flatnonzero(x.any(axis=1)), np.flatnonzero(x.any(axis=0))
        out[:, :, c] = (u[:, rows] @ x[np.ix_(rows, cols)]) @ u[:, cols].T
    return out


def _with_minus_zeros(rng: np.random.Generator, tensor: np.ndarray, live) -> np.ndarray:
    """``tensor`` with -0.0 in about a fifth of the live real and imaginary parts and in every dead column."""
    tensor.real[rng.random(tensor.shape) < 0.2] = -0.0
    tensor.imag[rng.random(tensor.shape) < 0.2] = -0.0
    tensor[:, :, np.setdiff1d(np.arange(tensor.shape[2]), live)] = complex(-0.0, -0.0)
    return tensor


@pytest.mark.parametrize("live", [[], [0], [2, 4], list(range(8))], ids=["none", "0", "2-4", "all"])
@pytest.mark.parametrize("n", [37, 70])
def test_drift_placement_is_byte_exact(n, live):
    # Dead columns hold -0.0, and so do some live entries; every live
    # column's support is full, so the drift contracts it ungathered.
    rng = np.random.default_rng(n)
    state = _random_composite_state(rng, n)
    tensor = _with_minus_zeros(rng, state.amps.reshape(n, n, 8).copy(), live)
    u = oc.single_propagator(n, 1.0, 0.8)
    got = evolve_positions(u, StateVector(tensor.ravel()))
    assert np.array_equal(got.amps.view(np.uint64), _gathered_drift(u, tensor).ravel().view(np.uint64))


@pytest.mark.parametrize("support", ["one-row", "two-intervals", "subnormal", "minus-zero-row"])
def test_drift_on_compact_supports_is_byte_exact(support):
    # The same, with each live column cut to a compact support that the
    # drift gathers.  A spin-only (n, n, 4) state, as the pipeline drifts.
    n, live = 37, [0, 2, 3]
    rng = np.random.default_rng(3)
    state = _random_composite_state(rng, n)
    tensor = _with_minus_zeros(rng, state.amps.reshape(n, n, 8)[:, :, :4].copy(), live)
    _cut_to(tensor, support)
    np.testing.assert_array_equal(_live_columns(tensor), live)  # the subnormal column stays live
    u = oc.single_propagator(n, 1.0, 0.8)
    got = evolve_positions(u, StateVector(tensor.ravel()))
    assert np.array_equal(got.amps.view(np.uint64), _gathered_drift(u, tensor).ravel().view(np.uint64))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_drift_holds_the_output_and_one_contraction_at_its_peak(k):
    # The output state plus the k/8 of a state that the second contraction
    # returns.  Placing the live columns through a transposed copy added
    # another k/8.
    n = 64
    state = _random_composite_state(np.random.default_rng(k), n)
    tensor = state.amps.reshape(n, n, 8).copy()
    tensor[:, :, k:] = 0.0
    state = StateVector(tensor.ravel())
    u = oc.single_propagator(n, 1.0, 0.8)
    evolve_positions(u, state)  # warm
    tracemalloc.start()
    try:
        evolve_positions(u, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1 + k / 8 + 0.02) * 128 * n**2


def test_live_column_scan_equals_any():
    # n = 97 is odd; column 3 holds only -0.0 (dead) and column 5 one subnormal (live).
    n = 97
    rng = np.random.default_rng(97)
    tensor = np.zeros((n, n, 8), dtype=np.complex128)
    tensor[:, :, [0, 6]] = rng.normal(size=(n, n, 2)) + 1j * rng.normal(size=(n, n, 2))
    tensor[:, :, 3] = complex(-0.0, -0.0)
    tensor[n - 1, 2, 5] = complex(0.0, 5e-324)
    tensor[:, :, 7].real[rng.random((n, n)) < 0.5] = -0.0
    for t in (tensor, tensor[:, :, ::-1].copy()):
        want = np.flatnonzero(t.any(axis=(0, 1)))
        np.testing.assert_array_equal(_live_columns(t), want)
    np.testing.assert_array_equal(_live_columns(tensor), [0, 5, 6])


def test_evolve_positions_requires_square_site_operator():
    state = StateVector(np.eye(8 * 6 * 6)[0])
    with pytest.raises(ValueError):
        evolve_positions(PAULI_X, state)
    with pytest.raises(ValueError):
        evolve_positions(np.eye(5), state)  # a lattice of another size than the state's
    with pytest.raises(ValueError):
        evolve_positions(np.eye(6), StateVector(np.eye(8 * 6 * 6 - 8)[0]))  # not 4 n^2 or 8 n^2


def test_position_occupancy_marginals():
    _, p1, p2 = _packets(12)
    psi = prepare_initial("distinguishable", p1, p2)
    occ1, occ2 = position_occupancy(psi)
    np.testing.assert_allclose(occ1, np.abs(p1.amps) ** 2, atol=1e-12)
    np.testing.assert_allclose(occ2, np.abs(p2.amps) ** 2, atol=1e-12)
    assert occ1.sum() == pytest.approx(1.0, abs=1e-12)
    assert occ2.sum() == pytest.approx(1.0, abs=1e-12)
    # after antisymmetrization the two slots carry the same marginal
    psi_f = prepare_initial("fermion", p1, p2)
    f1, f2 = position_occupancy(psi_f)
    np.testing.assert_allclose(f1, f2, atol=1e-12)
    np.testing.assert_allclose(f1, (np.abs(p1.amps) ** 2 + np.abs(p2.amps) ** 2) / 2, atol=1e-12)


def test_joint_position_probability():
    _, p1, p2 = _packets(12)
    psi = prepare_initial("distinguishable", p1, p2)
    # slot 1 lives on [0, 6), slot 2 on [6, 12)
    assert joint_position_probability(psi, range(0, 6), range(6, 12)) == pytest.approx(1.0, abs=1e-12)
    assert joint_position_probability(psi, range(6, 12), range(0, 6)) == pytest.approx(0.0, abs=1e-15)
    psi_f = prepare_initial("fermion", p1, p2)
    # either ordering carries half the weight for the antisymmetrized state
    assert joint_position_probability(psi_f, range(0, 6), range(6, 12)) == pytest.approx(0.5, abs=1e-12)


def test_joint_position_probability_counts_a_repeated_site_once():
    cfg = default_scenario()
    _, psi0 = prepare_scenario(cfg)
    o1, everywhere = list(cfg.o1.sites()), range(cfg.n)
    once = joint_position_probability(psi0, o1, everywhere)
    assert once == pytest.approx(0.5, abs=1e-12)  # packet 1 sits in O1, in slot 1 half the time
    assert joint_position_probability(psi0, o1 + o1, everywhere) == once
    assert joint_position_probability(psi0, o1, [*everywhere, *o1]) == once
    assert joint_position_probability(psi0, [o1[0]] * 3, [cfg.n - 1] * 2) == joint_position_probability(
        psi0, [o1[0]], [cfg.n - 1]
    )


def test_joint_position_probability_equals_full_tensor_formula():
    # squaring only the selected block gives the bits of squaring the whole
    # tensor and then selecting: same values, same summation order
    rng = np.random.default_rng(17)
    for n, k1, k2 in ((6, 3, 2), (13, 5, 7), (24, 12, 1)):
        psi = _random_composite_state(rng, n)
        amps = psi.amps.copy()
        amps[rng.random(amps.size) < 0.3] = complex(-0.0, -0.0)
        amps[rng.random(amps.size) < 0.2] *= 1e-160
        psi = StateVector(amps)
        sites1 = rng.choice(n, size=k1, replace=False)
        sites2 = rng.choice(n, size=k2, replace=False)
        old = float((np.abs(psi.amps.reshape(n, n, 8)) ** 2)[np.ix_(sites1, sites2)].sum())
        assert joint_position_probability(psi, sites1, sites2) == old
