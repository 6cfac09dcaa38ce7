"""Unit tests for the two-particle composite basis and exchange symmetry."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from nosignal import composite as composite_mod
from nosignal.composite import _sites, exchange_permutation, from_flat, to_flat
from nosignal.qcore import PAULI_X, reciprocal


def _packets(n=12):
    lat = make_lattice(n, 1.0)
    p1 = wavepacket(lat, Region(0, n // 2), n // 4, 1.0, 0.0)
    p2 = wavepacket(lat, Region(n // 2, n), 3 * n // 4, 1.0, 0.7)
    return lat, p1, p2


def _random_composite_state(rng, n):
    amps = rng.normal(size=8 * n * n) + 1j * rng.normal(size=8 * n * n)
    return from_flat(amps / np.linalg.norm(amps))


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
    # from_flat reads n and the width from a flat dimension, _sites from the columns.
    states = [from_flat(np.ones(k * n * n)) for n in (2, 3, 96) for k in (4, 8)]
    assert [(_sites(s), len(s.amps)) for s in states] == [(2, 4), (2, 8), (3, 4), (3, 8), (96, 4), (96, 8)]
    for dim in (1, 4, 8, 12, 96, 4 * 9 + 1, 8 * 36 - 8):  # n = 1 is no lattice
        with pytest.raises(ValueError, match="not of the composite form"):
            from_flat(np.ones(dim))
    square = np.ones((3, 3))
    for bad in (StateVector(np.ones(4 * 9)), StateVector((square,) * 2), StateVector((square,) * 5),
                StateVector((np.ones((3, 2)),) * 4), StateVector((np.ones((1, 1)),) * 4)):
        with pytest.raises(ValueError, match="not a composite column state"):
            _sites(bad)
    with pytest.raises(ValueError, match="live columns of one 2-D shape"):
        StateVector((None,) * 4)
    with pytest.raises(ValueError, match="live columns of one 2-D shape"):
        StateVector((square, np.ones((4, 4)), None, None))


def _columns_with(rng, n: int, width: int, live: list) -> np.ndarray:
    """Flat amplitudes of a ``width``-column state with random ``live`` columns, the others ``+0.0``."""
    tensor = np.zeros((n, n, width), dtype=np.complex128)
    tensor[:, :, live] = rng.normal(size=(n, n, len(live))) + 1j * rng.normal(size=(n, n, len(live)))
    return tensor.ravel()


@settings(max_examples=60, deadline=None)
@given(width=st.sampled_from([4, 8]), n=st.integers(2, 9), data=st.data())
def test_flat_conversion_round_trips_any_live_column_set(width, n, data):
    # A column of -0.0 only comes back absent (+0.0); a column holding one
    # subnormal stays live.  A spin-only state lands on q = 0 of the 8 n^2 basis.
    live = data.draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=width, unique=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    amps = _columns_with(rng, n, width, live)
    tensor = amps.reshape(n, n, width)
    dead = [c for c in range(width) if c not in live]
    minus_zero, subnormal = (dead[0], dead[1]) if len(dead) >= 2 else (None, None)
    if minus_zero is not None:
        tensor[:, :, minus_zero] = complex(-0.0, -0.0)
        tensor[n - 1, 0, subnormal] = complex(0.0, 5e-324)
    state = from_flat(amps)
    want_live = sorted(live + ([subnormal] if subnormal is not None else []))
    assert [c for c, x in enumerate(state.amps) if x is not None] == want_live
    assert all(x.flags.c_contiguous and not x.flags.writeable for x in state.amps if x is not None)
    flat = to_flat(state)
    assert flat.size == 8 * n * n
    step = 8 // width
    wide = flat.reshape(n, n, 8)
    for c in range(width):
        want = np.zeros((n, n), complex) if c == minus_zero else tensor[:, :, c]
        assert wide[:, :, step * c].tobytes() == want.tobytes()
    if width == 4:
        assert not np.any(np.signbit(wide[:, :, 1::2].copy().view(np.float64))) and not np.any(wide[:, :, 1::2])
        again = from_flat(flat[::2])
    else:
        again = from_flat(flat)
    assert to_flat(again).tobytes() == flat.tobytes()


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
        oc.antisymmetry_violation(6, to_flat(state)), abs=1e-12
    )


def _exchange_test_state(rng, n, kind):
    state = _random_composite_state(rng, n)
    tensor = to_flat(state).reshape(n, n, 8)
    if kind == "dead_columns":
        tensor[:, :, [1, 3, 5, 6, 7]] = 0.0
    elif kind == "partner_absent":  # |du> live and |ud> absent: each is the other's exchange partner
        tensor[:, :, [4, 5]] = 0.0
    elif kind == "negative_zero":
        tensor.real[rng.random(tensor.shape) < 0.3] = -0.0
        tensor.imag[rng.random(tensor.shape) < 0.3] = -0.0
        tensor[:, :, [1, 7]] = complex(-0.0, -0.0)
    return from_flat(tensor.ravel())


def _assert_same_floats(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.view(np.float64)), np.signbit(want.view(np.float64)))


@pytest.mark.parametrize("kind", ["random", "dead_columns", "partner_absent", "negative_zero"])
@pytest.mark.parametrize("n", [6, 37, 70])
def test_exchange_sector_maps_equal_permutation_reference(n, kind):
    # The flat amplitudes of the state (absent columns +0.0) and their image
    # under the exchange permutation: each sector column holds the bits of
    # the flat sum, scaled by the reciprocal of the column-state norm of
    # that sum.  The defect sums each pair of columns once, so it matches
    # the flat |(I + S) s| / (2 |s|) to rounding.
    rng = np.random.default_rng(n)
    state = _exchange_test_state(rng, n, kind)
    amps = to_flat(state)
    swapped = amps[exchange_permutation(n)]
    plus, minus = amps + swapped, amps - swapped
    want = float(np.linalg.norm(plus) / (2.0 * np.linalg.norm(amps)))
    assert antisymmetry_violation(state) == pytest.approx(want, rel=1e-14)
    _assert_same_floats(to_flat(symmetrize(state)), plus * reciprocal(from_flat(plus).norm))
    _assert_same_floats(to_flat(antisymmetrize(state)), minus * reciprocal(from_flat(minus).norm))
    if kind == "dead_columns":  # columns 0, 2 and 4 are live, and 4 is 2 exchanged: 1, 3, 5, 6, 7 stay absent
        assert [c for c, x in enumerate(symmetrize(state).amps) if x is None] == [1, 3, 5, 6, 7]


def test_antisymmetry_violation_allocates_one_state_beyond_its_input():
    # One (n, n) column beyond the input, the sum of a column and its
    # exchange partner's transpose, freed before the next pair is summed.
    n = 64
    state = _random_composite_state(np.random.default_rng(64), n)
    tracemalloc.start()
    try:
        antisymmetry_violation(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 16 * n**2


def test_exchange_sector_is_wrapped_without_a_copy():
    # Each sector column is one fresh C-contiguous array that owns its memory,
    # so freezing it marks all of it read-only and the state shares it.
    state = _random_composite_state(np.random.default_rng(7), 12)
    for sector in (antisymmetrize(state), symmetrize(state)):
        for x in sector.amps:
            assert x.base is None and x.flags.c_contiguous and not x.flags.writeable
            assert StateVector((x, None, None, None)).amps[0] is x


@pytest.mark.parametrize("statistics", ["fermion", "boson", "distinguishable"])
def test_prepare_initial_holds_two_states_at_its_peak(statistics):
    # Columns of 16 n^2 bytes: the product, the sector column built from
    # it and its normalized copy; while np.outer runs, the product and its
    # broadcast buffers of both operands, min(n^2, 8192) entries each, two
    # columns at n = 48.
    n = 48
    lat = make_lattice(n, 1.0)
    p1 = wavepacket(lat, Region(4, 10), 7.0, 1.5, 0.0)
    p2 = wavepacket(lat, Region(25, 37), 31.0, 3.0, np.pi / 2)
    tracemalloc.start()
    try:
        psi = prepare_initial(statistics, p1, p2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [x is None for x in psi.amps] == [False, True, True, True]  # only the (down, down) column
    assert peak <= (2 + 2 + 0.1) * 16 * n**2


def test_antisymmetrize_rejects_symmetric_input():
    # identical packets in both slots: the antisymmetric part vanishes
    lat = make_lattice(12, 1.0)
    pk = wavepacket(lat, Region(0, 12), 5.0, 2.0, 0.0)
    tensor = np.zeros((12, 12, 2, 2, 2), dtype=np.complex128)
    tensor[:, :, 0, 0, 0] = np.outer(pk.amps, pk.amps)
    state = from_flat(tensor.ravel())
    with pytest.raises(ValueError, match="[Pp]auli"):
        antisymmetrize(state)


def test_product_state_violation_value():
    # a disjoint-support product state sits exactly halfway: violation 1/sqrt(2)
    _, p1, p2 = _packets(12)
    tensor = np.zeros((12, 12, 2, 2, 2), dtype=np.complex128)
    tensor[:, :, 0, 0, 0] = np.outer(p1.amps, p2.amps)
    state = from_flat(tensor.ravel())
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
    np.testing.assert_allclose(to_flat(psi), want, atol=1e-12)


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


@pytest.mark.parametrize("statistics", ["fermion", "boson"])
def test_prepare_initial_refuses_overlapping_packets_before_building_their_product(statistics):
    # The overlap check reads the two packets alone: a refused config never
    # allocates the n x n product, one column of 16 n^2 bytes.
    n = 512
    packet = StateVector(np.full(n, 1.0 / np.sqrt(n), dtype=np.complex128))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="disjoint"):
            prepare_initial(statistics, packet, packet)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n**2


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
    # With no live column there is no state: its every column present and
    # zero, the drift leaves none, and no state is built.
    rng = np.random.default_rng(37)
    dead = np.setdiff1d(np.arange(8), list(live))
    tensor = to_flat(_random_composite_state(rng, n)).reshape(n, n, 8)
    tensor[:, :, dead] = 0.0
    _cut_to(tensor, support)
    u = oc.single_propagator(n, 1.0, 0.8)
    if not len(live):
        with pytest.raises(ValueError, match="live columns"):
            evolve_positions(u, StateVector(tuple(tensor[:, :, c].copy() for c in range(8))))
        return
    state = from_flat(tensor.ravel())
    got = evolve_positions(u, state)
    # (u (x) u (x) 1_8) v, with the identity factor acting on the 8 columns of v.
    want = (oc.kron_all(u, u) @ tensor.reshape(n * n, 8)).ravel()
    np.testing.assert_allclose(to_flat(got), want, atol=1e-12)
    assert all(got.amps[c] is None for c in dead)


def test_drifting_the_prepared_wavepackets_equals_a_full_contraction():
    # psi0's columns are nonzero only on the packets' sites, so the drift
    # contracts each over a few rows and columns of the 96.
    cfg = default_scenario()
    lat, psi0 = prepare_scenario(cfg)
    n, u = cfg.n, propagator(lat, cfg.t2)
    tensor = to_flat(psi0).reshape(n, n, 8)[:, :, ::2]
    assert 0 < np.count_nonzero(tensor.any(axis=(1, 2))) < n
    got = to_flat(evolve_positions(u, psi0)).reshape(n, n, 8)[:, :, ::2]
    want = np.stack([u @ tensor[:, :, c] @ u.T for c in range(4)], axis=-1)
    assert np.abs(got - want).max() <= 1e-15


def _gathered_drift(u: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """The drift's own GEMMs in plain numpy: each live column over its nonzero rows and columns, dead ones +0.0."""
    out = np.zeros(tensor.shape, dtype=complex)
    for c in np.flatnonzero(tensor.any(axis=(0, 1))):
        x = tensor[:, :, c].copy()
        rows, cols = np.flatnonzero(x.any(axis=1)), np.flatnonzero(x.any(axis=0))
        out[:, :, c] = (u[:, rows] @ x[np.ix_(rows, cols)]) @ u[:, cols].T
    return out


def _drifted_columns(u: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """The drift of the column state of ``tensor``, every column present in the input, as an ``(n, n, w)`` tensor."""
    got = evolve_positions(u, StateVector(tuple(tensor[:, :, c].copy() for c in range(tensor.shape[2]))))
    return np.stack([np.zeros(tensor.shape[:2], complex) if x is None else x for x in got.amps], axis=-1)


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
    # column's support is full, so the drift contracts it ungathered.  A
    # present column of -0.0 only comes out absent; with no live column at
    # all no state is built.
    rng = np.random.default_rng(n)
    tensor = _with_minus_zeros(rng, to_flat(_random_composite_state(rng, n)).reshape(n, n, 8), live)
    u = oc.single_propagator(n, 1.0, 0.8)
    if not live:
        with pytest.raises(ValueError, match="live columns"):
            _drifted_columns(u, tensor)
        return
    got = _drifted_columns(u, tensor)
    assert np.array_equal(got.view(np.uint64), _gathered_drift(u, tensor).view(np.uint64))
    assert np.array_equal(to_flat(evolve_positions(u, from_flat(tensor.ravel()))).view(np.uint64),
                          got.ravel().view(np.uint64))


@pytest.mark.parametrize("support", ["one-row", "two-intervals", "subnormal", "minus-zero-row"])
def test_drift_on_compact_supports_is_byte_exact(support):
    # The same, with each live column cut to a compact support that the
    # drift gathers.  A spin-only (n, n, 4) state, as the pipeline drifts.
    n, live = 37, [0, 2, 3]
    rng = np.random.default_rng(3)
    state = _random_composite_state(rng, n)
    tensor = _with_minus_zeros(rng, to_flat(state).reshape(n, n, 8)[:, :, :4].copy(), live)
    _cut_to(tensor, support)
    assert [x is not None for x in from_flat(tensor.ravel()).amps] == [True, False, True, True]  # a subnormal is live
    u = oc.single_propagator(n, 1.0, 0.8)
    got = _drifted_columns(u, tensor)
    assert np.array_equal(got.view(np.uint64), _gathered_drift(u, tensor).view(np.uint64))


class _Recording(np.ndarray):
    """An array that records the index of every ``[]`` taken of it, and answers with a plain array."""

    def __getitem__(self, key):
        self.keys.append(key)
        return np.asarray(self)[key]


@pytest.mark.parametrize("seed", range(12))
def test_drift_contracts_over_the_rows_and_columns_of_a_full_two_pass_scan(seed):
    # The drift finds its columns by scanning only its nonzero rows.  On
    # sparse inputs with -0.0 parts, rows of -0.0 and a few subnormal parts
    # it uses the rows and columns with a part that compares unequal to 0:
    # -0.0 counts as zero, a subnormal does not.  Every third input has a
    # subnormal in every row, so its column scan reads every row, and every
    # fourth one has one in every column.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 48))
    x = np.zeros((n, n), dtype=complex)
    on = (rng.random((n, 1)) < rng.random()) & (rng.random((1, n)) < rng.random())
    x[on] = rng.normal(size=np.count_nonzero(on)) + 1j * rng.normal(size=np.count_nonzero(on))
    x.real[rng.random((n, n)) < 0.3] = -0.0
    x.imag[rng.random((n, n)) < 0.3] = -0.0
    x[rng.random(n) < 0.2] = complex(-0.0, -0.0)
    x.real[tuple(rng.integers(0, n, size=(2, 3)))] = 5e-324
    if seed % 3 == 0:
        x.imag[np.arange(n), rng.integers(0, n, size=n)] = -2.5e-310
    if seed % 4 == 1:
        x.real[rng.integers(0, n, size=n), np.arange(n)] = 5e-324
    rows, cols = (np.flatnonzero((x != 0).any(axis=axis)) for axis in (1, 0))
    u = oc.single_propagator(n, 1.0, 0.8)
    spy = u.view(_Recording)
    spy.keys = []
    got = composite_mod._drift(spy, x)
    if rows.size == 0:
        assert got is None and spy.keys == []
        return
    used = [s if s.size < n else slice(None) for s in (rows, cols)]
    assert [key[0] for key in spy.keys] == [slice(None)] * 2
    for key, want in zip((key[1] for key in spy.keys), used):
        assert key == want if isinstance(want, slice) else isinstance(key, np.ndarray) and np.array_equal(key, want)
    want = (u[:, used[0]] @ x[used[0]][:, used[1]]) @ u[:, used[1]].T
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_drift_holds_the_output_and_one_contraction_at_its_peak(k):
    # The k output columns plus the one first contraction (16 n^2 bytes
    # each) that the second one reads.
    n = 64
    tensor = to_flat(_random_composite_state(np.random.default_rng(k), n)).reshape(n, n, 8)
    tensor[:, :, k:] = 0.0
    state = from_flat(tensor.ravel())
    u = oc.single_propagator(n, 1.0, 0.8)
    evolve_positions(u, state)  # warm
    tracemalloc.start()
    try:
        evolve_positions(u, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (k + 1 + 0.1) * 16 * n**2


def test_live_column_scan_equals_any():
    # from_flat keeps a column live where it has an entry other than +-0.0.
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
        np.testing.assert_array_equal([c for c, x in enumerate(from_flat(t.ravel()).amps) if x is not None], want)
    assert [c for c, x in enumerate(from_flat(tensor.ravel()).amps) if x is not None] == [0, 5, 6]


def test_evolve_positions_requires_square_site_operator():
    state = from_flat(np.eye(8 * 6 * 6)[0])
    with pytest.raises(ValueError):
        evolve_positions(PAULI_X, state)
    with pytest.raises(ValueError):
        evolve_positions(np.eye(5), state)  # a lattice of another size than the state's
    with pytest.raises(ValueError):
        evolve_positions(np.eye(6), StateVector(np.eye(8 * 6 * 6 - 8)[0]))  # not a column state


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
    assert joint_position_probability(psi, [], range(12)) == 0.0 == joint_position_probability(psi, range(12), [])
    for sites1, sites2 in (([12], [0]), ([0], [-1])):
        with pytest.raises(ValueError, match="out of lattice range"):
            joint_position_probability(psi, sites1, sites2)


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
        amps = to_flat(psi)
        amps[rng.random(amps.size) < 0.3] = complex(-0.0, -0.0)
        amps[rng.random(amps.size) < 0.2] *= 1e-160
        psi = from_flat(amps)
        sites1 = rng.choice(n, size=k1, replace=False)
        sites2 = rng.choice(n, size=k2, replace=False)
        whole = [(np.abs(x) ** 2)[np.ix_(sites1, sites2)].sum() for x in psi.amps]  # column by column, in order
        assert joint_position_probability(psi, sites1, sites2) == float(sum(whole))
