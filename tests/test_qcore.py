"""Unit tests for the state and measurement primitives."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

import nosignal
from nosignal import BranchEnsemble, StateVector
from nosignal import qcore
from nosignal.qcore import luders_update


def _random_state(rng, dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(amps / np.linalg.norm(amps))


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
        family.append(block @ block.conj().T)
    return family


def _measure(family, branches) -> list:
    """The Lueders update of ``branches`` by the projector arrays ``family``, one flat list."""
    return sum(luders_update(list(branches), [p.__matmul__ for p in family]), [])


_P0, _P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])


# ---------------------------------------------------------------------------
# package exports


def test_star_import_resolves_all_and_the_operator_algebra_is_gone():
    namespace = {}
    exec("from nosignal import *", namespace)
    assert set(nosignal.__all__) <= set(namespace)
    gone = ("CompositeSpace", "LinearOperator", "apply", "expectation", "identity", "luders_measure", "tensor_product")
    for name in gone:
        with pytest.raises(ImportError):
            exec(f"from nosignal import {name}", {})


# ---------------------------------------------------------------------------
# states


def test_state_vector_basics():
    s = StateVector(np.array([3.0, 4.0j]))
    assert s.dim == 2
    assert s.norm == pytest.approx(5.0)
    n = s.normalized()
    assert n.norm == pytest.approx(1.0)
    # amplitudes are frozen
    with pytest.raises(ValueError):
        s.amps[0] = 0.0
    for amps in (np.zeros(0), np.ones((2, 2))):
        with pytest.raises(ValueError, match="nonempty one-dimensional"):
            StateVector(amps)
    with pytest.raises(ValueError, match="zero state"):
        StateVector(np.zeros(3)).normalized()


def test_state_vector_shares_only_frozen_memory():
    src = np.array([1.0, 2.0j, 3.0])
    s = StateVector(src)
    src[0] = 9.0
    assert s.amps[0] == 1.0
    # a read-only view does not protect a writable base
    base = np.array([1.0, 2.0j, 3.0, 4.0])
    view = base[:3]
    view.setflags(write=False)
    s = StateVector(view)
    base[0] = 9.0
    assert s.amps[0] == 1.0
    owned = np.array([1.0, 2.0j, 3.0])
    owned.setflags(write=False)
    assert np.shares_memory(StateVector(owned).amps, owned)


@pytest.mark.parametrize("bad", [complex(np.inf, 0.0), complex(-np.inf, 1.0), complex(0.0, np.inf),
                                 complex(np.nan, 0.0), complex(0.0, np.nan)])
@pytest.mark.parametrize("frozen", [False, True])
def test_state_vector_rejects_non_finite_entries(bad, frozen):
    amps = np.zeros(1000, dtype=np.complex128)
    amps[617] = bad
    amps.setflags(write=not frozen)
    with pytest.raises(ValueError, match="finite"):
        StateVector(amps)


def test_state_vector_accepts_entries_whose_squares_overflow():
    # |1e200|^2 overflows the sum of squares; the exact scan accepts it
    amps = np.full(64, 1e200 - 1e200j)
    assert np.array_equal(StateVector(amps).amps, amps)
    assert StateVector(amps).norm == StateVector((amps.reshape(8, 8), None)).norm == np.inf  # not NaN
    amps[5] = complex(np.inf, 0.0)
    with pytest.raises(ValueError, match="finite"):
        StateVector(amps)


def test_reciprocal_multiply_has_the_bits_of_division():
    # normalized(), the selective detector and the exchange sectors scale by
    # qcore.reciprocal(d) = (1/d, -0.0) where numpy would divide by d; a numpy
    # whose division no longer equals this multiply fails here.  The divisors
    # keep every nonzero part of x / d off zero: an underflow to zero may
    # differ in the sign of that zero.
    parts = (0.0, -0.0, 1e-310, -1e-310, 1.5, -1.5, 3e300, -3e300)
    special = np.array([complex(re, im) for re in parts for im in parts])
    rng = np.random.default_rng(11)
    x = np.concatenate([special, rng.normal(size=4096) + 1j * rng.normal(size=4096)])
    for d in (1e-7, 0.3, 1.0, 1.7, 2.5e10):
        factor = qcore.reciprocal(d)
        want = (x / d).view(np.uint64)
        assert np.array_equal((x * factor).view(np.uint64), want)
        in_place = x.copy()
        in_place *= factor
        assert np.array_equal(in_place.view(np.uint64), want)
        divided = x.copy()
        divided /= np.float64(d)  # in place, by a numpy scalar
        assert np.array_equal(divided.view(np.uint64), want)


def test_each_state_is_scanned_once_when_built(monkeypatch):
    dim = 4096
    rng = np.random.default_rng(5)
    weights = (0.2, 0.3, 0.5)
    fresh = [a * math.sqrt(w) / np.linalg.norm(a)
             for w, a in zip(weights, rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim)))]
    calls = []

    def counted(f):
        def wrapper(a, *args, **kwargs):
            if np.size(a) in (dim, 2 * dim):  # the norm's real vdot reads the float view of the amplitudes
                calls.append(f.__name__)
            return f(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np, "vdot", counted(np.vdot))
    monkeypatch.setattr(np.linalg, "norm", counted(np.linalg.norm))
    states = []
    for amps in fresh:
        calls.clear()
        states.append(StateVector(amps))
        assert len(calls) == 1, calls
    calls.clear()
    BranchEnsemble(tuple(states))  # each weight is the squared norm taken when the state was built
    assert calls == []


def test_luders_update_takes_one_norm_per_outcome_and_none_per_input_branch(monkeypatch):
    # Two column-state branches of weight 1/2; three outcomes: one live column,
    # none (dropped unbuilt), two live columns.  A kept outcome is the arrays
    # its map returned, unscaled, and their one norm is its weight.
    n = 64
    rng = np.random.default_rng(9)
    branches = []
    for _ in range(2):
        x, y = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
        r = math.sqrt(0.5) / math.sqrt(np.vdot(x, x).real + np.vdot(y, y).real)
        branches.append(StateVector((x * r, y * r, None, None)))
    built = []

    def fresh(*cols):
        built.append(tuple(None if c is None else c.copy() for c in cols))
        return built[-1]

    outcomes = [lambda c: fresh(c[0], None, None, None), lambda c: fresh(None, None, None, None),
                lambda c: fresh(c[0], c[1], None, None)]
    calls = []
    vdot = np.vdot
    monkeypatch.setattr(np, "vdot", lambda a, *args: calls.append(np.size(a)) or vdot(a, *args))
    monkeypatch.setattr(np.linalg, "norm", lambda *args, **kwargs: calls.append("norm"))
    first, empty, both = luders_update(list(branches), outcomes)
    assert calls == [2 * n * n] * 6  # one real vdot a live column of the kept outcomes, nothing else
    assert empty == [] and len(first) == len(both) == 2
    kept = [a for pair in zip(first, both) for a in pair]
    for state, cols in zip(kept, [b for b in built if any(c is not None for c in b)]):
        assert all(a is b for a, b in zip(state.amps, cols) if b is not None)
    for state, whole, source in zip(first, both, branches):  # P_i psi as the map returned it, not rescaled
        assert state.amps[0].tobytes() == source.amps[0].tobytes()
        assert whole.norm == source.norm  # the identity outcome keeps the branch's weight


# ---------------------------------------------------------------------------
# ensembles


def test_branch_ensemble_validation():
    good = StateVector(np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="sum to 1"):
        BranchEnsemble((StateVector(np.array([math.sqrt(0.5), 0.0])),))  # weights sum to 0.5
    with pytest.raises(ValueError, match="sum to 1"):
        BranchEnsemble((StateVector(np.array([2.0, 0.0])),))
    with pytest.raises(ValueError, match="one basis"):
        BranchEnsemble((StateVector(np.array([0.6, 0.0])), StateVector(np.array([0.8, 0.0, 0.0]))))
    with pytest.raises(ValueError, match="at least one"):
        BranchEnsemble(())
    ens = BranchEnsemble.pure(good)
    assert ens.branch_count == 1
    assert ens.dim == 2


def test_branch_ensemble_weighs_a_branch_by_its_squared_norm():
    a, b = StateVector(np.array([0.6, 0.0])), StateVector(np.array([0.0, 0.8j]))
    ens = BranchEnsemble([a, b])
    assert ens.branches == (a, b) and [s.norm ** 2 for s in ens.branches] == pytest.approx([0.36, 0.64])
    for off in (-3 * qcore.WEIGHT_SUM_ATOL, 3 * qcore.WEIGHT_SUM_ATOL):  # off by more than the tolerance
        with pytest.raises(ValueError, match="sum to 1"):
            BranchEnsemble((a, StateVector(np.array([0.0, math.sqrt(0.64 + off)]))))
    BranchEnsemble((a, StateVector(np.array([0.0, math.sqrt(0.64 + qcore.WEIGHT_SUM_ATOL / 3)]))))
    with pytest.raises(ValueError, match="one basis"):
        BranchEnsemble((a, StateVector(np.array([0.0, 0.8, 0.0]))))
    with pytest.raises(TypeError, match="StateVector"):
        BranchEnsemble((a, np.array([0.0, 0.8])))
    with pytest.raises(TypeError, match="StateVector"):
        BranchEnsemble(((1.0, StateVector(np.array([1.0, 0.0]))),))  # a (weight, state) pair is no branch


# ---------------------------------------------------------------------------
# measurements


def test_luders_splits_plus_state():
    plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    ens = BranchEnsemble(_measure([_P0, _P1], [plus]))
    assert ens.branch_count == 2
    weights = sorted(s.norm ** 2 for s in ens.branches)
    assert weights == pytest.approx([0.5, 0.5])
    for state, amps in zip(ens.branches, ([1.0, 0.0], [0.0, 1.0])):  # P_i psi, unnormalized
        np.testing.assert_allclose(state.amps, np.array(amps) / np.sqrt(2.0), atol=1e-16)


def test_luders_prunes_zero_weight_branch():
    down = StateVector(np.array([1.0, 0.0]))
    hits, misses = luders_update([down], [_P0.__matmul__, _P1.__matmul__])
    assert misses == []
    assert [s.norm ** 2 for s in hits] == pytest.approx([1.0])


def test_luders_lists_branches_outcome_by_outcome():
    # Every branch of outcome 0, in input order, then every branch of outcome 1.
    a = StateVector(np.array([0.6, 0.8]))
    b = StateVector(np.array([0.8, 0.6j]))
    ra, rb = 0.5, math.sqrt(0.75)  # branches of weight 0.25 and 0.75
    ens = BranchEnsemble(_measure([_P0, _P1], [StateVector(ra * a.amps), StateVector(rb * b.amps)]))
    assert [s.norm ** 2 for s in ens.branches] == pytest.approx([0.25 * 0.36, 0.75 * 0.64, 0.25 * 0.64, 0.75 * 0.36])
    want = [[ra * 0.6, 0.0], [rb * 0.8, 0.0], [0.0, ra * 0.8], [0.0, rb * 0.6j]]
    for state, amps in zip(ens.branches, want):
        np.testing.assert_allclose(state.amps, amps, atol=1e-15)


def test_luders_update_frees_a_pruned_outcome_before_building_the_next():
    # Holding the pruned zero outcome while the kept one is built would put
    # two outcomes at the peak.
    state = _random_state(np.random.default_rng(3), 8 * 32**2)
    branches = [state]
    outcomes = [np.zeros_like, np.copy]  # the first has weight 0: pruned

    tracemalloc.start()
    try:
        pruned, kept = luders_update(branches, outcomes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert branches == [] and pruned == []
    assert [s.norm for s in kept] == [state.norm]
    assert peak <= 1.1 * state.amps.nbytes  # one outcome beyond the input


def test_luders_weight_conservation_randomized():
    rng = np.random.default_rng(17)
    for _ in range(200):
        dim = int(rng.integers(3, 13))
        groups = int(rng.integers(2, min(dim, 5)))
        family = _random_projector_family(rng, dim, groups)
        state = _random_state(rng, dim)
        ens = BranchEnsemble(_measure(family, [state]))
        total = sum(s.norm ** 2 for s in ens.branches)
        assert abs(total - 1.0) <= qcore.WEIGHT_SUM_ATOL
        # The ensemble is exactly the non-selective update of the pure input.
        rho = sum(np.outer(s.amps, s.amps.conj()) for s in ens.branches)
        want = sum(p @ np.outer(state.amps, state.amps.conj()) @ p for p in family)
        assert np.linalg.norm(rho - want) < 1e-12


def test_luders_chains_through_ensembles():
    rng = np.random.default_rng(29)
    state = _random_state(rng, 8)
    fam1 = _random_projector_family(rng, 8, 3)
    fam2 = _random_projector_family(rng, 8, 4)
    ens = BranchEnsemble(_measure(fam2, _measure(fam1, [state])))
    assert abs(sum(s.norm ** 2 for s in ens.branches) - 1.0) <= qcore.WEIGHT_SUM_ATOL
