"""Unit tests for the two-arm pipeline, its operators, and the reports."""

from __future__ import annotations

import ctypes
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import oracles as oc
from conftest import geometry_caches
from nosignal import (
    BranchEnsemble,
    PacketSpec,
    Region,
    ScenarioConfig,
    SignalingReport,
    StateVector,
    antisymmetry_violation,
    bell_projector,
    default_scenario,
    detector_coupling,
    make_lattice,
    prepare_initial,
    prepare_scenario,
    qubit_one_probability,
    run_arm_stages,
    run_naive_sorkin,
    run_scenario,
    wavepacket,
)
from nosignal import composite as composite_mod
from nosignal import lattice as lattice_mod
from nosignal import protocol as protocol_mod
from nosignal import qcore
from nosignal.cli import config_to_dict, emit_report, main as cli_main, report_to_dict
from nosignal.composite import evolve_positions, from_flat, joint_position_probability, to_flat
from nosignal.lattice import propagator
from nosignal.protocol import DETECTOR_MODES, PEAK_STATES, STAGES, PairBlocks, _detector_step
from nosignal.qcore import PAULI_X, PAULI_Y, PAULI_Z, luders_update


def _basic_config(**overrides):
    base = dict(
        n=10,
        o1=Region(0, 4),
        o3=Region(6, 10),
        packet1=PacketSpec(Region(0, 4), 1.5, 0.8, 0.0),
        packet2=PacketSpec(Region(4, 8), 5.5, 0.8, 1.2),
        t1=0.4,
        t2=0.8,
        eps=1.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def _joined(cols: tuple, n: int) -> np.ndarray:
    """A column tuple as flat amplitudes on its own width, an absent column ``+0.0`` (``to_flat`` for any tuple)."""
    return np.stack([np.zeros((n, n), dtype=np.complex128) if c is None else c for c in cols], axis=-1).ravel()


def _apply_flat(op: PairBlocks, amps: np.ndarray) -> np.ndarray:
    """``op.apply`` on flat amplitudes of its input width (``from_flat``'s columns), flat on its output width."""
    return _joined(op.apply(from_flat(amps).amps), op.n)


def _kernel_matrix(op: PairBlocks) -> np.ndarray:
    """Dense matrix of a position-controlled kernel: column j is ``op.apply(e_j)``.

    Spin-only maps give a ``4 n^2 x 4 n^2`` matrix, the detector couplings an ``8 n^2 x 4 n^2`` one.
    """
    return np.column_stack([_apply_flat(op, e) for e in np.eye(op.maps[0].shape[1] * op.n**2, dtype=np.complex128)])


def _lifted_coupling(n: int, o3: Region, mode: str) -> PairBlocks:
    """The detector coupling ``C`` unfolded: its maps on the pairs with a particle in O3, the identity elsewhere."""
    if mode == "label2":
        rects, maps = protocol_mod._occupied_rects(n, o3), (protocol_mod._COUPLING[1],) * 3
        return PairBlocks(n, rects, maps, rest_identity=True)
    return protocol_mod._by_occupant(n, o3, "O3", *protocol_mod._COUPLING, rest_identity=True)


def _occupancy_outcomes(n: int, o3: Region) -> tuple:
    """``(P, Q)``: the projector onto the pairs with a particle in O3, and its complement.

    The detector step builds only the outcome it applies: ``Q`` beside ``C P`` when it branches, ``P`` when it selects.
    """
    rects, (p, q) = protocol_mod._occupied_rects(n, o3), protocol_mod._OCCUPANCY
    return PairBlocks(n, rects, (p,) * 3, rest_identity=False), PairBlocks(n, rects, (q,) * 3, rest_identity=True)


def _kron_qubit(m: np.ndarray) -> np.ndarray:
    """A spin-only operator on the ``8 n^2`` basis: the identity on the qubit, which is the fastest index."""
    return np.kron(m, np.eye(2))


def _unitarity_defect(m: np.ndarray) -> float:
    """``|m^H m - 1|``: zero for a unitary, and for an isometry such as a detector coupling's ``q = 0`` columns."""
    return float(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[1])))


def _projector_defect(m: np.ndarray) -> float:
    return float(max(np.linalg.norm(m @ m - m), np.linalg.norm(m - m.conj().T)))


def _exchange_defect(n: int, mat: np.ndarray) -> float:
    """Frobenius norm of ``S mat S - mat`` for the oracle exchange ``S``, restricted to q = 0 on a spin-only side."""
    s = oc.exchange_matrix(n)
    s_out, s_in = (s if k == len(s) else s[::2, ::2] for k in mat.shape)
    return float(np.linalg.norm(s_out @ mat @ s_in - mat))


# ---------------------------------------------------------------------------
# configuration validation


def test_scenario_config_defaults():
    cfg = _basic_config()
    assert cfg.statistics == "fermion"
    assert cfg.kick_mode == "position"
    assert cfg.joint_mode == "none"
    assert cfg.detector_mode == "position"
    assert cfg.hopping == 1.0
    assert cfg.o2 is None
    assert not cfg.selective_o3
    assert cfg.t_total == pytest.approx(1.2)


def test_scenario_config_rejects_overlapping_regions():
    with pytest.raises(ValueError, match="O1, O3 disjoint"):
        _basic_config(o1=Region(0, 7))


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        _basic_config(n=7)
    with pytest.raises(ValueError):
        _basic_config(statistics="anyon")
    with pytest.raises(ValueError):
        _basic_config(kick_mode="label3")
    with pytest.raises(ValueError):
        _basic_config(joint_mode="bell")
    with pytest.raises(ValueError):
        _basic_config(detector_mode="global")
    with pytest.raises(ValueError):
        _basic_config(joint_mode="localized_bell")  # needs o2
    with pytest.raises(ValueError):
        _basic_config(t1=-0.5)
    with pytest.raises(ValueError):
        _basic_config(eps=0.0)
    with pytest.raises(ValueError):
        _basic_config(o3=Region(6, 11))  # exceeds lattice
    with pytest.raises(ValueError):
        _basic_config(packet2=PacketSpec(Region(4, 12), 5.5, 0.8, 0.0))
    with pytest.raises(ValueError, match="hopping must be positive"):
        _basic_config(hopping=0.0)
    with pytest.raises(ValueError, match="o1 must be a Region"):
        _basic_config(o1=(0, 4))
    with pytest.raises(ValueError, match="O2 must be a region inside the lattice"):
        _basic_config(o2=Region(6, 11))
    with pytest.raises(ValueError, match="packet1 must be a PacketSpec"):
        _basic_config(packet1=(Region(0, 4), 1.5, 0.8, 0.0))
    for field in ("center", "width", "momentum"):
        values = {"center": 1.5, "width": 0.8, "momentum": 0.0, field: math.nan}
        with pytest.raises(ValueError, match=f"packet {field} must be finite"):
            PacketSpec(Region(0, 4), **values)


def test_default_scenario_is_valid_and_overridable():
    cfg = default_scenario()
    assert cfg.n == 96
    assert cfg.o1 == Region(8, 20)
    assert cfg.o3 == Region(76, 88)
    assert cfg.joint_mode == "none"
    boson = default_scenario(statistics="boson")
    assert boson.statistics == "boson"
    assert boson.n == 96


# ---------------------------------------------------------------------------
# elementary operators against the dense reference


def test_bell_projector_matches_reference():
    pb = bell_projector()
    np.testing.assert_allclose(pb, oc.bell_projector4(), atol=1e-15)
    assert _projector_defect(pb) < 1e-14
    assert np.linalg.matrix_rank(pb) == 1
    with pytest.raises(ValueError, match="read-only"):
        pb[0, 0] = 0.0


def test_detector_coupling_matches_reference():
    d = detector_coupling()
    np.testing.assert_array_equal(d, oc.spin_qubit_coupling4())
    assert _unitarity_defect(d) < 1e-15
    np.testing.assert_allclose(d @ d, np.eye(4), atol=1e-15)
    with pytest.raises(ValueError, match="read-only"):
        d[0, 0] = 0.0


def test_kick_operator_position_mode():
    n = 8
    dim = 8 * n * n
    o1 = Region(1, 4)
    k = _kernel_matrix(protocol_mod._kick_blocks(n, o1, "position"))
    assert k.shape == (dim // 2,) * 2
    np.testing.assert_allclose(_kron_qubit(k), oc.kick_unitary(n, range(1, 4), "position"), atol=1e-14)
    assert _exchange_defect(n, k) <= 1e-12
    assert _unitarity_defect(k) < 1e-14
    np.testing.assert_allclose(k @ k, np.eye(dim // 2), atol=1e-14)


def test_kick_operator_label1_mode():
    n = 8
    o1 = Region(1, 4)
    k = _kernel_matrix(protocol_mod._kick_blocks(n, o1, "label1"))
    np.testing.assert_allclose(_kron_qubit(k), oc.kick_unitary(n, range(1, 4), "label1"), atol=1e-14)
    assert _exchange_defect(n, k) > 1e-12


def test_kick_flips_the_region_supported_wing():
    # For a fermion pair with packet 1 inside O1 and packet 2 outside, the
    # position kick acts exactly like flipping the spin riding on packet 1:
    # expected state assembled independently, index by index.
    n = 12
    lat = make_lattice(n, 1.0)
    o1 = Region(0, 6)
    p1 = wavepacket(lat, Region(0, 6), 2.5, 1.0, 0.0)
    p2 = wavepacket(lat, Region(6, 12), 8.5, 1.0, 0.9)
    dim = 8 * n * n
    psi0 = prepare_initial("fermion", p1, p2)
    kick = _kernel_matrix(protocol_mod._kick_blocks(n, o1, "position"))
    np.testing.assert_allclose(_kron_qubit(kick), oc.kick_unitary(n, range(0, 6), "position"), atol=1e-14)
    kicked = from_flat(kick @ to_flat(psi0)[::2])  # spin-only: the basis index with q = 0, halved

    want = np.zeros(dim, dtype=np.complex128)
    for x1 in range(n):
        for x2 in range(n):
            # slot 1 carries (packet1, spin up), slot 2 carries (packet2, down)
            want[oc.basis_index(n, x1, x2, 1, 0, 0)] += p1.amps[x1] * p2.amps[x2]
            want[oc.basis_index(n, x1, x2, 0, 1, 0)] -= p2.amps[x1] * p1.amps[x2]
    want /= np.linalg.norm(want)
    assert not np.any(want[1::2])
    np.testing.assert_allclose(to_flat(kicked), want, atol=1e-12)
    assert antisymmetry_violation(kicked) < 1e-14


def test_occupancy_projector_matches_reference():
    n = 8
    dim = 8 * n * n
    p, q = (_kernel_matrix(op) for op in _occupancy_outcomes(n, Region(5, 8)))
    want = np.diag(oc.union_occupancy_diag(n, range(5, 8)))
    np.testing.assert_array_equal(_kron_qubit(p), want)
    np.testing.assert_array_equal(_kron_qubit(q), np.eye(dim) - want)
    assert _projector_defect(p) == 0.0
    assert _exchange_defect(n, p) <= 1e-12


def test_position_detector_unitary_matches_reference():
    n = 8
    dim = 8 * n * n
    o3 = Region(5, 8)
    # The 8x8 unitaries whose q = 0 columns the detector keeps, placed on the same rectangles.
    unitaries = (protocol_mod._spin_qubit_map_8(1), protocol_mod._spin_qubit_map_8(2),
                 protocol_mod._both_in_region_coupling_8())
    full = _kernel_matrix(protocol_mod._by_occupant(n, o3, "O3", *unitaries, rest_identity=True))
    np.testing.assert_allclose(full, oc.position_detector(n, range(5, 8)), atol=1e-14)
    assert _unitarity_defect(full) < 1e-12
    np.testing.assert_allclose(full @ full, np.eye(dim), atol=1e-12)
    assert _exchange_defect(n, full) <= 1e-12
    v = _kernel_matrix(_lifted_coupling(n, o3, "position"))  # what a non-selective step applies
    assert v.shape == (dim, dim // 2)
    np.testing.assert_array_equal(v, full[:, ::2])
    assert _unitarity_defect(v) < 1e-12
    assert _exchange_defect(n, v) <= 1e-12
    # The occupied outcome C P: the coupling on the pairs with a particle in O3, zero elsewhere.
    occupied = oc.union_occupancy_diag(n, range(5, 8)).astype(bool)
    np.testing.assert_array_equal(_kernel_matrix(protocol_mod._detector_blocks(n, o3, "position")),
                                  np.where(occupied[:, None], v, 0))


# ---------------------------------------------------------------------------
# measurement procedures


def _fermion_pair_with_spin_up_in(n, window_lo, window_hi, up_packet, down_packet):
    """Antisymmetrized spin-only state: up_packet carries spin up, down_packet spin down."""
    dim = 8 * n * n
    amps = np.zeros(dim, dtype=np.complex128)
    for x1 in range(n):
        for x2 in range(n):
            amps[oc.basis_index(n, x1, x2, 1, 0, 0)] += up_packet[x1] * down_packet[x2]
            amps[oc.basis_index(n, x1, x2, 0, 1, 0)] -= down_packet[x1] * up_packet[x2]
    amps /= np.linalg.norm(amps)
    return from_flat(amps[::2])  # the q = 0 entries


def _packets_for_detector(n=12):
    lat = make_lattice(n, 1.0)
    inside = wavepacket(lat, Region(8, 12), 9.5, 1.0, 0.0)  # fully inside O3
    outside = wavepacket(lat, Region(0, 4), 1.5, 1.0, 0.0)
    return inside, outside


def test_position_detector_detects_and_keeps_antisymmetry():
    n = 12
    o3 = Region(8, 12)
    inside, outside = _packets_for_detector(n)
    psi = _fermion_pair_with_spin_up_in(n, o3.lo, o3.hi, inside.amps, outside.amps)
    out = BranchEnsemble(_detector_step(n, o3, "position", [psi]))
    assert out.branch_count == 1
    state = out.branches[0]
    assert state.norm ** 2 == pytest.approx(1.0)
    assert qubit_one_probability(out) == pytest.approx(1.0, abs=1e-12)
    assert antisymmetry_violation(state) < 1e-12


def test_label2_detector_breaks_antisymmetry():
    # Same input as above, but the label-addressed detector couples to slot
    # 2's spin regardless of which slot sits in the window.  The surviving
    # state mixes a flipped and an unflipped wing: pointer probability drops
    # to 1/2 and the exchange antisymmetry is broken by exactly 1/sqrt(2).
    n = 12
    o3 = Region(8, 12)
    inside, outside = _packets_for_detector(n)
    psi = _fermion_pair_with_spin_up_in(n, o3.lo, o3.hi, inside.amps, outside.amps)
    out = BranchEnsemble(_detector_step(n, o3, "label2", [psi]))
    assert out.branch_count == 1
    state = out.branches[0]
    assert state.norm ** 2 == pytest.approx(1.0, abs=1e-12)
    assert qubit_one_probability(out) == pytest.approx(0.5, abs=1e-12)
    assert antisymmetry_violation(state) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    want = np.zeros(8 * n * n, dtype=np.complex128)
    for x1 in range(n):
        for x2 in range(n):
            # unflipped wing: (inside, up)(outside, down), pointer 0
            want[oc.basis_index(n, x1, x2, 1, 0, 0)] += inside.amps[x1] * outside.amps[x2]
            # flipped wing: slot 2 spin up absorbed into pointer 1
            want[oc.basis_index(n, x1, x2, 0, 0, 1)] -= outside.amps[x1] * inside.amps[x2]
    want /= np.linalg.norm(want)
    np.testing.assert_allclose(to_flat(state), want, atol=1e-12)


def test_selective_detection_on_empty_window_raises():
    n = 12
    lat = make_lattice(n, 1.0)
    p1 = wavepacket(lat, Region(0, 4), 1.5, 1.0, 0.0)
    p2 = wavepacket(lat, Region(4, 8), 5.5, 1.0, 0.0)
    psi = prepare_initial("fermion", p1, p2)
    with pytest.raises(ValueError, match="empty outcome"):
        _detector_step(n, Region(8, 12), "position", [psi], selective=True)


def test_selective_hit_branch_is_the_csr_projection_byte_for_byte():
    n = 8
    dim = 8 * n * n
    o3 = Region(5, 8)
    rng = np.random.default_rng(7)
    amps = rng.normal(size=dim // 2) + 1j * rng.normal(size=dim // 2)
    psi = from_flat(amps / np.linalg.norm(amps))
    out = BranchEnsemble(_detector_step(n, o3, "position", [psi], selective=True))
    # The occupancy projection of the spin-only state, then the 8 n^2 x 4 n^2 coupling,
    # scaled by the reciprocal of the root of the hit's weight: the square of its
    # column-state norm (one vdot a column, summed in column order).
    occupied = oc.union_occupancy_diag(n, range(5, 8))[::2]
    arm = sp.csr_array(np.diag(occupied).astype(np.complex128)) @ to_flat(psi)[::2]
    coupling = _kernel_matrix(_lifted_coupling(n, o3, "position"))
    want = (sp.csr_array(coupling) @ arm) * qcore.reciprocal(math.sqrt(from_flat(arm).norm ** 2))
    assert out.branch_count == 1
    assert abs(out.branches[0].norm ** 2 - 1.0) <= qcore.WEIGHT_SUM_ATOL
    assert to_flat(out.branches[0]).tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", DETECTOR_MODES)
def test_a_selective_final_ensemble_carries_unit_weight(mode):
    # The hits hold only the occupied part of the arm; selection divides
    # them by the root of their total weight once.
    cfg = _basic_config(selective_o3=True, o3=Region(7, 10), joint_mode="global_bell", detector_mode=mode)
    for kicked in (False, True):
        stages = dict(protocol_mod._run_arm(cfg, prepare_scenario(cfg)[1], kicked))
        miss = sum(joint_position_probability(s, range(7), range(7)) for s in stages["pre_detector"].branches)
        assert 0.05 < miss < 0.95  # the post-selection drops a fair share of the arm
        assert abs(sum(s.norm ** 2 for s in stages["final"].branches) - 1.0) <= qcore.WEIGHT_SUM_ATOL


def test_label2_detector_lists_every_hit_before_every_miss():
    n = 8
    dim = 8 * n * n
    occupied = oc.union_occupancy_diag(n, range(5, 8)).astype(bool)
    rng = np.random.default_rng(11)
    states = []
    for scale_inside in (1.0, 3.0):  # two spin-only branches with different occupancies
        amps = rng.normal(size=dim // 2) + 1j * rng.normal(size=dim // 2)
        amps[occupied[::2]] *= scale_inside
        states.append(amps / np.linalg.norm(amps))
    weights = (0.3, 0.7)
    ens = BranchEnsemble(tuple(from_flat(a * math.sqrt(w)) for w, a in zip(weights, states)))
    out = BranchEnsemble(_detector_step(n, Region(5, 8), "label2", list(ens.branches)))
    p_in = [float(np.sum(np.abs(a[occupied[::2]]) ** 2)) for a in states]
    want = [0.3 * p_in[0], 0.7 * p_in[1], 0.3 * (1 - p_in[0]), 0.7 * (1 - p_in[1])]
    assert [s.norm ** 2 for s in out.branches] == pytest.approx(want, rel=1e-12)
    for k, state in enumerate(out.branches):
        assert state.dim == dim
        amps = to_flat(state)
        outside_outcome = ~occupied if k < 2 else occupied
        assert not np.any(amps[outside_outcome])
        if k >= 2:  # a miss is only lifted: the spin-only miss at the even indices, +0.0 at the odd ones
            miss = np.where(occupied[::2], 0.0, states[k - 2] * math.sqrt(weights[k - 2]))
            np.testing.assert_allclose(amps[::2], miss, rtol=1e-14, atol=0)
            assert not np.any(amps.view(np.uint64).reshape(-1, 2, 2)[:, 1])
            assert state.amps[1::2] == (None,) * 4  # no coupling ran: no q = 1 column was built


def test_label2_detector_lifts_a_miss_without_copying_its_columns(monkeypatch):
    n, o3 = 8, Region(5, 8)
    rng = np.random.default_rng(13)
    amps = rng.normal(size=4 * n * n) + 1j * rng.normal(size=4 * n * n)
    misses = []
    luders = protocol_mod.luders_update

    def recording(branches, outcomes):
        out = luders(branches, outcomes)
        misses.extend(out[1])
        return out

    monkeypatch.setattr(protocol_mod, "luders_update", recording)
    out = _detector_step(n, o3, "label2", [from_flat(amps / np.linalg.norm(amps))])
    miss, lifted = misses[0], out[1]
    assert all(a is b for a, b in zip(lifted.amps[::2], miss.amps)) and lifted.amps[1::2] == (None,) * 4


def _unfolded_detector_step(n: int, o3: Region, mode: str, branches: list, selective: bool) -> list:
    """The detector step as three passes: the occupancy P, the coupling of each hit, the scaling by P's weight."""
    coupling = _lifted_coupling(n, o3, mode)
    if mode == "position" and not selective:
        return [coupling(s) for s in branches]
    hits, misses = luders_update(branches, [op.apply for op in _occupancy_outcomes(n, o3)])
    images = [coupling.apply(s.amps) for s in hits]
    if selective:
        r = qcore.reciprocal(math.sqrt(sum(s.norm ** 2 for s in hits)))
        images, misses = [tuple(None if x is None else np.multiply(x, r, out=x) for x in cols)
                          for cols in images], []
    lifted = [StateVector(tuple(c for x in s.amps for c in (x, None))) for s in misses]
    return [StateVector(qcore.freeze(cols)) for cols in images] + lifted


@pytest.mark.parametrize("selective", [False, True], ids=["all", "selective"])
@pytest.mark.parametrize("mode", DETECTOR_MODES)
def test_folded_detector_step_has_the_bits_of_occupancy_then_coupling(mode, selective):
    # Two spin-only branches with -0.0 in about a fifth of their parts and
    # amplitude on every pair, the both-in-O3 square included, where the
    # position coupling mixes columns with coefficients 1/sqrt(2).  A few
    # seeds: a selective total read off the coupled hits, whose norms match
    # P's only to roundoff, moves the bits on about one input in five.
    n, o3 = 16, Region(10, 15)
    for seed in range(12):
        rng = np.random.default_rng(seed)
        branches = []
        for weight in (0.4, 0.6):
            cols = rng.normal(size=(4, n, n)) + 1j * rng.normal(size=(4, n, n))
            cols.real[rng.random(cols.shape) < 0.2] = -0.0
            cols.imag[rng.random(cols.shape) < 0.2] = -0.0
            cols *= math.sqrt(weight / qcore.squared_norm(tuple(cols)))
            branches.append(StateVector(tuple(c.copy() for c in cols)))
        assert all(np.signbit(x.real[x.real == 0]).any() and x[10:15, 10:15].any() for s in branches for x in s.amps)
        got = _detector_step(n, o3, mode, list(branches), selective)
        want = _unfolded_detector_step(n, o3, mode, list(branches), selective)
        assert len(got) == len(want) == (2 if selective or mode == "position" else 4)
        for a, b in zip(got, want):
            assert np.array_equal(to_flat(a).view(np.uint64), to_flat(b).view(np.uint64)), seed


def test_every_present_final_column_of_a_label2_global_bell_arm_is_nonzero():
    # The coupled hit is built on O3's rectangles only: no column of it is
    # copied from the rest of the pairs, where a hit is zero.
    cfg = default_scenario(kick_mode="label1", joint_mode="global_bell", detector_mode="label2")
    _, psi0 = prepare_scenario(cfg)
    for kicked in (False, True):
        final = dict(protocol_mod._run_arm(cfg, psi0, kicked))["final"]
        present = [x for s in final.branches for x in s.amps if x is not None]
        assert final.branch_count == 4 and all(x.any() for x in present)


def test_arrival_reads_o3_alone_with_the_bits_of_the_full_occupancy():
    # |x|^2 on O3's rows and columns only, every site's occupancy summed in
    # the order of the full n x n sums, one-site ranges included.
    cfg = default_scenario(kick_mode="label1", joint_mode="global_bell", detector_mode="label2")
    ens = dict(protocol_mod._run_arm(cfg, prepare_scenario(cfg)[1], False))["pre_detector"]
    full1, full2 = np.zeros(cfg.n), np.zeros(cfg.n)
    for state in ens.branches:
        prob = sum(np.abs(x) ** 2 for x in state.amps if x is not None)
        full1 += prob.sum(axis=1)
        full2 += prob.sum(axis=0)
    o3 = slice(cfg.o3.lo, cfg.o3.hi)
    for sites in [slice(None), o3] + [slice(k, k + 1) for k in (0, *range(cfg.o3.lo, cfg.o3.hi), cfg.n - 1)]:
        for got, want in zip(composite_mod.position_occupancy(ens, sites), (full1[sites], full2[sites])):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert run_scenario(cfg).arrival_prob == float(full1[o3].sum() + full2[o3].sum())


def test_only_a_branching_detector_builds_the_occupancy_projectors(monkeypatch):
    # An occupancy outcome is the one operation whose maps are all the 4x4 identity (P) or all zero (Q).
    built, post_init = [], PairBlocks.__post_init__
    monkeypatch.setattr(PairBlocks, "__post_init__", lambda self: built.append(self) or post_init(self))
    outcomes = {name: m.tobytes() for name, m in zip("PQ", protocol_mod._OCCUPANCY)}

    def occupancy(**overrides):
        built.clear()
        run_scenario(_basic_config(**overrides))
        return [name for op in built for name, m in outcomes.items() if all(x.tobytes() == m for x in op.maps)]

    assert occupancy() == []  # non-selective position detector
    assert occupancy(selective_o3=True, o3=Region(4, 10)) == ["P", "P"]  # one an arm: the hit it keeps
    assert occupancy(detector_mode="label2") == ["Q", "Q"]  # one an arm: the miss beside C P


@pytest.mark.parametrize("overrides, count", [
    (dict(joint_mode="localized_bell"), 7),  # scale288's kind: position kick and detector
    (dict(kick_mode="label1", joint_mode="global_bell", detector_mode="label2"), 9),  # label192's kinds
    (dict(kick_mode="label1", joint_mode="none", detector_mode="label2"), 5),
])
def test_each_arm_builds_every_operation_once(monkeypatch, overrides, count):
    # Per arm: the kick (kicked arm only), the joint pair (P, Q) if any, and the
    # detector's map, C lifted or C P with the occupancy miss Q.  None is
    # rebuilt from another one's rectangles and maps.
    built, post_init = [], PairBlocks.__post_init__
    monkeypatch.setattr(PairBlocks, "__post_init__", lambda self: built.append(self) or post_init(self))
    run_scenario(default_scenario(t1=3.0, t2=7.0, **overrides))  # the benchmark geometry at n = 96
    assert len(built) == count


def test_detector_and_localized_joint_reject_a_region_past_the_lattice():
    n = 8
    for mode in DETECTOR_MODES:
        for selective in (False, True):
            with pytest.raises(ValueError, match="exceeds the 8-site lattice"):
                _detector_step(n, Region(5, 9), mode, [], selective)
    with pytest.raises(ValueError, match="exceeds the 8-site lattice"):
        protocol_mod._joint_outcomes(n, "localized_bell", Region(5, 9))


def test_joint_measurement_none_is_identity(monkeypatch):
    # No outcome is built and no update runs: post_o2 is the t1 image of the post-kick branch itself.
    built = []
    monkeypatch.setattr(protocol_mod, "_joint_outcomes", lambda *args: built.append(args))
    monkeypatch.setattr(protocol_mod, "luders_update", lambda *args: built.append(args))
    cfg = _basic_config()
    lat, psi0 = prepare_scenario(cfg)
    for kicked in (False, True):
        stages = dict(protocol_mod._run_arm(cfg, psi0, kicked))
        (z,) = stages["post_o2"].branches
        want = protocol_mod.evolve_positions(propagator(lat, cfg.t1), stages["post_kick"].branches[0])
        assert to_flat(z).tobytes() == to_flat(want).tobytes()
    assert built == []


def test_joint_measurement_matches_reference_update():
    rng = np.random.default_rng(41)
    n = 8
    dim = 8 * n * n
    amps = rng.normal(size=dim // 2) + 1j * rng.normal(size=dim // 2)
    amps /= np.linalg.norm(amps)
    state = from_flat(amps)  # spin-only
    for mode, sites in (("global_bell", None), ("localized_bell", range(3, 6))):
        o2 = None if sites is None else Region(3, 6)
        outcomes = protocol_mod._joint_outcomes(n, mode, o2)
        out = BranchEnsemble(sum(luders_update([state], [op.apply for op in outcomes]), []))
        rho = oc.density_from_branches((1.0, to_flat(s)[::2]) for s in out.branches)
        projs = oc.joint_projectors(n, mode, sites)
        for p in projs:  # the identity on the qubit, so the q = 0 block acts on spin-only states
            np.testing.assert_array_equal(_kron_qubit(p[::2, ::2]), p)
        projs = [p[::2, ::2] for p in projs]
        rho_ref = sum(p @ np.outer(amps, amps.conj()) @ p for p in projs)
        assert np.linalg.norm(rho - rho_ref) < 1e-12
        assert abs(sum(s.norm ** 2 for s in out.branches) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# position-controlled kernels against the CSR mat-vec of their matrices


@pytest.mark.parametrize("n", [8, 12])
def test_kernels_match_materialized_operators_exactly(n):
    # Bytes, not ``==``: -0.0 and +0.0 differ.  The inputs hold both, and in
    # the last round two columns of -0.0 only, which the kernels take as absent.
    dim = 8 * n * n
    region, o2 = Region(2, 5), Region(4, 7)
    rng = np.random.default_rng(n)
    ops = {f"kick {mode}": protocol_mod._kick_blocks(n, region, mode) for mode in ("position", "label1")}
    for mode in ("global_bell", "localized_bell"):
        p, q = protocol_mod._joint_outcomes(n, mode, o2)
        ops[f"{mode} P"], ops[f"{mode} Q"] = p, q
    ops["occupancy P"], ops["occupancy Q"] = _occupancy_outcomes(n, region)
    for mode in ("position", "label2"):
        ops[f"detector {mode}"] = protocol_mod._detector_blocks(n, region, mode)
    ops["detector position lifted"] = _lifted_coupling(n, region, "position")
    # 8x8 maps on (n, n, 8) states: the unitaries whose q = 0 columns the detector keeps, and a global one.
    unitaries = (protocol_mod._spin_qubit_map_8(1), protocol_mod._spin_qubit_map_8(2),
                 protocol_mod._both_in_region_coupling_8())
    ops["detector position 8x8"] = protocol_mod._by_occupant(n, region, "O3", *unitaries, rest_identity=True)
    ops["global 8x8"] = PairBlocks(n, ((slice(None), slice(None)),), (unitaries[1],), False)
    ops["global 8x4"] = PairBlocks(n, ((slice(None), slice(None)),), (unitaries[1][:, ::2],), False)
    matrices = {name: _kernel_matrix(op) for name, op in ops.items()}
    widths = {name: op.maps[0].shape for name, op in ops.items()}
    assert {widths[name] for name in ops if "8x8" not in name} == {(4, 4), (8, 4)}
    for k in range(3):
        for name, op in ops.items():
            amps = rng.normal(size=matrices[name].shape[1]) + 1j * rng.normal(size=matrices[name].shape[1])
            parts = amps.view(np.float64)
            parts[rng.random(parts.size) < 0.2] = -0.0
            parts[rng.random(parts.size) < 0.1] = 0.0
            if k == 2:
                amps.reshape(n * n, -1)[:, [1, 2]] = complex(-0.0, -0.0)
            want = sp.csr_array(matrices[name]) @ amps
            assert _apply_flat(op, amps).view(np.float64).tobytes() == want.view(np.float64).tobytes(), name
    # label2: the coupling on slot 2's spin on the O3-occupied pairs, zero elsewhere, on the
    # q = 0 columns (spin-only inputs); position: the lifted coupling, zero off those pairs.
    occupied = oc.union_occupancy_diag(n, region.sites()).astype(bool)
    coupling = np.kron(np.eye(2 * n * n), detector_coupling())
    label2 = np.where(occupied[:, None], coupling, 0)
    assert matrices["detector label2"].shape == (dim, dim // 2)
    np.testing.assert_array_equal(matrices["detector label2"], label2[:, ::2])
    lifted = matrices["detector position lifted"]
    np.testing.assert_array_equal(lifted, matrices["detector position 8x8"][:, ::2])
    np.testing.assert_array_equal(matrices["detector position"], np.where(occupied[:, None], lifted, 0))


def test_an_output_column_whose_sources_are_all_absent_stays_absent():
    # A spin-only state with only its (down, down) column: the Bell pair maps
    # it to |dd> and |uu>, so |du> and |ud> have no source; the slot-2
    # coupling leaves every q = 1 column without one.
    n = 8
    x = np.random.default_rng(2).normal(size=(n, n)) + 0j
    for op in protocol_mod._joint_outcomes(n, "global_bell", None) + protocol_mod._joint_outcomes(n, "localized_bell",
                                                                                                  Region(2, 5)):
        assert [c is None for c in op.apply((x, None, None, None))] == [False, True, True, False]
    for mode in DETECTOR_MODES:
        out = protocol_mod._detector_blocks(n, Region(5, 8), mode).apply((x, None, None, None))
        assert [c is None for c in out] == [False, True, True, True, True, True, True, True]


def test_label2_coupling_on_occupied_branches_equals_the_global_map_byte_for_byte():
    n = 12
    dim = 8 * n * n
    o3 = Region(7, 11)
    rng = np.random.default_rng(3)
    coupling = protocol_mod._detector_blocks(n, o3, "label2")  # 4 -> 8
    everywhere = PairBlocks(n, ((slice(None), slice(None)),), (protocol_mod._spin_qubit_map_8(2)[:, ::2],), True)
    occupied, unoccupied = _occupancy_outcomes(n, o3)
    for _ in range(3):
        amps = rng.normal(size=dim // 2) + 1j * rng.normal(size=dim // 2)
        parts = amps.view(np.float64)
        parts[rng.random(parts.size) < 0.2] = -0.0
        hit = _apply_flat(occupied, amps)
        hit /= np.linalg.norm(hit)
        assert _apply_flat(coupling, hit).tobytes() == _apply_flat(everywhere, hit).tobytes()
        # The occupied outcome C P has no rest: on an unoccupied branch it is +0.0 everywhere.
        miss = _apply_flat(unoccupied, amps)
        miss /= np.linalg.norm(miss)
        assert _apply_flat(coupling, miss).tobytes() == np.zeros(dim, dtype=np.complex128).tobytes()


def test_joint_measurement_equals_luders_on_materialized_projectors():
    n = 8
    dim = 8 * n * n
    rng = np.random.default_rng(5)
    amps = rng.normal(size=dim // 2) + 1j * rng.normal(size=dim // 2)
    ens = BranchEnsemble.pure(from_flat(amps / np.linalg.norm(amps)))  # spin-only
    for mode in ("global_bell", "localized_bell"):
        outcomes = protocol_mod._joint_outcomes(n, mode, Region(3, 6))
        got = BranchEnsemble(sum(luders_update(list(ens.branches), [op.apply for op in outcomes]), []))
        matrices = [_kernel_matrix(op) for op in outcomes]
        assert max(map(_projector_defect, matrices)) < 1e-14
        assert np.linalg.norm(matrices[0] @ matrices[1]) < 1e-14
        assert np.linalg.norm(sum(matrices) - np.eye(dim // 2)) < 1e-14
        # The CSR mat-vec of each projector on the column state's flat amplitudes, back on columns.
        outcomes = [lambda cols, c=sp.csr_array(m): tuple(
            None if x is None else x.copy() for x in from_flat(c @ _joined(cols, n)).amps) for m in matrices]
        want = BranchEnsemble(sum(luders_update(list(ens.branches), outcomes), []))
        assert [s.norm for s in got.branches] == [s.norm for s in want.branches]
        for a, b in zip(got.branches, want.branches):
            assert to_flat(a).tobytes() == to_flat(b).tobytes()


def test_build_rejects_tampered_8x8_maps():
    p8 = np.kron(bell_projector(), np.eye(2))
    with pytest.raises(ValueError, match="resolve the identity"):
        protocol_mod._checked((p8, 0.5 * (np.eye(8) - p8)))
    with pytest.raises(ValueError, match="not orthogonal"):
        protocol_mod._checked((0.5 * np.eye(8), 0.5 * np.eye(8)))
    skew = np.triu(np.ones((8, 8)))
    with pytest.raises(ValueError, match="Hermitian"):
        protocol_mod._checked((skew, np.eye(8) - skew))
    with pytest.raises(ValueError, match="not unitary"):
        protocol_mod._checked(2.0 * np.eye(8))


def _counted(calls: list, name: str, f):
    """``f``, appending ``name`` to ``calls`` on every call."""
    def wrapper(*args, **kwargs):
        calls.append(name)
        return f(*args, **kwargs)
    return wrapper


def test_fixed_maps_are_checked_once_at_import(monkeypatch, cold_caches):
    # The 8x8 maps are module constants: building an operation on a new geometry only places them.
    calls = []
    monkeypatch.setattr(protocol_mod, "_checked", _counted(calls, "map check", protocol_mod._checked))
    run_scenario(default_scenario(joint_mode="global_bell", detector_mode="label2"))
    run_scenario(default_scenario(joint_mode="localized_bell", selective_o3=True))
    assert calls == []
    for m in (*protocol_mod._FLIP, *protocol_mod._COUPLING, *protocol_mod._BELL, *protocol_mod._OCCUPANCY):
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 1.0


@pytest.mark.parametrize("tamper, message", [("scale", "must sum to 1"), ("nan", "finite")])
def test_pipeline_rejects_a_tampered_branch(monkeypatch, tmp_path, capsys, tamper, message):
    # A kernel's output is checked where the pipeline wraps it: the run fails with the check's ValueError.
    apply = PairBlocks.apply

    def tampered(self, cols):
        out = apply(self, cols)
        live = [c for c in out if c is not None]
        if tamper == "scale":
            for c in live:
                c *= 1.5  # finite, but the branch weights no longer sum to 1
        else:
            live[-1][len(live[-1]) // 2, 0] = np.nan
        return out

    monkeypatch.setattr(PairBlocks, "apply", tampered)
    cfg = _basic_config()
    with pytest.raises(ValueError, match=message):
        run_scenario(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "report.json")]) == 2
    assert message in capsys.readouterr().err


def test_operators_are_read_only():
    n, o1, o3 = 12, Region(0, 4), Region(8, 12)
    ops = [
        protocol_mod._kick_blocks(n, o1, "position"),
        *protocol_mod._joint_outcomes(n, "global_bell", None),
        protocol_mod._detector_blocks(n, o3, "label2"),
        *_occupancy_outcomes(n, o3),
    ]
    for op in ops:
        for m in op.maps:
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 1.0
    u = propagator(make_lattice(n, 1.0), 1.5)
    assert propagator(make_lattice(n, 1.0), 1.5) is u
    with pytest.raises(ValueError, match="read-only"):
        u[0, 0] = 0.0
    m = np.eye(8)
    blocks = PairBlocks(n, ((slice(None), slice(None)),), (m,), False)
    m[0, 0] = 2.0  # the operation keeps its own copy
    assert blocks.maps[0][0, 0] == 1.0


def _label2_scenario(**overrides):
    return default_scenario(joint_mode="localized_bell", detector_mode="label2", **overrides)


def test_the_package_caches_only_what_costs_milliseconds():
    # Each kept cache saves a kernel call or a drift milliseconds a scenario (README, "Caches").
    assert {cache.__name__ for cache in geometry_caches()} == {"propagator", "_eigensystem"}


def test_a_second_scenario_on_one_geometry_calls_no_eigh_product_or_map_check(monkeypatch, cold_caches):
    run_scenario(_label2_scenario())
    misses = [cache.cache_info().misses for cache in cold_caches]
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", _counted(calls, "eigh", np.linalg.eigh))
    # Every propagator product with t > 0 starts by reading the eigensystem.
    monkeypatch.setattr(lattice_mod, "_eigensystem", _counted(calls, "propagator", lattice_mod._eigensystem))
    monkeypatch.setattr(protocol_mod, "_checked", _counted(calls, "map check", protocol_mod._checked))
    packet2 = PacketSpec(Region(50, 74), 62.3, 6.0, math.pi / 2)
    report = run_scenario(_label2_scenario(statistics="boson", packet2=packet2))
    assert report.certificate.passed
    assert calls == []
    assert [cache.cache_info().misses for cache in cold_caches] == misses


def test_cold_caches_give_the_same_report_bytes(cold_caches):
    cfg = _label2_scenario(kick_mode="label1")

    def report_bytes():
        return emit_report(report_to_dict(run_scenario(cfg), cfg, seed=0, duration_seconds=0.0))

    cold = report_bytes()
    warm = report_bytes()
    assert sum(cache.cache_info().hits for cache in cold_caches) > 0
    for cache in cold_caches:
        cache.cache_clear()
    assert report_bytes() == warm == cold


# ---------------------------------------------------------------------------
# the steps whose exchange violation the report skips


def _swapped(cols: tuple) -> tuple:
    """``S`` on a column tuple, exactly: column ``(s1, s2[, q])`` is the transpose of column ``(s2, s1[, q])``."""
    q_bits = len(cols) // 4 - 1  # 0 on four spin columns, 1 on eight (s1, s2, q) ones
    def source(c):
        s1, s2, q = c >> (1 + q_bits), (c >> q_bits) & 1, c & q_bits
        return (s2 << (1 + q_bits)) | (s1 << q_bits) | q
    return tuple(None if cols[source(c)] is None else np.ascontiguousarray(cols[source(c)].T) for c in range(len(cols)))


def _random_column_state(rng, n: int) -> StateVector:
    """A normalized four-column state with amplitude on every pair, about a fifth of its parts ``-0.0``."""
    cols = rng.normal(size=(4, n, n)) + 1j * rng.normal(size=(4, n, n))
    parts = cols.view(np.float64)
    parts[rng.random(parts.shape) < 0.2] = -0.0
    cols /= math.sqrt(qcore.squared_norm(tuple(cols)))
    return StateVector(tuple(c.copy() for c in cols))


def test_the_steps_the_exchange_check_skips_commute_with_the_exchange_bit_for_bit():
    # run_scenario measures the exchange violation only after preparation, a
    # label-addressed step or a Lueders split.  Each step it skips commutes
    # with S, so it keeps every branch's violation; this checks S A x = A S x
    # byte for byte on random inputs and regions, where the report would see
    # one config's roundoff.  The drift commutes only to rounding (8e-16).
    n = 24
    for seed in range(20):
        rng = np.random.default_rng(seed)
        o1, o2, o3 = (Region(int(lo), int(lo + rng.integers(1, n // 2))) for lo in rng.integers(0, n // 2, size=3))
        x = _random_column_state(rng, n)
        sx = StateVector(_swapped(x.amps))

        def both_orders(step):
            """``S A x`` and ``A S x`` for ``step``, the map ``A`` on column tuples, as flat arrays."""
            return _joined(_swapped(step(x.amps)), n), _joined(step(sx.amps), n)

        skipped = {"position kick": protocol_mod._kick_blocks(n, o1, "position").apply,
                   "position coupling": _lifted_coupling(n, o3, "position").apply,
                   "detector position": protocol_mod._detector_blocks(n, o3, "position").apply,
                   # the non-selective position detector as the arm runs it
                   "detector step": lambda cols: _detector_step(n, o3, "position", [StateVector(cols)])[0].amps}
        for mode in ("global_bell", "localized_bell"):
            p, q = protocol_mod._joint_outcomes(n, mode, o2)
            skipped[f"{mode} P"], skipped[f"{mode} Q"] = p.apply, q.apply
        p, q = _occupancy_outcomes(n, o3)
        skipped["occupancy P"], skipped["occupancy Q"] = p.apply, q.apply
        for name, step in skipped.items():
            a, b = both_orders(step)
            assert a.tobytes() == b.tobytes(), (seed, name)
        u = propagator(make_lattice(n, 1.0), float(rng.uniform(0.5, 4.0)))
        a, b = both_orders(lambda cols: evolve_positions(u, StateVector(cols)).amps)
        assert np.linalg.norm(a - b) <= 1e-14 * np.linalg.norm(b), seed
        # The label-addressed steps, which the report keeps checking, do not commute.
        for op in (protocol_mod._kick_blocks(n, o1, "label1"), protocol_mod._detector_blocks(n, o3, "label2")):
            a, b = both_orders(op.apply)
            assert np.linalg.norm(a - b) > 0.1 * np.linalg.norm(b), seed


# ---------------------------------------------------------------------------
# the label pipeline closed forms


def test_naive_closed_forms_for_named_observables():
    assert run_naive_sorkin(PAULI_Z, kick=False) == pytest.approx(0.0, abs=1e-14)
    assert run_naive_sorkin(PAULI_Z, kick=True) == pytest.approx(-1.0, abs=1e-14)
    assert run_naive_sorkin(PAULI_X, kick=False) == pytest.approx(0.0, abs=1e-14)
    assert run_naive_sorkin(PAULI_X, kick=True) == pytest.approx(0.0, abs=1e-14)
    assert run_naive_sorkin(PAULI_Y, kick=True) == pytest.approx(0.0, abs=1e-14)
    for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
        assert pauli.shape == (2, 2) and np.array_equal(pauli, pauli.conj().T)
        with pytest.raises(ValueError, match="read-only"):
            pauli[0, 0] = 1.0
    eye = np.eye(2)
    assert run_naive_sorkin(eye, kick=False) == pytest.approx(1.0, abs=1e-14)
    assert run_naive_sorkin(eye, kick=True) == pytest.approx(1.0, abs=1e-14)


def test_naive_closed_forms_frozen_matrix():
    obs = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, -0.7]])
    assert run_naive_sorkin(obs, kick=False) == pytest.approx(-0.2, abs=1e-14)
    assert run_naive_sorkin(obs, kick=True) == pytest.approx(0.3, abs=1e-14)


def test_naive_matches_reference_for_random_observables():
    rng = np.random.default_rng(43)
    for _ in range(50):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c = (a + a.conj().T) / 2
        want_nokick, want_kick = oc.naive_expectations(c)
        assert run_naive_sorkin(c, kick=False) == pytest.approx(want_nokick, abs=1e-12)
        assert run_naive_sorkin(c, kick=True) == pytest.approx(want_kick, abs=1e-12)


def test_naive_rejects_bad_observables():
    with pytest.raises(ValueError, match="not Hermitian"):
        run_naive_sorkin(np.array([[0.0, 1.0], [0.0, 0.0]]), kick=False)
    with pytest.raises(ValueError, match="single-spin"):
        run_naive_sorkin(np.eye(4), kick=False)
    with pytest.raises(ValueError, match="finite"):
        run_naive_sorkin(np.array([[np.nan, 0.0], [0.0, 1.0]]), kick=True)


# ---------------------------------------------------------------------------
# arms and scenarios


def test_qubit_one_probability_counts_odd_indices():
    n = 8
    dim = 8 * n * n
    up = np.zeros(dim, dtype=np.complex128)
    up[1] = 1.0  # q = 1
    down = np.zeros(dim, dtype=np.complex128)
    down[0] = 1.0  # q = 0
    ens = BranchEnsemble((from_flat(0.5 * up), from_flat(math.sqrt(0.75) * down)))
    assert qubit_one_probability(ens) == pytest.approx(0.25, abs=1e-15)


def test_qubit_one_probability_reads_the_layout_from_the_dimension():
    # A spin-only state (four columns) with s2 = up, an odd column: its qubit is |0> by layout.
    n = 8
    dim = 8 * n * n
    spin_only = np.zeros(dim // 2, dtype=np.complex128)
    spin_only[1] = 1.0  # s1 = down, s2 = up
    assert qubit_one_probability(BranchEnsemble.pure(from_flat(spin_only))) == 0.0
    seven = np.full(7, 1 / math.sqrt(7), dtype=np.complex128)
    with pytest.raises(ValueError, match="not a composite column state"):
        qubit_one_probability(BranchEnsemble.pure(StateVector(seven)))


def test_run_arm_stages_structure():
    cfg = _basic_config()
    stages = run_arm_stages(cfg, kicked=True)
    assert tuple(stages.keys()) == STAGES
    for name in STAGES:
        total = sum(s.norm ** 2 for s in stages[name].branches)
        assert abs(total - 1.0) <= 1e-10
    # the unkicked arm has identical prepared and post_kick snapshots
    quiet = run_arm_stages(cfg, kicked=False)
    s0 = quiet["prepared"].branches[0]
    s1 = quiet["post_kick"].branches[0]
    np.testing.assert_array_equal(to_flat(s0), to_flat(s1))


def _owner(cols) -> np.ndarray:
    """The array that owns the memory of the first live column of ``cols``, a column tuple or a state."""
    arr = next(c for c in getattr(cols, "amps", cols) if c is not None)
    while arr.base is not None:
        arr = arr.base
    return arr


def test_run_scenario_frees_the_first_arms_stages(monkeypatch):
    # Stronger than "the first arm is freed before the second": each stage is
    # freed before the next one is yielded, in both arms.
    run_arm = protocol_mod._run_arm
    seen = []

    def tracking(cfg, psi0, kicked, *window):
        refs = []  # weak references to the memory of the previous stage's states
        for name, ens in run_arm(cfg, psi0, kicked, *window):
            assert [r() for r in refs] == [None] * len(refs), name
            refs = [weakref.ref(_owner(s.amps)) for s in ens.branches if s is not psi0]
            seen.append((name, len(refs)))
            yield name, ens
            del ens

    monkeypatch.setattr(protocol_mod, "_run_arm", tracking)
    report = run_scenario(_basic_config(joint_mode="global_bell"))
    assert [name for name, _ in seen] == [*STAGES[:3], "pre_detector", "final"] * 2
    assert sum(count for _, count in seen) >= 8  # post_o2 and later hold two branches each
    assert report.branch_count_kick >= 1


def test_the_kicked_arm_frees_psi0_once_its_kick_is_built(monkeypatch):
    # run_scenario hands psi0 to both arms and drops it: the unkicked arm's
    # drifts still see it alive, the kicked arm's drifts no longer.
    prepare, drift, psi0, alive = protocol_mod.prepare_scenario, protocol_mod.evolve_positions, [], []

    def preparing(cfg):
        lat, state = prepare(cfg)
        psi0.append(weakref.ref(state))
        return lat, state

    def drifting(*args):
        alive.append(psi0[0]() is not None)
        return drift(*args)

    monkeypatch.setattr(protocol_mod, "prepare_scenario", preparing)
    monkeypatch.setattr(protocol_mod, "evolve_positions", drifting)
    report = run_scenario(_basic_config())
    assert alive == [True, True, False, False]
    assert report.max_antisym_violation <= 1e-10


def test_each_step_frees_an_input_branch_once_its_images_are_built(monkeypatch):
    # A two-branch label2 arm.  The t2 step drifts the sources M_k Y of the
    # Bell outcomes, not the post_o2 branches: when it builds either image,
    # both post_o2 branches are already freed, and when it drifts source 2,
    # source 1 is.  When the detector builds the outcomes of branch 2,
    # branch 1 is already freed.
    run_arm, drift, apply = protocol_mod._run_arm, protocol_mod.evolve_positions, PairBlocks.apply
    inputs, checked = {}, []  # stage name -> weak references to its branches' memory
    latest, sources = [], []  # the stage last yielded; the t2 drift inputs of the arm

    def tracking(*args):
        sources.clear()
        for name, ens in run_arm(*args):
            inputs[name] = [weakref.ref(_owner(s.amps)) for s in ens.branches if s is not None]
            latest[:] = [name]
            yield name, ens
            del ens

    def drifting(u, state, *rest):
        if latest == ["post_o2"]:
            assert [r() for r in inputs["post_o2"]] == [None, None]
            checked.append("post_o2")
            if sources:
                assert sources[-1]() is None
                checked.append("source")
            sources.append(weakref.ref(_owner(state)))
        return drift(u, state, *rest)

    def applying(self, amps):
        refs = inputs.get("pre_detector", [])
        if latest == ["pre_detector"] and _owner(amps) is refs[1]():
            assert refs[0]() is None
            checked.append("pre_detector")
        return apply(self, amps)

    monkeypatch.setattr(protocol_mod, "_run_arm", tracking)
    monkeypatch.setattr(protocol_mod, "evolve_positions", drifting)
    monkeypatch.setattr(PairBlocks, "apply", applying)
    report = run_scenario(_basic_config(kick_mode="label1", joint_mode="global_bell", detector_mode="label2"))
    assert report.branch_count_kick == report.branch_count_nokick == 4
    # per arm: two t2 drifts, the second after source 1 is freed, and the two occupancy outcomes of branch 2
    assert checked == ["post_o2", "post_o2", "source", "pre_detector", "pre_detector"] * 2


def _n48_config() -> ScenarioConfig:
    # label1 kick, global Bell joint, label2 detector: four branches an arm
    # after the detector.
    return ScenarioConfig(
        n=48,
        o1=Region(4, 10),
        o2=Region(20, 26),
        o3=Region(38, 44),
        packet1=PacketSpec(Region(4, 10), 7.0, 1.5, 0.0),
        packet2=PacketSpec(Region(25, 37), 31.0, 3.0, math.pi / 2),
        kick_mode="label1",
        joint_mode="global_bell",
        detector_mode="label2",
        t1=1.5,
        t2=3.5,
    )


def test_run_scenario_peak_memory_in_states():
    # Traced peak in units of one 128 n^2-byte state: 13.4 when every stage
    # was kept to the end of its arm, 8.6 streamed, 6.6 with every step
    # taking its input branches over.  ScenarioConfig refuses an n whose
    # PEAK_STATES states exceed memory.
    cfg = _n48_config()
    run_scenario(cfg)  # fills the lattice caches outside the trace
    tracemalloc.start()
    try:
        report = run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.branch_count_kick == report.branch_count_nokick == 4
    assert peak / (128 * cfg.n**2) < PEAK_STATES


@pytest.mark.parametrize("arm", ["kick", "nokick"])
def test_dump_density_keeps_only_the_requested_stage(tmp_path, arm):
    # Keeping all four stages of the arm peaked at 11.7 states.
    cfg = _n48_config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    argv = ["dump-density", "--config", str(path), "--arm", arm, "--stage", "final", "--out", str(tmp_path / "o.csv")]
    assert cli_main(argv) == 0  # fills the lattice caches outside the trace
    tracemalloc.start()
    try:
        assert cli_main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (128 * cfg.n**2) < PEAK_STATES


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="the C library has no mallopt")
def test_a_warm_scenario_refaults_no_pages():
    # Every step frees its input branches; with glibc's default thresholds the
    # freed top of the heap went back to the kernel and was faulted in again
    # on the next stage, about 5,000 minor faults a scenario here.  A fresh
    # interpreter, so the allocator starts from its own defaults.
    code = (
        "import resource, nosignal\n"
        "cfg = nosignal.default_scenario(kick_mode='label1', joint_mode='global_bell', detector_mode='label2')\n"
        "nosignal.run_scenario(cfg)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(3):\n"
        "    nosignal.run_scenario(cfg)\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)\n"
    )
    src = os.path.dirname(os.path.dirname(protocol_mod.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert float(out.stdout.splitlines()[-1]) <= 100


PIPELINE_COMBOS = [
    dict(),
    dict(statistics="boson", joint_mode="localized_bell", o2=Region(4, 7)),
    dict(statistics="distinguishable", kick_mode="label1", joint_mode="global_bell"),
    dict(detector_mode="label2"),
    dict(selective_o3=True),
]


@pytest.mark.parametrize("overrides", PIPELINE_COMBOS)
def test_pipeline_matches_dense_density_matrix_reference(overrides):
    cfg = _basic_config(**overrides)
    n = cfg.n
    p1 = oc.hann_packet(n, cfg.packet1.support.lo, cfg.packet1.support.hi,
                        cfg.packet1.center, cfg.packet1.width, cfg.packet1.momentum)
    p2 = oc.hann_packet(n, cfg.packet2.support.lo, cfg.packet2.support.hi,
                        cfg.packet2.center, cfg.packet2.width, cfg.packet2.momentum)
    if cfg.statistics == "fermion":
        psi0 = oc.antisymmetrized_product(n, p1, p2)
    elif cfg.statistics == "boson":
        psi0 = oc.symmetrized_product(n, p1, p2)
    else:
        psi0 = oc.product_state(n, p1, p2)
    for kicked in (False, True):
        stages = run_arm_stages(cfg, kicked=kicked)
        ref, pq1_ref, _arr = oc.pipeline(
            n, cfg.hopping, psi0,
            o1_sites=list(cfg.o1.sites()),
            o3_sites=list(cfg.o3.sites()),
            t1=cfg.t1, t2=cfg.t2, kicked=kicked,
            kick_mode=cfg.kick_mode, joint_mode=cfg.joint_mode,
            detector_mode=cfg.detector_mode,
            o2_sites=None if cfg.o2 is None else list(cfg.o2.sites()),
            selective=cfg.selective_o3,
        )
        for name in STAGES:
            rho_pkg = oc.density_from_branches((1.0, to_flat(s)) for s in stages[name].branches)
            assert np.linalg.norm(rho_pkg - ref[name]) < 1e-10, (overrides, kicked, name)
        assert qubit_one_probability(stages["final"]) == pytest.approx(pq1_ref, abs=1e-10)


@pytest.mark.parametrize("overrides", [*PIPELINE_COMBOS, dict(kick_mode="label1", joint_mode="global_bell",
                                                              detector_mode="label2")])
def test_the_arm_carries_spin_only_states_until_the_detector(overrides):
    # Every stage before ``final`` holds the four (s1, s2) columns, every final
    # branch the eight (s1, s2, q) ones.  run_arm_stages returns the arm's
    # stages; to_flat puts a spin-only one on the 8 n^2 basis: spin column c
    # at q = 0, the q = 1 half exactly +0.0.
    cfg = _basic_config(**overrides)
    n, dim = cfg.n, 8 * cfg.n * cfg.n
    for kicked in (False, True):
        arm = list(protocol_mod._run_arm(cfg, prepare_scenario(cfg)[1], kicked))
        assert [name for name, _ in arm] == [*STAGES[:3], "pre_detector", "final"]
        for name, ens in arm:
            assert {len(s.amps) for s in ens.branches} == {8 if name == "final" else 4}, name
            assert {s.dim for s in ens.branches} == {dim if name == "final" else dim // 2}, name
        stages = run_arm_stages(cfg, kicked)
        for name, ens in arm:
            if name not in STAGES:
                continue
            assert [s.norm for s in stages[name].branches] == [s.norm for s in ens.branches], name
            for s, same in zip(ens.branches, stages[name].branches):
                flat = to_flat(s)
                assert flat.size == dim and flat.tobytes() == to_flat(same).tobytes(), name
                width = len(s.amps)
                for c, x in enumerate(s.amps):
                    column = flat.reshape(n, n, 8)[:, :, 8 // width * c]
                    assert column.tobytes() == (np.zeros((n, n), complex) if x is None else x).tobytes(), name
                if width == 4:
                    assert not np.any(flat.view(np.uint64).reshape(-1, 2, 2)[:, 1]), name  # the q = 1 half is +0.0


# The default geometry with a localized O2 that both particles barely reach by t1 = 6: the P image of
# either arm has norm 4e-10 to 6e-10, so post_o2 prunes it, and W_Q must still subtract its t2 image.
PRUNED_P = dict(kick_mode="label1", joint_mode="localized_bell", t1=6.0, t2=4.0)


@pytest.mark.parametrize("cfg, pruned", [*((_basic_config(**o), False) for o in PIPELINE_COMBOS),
                                         (default_scenario(**PRUNED_P), True)],
                         ids=[*(f"combo{k}" for k in range(len(PIPELINE_COMBOS))), "pruned_p"])
def test_each_pre_detector_branch_is_the_t2_drift_of_its_post_o2_branch(cfg, pruned):
    # The arm builds W_k = D_{t1+t2}(g_k Y) + D_t2((M_k - g_k) Z) from the
    # post-kick branch Y; in exact arithmetic that is D_t2 of the post_o2
    # branch M_k Z, branch for branch.
    lat, psi0 = prepare_scenario(cfg)
    u2 = propagator(lat, cfg.t2)
    for kicked in (False, True):
        stages = dict(protocol_mod._run_arm(cfg, psi0, kicked))
        after, before = stages["pre_detector"].branches, stages["post_o2"].branches
        assert len(after) == len(before)
        for w, b in zip(after, before):
            assert np.max(np.abs(to_flat(w) - to_flat(protocol_mod.evolve_positions(u2, b)))) <= 1e-13, kicked
        if pruned:
            y = stages["post_kick"].branches[0]
            z = protocol_mod.evolve_positions(propagator(lat, cfg.t1), y)
            p = protocol_mod._joint_outcomes(cfg.n, cfg.joint_mode, cfg.o2)[0]
            assert len(before) == 1 and 1e-10 < StateVector(qcore.freeze(p.apply(z.amps))).norm < 1e-7  # pruned, not 0
            # leaving its image out would move W_Q by more than the tolerance above
            skipped = to_flat(protocol_mod.evolve_positions(propagator(lat, cfg.t_total), y)) - to_flat(after[0])
            assert np.max(np.abs(skipped)) > 1e-12, kicked


@pytest.mark.parametrize("joint_mode", ["none", "global_bell", "localized_bell"])
def test_no_drift_input_has_full_row_and_column_support(monkeypatch, joint_mode):
    # U_t1 has no zero entry, so a t1 image is full; each drift must start
    # from a compact source instead: the prepared or kicked state, a Bell
    # map of it, or the localized P image on O2 x O2.
    drift, inputs = composite_mod._drift, []

    def recording(u, x, *window):
        nonzero = x != 0
        inputs.append((bool(nonzero.any(axis=1).all()), bool(nonzero.any(axis=0).all())))
        return drift(u, x, *window)

    monkeypatch.setattr(composite_mod, "_drift", recording)
    run_scenario(default_scenario(joint_mode=joint_mode, t1=3.0, t2=7.0))
    assert len(inputs) >= 4 and (True, True) not in inputs, inputs


@pytest.mark.parametrize("overrides", [
    dict(joint_mode="localized_bell"),  # scale288's kind
    dict(kick_mode="label1", joint_mode="global_bell", detector_mode="label2"),  # label192's kinds
    dict(kick_mode="label1", detector_mode="label2"),
    dict(joint_mode="global_bell", selective_o3=True),
], ids=["localized-position", "global-label2", "none-label2", "selective"])
def test_no_full_array_is_built_after_post_o2(monkeypatch, overrides):
    # From pre_detector on the arms hold O3's strips alone: neither a drift
    # nor a position-diagonal operation builds an n x n column after post_o2.
    cfg = default_scenario(t1=3.0, t2=7.0, **overrides)  # the benchmark geometry at n = 96
    run_arm, drift, apply = protocol_mod._run_arm, composite_mod._drift, PairBlocks.apply
    latest, shapes = [], []  # the stage an arm yielded last; the shape of each column built after post_o2

    def tracking(*args):
        for name, ens in run_arm(*args):
            latest[:] = [name]
            yield name, ens
            del ens

    def drifting(*args):
        out = drift(*args)
        if latest in (["post_o2"], ["pre_detector"]) and out is not None:
            shapes.append(out.shape)
        return out

    def applying(self, cols):
        out = apply(self, cols)
        if latest in (["post_o2"], ["pre_detector"]):
            shapes.extend(x.shape for x in out if x is not None)
        return out

    monkeypatch.setattr(protocol_mod, "_run_arm", tracking)
    monkeypatch.setattr(composite_mod, "_drift", drifting)
    monkeypatch.setattr(PairBlocks, "apply", applying)
    run_scenario(cfg)
    w = cfg.o3.hi - cfg.o3.lo
    assert shapes and set(shapes) == {(w, 2 * cfg.n - w)}


def test_a_label2_miss_can_hold_the_worst_violation():
    # Distinguishable packets that meet near O3: the miss Q W of a label2
    # detector, off O3's window, is more exchange-symmetric than psi0 or any
    # hit.  run_scenario reads its violation from |(I+S)W|^2 - |(I+S)P W|^2;
    # the arm on every site holds the miss as a branch.
    cfg = ScenarioConfig(n=30, o1=Region(1, 7), o3=Region(15, 18), packet1=PacketSpec(Region(1, 7), 4.0, 1.5, 0.5),
                         packet2=PacketSpec(Region(21, 29), 25.0, 2.0, -0.8), statistics="distinguishable",
                         kick_mode="off", detector_mode="label2", t1=2.0, t2=3.6, eps=1.0)
    psi0 = prepare_scenario(cfg)[1]
    window = dict(protocol_mod._run_arm(cfg, psi0, False, cfg.o3.slice_in(cfg.n, "O3")))["final"]
    assert [s is None for s in window.branches] == [False, True]  # a hit, then the miss as its weight
    every = [antisymmetry_violation(s) for _, ens in protocol_mod._run_arm(cfg, psi0, False) for s in ens.branches]
    assert every[-1] == max(every) > antisymmetry_violation(psi0) + 1e-3  # the final miss holds the worst
    assert run_scenario(cfg).max_antisym_violation == pytest.approx(every[-1], rel=1e-14, abs=0.0)


def test_run_scenario_report_consistency():
    cfg = _basic_config()
    report = run_scenario(cfg)
    assert isinstance(report, SignalingReport)
    assert report.delta == pytest.approx(abs(report.p_q1_kick - report.p_q1_nokick), abs=1e-15)
    assert 0.0 <= report.p_q1_kick <= 1.0
    assert 0.0 <= report.p_q1_nokick <= 1.0
    assert report.arrival_prob >= 0.0
    assert report.branch_count_kick >= 1
    assert report.branch_count_nokick >= 1
    assert report.certificate.passed  # eps = 1 always certifies


def test_fermion_scenario_small_lattice_bounds():
    # On a small lattice the certificate leak is the honest bound: the
    # observed signaling must stay within a few leak widths of zero.
    cfg = _basic_config()
    report = run_scenario(cfg)
    bound = max(1e-8, 4.0 * report.certificate.leak_13)
    assert report.delta <= bound
    assert report.max_antisym_violation <= 1e-10


def test_no_signaling_across_randomized_certified_geometries():
    # Without any O2 operation the kick must stay invisible for every
    # statistics, on any geometry whose certificate passes; fermion and
    # boson deltas must also agree with each other.
    rng = np.random.default_rng(31)
    for _ in range(4):
        n = int(rng.integers(26, 33))
        o1 = Region(0, 8)
        o3 = Region(n - 8, n)
        mid = Region(9, n - 9)
        w2 = float(rng.uniform(1.0, mid.width / 4.0))
        c2 = float(rng.uniform(mid.lo + w2, mid.hi - 1 - w2))
        cfg_args = dict(
            n=n,
            o1=o1,
            o2=None,
            o3=o3,
            packet1=PacketSpec(o1, float(rng.uniform(2.5, 5.5)),
                               float(rng.uniform(1.0, 2.0)), 0.0),
            packet2=PacketSpec(mid, c2, w2, float(rng.uniform(0.3, 1.5))),
            t1=0.0,
            t2=float(rng.uniform(0.8, 1.8)),
            eps=1e-2,
        )
        deltas = {}
        for statistics in ("fermion", "boson", "distinguishable"):
            report = run_scenario(default_scenario(statistics=statistics, **cfg_args))
            assert report.certificate.passed, (n, statistics)
            bound = max(1e-8, 4.0 * report.certificate.leak_13)
            assert report.delta <= bound, (n, statistics, report.delta, bound)
            deltas[statistics] = report.delta
            if statistics == "fermion":
                assert report.max_antisym_violation <= 1e-10
        assert abs(deltas["fermion"] - deltas["boson"]) <= 1e-8


@pytest.mark.parametrize("statistics", ["fermion", "boson", "distinguishable"])
def test_sorkin_geometry_signals_under_a_passing_certificate(statistics):
    # Sorkin's impossible measurement: O2 lies in the causal future of O1 and
    # the causal past of O3, which stay spacelike.  Every operation is
    # exchange symmetric and position-addressed, yet the ideal Bell
    # measurement across the extended O2 relays the kick.
    def sorkin(joint_mode):
        return ScenarioConfig(
            n=160,
            o1=Region(8, 24),
            o2=Region(30, 122),
            o3=Region(132, 150),
            packet1=PacketSpec(Region(8, 24), 16.0, 3.0, math.pi / 2),
            packet2=PacketSpec(Region(88, 112), 100.0, 6.0, math.pi / 2),
            statistics=statistics,
            joint_mode=joint_mode,
            t1=8.0,
            t2=10.0,
        )

    relayed = run_scenario(sorkin("localized_bell"))
    assert relayed.certificate.passed
    assert relayed.delta > 0.1
    assert run_scenario(sorkin("none")).delta <= 1e-28
