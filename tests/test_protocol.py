"""Unit tests for the two-arm pipeline, its operators, and the reports."""

from __future__ import annotations

import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import oracles as oc
from nosignal import (
    BranchEnsemble,
    CompositeSpace,
    PacketSpec,
    Region,
    ScenarioConfig,
    SignalingReport,
    StateVector,
    antisymmetry_violation,
    bell_projector,
    default_scenario,
    detector_coupling,
    detector_measurement,
    joint_measurement,
    make_lattice,
    prepare_initial,
    prepare_scenario,
    qubit_one_probability,
    run_arm_stages,
    run_naive_sorkin,
    run_scenario,
    wavepacket,
)
from nosignal import protocol as protocol_mod
from nosignal.cli import config_to_dict, main as cli_main
from nosignal.protocol import DETECTOR_MODES, STAGES, PairBlocks
from nosignal.qcore import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SPIN_TAG,
    LinearOperator,
    check_projector_family,
    identity,
    luders_update,
)


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


def _kernel_matrix(op: PairBlocks) -> np.ndarray:
    """Dense matrix of a position-controlled kernel: column j is ``op.apply(e_j)``."""
    return np.column_stack([op.apply(e) for e in np.eye(8 * op.n**2, dtype=np.complex128)])


def _exchange_defect(n: int, mat: np.ndarray) -> float:
    """Frobenius norm of ``S mat S - mat`` for the oracle exchange matrix ``S``."""
    s = oc.exchange_matrix(n)
    return float(np.linalg.norm(s @ mat @ s - mat))


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
    np.testing.assert_allclose(pb.to_dense(), oc.bell_projector4(), atol=1e-15)
    assert pb.projector_defect() < 1e-14
    assert np.linalg.matrix_rank(pb.to_dense()) == 1


def test_detector_coupling_matches_reference():
    d = detector_coupling()
    np.testing.assert_array_equal(d.to_dense(), oc.spin_qubit_coupling4())
    assert d.unitarity_defect() < 1e-15
    np.testing.assert_allclose((d @ d).to_dense(), np.eye(4), atol=1e-15)


def test_kick_operator_position_mode():
    n = 8
    space = CompositeSpace(n)
    o1 = Region(1, 4)
    k = _kernel_matrix(protocol_mod._kick_blocks(n, o1, "position"))
    np.testing.assert_allclose(k, oc.kick_unitary(n, range(1, 4), "position"), atol=1e-14)
    assert _exchange_defect(n, k) <= 1e-12
    assert LinearOperator(k, space.basis_tag).unitarity_defect() < 1e-14
    np.testing.assert_allclose(k @ k, np.eye(space.dim), atol=1e-14)


def test_kick_operator_label1_mode():
    n = 8
    o1 = Region(1, 4)
    k = _kernel_matrix(protocol_mod._kick_blocks(n, o1, "label1"))
    np.testing.assert_allclose(k, oc.kick_unitary(n, range(1, 4), "label1"), atol=1e-14)
    assert _exchange_defect(n, k) > 1e-12
    with pytest.raises(ValueError):
        protocol_mod._kick_blocks(n, o1, "off")


def test_kick_flips_the_region_supported_wing():
    # For a fermion pair with packet 1 inside O1 and packet 2 outside, the
    # position kick acts exactly like flipping the spin riding on packet 1:
    # expected state assembled independently, index by index.
    n = 12
    lat = make_lattice(n, 1.0)
    o1 = Region(0, 6)
    p1 = wavepacket(lat, Region(0, 6), 2.5, 1.0, 0.0)
    p2 = wavepacket(lat, Region(6, 12), 8.5, 1.0, 0.9)
    space = CompositeSpace(n)
    psi0 = prepare_initial(space, "fermion", p1, p2)
    kick = _kernel_matrix(protocol_mod._kick_blocks(n, o1, "position"))
    np.testing.assert_allclose(kick, oc.kick_unitary(n, range(0, 6), "position"), atol=1e-14)
    kicked = StateVector(kick @ psi0.amps, space.basis_tag)

    want = np.zeros(space.dim, dtype=np.complex128)
    for x1 in range(n):
        for x2 in range(n):
            # slot 1 carries (packet1, spin up), slot 2 carries (packet2, down)
            want[oc.basis_index(n, x1, x2, 1, 0, 0)] += p1.amps[x1] * p2.amps[x2]
            want[oc.basis_index(n, x1, x2, 0, 1, 0)] -= p2.amps[x1] * p1.amps[x2]
    want /= np.linalg.norm(want)
    np.testing.assert_allclose(kicked.amps, want, atol=1e-12)
    assert antisymmetry_violation(kicked) < 1e-14


def test_occupancy_projector_matches_reference():
    n = 8
    space = CompositeSpace(n)
    p, q = (_kernel_matrix(op) for op in protocol_mod._occupancy_outcomes(n, Region(5, 8)))
    want = np.diag(oc.union_occupancy_diag(n, range(5, 8)))
    np.testing.assert_array_equal(p, want)
    np.testing.assert_array_equal(q, np.eye(space.dim) - want)
    assert LinearOperator(p, space.basis_tag).projector_defect() == 0.0
    assert _exchange_defect(n, p) <= 1e-12


def test_position_detector_unitary_matches_reference():
    n = 8
    space = CompositeSpace(n)
    o3 = Region(5, 8)
    v = _kernel_matrix(protocol_mod._detector_blocks(n, o3, "position"))
    np.testing.assert_allclose(v, oc.position_detector(n, range(5, 8)), atol=1e-14)
    assert LinearOperator(v, space.basis_tag).unitarity_defect() < 1e-12
    np.testing.assert_allclose(v @ v, np.eye(space.dim), atol=1e-12)
    assert _exchange_defect(n, v) <= 1e-12


# ---------------------------------------------------------------------------
# measurement procedures


def _fermion_pair_with_spin_up_in(n, window_lo, window_hi, up_packet, down_packet):
    """Antisymmetrized state: up_packet carries spin up, down_packet spin down."""
    space = CompositeSpace(n)
    amps = np.zeros(space.dim, dtype=np.complex128)
    for x1 in range(n):
        for x2 in range(n):
            amps[oc.basis_index(n, x1, x2, 1, 0, 0)] += up_packet[x1] * down_packet[x2]
            amps[oc.basis_index(n, x1, x2, 0, 1, 0)] -= down_packet[x1] * up_packet[x2]
    amps /= np.linalg.norm(amps)
    return space, StateVector(amps, space.basis_tag)


def _packets_for_detector(n=12):
    lat = make_lattice(n, 1.0)
    inside = wavepacket(lat, Region(8, 12), 9.5, 1.0, 0.0)  # fully inside O3
    outside = wavepacket(lat, Region(0, 4), 1.5, 1.0, 0.0)
    return inside, outside


def test_position_detector_detects_and_keeps_antisymmetry():
    n = 12
    o3 = Region(8, 12)
    inside, outside = _packets_for_detector(n)
    space, psi = _fermion_pair_with_spin_up_in(n, o3.lo, o3.hi, inside.amps, outside.amps)
    out = detector_measurement(space, o3, "position")(BranchEnsemble.pure(psi))
    assert out.branch_count == 1
    weight, state = out.branches[0]
    assert weight == pytest.approx(1.0)
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
    space, psi = _fermion_pair_with_spin_up_in(n, o3.lo, o3.hi, inside.amps, outside.amps)
    out = detector_measurement(space, o3, "label2")(BranchEnsemble.pure(psi))
    assert out.branch_count == 1
    weight, state = out.branches[0]
    assert weight == pytest.approx(1.0, abs=1e-12)
    assert qubit_one_probability(out) == pytest.approx(0.5, abs=1e-12)
    assert antisymmetry_violation(state) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    want = np.zeros(space.dim, dtype=np.complex128)
    for x1 in range(n):
        for x2 in range(n):
            # unflipped wing: (inside, up)(outside, down), pointer 0
            want[oc.basis_index(n, x1, x2, 1, 0, 0)] += inside.amps[x1] * outside.amps[x2]
            # flipped wing: slot 2 spin up absorbed into pointer 1
            want[oc.basis_index(n, x1, x2, 0, 0, 1)] -= outside.amps[x1] * inside.amps[x2]
    want /= np.linalg.norm(want)
    np.testing.assert_allclose(state.amps, want, atol=1e-12)


def test_selective_detection_on_empty_window_raises():
    n = 12
    space = CompositeSpace(n)
    lat = make_lattice(n, 1.0)
    p1 = wavepacket(lat, Region(0, 4), 1.5, 1.0, 0.0)
    p2 = wavepacket(lat, Region(4, 8), 5.5, 1.0, 0.0)
    psi = prepare_initial(space, "fermion", p1, p2)
    procedure = detector_measurement(space, Region(8, 12), "position", selective=True)
    with pytest.raises(ValueError, match="empty outcome"):
        procedure(BranchEnsemble.pure(psi))


def test_selective_hit_branch_is_the_csr_projection_byte_for_byte():
    n = 8
    space = CompositeSpace(n)
    o3 = Region(5, 8)
    rng = np.random.default_rng(7)
    amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi = StateVector(amps / np.linalg.norm(amps), space.basis_tag)
    out = detector_measurement(space, o3, "position", selective=True)(BranchEnsemble.pure(psi))
    moved = protocol_mod._detector_blocks(n, o3, "position").apply(psi.amps)
    arm = sp.csr_array(np.diag(oc.union_occupancy_diag(n, range(5, 8))).astype(np.complex128)) @ moved
    assert out.branch_count == 1
    assert out.branches[0][0] == 1.0
    assert out.branches[0][1].amps.tobytes() == (arm / np.linalg.norm(arm)).tobytes()


def test_label2_detector_lists_every_hit_before_every_miss():
    n = 8
    space = CompositeSpace(n)
    occupied = oc.union_occupancy_diag(n, range(5, 8)).astype(bool)
    rng = np.random.default_rng(11)
    states = []
    for scale_inside in (1.0, 3.0):  # two branches with different occupancies
        amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        amps[occupied] *= scale_inside
        states.append(amps / np.linalg.norm(amps))
    ens = BranchEnsemble(tuple((w, StateVector(a, space.basis_tag)) for w, a in zip((0.3, 0.7), states)))
    out = detector_measurement(space, Region(5, 8), "label2")(ens)
    p_in = [float(np.sum(np.abs(a[occupied]) ** 2)) for a in states]
    want = [0.3 * p_in[0], 0.7 * p_in[1], 0.3 * (1 - p_in[0]), 0.7 * (1 - p_in[1])]
    assert [w for w, _ in out.branches] == pytest.approx(want, rel=1e-12)
    for k, (_, state) in enumerate(out.branches):
        outside_outcome = ~occupied if k < 2 else occupied
        assert not np.any(state.amps[outside_outcome])


def test_detector_and_localized_joint_reject_a_region_past_the_lattice():
    space = CompositeSpace(8)
    for mode in DETECTOR_MODES:
        for selective in (False, True):
            with pytest.raises(ValueError, match="exceeds the 8-site lattice"):
                detector_measurement(space, Region(5, 9), mode, selective)
    with pytest.raises(ValueError, match="exceeds the 8-site lattice"):
        joint_measurement(space, "localized_bell", Region(5, 9))


def test_joint_measurement_none_is_identity():
    cfg = _basic_config()
    _, space, psi0 = prepare_scenario(cfg)
    ens = BranchEnsemble.pure(psi0)
    assert joint_measurement(space, "none")(ens) is ens


def test_joint_measurement_matches_reference_update():
    rng = np.random.default_rng(41)
    n = 8
    space = CompositeSpace(n)
    amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    state = StateVector(amps / np.linalg.norm(amps), space.basis_tag)
    for mode, sites in (("global_bell", None), ("localized_bell", range(3, 6))):
        o2 = None if sites is None else Region(3, 6)
        out = joint_measurement(space, mode, o2)(BranchEnsemble.pure(state))
        rho = oc.density_from_branches((w, s.amps) for w, s in out.branches)
        projs = oc.joint_projectors(n, mode, sites)
        rho_ref = sum(p @ np.outer(state.amps, state.amps.conj()) @ p for p in projs)
        assert np.linalg.norm(rho - rho_ref) < 1e-12
        assert abs(sum(w for w, _ in out.branches) - 1.0) < 1e-10


def test_joint_measurement_validates_mode_and_region():
    space = CompositeSpace(8)
    with pytest.raises(ValueError):
        joint_measurement(space, "bell")
    with pytest.raises(ValueError):
        joint_measurement(space, "localized_bell", None)


# ---------------------------------------------------------------------------
# position-controlled kernels against the CSR mat-vec of their matrices


@pytest.mark.parametrize("n", [8, 12])
def test_kernels_match_materialized_operators_exactly(n):
    # Bytes, not ``==``: -0.0 and +0.0 differ.  The inputs hold both.
    space = CompositeSpace(n)
    region, o2 = Region(2, 5), Region(4, 7)
    rng = np.random.default_rng(n)
    ops = {f"kick {mode}": protocol_mod._kick_blocks(n, region, mode) for mode in ("position", "label1")}
    for mode in ("global_bell", "localized_bell"):
        p, q = protocol_mod._joint_outcomes(n, mode, o2)
        ops[f"{mode} P"], ops[f"{mode} Q"] = p, q
    ops["occupancy P"], ops["occupancy Q"] = protocol_mod._occupancy_outcomes(n, region)
    for mode in ("position", "label2"):
        ops[f"detector {mode}"] = protocol_mod._detector_blocks(n, region, mode)
    matrices = {name: _kernel_matrix(op) for name, op in ops.items()}
    for _ in range(3):
        amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        parts = amps.view(np.float64)
        parts[rng.random(parts.size) < 0.2] = -0.0
        parts[rng.random(parts.size) < 0.1] = 0.0
        for name, op in ops.items():
            want = sp.csr_array(matrices[name]) @ amps
            assert op.apply(amps).view(np.float64).tobytes() == want.view(np.float64).tobytes(), name
    # label2: the coupling on slot 2's spin on the O3-occupied pairs, the identity elsewhere.
    occupied = oc.union_occupancy_diag(n, region.sites()).astype(bool)
    coupling = np.kron(np.eye(2 * n * n), detector_coupling().to_dense())
    label2 = np.where(occupied[:, None], coupling, np.eye(space.dim))
    np.testing.assert_array_equal(matrices["detector label2"], label2)


def test_label2_coupling_on_occupied_branches_equals_the_global_map_byte_for_byte():
    n = 12
    space = CompositeSpace(n)
    o3 = Region(7, 11)
    rng = np.random.default_rng(3)
    coupling = protocol_mod._detector_blocks(n, o3, "label2")
    everywhere = PairBlocks(n, ((slice(None), slice(None)),), (protocol_mod._spin_qubit_map_8(2),), True)
    occupied, _ = protocol_mod._occupancy_outcomes(n, o3)
    for _ in range(3):
        amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        parts = amps.view(np.float64)
        parts[rng.random(parts.size) < 0.2] = -0.0
        hit = occupied.apply(amps)
        hit /= np.linalg.norm(hit)
        assert coupling.apply(hit).tobytes() == everywhere.apply(hit).tobytes()


def test_joint_measurement_equals_luders_on_materialized_projectors():
    n = 8
    space = CompositeSpace(n)
    rng = np.random.default_rng(5)
    amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    ens = BranchEnsemble.pure(StateVector(amps / np.linalg.norm(amps), space.basis_tag))
    for mode in ("global_bell", "localized_bell"):
        got = joint_measurement(space, mode, Region(3, 6))(ens)
        matrices = [_kernel_matrix(op) for op in protocol_mod._joint_outcomes(n, mode, Region(3, 6))]
        check_projector_family([LinearOperator(m, space.basis_tag) for m in matrices])
        csrs = [sp.csr_array(m) for m in matrices]
        want = BranchEnsemble(sum(luders_update(ens, lambda amps: (c @ amps for c in csrs)), ()))
        assert [w for w, _ in got.branches] == [w for w, _ in want.branches]
        for (_, a), (_, b) in zip(got.branches, want.branches):
            assert np.array_equal(a.amps, b.amps)


def test_build_rejects_tampered_8x8_maps(monkeypatch):
    space = CompositeSpace(8)
    o3 = Region(5, 8)
    p8 = np.kron(bell_projector().to_dense(), np.eye(2))
    with pytest.raises(ValueError, match="resolve the identity"):
        protocol_mod._projective_measurement(8, None, p8, 0.5 * (np.eye(8) - p8))
    monkeypatch.setattr(protocol_mod, "_both_in_region_coupling_8", lambda: 2.0 * np.eye(8))
    with pytest.raises(ValueError, match="not unitary"):
        detector_measurement(space, o3, "position")


@pytest.mark.parametrize("tamper, message", [("scale", "not normalized"), ("nan", "finite")])
def test_pipeline_rejects_a_tampered_branch(monkeypatch, tmp_path, capsys, tamper, message):
    # A kernel's output is checked where the pipeline wraps it: the run fails with the check's ValueError.
    apply = PairBlocks.apply

    def tampered(self, amps):
        out = apply(self, amps)
        if tamper == "scale":
            out *= 1.5  # finite, but not normalized
        else:
            out[out.size // 2] = np.nan
        return out

    monkeypatch.setattr(PairBlocks, "apply", tampered)
    cfg = _basic_config()
    with pytest.raises(ValueError, match=message):
        run_scenario(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "report.json")]) == 2
    assert message in capsys.readouterr().err


def test_pipeline_builds_no_composite_operator(monkeypatch):
    cfg = default_scenario(joint_mode="localized_bell")
    dims = []
    post_init = LinearOperator.__post_init__

    def counting(self):
        post_init(self)
        dims.append(self.dim)

    monkeypatch.setattr(LinearOperator, "__post_init__", counting)
    run_scenario(cfg)
    assert dims, "no LinearOperator was built at all"
    assert 8 * cfg.n**2 not in dims


# ---------------------------------------------------------------------------
# the label pipeline closed forms


def test_naive_closed_forms_for_named_observables():
    assert run_naive_sorkin(PAULI_Z, kick=False) == pytest.approx(0.0, abs=1e-14)
    assert run_naive_sorkin(PAULI_Z, kick=True) == pytest.approx(-1.0, abs=1e-14)
    assert run_naive_sorkin(PAULI_X, kick=False) == pytest.approx(0.0, abs=1e-14)
    assert run_naive_sorkin(PAULI_X, kick=True) == pytest.approx(0.0, abs=1e-14)
    assert run_naive_sorkin(PAULI_Y, kick=True) == pytest.approx(0.0, abs=1e-14)
    eye = identity(2, SPIN_TAG)
    assert run_naive_sorkin(eye, kick=False) == pytest.approx(1.0, abs=1e-14)
    assert run_naive_sorkin(eye, kick=True) == pytest.approx(1.0, abs=1e-14)


def test_naive_closed_forms_frozen_matrix():
    c = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, -0.7]])
    obs = LinearOperator(c, SPIN_TAG)
    assert run_naive_sorkin(obs, kick=False) == pytest.approx(-0.2, abs=1e-14)
    assert run_naive_sorkin(obs, kick=True) == pytest.approx(0.3, abs=1e-14)


def test_naive_matches_reference_for_random_observables():
    rng = np.random.default_rng(43)
    for _ in range(50):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c = (a + a.conj().T) / 2
        want_nokick, want_kick = oc.naive_expectations(c)
        obs = LinearOperator(c, SPIN_TAG)
        assert run_naive_sorkin(obs, kick=False) == pytest.approx(want_nokick, abs=1e-12)
        assert run_naive_sorkin(obs, kick=True) == pytest.approx(want_kick, abs=1e-12)


def test_naive_rejects_bad_observables():
    with pytest.raises(ValueError):
        run_naive_sorkin(LinearOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), SPIN_TAG), kick=False)
    with pytest.raises(ValueError):
        run_naive_sorkin(identity(4, "spin*spin"), kick=False)


# ---------------------------------------------------------------------------
# arms and scenarios


def test_qubit_one_probability_counts_odd_indices():
    space = CompositeSpace(8)
    up = np.zeros(space.dim, dtype=np.complex128)
    up[1] = 1.0  # q = 1
    down = np.zeros(space.dim, dtype=np.complex128)
    down[0] = 1.0  # q = 0
    ens = BranchEnsemble(
        (
            (0.25, StateVector(up, space.basis_tag)),
            (0.75, StateVector(down, space.basis_tag)),
        )
    )
    assert qubit_one_probability(ens) == pytest.approx(0.25, abs=1e-15)


def test_run_arm_stages_structure():
    cfg = _basic_config()
    stages = run_arm_stages(cfg, kicked=True)
    assert tuple(stages.keys()) == STAGES
    for name in STAGES:
        total = sum(w for w, _ in stages[name].branches)
        assert abs(total - 1.0) <= 1e-10
    # the unkicked arm has identical prepared and post_kick snapshots
    quiet = run_arm_stages(cfg, kicked=False)
    w0, s0 = quiet["prepared"].branches[0]
    w1, s1 = quiet["post_kick"].branches[0]
    np.testing.assert_array_equal(s0.amps, s1.amps)


def test_run_scenario_frees_the_first_arms_stages(monkeypatch):
    # Stronger than "the first arm is freed before the second": each stage is
    # freed before the next one is yielded, in both arms.
    run_arm = protocol_mod._run_arm
    seen = []

    def owner(state):
        arr = state.amps
        while arr.base is not None:
            arr = arr.base
        return arr

    def tracking(cfg, space, psi0, *rest):
        refs = []  # weak references to the memory of the previous stage's states
        for name, ens in run_arm(cfg, space, psi0, *rest):
            assert [r() for r in refs] == [None] * len(refs), name
            refs = [weakref.ref(owner(s)) for _, s in ens.branches if s is not psi0]
            seen.append((name, len(refs)))
            yield name, ens
            del ens

    monkeypatch.setattr(protocol_mod, "_run_arm", tracking)
    report = run_scenario(_basic_config(joint_mode="global_bell"))
    assert [name for name, _ in seen] == [*STAGES[:3], "pre_detector", "final"] * 2
    assert sum(count for _, count in seen) >= 8  # post_o2 and later hold two branches each
    assert report.branch_count_kick >= 1


def test_run_scenario_peak_memory_in_states():
    # label1 kick, global Bell joint, label2 detector: four branches an arm
    # after the detector.  Traced peak in units of one 128 n^2-byte state:
    # 13.4 when every stage was kept to the end of its arm, 8.6 streamed.
    cfg = ScenarioConfig(
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
    run_scenario(cfg)  # fills the lattice caches outside the trace
    tracemalloc.start()
    try:
        report = run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.branch_count_kick == report.branch_count_nokick == 4
    assert peak / (128 * cfg.n**2) < 11.0


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
            rho_pkg = oc.density_from_branches((w, s.amps) for w, s in stages[name].branches)
            assert np.linalg.norm(rho_pkg - ref[name]) < 1e-10, (overrides, kicked, name)
        assert qubit_one_probability(stages["final"]) == pytest.approx(pq1_ref, abs=1e-10)


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
