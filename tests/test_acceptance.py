"""Acceptance gate: every headline claim at its stated tolerance.

Each test prints (and queues for the terminal summary) exactly one
PASS/FAIL line with the measured numbers, then asserts the bounds.
"""

from __future__ import annotations

import time

import numpy as np

import oracles as oc
from conftest import record_acceptance
from nosignal import (
    PacketSpec,
    Region,
    check_spacelike,
    default_scenario,
    leakage,
    make_lattice,
    prepare_scenario,
    propagator,
    qubit_one_probability,
    run_arm_stages,
    run_naive_sorkin,
    run_scenario,
)
from nosignal.composite import exchange_permutation, to_flat
from nosignal.qcore import StateVector, luders_update


def _verdict(num: int, title: str, ok: bool, detail: str) -> None:
    line = f"[{num}] {title:<52s} {'PASS' if ok else 'FAIL'}  {detail}"
    record_acceptance(line)
    print(line)


def _small_scenario(**overrides):
    """16-site geometry used for the dense cross-checks (dimension 2048)."""
    base = dict(
        n=16,
        o1=Region(1, 5),
        o2=None,
        o3=Region(11, 15),
        packet1=PacketSpec(Region(1, 5), 2.5, 1.0, 0.0),
        packet2=PacketSpec(Region(6, 11), 8.0, 1.0, float(np.pi / 2)),
        t1=0.0,
        t2=2.0,
        eps=1.0,
    )
    base.update(overrides)
    return default_scenario(**base)


def _oracle_initial(cfg):
    p1 = oc.hann_packet(cfg.n, cfg.packet1.support.lo, cfg.packet1.support.hi,
                        cfg.packet1.center, cfg.packet1.width, cfg.packet1.momentum)
    p2 = oc.hann_packet(cfg.n, cfg.packet2.support.lo, cfg.packet2.support.hi,
                        cfg.packet2.center, cfg.packet2.width, cfg.packet2.momentum)
    if cfg.statistics == "fermion":
        return oc.antisymmetrized_product(cfg.n, p1, p2)
    if cfg.statistics == "boson":
        return oc.symmetrized_product(cfg.n, p1, p2)
    return oc.product_state(cfg.n, p1, p2)


def _oracle_arm(cfg, kicked, keep_stages=False):
    return oc.pipeline(
        cfg.n, cfg.hopping, _oracle_initial(cfg),
        o1_sites=list(cfg.o1.sites()),
        o3_sites=list(cfg.o3.sites()),
        t1=cfg.t1, t2=cfg.t2, kicked=kicked,
        kick_mode=cfg.kick_mode, joint_mode=cfg.joint_mode,
        detector_mode=cfg.detector_mode,
        o2_sites=None if cfg.o2 is None else list(cfg.o2.sites()),
        selective=cfg.selective_o3, keep_stages=keep_stages,
    )


def test_criterion_1_naive_closed_forms():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    max_dev = 0.0
    for _ in range(100):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c = (a + a.conj().T) / 2
        want_nokick, want_kick = oc.naive_expectations(c)
        max_dev = max(
            max_dev,
            abs(run_naive_sorkin(c, kick=False) - want_nokick),
            abs(run_naive_sorkin(c, kick=True) - want_kick),
        )
    elapsed = time.perf_counter() - start
    ok = max_dev <= 1e-10 and elapsed < 1.0
    _verdict(1, "label pipeline reproduces both closed forms",
             ok, f"max_dev={max_dev:.2e} elapsed={elapsed:.2f}s (100 observables)")
    assert max_dev <= 1e-10
    assert elapsed < 1.0


def test_criterion_2_default_geometry_certifies():
    cfg = default_scenario()
    lat, psi0 = prepare_scenario(cfg)
    cert = check_spacelike(lat, cfg.o1, cfg.o3, psi0, cfg.t_total, cfg.eps)
    # the certified leaks must cover the oracle block norm at every time of
    # a fine grid over the protocol, in both directions
    fine_max = 0.0
    for t in np.linspace(0.0, cfg.t_total, 41):
        for src, dst in ((cfg.o1, cfg.o3), (cfg.o3, cfg.o1)):
            fine_max = max(fine_max, oc.block_leakage(cfg.n, cfg.hopping, src.sites(), dst.sites(), t))
    covered = min(cert.leak_13, cert.leak_31) >= fine_max
    ok = cert.passed and cert.epsilon == 1e-6 and covered
    _verdict(2, "default geometry certifies at eps=1e-6",
             ok, f"leak_13={cert.leak_13:.2e} leak_31={cert.leak_31:.2e} "
                 f"oracle_max={fine_max:.2e}")
    assert cert.passed
    assert cert.epsilon == 1e-6
    assert covered


def _no_signaling_case(statistics):
    """Shared body of criteria 3 and 4; returns the two deltas and details."""
    results = {}
    for joint, overrides in (
        ("none", {}),
        ("localized_bell", dict(joint_mode="localized_bell", t1=3.0, t2=7.0)),
    ):
        cfg = default_scenario(statistics=statistics, **overrides)
        report = run_scenario(cfg)
        bound = max(1e-8, 4.0 * report.certificate.leak_13)
        results[joint] = (report, bound)
    return results


def test_criterion_3_fermion_no_signaling():
    start = time.perf_counter()
    results = _no_signaling_case("fermion")

    # the localized joint region must be out of reach of O1 within t1
    cfg_loc = default_scenario(joint_mode="localized_bell", t1=3.0, t2=7.0)
    lat, _psi0 = prepare_scenario(cfg_loc)
    reach_12 = leakage(lat, cfg_loc.o1, cfg_loc.o2, cfg_loc.t1)

    # dense density-matrix cross-check on the 16-site geometry
    cfg16 = _small_scenario()
    cross_dev = 0.0
    pq1 = {}
    for kicked in (False, True):
        stages = run_arm_stages(cfg16, kicked=kicked)
        final = stages["final"]
        rho_pkg = oc.density_from_branches((1.0, to_flat(s)) for s in final.branches)
        ref, pq1_ref, _arr = _oracle_arm(cfg16, kicked)
        cross_dev = max(cross_dev, float(np.linalg.norm(rho_pkg - ref["final"])))
        cross_dev = max(cross_dev, abs(qubit_one_probability(final) - pq1_ref))
        pq1[kicked] = (qubit_one_probability(final), pq1_ref)
    delta16_pkg = abs(pq1[True][0] - pq1[False][0])
    delta16_ref = abs(pq1[True][1] - pq1[False][1])
    cross_dev = max(cross_dev, abs(delta16_pkg - delta16_ref))
    elapsed = time.perf_counter() - start

    ok = elapsed < 60.0 and cross_dev <= 1e-10 and reach_12 <= cfg_loc.eps
    details = []
    for joint, (report, bound) in results.items():
        ok = ok and report.delta <= bound and report.max_antisym_violation <= 1e-10
        details.append(f"{joint}: delta={report.delta:.1e}")
    _verdict(3, "fermion localized operations cannot signal",
             ok, " ".join(details) + f" cross_check={cross_dev:.1e} elapsed={elapsed:.1f}s")
    assert reach_12 <= cfg_loc.eps, "O2 must be unreachable from O1 within t1"
    for joint, (report, bound) in results.items():
        assert report.delta <= bound, (joint, report.delta, bound)
        assert report.max_antisym_violation <= 1e-10, joint
    assert cross_dev <= 1e-10
    assert elapsed < 60.0


def _symmetric_sector_defect(cfg) -> float:
    """Worst ||psi - S psi|| / (2 ||psi||) over all branches of all stages, both arms."""
    perm = exchange_permutation(cfg.n)
    worst = 0.0
    for kicked in (False, True):
        for ens in run_arm_stages(cfg, kicked=kicked).values():
            for s in ens.branches:
                amps = to_flat(s)
                worst = max(worst, 0.5 * float(np.linalg.norm(amps - amps[perm])) / s.norm)
    return worst


def test_criterion_4_boson_no_signaling():
    fermion = _no_signaling_case("fermion")
    boson = _no_signaling_case("boson")

    # For bosons the statistics-appropriate exchange check is the defect of
    # the symmetric sector (the antisymmetric-sector defect of the report is
    # a fermion diagnostic and reads ~1 on symmetric states by construction).
    sym_defect = max(
        _symmetric_sector_defect(default_scenario(statistics="boson")),
        _symmetric_sector_defect(default_scenario(
            statistics="boson", joint_mode="localized_bell", t1=3.0, t2=7.0)),
    )

    ok = sym_defect <= 1e-10
    details = []
    max_gap = 0.0
    for joint in ("none", "localized_bell"):
        rep_b, bound_b = boson[joint]
        rep_f, _ = fermion[joint]
        gap = abs(rep_f.delta - rep_b.delta)
        max_gap = max(max_gap, gap)
        ok = ok and rep_b.delta <= bound_b and gap <= 1e-8
        details.append(f"{joint}: delta={rep_b.delta:.1e}")
    _verdict(4, "boson localized operations cannot signal",
             ok, " ".join(details) + f" |delta_f-delta_b|={max_gap:.1e} "
                 f"sym_defect={sym_defect:.1e}")
    for joint in ("none", "localized_bell"):
        rep_b, bound_b = boson[joint]
        rep_f, _ = fermion[joint]
        assert rep_b.delta <= bound_b, joint
        assert abs(rep_f.delta - rep_b.delta) <= 1e-8, joint
    assert max_gap <= 1e-8
    assert sym_defect <= 1e-10


def test_criterion_5_label_operations_signal():
    cfg = default_scenario(
        statistics="distinguishable", kick_mode="label1",
        joint_mode="global_bell", t1=3.0, t2=7.0,
    )
    report = run_scenario(cfg)
    half_arrival_gap = abs(report.delta - report.arrival_prob / 2.0)

    quiet = run_scenario(default_scenario(
        statistics="distinguishable", kick_mode="label1",
        joint_mode="none", t1=3.0, t2=7.0,
    ))
    ok = (half_arrival_gap <= 1e-6 and report.arrival_prob >= 0.9
          and quiet.delta <= 1e-8)
    _verdict(5, "label kick + global joint signals at arrival/2",
             ok, f"delta={report.delta:.6f} arrival={report.arrival_prob:.6f} "
                 f"|delta-arrival/2|={half_arrival_gap:.1e} no_joint_delta={quiet.delta:.1e}")
    assert half_arrival_gap <= 1e-6
    assert report.arrival_prob >= 0.9
    assert quiet.delta <= 1e-8


def test_criterion_6_label_detector_breaks_antisymmetry():
    from nosignal import antisymmetry_violation

    labeled = run_scenario(_small_scenario(detector_mode="label2"))
    symmetric = run_scenario(_small_scenario(detector_mode="position"))

    # the defect must show up in a post-detector branch, not just somewhere
    final = run_arm_stages(_small_scenario(detector_mode="label2"), kicked=True)["final"]
    branch_violation = max(map(antisymmetry_violation, final.branches))

    ok = (labeled.max_antisym_violation >= 0.1 and branch_violation >= 0.1
          and symmetric.max_antisym_violation <= 1e-10)
    _verdict(6, "label detector breaks exchange antisymmetry",
             ok, f"violation_label2={labeled.max_antisym_violation:.6f} "
                 f"post_detector_branch={branch_violation:.6f} "
                 f"violation_position={symmetric.max_antisym_violation:.1e} "
                 f"delta_label2={labeled.delta:.6f}")
    assert labeled.max_antisym_violation >= 0.1
    assert branch_violation >= 0.1
    assert symmetric.max_antisym_violation <= 1e-10


def test_criterion_7_pipeline_hygiene():
    # propagator unitarity
    lat = make_lattice(96, 1.0)
    unitarity = max(
        float(np.linalg.norm(u.conj().T @ u - np.eye(lat.n_sites)))
        for u in (propagator(lat, t) for t in (0.5, 3.0, 10.0))
    )

    # randomized Lueders weight conservation, 1000 trials
    rng = np.random.default_rng(7)
    weight_dev = 0.0
    for _ in range(1000):
        dim = int(rng.integers(3, 17))
        groups = int(rng.integers(2, min(dim, 5)))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(a)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        cuts = np.sort(rng.choice(np.arange(1, dim), size=groups - 1, replace=False))
        family = []
        for cols in np.split(np.arange(dim), cuts):
            block = u[:, cols]
            family.append(block @ block.conj().T)
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state = StateVector(amps / np.linalg.norm(amps))
        outcomes = luders_update([state], [p.__matmul__ for p in family])
        weight_dev = max(weight_dev, abs(sum(s.norm ** 2 for branches in outcomes for s in branches) - 1.0))

    # exchange involution, exact
    involution_exact = True
    for n in (4, 16, 96):
        perm = exchange_permutation(n)
        involution_exact = involution_exact and bool(
            np.array_equal(perm[perm], np.arange(perm.size)))

    # branch bookkeeping against the dense density-matrix reference
    branch_dev = 0.0
    for overrides in (
        dict(n=12, o1=Region(0, 4), o2=None, o3=Region(8, 12),
             packet1=PacketSpec(Region(0, 4), 1.5, 0.8, 0.0),
             packet2=PacketSpec(Region(4, 8), 5.5, 0.8, 1.2),
             t1=0.4, t2=0.9, eps=1.0),
        dict(n=12, o1=Region(0, 4), o2=None, o3=Region(8, 12),
             packet1=PacketSpec(Region(0, 4), 1.5, 0.8, 0.0),
             packet2=PacketSpec(Region(4, 8), 5.5, 0.8, 1.2),
             t1=0.4, t2=0.9, eps=1.0,
             statistics="distinguishable", kick_mode="label1",
             joint_mode="global_bell", detector_mode="label2"),
    ):
        cfg = default_scenario(**overrides)
        for kicked in (False, True):
            stages = run_arm_stages(cfg, kicked=kicked)
            ref, _pq1, _arr = _oracle_arm(cfg, kicked, keep_stages=True)
            for name in ("prepared", "post_kick", "post_o2", "final"):
                rho_pkg = oc.density_from_branches(
                    (1.0, to_flat(s)) for s in stages[name].branches)
                branch_dev = max(branch_dev, float(np.linalg.norm(rho_pkg - ref[name])))

    ok = (unitarity <= 1e-12 and weight_dev <= 1e-10 and involution_exact
          and branch_dev <= 1e-10)
    _verdict(7, "unitarity, weights, involution, branch bookkeeping",
             ok, f"unitarity={unitarity:.1e} weight_dev={weight_dev:.1e} "
                 f"involution_exact={involution_exact} branch_vs_dense={branch_dev:.1e}")
    assert unitarity <= 1e-12
    assert weight_dev <= 1e-10
    assert involution_exact
    assert branch_dev <= 1e-10
