"""Unit tests for the hard-wall chain, packets, and causality bounds."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles as oc
from nosignal import (
    Region,
    SpacelikeCertificate,
    check_spacelike,
    default_scenario,
    hamiltonian,
    leakage,
    light_cone_bound,
    make_lattice,
    prepare_scenario,
    propagator,
    wavepacket,
)
from nosignal import lattice as lattice_mod
from nosignal.composite import from_flat
from nosignal.composite import joint_position_probability


# ---------------------------------------------------------------------------
# construction and regions


def test_lattice_validation():
    lat = make_lattice(12, 0.5)
    assert lat.n_sites == 12
    assert lat.hopping == 0.5
    with pytest.raises(ValueError):
        make_lattice(7, 1.0)
    with pytest.raises(ValueError):
        make_lattice(12, 0.0)
    with pytest.raises(ValueError):
        make_lattice(12, -1.0)


def test_region_behavior():
    r = Region(2, 5)
    assert r.width == 3
    np.testing.assert_array_equal(r.sites(), [2, 3, 4])
    assert r.overlaps(Region(4, 9))
    assert not r.overlaps(Region(5, 9))  # half-open intervals just touch
    with pytest.raises(ValueError):
        Region(5, 5)
    with pytest.raises(ValueError):
        Region(-1, 3)
    with pytest.raises(ValueError, match="bounds must be integers"):
        Region(0.5, 3)


# ---------------------------------------------------------------------------
# hamiltonian and propagator


def test_hamiltonian_matches_reference():
    lat = make_lattice(9, 1.7)
    h = hamiltonian(lat)
    np.testing.assert_array_equal(h, oc.hop_hamiltonian(9, 1.7))
    assert np.linalg.norm(h - h.conj().T) == 0.0


def test_propagator_matches_expm():
    lat = make_lattice(14, 0.8)
    for t in (0.0, 0.37, 2.0, 11.5):
        u = propagator(lat, t)
        np.testing.assert_allclose(u, oc.single_propagator(14, 0.8, t), atol=1e-12)


def test_propagator_unitarity_and_composition():
    lat = make_lattice(96, 1.0)
    for t in (0.5, 3.0, 10.0):
        u = propagator(lat, t)
        assert np.linalg.norm(u.conj().T @ u - np.eye(96)) <= lattice_mod.UNITARITY_ATOL
    u_a = propagator(lat, 2.0)
    u_b = propagator(lat, 3.5)
    u_ab = propagator(lat, 5.5)
    assert np.linalg.norm(u_ab - u_a @ u_b) < 1e-12


def test_propagator_rejects_negative_time():
    lat = make_lattice(12, 1.0)
    with pytest.raises(ValueError):
        propagator(lat, -0.1)


# ---------------------------------------------------------------------------
# wavepackets


def test_wavepacket_matches_reference_formula():
    lat = make_lattice(32, 1.0)
    got = wavepacket(lat, Region(2, 30), 12.0, 4.0, 0.9)
    want = oc.hann_packet(32, 2, 30, 12.0, 4.0, 0.9)
    np.testing.assert_allclose(got.amps, want, atol=1e-14)
    assert got.norm == pytest.approx(1.0, abs=1e-12)


def test_wavepacket_support_is_exact():
    lat = make_lattice(40, 1.0)
    pk = wavepacket(lat, Region(5, 25), 12.0, 4.0, 1.3)
    outside = np.ones(40, dtype=bool)
    outside[5:25] = False
    assert np.all(pk.amps[outside] == 0.0)  # exactly zero, not merely small
    # amplitude profile does not depend on the carrier momentum
    pk0 = wavepacket(lat, Region(5, 25), 12.0, 4.0, 0.0)
    np.testing.assert_allclose(np.abs(pk.amps), np.abs(pk0.amps), atol=1e-14)


def test_wavepacket_validation():
    lat = make_lattice(40, 1.0)
    with pytest.raises(ValueError):
        wavepacket(lat, Region(5, 25), 12.0, 6.0, 0.0)  # width > support/4
    with pytest.raises(ValueError):
        wavepacket(lat, Region(5, 25), 6.0, 4.0, 0.0)  # envelope clips the edge
    with pytest.raises(ValueError):
        wavepacket(lat, Region(5, 25), 12.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        wavepacket(lat, Region(5, 50), 12.0, 4.0, 0.0)  # support exceeds lattice


def test_wavepacket_group_velocity():
    # At carrier momentum pi/2 the packet centroid should move at close to
    # the band's maximal group velocity 2 * hopping.
    lat = make_lattice(96, 1.0)
    pk = wavepacket(lat, Region(4, 56), 30.0, 10.0, np.pi / 2)
    t = 4.0
    moved = propagator(lat, t) @ pk.amps
    x = np.arange(96)
    v = (float(x @ np.abs(moved) ** 2) - float(x @ np.abs(pk.amps) ** 2)) / t
    assert abs(v - 2.0) / 2.0 < 0.05


# ---------------------------------------------------------------------------
# leakage


def test_leakage_zero_time_disjoint_regions():
    lat = make_lattice(32, 1.0)
    assert leakage(lat, Region(0, 8), Region(16, 24), 0.0) == 0.0


def test_leakage_single_site_destination():
    lat = make_lattice(32, 1.0)
    got = leakage(lat, Region(0, 8), Region(20, 21), 3.0)
    want = oc.block_leakage(32, 1.0, range(0, 8), range(20, 21), 3.0)
    assert got == pytest.approx(want, abs=1e-12)


def test_leakage_matches_direct_svd():
    lat = make_lattice(48, 1.3)
    src, dst = Region(2, 10), Region(30, 44)
    for t in (1.0, 5.0):
        got = leakage(lat, src, dst, t)
        want = oc.block_leakage(48, 1.3, range(2, 10), range(30, 44), t)
        assert got == pytest.approx(want, abs=1e-12)


# Frozen distance/time samples on the 96-site chain: the gap between the
# regions is wide enough that the propagator block stays tiny, while the
# same gap at a long enough time is crossed almost completely.
LIGHT_CONE_SAMPLES = [
    (24, 4.0),
    (32, 6.0),
    (40, 8.0),
    (48, 10.0),
    (56, 12.0),
    (56, 18.0),
]


@pytest.mark.parametrize("gap,t", LIGHT_CONE_SAMPLES)
def test_leakage_small_outside_light_cone(gap, t):
    lat = make_lattice(96, 1.0)
    src = Region(8, 20)
    dst = Region(20 + gap, 32 + gap)
    assert leakage(lat, src, dst, t) <= 1e-6
    assert leakage(lat, dst, src, t) <= 1e-6


def test_leakage_large_inside_light_cone():
    lat = make_lattice(96, 1.0)
    assert leakage(lat, Region(8, 20), Region(44, 56), 16.0) > 0.5


# ---------------------------------------------------------------------------
# light-cone bound

# scipy's expm resolves the propagator to a few ulp of its norm (1), not to
# relative precision in entries ~1e-30 deep in the dark region, and its
# block norms can exceed 1 by an ulp or two.
ORACLE_ATOL = 2e-15


def _random_region_pair(rng, n, kind):
    w1, w2 = (int(w) for w in rng.integers(1, n // 3 + 1, size=2))
    # gap = lo of the second region minus hi of the first
    if kind == "overlapping":
        gap = -int(rng.integers(1, min(w1, w2) + 1))
    elif kind == "adjacent":
        gap = 0
    else:
        gap = int(rng.integers(1, n - w1 - w2 + 1))
    lo1 = int(rng.integers(0, n - w1 - w2 - max(gap, 0) + 1))
    src, dst = Region(lo1, lo1 + w1), Region(lo1 + w1 + gap, lo1 + w1 + gap + w2)
    return (src, dst) if rng.random() < 0.5 else (dst, src)


@pytest.mark.parametrize("kind", ["disjoint", "adjacent", "overlapping"])
def test_light_cone_bound_dominates_oracle(kind):
    rng = np.random.default_rng({"disjoint": 1, "adjacent": 2, "overlapping": 3}[kind])
    for _ in range(2):
        n = int(rng.integers(12, 41))
        hopping = float(rng.uniform(0.2, 2.0))
        t_end = float(rng.uniform(0.5, 6.0))
        src, dst = _random_region_pair(rng, n, kind)
        lat = make_lattice(n, hopping)
        times = np.linspace(0.0, t_end, 200)
        bounds = np.array([light_cone_bound(lat, src, dst, t) for t in times])
        oracle = np.array([oc.block_leakage(n, hopping, src.sites(), dst.sites(), t) for t in times])
        case = (n, hopping, t_end, src, dst)
        assert np.all(oracle <= bounds + ORACLE_ATOL), case
        # the certificate's claim: the value at t_end covers every earlier
        # time (a block of a unitary has norm <= 1, whatever the roundoff)
        assert np.minimum(oracle, 1.0).max() <= bounds[-1], case
        assert np.all(np.diff(bounds) >= 0.0), case
        assert np.all((bounds >= 0.0) & (bounds <= 1.0)), case
        if kind == "overlapping":
            assert bounds[0] == 1.0
        else:
            assert bounds[0] == 0.0
            assert np.all(bounds[1:] > 0.0)
        # symmetric in the two regions
        assert light_cone_bound(lat, dst, src, t_end) == bounds[-1]


def test_light_cone_bound_matches_its_closed_form():
    # min(1, Frobenius norm of the entry bounds), summed pair by pair with
    # exact factorials instead of in log space over distances
    rng = np.random.default_rng(7)
    for kind in ("disjoint", "adjacent", "overlapping") * 4:
        n = int(rng.integers(12, 41))
        hopping, t = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.5, 4.0))
        src, dst = _random_region_pair(rng, n, kind)
        z = hopping * t
        total = 0.0
        for x in src.sites():
            for y in dst.sites():
                d = abs(int(x) - int(y))
                total += min(1.0, z**d / math.factorial(d) * math.exp(z * z / (d + 1))) ** 2
        got = light_cone_bound(make_lattice(n, hopping), src, dst, t)
        assert got == pytest.approx(min(1.0, math.sqrt(total)), rel=1e-12), (n, hopping, t, src, dst)


def test_light_cone_bound_never_underflows_to_zero():
    lat = make_lattice(40, 1.0)
    src, dst = Region(0, 1), Region(39, 40)
    assert light_cone_bound(lat, src, dst, 0.0) == 0.0
    for t in (1e-300, 5e-324, 1e-3):
        assert light_cone_bound(lat, src, dst, t) >= np.nextafter(0.0, 1.0)
    # J t itself underflows to 0 here
    assert light_cone_bound(make_lattice(40, 0.5), src, dst, 5e-324) > 0.0
    # (1e-3)^39 / 39! = 4.9e-164, above the floor
    assert light_cone_bound(lat, src, dst, 1e-3) == pytest.approx(4.9e-164, rel=0.01)
    with pytest.raises(ValueError):
        light_cone_bound(lat, src, dst, -1.0)
    with pytest.raises(ValueError):
        light_cone_bound(lat, src, Region(30, 41), 1.0)


def test_import_leaves_sparse_linalg_unloaded():
    # Importing and running the package, API and CLI alike, loads no scipy module at all.
    code = (
        "import sys, nosignal\n"
        "from nosignal import cli\n"
        "nosignal.run_scenario(nosignal.default_scenario())\n"
        "assert cli.main(['naive', '--observable', 'sx']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = os.path.dirname(os.path.dirname(lattice_mod.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# certificates


def test_certificate_on_default_geometry():
    cfg = default_scenario()
    lat, psi0 = prepare_scenario(cfg)
    cert = check_spacelike(lat, cfg.o1, cfg.o3, psi0, cfg.t_total, cfg.eps)
    assert cert.passed
    assert cert.epsilon == pytest.approx(1e-6)
    # the stored leaks are the light-cone bound at the total time, and no
    # smaller than the oracle block norm at any time of a fine grid
    bound = light_cone_bound(lat, cfg.o1, cfg.o3, cfg.t_total)
    assert cert.leak_13 == bound
    assert cert.leak_31 == bound
    sites1, sites3 = cfg.o1.sites(), cfg.o3.sites()
    times = np.linspace(0.0, cfg.t_total, 41)
    fine_max = max(oc.block_leakage(cfg.n, cfg.hopping, sites1, sites3, t) for t in times)
    assert bound >= fine_max
    # and the overlaps are the joint occupancies of the initial state
    want_o1 = joint_position_probability(psi0, cfg.o1.sites(), cfg.o1.sites())
    want_o3 = joint_position_probability(psi0, cfg.o3.sites(), cfg.o3.sites())
    assert cert.overlap_O1 == want_o1
    assert cert.overlap_O3 == want_o3


def test_certificate_fails_when_regions_too_close():
    cfg = default_scenario()
    lat, psi0 = prepare_scenario(cfg)
    near = Region(24, 36)  # close enough to O1 for leakage within t_total
    cert = check_spacelike(lat, cfg.o1, near, psi0, cfg.t_total, cfg.eps)
    assert not cert.passed
    assert cert.leak_13 > cfg.eps


def test_certificate_flag_consistency_enforced():
    with pytest.raises(ValueError):
        SpacelikeCertificate(epsilon=1e-6, leak_13=-0.5, leak_31=0.0, overlap_O1=0.0, overlap_O3=0.0)


@pytest.mark.parametrize("field", ["leak_13", "leak_31", "overlap_O1", "overlap_O3"])
def test_certificate_passes_up_to_epsilon_and_fails_one_ulp_above(field):
    eps, zeros = 1e-6, dict(leak_13=0.0, leak_31=0.0, overlap_O1=0.0, overlap_O3=0.0)
    at, above = (SpacelikeCertificate(epsilon=eps, **{**zeros, field: v}) for v in (eps, math.nextafter(eps, math.inf)))
    assert at.passed is True
    assert above.passed is False


def test_check_spacelike_validates_inputs():
    cfg = default_scenario()
    lat, psi0 = prepare_scenario(cfg)
    with pytest.raises(ValueError):
        check_spacelike(lat, cfg.o1, cfg.o3, psi0, -1.0, cfg.eps)
    for eps in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"eps must be positive and finite, got {eps}"):
            check_spacelike(lat, cfg.o1, cfg.o3, psi0, cfg.t_total, eps)
    small_space_state = wavepacket(lat, Region(8, 20), 14.0, 3.0, 0.0)
    with pytest.raises(ValueError):
        check_spacelike(lat, cfg.o1, cfg.o3, small_space_state, cfg.t_total, cfg.eps)
    # Composite states of another lattice size raise, also a 120-site one,
    # whose site range still covers O1 and O3.
    for n, per_pair in ((12, 4), (120, 4), (120, 8)):
        other = from_flat(np.eye(1, per_pair * n * n)[0])
        with pytest.raises(ValueError, match=f"not on the {cfg.n}-site lattice"):
            check_spacelike(lat, cfg.o1, cfg.o3, other, cfg.t_total, cfg.eps)
