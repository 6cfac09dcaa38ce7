"""Where the lattice light cone is, and what the spacelike certificate checks.

A nearest-neighbor hopping Hamiltonian has a maximal group velocity of
2*J (hopping J, hbar = 1).  Amplitude that starts inside a source region
needs at least distance / (2*J) time units to reach a destination region;
before that the propagator block connecting the two regions is
exponentially small.  The `leakage` function measures that block by its
largest singular value at one time, from the eigendecomposed propagator,
so deep in the dark region it reads roundoff (~1e-15).
`light_cone_bound` bounds the same block in closed form for every time up
to t, entry by entry from the walk expansion of exp(-iHt):
|U_t(x, y)| <= (Jt)^d / d! * exp((Jt)^2 / (d + 1)) at distance d.
`check_spacelike` turns that bound at the total protocol time plus the
initial joint occupancy into a pass/fail certificate.

This script sweeps the measured leakage and the bound against time for
several separations, then certifies the default 96-site geometry and
shows a geometry that is too tight to certify.
"""

from __future__ import annotations

from nosignal import (
    Region,
    check_spacelike,
    default_scenario,
    leakage,
    light_cone_bound,
    make_lattice,
    prepare_scenario,
)


def sweep(lat, src: Region, gaps: list[int], times: list[float], measure, label: str) -> None:
    print(f"source region [{src.lo}, {src.hi}), {label} by gap and time")
    header = "gap  " + "".join(f"  t={t:<8.1f}" for t in times)
    print(header)
    print("-" * len(header))
    for gap in gaps:
        dst = Region(src.hi + gap, src.hi + gap + 12)
        row = [f"{measure(lat, src, dst, t):10.2e}" for t in times]
        print(f"{gap:<4d}" + " ".join(row))


def main() -> None:
    lat = make_lattice(96, 1.0)
    src = Region(8, 20)
    gaps, times = [8, 24, 40, 56], [2.0, 6.0, 10.0, 14.0, 18.0]
    sweep(lat, src, gaps, times, leakage, "measured leakage")
    print()
    sweep(lat, src, gaps, times, light_cone_bound, "light-cone bound")

    print()
    print("The front moves at speed 2*J = 2: gap 24 stays dark until")
    print("roughly t = 12, gap 56 until roughly t = 28.  Measured values")
    print("near 1e-15 are roundoff, and the bound goes far below them; near")
    print("the front the bound is conservative and reaches 1 earlier.")
    print()

    cfg = default_scenario()
    lat, psi0 = prepare_scenario(cfg)
    cert = check_spacelike(lat, cfg.o1, cfg.o3, psi0, cfg.t_total, cfg.eps)
    print(f"default geometry, O1=[{cfg.o1.lo},{cfg.o1.hi}) O3=[{cfg.o3.lo},{cfg.o3.hi}), "
          f"t_total={cfg.t_total}")
    print(f"  leak O1->O3  {cert.leak_13:.3e}")
    print(f"  leak O3->O1  {cert.leak_31:.3e}")
    print(f"  occupancy    O1 {cert.overlap_O1:.3e}   O3 {cert.overlap_O3:.3e}")
    print(f"  certified at eps={cert.epsilon:.0e}: {cert.passed}")

    tight = Region(24, 36)
    cert_bad = check_spacelike(lat, cfg.o1, tight, psi0, cfg.t_total, cfg.eps)
    print()
    print(f"moving O3 to [{tight.lo},{tight.hi}) puts it inside the cone:")
    print(f"  leak O1->O3  {cert_bad.leak_13:.3e}   certified: {cert_bad.passed}")

    sq = psi0.norm
    print()
    print(f"(initial state norm {sq:.12f}; the certificate's leaks are the")
    print("closed-form bound at t_total, which holds for every earlier time)")


if __name__ == "__main__":
    main()
