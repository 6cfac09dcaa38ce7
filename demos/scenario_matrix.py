"""The full signaling matrix: statistics x kick addressing x joint measurement.

Every run uses the same certified 96-site geometry (O1 and O3 causally
disconnected to better than 1e-6 for the whole protocol) and the same
position-resolved detector in O3.  What varies is

  statistics : fermion | boson | distinguishable
  kick       : position  (flip any spin found inside O1)
               label1    (flip the spin carried by tensor slot 1)
  joint O2   : none | global_bell | localized_bell

delta is the change the O1 kick induces in the O3 detector statistics.
Anything materially above zero is a faster-than-light signal, because the
certificate bounds every dynamical path between the regions.

The table makes the mechanism exact: signaling appears if and only if the
joint measurement is the global one.  The global Bell projector acts on
both spins wherever the particles are, so it is itself a nonlocal
operation spanning O1 and O3; it relays the kick regardless of statistics
and regardless of how the kick was addressed.  Replace it with the same
projector confined to O2 (which neither packet can reach in time) or drop
it, and every delta collapses to floating-point zero.  Localized
exchange-symmetric operations are silent here because O2 lies out of reach
of both packets in time, not because they are localized: in Sorkin's
geometry, where O2 meets the causal future of O1 and the causal past of O3
(README), the O2-localized Bell measurement relays a position kick with
delta 0.29 under a passing certificate; the three fermion rows after the
table run that geometry.  One label-blind global operation in the chain is
enough to fake a signal.
"""

from __future__ import annotations

import math

from nosignal import PacketSpec, Region, ScenarioConfig, default_scenario, run_scenario

STATISTICS = ("fermion", "boson", "distinguishable")
KICKS = ("position", "label1")
JOINTS = ("none", "global_bell", "localized_bell")

# Sorkin's geometry (README): O2 meets the causal future of O1 and the causal past of O3.
SORKIN = dict(
    n=160,
    o1=Region(8, 24),
    o2=Region(30, 122),
    o3=Region(132, 150),
    packet1=PacketSpec(Region(8, 24), 16.0, 3.0, math.pi / 2),
    packet2=PacketSpec(Region(88, 112), 100.0, 6.0, math.pi / 2),
    t1=8.0,
    t2=10.0,
)


def main() -> None:
    print("statistics       kick      joint            delta        arrival  "
          "antisym      verdict")
    print("-" * 92)
    for statistics in STATISTICS:
        for kick in KICKS:
            for joint in JOINTS:
                cfg = default_scenario(
                    statistics=statistics,
                    kick_mode=kick,
                    joint_mode=joint,
                    t1=3.0,
                    t2=7.0,
                )
                rep = run_scenario(cfg)
                verdict = "SIGNALS" if rep.delta > 1e-8 else "silent"
                print(f"{statistics:<16s} {kick:<9s} {joint:<16s} "
                      f"{rep.delta:10.3e}   {rep.arrival_prob:7.4f}  "
                      f"{rep.max_antisym_violation:9.2e}    {verdict}")
        print("-" * 92)
    print()
    print("Sorkin's geometry: n = 160, O1 = [8, 24), O2 = [30, 122), O3 = [132, 150)")
    print("statistics       kick      joint            delta        leak_13      verdict")
    for joint in JOINTS:
        rep = run_scenario(ScenarioConfig(**SORKIN, joint_mode=joint))
        verdict = "SIGNALS" if rep.delta > 1e-8 else "silent"
        print(f"{'fermion':<16s} {'position':<9s} {joint:<16s} "
              f"{rep.delta:10.3e}   {rep.certificate.leak_13:9.2e}    {verdict}")
    print()
    print("Notes.  arrival is the probability of finding a particle inside O3")
    print("at detection time (unkicked arm).  The global-joint deltas are")
    print("arrival/2 when the kick reaches a full spin flip (position kick,")
    print("or label1 on distinguishable particles) and arrival/4 when label1")
    print("only flips one exchange wing of an (anti)symmetrized state.")
    print()
    print("antisym is the worst antisymmetric-sector defect ||psi + S psi||/2")
    print("over all branches, the fermion admissibility diagnostic: 0 for")
    print("fermion runs with position-addressed operations, 0.71 once a")
    print("label1 kick pushes the fermion state out of its sector.  Symmetric")
    print("boson states read 1 and product states 0.71 on this metric by")
    print("construction; the boson analogue (symmetric-sector defect) is")
    print("zero for every position-addressed boson run.")
    print()
    print("In Sorkin's geometry the certificate passes (leak_13 bounds every")
    print("path from O1 to O3), yet localized_bell signals: O2 meets the causal")
    print("future of O1 and the causal past of O3.")


if __name__ == "__main__":
    main()
