"""How a label-addressed detector wrecks exchange antisymmetry.

Identical fermions admit only operations that commute with particle
exchange.  A detector that couples to "the spin of particle 2" is not one
of them: the labels 1 and 2 are bookkeeping, not physics, so an apparatus
acting on label 2 alone maps valid antisymmetric states to states with no
antisymmetric part at all.

This script runs the same small 16-site scenario twice.  The position
detector (flip the readout qubit for any spin-up particle found inside
O3) keeps every branch exactly antisymmetric.  The label detector couples
the qubit to the spin at slot 2 of the amplitude tensor whenever O3 is
occupied; it produces branches that are roughly half symmetric and half
antisymmetric, with violation 1/sqrt(2) ~ 0.7071.  The same defect is the
mechanism behind label-based signaling: once amplitudes leave the
physical (antisymmetric) sector, the usual locality arguments no longer
protect the statistics.
"""

from __future__ import annotations

import numpy as np

from nosignal import (
    PacketSpec,
    Region,
    antisymmetry_violation,
    default_scenario,
    run_arm_stages,
    run_scenario,
)

STAGES = ("prepared", "post_kick", "post_o2", "final")


def small_scenario(**overrides):
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


def stage_violations(cfg) -> None:
    stages = run_arm_stages(cfg, kicked=True)
    for name in STAGES:
        ens = stages[name]
        worst = max(map(antisymmetry_violation, ens.branches))
        print(f"    {name:<10s} branches={ens.branch_count}  "
              f"worst violation={worst:.6f}")


def main() -> None:
    for mode in ("position", "label2"):
        cfg = small_scenario(detector_mode=mode)
        rep = run_scenario(cfg)
        print(f"detector_mode={mode}")
        print(f"  p(q=1) kick={rep.p_q1_kick:.6f} nokick={rep.p_q1_nokick:.6f} "
              f"delta={rep.delta:.6f}  arrival={rep.arrival_prob:.6f}")
        print(f"  max antisymmetry violation {rep.max_antisym_violation:.6f}")
        print("  kicked arm, stage by stage:")
        stage_violations(cfg)
        print()
    print("The position detector leaves every stage antisymmetric to machine")
    print("precision.  The label detector is unitary and norm-preserving, yet")
    print("its output has violation 1/sqrt(2): the branch is an equal mix of")
    print("the exchange-even and exchange-odd sectors.")
    print()
    print("The deltas tell the same story.  With the position detector the")
    print("residual delta is at the scale of this loose geometry's light-cone")
    print("leakage (the 16-site lattice is certified only at eps=1.0).  The")
    print("label detector instead delivers delta = arrival/2 exactly: when")
    print("the exchange wing with tensor slot 2 parked in O1 triggers the")
    print("detector, the qubit couples to that remote kicked spin rather")
    print("than to the particle actually sitting in O3.")


if __name__ == "__main__":
    main()
