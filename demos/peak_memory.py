"""Traced peak memory of one warm scenario, per scenario kind.

Each row runs one scenario once to fill the lattice caches, then again
under ``tracemalloc``, and prints the traced peak in units of one
complex128 state of ``128 n^2`` bytes, all eight ``(s1, s2, q)`` columns:
live branches and temporaries included, the caches filled before the trace
not.  The pipeline carries only the live columns of a state, ``16 n^2``
bytes each, one eighth of a unit.  Every
scenario is the demo geometry (t1 = 3, t2 = 7 at n = 96) scaled to n
sites.  The rows are

  label   the label1-kick, label2-detector kinds (three statistics, joint
          none or global_bell) at n = --label-n (192: the label192
          benchmark kinds)
  scale   the fermion position-kick, localized-Bell, position-detector
          kind at n = --scale-n (288: the scale288 benchmark scenario)
  n48     the fermion label1 / global_bell / label2 kind at n = 48, the
          config whose peak tier-1 bounds by ``PEAK_STATES``

with the machine's processor count and the Python and numpy versions.

Run:  PYTHONPATH=src python demos/peak_memory.py [--label-n 192] [--scale-n 288]
"""

from __future__ import annotations

import argparse
import math
import os
import platform
import tracemalloc

import numpy as np

from nosignal import PacketSpec, Region, ScenarioConfig, default_scenario, run_scenario
from nosignal.protocol import PEAK_STATES

STATISTICS = ("fermion", "boson", "distinguishable")


def scaled(n: int, **modes) -> ScenarioConfig:
    """The demo geometry with every length and time scaled by ``n / 96``."""
    s = n / 96
    return default_scenario(
        n=n,
        o1=Region(n // 12, 5 * n // 24),
        o2=Region(5 * n // 12, 13 * n // 24),
        o3=Region(19 * n // 24, 11 * n // 12),
        packet1=PacketSpec(Region(n // 12, 5 * n // 24), 14.0 * s, 3.0 * s, 0.0),
        packet2=PacketSpec(Region(25 * n // 48, 37 * n // 48), 62.0 * s, 6.0 * s, math.pi / 2),
        t1=3.0 * s,
        t2=7.0 * s,
        **modes,
    )


def rows(label_n: int, scale_n: int) -> list:
    """``(row, kind, config)`` for every scenario the table traces."""
    label = dict(kick_mode="label1", detector_mode="label2")
    out = [
        (f"label{label_n}", f"{st}/label1/{joint}/label2", scaled(label_n, statistics=st, joint_mode=joint, **label))
        for joint in ("none", "global_bell")
        for st in STATISTICS
    ]
    out.append((f"scale{scale_n}", "fermion/position/localized_bell/position",
                scaled(scale_n, kick_mode="position", joint_mode="localized_bell")))
    out.append(("n48", "fermion/label1/global_bell/label2", scaled(48, joint_mode="global_bell", **label)))
    return out


def traced_peak_states(cfg: ScenarioConfig) -> float:
    run_scenario(cfg)  # fills the lattice caches outside the trace
    tracemalloc.start()
    try:
        run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (128 * cfg.n**2)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label-n", type=int, default=192, help="sites of the label kinds")
    parser.add_argument("--scale-n", type=int, default=288, help="sites of the localized-Bell kind")
    args = parser.parse_args(argv)
    if min(args.label_n, args.scale_n) < 48 or args.label_n % 48 or args.scale_n % 48:
        parser.error("--label-n and --scale-n must be positive multiples of 48")
    print(
        f"traced peak of one warm scenario, states of 128 n^2 bytes (PEAK_STATES = {PEAK_STATES}); "
        f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {np.__version__}"
    )
    print(f"{'row':<10}{'n':>5}  {'kind':<42}{'states':>7}")
    for row, kind, cfg in rows(args.label_n, args.scale_n):
        print(f"{row:<10}{cfg.n:>5}  {kind:<42}{traced_peak_states(cfg):7.2f}")


if __name__ == "__main__":
    main()
