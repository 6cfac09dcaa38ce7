"""Seeded scenario generators for the benchmark workloads.

Every scenario is the certified geometry of ``nosignal.default_scenario``
(and of ``demos/scenario_matrix.py``) scaled by an integer factor: regions,
packet supports, centres and widths, and both drift times grow with it.
The seed sets the scenario order within each pass and a sub-site offset of
packet 2's centre, drawn afresh for every scenario.  Scenarios are plain
dicts in the JSON config schema of the README, so the same value can go to
``run_scenario`` (through :func:`to_config`) or to ``nosignal simulate``.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

STATISTICS = ("fermion", "boson", "distinguishable")

# matrix96: the 18 scenarios of demos/scenario_matrix.py at n=96.  Many small
#   scenarios, so per-scenario operator building and projector validation
#   dominate; the global-Bell scenarios carry two branches and set the tail.
#   Kept for runs by hand.  BENCHMARK.json does not list it: on a busy
#   2-core host its 25-second runs spread past their bounds, and leaving it
#   out makes room for runs twice as long on the other two.
# scale288: one fermion scenario scaled x3 to n=288.  The n^3 drift,
#   propagator and certificate kernels and peak memory dominate.
# label96: label-addressed scenarios at n=96, run through the CLI.  The label2
#   detector branches on a projector, so arms carry up to four branches; it is
#   the only workload that covers cli.  Kept for runs by hand: its small
#   scenarios magnify a slow spell of the host through the arm pool's and
#   OpenBLAS's thread handoffs, so its runs spread up to twice as far as
#   label192's in the same minutes.
# label192: the six label96 scenarios scaled x2 to n=192, in its place in
#   BENCHMARK.json.  Same layers, cli and label2 branching included, with
#   more work per handoff.
WORKLOADS = ("matrix96", "scale288", "label96", "label192")
# Label workloads run through the CLI; the value is the geometry's scale.
LABEL_SCALES = {"label96": 1, "label192": 2}


def _region(lo: int, hi: int) -> dict:
    return {"lo": lo, "hi": hi}


def scenario(scale: int, offset: float, statistics: str, kick_mode: str, joint_mode: str,
             detector_mode: str) -> dict:
    """Demo geometry scaled by ``scale``, packet 2's centre moved by ``offset`` sites."""
    s = scale
    return {
        "n": 96 * s,
        "hopping": 1.0,
        "o1": _region(8 * s, 20 * s),
        "o2": _region(40 * s, 52 * s),
        "o3": _region(76 * s, 88 * s),
        "packet1": {"support": _region(8 * s, 20 * s), "center": 14.0 * s, "width": 3.0 * s,
                    "momentum": 0.0},
        "packet2": {"support": _region(50 * s, 74 * s), "center": 62.0 * s + offset,
                    "width": 6.0 * s, "momentum": math.pi / 2},
        "statistics": statistics,
        "kick_mode": kick_mode,
        "joint_mode": joint_mode,
        "detector_mode": detector_mode,
        "t1": 3.0 * s,
        "t2": 7.0 * s,
        "eps": 1e-6,
        "selective_o3": False,
    }


def _kinds(workload: str) -> list:
    """(scale, statistics, kick, joint, detector) of every scenario in one pass."""
    if workload == "matrix96":
        return [(1, st, kick, joint, "position")
                for st in STATISTICS
                for kick in ("position", "label1")
                for joint in ("none", "global_bell", "localized_bell")]
    if workload == "scale288":
        return [(3, "fermion", "position", "localized_bell", "position")]
    if workload in LABEL_SCALES:
        return [(LABEL_SCALES[workload], st, "label1", joint, "label2")
                for st in STATISTICS
                for joint in ("none", "global_bell")]
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")


def scenario_key(cfg: dict) -> str:
    return "/".join((cfg["statistics"], cfg["kick_mode"], cfg["joint_mode"], cfg["detector_mode"]))


def passes(workload: str, seed: int) -> Iterator[list]:
    """Endless stream of passes; each pass runs every scenario of the workload once."""
    kinds = _kinds(workload)
    rng = random.Random(seed)
    while True:
        order = list(kinds)
        rng.shuffle(order)
        yield [scenario(scale, rng.uniform(-0.5, 0.5), *rest) for scale, *rest in order]


def to_config(cfg: dict):
    """Build the ``ScenarioConfig`` the public API takes from a schema dict."""
    from nosignal import PacketSpec, Region, ScenarioConfig

    def region(r):
        return Region(r["lo"], r["hi"])

    def packet(p):
        return PacketSpec(region(p["support"]), p["center"], p["width"], p["momentum"])

    fields = dict(cfg)
    for name in ("o1", "o2", "o3"):
        fields[name] = region(cfg[name])
    for name in ("packet1", "packet2"):
        fields[name] = packet(cfg[name])
    return ScenarioConfig(**fields)
