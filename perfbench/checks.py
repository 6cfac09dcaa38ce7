"""Closed-form checks on one scenario's report.

Each check is stated relative to the arrival probability the scenario
itself measured, so it holds for every seed.  A check yields a message when
it fails; the harness counts a scenario with any message as failed.  Float
outputs are never compared to a previous run, so roundoff cannot read as a
regression.

The closed forms are the ones README and ``demos/scenario_matrix.py`` state:

* the spacelike certificate passes;
* a scenario without the global Bell measurement stays silent: README puts
  its delta at the 1e-31 floating-point floor, and the check allows a
  thousandfold for roundoff summed in another order;
* with the global Bell measurement, delta is arrival/2 when the kick is a
  full spin flip (position kick, or label1 on distinguishable particles) and
  arrival/4 when label1 flips only one exchange wing of an (anti)symmetrized
  state;
* the antisymmetric-sector defect is 0 for fermions under position-addressed
  operations and 1/sqrt(2) once a label-addressed operation touches them
  (label1 kick or label2 detector); symmetric boson states read 1 and
  product states 1/sqrt(2) by construction.
"""

from __future__ import annotations

import math

SILENT_FLOOR = 1e-28
RELATION_ATOL = 1e-9
DEFECT_ATOL = 1e-9
# Below this the packet did not arrive and delta ~ arrival checks nothing.
MIN_ARRIVAL = 0.5


def expected(cfg: dict) -> dict:
    """Closed-form expectations for a config in the README schema."""
    if cfg["joint_mode"] != "global_bell":
        delta_share = None
    elif cfg["kick_mode"] == "position" or cfg["statistics"] == "distinguishable":
        delta_share = 0.5
    else:
        delta_share = 0.25
    if cfg["statistics"] == "boson":
        defect = 1.0
    elif cfg["statistics"] == "distinguishable":
        defect = 1.0 / math.sqrt(2.0)
    elif cfg["kick_mode"] == "label1" or cfg["detector_mode"] == "label2":
        defect = 1.0 / math.sqrt(2.0)
    else:
        defect = 0.0
    return {"delta_share": delta_share, "antisym_defect": defect}


def check(report: dict, expect: dict) -> list:
    """Failure messages for one report (the ``nosignal simulate`` JSON fields)."""
    failures = []
    arrival = report["arrival_prob"]
    delta = report["delta"]
    if not report["certificate"]["pass"]:
        failures.append("certificate failed")
    if not arrival > MIN_ARRIVAL:
        failures.append(f"arrival {arrival!r} <= {MIN_ARRIVAL}")
    share = expect["delta_share"]
    if share is None:
        if not delta <= SILENT_FLOOR:
            failures.append(f"delta {delta!r} above the silent floor {SILENT_FLOOR}")
    elif not abs(delta - share * arrival) <= RELATION_ATOL:
        failures.append(f"delta {delta!r} != {share} * arrival {arrival!r}")
    defect = report["max_antisym_violation"]
    if not abs(defect - expect["antisym_defect"]) <= DEFECT_ATOL:
        failures.append(f"antisymmetry defect {defect!r} != {expect['antisym_defect']!r}")
    return failures
