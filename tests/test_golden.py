"""Byte identity of reports and stage states against ``tests/golden/reports.json``.

Where the machine's fingerprint matches the one stored in the golden file,
the report digests, float fields and per-branch stage digests must match
exactly.  Elsewhere float bytes may move with the BLAS build, so the report
floats must match at rel 1e-12 (with an absolute floor of 1e-15 for the
roundoff-level ``delta`` and ``max_antisym_violation``), and exit codes and
stage branch counts exactly.  Every config runs in either case.
"""

from __future__ import annotations

import json
import math

from conftest import record_acceptance
from golden import regen

FLOAT_RTOL = 1e-12
ROUNDOFF_FIELDS = {"delta": 1e-15, "max_antisym_violation": 1e-15}


def _branch_counts(stages: dict) -> dict:
    return {arm: {name: len(digests) for name, digests in by_stage.items()} for arm, by_stage in stages.items()}


def _float_mismatches(got: dict, want: dict) -> list:
    if got.keys() != want.keys():
        return [f"float fields {sorted(got.keys() ^ want.keys())}"]
    return [
        f"{key}: {got[key]} != {want[key]}"
        for key in want
        if not math.isclose(float(got[key]), float(want[key]), rel_tol=FLOAT_RTOL,
                            abs_tol=ROUNDOFF_FIELDS.get(key, 0.0))
    ]


def test_reports_and_stage_digests_match_the_golden_file(tmp_path):
    golden = json.loads(regen.GOLDEN.read_text(encoding="utf-8"))
    configs = regen.configs()
    assert configs.keys() == golden["configs"].keys()
    exact = regen.fingerprint() == golden["fingerprint"]
    failures = []
    for name, cfg in configs.items():
        got, want = regen.record(cfg, tmp_path), golden["configs"][name]
        if exact:
            failures += [f"{name}: {field}" for field in want if got[field] != want[field]]
            continue
        if got["exit_code"] != want["exit_code"]:
            failures.append(f"{name}: exit code {got['exit_code']} != {want['exit_code']}")
        if _branch_counts(got["stages"]) != _branch_counts(want["stages"]):
            failures.append(f"{name}: stage branch counts")
        failures += [f"{name}: {m}" for m in _float_mismatches(got["floats"], want["floats"])]
    comparison = "bytes (fingerprint matches)" if exact else f"floats at rel {FLOAT_RTOL:g} (fingerprint differs)"
    record_acceptance(
        f"[golden] {len(configs)} configs vs tests/golden/reports.json  "
        f"{'FAIL' if failures else 'PASS'}  compared {comparison}"
    )
    assert not failures, failures
