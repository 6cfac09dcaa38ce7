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
from nosignal import (
    antisymmetry_violation,
    position_occupancy,
    prepare_scenario,
    protocol,
    qubit_one_probability,
    run_scenario,
)
from nosignal.cli import parse_config

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


def test_every_golden_delta_sits_on_its_closed_form():
    # delta = k * arrival / 4 when the detector is not selective and k / 4 when it is,
    # with k in {0, 1, 2}.  Read from the golden floats; the test does not predict k.
    golden = json.loads(regen.GOLDEN.read_text(encoding="utf-8"))["configs"]
    counts = {False: [0, 0, 0], True: [0, 0, 0]}
    for name, cfg in regen.configs().items():
        floats = golden[name]["floats"]
        delta, selective = float(floats["delta"]), bool(cfg.get("selective_o3", False))
        unit = 0.25 if selective else float(floats["arrival_prob"]) / 4
        k = round(delta / unit)
        assert k in (0, 1, 2), (name, delta, unit)
        assert abs(delta - k * unit) <= 1e-14, (name, delta, k * unit)
        counts[selective][k] += 1
    record_acceptance(f"[golden] delta on k*arrival/4 (k=0/1/2: {counts[False]}) and k/4 ({counts[True]})  PASS")


def test_regen_lists_every_changed_field():
    entry = {"exit_code": 0, "report_sha256": "a", "floats": {"delta": "0.5", "arrival_prob": "1.0"},
             "stages": {"kick": {"final": ["x", "y"]}, "nokick": {"final": ["z"]}}}
    moved = {"exit_code": 1, "report_sha256": "b", "floats": {"delta": "0.25", "arrival_prob": "1.0"},
             "stages": {"kick": {"final": ["x"]}, "nokick": {"final": ["z"]}}}
    old = {"fingerprint": {"numpy": "1"}, "configs": {"same": entry, "moved": entry, "gone": entry}}
    new = {"fingerprint": {"numpy": "1"}, "configs": {"same": entry, "moved": moved, "new": entry}}
    assert regen.changes(old, new) == [
        "gone: removed",
        "new: added",
        "moved: exit_code 0 -> 1",
        "moved: report_sha256 a -> b",
        "moved: delta 0.5 -> 0.25",
        "moved: stages.kick.final digests differ (2 -> 1 branches)",
    ]
    assert regen.changes(old, old) == []
    assert regen.changes({}, old)[0] == "fingerprint: None -> {'numpy': '1'}"


def test_regen_summarizes_what_a_regeneration_lists():
    cert = {"certificate.epsilon": "1e-06", "certificate.leak_13": "1e-30", "certificate.leak_31": "1e-30",
            "certificate.overlap_O1": "0.0", "certificate.overlap_O3": "0.0"}
    signal = {"exit_code": 0, "floats": dict(cert, delta="0.25", arrival_prob="1.0"),
              "stages": {"kick": {"final": ["x", "y"]}}}
    quiet = {"exit_code": 0, "floats": dict(cert, delta="1e-44", arrival_prob="0.5"), "stages": {"kick": {"final": ["z"]}}}
    zero = dict(quiet, floats=dict(quiet["floats"], delta="0.0"))
    old = {"configs": {"a": signal, "b": quiet, "c": zero, "gone": signal}}
    new = {"configs": {
        "a": dict(signal, floats=dict(signal["floats"], delta="0.2500000000000005", arrival_prob="1.0000000000000002")),
        "b": dict(quiet, exit_code=2, floats=dict(quiet["floats"], delta="2e-44", **{"certificate.leak_13": "1.0"}),
                  stages={"kick": {"final": ["z", "w"]}}),
        "c": zero,
    }}
    assert regen.summary(old, new) == [
        "largest relative change of each float above 1e-12:",
        "  arrival_prob 2.2e-16 (a)",
        "  certificate.epsilon 0 (did not move)",
        "  delta 2.0e-15 (a)",
        "no-signal deltas (< 1e-10), before -> after:",
        "  b: 1e-44 -> 2e-44",
        "  c: 0.0 (same)",
        "exit codes, certificate passes and stage branch counts:",
        "  b: exit code 0 -> 2",
        "  b: certificate pass True -> False",
        "  b: stage branch counts {'kick': {'final': 1}} -> {'kick': {'final': 2}}",
    ]
    assert regen.summary(old, old)[-1] == "  no change"


def test_reported_violation_is_the_worst_over_every_branch_of_every_stage():
    # The report measures psi0 and the stages a label-addressed step or a
    # Lueders split builds; every step it skips commutes with the exchange,
    # so the maximum over every branch of every stage of both arms agrees.
    # Roundoff in a skipped check moves it by about 1e-16.
    worst, checked = 0.0, 0
    for name, cfg in regen.configs().items():
        if cfg["n"] > 96:
            continue
        config = parse_config(json.dumps(cfg))
        psi0 = prepare_scenario(config)[1]
        every = max(antisymmetry_violation(s) for kicked in (False, True)
                    for _, ens in protocol._run_arm(config, psi0, kicked) for s in ens.branches)
        gap = abs(run_scenario(config).max_antisym_violation - every)
        assert gap <= 1e-15, (name, gap)
        worst, checked = max(worst, gap), checked + 1
    assert checked == 84
    record_acceptance(f"[golden] reported violation vs every stage branch ({checked} configs)  PASS  worst {worst:.1e}")


def test_the_o3_window_reports_what_the_arm_on_every_site_reads():
    # run_scenario holds the pre-detector and final branches on O3's strips
    # only.  The same numbers, read from each arm on every site (the default
    # window, which run_arm_stages and the CLI dumps use): arrival, both
    # p(q=1), the worst violation of psi0 and of the stages that run_scenario
    # checks, and the final branch counts.
    worst = 0.0
    for name, cfg in regen.configs().items():
        config = parse_config(json.dumps(cfg))
        psi0 = prepare_scenario(config)[1]
        want = {"max_antisym_violation": antisymmetry_violation(psi0)}
        for kicked, arm in (("nokick", False), ("kick", True)):
            checked = {"post_kick": arm and config.kick_mode == "label1", "post_o2": config.joint_mode != "none",
                       "final": config.detector_mode == "label2" or config.selective_o3}
            for stage, ens in protocol._run_arm(config, psi0, arm):
                if checked.get(stage):
                    want["max_antisym_violation"] = max(want["max_antisym_violation"],
                                                        *map(antisymmetry_violation, ens.branches))
                if stage == "pre_detector" and not arm:
                    occ1, occ2 = position_occupancy(ens, slice(config.o3.lo, config.o3.hi))
                    want["arrival_prob"] = float(occ1.sum() + occ2.sum())
                elif stage == "final":
                    want[f"p_q1_{kicked}"] = qubit_one_probability(ens)
                    want[f"branch_count_{kicked}"] = ens.branch_count
        report = run_scenario(config)
        for key, value in want.items():
            got = getattr(report, key)
            if key.startswith("branch_count"):
                assert got == value, (name, key)
            else:
                assert math.isclose(got, value, rel_tol=1e-14, abs_tol=1e-300), (name, key, got, value)
                worst = max(worst, abs(got - value) / abs(value) if value else 0.0)
    record_acceptance(f"[golden] O3 window vs every site ({len(regen.configs())} configs)  PASS  worst rel {worst:.1e}")
