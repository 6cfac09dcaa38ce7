"""Self-tests of the benchmark harness.

Run from the root of a source checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from nosignal import protocol  # noqa: E402


def _first(workload: str, joint_mode: str) -> dict:
    return next(c for c in next(workloads.passes(workload, 0)) if c["joint_mode"] == joint_mode)


def test_benchmark_json_names_every_metric_and_workload():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_same_seed_same_inputs():
    a, b = workloads.passes("matrix96", 7), workloads.passes("matrix96", 7)
    assert [next(a) for _ in range(3)] == [next(b) for _ in range(3)]
    assert next(workloads.passes("matrix96", 7)) != next(workloads.passes("matrix96", 8))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_correct_expectations_pass(tmp_path, workload):
    runner = run.Runner(workload, 0, tmp_path)
    cfg = next(workloads.passes(workload, 0))[0]
    if workload != "scale288":
        cfg = _first(workload, "global_bell")
    runner.run_one(cfg)
    assert (runner.attempted, runner.failed, runner.failures) == (1, 0, [])


@pytest.mark.parametrize("workload", ["matrix96", "label96"])
def test_wrong_expected_value_counts_as_failure(tmp_path, workload):
    def wrong(cfg):
        expect = checks.expected(cfg)
        if expect["delta_share"] is not None:
            expect["delta_share"] = 0.3
        return expect

    runner = run.Runner(workload, 0, tmp_path, expect=wrong)
    runner.run_one(_first(workload, "global_bell"))
    runner.run_one(_first(workload, "none"))
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "delta" in runner.failures[0]["errors"][0]


def test_raising_scenario_counts_as_failure(tmp_path):
    runner = run.Runner("matrix96", 0, tmp_path)
    runner.run_one({**_first("matrix96", "none"), "n": 4})
    assert (runner.attempted, runner.failed) == (1, 1)
    assert runner.failures[0]["errors"][0].startswith("ValueError")


def test_silent_scenario_above_floor_fails():
    report = {"delta": 1e-6, "arrival_prob": 0.98, "certificate": {"pass": True},
              "max_antisym_violation": 0.0}
    expect = checks.expected(_first("matrix96", "none") | {"statistics": "fermion", "kick_mode": "position"})
    assert checks.check(report, expect) == [f"delta 1e-06 above the silent floor {checks.SILENT_FLOOR}"]


def test_end_to_end_timings_are_medians_over_passes(monkeypatch):
    # Every third pass runs in a slow spell of the host, at half speed.
    normal = [("a", 1.0, None), ("b", 3.0, None)]
    spell = [("a", 2.0, None), ("b", 6.0, None)]

    class Stub:
        passes = itertools.cycle([normal, normal, spell])

        def run_pass(self):
            return next(self.passes)

    monkeypatch.setattr(run, "measure_setup", lambda workload, seed: [0.5])
    metrics, detail = run.end_to_end(Stub(), 0.05, "label96", 0)
    assert detail["passes"] >= 3
    assert metrics["scenario_s"] == 2.0
    assert metrics["scenario_tail_s"] == 3.0
    assert metrics["scenarios_per_s"] == 0.5
    assert metrics["setup_s"] == 0.5


def test_tracer_survives_missing_and_uncalled_targets(tmp_path):
    targets = spans.TARGETS + (
        ("protocol", "no_longer_defined", "protocol.no_longer_defined", "call"),
        ("protocol", "run_naive_sorkin", "protocol.run_naive_sorkin", "call"),
    )
    original = protocol.run_scenario
    runner = run.Runner("matrix96", 0, tmp_path)
    # Warm up untraced, as the traced run does: a cold first call spends time
    # in lazy imports outside every span.
    runner.run_one(_first("matrix96", "global_bell"))
    with spans.Tracer(targets) as tracer:
        runner.tracer = tracer
        runner.run_one(_first("matrix96", "global_bell"))
    assert protocol.run_scenario is original
    assert tracer.missing == {"protocol.no_longer_defined"}
    summary = spans.summarize(tracer.spans())
    assert "protocol.run_naive_sorkin" not in summary["names"]
    assert summary["names"]["protocol.run_scenario"]["calls"] == 1
    assert summary["names"]["protocol.joint_measurement.apply"]["calls"] == 2
    assert 0.9 < summary["root_covered_s"] / summary["root_wall_s"] <= 1.0
    assert tracer.counts["qcore.luders_measure.branches_kept"] >= 2
    assert runner.failed == 0


def test_summary_counts_overlap_across_threads():
    # Root on thread 1 spans [0, 10]; two arms overlap on threads 2 and 3.
    recorded = [
        [1, spans.ROOT, 0.0, 10.0, None, 1, 1],
        [2, "lattice.check_spacelike", 0.0, 2.0, 1, 1, 1],
        [3, "qcore.apply", 2.0, 9.0, 1, 2, 1],
        [4, "qcore.apply", 2.0, 8.0, 1, 3, 1],
        [5, "composite.evolve_positions", 3.0, 5.0, 3, 2, 1],
    ]
    summary = spans.summarize(recorded)
    assert summary["root_wall_s"] == 10.0
    assert summary["root_covered_s"] == 9.0
    assert summary["root_busy_s"] == 15.0
    assert summary["max_threads"] == 3
    assert summary["names"]["qcore.apply"]["self_s"] == 11.0
