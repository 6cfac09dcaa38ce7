"""Smoke tests of the scripts under demos/."""

from __future__ import annotations

import importlib.util
import json
import time
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_timing_runs_small(capsys):
    kernel_timing = _load("kernel_timing")
    t0 = time.perf_counter()
    kernel_timing.main(["--n", "32", "--repeat", "1"])
    elapsed = time.perf_counter() - t0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("best of 1 calls, ms; nproc ")
    assert "Python" in lines[0] and "numpy" in lines[0]
    assert lines[1].split() == ["kernel", "live", "n=32"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == [name for name, _ in kernel_timing.ROWS]
    assert all(float(row[-1]) >= 0.0 for row in rows)
    assert elapsed < 2.0


def test_bench_smoke_writes_every_key(tmp_path, capsys):
    bench = _load("bench")
    out = tmp_path / "BENCH_smoke.json"
    t0 = time.perf_counter()
    bench.main(["--label", "smoke", "--smoke", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload.keys() == {"label", "smoke", "passes", "machine", "source", "rows"}
    assert payload["label"] == "smoke" and payload["smoke"] is True and payload["passes"] == 3
    assert payload["machine"].keys() == {"nproc", "python", "numpy", "scipy", "blas", "blas_threads"}
    assert payload["machine"]["blas"]["name"]
    assert payload["source"].keys() == {"commit", "src_modified", "src_lines"} and payload["source"]["src_lines"] > 0
    assert [(row["row"], row["n"]) for row in payload["rows"]] == [("scale96", 96)] + [("label96", 96)] * 6
    for row in payload["rows"]:
        assert row.keys() == {"row", "n", "kind", "scenario_s", "stage_median_s", "exchange_checks", "peak_states"}
        assert row["scenario_s"].keys() == {"median", "q1", "q3"}
        assert 0.0 < row["scenario_s"]["q1"] <= row["scenario_s"]["median"] <= row["scenario_s"]["q3"]
        assert tuple(row["stage_median_s"]) == bench.STAGE_COLUMNS and row["stage_median_s"]["total"] > 0.0
        assert row["exchange_checks"] >= 1  # psi0 at least
        assert 0.0 < row["peak_states"] < bench.protocol.PEAK_STATES
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out}"
    assert elapsed < 5.0


# Key lines of each story demo's output; each demo runs in well under three seconds.
KEY_LINES = {
    "scenario_matrix": (
        "distinguishable label1 global_bell 4.931e-01 0.9862 7.07e-01 SIGNALS",
        "fermion position localized_bell 2.905e-01 9.03e-39 SIGNALS",  # Sorkin's geometry
    ),
    "light_cone": ("certified at eps=1e-06: True",),
    "label_operations": ("p(q=1) kick=0.141966 nokick=0.000000 delta=0.141966 arrival=0.283934",),
    "naive_signaling": ("sigma_z -0.000000 -1.000000 1.000000",),
}


@pytest.mark.parametrize("name", KEY_LINES)
def test_demo_prints_its_key_line(capsys, name):
    demo = _load(name)
    t0 = time.perf_counter()
    demo.main()
    elapsed = time.perf_counter() - t0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    for key in KEY_LINES[name]:
        assert key.split() in lines
    assert elapsed < 3.0
