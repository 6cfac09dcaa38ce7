"""Rewrite ``reports.json``, the byte-identity record of the pipeline.

Run from the root of a source checkout::

    python3 tests/golden/regen.py

Every config of :func:`configs` goes through ``nosignal simulate``.  Per
config the file stores the exit code, the SHA-256 of the report without
``manifest.duration_seconds``, the ``repr`` of every float field of the
report, and the SHA-256 of the amplitude bytes of every branch of both
arms at every stage, taken from each arm on every site (a branch is
unnormalized: its weight is its squared norm).  Float bytes depend on the
BLAS build and its thread count, so the file also stores the
:func:`fingerprint` of the machine that wrote it;
``tests/test_golden.py`` reads it.  A change that means to move bytes runs
this script, which prints every field that differs from the file it
replaces, then the :func:`summary` the change lists.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().with_name("reports.json")
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from nosignal import cli, protocol  # noqa: E402
from nosignal.composite import to_flat  # noqa: E402
from perfbench import workloads  # noqa: E402


def _random_geometries() -> dict:
    """The four n = 26-32 geometries of ``test_no_signaling_across_randomized_certified_geometries``."""
    rng = np.random.default_rng(31)
    out = {}
    for k in range(4):
        n = int(rng.integers(26, 33))
        w2 = float(rng.uniform(1.0, (n - 18) / 4.0))
        c2 = float(rng.uniform(9 + w2, n - 10 - w2))
        base = {
            "n": n,
            "o1": {"lo": 0, "hi": 8},
            "o3": {"lo": n - 8, "hi": n},
            "packet1": {"support": {"lo": 0, "hi": 8}, "center": float(rng.uniform(2.5, 5.5)),
                        "width": float(rng.uniform(1.0, 2.0)), "momentum": 0.0},
            "packet2": {"support": {"lo": 9, "hi": n - 9}, "center": c2, "width": w2,
                        "momentum": float(rng.uniform(0.3, 1.5))},
            "t2": float(rng.uniform(0.8, 1.8)),
            "eps": 1e-2,
        }
        for statistics in workloads.STATISTICS:
            out[f"random{k}/n={n}/{statistics}"] = dict(base, statistics=statistics)
    return out


def configs() -> dict:
    """Name -> JSON scenario config of every golden case.

    The 18 matrix96 kinds under both detectors, with and without
    ``selective_o3``; the 6 label192 configs; scale288; and the four
    randomized small geometries under the three statistics.  The benchmark
    geometries take a packet offset of 0.
    """
    out = {}
    for workload in ("matrix96", "label192", "scale288"):
        for scale, *kind in workloads._kinds(workload):
            detectors = ("position", "label2") if workload == "matrix96" else (kind[-1],)
            for detector in detectors:
                cfg = workloads.scenario(scale, 0.0, *kind[:-1], detector)
                name = f"{workload}/{workloads.scenario_key(cfg)}"
                out[name] = cfg
                if workload == "matrix96":
                    out[f"{name}/selective"] = dict(cfg, selective_o3=True)
    out.update(_random_geometries())
    return out


def fingerprint() -> dict:
    """numpy and BLAS versions, BLAS threads as found, and the CPU model.

    OpenBLAS takes its thread count from ``OPENBLAS_NUM_THREADS``, then
    ``OMP_NUM_THREADS``, then the CPUs this process may run on.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(threads) if threads else len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _float_fields(obj, prefix: str = "") -> dict:
    """``path -> repr`` of every float leaf of a parsed report."""
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            out.update(_float_fields(value, f"{prefix}{key}."))
        return out
    return {prefix[:-1]: repr(obj)} if isinstance(obj, float) else {}


def _branch_digests(ens) -> list:
    """Per branch, the SHA-256 of its amplitudes on the ``8 n^2`` basis (``to_flat``), which carry its weight."""
    return [hashlib.sha256(to_flat(s).tobytes()).hexdigest() for s in ens.branches]


def record(cfg: dict, workdir: Path) -> dict:
    """Run one config through ``nosignal simulate`` and return its golden entry."""
    config_path, report_path = workdir / "config.json", workdir / "report.json"
    config_path.write_text(json.dumps(cfg), encoding="utf-8")
    stages = {}
    run_arm = protocol._run_arm

    def recording(cfg, psi0, kicked, *window):
        # Stage digests from the arm on every site, as run_arm_stages and --dump-state build it; the report
        # from the arm on the window that run_scenario asks for.
        stages["kick" if kicked else "nokick"] = {
            name: _branch_digests(ens) for name, ens in run_arm(cfg, psi0, kicked) if name in protocol.STAGES}
        yield from run_arm(cfg, psi0, kicked, *window)

    protocol._run_arm = recording
    try:
        code = cli.main(["simulate", "--config", str(config_path), "--out", str(report_path)])
    finally:
        protocol._run_arm = run_arm
    report = json.loads(report_path.read_text(encoding="utf-8"))
    del report["manifest"]["duration_seconds"]
    return {
        "exit_code": code,
        "report_sha256": hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest(),
        "floats": _float_fields(report),
        "stages": stages,
    }


def changes(old: dict, new: dict) -> list:
    """One line per difference between two golden payloads.

    Lines name the fingerprint, every added or removed config, and per config
    every exit code, report digest, float field and arm/stage digest list
    that differs.
    """
    was, now = old.get("configs", {}), new["configs"]
    lines = [] if old.get("fingerprint") == new["fingerprint"] else [
        f"fingerprint: {old.get('fingerprint')} -> {new['fingerprint']}"]
    lines += [f"{name}: removed" for name in sorted(was.keys() - now.keys())]
    lines += [f"{name}: added" for name in sorted(now.keys() - was.keys())]
    for name in sorted(was.keys() & now.keys()):
        a, b = was[name], now[name]
        lines += [f"{name}: {key} {a[key]} -> {b[key]}" for key in ("exit_code", "report_sha256") if a[key] != b[key]]
        for key in sorted(a["floats"].keys() | b["floats"].keys()):
            if a["floats"].get(key) != b["floats"].get(key):
                lines.append(f"{name}: {key} {a['floats'].get(key)} -> {b['floats'].get(key)}")
        for arm in sorted(a["stages"].keys() | b["stages"].keys()):
            x, y = a["stages"].get(arm, {}), b["stages"].get(arm, {})
            for stage in sorted(x.keys() | y.keys()):
                if x.get(stage) != y.get(stage):
                    lines.append(f"{name}: stages.{arm}.{stage} digests differ ({len(x.get(stage, []))} -> "
                                 f"{len(y.get(stage, []))} branches)")
    return lines


def _certificate_passes(floats: dict):
    """The verdict ``SpacelikeCertificate.passed`` read back from a report's floats; ``None`` without them."""
    keys = [f"certificate.{k}" for k in ("leak_13", "leak_31", "overlap_O1", "overlap_O3", "epsilon")]
    if not all(k in floats for k in keys):
        return None
    *bounds, eps = (float(floats[k]) for k in keys)
    return max(bounds) <= eps


def summary(old: dict, new: dict) -> list:
    """What a regeneration reports besides its changed fields, over the configs both payloads hold.

    Per float field, the largest relative change over the values above
    ``1e-12``; every no-signal delta (below ``1e-10`` before or after),
    before and after; and every exit code, certificate verdict and stage
    branch count that changed, or a line saying none did.
    """
    was, now = old.get("configs", {}), new["configs"]
    names = sorted(was.keys() & now.keys())
    worst, deltas, moved = {}, [], []
    for name in names:
        a, b = was[name], now[name]
        for key in sorted(a["floats"].keys() & b["floats"].keys()):
            x, y = float(a["floats"][key]), float(b["floats"][key])
            if abs(x) > 1e-12:
                worst[key] = max(worst.get(key, (0.0, "")), (abs(y - x) / abs(x), name))
        x, y = a["floats"].get("delta"), b["floats"].get("delta")
        if x is not None and y is not None and min(float(x), float(y)) < 1e-10:
            deltas.append(f"  {name}: {x} (same)" if x == y else f"  {name}: {x} -> {y}")
        counts = [{arm: {stage: len(d) for stage, d in sorted(by_stage.items())}
                   for arm, by_stage in sorted(e["stages"].items())} for e in (a, b)]
        verdicts = [_certificate_passes(e["floats"]) for e in (a, b)]
        for what, before, after in (("exit code", a["exit_code"], b["exit_code"]),
                                    ("certificate pass", *verdicts), ("stage branch counts", *counts)):
            if before != after:
                moved.append(f"  {name}: {what} {before} -> {after}")
    lines = ["largest relative change of each float above 1e-12:"]
    lines += [f"  {key} {rel:.1e} ({name})" if rel else f"  {key} 0 (did not move)"
              for key, (rel, name) in sorted(worst.items())]
    lines += ["no-signal deltas (< 1e-10), before -> after:"] + deltas
    lines += ["exit codes, certificate passes and stage branch counts:"] + (moved or ["  no change"])
    return lines


def main() -> None:
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        entries = {name: record(cfg, Path(tmp)) for name, cfg in configs().items()}
    payload = {"fingerprint": fingerprint(), "configs": entries}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    lines = changes(old, payload)
    tail = f"wrote {len(entries)} configs to {GOLDEN}, {len(lines)} changed fields"
    print("\n".join(lines + summary(old, payload) + [tail]))


if __name__ == "__main__":
    main()
