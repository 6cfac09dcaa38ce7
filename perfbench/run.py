"""Benchmark of the nosignal package: end-to-end and per-layer metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload label192 --seed 1 --seconds 45 --trace 0

One process, one closed-loop caller: each scenario starts when the previous
one returns.  The package keeps its own defaults (``run_scenario`` is called
without ``threads``, so it picks its arm pool itself, and OpenBLAS keeps its
thread count); the run record reports them as found.

``--trace 0`` measures the end-to-end metrics with tracing off.  After one
untimed warm-up pass it runs whole passes of the workload until
``--seconds`` have elapsed, and times every scenario.  Each timing is a
median over the run, so a slow spell of the host moves it only when the
spell covers half the run or more.  Set-up time is the median over fresh
interpreters that import nosignal and generate one pass of configs; peak
memory is this process's own peak resident set.

``--trace 1`` alternates untraced and traced passes for ``--seconds`` and
reports the per-layer metrics of the traced passes, per scenario.

Every scenario's report is checked against closed forms (``checks.py``);
failures count into ``failed`` and never stop the run.  Standard output
ends with the run record (environment and provenance included) and then
one JSON line with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
# Set-up is probed this many times before the timed passes and as many times
# after them, so a slow spell of the machine at one end moves the median less.
SETUP_PROBES_EACH_END = 4

END_TO_END = {
    "scenario_s": "s",
    "scenario_tail_s": "s",
    "scenarios_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per scenario, over the traced passes.  "<span>.self_s" and "<span>.calls"
# come from the span of that name, "<span>.build_s" and "<span>.apply_s" from
# the inclusive time of a measurement factory and of the procedure it returns.
PER_LAYER = {
    "lattice.check_spacelike.self_s": "s",
    "lattice.propagator.self_s": "s",
    "lattice.propagator.calls": "count",
    "lattice.eigensystem.cache_misses": "count",
    "protocol.prepare_scenario.self_s": "s",
    "composite.prepare_initial.self_s": "s",
    "protocol.kick_operator.self_s": "s",
    "composite.lift_one_particle.self_s": "s",
    "composite.lift_one_particle.calls": "count",
    "qcore.apply.self_s": "s",
    "qcore.apply.calls": "count",
    "composite.evolve_positions.self_s": "s",
    "composite.evolve_positions.calls": "count",
    "composite.evolve_positions.flops_computed": "flop",
    "composite.evolve_positions.bytes_computed": "B",
    "protocol.joint_measurement.build_s": "s",
    "protocol.joint_measurement.apply_s": "s",
    "qcore.luders_measure.self_s": "s",
    "qcore.luders_measure.branches_in": "count",
    "qcore.luders_measure.branches_kept": "count",
    "qcore.luders_measure.kept_ratio": "ratio",
    "protocol.detector_measurement.build_s": "s",
    "protocol.detector_measurement.apply_s": "s",
    "composite.antisymmetry_violation.self_s": "s",
    "composite.antisymmetry_violation.calls": "count",
    "composite.position_occupancy.self_s": "s",
    "protocol.qubit_one_probability.self_s": "s",
    "protocol.branches_final": "count",
    "protocol.run_scenario.total_s": "s",
    "protocol.run_scenario.uncovered_s": "s",
    "protocol.run_scenario.coverage": "ratio",
    "protocol.run_scenario.thread_busy_ratio": "ratio",
    "cli.parse_config.self_s": "s",
    "cli.emit_report.self_s": "s",
    "trace.overhead_s": "s",
}


class Runner:
    """Closed-loop caller over the seeded passes of one workload."""

    def __init__(self, workload: str, seed: int, workdir: Path, expect=checks.expected):
        self.via_cli = workload in workloads.LABEL_SCALES
        self.workdir = workdir
        self.expect = expect
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures = []  # the first few, for the run record
        self._passes = workloads.passes(workload, seed)

    def run_pass(self) -> list:
        """Run every scenario of the next pass; returns ``(key, seconds, report)`` each."""
        return [self.run_one(cfg) for cfg in next(self._passes)]

    def run_one(self, cfg: dict):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.scenario = self.attempted
        key = workloads.scenario_key(cfg)
        seconds = report = None
        try:
            seconds, report = self._cli(cfg) if self.via_cli else self._api(cfg)
            errors = checks.check(report, self.expect(cfg))
        except Exception as exc:  # a failing scenario is counted, the run goes on
            errors = [f"{type(exc).__name__}: {exc}"]
        if errors:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"scenario": key, "errors": errors})
        return key, seconds, report

    def _api(self, cfg: dict):
        from nosignal import protocol

        config = workloads.to_config(cfg)
        start = time.perf_counter()
        rep = protocol.run_scenario(config)
        seconds = time.perf_counter() - start
        return seconds, {
            "delta": rep.delta,
            "arrival_prob": rep.arrival_prob,
            "certificate": {"pass": rep.certificate.passed},
            "max_antisym_violation": rep.max_antisym_violation,
            "branch_count_kick": rep.branch_count_kick,
            "branch_count_nokick": rep.branch_count_nokick,
        }

    def _cli(self, cfg: dict):
        from nosignal import cli

        config_path = self.workdir / "config.json"
        report_path = self.workdir / "report.json"
        config_path.write_text(json.dumps(cfg), encoding="utf-8")
        report_path.unlink(missing_ok=True)
        start = time.perf_counter()
        code = cli.main(["simulate", "--config", str(config_path), "--out", str(report_path)])
        seconds = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"nosignal simulate exited {code}")
        return seconds, json.loads(report_path.read_text(encoding="utf-8"))


def measure_setup(workload: str, seed: int) -> list:
    """Wall seconds of fresh interpreters that import nosignal and generate one pass."""
    times = []
    for _ in range(SETUP_PROBES_EACH_END):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                       check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def end_to_end(runner: Runner, seconds: float, workload: str, seed: int) -> tuple:
    import resource

    setup = measure_setup(workload, seed)
    start = time.perf_counter()
    runner.run_pass()
    warmup_s = time.perf_counter() - start
    by_key = defaultdict(list)
    slowest = []
    passes = samples = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        times = []
        for key, secs, _ in runner.run_pass():
            if secs is not None:
                by_key[key].append(secs)
                times.append(secs)
        passes += 1
        samples += len(times)
        if times:
            slowest.append(max(times))
    elapsed = time.perf_counter() - start
    setup += measure_setup(workload, seed)
    by_key_median = {k: statistics.median(v) for k, v in sorted(by_key.items())}
    # Every timing is a median over the run's passes, or over each kind's
    # samples, so a slow spell of the host that covers less than half the run
    # does not move it.
    metrics = {
        # The median over scenario kinds of each kind's median.  A plain median
        # over samples is ill-conditioned on a mix like label192, half fast and
        # half slow kinds, where it falls between the two groups' extremes.
        "scenario_s": statistics.median(by_key_median.values()),
        # The slowest scenario of a pass: with k kinds a pass, about the
        # (1 - 1/k) quantile of scenario time.  The highest percentile with ten
        # samples beyond it, taken over the whole run, reads the run's worst
        # spell of the host instead.
        "scenario_tail_s": statistics.median(slowest),
        # A pass of the closed loop, every kind at its median time.
        "scenarios_per_s": len(by_key_median) / sum(by_key_median.values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "samples": samples,
        "passes": passes,
        "measured_s": elapsed,
        "warmup_pass_s": warmup_s,
        "setup_samples_s": setup,
        "median_s_by_scenario": by_key_median,
    }
    return metrics, detail


def per_layer(runner: Runner, seconds: float, spans_path: Path) -> tuple:
    from nosignal import lattice

    runner.run_pass()
    tracer = spans.Tracer()
    plain, traced = [], []
    scenarios = branches_final = 0
    start = time.perf_counter()
    for i in itertools.count():
        # Alternate which of the pair goes first, so drift does not read as overhead.
        for use_tracer in (i % 2 == 1, i % 2 == 0):
            t0 = time.perf_counter()
            if use_tracer:
                with tracer:
                    runner.tracer = tracer
                    results = runner.run_pass()
                    runner.tracer = None
                traced.append(time.perf_counter() - t0)
                for _, _, report in results:
                    scenarios += 1
                    if report is not None:
                        branches_final += report["branch_count_kick"] + report["branch_count_nokick"]
            else:
                runner.run_pass()
                plain.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= seconds:
            break
    recorded = tracer.spans()
    summary = spans.summarize(recorded)
    names, counts = summary["names"], tracer.counts

    def per(span: str, field: str) -> float:
        return names.get(span, {}).get(field, 0) / scenarios

    eigensystem = getattr(lattice, "_eigensystem", None)
    wall = summary["root_wall_s"]
    tried = counts["qcore.luders_measure.outcomes_tried"]
    special = {
        "lattice.eigensystem.cache_misses": eigensystem.cache_info().misses if eigensystem else 0,
        "qcore.luders_measure.kept_ratio": counts["qcore.luders_measure.branches_kept"] / tried if tried else 0.0,
        "protocol.branches_final": branches_final / scenarios,
        "protocol.run_scenario.total_s": wall / scenarios,
        "protocol.run_scenario.uncovered_s": (wall - summary["root_covered_s"]) / scenarios,
        "protocol.run_scenario.coverage": summary["root_covered_s"] / wall if wall else 0.0,
        "protocol.run_scenario.thread_busy_ratio": summary["root_busy_s"] / wall if wall else 0.0,
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
    }
    fields = {"self_s": ("", "self_s"), "calls": ("", "calls"),
              "build_s": (".build", "total_s"), "apply_s": (".apply", "total_s")}
    metrics = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in special:
            metrics[name] = special[name]
        elif field in fields:
            suffix, key = fields[field]
            metrics[name] = per(span + suffix, key)
        else:
            metrics[name] = counts[name] / scenarios
    detail = {
        "traced_scenarios": scenarios,
        "traced_passes": len(traced),
        "traced_pass_median_s": statistics.median(traced),
        "untraced_pass_median_s": statistics.median(plain),
        "spans": len(recorded),
        "arm_threads_seen": summary["max_threads"],
        "missing_targets": sorted(tracer.missing),
        "counter_errors": counts["trace.counter_errors"],
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    write_spans(recorded, spans_path)
    return metrics, detail


def write_spans(recorded: list, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sid, name, t0, t1, parent, thread, scenario in recorded:
            fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1, "parent": parent,
                                 "thread": thread, "scenario": scenario}) + "\n")


def _openblas_threads() -> list:
    """Thread count of every OpenBLAS loaded in this process, as it finds it."""
    found = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return found
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found.append({"library": Path(lib).name, "threads": fn()})
                break
    return found


def _git_commit() -> str | None:
    """HEAD of the checkout's own git directory, read from its files; None without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_found": _openblas_threads(),
                 "thread_env": {k: os.environ.get(k) for k in
                                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "arm_pool": "run_scenario's own default; the benchmark passes no threads argument",
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        # Informational only, never a gated metric.
        "src_lines": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, str(ROOT / "src"))
    import nosignal  # fails, and so ends the run, where the checkout has no package

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-{args.seed}-") as work:
        runner = Runner(args.workload, args.seed, Path(work))
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, detail = per_layer(runner, args.seconds, spans_path)
            units = PER_LAYER
        else:
            metrics, detail = end_to_end(runner, args.seconds, args.workload, args.seed)
            units = END_TO_END
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nosignal_version": nosignal.__version__,
        "environment": environment(),
        "fail_share": runner.failed / runner.attempted,
        "failures": runner.failures,
        **detail,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
