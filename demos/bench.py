"""Warm scenario times, end to end and per stage, written to ``BENCH_<label>.json``.

Every row is a benchmark geometry of ``perfbench/workloads.py`` (imported
read-only) at packet offset 0:

  scale96, scale192, scale288
          the fermion position-kick, localized-Bell, position-detector kind
          of the scale288 workload at n = 96, 192 and 288
  label192
          the six label1-kick, label2-detector kinds of the label192
          workload (three statistics, joint none or global_bell), one row each

Rows run one after another.  Each row makes one untimed call (it fills
the lattice caches and warms the BLAS threads), then times ``PASSES``
``run_scenario`` calls and records their median and quartiles, then as
many again under a stage timer and records the median of each column:

  prepare       protocol.prepare_scenario (lattice, packets, psi0)
  certificate   lattice.check_spacelike
  prepared, post_kick, post_o2, pre_detector, final
                the time ``_run_arm`` takes to yield that stage, both arms
                summed: the kick, the t1 drift with the joint measurement,
                the t1 + t2 drift, the detector
  exchange      composite.antisymmetry_violation, as run_scenario calls it
  other         the rest of run_scenario: arrival, readout and report
  total         the whole call, timer included

A row's calls run back to back because ``lattice.propagator`` keeps only
four propagators: rows interleaved would rebuild them every call.  The
timer wraps names that ``run_scenario`` looks up in ``protocol`` at call
time, so it times the calls the scenario makes; it adds a few
microseconds.  cProfile is not used: it misattributes the threaded norms
on small hosts.  The file also records the machine (processor count,
Python, numpy, scipy, the BLAS numpy was built with and its threads as
found), the git commit and whether ``src/`` differs from it, and the line
count of ``src/``.  A before/after pair runs this script on both trees
alternately in one session, with a label per side.

Run:  PYTHONPATH=src python demos/bench.py --label L [--out PATH] [--smoke]

``--smoke`` runs scale96 and the six label kinds at n = 96 with three
passes, to check that the script works; its times are no measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from nosignal import protocol  # noqa: E402
from perfbench import workloads  # noqa: E402

PASSES = 31  # at least five, for the quartiles of each row; more keep a slow spell of the host out of the median
STAGE_COLUMNS = ("prepare", "certificate", "prepared", "post_kick", "post_o2", "pre_detector", "final", "exchange",
                 "other", "total")


def rows(smoke: bool) -> list:
    """``(name, ScenarioConfig)`` of every row; with ``smoke``, scale96 and the six label kinds at n = 96."""
    scale = [(f"scale{96 * s}", workloads.scenario(s, 0.0, "fermion", "position", "localized_bell", "position"))
             for s in ((1,) if smoke else (1, 2, 3))]
    s = 1 if smoke else 2
    label = [(f"label{96 * s}", workloads.scenario(s, 0.0, *kind[1:])) for kind in workloads._kinds("label192")]
    return [(name, workloads.to_config(cfg)) for name, cfg in scale + label]


class StageTimer:
    """Seconds per column of one ``run_scenario`` call, from wrappers on the names it calls in ``protocol``."""

    WRAPPED = ("prepare_scenario", "check_spacelike", "antisymmetry_violation", "_run_arm")

    def __init__(self):
        self.seconds, self.exchange_checks = defaultdict(float), 0
        self._saved = {}

    def __enter__(self):
        self._saved = {name: getattr(protocol, name) for name in self.WRAPPED}
        prepare, certificate, exchange, run_arm = (self._saved[name] for name in self.WRAPPED)
        protocol.prepare_scenario = self._timed("prepare", prepare)
        protocol.check_spacelike = self._timed("certificate", certificate)
        protocol.antisymmetry_violation = self._timed("exchange", exchange)

        def timed_arm(*args):
            arm = run_arm(*args)
            while True:
                t0 = time.perf_counter()
                try:
                    name, ens = next(arm)
                except StopIteration:
                    return
                self.seconds[name] += time.perf_counter() - t0
                yield name, ens
                del ens

        protocol._run_arm = timed_arm
        return self

    def __exit__(self, *exc):
        for name, f in self._saved.items():
            setattr(protocol, name, f)

    def _timed(self, column: str, f):
        def timed(*args):
            t0 = time.perf_counter()
            out = f(*args)
            self.seconds[column] += time.perf_counter() - t0
            self.exchange_checks += column == "exchange"
            return out
        return timed

    def run(self, cfg) -> dict:
        """One timed ``run_scenario(cfg)``: seconds per column of ``STAGE_COLUMNS``."""
        self.seconds.clear()
        self.exchange_checks = 0
        t0 = time.perf_counter()
        protocol.run_scenario(cfg)
        total = time.perf_counter() - t0
        out = {name: self.seconds[name] for name in STAGE_COLUMNS[:-2]}
        return dict(out, other=total - sum(out.values()), total=total)


def _scenario_seconds(cfg) -> float:
    t0 = time.perf_counter()
    protocol.run_scenario(cfg)
    return time.perf_counter() - t0


def machine() -> dict:
    """Processor count, Python, numpy, scipy, and the BLAS numpy was built with, its threads as found."""
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {k: v for k, v in np.show_config(mode="dicts")["Build Dependencies"]["blas"].items()
                 if not k.endswith("directory")},  # the build's paths say nothing of the machine
        "blas_threads": int(threads) if threads else len(os.sched_getaffinity(0)),
    }


def source() -> dict:
    """The git commit of the tree, whether ``src/`` differs from it, and the line count of ``src/``."""
    def git(*args):
        try:
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    status = git("status", "--porcelain", "--", "src")
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {"commit": git("rev-parse", "HEAD"), "src_modified": None if status is None else bool(status),
            "src_lines": lines}


def _quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def bench(passes: int, smoke: bool) -> list:
    """One record per row: the end-to-end median and quartiles, and the per-column stage medians."""
    out = []
    for name, cfg in rows(smoke):
        protocol.run_scenario(cfg)  # untimed: fills the lattice caches, warms BLAS
        end_to_end = [_scenario_seconds(cfg) for _ in range(passes)]
        with StageTimer() as timer:
            stages = [timer.run(cfg) for _ in range(passes)]
        out.append({
            "row": name,
            "n": cfg.n,
            "kind": "/".join((cfg.statistics, cfg.kick_mode, cfg.joint_mode, cfg.detector_mode)),
            "scenario_s": _quartiles(end_to_end),
            "stage_median_s": {c: statistics.median(s[c] for s in stages) for c in STAGE_COLUMNS},
            "exchange_checks": timer.exchange_checks,
        })
    return out


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--out", type=Path, help="output path (default: BENCH_<label>.json at the repo root)")
    parser.add_argument("--smoke", action="store_true", help="rows at n = 96, three passes: a check, not a measurement")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error("--label may hold only letters, digits, '.', '_' and '-'")
    passes = 3 if args.smoke else PASSES
    payload = {"label": args.label, "smoke": args.smoke, "passes": passes, "machine": machine(), "source": source(),
               "rows": bench(passes, args.smoke)}
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"{'row':<10}{'n':>5}  {'kind':<42}{'median ms':>10}{'q1':>8}{'q3':>8}{'exchange':>10}{'checks':>7}")
    for row in payload["rows"]:
        t, ex = row["scenario_s"], row["stage_median_s"]["exchange"]
        print(f"{row['row']:<10}{row['n']:>5}  {row['kind']:<42}{1e3 * t['median']:10.3f}{1e3 * t['q1']:8.3f}"
              f"{1e3 * t['q3']:8.3f}{1e3 * ex:10.3f}{row['exchange_checks']:7d}")
    print(f"wrote {out}")
    return payload


if __name__ == "__main__":
    main()
