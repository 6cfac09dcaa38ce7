"""Command line front end: run scenarios, certify geometry, dump densities.

Four subcommands, all driven by a JSON scenario config:

``naive``
    The closed-form two-spin pipeline with no spatial degrees of freedom.
    Prints a single expectation value with 12 decimal digits.

``simulate``
    Runs both arms (kick and no-kick) of a configured scenario and writes a
    JSON signaling report.  Exit code 1 if the spacelike certificate fails.

``check-spacelike``
    Prints the causal-disconnection certificate for a config and exits
    nonzero when the leakage bound is violated.

``dump-density``
    Writes the per-site occupancies of one arm at one pipeline stage as CSV,
    optionally together with the full branch amplitudes.

Config schema (JSON object; unknown keys are rejected)::

    {
      "n": 96,                                   // required, lattice sites
      "o1": {"lo": 8, "hi": 20},                 // required, half-open region
      "o3": {"lo": 76, "hi": 88},                // required
      "packet1": {"support": {"lo": 8, "hi": 20},
                  "center": 14.0, "width": 3.0,
                  "momentum": 0.0},              // required
      "packet2": {...},                          // required
      "t2": 10.0,                                // required, second drift time
      "hopping": 1.0,                            // optional, default 1.0
      "o2": {"lo": 40, "hi": 52},                // optional, default null
      "statistics": "fermion",                   // fermion|boson|distinguishable
      "kick_mode": "position",                   // off|position|label1
      "joint_mode": "none",                      // none|global_bell|localized_bell
      "detector_mode": "position",               // position|label2
      "t1": 0.0,                                 // optional, default 0.0
      "eps": 1e-6,                               // optional, default 1e-6
      "selective_o3": false                      // optional, default false
    }

Exit codes: 0 success, 1 certificate failure, 2 validation or parse error,
3 I/O error.  Reports are byte-identical for identical config and seed,
except for ``manifest.duration_seconds`` which records wall-clock time.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from typing import Optional

import numpy as np

from .composite import CompositeSpace, position_occupancy
from .lattice import Region, SpacelikeCertificate, check_spacelike
from .protocol import (
    STAGES,
    PacketSpec,
    ScenarioConfig,
    SignalingReport,
    prepare_scenario,
    run_arm_stages,
    run_naive_sorkin,
    run_scenario,
)
from .qcore import PAULI_X, PAULI_Y, PAULI_Z, SPIN_TAG, LinearOperator, identity

from . import __version__

_REQUIRED_KEYS = ("n", "o1", "o3", "packet1", "packet2", "t2")
_OPTIONAL_KEYS = {
    "hopping": 1.0,
    "o2": None,
    "statistics": "fermion",
    "kick_mode": "position",
    "joint_mode": "none",
    "detector_mode": "position",
    "t1": 0.0,
    "eps": 1e-6,
    "selective_o3": False,
}


# ---------------------------------------------------------------------------
# config parsing


def _check_keys(obj, required, optional, ctx: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{ctx} must be a JSON object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        allowed = sorted(set(required) | set(optional))
        raise ValueError(f"{ctx}: unknown key(s) {unknown}; allowed keys are {allowed}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ValueError(f"{ctx}: missing required key(s) {missing}")


def _as_int(value, ctx: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{ctx} must be an integer, got {value!r}")
    return value


def _as_float(value, ctx: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{ctx} must be a number, got {value!r}")
    return float(value)


def _as_bool(value, ctx: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{ctx} must be true or false, got {value!r}")
    return value


def _as_str(value, ctx: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{ctx} must be a string, got {value!r}")
    return value


def _region_from(obj, ctx: str) -> Region:
    _check_keys(obj, ("lo", "hi"), (), ctx)
    return Region(_as_int(obj["lo"], f"{ctx}.lo"), _as_int(obj["hi"], f"{ctx}.hi"))


def _packet_from(obj, ctx: str) -> PacketSpec:
    _check_keys(obj, ("support", "center", "width", "momentum"), (), ctx)
    return PacketSpec(
        support=_region_from(obj["support"], f"{ctx}.support"),
        center=_as_float(obj["center"], f"{ctx}.center"),
        width=_as_float(obj["width"], f"{ctx}.width"),
        momentum=_as_float(obj["momentum"], f"{ctx}.momentum"),
    )


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario config.

    Raises ValueError on JSON syntax errors (with line and column), unknown
    or missing keys, wrong types, and any semantic violation caught by
    ScenarioConfig itself.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    _check_keys(raw, _REQUIRED_KEYS, _OPTIONAL_KEYS, "config")
    merged = dict(_OPTIONAL_KEYS)
    merged.update(raw)
    o2 = merged["o2"]
    return ScenarioConfig(
        n=_as_int(merged["n"], "config.n"),
        hopping=_as_float(merged["hopping"], "config.hopping"),
        o1=_region_from(merged["o1"], "config.o1"),
        o2=None if o2 is None else _region_from(o2, "config.o2"),
        o3=_region_from(merged["o3"], "config.o3"),
        packet1=_packet_from(merged["packet1"], "config.packet1"),
        packet2=_packet_from(merged["packet2"], "config.packet2"),
        statistics=_as_str(merged["statistics"], "config.statistics"),
        kick_mode=_as_str(merged["kick_mode"], "config.kick_mode"),
        joint_mode=_as_str(merged["joint_mode"], "config.joint_mode"),
        detector_mode=_as_str(merged["detector_mode"], "config.detector_mode"),
        t1=_as_float(merged["t1"], "config.t1"),
        t2=_as_float(merged["t2"], "config.t2"),
        eps=_as_float(merged["eps"], "config.eps"),
        selective_o3=_as_bool(merged["selective_o3"], "config.selective_o3"),
    )


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Effective config (defaults applied) in the schema the parser accepts."""

    def region(r: Optional[Region]):
        return None if r is None else {"lo": r.lo, "hi": r.hi}

    def packet(p: PacketSpec):
        return {
            "support": region(p.support),
            "center": p.center,
            "width": p.width,
            "momentum": p.momentum,
        }

    return {
        "n": cfg.n,
        "hopping": cfg.hopping,
        "o1": region(cfg.o1),
        "o2": region(cfg.o2),
        "o3": region(cfg.o3),
        "packet1": packet(cfg.packet1),
        "packet2": packet(cfg.packet2),
        "statistics": cfg.statistics,
        "kick_mode": cfg.kick_mode,
        "joint_mode": cfg.joint_mode,
        "detector_mode": cfg.detector_mode,
        "t1": cfg.t1,
        "t2": cfg.t2,
        "eps": cfg.eps,
        "selective_o3": cfg.selective_o3,
    }


# ---------------------------------------------------------------------------
# report serialization


def certificate_to_dict(cert: SpacelikeCertificate) -> dict:
    return {
        "epsilon": cert.epsilon,
        "leak_13": cert.leak_13,
        "leak_31": cert.leak_31,
        "overlap_O1": cert.overlap_O1,
        "overlap_O3": cert.overlap_O3,
        "pass": cert.passed,
    }


def report_to_dict(
    report: SignalingReport,
    cfg: ScenarioConfig,
    seed: int,
    duration_seconds: float,
) -> dict:
    """Assemble the full report payload, manifest included."""
    return {
        "p_q1_kick": report.p_q1_kick,
        "p_q1_nokick": report.p_q1_nokick,
        "delta": report.delta,
        "arrival_prob": report.arrival_prob,
        "certificate": certificate_to_dict(report.certificate),
        "max_antisym_violation": report.max_antisym_violation,
        "branch_count_kick": report.branch_count_kick,
        "branch_count_nokick": report.branch_count_nokick,
        "manifest": {
            "config": config_to_dict(cfg),
            "version": __version__,
            "duration_seconds": duration_seconds,
            "seed": seed,
        },
    }


def emit_report(payload: dict) -> str:
    """Serialize a report dict to JSON text.

    Floats go through repr, so parse_report(emit_report(d)) == d exactly.
    """
    return json.dumps(payload, indent=2) + "\n"


def parse_report(text: str) -> dict:
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("report must be a JSON object")
    return payload


# ---------------------------------------------------------------------------
# observables for the naive command


def _as_complex(entry, ctx: str) -> complex:
    if isinstance(entry, bool):
        raise ValueError(f"{ctx} must be a number or a [re, im] pair, got {entry!r}")
    if isinstance(entry, (int, float)):
        return complex(entry)
    if (
        isinstance(entry, list)
        and len(entry) == 2
        and all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in entry)
    ):
        return complex(entry[0], entry[1])
    raise ValueError(f"{ctx} must be a number or a [re, im] pair, got {entry!r}")


def _matrix_from_json(text: str) -> np.ndarray:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"observable parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    ok = isinstance(raw, list) and len(raw) == 2
    ok = ok and all(isinstance(row, list) and len(row) == 2 for row in raw)
    if not ok:
        raise ValueError("observable file must hold a JSON 2x2 array")
    out = np.zeros((2, 2), dtype=np.complex128)
    for i, row in enumerate(raw):
        for j, entry in enumerate(row):
            out[i, j] = _as_complex(entry, f"observable[{i}][{j}]")
    return out


_NAMED_OBSERVABLES = {"sx": PAULI_X, "sy": PAULI_Y, "sz": PAULI_Z}


def _observable_from_args(args) -> LinearOperator:
    if args.observable == "file":
        if not args.observable_file:
            raise ValueError("--observable file requires --observable-file PATH")
        return LinearOperator(_matrix_from_json(_load_text(args.observable_file)), SPIN_TAG)
    if args.observable == "identity":
        return identity(2, SPIN_TAG)
    return _NAMED_OBSERVABLES[args.observable]


def _format_value(value: float) -> str:
    # Round first so that -1e-16 prints as 0.000000000000, not -0.000000000000.
    rounded = round(float(value), 12) + 0.0
    return f"{rounded:.12f}"


# ---------------------------------------------------------------------------
# commands


def _load_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_naive(args) -> int:
    observable = _observable_from_args(args)
    value = run_naive_sorkin(observable, kick=args.kick)
    print(_format_value(value))
    return 0


def _cmd_simulate(args) -> int:
    cfg = parse_config(_load_text(args.config))
    start = time.perf_counter()
    report = run_scenario(cfg)
    duration = time.perf_counter() - start
    payload = report_to_dict(report, cfg, seed=args.seed, duration_seconds=duration)
    _write_text(args.out, emit_report(payload))
    return 0 if report.certificate.passed else 1


def _cmd_check_spacelike(args) -> int:
    cfg = parse_config(_load_text(args.config))
    lat, _space, psi0 = prepare_scenario(cfg)
    cert = check_spacelike(lat, cfg.o1, cfg.o3, psi0, cfg.t_total, cfg.eps)
    print(json.dumps(certificate_to_dict(cert), indent=2))
    return 0 if cert.passed else 1


def _cmd_dump_density(args) -> int:
    cfg = parse_config(_load_text(args.config))
    stages = run_arm_stages(cfg, kicked=(args.arm == "kick"))
    ens = stages[args.stage]
    space = CompositeSpace(cfg.n)
    occ1, occ2 = position_occupancy(space, ens)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["site", "occ_particle_slot1", "occ_particle_slot2", "occ_symmetrized"])
        for site in range(cfg.n):
            writer.writerow(
                [
                    site,
                    f"{occ1[site]:.12f}",
                    f"{occ2[site]:.12f}",
                    f"{occ1[site] + occ2[site]:.12f}",
                ]
            )
    if args.dump_state:
        with open(args.dump_state, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["branch", "weight", "index", "re", "im"])
            for b, (w, state) in enumerate(ens.branches):
                weight = repr(float(w))
                for idx in range(state.dim):
                    amp = state.amps[idx]
                    writer.writerow([b, weight, idx, repr(float(amp.real)), repr(float(amp.imag))])
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nosignal",
        description="Localized operations on two lattice particles: quantify when a remote kick is visible.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--seed",
            type=int,
            default=0,
            help="echoed into the report manifest; reserved for randomized sweeps",
        )

    p = sub.add_parser("naive", help="closed-form two-spin pipeline, no spatial degrees of freedom")
    p.add_argument("--observable", required=True, choices=("sx", "sy", "sz", "identity", "file"))
    p.add_argument(
        "--observable-file",
        default=None,
        help="JSON 2x2 matrix, entries are numbers or [re, im] pairs (use with --observable file)",
    )
    p.add_argument("--kick", action="store_true", help="flip spin 1 before the joint measurement")
    add_common(p)
    p.set_defaults(func=_cmd_naive)

    p = sub.add_parser("simulate", help="run both arms of a scenario and write the signaling report")
    p.add_argument("--config", required=True, help="path to a JSON scenario config")
    p.add_argument("--out", required=True, help="path for the JSON report")
    add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("check-spacelike", help="print the causal-disconnection certificate")
    p.add_argument("--config", required=True, help="path to a JSON scenario config")
    add_common(p)
    p.set_defaults(func=_cmd_check_spacelike)

    p = sub.add_parser("dump-density", help="write per-site occupancies of one arm as CSV")
    p.add_argument("--config", required=True, help="path to a JSON scenario config")
    p.add_argument("--arm", required=True, choices=("kick", "nokick"))
    p.add_argument("--stage", required=True, choices=STAGES)
    p.add_argument("--out", required=True, help="path for the occupancy CSV")
    p.add_argument(
        "--dump-state",
        default=None,
        help="also write every branch amplitude (branch, weight, index, re, im) to this CSV path",
    )
    add_common(p)
    p.set_defaults(func=_cmd_dump_density)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
