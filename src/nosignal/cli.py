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

The config is a JSON object whose keys are the fields of
:class:`nosignal.protocol.ScenarioConfig`, in its order, with its defaults;
unknown keys are rejected.  README "Command line" shows an example.

Exit codes: 0 success, 1 certificate failure, 2 validation or parse error,
3 I/O error, 4 any other error (running out of memory, say).  Reports are
byte-identical for identical config and seed, except for
``manifest.duration_seconds`` which records wall-clock time.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
import time
import typing

import numpy as np

from .composite import position_occupancy, to_flat
from .lattice import SpacelikeCertificate, check_spacelike
from .protocol import (
    STAGES,
    _run_arm,
    ScenarioConfig,
    SignalingReport,
    prepare_scenario,
    run_naive_sorkin,
    run_scenario,
)
from .qcore import PAULI_X, PAULI_Y, PAULI_Z

from . import __version__


# ---------------------------------------------------------------------------
# config parsing


def _check_keys(obj, required, allowed, ctx: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{ctx} must be a JSON object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"{ctx}: unknown key(s) {unknown}; allowed keys are {sorted(allowed)}")
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
    try:
        return float(value)
    except OverflowError:  # an integer literal too large for a double
        raise ValueError(f"{ctx} must be a finite number, got a {value.bit_length()}-bit integer") from None


def _as_bool(value, ctx: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{ctx} must be true or false, got {value!r}")
    return value


def _as_str(value, ctx: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{ctx} must be a string, got {value!r}")
    return value


_SCALARS = {int: _as_int, float: _as_float, str: _as_str, bool: _as_bool}


@functools.cache
def _schema(cls) -> tuple:
    """``(name, type, required)`` of each field of dataclass ``cls``, in declaration order."""
    types = typing.get_type_hints(cls)
    return tuple((f.name, types[f.name], f.default is dataclasses.MISSING) for f in dataclasses.fields(cls))


def _from_json(tp, value, ctx: str):
    """``value`` type-checked against annotation ``tp``; a dataclass is built from a JSON object."""
    args = typing.get_args(tp)  # Optional[X] is Union[X, None]
    if args:
        return None if value is None else _from_json(args[0], value, ctx)
    if not dataclasses.is_dataclass(tp):
        return _SCALARS[tp](value, ctx)
    schema = _schema(tp)
    _check_keys(value, [name for name, _, req in schema if req], [name for name, _, _ in schema], ctx)
    # Fields are checked in declaration order; the dataclass fills in its own defaults.
    return tp(**{name: _from_json(t, value[name], f"{ctx}.{name}") for name, t, _ in schema if name in value})


def _load_json(text: str, what: str):
    """``text`` parsed as JSON; a syntax error or nesting too deep to parse raises ValueError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply to parse") from None


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario config.

    Raises ValueError on JSON syntax errors (with line and column), nesting
    too deep to parse, unknown or missing keys, wrong types, and any semantic
    violation caught by ScenarioConfig itself.
    """
    return _from_json(ScenarioConfig, _load_json(text, "config"), "config")


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Effective config (defaults applied) in the schema the parser accepts."""
    return dataclasses.asdict(cfg)


# ---------------------------------------------------------------------------
# report serialization


def certificate_to_dict(cert: SpacelikeCertificate) -> dict:
    return {**dataclasses.asdict(cert), "pass": cert.passed}


def report_to_dict(
    report: SignalingReport,
    cfg: ScenarioConfig,
    seed: int,
    duration_seconds: float,
) -> dict:
    """Assemble the full report payload, manifest included."""
    out = dataclasses.asdict(report)
    out["certificate"] = certificate_to_dict(report.certificate)
    out["manifest"] = {
        "config": config_to_dict(cfg),
        "version": __version__,
        "duration_seconds": duration_seconds,
        "seed": seed,
    }
    return out


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
    parts = entry if isinstance(entry, list) and len(entry) == 2 else [entry]
    if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
        raise ValueError(f"{ctx} must be a number or a [re, im] pair, got {entry!r}")
    return complex(*(_as_float(p, ctx) for p in parts))


def _matrix_from_json(text: str) -> np.ndarray:
    raw = _load_json(text, "observable")
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


def _observable_from_args(args) -> np.ndarray:
    if args.observable == "file":
        if not args.observable_file:
            raise ValueError("--observable file requires --observable-file PATH")
        return _matrix_from_json(_load_text(args.observable_file))
    if args.observable == "identity":
        return np.eye(2, dtype=np.complex128)
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
    lat, psi0 = prepare_scenario(cfg)
    cert = check_spacelike(lat, cfg.o1, cfg.o3, psi0, cfg.t_total, cfg.eps)
    print(json.dumps(certificate_to_dict(cert), indent=2))
    return 0 if cert.passed else 1


def _cmd_dump_density(args) -> int:
    cfg = parse_config(_load_text(args.config))
    _lat, psi0 = prepare_scenario(cfg)
    for name, ens in _run_arm(cfg, psi0, kicked=(args.arm == "kick")):
        if name == args.stage:
            break
        del ens  # keeps only the requested stage, as run_scenario does
    occ1, occ2 = position_occupancy(ens)
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
            for b, state in enumerate(ens.branches):  # the weight |psi|^2, then psi / |psi| on the 8 n^2 basis
                weight, amps = repr(state.norm ** 2), to_flat(state.normalized())
                for idx, amp in enumerate(amps):
                    writer.writerow([b, weight, idx, repr(float(amp.real)), repr(float(amp.imag))])
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


@functools.cache  # argparse builds the same parser on every call; a process builds it once
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nosignal",
        description="Localized operations on two lattice particles: quantify when a remote kick is visible.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("naive", help="closed-form two-spin pipeline, no spatial degrees of freedom")
    p.add_argument("--observable", required=True, choices=("sx", "sy", "sz", "identity", "file"))
    p.add_argument(
        "--observable-file",
        default=None,
        help="JSON 2x2 matrix, entries are numbers or [re, im] pairs (use with --observable file)",
    )
    p.add_argument("--kick", action="store_true", help="flip spin 1 before the joint measurement")
    p.set_defaults(func=_cmd_naive)

    p = sub.add_parser("simulate", help="run both arms of a scenario and write the signaling report")
    p.add_argument("--config", required=True, help="path to a JSON scenario config")
    p.add_argument("--out", required=True, help="path for the JSON report")
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="echoed into the report manifest; reserved for randomized sweeps",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("check-spacelike", help="print the causal-disconnection certificate")
    p.add_argument("--config", required=True, help="path to a JSON scenario config")
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
    except Exception as exc:  # a defect or an exhausted resource, e.g. MemoryError
        print(" ".join(f"internal error: {type(exc).__name__}: {exc}".split()), file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
