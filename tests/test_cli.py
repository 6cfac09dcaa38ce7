"""Tests for the command line interface: parsing, reports, exit codes."""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from nosignal import PacketSpec, Region, ScenarioConfig, basis_index, cli, decode_basis_index
from nosignal import protocol
from nosignal.protocol import prepare_scenario
from nosignal.cli import (
    certificate_to_dict,
    config_to_dict,
    emit_report,
    main,
    parse_config,
    parse_report,
)


def _config_dict(**overrides):
    base = {
        "n": 10,
        "o1": {"lo": 0, "hi": 4},
        "o3": {"lo": 6, "hi": 10},
        "packet1": {"support": {"lo": 0, "hi": 4}, "center": 1.5, "width": 0.8, "momentum": 0.0},
        "packet2": {"support": {"lo": 4, "hi": 8}, "center": 5.5, "width": 0.8, "momentum": 1.2},
        "t2": 0.8,
        "t1": 0.4,
        "eps": 1.0,
    }
    base.update(overrides)
    return base


def _write_config(tmp_path, name="cfg.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(_config_dict(**overrides)))
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_applies_defaults():
    cfg = parse_config(json.dumps(_config_dict()))
    assert cfg.n == 10
    assert cfg.hopping == 1.0
    assert cfg.statistics == "fermion"
    assert cfg.kick_mode == "position"
    assert cfg.joint_mode == "none"
    assert cfg.detector_mode == "position"
    assert cfg.o2 is None
    assert not cfg.selective_o3
    assert cfg.o1 == Region(0, 4)
    required = dict(
        n=10,
        o1=Region(0, 4),
        o3=Region(6, 10),
        packet1=PacketSpec(Region(0, 4), 1.5, 0.8, 0.0),
        packet2=PacketSpec(Region(4, 8), 5.5, 0.8, 1.2),
        t2=0.8,
    )
    only_required = {key: value for key, value in _config_dict().items() if key in required}
    assert parse_config(json.dumps(only_required)) == ScenarioConfig(**required)


def test_parse_config_accepts_o2():
    cfg = parse_config(json.dumps(_config_dict(
        o2={"lo": 4, "hi": 7}, joint_mode="localized_bell")))
    assert cfg.o2 == Region(4, 7)
    assert cfg.joint_mode == "localized_bell"


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown key.*bogus"):
        parse_config(json.dumps(_config_dict(bogus=1)))
    bad_region = _config_dict()
    bad_region["o1"] = {"lo": 0, "hi": 4, "step": 1}
    with pytest.raises(ValueError, match="config.o1"):
        parse_config(json.dumps(bad_region))
    bad_packet = _config_dict()
    bad_packet["packet1"] = {"support": {"lo": 0, "hi": 4}, "center": 1.5, "width": 0.8}
    with pytest.raises(ValueError, match="missing required key.*momentum"):
        parse_config(json.dumps(bad_packet))


def test_parse_config_rejects_missing_required_keys():
    partial = _config_dict()
    del partial["packet2"]
    with pytest.raises(ValueError, match="missing required key.*packet2"):
        parse_config(json.dumps(partial))


def test_parse_config_type_checks():
    with pytest.raises(ValueError, match="config.n must be an integer"):
        parse_config(json.dumps(_config_dict(n=10.5)))
    with pytest.raises(ValueError, match="config.n must be an integer"):
        parse_config(json.dumps(_config_dict(n=True)))
    with pytest.raises(ValueError, match="config.t2 must be a number"):
        parse_config(json.dumps(_config_dict(t2="soon")))
    with pytest.raises(ValueError, match="config.selective_o3 must be true or false"):
        parse_config(json.dumps(_config_dict(selective_o3=1)))
    with pytest.raises(ValueError, match="config.statistics must be a string"):
        parse_config(json.dumps(_config_dict(statistics=3)))


def test_parse_config_reports_syntax_position():
    with pytest.raises(ValueError, match=r"line 1 column 10"):
        parse_config('{"n": 10,}')
    with pytest.raises(ValueError, match="must be a JSON object"):
        parse_config("[1, 2, 3]")


def test_config_round_trip():
    cfg = parse_config(json.dumps(_config_dict(o2={"lo": 4, "hi": 7})))
    again = parse_config(json.dumps(config_to_dict(cfg)))
    assert again == cfg


# ---------------------------------------------------------------------------
# report serialization


def test_report_emit_parse_identity():
    payload = {
        "p_q1_kick": 0.1 + 0.2,  # a float with a messy binary expansion
        "p_q1_nokick": 1e-300,
        "delta": 0.30000000000000004,
        "arrival_prob": 0.9862,
        "certificate": {
            "epsilon": 1e-6,
            "leak_13": 1.6e-15,
            "leak_31": 2.2e-15,
            "overlap_O1": 0.0,
            "overlap_O3": 0.0,
            "pass": True,
        },
        "max_antisym_violation": 1.7e-16,
        "branch_count_kick": 1,
        "branch_count_nokick": 2,
        "manifest": {
            "config": _config_dict(),
            "version": "0.1.0",
            "duration_seconds": 0.25,
            "seed": 7,
        },
    }
    assert parse_report(emit_report(payload)) == payload
    with pytest.raises(ValueError):
        parse_report("[1, 2]")


def test_certificate_serialization_uses_pass_key():
    from nosignal import SpacelikeCertificate

    cert = SpacelikeCertificate(epsilon=1e-6, leak_13=1e-9, leak_31=2e-9, overlap_O1=0.0, overlap_O3=0.0)
    d = certificate_to_dict(cert)
    assert d["pass"] is True
    assert list(d) == ["epsilon", "leak_13", "leak_31", "overlap_O1", "overlap_O3", "pass"]  # report bytes follow it


# ---------------------------------------------------------------------------
# naive command


def test_naive_prints_fixed_point_values(capsys):
    assert main(["naive", "--observable", "sz"]) == 0
    assert capsys.readouterr().out == "0.000000000000\n"
    assert main(["naive", "--observable", "sz", "--kick"]) == 0
    assert capsys.readouterr().out == "-1.000000000000\n"
    assert main(["naive", "--observable", "identity", "--kick"]) == 0
    assert capsys.readouterr().out == "1.000000000000\n"


def test_naive_never_prints_negative_zero(capsys):
    # sx on the unkicked arm is an exact analytic zero with a tiny negative
    # floating residue; the formatter must not show "-0.000000000000".
    assert main(["naive", "--observable", "sx"]) == 0
    out = capsys.readouterr().out
    assert out == "0.000000000000\n"


def test_naive_observable_from_file(tmp_path, capsys):
    path = tmp_path / "obs.json"
    path.write_text(json.dumps([[0.3, [0.1, 0.2]], [[0.1, -0.2], -0.7]]))
    assert main(["naive", "--observable", "file", "--observable-file", str(path)]) == 0
    assert capsys.readouterr().out == "-0.200000000000\n"
    assert main(["naive", "--observable", "file", "--observable-file", str(path), "--kick"]) == 0
    assert capsys.readouterr().out == "0.300000000000\n"


def test_naive_error_paths(tmp_path, capsys):
    assert main(["naive", "--observable", "file"]) == 2
    assert main(["naive", "--observable", "file", "--observable-file", str(tmp_path / "no.json")]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("[[1, 2], [3]]")
    assert main(["naive", "--observable", "file", "--observable-file", str(bad)]) == 2
    skew = tmp_path / "skew.json"
    skew.write_text("[[0, 1], [0, 0]]")
    assert main(["naive", "--observable", "file", "--observable-file", str(skew)]) == 2
    capsys.readouterr()
    # a 400-digit integer overflows float(): bad input, bare or as a part of a pair
    huge = tmp_path / "huge.json"
    for entry in ("1" + "0" * 399, "[0, -1" + "0" * 399 + "]"):
        huge.write_text(f"[[{entry}, 0], [0, 1]]")
        assert main(["naive", "--observable", "file", "--observable-file", str(huge)]) == 2
        assert capsys.readouterr().err.startswith("error: observable[0][0] must be a finite number")


def test_naive_rejects_seed(capsys):
    # --seed is echoed into the simulate report; no other command takes it.
    with pytest.raises(SystemExit) as err:
        main(["naive", "--observable", "sz", "--seed", "1"])
    assert err.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# simulate command


def test_simulate_writes_report(tmp_path):
    cfg_path = _write_config(tmp_path)
    out_path = tmp_path / "report.json"
    assert main(["simulate", "--config", cfg_path, "--out", str(out_path), "--seed", "9"]) == 0
    report = json.loads(out_path.read_text())
    assert set(report) == {
        "p_q1_kick", "p_q1_nokick", "delta", "arrival_prob", "certificate",
        "max_antisym_violation", "branch_count_kick", "branch_count_nokick",
        "manifest",
    }
    assert set(report["certificate"]) == {
        "epsilon", "leak_13", "leak_31", "overlap_O1", "overlap_O3", "pass",
    }
    assert set(report["manifest"]) == {"config", "version", "duration_seconds", "seed"}
    assert report["manifest"]["seed"] == 9
    assert report["certificate"]["pass"] is True
    assert report["delta"] == pytest.approx(
        abs(report["p_q1_kick"] - report["p_q1_nokick"]), abs=1e-15)
    # the manifest echoes the effective config, defaults included
    assert report["manifest"]["config"]["statistics"] == "fermion"
    assert report["manifest"]["config"]["n"] == 10


def test_simulate_reports_are_deterministic(tmp_path):
    cfg_path = _write_config(tmp_path)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["simulate", "--config", cfg_path, "--out", str(out_a), "--seed", "3"]) == 0
    assert main(["simulate", "--config", cfg_path, "--out", str(out_b), "--seed", "3"]) == 0
    rep_a = json.loads(out_a.read_text())
    rep_b = json.loads(out_b.read_text())
    da = rep_a["manifest"].pop("duration_seconds")
    db = rep_b["manifest"].pop("duration_seconds")
    assert isinstance(da, float) and isinstance(db, float)
    # bit-identical apart from the wall-clock field
    assert json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)


def test_two_simulate_calls_build_one_parser(tmp_path, monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: built.append(kwargs.get("prog")) or init(self, *args, **kwargs))
    cli.build_parser.cache_clear()
    cfg_path = _write_config(tmp_path)
    for name in ("a.json", "b.json"):
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / name)]) == 0
    assert built.count("nosignal") == 1


def test_simulate_exit_one_on_certificate_failure(tmp_path):
    cfg_path = _write_config(tmp_path, name="tight.json", eps=1e-6)
    out_path = tmp_path / "report.json"
    assert main(["simulate", "--config", cfg_path, "--out", str(out_path)]) == 1
    report = json.loads(out_path.read_text())  # report is still written
    assert report["certificate"]["pass"] is False


def test_simulate_error_exit_codes(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "none.json"), "--out", "x"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_config_dict(bogus=True)))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x.json")]) == 2


def test_selective_detection_on_an_empty_outcome_exits_two_without_a_report(tmp_path, capsys):
    # At t2 = 1 packet 2 is still far from O3: the detector step finds no
    # occupied branch to post-select on, after the certificate and the drifts.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(protocol.default_scenario(t2=1.0, selective_o3=True))))
    out_path = tmp_path / "report.json"
    assert main(["simulate", "--config", str(path), "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: selective detection post-selected on an empty outcome\n"
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["simulate", "check-spacelike"])
def test_oversized_lattice_exits_two_before_allocating(tmp_path, capsys, command):
    # One state tensor at this n would take 12.8 PB, far beyond any memory.
    cfg_path = _write_config(tmp_path, n=10_000_000)
    out_path = tmp_path / "report.json"
    argv = [command, "--config", cfg_path]
    if command == "simulate":
        argv += ["--out", str(out_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "physical memory" in captured.err
    assert not out_path.exists()


@pytest.mark.parametrize("states, code", [(5, 2), (8, 0), (20, 0)])
def test_simulate_checks_the_peak_against_physical_memory(tmp_path, capsys, monkeypatch, states, code):
    # A scenario peaks below PEAK_STATES = 7 states of 128 n^2 bytes: at n = 64
    # a machine that holds 5 of them refuses the config up front, and one that
    # holds 8 or 20 runs it.
    n, page = 64, 4096
    fake = {"SC_PAGE_SIZE": page, "SC_PHYS_PAGES": states * 128 * n**2 // page}
    real = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: fake[name] if name in fake else real(name))
    out_path = tmp_path / "report.json"
    assert main(["simulate", "--config", _write_config(tmp_path, n=n), "--out", str(out_path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    if code == 2:
        assert len(captured.err.splitlines()) == 1
        assert "7 states" in captured.err and "physical memory" in captured.err
        assert not out_path.exists()
    else:
        assert json.loads(out_path.read_text())["manifest"]["config"]["n"] == n


def test_huge_json_integer_exits_two(tmp_path, capsys):
    # float() of a 400-digit integer overflows; that is bad input, not an internal error.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_config_dict()).replace('"t2": 0.8', '"t2": 1' + "0" * 399))
    assert main(["check-spacelike", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: config.t2 must be a finite number")


@pytest.mark.parametrize("command", ["naive", "simulate", "check-spacelike", "dump-density"])
def test_deeply_nested_json_exits_two(tmp_path, capsys, command):
    # json.loads raises RecursionError on this nesting; that is bad input, not an internal error.
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    out = tmp_path / "out"
    argv = {
        "naive": ["naive", "--observable", "file", "--observable-file", str(path)],
        "simulate": ["simulate", "--config", str(path), "--out", str(out)],
        "check-spacelike": ["check-spacelike", "--config", str(path)],
        "dump-density": ["dump-density", "--config", str(path), "--arm", "kick", "--stage", "final", "--out", str(out)],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "nested too deeply" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "exc",
    [MemoryError("Unable to allocate 2.0 GiB"), RuntimeError("first line\nsecond line")],
    ids=["memory", "runtime"],
)
def test_unexpected_error_exits_four(tmp_path, capsys, monkeypatch, exc):
    def fail(cfg):
        raise exc

    monkeypatch.setattr(cli, "run_scenario", fail)
    out_path = tmp_path / "report.json"
    assert main(["simulate", "--config", _write_config(tmp_path), "--out", str(out_path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert type(exc).__name__ in captured.err
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# check-spacelike command


def test_check_spacelike_pass(tmp_path, capsys):
    cfg_path = _write_config(tmp_path)
    assert main(["check-spacelike", "--config", cfg_path]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["pass"] is True
    assert set(cert) == {"epsilon", "leak_13", "leak_31", "overlap_O1", "overlap_O3", "pass"}


def test_check_spacelike_fail(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, name="tight.json", eps=1e-6)
    assert main(["check-spacelike", "--config", cfg_path]) == 1
    cert = json.loads(capsys.readouterr().out)
    assert cert["pass"] is False
    assert cert["leak_13"] > 1e-6


# ---------------------------------------------------------------------------
# dump-density command


def test_dump_density_csv(tmp_path):
    cfg_path = _write_config(tmp_path)
    out_path = tmp_path / "dens.csv"
    assert main(["dump-density", "--config", cfg_path, "--arm", "nokick",
                 "--stage", "final", "--out", str(out_path)]) == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["site", "occ_particle_slot1", "occ_particle_slot2", "occ_symmetrized"]
    assert len(rows) == 11  # header + one row per site
    pattern = re.compile(r"^-?\d+\.\d{12}$")
    total = 0.0
    for i, row in enumerate(rows[1:]):
        assert row[0] == str(i)
        for cell in row[1:]:
            assert pattern.match(cell), cell
        assert float(row[3]) == pytest.approx(float(row[1]) + float(row[2]), abs=2e-12)
        total += float(row[3])
    assert total == pytest.approx(2.0, abs=1e-9)  # two particles on the chain


def test_dump_density_stage_and_arm_choices(tmp_path):
    cfg_path = _write_config(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["dump-density", "--config", cfg_path, "--arm", "nokick",
              "--stage", "post_o9", "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 2
    with pytest.raises(SystemExit):
        main(["dump-density", "--config", cfg_path, "--arm", "sideways",
              "--stage", "final", "--out", str(tmp_path / "x.csv")])


def test_dump_state_csv(tmp_path):
    cfg_path = _write_config(tmp_path, joint_mode="global_bell")
    out_path = tmp_path / "dens.csv"
    state_path = tmp_path / "state.csv"
    assert main(["dump-density", "--config", cfg_path, "--arm", "kick",
                 "--stage", "final", "--out", str(out_path),
                 "--dump-state", str(state_path)]) == 0
    with open(state_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["branch", "weight", "index", "re", "im"]
    dim = 8 * 10 * 10
    branches = {}
    for branch, weight, index, re_part, im_part in rows[1:]:
        branches.setdefault(int(branch), []).append(
            (float(weight), int(index), complex(float(re_part), float(im_part))))
    weight_total = 0.0
    for branch, entries in branches.items():
        assert [e[1] for e in entries] == list(range(dim))
        amps = np.array([e[2] for e in entries])
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-10)
        weight_total += entries[0][0]
    assert weight_total == pytest.approx(1.0, abs=1e-10)


def test_dump_state_of_a_spin_only_stage_keeps_the_8n2_basis(tmp_path):
    # The arm carries post_o2 spin-only; the dump still lists every index of
    # the 8 n^2 basis, with spin-only entry i at index 2 i and q = 1 rows 0.0.
    # A branch is unnormalized: its weight is |psi|^2, its rows psi / |psi|.
    cfg_path = _write_config(tmp_path, joint_mode="global_bell")
    state_path = tmp_path / "state.csv"
    assert main(["dump-density", "--config", cfg_path, "--arm", "nokick", "--stage", "post_o2",
                 "--out", str(tmp_path / "dens.csv"), "--dump-state", str(state_path)]) == 0
    with open(state_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["branch", "weight", "index", "re", "im"]
    cfg = parse_config(json.dumps(_config_dict(joint_mode="global_bell")))
    dim = 8 * cfg.n * cfg.n
    spin_only = dict(protocol._run_arm(cfg, prepare_scenario(cfg)[1], kicked=False))["post_o2"]
    assert spin_only.dim == dim // 2 and spin_only.branch_count == 2
    assert len(rows) == 1 + spin_only.branch_count * dim
    for b, state in enumerate(spin_only.branches):
        branch = rows[1 + b * dim : 1 + (b + 1) * dim]
        assert {row[0] for row in branch} == {str(b)} and {row[1] for row in branch} == {repr(state.norm ** 2)}
        state = state.normalized()
        assert [int(row[2]) for row in branch] == list(range(dim))
        for index, (_, _, _, re_part, im_part) in enumerate(branch):
            x1, x2, s1, s2, q = decode_basis_index(cfg.n, index)
            assert basis_index(cfg.n, x1, x2, s1, s2, q) == index
            column = state.amps[2 * s1 + s2]  # the (s1, s2) column; q = 1 is not carried
            amp = 0.0j if q == 1 or column is None else column[x1, x2]
            assert (re_part, im_part) == (repr(float(amp.real)), repr(float(amp.imag))), index
            if q == 1:
                assert (re_part, im_part) == ("0.0", "0.0")


# ---------------------------------------------------------------------------
# console entry point


def test_console_script_runs():
    result = subprocess.run(
        [sys.executable, "-m", "nosignal.cli", "naive", "--observable", "sz", "--kick"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert result.stdout == "-1.000000000000\n"


def test_module_reports_validation_on_stderr():
    result = subprocess.run(
        [sys.executable, "-m", "nosignal.cli", "naive", "--observable", "file"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 2
    assert "observable" in result.stderr
