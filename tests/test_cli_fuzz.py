"""Property tests: ``main`` maps any config or observable file to exit 0, 1 or 2.

Configs follow the README schema, with arbitrary JSON in place of any key's
value.  Integer ``n`` stays at most 64, so no example allocates more than a
few MB.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nosignal.cli import main  # noqa: E402

MAX_N = 64

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)
SMALL_INT = st.integers(min_value=-4, max_value=MAX_N + 4)
NUMBER = st.floats(min_value=-2 * MAX_N, max_value=2 * MAX_N) | JSON
REGION = st.fixed_dictionaries({"lo": SMALL_INT | JSON, "hi": SMALL_INT | JSON}) | JSON
PACKET = st.fixed_dictionaries(
    {"support": REGION, "center": NUMBER, "width": NUMBER, "momentum": NUMBER}
) | JSON


def _not_large_int(value) -> bool:
    return not isinstance(value, int) or value <= MAX_N


# One strategy per key of the schema; each may also yield any JSON value.
VALUES = {
    "n": st.integers(max_value=MAX_N) | JSON.filter(_not_large_int),
    "o1": REGION,
    "o2": REGION,
    "o3": REGION,
    "packet1": PACKET,
    "packet2": PACKET,
    "t1": NUMBER,
    "t2": NUMBER,
    "hopping": NUMBER,
    "eps": NUMBER,
    "statistics": st.sampled_from(["fermion", "boson", "distinguishable"]) | JSON,
    "kick_mode": st.sampled_from(["off", "position", "label1"]) | JSON,
    "joint_mode": st.sampled_from(["none", "global_bell", "localized_bell"]) | JSON,
    "detector_mode": st.sampled_from(["position", "label2"]) | JSON,
    "selective_o3": st.booleans() | JSON,
}

# A valid, certified 12-site scenario; examples change a few of its keys.
BASE = {
    "n": 12,
    "o1": {"lo": 0, "hi": 4},
    "o2": {"lo": 4, "hi": 8},
    "o3": {"lo": 8, "hi": 12},
    "packet1": {"support": {"lo": 0, "hi": 4}, "center": 1.5, "width": 0.8, "momentum": 0.0},
    "packet2": {"support": {"lo": 5, "hi": 9}, "center": 6.5, "width": 0.8, "momentum": 1.2},
    "t1": 0.4,
    "t2": 0.8,
    "eps": 1.0,
}


def _one_in(k: int):
    return st.integers(1, k).map(lambda i: i == 1)


@st.composite
def configs(draw):
    if draw(_one_in(8)):
        return draw(JSON)
    cfg = dict(BASE)
    for key in draw(st.lists(st.sampled_from(sorted(VALUES)), max_size=3, unique=True)):
        cfg[key] = draw(VALUES[key])
    if draw(_one_in(10)):
        del cfg[draw(st.sampled_from(sorted(cfg)))]
    if draw(_one_in(10)):
        cfg[draw(st.text(max_size=8))] = draw(JSON)
    return cfg


ENTRY = st.floats() | st.integers() | st.lists(st.floats() | st.integers(), min_size=2, max_size=2) | JSON
OBSERVABLES = st.lists(st.lists(ENTRY, min_size=2, max_size=2), min_size=2, max_size=2) | JSON


def _run(argv_of, text: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "input.json")
        path.write_text(text, encoding="utf-8")
        return main(argv_of(str(path), str(Path(tmp, "out.json"))))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(cfg=configs(), command=st.sampled_from(["simulate", "check-spacelike"]))
def test_main_exit_code_on_arbitrary_configs(cfg, command):
    def argv(config, out):
        return [command, "--config", config] + (["--out", out] if command == "simulate" else [])

    assert _run(argv, json.dumps(cfg)) in (0, 1, 2)


# The hermiticity check squares entries; past about 1e154 that overflows to inf,
# and the observable is rejected.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(obs=OBSERVABLES, kick=st.booleans())
def test_main_exit_code_on_arbitrary_observables(obs, kick):
    def argv(path, _out):
        return ["naive", "--observable", "file", "--observable-file", path] + (["--kick"] if kick else [])

    assert _run(argv, json.dumps(obs)) in (0, 1, 2)
