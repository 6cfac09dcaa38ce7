"""Per-call times of the kernels that dominate a scenario.

Each kernel runs on a seeded random spin-only column state, the four
(s1, s2) columns the pipeline carries until the detector, whose live
columns are ones the benchmark workloads hand it (column c = 2*s1 + s2, so
0 is |dd>, 2 is |ud> and 3 is |uu>; the others absent), in the workloads'
geometry scaled to n sites: O1 = [n/12, 5n/24), O3 = [19n/24, 11n/12),
t1 = 3n/96, t2 = 7n/96.

  exchange  composite.antisymmetry_violation, |psi + S psi| / 2 summed once
            over each pair of exchanged columns, the exchange defect of
            psi0 and of every branch a label step or Lueders split builds
  drift     composite.evolve_positions with the t2 propagator, which
            contracts each live column over only its nonzero rows and
            columns; the "psi0" row's state holds column 0 only on the sites
            of the workloads' two packets, |x - 14n/96| < 3n/96 and
            |x - 62n/96| < 6n/96 (52 x 52 of 288 x 288; 53 x 53 when packet 2
            sits off-site), the support of a fermion arm's first drift; the
            "kicked" row drifts with the t1 + t2 propagator the source that a
            position kick leaves, column 2 (|ud>) on packet 1's sites x
            packet 2's and column 1 (|du>) on the transpose, as the kicked
            arm of scale288 does; the other drift rows are dense, what one
            full column costs (a t1 image is full, and the pipeline no
            longer drifts one)
  kick      PairBlocks.apply of the position kick in O1
  bell-P    PairBlocks.apply of the global Bell projector
  label2    PairBlocks.apply of protocol._detector_blocks in label2 mode,
            the detector's occupied outcome: the coupling to slot 2's spin
            on the pairs with a particle in O3 and zero elsewhere, the one
            map by which the arm builds each hit, the four spin columns to
            eight (s1, s2, q) ones
  luders    qcore.luders_update on the global Bell pair (P, Q)
  normalize StateVector.normalized()
  operators the three propagators of a localized-Bell scenario (t1, t2
            and t1 + t2) and the four protocol builders (kick, joint,
            the detector's occupied outcome, its miss outcome),
            which are not cached; "cold" empties the propagator cache
            before every call (what a scenario on a new time pays; the
            eigensystem stays cached) and "warm" keeps it filled; these
            rows take no state

It prints the best of --repeat calls of each after one untimed call, in
milliseconds, with the machine's processor count and the Python and numpy
versions.

Run:  PYTHONPATH=src python demos/kernel_timing.py [--n 192 288] [--repeat 15] [--seed 0]
"""

from __future__ import annotations

import argparse
import os
import platform
import time

import numpy as np

from nosignal import Region, StateVector, antisymmetry_violation, evolve_positions, make_lattice, propagator
from nosignal.protocol import _OCCUPANCY, PairBlocks, _detector_blocks, _joint_outcomes, _kick_blocks, _occupied_rects
from nosignal.qcore import luders_update

BUILDERS = (propagator,)  # the caches the cold row empties

# (kernel, live columns of its input, or the caches' state), in the order of the table.
ROWS = [
    ("exchange", (0,)),
    ("exchange", (0, 3)),
    ("exchange", (1, 2)),
    ("exchange", (0, 2, 3)),
    ("drift", (0,)),
    ("drift", (0, 3)),
    ("drift", (1, 2)),
    ("drift", (0, 2, 3)),
    ("drift", "psi0"),
    ("drift", "kicked"),
    ("kick", (0,)),
    ("bell-P", (0, 2)),
    ("label2", (0, 2)),
    ("luders", (0, 2)),
    ("normalize", (0, 2)),
    ("operators", "cold"),
    ("operators", "warm"),
]


def seeded_state(n: int, live, rng: np.random.Generator) -> StateVector:
    """A normalized spin-only column state on ``n`` sites with random ``live`` columns, the others absent.

    ``live = "psi0"`` fills column 0 on the packets' sites only, as in ``prepare_initial``'s fermion state;
    ``live = "kicked"`` fills column 2 on packet 1's sites x packet 2's and column 1 on the transpose, as a
    position kick leaves that state.
    """
    x = np.arange(n)
    p1, p2 = abs(x - 14 * n / 96) < 3 * n / 96, abs(x - 62 * n / 96) < 6 * n / 96
    blocks = {"psi0": {0: np.ix_(p1 | p2, p1 | p2)}, "kicked": {2: np.ix_(p1, p2), 1: np.ix_(p2, p1)}}
    cols = [None] * 4
    for c, block in blocks.get(live, {c: (slice(None), slice(None)) for c in live}).items():
        cols[c] = np.zeros((n, n), dtype=np.complex128)
        shape = cols[c][block].shape
        cols[c][block] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return StateVector(tuple(cols)).normalized()


def operators(n: int, cold: bool):
    """Build the three propagators and four operations of the workloads' geometry, propagators uncached if ``cold``."""
    lat, o1, o3 = make_lattice(n, 1.0), Region(n // 12, 5 * n // 24), Region(19 * n // 24, 11 * n // 12)

    def build(_state):
        for cache in BUILDERS if cold else ():
            cache.cache_clear()
        propagator(lat, 3.0 * n / 96), propagator(lat, 7.0 * n / 96), propagator(lat, 10.0 * n / 96)
        _kick_blocks(n, o1, "position"), _joint_outcomes(n, "global_bell", None)
        _detector_blocks(n, o3, "label2"), PairBlocks(n, _occupied_rects(n, o3), (_OCCUPANCY[1],) * 3, True)

    return build


def kernels(n: int) -> dict:
    """Each kernel of ``ROWS`` as a function of one state, keyed by its row."""
    lat = make_lattice(n, 1.0)
    u2, u12 = propagator(lat, 7.0 * n / 96), propagator(lat, 10.0 * n / 96)
    o1, o3 = Region(n // 12, 5 * n // 24), Region(19 * n // 24, 11 * n // 12)
    kick = _kick_blocks(n, o1, "position")
    bell = _joint_outcomes(n, "global_bell", None)
    label2 = _detector_blocks(n, o3, "label2")
    fns = {
        "exchange": antisymmetry_violation,
        "drift": lambda s: evolve_positions(u2, s),
        "kick": lambda s: kick.apply(s.amps),
        "bell-P": lambda s: bell[0].apply(s.amps),
        "label2": lambda s: label2.apply(s.amps),
        "luders": lambda s: luders_update([s], [op.apply for op in bell]),
        "normalize": lambda s: s.normalized(),
    }
    fns["drift", "kicked"] = lambda s: evolve_positions(u12, s)
    return {(name, live): fns.get((name, live), fns.get(name)) or operators(n, live == "cold") for name, live in ROWS}


def best_ms(f, state: StateVector, repeat: int) -> float:
    f(state)  # warms BLAS threads and caches; untimed
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        f(state)
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[192, 288], help="lattice sizes")
    parser.add_argument("--repeat", type=int, default=15, help="calls per kernel; the best is printed")
    parser.add_argument("--seed", type=int, default=0, help="seed of the random states")
    args = parser.parse_args(argv)
    if args.repeat < 1 or min(args.n) < 24:
        parser.error("--repeat must be >= 1 and every --n >= 24")
    print(
        f"best of {args.repeat} calls, ms; nproc {os.cpu_count()}, "
        f"Python {platform.python_version()}, numpy {np.__version__}"
    )
    print(f"{'kernel':<10}{'live':<10}" + "".join(f"{f'n={n}':>10}" for n in args.n))
    rng = np.random.default_rng(args.seed)
    table = {row: [] for row in ROWS}
    for n in args.n:
        fns = kernels(n)
        for row in ROWS:
            state = None if row[0] == "operators" else seeded_state(n, row[1], rng)
            table[row].append(best_ms(fns[row], state, args.repeat))
    for (name, live), times in table.items():
        live = ",".join(map(str, live)) if isinstance(live, tuple) else live
        print(f"{name:<10}{live:<10}" + "".join(f"{t:10.3f}" for t in times))


if __name__ == "__main__":
    main()
