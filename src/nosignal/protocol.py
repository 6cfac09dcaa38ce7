"""Kick, joint spin measurement, and detector coupling on the lattice.

The scenario pipeline is: prepare the two-particle state, optionally kick
spins in region O1, evolve for ``t1``, optionally measure a Bell-type spin
projector (globally or localized to region O2), evolve for ``t2``, couple a
detector qubit in region O3, and read the qubit.  The difference between
the qubit statistics of the kicked and unkicked arms is the signaling
metric.  Label-addressed operations make it finite.  Exchange-symmetric
position-localized operations leave it at certified leakage while O2 stays
out of reach of both packets in time, but not in Sorkin's geometry, where O2
meets the causal future of O1 and the causal past of O3: there the localized
Bell measurement relays the kick under a passing certificate.

Operations come in two flavors throughout:

* ``position`` / ``localized`` modes condition on *where* a particle is.
  They are exchange symmetric and therefore compatible with fermionic or
  bosonic statistics.
* ``label`` modes act on a fixed particle slot (slot 1 for the kick,
  slot 2's spin for the detector).  They are deliberately available, and
  deliberately not exchange symmetric, so the simulator can quantify what
  goes wrong when they are used on indistinguishable particles.

After preparation every operation is diagonal in the positions: a
:class:`PairBlocks` of rectangles of site slices ``(x1 in rows, x2 in
cols)``, each with a fixed map on the spins: the 4x4 spin flip as slot 1,
slot 2 or both occupy the region, an outcome pair ``(P, 1 - P)`` of the
Bell projector or of occupancy, or the detector coupling, whose 8x4 map
(the ``q = 0`` columns of an 8x8 unitary) takes the arm's four spin columns
(see ``composite``) to eight.  The maps are read-only arrays, module
constants built and checked once at import; each arm places them where it
uses them.  Every region is an interval, so "slot 1 only in R" is the two
rectangles ``(R, [0, lo))`` and ``(R, [hi, n))``, "both in R" is ``(R, R)``,
and a global map is ``(all, all)``.  The pipeline applies the maps column
by column in CSR mat-vec order: output column ``i`` sums ``m[i, j] * X_j``
from zero over the nonzero ``j`` ascending, skipping absent columns.
Measurements are pairs ``(P, Q)`` of such operations, and branch through
:func:`nosignal.qcore.luders_update`; the detector's occupied outcome is its
coupling on the pairs with a particle in O3 and zero elsewhere, in one map.
Each arm builds every operation once, as the map its step applies.  The
package builds no sparse matrix; the test suite checks that amplitudes are
bit-identical to the CSR mat-vec of each operation's matrix.

Every step of an arm has one shape: a plain function that takes the list of
branches over and returns the next list.  A branch is unnormalized (its Born
weight is its squared norm); the arm wraps each stage in a
:class:`~nosignal.qcore.BranchEnsemble` only to yield it.

The drift ``D_t(X) = U_t X U_t^T`` commutes with a map on every position
pair, and ``D_t2 D_t1 = D_{t1+t2}``.  Until O2 an arm has one branch ``Y``,
whose t1 image ``Z`` is full (``U_t1`` has no zero entry).  With ``g_k`` the
part of the joint outcome ``M_k`` on every pair, the pre-detector branch is
built as ``D_{t1+t2}(g_k Y) + D_t2((M_k - g_k) Z)``: ``D_{t1+t2}(Y)`` for
``none``, ``D_{t1+t2}(M_k Y)`` for ``global_bell``, and ``D_t2(P Z)`` and
``D_{t1+t2}(Y) - D_t2(P Z)`` for ``localized_bell``, ``P Z`` on O2 x O2.

After O2 the report reads only pairs with a particle in O3, so :func:`run_scenario`
builds the pre-detector and final branches on that window alone (``_run_arm``): a
branch's weight off it, which the t2 drift keeps, is a number, and a ``label2`` miss
``Q W``, all off it, is that number alone.  O3 occupancy ``P`` commutes with the
exchange ``S``: ``|(I+S) Q W|^2 = |(I+S) W|^2 - |(I+S) P W|^2``, the first term from the
branch's last check.  That loses the digits of ``|W|^2 / |Q W|^2``, so a miss counts
only where it beats its branch's violation beyond roundoff (the difference is then > 0).
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional

import numpy as np

from . import qcore
from .composite import (
    Statistics,
    _sites,
    antisymmetry_violation,
    evolve_positions,
    prepare_initial,
)
from .lattice import (
    UNITARITY_ATOL,
    Region,
    SpacelikeCertificate,
    check_spacelike,
    make_lattice,
    propagator,
    wavepacket,
)
from .qcore import (
    BRANCH_PRUNE_THRESHOLD,
    HERMITICITY_ATOL,
    PAULI_X,
    RESOLUTION_ATOL,
    BranchEnsemble,
    StateVector,
    luders_update,
)

KICK_MODES = ("off", "position", "label1")
JOINT_MODES = ("none", "global_bell", "localized_bell")
DETECTOR_MODES = ("position", "label2")

STAGES = ("prepared", "post_kick", "post_o2", "final")

# Bound on a scenario's peak memory in states of 128 n^2 bytes (eight full columns), live
# branches and temporaries included (measured worst 2.47); it also sizes the allocator thresholds.
PEAK_STATES = 7
_MALLOPT = getattr(ctypes.CDLL(None), "mallopt", lambda param, value: 0)  # no-op without one


@dataclass(frozen=True)
class PacketSpec:
    """Wavepacket parameters handed to :func:`nosignal.lattice.wavepacket`."""

    support: Region
    center: float
    width: float
    momentum: float

    def __post_init__(self):
        for name in ("center", "width", "momentum"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"packet {name} must be finite, got {v}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """Full description of one signaling experiment (both arms).

    The single statement of the JSON config schema: the CLI parses and
    serializes configs field by field, in this order, from these
    annotations and defaults; a field with no default is required.
    """

    n: int
    hopping: float = 1.0
    o1: Region
    o2: Optional[Region] = None
    o3: Region
    packet1: PacketSpec
    packet2: PacketSpec
    statistics: str = "fermion"
    kick_mode: str = "position"
    joint_mode: str = "none"
    detector_mode: str = "position"
    t1: float = 0.0
    t2: float
    eps: float = 1e-6
    selective_o3: bool = False

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 8:
            raise ValueError(f"n must be an integer >= 8, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        memory_bytes = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if self.peak_bytes > memory_bytes:
            raise ValueError(
                f"n={self.n} needs {PEAK_STATES} states of {128 * self.n**2} bytes at its peak, "
                f"more than the {memory_bytes} bytes of physical memory"
            )
        if not (float(self.hopping) > 0.0) or not math.isfinite(float(self.hopping)):
            raise ValueError(f"hopping must be positive and finite, got {self.hopping}")
        object.__setattr__(self, "hopping", float(self.hopping))
        for name in ("o1", "o3"):
            region = getattr(self, name)
            if not isinstance(region, Region):
                raise ValueError(f"{name} must be a Region")
            region.slice_in(self.n, name)
        if self.o1.overlaps(self.o3):
            raise ValueError(
                f"O1, O3 disjoint violated: O1=[{self.o1.lo}, {self.o1.hi}) overlaps "
                f"O3=[{self.o3.lo}, {self.o3.hi})"
            )
        object.__setattr__(self, "statistics", str(Statistics(self.statistics).value))
        if self.kick_mode not in KICK_MODES:
            raise ValueError(f"kick_mode must be one of {KICK_MODES}, got {self.kick_mode!r}")
        if self.joint_mode not in JOINT_MODES:
            raise ValueError(f"joint_mode must be one of {JOINT_MODES}, got {self.joint_mode!r}")
        if self.detector_mode not in DETECTOR_MODES:
            raise ValueError(f"detector_mode must be one of {DETECTOR_MODES}, got {self.detector_mode!r}")
        if self.joint_mode == "localized_bell" and self.o2 is None:
            raise ValueError("joint_mode localized_bell requires an O2 region")
        if self.o2 is not None and (not isinstance(self.o2, Region) or self.o2.hi > self.n):
            raise ValueError("O2 must be a region inside the lattice")
        for name in ("t1", "t2"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
            object.__setattr__(self, name, v)
        if not (float(self.eps) > 0.0) or not math.isfinite(float(self.eps)):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        object.__setattr__(self, "eps", float(self.eps))
        object.__setattr__(self, "selective_o3", bool(self.selective_o3))
        for name in ("packet1", "packet2"):
            packet = getattr(self, name)
            if not isinstance(packet, PacketSpec):
                raise ValueError(f"{name} must be a PacketSpec")
            if packet.support.hi > self.n:
                raise ValueError(f"{name} support exceeds the {self.n}-site lattice")

    @property
    def t_total(self) -> float:
        return self.t1 + self.t2

    @property
    def peak_bytes(self) -> int:
        """Peak memory budget: ``PEAK_STATES`` states of ``128 n^2`` bytes."""
        return PEAK_STATES * 128 * self.n**2


@dataclass(frozen=True)
class SignalingReport:
    """Outcome of both arms of a scenario plus the causal-separation evidence.

    ``max_antisym_violation`` is the worst violation of ``psi0`` and of every
    branch a label-addressed step or a Lueders split builds; the drifts, the
    position kick and the non-selective position detector commute with the
    exchange and keep each branch's violation, so they are not measured.
    """

    p_q1_kick: float
    p_q1_nokick: float
    delta: float
    arrival_prob: float
    certificate: SpacelikeCertificate
    max_antisym_violation: float
    branch_count_kick: int
    branch_count_nokick: int


# ---------------------------------------------------------------------------
# elementary operators


def bell_projector() -> np.ndarray:
    """Rank-1 projector onto ``(|uu> + |dd>)/sqrt(2)`` on two spins, read-only."""
    vec = np.zeros(4, dtype=np.complex128)
    vec[0] = 1.0 / np.sqrt(2.0)  # |dd>
    vec[3] = 1.0 / np.sqrt(2.0)  # |uu>
    return qcore.freeze(np.outer(vec, vec.conj()))


def detector_coupling() -> np.ndarray:
    """Self-inverse unitary on (spin, qubit), read-only: ``u0 <-> d1``, fixing ``d0``, ``u1``.

    Basis order is ``2*s + q`` with spin down = 0: the detector absorbs an
    up excitation (``|u 0> -> |d 1>``) and re-emits it in reverse.
    """
    mat = np.zeros((4, 4), dtype=np.complex128)
    mat[0, 0] = 1.0  # d0 -> d0
    mat[1, 2] = 1.0  # u0 -> d1
    mat[2, 1] = 1.0  # d1 -> u0
    mat[3, 3] = 1.0  # u1 -> u1
    return qcore.freeze(mat)


def _spin_flip(*slots: int) -> np.ndarray:
    """Pauli X on the spins of the listed slots, acting on (s1,s2)."""
    x, e = PAULI_X, np.eye(2, dtype=np.complex128)
    return np.kron(x if 1 in slots else e, x if 2 in slots else e)


def _spin_qubit_map_8(which: int) -> np.ndarray:
    """Detector coupling acting on (s1,s2,q) through slot ``which``'s spin."""
    d = detector_coupling().reshape(2, 2, 2, 2)  # (s', q', s, q)
    spec = "abxz,cy->acbxyz" if which == 1 else "cbyz,ax->acbxyz"
    return np.einsum(spec, d, np.eye(2)).reshape(8, 8)


def _both_in_region_coupling_8() -> np.ndarray:
    """Exchange-symmetric self-inverse coupling used when both particles sit
    in the detector region.

    Acts like the single-particle coupling on the spin-exchange-symmetric
    combinations (the one-excitation symmetric state trades with the qubit,
    ``|dd 0>`` and ``|uu 1>`` are fixed, ``|uu 0>`` trades with the
    symmetric one-excitation state at ``q = 1``) and leaves the
    antisymmetric spin combinations untouched.  Only this convention matters
    on the certified scenarios: the sector it governs carries amplitude
    bounded by the overlap entries of the spacelike certificate.
    """
    dd0, dd1, du0, du1, ud0, ud1, uu0, uu1 = np.eye(8, dtype=np.complex128)
    plus0 = (ud0 + du0) / np.sqrt(2.0)
    minus0 = (ud0 - du0) / np.sqrt(2.0)
    plus1 = (ud1 + du1) / np.sqrt(2.0)
    minus1 = (ud1 - du1) / np.sqrt(2.0)
    pairs = [(dd0, dd0), (uu1, uu1), (dd1, plus0), (plus0, dd1), (minus0, minus0), (plus1, uu0), (uu0, plus1),
             (minus1, minus1)]
    return sum(np.outer(img, src.conj()) for img, src in pairs)


def _checked(maps):
    """``maps`` as read-only complex arrays, checked: one map must be unitary, a pair ``(P, Q)`` a projector pair."""
    eye = np.eye(len(maps[0]) if isinstance(maps, tuple) else len(maps))
    if isinstance(maps, tuple):
        p, q = map(qcore._frozen_matrix, maps)
        if max(np.linalg.norm(m - m.conj().T) for m in (p, q)) > HERMITICITY_ATOL:
            raise ValueError("projectors must be Hermitian")
        cross = np.linalg.norm(p @ q)
        if cross > RESOLUTION_ATOL:
            raise ValueError(f"projectors 0 and 1 are not orthogonal: |PiPj| = {cross:.3e}")
        defect = np.linalg.norm(p + q - eye)
        if defect > RESOLUTION_ATOL:
            raise ValueError(f"projectors do not resolve the identity: defect {defect:.3e}")
        return p, q
    m = qcore._frozen_matrix(maps)
    defect = np.linalg.norm(m.conj().T @ m - eye)
    if defect > UNITARITY_ATOL:
        raise ValueError(f"{len(m)}x{len(m)} map is not unitary: defect {defect:.3e}")
    return m


# The fixed maps (module docstring), built and checked once; the operations only place them.
_FLIP = tuple(_checked(_spin_flip(*slots)) for slots in ((1,), (2,), (1, 2)))
_COUPLING = tuple(m[:, ::2] for m in map(_checked, (_spin_qubit_map_8(1), _spin_qubit_map_8(2),
                                                    _both_in_region_coupling_8())))  # q = 0 columns
_BELL = _checked((bell_projector(), np.eye(4) - bell_projector()))
_OCCUPANCY = _checked((np.eye(4), np.zeros((4, 4))))


# ---------------------------------------------------------------------------
# position-controlled operations


_ALL = slice(None)


@dataclass(frozen=True, eq=False)
class PairBlocks:
    """An operation diagonal in the positions ``(x1, x2)``.

    It acts by the map ``maps[k]`` on the rectangle ``rects[k]`` of every
    spin column, a pair ``(rows, cols)`` of site slices for slot 1 and
    slot 2, and as the identity (when ``rest_identity``) or zero on every
    pair outside the rectangles, which are disjoint.  On a ``window`` each
    rectangle has a particle in it, and they cover its layout (``evolve_positions``).
    """

    n: int
    rects: tuple
    maps: tuple
    rest_identity: bool
    window: slice = field(default_factory=lambda: _ALL)

    def __post_init__(self):  # read-only copies, so no caller's array can change the operation
        object.__setattr__(self, "maps", tuple(qcore._frozen_matrix(m) for m in self.maps))
        if self.window != _ALL:  # a row x1 off the window is its column n + x1, less its width past it
            w, b = self.window.stop - self.window.start, self.window.stop
            object.__setattr__(self, "rects", tuple((_ALL, c if r == self.window else slice(
                r.start + self.n - w * (r.start >= b), r.stop + self.n - w * (r.start >= b))) for r, c in self.rects))

    def apply(self, cols: tuple) -> tuple:
        """The image of the column tuple ``cols`` as a fresh tuple of writable columns; the caller freezes it.

        Outside the rectangles the identity copies ``X_j + 0`` (``-0.0`` turns
        ``+0.0``, as the CSR sum ``0 + 1 * x`` does) to column ``j``, or ``2 j``
        for an 8x4 map.  A column with no present source stays absent.
        """
        (rows, width), shape = self.maps[0].shape, next(x.shape for x in cols if x is not None)
        out = [None] * rows
        if self.rest_identity and self.window == _ALL and self.rects != ((_ALL, _ALL),):
            out[:: rows // width] = [None if x is None else x + 0 for x in cols]
        for rect, m in zip(self.rects, self.maps):
            for i, row in enumerate(m):
                terms = [(row[j], cols[j][rect]) for j in np.flatnonzero(row) if cols[j] is not None]
                if out[i] is not None:
                    out[i][rect] = 0
                elif terms:
                    out[i] = np.zeros(shape, dtype=np.complex128)
                else:
                    continue
                block = out[i][rect]
                for a, x in terms:  # 1 * x has the bits of x, and a sum from +0 adds -0.0 as +0.0
                    block += x if a == 1 else a * x
        return tuple(out)

    def __call__(self, state: StateVector) -> StateVector:
        """The image of ``state``, as a new checked state."""
        return StateVector(qcore.freeze(self.apply(state.amps)))


def _by_occupant(n: int, region: Region, name: str, only1, only2, both, rest_identity: bool, window=_ALL) -> PairBlocks:
    """The operation acting by ``only1``/``only2``/``both`` as slot 1, slot 2 or both occupy ``region``."""
    r = region.slice_in(n, name)
    lo, hi = slice(0, r.start), slice(r.stop, n)
    rects = ((r, lo), (r, hi), (lo, r), (hi, r), (r, r))
    return PairBlocks(n, rects, (only1, only1, only2, only2, both), rest_identity, window)


def _kick_blocks(n: int, o1: Region, mode: str) -> PairBlocks:
    if mode == "label1":
        return PairBlocks(n, ((o1.slice_in(n, "O1"), _ALL),), (_FLIP[0],), rest_identity=True)
    return _by_occupant(n, o1, "O1", *_FLIP, rest_identity=True)


def _detector_blocks(n: int, o3: Region, mode: str, window: slice = _ALL) -> PairBlocks:
    """``C P``: the coupling on the pairs with a particle in O3, zero elsewhere."""
    if mode == "label2":
        return PairBlocks(n, _occupied_rects(n, o3), (_COUPLING[1],) * 3, False, window)
    return _by_occupant(n, o3, "O3", *_COUPLING, rest_identity=False, window=window)


def _joint_outcomes(n: int, mode: str, o2: Optional[Region]) -> tuple:
    """``(P, Q)`` of the Bell projector on every pair (``global_bell``) or on O2 x O2, zero / the identity elsewhere."""
    r = _ALL if mode == "global_bell" else o2.slice_in(n, "O2")
    return PairBlocks(n, ((r, r),), _BELL[:1], False), PairBlocks(n, ((r, r),), _BELL[1:], True)


def _occupied_rects(n: int, o3: Region) -> tuple:
    """The disjoint rectangles of the pairs with a particle in O3."""
    r = o3.slice_in(n, "O3")
    return (r, _ALL), (slice(0, r.start), r), (slice(r.stop, n), r)


# ---------------------------------------------------------------------------
# the steps of an arm


def _each(f: Callable[[StateVector], StateVector], branches: list) -> list:
    """``branches`` with ``f`` applied to every state, as a new list; ``branches`` is emptied front to back."""
    out = []
    while branches:
        out.append(f(branches.pop(0)))
    return out


def _detector_step(n: int, o3: Region, mode: str, branches: list, selective: bool = False, window=_ALL) -> list:
    """The detector stage on the spin-only list ``branches``, which it takes over; it returns eight-column branches.

    ``position`` mode applies the exchange-symmetric position-controlled
    coupling unitary; with ``selective`` true it keeps only the occupied
    outcome of the O3 occupancy projector, which commutes with it.
    ``label2`` mode is the label-addressed procedure: branch on O3 occupancy
    and apply the coupling to particle slot 2's spin on the occupied branch
    regardless of which particle actually sits in O3.  It is not exchange
    symmetric and breaks the antisymmetry of fermionic states.

    Branching is the Lueders update on the occupancy projectors ``(P, Q)``,
    with the coupling ``C`` folded into ``P``: ``C P`` (``_detector_blocks``)
    builds each hit coupled, in one map.  It has the bits of ``C`` after
    ``P``, which only turns ``-0.0`` to ``+0.0``, as a sum from ``+0`` does.
    The occupied branches come first, then the unoccupied ones, each in the
    order of the input branches.  An unoccupied branch is only lifted (the
    coupling is the identity there): its spin columns, shared, become its
    ``q = 0`` columns.  Selection keeps the branches ``P psi``, whose total
    weight it needs, and scales each ``C P psi`` by the reciprocal root of
    that weight.  On O3's ``window`` (module docstring) each map acts there alone, and ``Q`` builds no miss.
    """
    if mode == "position" and not selective:
        return _each(_by_occupant(n, o3, "O3", *_COUPLING, rest_identity=True, window=window), branches)
    # The one occupancy outcome the step applies: the miss Q, or the hit P that selection keeps
    rects, hit = _occupied_rects(n, o3), _detector_blocks(n, o3, mode, window)
    occupancy = PairBlocks(n, rects, (_OCCUPANCY[not selective],) * len(rects), not selective, window)
    if not selective:
        hits, misses = luders_update(branches, [hit.apply, occupancy.apply])
        return hits + [StateVector(tuple(c for x in s.amps for c in (x, None))) for s in misses]
    hits = luders_update(branches, [occupancy.apply])[0]  # C mixes columns: it keeps the norms of P only to roundoff
    total = sum(s.norm ** 2 for s in hits)
    if total <= 1e-12:
        raise ValueError("selective detection post-selected on an empty outcome")
    r = qcore.reciprocal(math.sqrt(total))
    return _each(lambda s: StateVector(qcore.freeze(tuple(
        None if x is None else np.multiply(x, r, out=x) for x in hit.apply(s.amps)))), hits)


# ---------------------------------------------------------------------------
# pipelines


def run_naive_sorkin(observable: np.ndarray, kick: bool) -> float:
    """Two-spin pipeline with label addressing and no notion of position.

    Starts from ``|dd>``, optionally flips spin 1, measures the Bell-direction
    projector non-selectively, and returns the expectation of the 2x2
    Hermitian ``observable`` on spin 2.  Reproduces the closed forms ``tr(C)/2``
    (no kick) and ``<d|C|d>`` (kick): the kick at one site changes the
    statistics at the other, which is the signaling this package exists to
    dissect.  A non-finite, non-2x2 or non-Hermitian ``observable`` raises
    ``ValueError``.
    """
    c = qcore._frozen_matrix(observable)
    if c.shape != (2, 2):
        raise ValueError("observable must be a single-spin operator")
    eye2 = np.eye(2, dtype=np.complex128)
    obs = np.kron(eye2, c)  # acts on spin 2 of the pair
    defect = np.linalg.norm(obs - obs.conj().T)
    if defect > HERMITICITY_ATOL:
        raise ValueError(f"observable is not Hermitian: defect {defect:.3e}")
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = 1.0  # |dd>
    if kick:
        amps = np.kron(PAULI_X, eye2) @ amps
    pb = bell_projector()
    branches = [StateVector(amps)]
    value = 0.0 + 0.0j
    for state in sum(luders_update(branches, [pb.__matmul__, (np.eye(4) - pb).__matmul__]), []):
        value += np.vdot(state.amps, obs @ state.amps)
    return float(value.real)


def qubit_one_probability(ens: BranchEnsemble) -> float:
    """Probability that the qubit reads 1, ``|psi_{q=1}|^2`` summed over the branches: exactly 0 if spin-only."""
    if not ens.outside:  # else its columns are on a window (module docstring), which _sites rejects
        _sites(ens)  # a ValueError unless a column state
    return sum((qcore.squared_norm(s.amps[1::2]) for s in ens.branches if s is not None and len(s.amps) == 8), 0.0)


def run_arm_stages(cfg: ScenarioConfig, kicked: bool) -> Mapping[str, BranchEnsemble]:
    """Run one arm of a scenario and return the four stage snapshots as column states.

    Stages: ``prepared`` (initial state), ``post_kick`` (after the optional
    O1 kick, before any evolution), ``post_o2`` (after the t1 evolution and
    the joint measurement), ``final`` (after the t2 evolution and the
    detector measurement).  The first three are spin-only;
    :func:`~nosignal.composite.to_flat` gives any of them on the ``8 n^2`` basis.
    """
    return {name: ens for name, ens in _run_arm(cfg, prepare_scenario(cfg)[1], kicked) if name in STAGES}


def _keep_peak_mapped(cfg: ScenarioConfig) -> None:
    for param in (-1, -3):  # M_TRIM_THRESHOLD, M_MMAP_THRESHOLD: setting one freezes the other
        _MALLOPT(param, ctypes.c_int(min(cfg.peak_bytes, 2**31 - 1)))  # mallopt takes a C int


def prepare_scenario(cfg: ScenarioConfig):
    """Build the lattice and the initial spin-only state ``psi0`` of a scenario, as ``(lat, psi0)``.

    ``psi0`` has dimension ``4 n^2``, the only record of its lattice size
    (see ``composite``).  It first sets glibc's trim and mmap thresholds to
    the budget ``cfg.peak_bytes``.
    """
    _keep_peak_mapped(cfg)
    lat = make_lattice(cfg.n, cfg.hopping)
    p1 = wavepacket(lat, cfg.packet1.support, cfg.packet1.center, cfg.packet1.width, cfg.packet1.momentum)
    p2 = wavepacket(lat, cfg.packet2.support, cfg.packet2.center, cfg.packet2.width, cfg.packet2.momentum)
    psi0 = prepare_initial(cfg.statistics, p1, p2)
    return lat, psi0


def _run_arm(cfg: ScenarioConfig, psi0: StateVector, kicked: bool, window: slice = _ALL) -> Iterator[tuple]:
    """Run one arm from ``psi0``, yielding ``(name, ensemble)`` per stage as it is built.

    The stages are the four of ``STAGES`` and ``pre_detector``, after the t2
    evolution; all but ``final`` are spin-only.  The arm holds a stage as a
    list of branches.  Every step (``_each``, ``luders_update``,
    ``_detector_step``) takes the list over and returns the next one; it
    empties its input and releases each input branch once its images are
    built, so a consumer that drops each yielded ensemble before asking for
    the next stage frees the stage branch by branch.  The joint outcomes
    ``(P, Q)`` are built once and serve the sources ``g_k Y`` of the
    pre-detector branches (module docstring), the O2 update of ``Z`` and
    ``P Z``; the sources are built before ``post_o2`` is yielded and held
    until their images are.  From ``pre_detector`` on, branches hold ``window`` alone (module docstring).
    """
    lat = make_lattice(cfg.n, cfg.hopping)
    branches = [psi0]
    del psi0  # so the first step that takes the branch over frees it
    yield "prepared", BranchEnsemble(branches)
    if kicked and cfg.kick_mode != "off":
        kick = _kick_blocks(cfg.n, cfg.o1, cfg.kick_mode)  # its output is compact: drop the columns it leaves zero
        branches = _each(lambda s: StateVector(qcore.freeze(tuple(
            x if x is not None and x.any() else None for x in kick.apply(s.amps)))), branches)
    yield "post_kick", BranchEnsemble(branches)
    y = branches.pop()
    z = evolve_positions(propagator(lat, cfg.t1), y)
    outcomes = () if cfg.joint_mode == "none" else _joint_outcomes(cfg.n, cfg.joint_mode, cfg.o2)
    if cfg.joint_mode == "global_bell":  # a column tuple each: a zero column has no image (composite._drift)
        sources = [op.apply(y.amps) for op in outcomes]
    else:  # g_k is the identity, or zero on the localized P outcome
        sources = [None, y] if cfg.joint_mode == "localized_bell" else [y]
    del y
    by_outcome = luders_update([z], [op.apply for op in outcomes]) if outcomes else [[z]]
    # P Z: M_P - g_P = P and M_Q - g_Q = -P, so W_Q subtracts its image even where post_o2 prunes it
    p_image = None if cfg.joint_mode != "localized_bell" else by_outcome[0][0].amps if by_outcome[0] else tuple(
        x if x is not None and x.any() else None for x in outcomes[0].apply(z.amps))  # a zero column dropped
    branches, sources = sum(by_outcome, []), [g for g, kept in zip(sources, by_outcome) if kept]
    del z, by_outcome
    yield "post_o2", BranchEnsemble(branches)
    weights = [s.norm ** 2 for s in branches]
    branches.clear()
    less = evolve_positions(propagator(lat, cfg.t2), p_image, None, window) if p_image and any(
        x is not None for x in p_image) else None
    del p_image
    u12 = propagator(lat, cfg.t_total)
    branches = _each(lambda g: less if g is None else evolve_positions(u12, g, less, window), sources)
    del less
    outside = [w - s.norm ** 2 for w, s in zip(weights, branches)] if window != _ALL else []
    yield "pre_detector", BranchEnsemble(branches, outside)
    final = _detector_step(cfg.n, cfg.o3, cfg.detector_mode, branches, cfg.selective_o3, window)
    if outside and (cfg.selective_o3 or cfg.detector_mode == "label2"):  # a hit lies on O3's window, a miss off it
        misses = [] if cfg.selective_o3 else [w for w in outside if w > BRANCH_PRUNE_THRESHOLD]
        final, outside = final + [None] * len(misses), [0.0] * len(final) + misses
    yield "final", BranchEnsemble(final, outside)


def run_scenario(cfg: ScenarioConfig) -> SignalingReport:
    """Run both arms of a scenario and assemble the signaling report.

    The arms run one after the other, each stage freed before the next is
    built, and the kicked arm frees ``psi0`` once its kick is built; BLAS
    parallelizes the drifts itself.  After O2 they hold O3's window alone (module docstring).

    Returns
    -------
    SignalingReport
        ``delta = |p_q1_kick - p_q1_nokick|`` plus the spacelike
        certificate, the O3 arrival probability of the unkicked arm at
        detection time, the worst antisymmetry violation of ``psi0`` and of
        every branch a label-addressed step or a Lueders split builds
        (meaningful for fermion statistics; see :class:`SignalingReport`),
        and the final branch counts.
    """
    lat, psi0 = prepare_scenario(cfg)
    certificate = check_spacelike(lat, cfg.o1, cfg.o3, psi0, cfg.t_total, cfg.eps)
    violation, arrival, p_q1, branch_count, window = 0.0, 0.0, {}, {}, cfg.o3.slice_in(cfg.n, "O3")
    arms = {kicked: _run_arm(cfg, psi0, kicked, window) for kicked in (False, True)}
    del psi0  # from here the arms hold the only references
    for kicked, arm in arms.items():
        # psi0 and the stages built by a step that can change a branch's violation; all other steps commute with S
        checked = {"prepared": not kicked, "post_kick": kicked and cfg.kick_mode == "label1",
                   "post_o2": cfg.joint_mode != "none", "final": cfg.detector_mode == "label2" or cfg.selective_o3}
        for name, ens in arm:
            states = [s for s in ens.branches if s is not None]
            if checked.get(name):
                found = [(antisymmetry_violation(s, window if name == "final" else _ALL, True), s.norm) for s in states]
                violation = max(violation, *(math.sqrt(total) / (2.0 * norm) for total, norm in found))
                last = last if name == "final" else found  # |(I+S) W|^2 and |W| before the detector
            if name == "pre_detector" and not kicked:  # |x|^2 on O3's rows, then its columns, as in the full sums
                n, a, b = cfg.n, window.start, window.stop
                sums = [(p[:, :n].sum(axis=1), np.concatenate((p[:, n:n + a].T, p[:, a:b], p[:, n + a:].T)).sum(axis=0))
                        for p in (sum(np.abs(x) ** 2 for x in s.amps if x is not None) for s in states)]
                arrival = float(sum(rows for rows, _ in sums).sum() + sum(cols for _, cols in sums).sum())
            if name == "pre_detector" and checked["final"] and not cfg.selective_o3:  # the miss Q W of each W
                for total, w, p, hit in [(total, norm ** 2, s.norm ** 2, antisymmetry_violation(s, window, True))
                                         for s, (total, norm) in zip(states, last)]:  # of W, and of P W
                    if w - p > BRANCH_PRUNE_THRESHOLD and hit * w * (1 + 2 ** -48) < total * p:
                        violation = max(violation, math.sqrt((total - hit) / (w - p)) / 2)
            elif name == "final":
                p_q1[kicked], branch_count[kicked] = qubit_one_probability(ens), ens.branch_count
            del ens, states
    return SignalingReport(
        p_q1_kick=p_q1[True],
        p_q1_nokick=p_q1[False],
        delta=abs(p_q1[True] - p_q1[False]),
        arrival_prob=arrival,
        certificate=certificate,
        max_antisym_violation=violation,
        branch_count_kick=branch_count[True],
        branch_count_nokick=branch_count[False],
    )


def default_scenario(**overrides) -> ScenarioConfig:
    """Canonical 96-site geometry used by the demos and the test suite.

    O1 = [8, 20) holds packet 1 at rest; packet 2 starts around site 62
    moving right at the fastest group velocity and reaches O3 = [76, 88)
    after 10 time units, while O1 and O3 stay causally disconnected to
    better than 1e-6 over the whole window.
    """
    base = dict(
        n=96,
        o1=Region(8, 20),
        o2=Region(40, 52),
        o3=Region(76, 88),
        packet1=PacketSpec(support=Region(8, 20), center=14.0, width=3.0, momentum=0.0),
        packet2=PacketSpec(support=Region(50, 74), center=62.0, width=6.0, momentum=float(np.pi / 2)),
        t2=10.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)
