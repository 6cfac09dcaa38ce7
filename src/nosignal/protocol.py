"""Kick, joint spin measurement, and detector coupling on the lattice.

The scenario pipeline is: prepare the two-particle state, optionally kick
spins in region O1, evolve for ``t1``, optionally measure a Bell-type spin
projector (globally or localized to region O2), evolve for ``t2``, couple a
detector qubit in region O3, and read the qubit.  The difference between
the qubit statistics of the kicked and unkicked arms is the signaling
metric: for exchange-symmetric position-localized operations it vanishes
(up to certified leakage), while label-addressed operations make it finite.

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
cols)``, each with an 8x8 map on ``(s1, s2, q)``, validated once when built.
Every region is an interval, so "slot 1 only in R" is the two rectangles
``(R, [0, lo))`` and ``(R, [hi, n))``, "both in R" is ``(R, R)``, and a
global map is ``(all, all)``.  The pipeline applies the maps to the
``(n, n, 8)`` amplitude tensor in CSR mat-vec order: output ``i`` sums
``m[i, j] * x_j`` from zero over the nonzero ``j`` ascending.  Measurements
are pairs ``(P, Q)`` of such operations, and branch through
:func:`nosignal.qcore.luders_update`.  The package builds no sparse matrix;
the test suite checks that amplitudes are bit-identical to the CSR mat-vec
of each operation's matrix.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional

import numpy as np

from . import qcore
from .composite import (
    CompositeSpace,
    Statistics,
    antisymmetry_violation,
    evolve_positions,
    position_occupancy,
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
    PAULI_X,
    SPIN_IDENTITY,
    SPIN_TAG,
    BranchEnsemble,
    LinearOperator,
    StateVector,
    apply,
    luders_measure,
    luders_update,
    tensor_product,
)

QUBIT_TAG = "qubit"
TWO_SPIN_TAG = f"{SPIN_TAG}*{SPIN_TAG}"
SPIN_QUBIT_TAG = f"{SPIN_TAG}*{QUBIT_TAG}"
SPINS_QUBIT_TAG = f"{TWO_SPIN_TAG}*{QUBIT_TAG}"

KICK_MODES = ("off", "position", "label1")
JOINT_MODES = ("none", "global_bell", "localized_bell")
DETECTOR_MODES = ("position", "label2")

STAGES = ("prepared", "post_kick", "post_o2", "final")

MeasurementProcedure = Callable[[BranchEnsemble], BranchEnsemble]


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
        state_bytes = 128 * self.n**2  # one (n, n, 8) complex128 tensor
        memory_bytes = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if state_bytes > memory_bytes:
            raise ValueError(
                f"n={self.n} needs {state_bytes} bytes per state, more than the "
                f"{memory_bytes} bytes of physical memory"
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


@dataclass(frozen=True)
class SignalingReport:
    """Outcome of both arms of a scenario plus the causal-separation evidence."""

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


def bell_projector() -> LinearOperator:
    """Rank-1 projector onto ``(|uu> + |dd>)/sqrt(2)`` on two spins."""
    vec = np.zeros(4, dtype=np.complex128)
    vec[0] = 1.0 / np.sqrt(2.0)  # |dd>
    vec[3] = 1.0 / np.sqrt(2.0)  # |uu>
    return LinearOperator(np.outer(vec, vec.conj()), TWO_SPIN_TAG)


def detector_coupling() -> LinearOperator:
    """Self-inverse unitary on (spin, qubit): ``u0 <-> d1``, fixing ``d0``, ``u1``.

    Basis order is ``2*s + q`` with spin down = 0: the detector absorbs an
    up excitation (``|u 0> -> |d 1>``) and re-emits it in reverse.
    """
    mat = np.zeros((4, 4), dtype=np.complex128)
    mat[0, 0] = 1.0  # d0 -> d0
    mat[1, 2] = 1.0  # u0 -> d1
    mat[2, 1] = 1.0  # d1 -> u0
    mat[3, 3] = 1.0  # u1 -> u1
    return LinearOperator(mat, SPIN_QUBIT_TAG)


def _spin_flip_8(*slots: int) -> np.ndarray:
    """Pauli X on the spins of the listed slots, acting on (s1,s2,q)."""
    x, e = PAULI_X.to_dense(), SPIN_IDENTITY.to_dense()
    return np.kron(np.kron(x if 1 in slots else e, x if 2 in slots else e), e)


def _spin_qubit_map_8(which: int) -> np.ndarray:
    """Detector coupling acting on (s1,s2,q) through slot ``which``'s spin."""
    d = detector_coupling().to_dense().reshape(2, 2, 2, 2)  # (s', q', s, q)
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
    e = np.eye(8, dtype=np.complex128)
    dd0, dd1 = e[0], e[1]
    du0, du1 = e[2], e[3]
    ud0, ud1 = e[4], e[5]
    uu0, uu1 = e[6], e[7]
    plus0 = (ud0 + du0) / np.sqrt(2.0)
    minus0 = (ud0 - du0) / np.sqrt(2.0)
    plus1 = (ud1 + du1) / np.sqrt(2.0)
    minus1 = (ud1 - du1) / np.sqrt(2.0)
    pairs = [
        (dd0, dd0),
        (uu1, uu1),
        (dd1, plus0),
        (plus0, dd1),
        (minus0, minus0),
        (plus1, uu0),
        (uu0, plus1),
        (minus1, minus1),
    ]
    return sum(np.outer(img, src.conj()) for img, src in pairs)


# ---------------------------------------------------------------------------
# position-controlled operations


def _map_8(m: np.ndarray, src: np.ndarray, out: np.ndarray) -> None:
    """Write the 8x8 matrix ``m`` applied to the last axis of ``src`` into ``out``, in CSR order.

    Pass ``k`` adds the ``k``-th nonzero term of every row at once, gathered
    with one ``np.take``.  A row with fewer terms adds coefficient 0, which
    leaves a sum that began at ``+0`` unchanged.
    """
    cols = [np.flatnonzero(row) for row in m]
    for k in range(max(1, *map(len, cols))):
        idx = [c[k] if k < len(c) else 0 for c in cols]
        term = np.take(src, idx, axis=-1)
        term *= [m[i, j] if k < len(c) else 0 for i, (c, j) in enumerate(zip(cols, idx))]
        np.add(out if k else 0, term, out=out)


_ALL = slice(None)


@dataclass(frozen=True, eq=False)
class PairBlocks:
    """An operation diagonal in the positions ``(x1, x2)``.

    It acts by the 8x8 map ``maps[k]`` on the rectangle ``rects[k]`` of the
    ``(n, n, 8)`` amplitude tensor, a pair ``(rows, cols)`` of site slices
    for slot 1 and slot 2, and as the identity (when ``rest_identity``) or
    zero on every pair outside the rectangles, which are disjoint.
    """

    n: int
    rects: tuple
    maps: tuple
    rest_identity: bool

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """The image of the flat ``amps`` as a fresh, writable flat array; the caller freezes it."""
        if self.rects == ((_ALL, _ALL),):
            flat = np.empty_like(amps)
        else:  # ``amps + 0`` turns -0.0 into +0.0, as the CSR sum ``0 + 1 * x`` does.
            flat = amps + 0 if self.rest_identity else np.zeros_like(amps)
        t, out = amps.reshape(self.n, self.n, 8), flat.reshape(self.n, self.n, 8)
        for rect, m in zip(self.rects, self.maps):
            _map_8(m, t[rect], out[rect])
        return flat


def _by_occupant(n: int, region: Region, name: str, only1, only2, both) -> PairBlocks:
    """Unitary acting by ``only1``/``only2``/``both`` as slot 1, slot 2 or both occupy ``region``."""
    r = region.slice_in(n, name)
    rest = (slice(0, r.start), slice(r.stop, n))
    return _unitary_blocks(
        n, [((r, c), only1) for c in rest] + [((c, r), only2) for c in rest] + [((r, r), both)]
    )


def _unitary_blocks(n: int, blocks) -> PairBlocks:
    for _, m in blocks:
        defect = LinearOperator(m, SPINS_QUBIT_TAG).unitarity_defect()
        if defect > UNITARITY_ATOL:
            raise ValueError(f"8x8 map is not unitary: defect {defect:.3e}")
    return PairBlocks(n, *zip(*blocks), rest_identity=True)


def _projective_measurement(n: int, rects, p8: np.ndarray, q8: np.ndarray) -> tuple:
    """``(P, Q)``: ``p8``/``q8`` on the ``rects``, zero/identity elsewhere."""
    qcore.check_projector_family([LinearOperator(p8, SPINS_QUBIT_TAG), LinearOperator(q8, SPINS_QUBIT_TAG)])
    rects = tuple(rects)
    return PairBlocks(n, rects, (p8,) * len(rects), False), PairBlocks(n, rects, (q8,) * len(rects), True)


def _kick_blocks(n: int, o1: Region, mode: str) -> PairBlocks:
    if mode == "position":
        return _by_occupant(n, o1, "O1", _spin_flip_8(1), _spin_flip_8(2), _spin_flip_8(1, 2))
    if mode == "label1":
        return _unitary_blocks(n, [((o1.slice_in(n, "O1"), _ALL), _spin_flip_8(1))])
    raise ValueError(f"kick mode must be position or label1, got {mode!r}")


def _detector_blocks(n: int, o3: Region, mode: str) -> PairBlocks:
    if mode == "label2":  # applied to occupied branches only, which are +0.0 off these rectangles
        return _unitary_blocks(n, [(rect, _spin_qubit_map_8(2)) for rect in _occupied_rects(n, o3)])
    return _by_occupant(n, o3, "O3", _spin_qubit_map_8(1), _spin_qubit_map_8(2), _both_in_region_coupling_8())


def _joint_outcomes(n: int, mode: str, o2: Optional[Region]) -> tuple:
    if mode == "global_bell":
        rect = (_ALL, _ALL)
    elif o2 is None:
        raise ValueError("localized_bell needs an O2 region")
    else:
        r = o2.slice_in(n, "O2")
        rect = (r, r)
    p8 = np.kron(bell_projector().to_dense(), SPIN_IDENTITY.to_dense())
    return _projective_measurement(n, [rect], p8, np.eye(8) - p8)


def _occupied_rects(n: int, o3: Region) -> list:
    """The disjoint rectangles of the pairs with a particle in O3."""
    r = o3.slice_in(n, "O3")
    return [(r, _ALL), (slice(0, r.start), r), (slice(r.stop, n), r)]


def _occupancy_outcomes(n: int, o3: Region) -> tuple:
    """``(P, Q)``: the projector onto the pairs with a particle in O3, and its complement."""
    return _projective_measurement(n, _occupied_rects(n, o3), np.eye(8), np.zeros((8, 8)))


# ---------------------------------------------------------------------------
# measurement procedures


def _each(f: Callable[[StateVector], StateVector], ens: BranchEnsemble) -> BranchEnsemble:
    """``ens`` with ``f`` applied to the state of every branch."""
    return BranchEnsemble(tuple((w, f(s)) for w, s in ens.branches))


def _applied(op: PairBlocks, state: StateVector) -> StateVector:
    return StateVector(qcore.freeze(op.apply(state.amps)), state.basis_tag)


def _branches(outcomes: tuple, ens: BranchEnsemble) -> tuple:
    """Lueders branches of ``ens`` on the ``PairBlocks`` projectors ``outcomes``, outcome by outcome."""
    return luders_update(ens, lambda amps: (op.apply(amps) for op in outcomes))


def detector_measurement(
    space: CompositeSpace,
    o3: Region,
    mode: str,
    selective: bool = False,
) -> MeasurementProcedure:
    """Measurement procedure for the detector stage.

    ``position`` mode applies the exchange-symmetric position-controlled
    coupling unitary; with ``selective`` true it then branches on the O3
    occupancy projector and keeps only the occupied outcome (renormalized).
    ``label2`` mode is the label-addressed procedure: branch on O3 occupancy
    and apply the coupling to particle slot 2's spin on the occupied branch
    regardless of which particle actually sits in O3.  It is not exchange
    symmetric and breaks the antisymmetry of fermionic states.

    Branching is the Lueders update on the occupancy projectors ``(P, Q)``:
    the occupied branches come first, then the unoccupied ones, each in the
    order of the input branches.

    Returns
    -------
    callable
        Maps a :class:`BranchEnsemble` to the post-measurement ensemble.
    """
    if mode not in DETECTOR_MODES:
        raise ValueError(f"detector mode must be one of {DETECTOR_MODES}, got {mode!r}")
    coupling = _detector_blocks(space.n_sites, o3, mode)
    occupancy = _occupancy_outcomes(space.n_sites, o3)

    def procedure(ens: BranchEnsemble) -> BranchEnsemble:
        if mode == "position":
            ens = _each(lambda s: _applied(coupling, s), ens)
            if not selective:
                return ens
        hits, misses = map(list, _branches(occupancy, ens))
        if mode == "label2":  # on the normalized branch: normalizing after the coupling rounds differently
            for k, (w, s) in enumerate(hits):  # each hit is freed once its coupled state is built
                hits[k] = (w, _applied(coupling, s))
        if not selective:
            return BranchEnsemble(hits + misses)
        total = sum(w for w, _ in hits)
        if total <= 1e-12:
            raise ValueError("selective detection post-selected on an empty outcome")
        return BranchEnsemble(tuple((w / total, s) for w, s in hits))

    return procedure


def joint_measurement(
    space: CompositeSpace,
    mode: str,
    o2: Optional[Region] = None,
) -> MeasurementProcedure:
    """Measurement procedure for the O2 stage (non-selective).

    ``global_bell`` branches on the Bell-direction spin projector applied to
    the spins wherever the particles are; ``localized_bell`` applies it only
    on the sector where both particles occupy O2 (the projector is the
    product of the two position projectors and the spin projector, which all
    commute).  ``none`` returns the ensemble unchanged.
    """
    if mode not in JOINT_MODES:
        raise ValueError(f"joint mode must be one of {JOINT_MODES}, got {mode!r}")
    if mode == "none":
        return lambda ens: ens
    outcomes = _joint_outcomes(space.n_sites, mode, o2)

    def procedure(ens: BranchEnsemble) -> BranchEnsemble:
        return BranchEnsemble(sum(_branches(outcomes, ens), ()))

    return procedure


# ---------------------------------------------------------------------------
# pipelines


def run_naive_sorkin(observable: LinearOperator, kick: bool) -> float:
    """Two-spin pipeline with label addressing and no notion of position.

    Starts from ``|dd>``, optionally flips spin 1, measures the Bell-direction
    projector non-selectively, and returns the expectation of ``observable``
    on spin 2.  Reproduces the closed forms ``tr(C)/2`` (no kick) and
    ``<d|C|d>`` (kick): the kick at one site changes the statistics at the
    other, which is the signaling this package exists to dissect.
    """
    if observable.dim != 2 or observable.basis_tag != SPIN_TAG:
        raise ValueError("observable must be a single-spin operator")
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = 1.0  # |dd>
    state = StateVector(amps, TWO_SPIN_TAG)
    if kick:
        state = apply(tensor_product(PAULI_X, SPIN_IDENTITY), state)
    pb = bell_projector()
    ens = luders_measure([pb, qcore.identity(4, TWO_SPIN_TAG) - pb], state)
    return qcore.expectation(tensor_product(SPIN_IDENTITY, observable), ens)


def qubit_one_probability(ens: BranchEnsemble) -> float:
    """Probability that the detector qubit reads 1 (qubit is the fastest index)."""
    total = 0.0
    for w, state in ens.branches:
        total += w * float(np.sum(np.abs(state.amps[1::2]) ** 2))
    return total


def run_arm_stages(cfg: ScenarioConfig, kicked: bool) -> Mapping[str, BranchEnsemble]:
    """Run one arm of a scenario and return the four stage snapshots.

    Stages: ``prepared`` (initial state), ``post_kick`` (after the optional
    O1 kick, before any evolution), ``post_o2`` (after the t1 evolution and
    the joint measurement), ``final`` (after the t2 evolution and the
    detector measurement).
    """
    lat, space, psi0 = prepare_scenario(cfg)
    arm = _run_arm(cfg, space, psi0, propagator(lat, cfg.t1), propagator(lat, cfg.t2), kicked)
    return {name: ens for name, ens in arm if name in STAGES}


def prepare_scenario(cfg: ScenarioConfig):
    """Build the lattice, composite space, and initial state of a scenario."""
    lat = make_lattice(cfg.n, cfg.hopping)
    space = CompositeSpace(cfg.n)
    p1 = wavepacket(lat, cfg.packet1.support, cfg.packet1.center, cfg.packet1.width, cfg.packet1.momentum)
    p2 = wavepacket(lat, cfg.packet2.support, cfg.packet2.center, cfg.packet2.width, cfg.packet2.momentum)
    psi0 = prepare_initial(space, cfg.statistics, p1, p2)
    return lat, space, psi0


def _run_arm(
    cfg: ScenarioConfig,
    space: CompositeSpace,
    psi0: StateVector,
    u1: LinearOperator,
    u2: LinearOperator,
    kicked: bool,
) -> Iterator[tuple]:
    """Run one arm, yielding ``(name, ensemble)`` per stage as it is built.

    The stages are the four of ``STAGES`` and ``pre_detector``, after the t2
    evolution.  The arm holds only the stage it is working on: a consumer
    that drops each stage before asking for the next frees it.
    """
    ens = BranchEnsemble.pure(psi0)
    yield "prepared", ens
    if kicked and cfg.kick_mode != "off":
        kick = _kick_blocks(cfg.n, cfg.o1, cfg.kick_mode)
        ens = _each(lambda s: _applied(kick, s), ens)
    yield "post_kick", ens
    ens = _each(lambda s: evolve_positions(space, u1, s), ens)
    ens = joint_measurement(space, cfg.joint_mode, cfg.o2)(ens)
    yield "post_o2", ens
    ens = _each(lambda s: evolve_positions(space, u2, s), ens)
    yield "pre_detector", ens
    ens = detector_measurement(space, cfg.o3, cfg.detector_mode, cfg.selective_o3)(ens)
    yield "final", ens


def run_scenario(cfg: ScenarioConfig) -> SignalingReport:
    """Run both arms of a scenario and assemble the signaling report.

    The arms run one after the other, each stage freed before the next is
    built; BLAS parallelizes the drifts itself.

    Returns
    -------
    SignalingReport
        ``delta = |p_q1_kick - p_q1_nokick|`` plus the spacelike
        certificate, the O3 arrival probability of the unkicked arm at
        detection time, the worst antisymmetry violation seen in any branch
        of either arm (meaningful for fermion statistics), and the final
        branch counts.
    """
    lat, space, psi0 = prepare_scenario(cfg)
    certificate = check_spacelike(lat, cfg.o1, cfg.o3, psi0, cfg.t_total, cfg.eps)
    u1, u2 = propagator(lat, cfg.t1), propagator(lat, cfg.t2)
    violation, arrival, p_q1, branch_count = antisymmetry_violation(psi0), 0.0, {}, {}
    for kicked in (False, True):
        for name, ens in _run_arm(cfg, space, psi0, u1, u2, kicked):
            if ens.branches[0][1] is not psi0:  # psi0's own violation is taken once, above
                violation = max(violation, *(antisymmetry_violation(s) for _, s in ens.branches))
            if name == "pre_detector" and not kicked:
                occ1, occ2 = position_occupancy(space, ens)
                arrival = float(occ1[cfg.o3.lo:cfg.o3.hi].sum() + occ2[cfg.o3.lo:cfg.o3.hi].sum())
            elif name == "final":
                p_q1[kicked], branch_count[kicked] = qubit_one_probability(ens), ens.branch_count
            del ens
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
