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
:class:`PairBlocks` of position-pair masks with 8x8 maps on ``(s1, s2, q)``,
validated once when built.  The pipeline applies it to the ``(n*n, 8)``
amplitude tensor in CSR mat-vec order (output ``i`` sums ``m[i, j] * x_j``
from zero over the nonzero ``j`` ascending), so amplitudes are bit-identical
to the sparse matrix that ``kick_operator`` and friends materialize.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np
import scipy.sparse as sp

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


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one signaling experiment (both arms)."""

    n: int
    o1: Region
    o3: Region
    packet1: PacketSpec
    packet2: PacketSpec
    t2: float
    hopping: float = 1.0
    o2: Optional[Region] = None
    statistics: str = "fermion"
    kick_mode: str = "position"
    joint_mode: str = "none"
    detector_mode: str = "position"
    t1: float = 0.0
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
            if region.hi > self.n:
                raise ValueError(f"{name} [{region.lo}, {region.hi}) exceeds the {self.n}-site lattice")
        if self.o1.overlaps(self.o3):
            raise ValueError(
                f"O1, O3 disjoint violated: O1=[{self.o1.lo}, {self.o1.hi}) overlaps "
                f"O3=[{self.o3.lo}, {self.o3.hi})"
            )
        Statistics(self.statistics)
        object.__setattr__(self, "statistics", str(Statistics(self.statistics).value))
        if self.kick_mode not in KICK_MODES:
            raise ValueError(f"kick_mode must be one of {KICK_MODES}, got {self.kick_mode!r}")
        if self.joint_mode not in JOINT_MODES:
            raise ValueError(f"joint_mode must be one of {JOINT_MODES}, got {self.joint_mode!r}")
        if self.detector_mode not in DETECTOR_MODES:
            raise ValueError(f"detector_mode must be one of {DETECTOR_MODES}, got {self.detector_mode!r}")
        if self.joint_mode == "localized_bell":
            if self.o2 is None:
                raise ValueError("joint_mode localized_bell requires an O2 region")
            if not isinstance(self.o2, Region) or self.o2.hi > self.n:
                raise ValueError("O2 must be a region inside the lattice")
        elif self.o2 is not None and (not isinstance(self.o2, Region) or self.o2.hi > self.n):
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


def signaling_delta(report: SignalingReport) -> float:
    """Absolute difference of the detector-qubit excitation probabilities."""
    return abs(report.p_q1_kick - report.p_q1_nokick)


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


def _map_8(m: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Apply the 8x8 matrix ``m`` to each row of ``src``, summing in CSR order."""
    out = np.zeros_like(src)
    for i, j in zip(*np.nonzero(m)):  # row-major: ascending j within each row
        out[:, i] += m[i, j] * src[:, j]
    return out


@dataclass(frozen=True, eq=False)
class PairBlocks:
    """An operation diagonal in the positions ``(x1, x2)``.

    It acts by the 8x8 map ``maps[k]`` on the pairs selected by ``masks[k]``
    (disjoint boolean masks over the ``n*n`` pairs, or ``slice(None)`` for
    all of them), and as the identity (when ``rest_identity``) or zero on
    every other pair.
    """

    n: int
    masks: tuple
    maps: tuple
    rest_identity: bool

    def apply(self, amps: np.ndarray) -> np.ndarray:
        t = amps.reshape(self.n * self.n, 8)
        # ``t + 0`` turns -0.0 into +0.0, as the CSR sum ``0 + 1 * x`` does.
        out = t + 0 if self.rest_identity else np.zeros_like(t)
        for mask, m in zip(self.masks, self.maps):
            out[mask] = _map_8(m, t[mask])
        return qcore.freeze(out).reshape(-1)

    def operator(self) -> LinearOperator:
        """The same operation as a CSR matrix, whose mat-vec sums as ``apply`` does."""
        diags = []
        for mask in self.masks:
            diags.append(np.zeros(self.n * self.n))
            diags[-1][mask] = 1.0
        blocks = list(zip(diags, self.maps))
        if self.rest_identity:
            blocks.append((1.0 - sum(diags), np.eye(8)))
        mat = sum(sp.kron(sp.diags_array(d), sp.csr_array(m), format="csr") for d, m in blocks)
        return LinearOperator(mat, CompositeSpace(self.n).basis_tag)


def _inside(n: int, region: Region, name: str) -> np.ndarray:
    if region.hi > n:
        raise ValueError(f"{name} [{region.lo}, {region.hi}) exceeds the {n}-site lattice")
    inside = np.zeros(n, dtype=bool)
    inside[region.lo:region.hi] = True
    return inside


def _by_occupant(n: int, region: Region, name: str, only1, only2, both) -> PairBlocks:
    """Unitary acting by ``only1``/``only2``/``both`` as slot 1, slot 2 or both occupy ``region``."""
    inside = _inside(n, region, name)
    return _unitary_blocks(n, [
        (np.outer(inside, ~inside).ravel(), only1),
        (np.outer(~inside, inside).ravel(), only2),
        (np.outer(inside, inside).ravel(), both),
    ])


def _unitary_blocks(n: int, blocks) -> PairBlocks:
    for _, m in blocks:
        defect = LinearOperator(m, SPINS_QUBIT_TAG).unitarity_defect()
        if defect > UNITARITY_ATOL:
            raise ValueError(f"8x8 map is not unitary: defect {defect:.3e}")
    return PairBlocks(n, *zip(*blocks), rest_identity=True)


def _projective_measurement(n: int, mask, p8: np.ndarray, q8: np.ndarray) -> tuple:
    """``(P, Q)``: ``p8``/``q8`` on the ``mask`` pairs, zero/identity elsewhere."""
    qcore.check_projector_family([LinearOperator(p8, SPINS_QUBIT_TAG), LinearOperator(q8, SPINS_QUBIT_TAG)])
    return PairBlocks(n, (mask,), (p8,), False), PairBlocks(n, (mask,), (q8,), True)


def _kick_blocks(n: int, o1: Region, mode: str) -> PairBlocks:
    if mode == "position":
        return _by_occupant(n, o1, "O1", _spin_flip_8(1), _spin_flip_8(2), _spin_flip_8(1, 2))
    if mode == "label1":
        return _unitary_blocks(n, [(np.repeat(_inside(n, o1, "O1"), n), _spin_flip_8(1))])
    raise ValueError(f"kick mode must be position or label1, got {mode!r}")


def _detector_blocks(n: int, o3: Region, mode: str) -> PairBlocks:
    if mode == "label2":
        return _unitary_blocks(n, [(slice(None), _spin_qubit_map_8(2))])
    return _by_occupant(n, o3, "O3", _spin_qubit_map_8(1), _spin_qubit_map_8(2), _both_in_region_coupling_8())


def _joint_outcomes(n: int, mode: str, o2: Optional[Region]) -> tuple:
    if mode == "global_bell":
        mask = slice(None)
    elif o2 is None:
        raise ValueError("localized_bell needs an O2 region")
    else:
        in2 = _inside(n, o2, "O2")
        mask = np.outer(in2, in2).ravel()
    p8 = np.kron(bell_projector().to_dense(), SPIN_IDENTITY.to_dense())
    return _projective_measurement(n, mask, p8, np.eye(8) - p8)


def _occupied_pairs(n: int, region: Region) -> np.ndarray:
    inside = _inside(n, region, "region")
    return (inside[:, None] | inside[None, :]).ravel()


def kick_operator(space: CompositeSpace, o1: Region, mode: str) -> LinearOperator:
    """Spin-flip operation localized in O1.

    ``position`` mode flips the spin of whichever particle occupies O1
    (both, if both do); it is a unitary, exchange-symmetric operator.
    ``label1`` mode flips the spin of particle slot 1 only (conditioned on
    that slot's position being in O1) and is not exchange symmetric.
    """
    return _kick_blocks(space.n_sites, o1, mode).operator()


def occupancy_projector(space: CompositeSpace, region: Region) -> LinearOperator:
    """Projector onto states with at least one particle in ``region``.

    Equal to ``P1 + P2 - P1 P2`` for the two lifted position projectors;
    diagonal with exact 0/1 entries, and exchange symmetric.
    """
    return PairBlocks(space.n_sites, (_occupied_pairs(space.n_sites, region),), (np.eye(8),), False).operator()


def position_detector_unitary(space: CompositeSpace, o3: Region) -> LinearOperator:
    """Position-controlled detector coupling: exchange-symmetric unitary.

    Applies the (spin, qubit) coupling to whichever particle occupies O3;
    sectors where both particles occupy O3 use the symmetric two-particle
    convention of :func:`_both_in_region_coupling_8`.
    """
    return _detector_blocks(space.n_sites, o3, "position").operator()


# ---------------------------------------------------------------------------
# measurement procedures


def _apply_each(op: PairBlocks, ens: BranchEnsemble) -> BranchEnsemble:
    return BranchEnsemble(tuple((w, StateVector(op.apply(s.amps), s.basis_tag)) for w, s in ens.branches))


def _split_on_occupancy(
    ens: BranchEnsemble,
    occupied: np.ndarray,
    post_hit: Optional[PairBlocks],
    selective: bool,
) -> BranchEnsemble:
    """Branch every ensemble member on the projector onto the ``occupied`` pairs.

    ``post_hit`` (a unitary) is applied to the projected branch.  With
    ``selective`` true only the projected branches survive, renormalized
    over the surviving weight.
    """
    hits = []
    misses = []
    for w, state in ens.branches:
        base = float(np.vdot(state.amps, state.amps).real)
        inside = (state.amps.reshape(occupied.size, 8) * occupied[:, None]).reshape(-1)
        outside = state.amps - inside
        p_in = float(np.vdot(inside, inside).real) / base
        p_out = float(np.vdot(outside, outside).real) / base
        if w * p_in > qcore.BRANCH_PRUNE_THRESHOLD:
            hit = qcore.freeze(inside / np.linalg.norm(inside))
            if post_hit is not None:
                hit = post_hit.apply(hit)
            hits.append((w * p_in, StateVector(hit, state.basis_tag)))
        if not selective and w * p_out > qcore.BRANCH_PRUNE_THRESHOLD:
            misses.append((w * p_out, StateVector(qcore.freeze(outside / np.linalg.norm(outside)), state.basis_tag)))
    if selective:
        total = sum(w for w, _ in hits)
        if total <= 1e-12:
            raise ValueError("selective detection post-selected on an empty outcome")
        hits = [(w / total, s) for w, s in hits]
        return BranchEnsemble(tuple(hits))
    return BranchEnsemble(tuple(hits + misses))


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

    Returns
    -------
    callable
        Maps a :class:`BranchEnsemble` to the post-measurement ensemble.
    """
    if mode not in DETECTOR_MODES:
        raise ValueError(f"detector mode must be one of {DETECTOR_MODES}, got {mode!r}")
    occupied = _occupied_pairs(space.n_sites, o3)
    coupling = _detector_blocks(space.n_sites, o3, mode)

    def procedure(ens: BranchEnsemble) -> BranchEnsemble:
        if mode == "label2":
            return _split_on_occupancy(ens, occupied, coupling, selective)
        moved = _apply_each(coupling, ens)
        return _split_on_occupancy(moved, occupied, None, True) if selective else moved

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
        return luders_update(ens, lambda amps: (op.apply(amps) for op in outcomes))

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


@dataclass(frozen=True)
class _ArmResult:
    stages: Mapping[str, BranchEnsemble]
    p_q1: float
    arrival: float
    max_violation: float


def qubit_one_probability(ens: BranchEnsemble) -> float:
    """Probability that the detector qubit reads 1 (qubit is the fastest index)."""
    total = 0.0
    for w, state in ens.branches:
        total += w * float(np.sum(np.abs(state.amps[1::2]) ** 2))
    return total


def _max_violation(ens: BranchEnsemble) -> float:
    return max(antisymmetry_violation(state) for _, state in ens.branches)


def _evolve_ensemble(space: CompositeSpace, u: LinearOperator, ens: BranchEnsemble) -> BranchEnsemble:
    return BranchEnsemble(tuple((w, evolve_positions(space, u, s)) for w, s in ens.branches))


def run_arm_stages(cfg: ScenarioConfig, kicked: bool) -> Mapping[str, BranchEnsemble]:
    """Run one arm of a scenario and return the four stage snapshots.

    Stages: ``prepared`` (initial state), ``post_kick`` (after the optional
    O1 kick, before any evolution), ``post_o2`` (after the t1 evolution and
    the joint measurement), ``final`` (after the t2 evolution and the
    detector measurement).
    """
    lat, space, psi0 = prepare_scenario(cfg)
    u1, u2 = propagator(lat, cfg.t1), propagator(lat, cfg.t2)
    return _run_arm(cfg, space, psi0, u1, u2, kicked, antisymmetry_violation(psi0)).stages


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
    prepared_violation: float,
) -> _ArmResult:
    stages = {}
    ens = BranchEnsemble.pure(psi0)
    stages["prepared"] = ens
    if kicked and cfg.kick_mode != "off":
        ens = _apply_each(_kick_blocks(cfg.n, cfg.o1, cfg.kick_mode), ens)
    stages["post_kick"] = ens
    ens = _evolve_ensemble(space, u1, ens)
    ens = joint_measurement(space, cfg.joint_mode, cfg.o2)(ens)
    stages["post_o2"] = ens
    ens = _evolve_ensemble(space, u2, ens)
    occ1, occ2 = position_occupancy(space, ens)
    arrival = float(occ1[cfg.o3.lo:cfg.o3.hi].sum() + occ2[cfg.o3.lo:cfg.o3.hi].sum())
    pre_detector_violation = _max_violation(ens)
    ens = detector_measurement(space, cfg.o3, cfg.detector_mode, cfg.selective_o3)(ens)
    stages["final"] = ens
    # ``psi0``'s violation comes precomputed; an unkicked post_kick stage is psi0.
    later = [stages[name] for name in STAGES[1:] if stages[name] is not stages["prepared"]]
    return _ArmResult(
        stages=stages,
        p_q1=qubit_one_probability(ens),
        arrival=arrival,
        max_violation=max(prepared_violation, pre_detector_violation, *map(_max_violation, later)),
    )


def run_scenario(cfg: ScenarioConfig) -> SignalingReport:
    """Run both arms of a scenario and assemble the signaling report.

    The arms run one after the other; BLAS parallelizes the drifts itself.

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
    shared = (cfg, space, psi0, propagator(lat, cfg.t1), propagator(lat, cfg.t2))
    prepared_violation = antisymmetry_violation(psi0)
    arm_nokick = _run_arm(*shared, False, prepared_violation)
    arm_kick = _run_arm(*shared, True, prepared_violation)
    return SignalingReport(
        p_q1_kick=arm_kick.p_q1,
        p_q1_nokick=arm_nokick.p_q1,
        delta=abs(arm_kick.p_q1 - arm_nokick.p_q1),
        arrival_prob=arm_nokick.arrival,
        certificate=certificate,
        max_antisym_violation=max(arm_kick.max_violation, arm_nokick.max_violation),
        branch_count_kick=arm_kick.stages["final"].branch_count,
        branch_count_nokick=arm_nokick.stages["final"].branch_count,
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
        hopping=1.0,
        o1=Region(8, 20),
        o2=Region(40, 52),
        o3=Region(76, 88),
        packet1=PacketSpec(support=Region(8, 20), center=14.0, width=3.0, momentum=0.0),
        packet2=PacketSpec(support=Region(50, 74), center=62.0, width=6.0, momentum=float(np.pi / 2)),
        statistics="fermion",
        kick_mode="position",
        joint_mode="none",
        detector_mode="position",
        t1=0.0,
        t2=10.0,
        eps=1e-6,
        selective_o3=False,
    )
    base.update(overrides)
    return ScenarioConfig(**base)
