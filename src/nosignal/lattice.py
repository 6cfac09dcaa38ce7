"""One-dimensional hard-wall lattice: Hamiltonian, propagators, wavepackets.

Units: hbar = 1 and lattice spacing = 1, so times are in units of inverse
hopping and the effective signal velocity is bounded by ``2 * hopping``
sites per unit time (the maximum group velocity of the dispersion
``E(k) = 2J (1 - cos k)``).

Spacelike separation of two regions is certified rather than assumed:
:func:`check_spacelike` bounds the propagator leakage between the regions
for every time of the protocol with the closed-form light-cone bound of
:func:`light_cone_bound`, bounds the initial joint occupancy of each
region, and packages the outcome as a :class:`SpacelikeCertificate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .composite import _sites, joint_position_probability
from .qcore import StateVector, freeze

UNITARITY_ATOL = 1e-12

# Smallest positive double: the floor of a light-cone bound at t > 0.
_TINY = math.ulp(0.0)


@dataclass(frozen=True)
class Lattice1D:
    """Hard-wall chain of ``n_sites`` sites with hopping amplitude ``hopping``."""

    n_sites: int
    hopping: float

    def __post_init__(self):
        if int(self.n_sites) != self.n_sites or self.n_sites < 8:
            raise ValueError(f"lattice needs at least 8 sites, got {self.n_sites}")
        if not (self.hopping > 0.0) or not math.isfinite(self.hopping):
            raise ValueError(f"hopping must be positive and finite, got {self.hopping}")
        object.__setattr__(self, "n_sites", int(self.n_sites))
        object.__setattr__(self, "hopping", float(self.hopping))


@dataclass(frozen=True)
class Region:
    """Half-open site interval ``[lo, hi)``."""

    lo: int
    hi: int

    def __post_init__(self):
        if int(self.lo) != self.lo or int(self.hi) != self.hi:
            raise ValueError("region bounds must be integers")
        object.__setattr__(self, "lo", int(self.lo))
        object.__setattr__(self, "hi", int(self.hi))
        if self.lo < 0 or self.hi <= self.lo:
            raise ValueError(f"region needs 0 <= lo < hi, got [{self.lo}, {self.hi})")

    @property
    def width(self) -> int:
        return self.hi - self.lo

    def sites(self) -> np.ndarray:
        return np.arange(self.lo, self.hi)

    def overlaps(self, other: "Region") -> bool:
        return self.lo < other.hi and other.lo < self.hi

    def slice_in(self, n: int, name: str) -> slice:
        """The sites as a slice of an ``n``-site lattice; past the lattice is an error, not clipped."""
        if self.hi > n:
            raise ValueError(f"{name} [{self.lo}, {self.hi}) exceeds the {n}-site lattice")
        return slice(self.lo, self.hi)


@dataclass(frozen=True)
class SpacelikeCertificate:
    """Evidence that two regions cannot influence each other.

    ``leak_13`` / ``leak_31`` are upper bounds on the propagator leakage
    from O1 into O3 and back that hold for every time from 0 to the total
    protocol time: :func:`light_cone_bound` at the total time, the same
    number for both directions.  ``overlap_O1`` / ``overlap_O3`` are
    the joint two-particle occupancies of each region in the initial state.
    The verdict :attr:`passed` is computed from these numbers, never stored.
    """

    epsilon: float
    leak_13: float
    leak_31: float
    overlap_O1: float
    overlap_O3: float

    def __post_init__(self):
        for name in ("epsilon", "leak_13", "leak_31", "overlap_O1", "overlap_O3"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"certificate field {name} must be finite and >= 0, got {v}")
            object.__setattr__(self, name, v)

    @property
    def passed(self) -> bool:
        """Whether all four numbers are <= ``epsilon``; it serializes under the key ``"pass"``."""
        return max(self.leak_13, self.leak_31, self.overlap_O1, self.overlap_O3) <= self.epsilon


def make_lattice(n_sites: int, hopping: float) -> Lattice1D:
    """Construct a validated hard-wall lattice."""
    return Lattice1D(n_sites, hopping)


def hamiltonian(lat: Lattice1D) -> np.ndarray:
    """Single-particle hopping Hamiltonian with hard-wall ends.

    ``H[i, i] = 2 J`` and ``H[i, i +- 1] = -J``; the constant shift keeps
    the spectrum inside ``[0, 4J]``.
    """
    n, j = lat.n_sites, lat.hopping
    mat = np.zeros((n, n), dtype=np.complex128)
    np.fill_diagonal(mat, 2.0 * j)
    idx = np.arange(n - 1)
    mat[idx, idx + 1] = -j
    mat[idx + 1, idx] = -j
    return mat


@lru_cache(maxsize=32)
def _eigensystem(lat: Lattice1D):
    evals, evecs = np.linalg.eigh(hamiltonian(lat))
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


@lru_cache(maxsize=4)
def propagator(lat: Lattice1D, t: float) -> np.ndarray:
    """Time evolution ``U_t = exp(-i H t)`` via full eigendecomposition, cached per ``(lat, t)``.

    Parameters
    ----------
    lat : Lattice1D
    t : float
        Evolution time, ``t >= 0``.

    Returns
    -------
    np.ndarray
        ``n x n``, unitary to within ``UNITARITY_ATOL`` (guaranteed by
        construction from an orthonormal eigenbasis; checked by the test
        suite), and read-only, so every arm and scenario on one geometry
        shares it.
    """
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"propagator time must be finite and >= 0, got {t}")
    if t == 0.0:
        # Exact identity instead of the ~1e-16 eigh reconstruction residue.
        return freeze(np.eye(lat.n_sites, dtype=np.complex128))
    evals, evecs = _eigensystem(lat)
    phases = np.exp(-1j * evals * t)
    # The copy is deliberate: freezing the product in place raised the peak RSS
    # of an n = 288 scenario by 8%, likely through the heap layout under the
    # allocator thresholds that ``prepare_scenario`` sets.
    return freeze(np.array((evecs * phases) @ evecs.conj().T))


def wavepacket(lat: Lattice1D, support: Region, center: float, width: float, momentum: float) -> StateVector:
    """Normalized raised-cosine wavepacket with compact support.

    The envelope is ``(1 + cos(pi (x - center) / width)) / 2`` for
    ``|x - center| <= width`` and identically zero elsewhere, multiplied by
    the plane-wave phase ``exp(i * momentum * x)``.  A packet built this way
    moves with group velocity close to ``2 J sin(momentum)``.

    Parameters
    ----------
    lat : Lattice1D
    support : Region
        Sites allowed to carry amplitude; the envelope must fit inside.
    center : float
        Envelope center (need not be an integer site).
    width : float
        Envelope half-width; required to satisfy ``width <= support.width / 4``.
    momentum : float
        Carrier momentum in radians per site.

    Returns
    -------
    StateVector
        Unit-norm single-particle state, exactly zero outside ``support``.
    """
    support.slice_in(lat.n_sites, "packet support")
    center = float(center)
    width = float(width)
    momentum = float(momentum)
    if not (width > 0.0) or not math.isfinite(width):
        raise ValueError(f"packet width must be positive, got {width}")
    if width > support.width / 4.0:
        raise ValueError(
            f"packet width {width} exceeds a quarter of its support width {support.width}"
        )
    if center - width < support.lo or center + width > support.hi - 1:
        raise ValueError(
            f"packet envelope [{center - width}, {center + width}] does not fit inside "
            f"support sites [{support.lo}, {support.hi - 1}]"
        )
    x = np.arange(lat.n_sites)
    inside = np.abs(x - center) <= width
    envelope = np.where(inside, 0.5 * (1.0 + np.cos(np.pi * (x - center) / width)), 0.0)
    amps = envelope * np.exp(1j * momentum * x)
    state = StateVector(amps)
    return state.normalized()


def leakage(lat: Lattice1D, src: Region, dst: Region, t: float) -> float:
    """Amplitude transfer ``|P_dst U_t P_src|_2`` (spectral norm) at one time.

    The largest singular value of the block of :func:`propagator` mapping
    ``src`` amplitudes into ``dst``, by full SVD.  Far outside the light
    cone this reads the ~1e-15 roundoff of the eigendecomposition, not the
    true block norm; :func:`light_cone_bound` is the rigorous bound.
    """
    cols = src.slice_in(lat.n_sites, "src")
    rows = dst.slice_in(lat.n_sites, "dst")
    block = propagator(lat, t)[rows, cols]
    return float(np.linalg.svd(block, compute_uv=False)[0])


def light_cone_bound(lat: Lattice1D, src: Region, dst: Region, t: float) -> float:
    """Upper bound on ``|P_dst U_s P_src|_2`` for every time ``0 <= s <= t``.

    With ``H = 2J - J A`` (``A`` the adjacency matrix of the path),
    ``|U_t(x, y)|`` is at most the sum of ``(J t)^k / k!`` over the walks
    of length ``k`` from ``x`` to ``y``.  Walks on the path are a subset of
    walks on the integers, whose sum is the modified Bessel function
    ``I_d(2 J t)``, ``d = |x - y|`` (the free-particle Lieb-Robinson bound).
    With ``z = J t`` and ``d! / (d + m)! <= (d + 1)^-m``,

        |U_t(x, y)| <= I_d(2 z) <= z^d / d! * exp(z^2 / (d + 1)).

    Each entry bound is clipped at 1, and the block's spectral norm is
    bounded by its Frobenius norm, so the result is
    ``min(1, sqrt(sum of squared entry bounds))``.  It is computed in log
    space over the distinct distances and increases with ``t``, so its
    value at ``t`` covers every earlier time.  At ``t = 0`` it is exactly 0
    for disjoint regions; for ``t > 0`` it is never below the smallest
    positive double, so an underflow still gives an upper bound.
    """
    src.slice_in(lat.n_sites, "src")
    dst.slice_in(lat.n_sites, "dst")
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise ValueError(f"bound time must be finite and >= 0, got {t}")
    # pairs[d] = number of (x, y) in src x dst with |x - y| = d
    pairs = np.bincount(np.abs(np.subtract.outer(dst.sites(), src.sites())).ravel())
    z = lat.hopping * t
    log_z = math.log(z) if z > 0.0 else -math.inf
    # log of (pairs at distance d) * (entry bound)^2, for each distance d
    terms = []
    for d in np.flatnonzero(pairs).tolist():
        log_entry = (d * log_z if d else 0.0) - math.lgamma(d + 1) + z * z / (d + 1)
        terms.append(math.log(pairs[d]) + 2.0 * min(log_entry, 0.0))
    top = max(terms)
    bound = 0.0
    if top > -math.inf:
        log_sum = top + math.log(math.fsum(math.exp(v - top) for v in terms))
        bound = min(1.0, math.exp(0.5 * log_sum))
    return bound if t == 0.0 else max(bound, _TINY)


def check_spacelike(
    lat: Lattice1D,
    o1: Region,
    o3: Region,
    psi: StateVector,
    t_total: float,
    eps: float,
) -> SpacelikeCertificate:
    """Certify that two regions stay causally disconnected for a protocol.

    Two conditions are bounded: single-particle propagator leakage between
    the regions for every time in ``[0, t_total]``, in both directions, by
    :func:`light_cone_bound` at ``t_total`` (symmetric in the two regions,
    so ``leak_13 == leak_31``); and joint occupancy of each region by both
    particles of the initial two-particle state ``psi``.

    Parameters
    ----------
    lat : Lattice1D
    o1, o3 : Region
        The two regions to certify against each other.
    psi : StateVector
        Initial two-particle column state on this lattice (see
        ``composite``); a state of another lattice size raises ``ValueError``.
    t_total : float
        Total protocol duration to cover.
    eps : float
        Certification threshold applied to all four bounds.

    Returns
    -------
    SpacelikeCertificate
    """
    o1.slice_in(lat.n_sites, "O1")
    o3.slice_in(lat.n_sites, "O3")
    t_total = float(t_total)
    if not math.isfinite(t_total) or t_total < 0.0:
        raise ValueError(f"t_total must be finite and >= 0, got {t_total}")
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if _sites(psi) != lat.n_sites:
        raise ValueError(f"psi of dimension {psi.dim} is not on the {lat.n_sites}-site lattice")
    leak_13 = leak_31 = light_cone_bound(lat, o1, o3, t_total)
    overlap_o1 = joint_position_probability(psi, o1.sites(), o1.sites())
    overlap_o3 = joint_position_probability(psi, o3.sites(), o3.sites())
    return SpacelikeCertificate(float(eps), leak_13, leak_31, overlap_o1, overlap_o3)
