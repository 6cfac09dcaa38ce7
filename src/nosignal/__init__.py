"""Two spin-1/2 particles on a 1-D lattice plus a detector qubit.

Numerically answers when a localized operation in one region can change
measurement statistics in a causally disconnected region.  Label-addressed
operations or a global joint measurement produce a finite, quantified
signal.  Exchange-symmetric position-localized operations give none while
the joint-measurement region O2 stays out of reach of both packets in time;
in Sorkin's geometry, where O2 meets the causal future of O1 and the causal
past of O3, they signal under a passing certificate.
"""

from .composite import (
    Statistics,
    antisymmetrize,
    antisymmetry_violation,
    basis_index,
    decode_basis_index,
    evolve_positions,
    joint_position_probability,
    position_occupancy,
    prepare_initial,
    symmetrize,
)
from .lattice import (
    Lattice1D,
    Region,
    SpacelikeCertificate,
    check_spacelike,
    hamiltonian,
    leakage,
    light_cone_bound,
    make_lattice,
    propagator,
    wavepacket,
)
from .protocol import (
    PacketSpec,
    ScenarioConfig,
    SignalingReport,
    bell_projector,
    default_scenario,
    detector_coupling,
    prepare_scenario,
    qubit_one_probability,
    run_arm_stages,
    run_naive_sorkin,
    run_scenario,
)
from .qcore import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BranchEnsemble,
    StateVector,
)

__version__ = "0.1.0"

__all__ = [
    "BranchEnsemble",
    "Lattice1D",
    "PacketSpec",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "Region",
    "ScenarioConfig",
    "SignalingReport",
    "SpacelikeCertificate",
    "StateVector",
    "Statistics",
    "antisymmetrize",
    "antisymmetry_violation",
    "basis_index",
    "bell_projector",
    "check_spacelike",
    "decode_basis_index",
    "default_scenario",
    "detector_coupling",
    "evolve_positions",
    "hamiltonian",
    "joint_position_probability",
    "leakage",
    "light_cone_bound",
    "make_lattice",
    "position_occupancy",
    "prepare_initial",
    "prepare_scenario",
    "propagator",
    "qubit_one_probability",
    "run_arm_stages",
    "run_naive_sorkin",
    "run_scenario",
    "symmetrize",
    "wavepacket",
    "__version__",
]
