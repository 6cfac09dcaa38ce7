"""Two spins, three labeled operations, and a signal that should not exist.

The smallest version of the puzzle needs no lattice at all.  Two spin-1/2
particles start in the product state |down, down>.  Three agents act in
sequence, each addressing particles by label:

  O1 optionally flips spin 1 (the "kick"),
  O2 projects both spins onto the Bell state (|uu> + |dd>)/sqrt(2),
  O3 measures an observable C on spin 2.

If O1 and O3 are imagined to be far apart while O2 sits between them, the
kick is outside O3's past light cone.  Yet the expectation O3 records is

  no kick :  tr(C) / 2
  kick    :  <down| C |down>

which differ for almost every C.  The O2 projection is the culprit: a
label-addressed joint measurement stitches the two wings together with no
regard for where the particles actually are.  The lattice model in this
package exists to show how position-localized, exchange-symmetric
operations remove exactly this effect.
"""

from __future__ import annotations

import numpy as np

from nosignal import PAULI_X, PAULI_Z, run_naive_sorkin


def closed_forms(c: np.ndarray) -> tuple[float, float]:
    """Reference values computed directly from the matrix."""
    return float(np.trace(c).real) / 2.0, float(c[0, 0].real)


def main() -> None:
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    random_c = (a + a.conj().T) / 2

    observables = [
        ("sigma_z", PAULI_Z),
        ("sigma_x", PAULI_X),
        ("random C", random_c),
    ]

    print("observable     no kick        kick          |delta|")
    print("-" * 56)
    for name, c in observables:
        quiet = run_naive_sorkin(c, kick=False)
        kicked = run_naive_sorkin(c, kick=True)
        want_quiet, want_kicked = closed_forms(c)
        assert abs(quiet - want_quiet) < 1e-12
        assert abs(kicked - want_kicked) < 1e-12
        print(f"{name:<12s} {quiet:+12.6f}  {kicked:+12.6f}  {abs(kicked - quiet):12.6f}")

    print()
    print("Every observable with tr(C)/2 != C[0,0] lets O3 read O1's choice")
    print("instantly.  sigma_z is the cleanest case: 0 becomes -1 the moment")
    print("O1 kicks, no matter how far away O1 is supposed to be.")


if __name__ == "__main__":
    main()
