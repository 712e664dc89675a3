"""Frame relations on the shipped configs (see ``frames.py``).

Each gate runs a config and its image under one relation from matched
starts at n = 2000 and bounds the largest per-trajectory mismatch over
the recorded times. The bounds come from values measured at the shipped
horizons, with the headroom stated beside each. A whole-cell translation
is gated on every config. The sub-cell relations are gated on the free
Gaussian and Dirac runs only: on the barrier and bimodal runs they hold
only up to time-stepping and interpolation errors that can send a
trajectory to the other side of the barrier.
"""

import pytest

from frames import cells, frame_mismatch

N = 2000
FREE = "free_gaussian.json"
DIRAC = "dirac_covariance.json"
BARRIER = "barrier_scattering.json"
BIMODAL = "bimodal_superposition.json"

# (config, relation, bound): the measured maximum and the headroom.
GATES = [
    # 16 cells moves the field by whole lattice cells: equal to rounding.
    # Measured 9.9e-14 (free Gaussian), 9.6e-14 (Dirac), 8.8e-10
    # (barrier) and 1.1e-10 (bimodal): 100x, 100x, 11x and 9x.
    (FREE, {"shift": cells(FREE, 16)}, 1e-11),
    (DIRAC, {"shift": cells(DIRAC, 16)}, 1e-11),
    (BARRIER, {"shift": cells(BARRIER, 16)}, 1e-8),
    (BIMODAL, {"shift": cells(BIMODAL, 16)}, 1e-9),
    # Half a cell: the interpolation error where the lattice sits.
    # Measured 2.72e-4 (free Gaussian, at dt 0.05 and 0.08) and 1.00e-3, 1.5x.
    (FREE, {"shift": cells(FREE, 0.5)}, 4e-4),
    (DIRAC, {"shift": cells(DIRAC, 0.5)}, 1.5e-3),
    # Galilean boost by k = 0.5: measured 2.80e-4 at the free Gaussian's
    # dt 0.08 (2.21e-4 at dt 0.05), 1.25x.
    (FREE, {"boost": 0.5}, 3.5e-4),
]


@pytest.mark.parametrize(
    "name, relation, bound",
    GATES,
    ids=[
        "free-16-cells",
        "dirac-16-cells",
        "barrier-16-cells",
        "bimodal-16-cells",
        "free-half-cell",
        "dirac-half-cell",
        "free-boost",
    ],
)
def test_frame_relation(name, relation, bound):
    out = frame_mismatch(name, N, **relation)
    assert (out.failed_base, out.failed_moved) == (0, 0)
    assert out.mismatch.size == N
    assert out.mismatch.max() < bound
