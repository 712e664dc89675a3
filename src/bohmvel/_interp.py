"""Vectorized Catmull-Rom interpolation on uniform periodic lines.

Shared by the guiding-field evaluation (real densities and currents) and
the momentum-space boost transport (complex amplitudes). The line is
treated as periodic, matching the spectral representation; callers are
responsible for keeping queries away from wrap-around artifacts.

``CubicStencil`` holds several grids on one lattice of n points, n a power
of two (rho and the current of a field snapshot) and interpolates all of
them at the same points. It is built once per set of grids: each grid is
stored with periodic ghost cells, one before and two after, so the four
stencil offsets become constant shifts of the base index and no further
wrap is needed.

Per query, ``CubicStencil.at`` takes the base index floor(pos), the four
Catmull-Rom weights (Keys, IEEE TASSP 29, 1981) and one wrap of the base
index with ``& (n - 1)`` (equal to ``% n`` for every integer, negative
ones included). The weights are computed in place with the same float
operations in the same order as the textbook expressions. Every grid is
accumulated as ``zeros + v * w`` (``v * w`` is ``w * v`` bit for bit,
complex ``v`` included) over the offsets -1, 0, 1, 2 in that order; the
result is bitwise equal to wrapping each offset with ``% n`` separately,
also for points outside the line. Per-call temporaries stay at one value
per point, so a call at 10^4 points never allocates more than 80 KB at a
time.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

__all__ = ["CubicStencil"]


def _catmull_rom_weights(t: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four weights of offsets -1, 0, 1, 2 at fractional positions t.

    In place, but the same operations in the same order as
    0.5 (-t + 2 t^2 - t^3), 0.5 (2 - 5 t^2 + 3 t^3), 0.5 (t + 4 t^2 - 3 t^3)
    and 0.5 (-t^2 + t^3).
    """
    t2 = t * t
    t3 = t2 * t
    scratch = np.multiply(2.0, t2)
    w_m1 = np.negative(t)
    w_m1 += scratch
    w_m1 -= t3
    w_m1 *= 0.5
    w_0 = np.multiply(5.0, t2)
    np.subtract(2.0, w_0, out=w_0)
    np.multiply(3.0, t3, out=scratch)
    w_0 += scratch
    w_0 *= 0.5
    w_p1 = np.multiply(4.0, t2)
    np.add(t, w_p1, out=w_p1)
    w_p1 -= scratch
    w_p1 *= 0.5
    w_p2 = np.negative(t2, out=t2)
    w_p2 += t3
    w_p2 *= 0.5
    return w_m1, w_0, w_p1, w_p2


class CubicStencil:
    """Grids sharing one periodic line, padded once for interpolation.

    grids: sequence of 1D arrays of one power-of-two length n (real or
    complex); x_min and dx give the lattice origin and spacing.
    """

    def __init__(self, grids, x_min: float, dx: float):
        grids = [np.asarray(g) for g in grids]
        n = grids[0].shape[0]
        if any(g.shape != (n,) for g in grids) or n < 1 or n & (n - 1):
            raise InvalidInputError("stencil grids must be 1D of one power-of-two length")
        self.x_min = float(x_min)
        self.dx = float(dx)
        self._mask = n - 1
        # Ghost cells: one before and two after, wrapped periodically.
        ghost = np.arange(-1, n + 2) & self._mask
        self._padded = [g[ghost] for g in grids]

    def at(self, x: np.ndarray) -> list[np.ndarray]:
        """Interpolated values at positions x (k,); one (k,) array per grid."""
        pos = np.asarray(x, dtype=float) - self.x_min
        pos /= self.dx
        # base: padded index of the ghost cell before each base cell.
        base = np.floor(pos).astype(np.int64)
        np.subtract(pos, base, out=pos)
        weights = _catmull_rom_weights(pos)
        base &= self._mask
        outs = [np.zeros(base.size, dtype=g.dtype) for g in self._padded]
        for shift, w in enumerate(weights):
            for out, padded in zip(outs, self._padded):
                # padded[shift:][base] is padded[base + shift] without the add.
                term = padded[shift:][base]
                term *= w
                out += term
        return outs
