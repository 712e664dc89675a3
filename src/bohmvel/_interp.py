"""Vectorized Catmull-Rom interpolation on uniform periodic lines.

Shared by the guiding-field evaluation (real densities and currents) and
the momentum-space boost transport (complex amplitudes). The line is
treated as periodic, matching the spectral representation; callers are
responsible for keeping queries away from wrap-around artifacts.

``CubicStencil`` holds several grids on one lattice of n points, n a power
of two (rho and the current of a field snapshot) and interpolates all of
them at the same points. It is built once per set of grids: on each cell
i, with the neighbours p-1, p0, p1, p2 at i - 1 .. i + 2 wrapped
periodically, the Catmull-Rom cubic (Keys, IEEE TASSP 29, 1981) is stored
as four coefficient arrays

    a = p0
    b = 0.5 (p1 - p-1)
    c = 0.5 (2 p-1 - 5 p0 + 4 p1 - p2)
    d = 0.5 (3 (p0 - p1) + p2 - p-1)

so that the value at fractional position t in the cell is
a + t (b + t (c + t d)).

Per query, ``CubicStencil.at`` takes the base index floor(pos), its
fraction t and one wrap of the base index with ``& (n - 1)`` (equal to
``% n`` for every integer, negative ones included), then evaluates each
grid in Horner order: four gathers and three multiply-adds. At a grid
node t is 0 and the result is the node value bit for bit. Elsewhere the
result equals the Catmull-Rom weight form only to rounding: the two
evaluate the same polynomial in a different order.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

__all__ = ["CubicStencil"]


class CubicStencil:
    """Grids sharing one periodic line, as Catmull-Rom cell coefficients.

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
        self._coeffs = []
        for g in grids:
            padded = g[ghost]
            p_m1, p_0, p_1, p_2 = padded[:n], padded[1 : n + 1], padded[2 : n + 2], padded[3:]
            # The formulas of the module docstring, built in place in their
            # operation order so each coefficient rounds as the expression does.
            b = np.subtract(p_1, p_m1)
            b *= 0.5
            c = 2.0 * p_m1
            c -= 5.0 * p_0
            c += 4.0 * p_1
            c -= p_2
            c *= 0.5
            d = np.subtract(p_0, p_1)
            d *= 3.0
            d += p_2
            d -= p_m1
            d *= 0.5
            self._coeffs.append((p_0, b, c, d))

    def at(self, x: np.ndarray) -> list[np.ndarray]:
        """Interpolated values at positions x (k,); one (k,) array per grid."""
        pos = np.asarray(x, dtype=float) - self.x_min
        pos /= self.dx
        base = np.floor(pos).astype(np.int64)
        t = np.subtract(pos, base, out=pos)
        base &= self._mask
        outs = []
        for a, b, c, d in self._coeffs:
            out = d[base]
            out *= t
            out += c[base]
            out *= t
            out += b[base]
            out *= t
            out += a[base]
            outs.append(out)
        return outs
