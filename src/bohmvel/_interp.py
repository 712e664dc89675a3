"""Vectorized periodic cubic-spline interpolation on uniform lines.

Shared by the guiding-field evaluation (real densities and currents) and
the momentum-space boost transport (complex amplitudes). The line is
treated as periodic, matching the spectral representation; callers are
responsible for keeping queries away from wrap-around artifacts.

``CubicStencil`` holds several grids on one lattice of n points, n a power
of two (rho and the current of a field snapshot) and interpolates all of
them at the same points with the periodic interpolating cubic spline: C2
across cells, and fourth order in the spacing, so RK4 on the field it
gives keeps its own fourth order. It is built once per set of grids. The
cubic B-spline coefficients c of a grid f solve
(c[i-1] + 4 c[i] + c[i+1]) / 6 = f[i] on the periodic line; that
circulant system is diagonal in Fourier space, so c is f transformed,
multiplied by 6 / (4 + 2 cos(2 pi k / n)) and transformed back (Unser,
IEEE Signal Processing Magazine 16(6), 1999). Each grid is transformed
on its own row (``rfft`` for real grids, ``fft`` for complex ones), so a
grid gets the same coefficients whatever grids share its stencil. On
each cell i, with the coefficients c-1, c0, c1, c2 at i - 1 .. i + 2
wrapped periodically, the spline is stored as four coefficient arrays

    a = f[i]
    b = (c1 - c-1) / 2
    c = (c-1 - 2 c0 + c1) / 2
    d = (3 (c0 - c1) + c2 - c-1) / 6

so that the value at fractional position t in the cell is
a + t (b + t (c + t d)). a is the grid itself, which the B-spline sum
(c-1 + 4 c0 + c1) / 6 equals up to the rounding of the prefilter.

Per query, ``CubicStencil.at`` takes the base index floor(pos), its
fraction t and one wrap of the base index with ``& (n - 1)`` (equal to
``% n`` for every integer, negative ones included), then evaluates each
grid in Horner order: four gathers and three multiply-adds. At a grid
node t is 0 and the result is the node value bit for bit.

The prefilter spreads rounding of about 1e-17 times the largest grid
value over the whole line, so far below the peak of a density grid the
interpolant is that rounding, of either sign, not the grid's exact
zeros or its tiny tail values.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InvalidInputError

__all__ = ["CubicStencil"]


@lru_cache(maxsize=8)
def _prefilter(n: int) -> np.ndarray:
    """6 / (4 + 2 cos(2 pi k / n)) for k = 0 .. n - 1: the inverse of the
    B-spline sampling filter at each Fourier mode of an n-point line."""
    out = 6.0 / (4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    out.flags.writeable = False
    return out


class CubicStencil:
    """Grids sharing one periodic line, as cubic-spline cell coefficients.

    grids: sequence of 1D arrays of one power-of-two length n, all real or
    all complex; x_min and dx give the lattice origin and spacing.
    """

    def __init__(self, grids, x_min: float, dx: float):
        grids = [np.asarray(g) for g in grids]
        n = grids[0].shape[0]
        if any(g.shape != (n,) for g in grids) or n < 1 or n & (n - 1):
            raise InvalidInputError("stencil grids must be 1D of one power-of-two length")
        if len({np.iscomplexobj(g) for g in grids}) > 1:
            raise InvalidInputError("stencil grids must be all real or all complex")
        self.x_min = float(x_min)
        self.dx = float(dx)
        self._mask = n - 1
        block = np.stack(grids)
        if np.iscomplexobj(block):
            spectrum = np.fft.fft(block, axis=1)
            spectrum *= _prefilter(n)
            spline = np.fft.ifft(spectrum, axis=1)
        else:
            spectrum = np.fft.rfft(block, axis=1)
            spectrum *= _prefilter(n)[: n // 2 + 1]
            spline = np.fft.irfft(spectrum, n, axis=1)
        # Ghost cells: one before and two after, wrapped periodically.
        padded = np.concatenate([spline[:, n - 1 :], spline, spline[:, :2]], axis=1)
        c_m1, c_0, c_1, c_2 = padded[:, :n], padded[:, 1 : n + 1], padded[:, 2 : n + 2], padded[:, 3:]
        # The formulas of the module docstring, built in place in their
        # operation order so each coefficient rounds as the expression does.
        b = np.subtract(c_1, c_m1)
        b *= 0.5
        c = 2.0 * c_0
        np.subtract(c_m1, c, out=c)
        c += c_1
        c *= 0.5
        d = np.subtract(c_0, c_1)
        d *= 3.0
        d += c_2
        d -= c_m1
        d /= 6.0
        self._coeffs = list(zip(block, b, c, d))

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
