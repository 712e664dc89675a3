"""Vectorized Catmull-Rom interpolation on uniform periodic grids.

Shared by the guiding-field evaluation (real densities and currents) and
the momentum-space boost transport (complex amplitudes). The grid is
treated as periodic, matching the spectral representation; callers are
responsible for keeping queries away from wrap-around artifacts.

``CubicStencil`` holds several grids on one lattice (rho and every
current of a field snapshot) and interpolates all of them at the same
points. It is built once per set of grids: each grid is stored with
periodic ghost cells, one before and two after every axis, gathered with
``np.ix_`` over ``arange(-1, n + 2) % n`` per axis (that index is made
once per grid shape). The 4^d stencil offsets then become constant
shifts of one flat index into the padded grid and no further wrap is
needed.

Per query and axis, ``CubicStencil.at`` takes the base index floor(pos),
the four Catmull-Rom weights (Keys, IEEE TASSP 29, 1981) and one wrap of
the base index: ``& (n - 1)`` on a power-of-two axis, ``% n`` otherwise
(equal for every integer, negative ones included). The weights are
computed in place with the same float operations in the same order as
the textbook expressions. Every grid is accumulated as ``zeros + v * w``
(``v * w`` is ``w * v`` bit for bit, complex ``v`` included) over the
offsets in ``itertools.product`` order, with the weight products formed
axis by axis; the result is bitwise equal to wrapping each offset with
``% n`` separately, also for points outside the box. Per-call
temporaries stay at one value per point, so a call at 10^4 points never
allocates more than 80 KB at a time.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

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


@functools.lru_cache(maxsize=None)
def _ghost_index(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """``np.ix_`` index of a grid with one ghost cell before and two after
    every axis, wrapped periodically; shared by all grids of one shape."""
    index = np.ix_(*(np.arange(-1, n + 2) % n for n in shape))
    for axis_index in index:
        axis_index.setflags(write=False)
    return index


class CubicStencil:
    """Grids sharing one periodic lattice, padded once for interpolation.

    grids: sequence of arrays of one shape (real or complex); x_min and dx
    give the lattice origin and spacing per axis.
    """

    def __init__(self, grids, x_min, dx):
        grids = [np.asarray(g) for g in grids]
        shape = grids[0].shape
        self.x_min = tuple(float(v) for v in x_min)
        self.dx = tuple(float(v) for v in dx)
        self.shape = shape
        # Power-of-two axes wrap with a mask, other sizes with a modulo.
        self._masks = [n - 1 if n & (n - 1) == 0 else None for n in shape]
        ghost = _ghost_index(shape)
        self._padded = [g[ghost].reshape(-1) for g in grids]
        padded_shape = tuple(n + 3 for n in shape)
        self._strides = [math.prod(padded_shape[ax + 1:]) for ax in range(len(shape))]
        # (offsets, flat shift) of the 4^d stencil points, in product order.
        self._offsets = [
            (offsets, sum(o * s for o, s in zip(offsets, self._strides)))
            for offsets in itertools.product(range(4), repeat=len(shape))
        ]

    def at(self, points: np.ndarray) -> list[np.ndarray]:
        """Interpolated values at points (k, d); one (k,) array per grid."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        k, dim = points.shape
        weight_sets = []
        corner = None
        for ax in range(dim):
            pos = points[:, ax] - self.x_min[ax]
            pos /= self.dx[ax]
            base = np.floor(pos).astype(np.int64)
            np.subtract(pos, base, out=pos)
            weight_sets.append(_catmull_rom_weights(pos))
            # corner: flat padded index of the ghost cell before each base cell.
            mask = self._masks[ax]
            if mask is None:
                base %= self.shape[ax]
            else:
                base &= mask
            if self._strides[ax] != 1:
                base *= self._strides[ax]
            if corner is None:
                corner = base
            else:
                corner += base
        outs = [np.zeros(k, dtype=g.dtype) for g in self._padded]
        for offsets, shift in self._offsets:
            w = weight_sets[0][offsets[0]]
            for ax in range(1, dim):
                w = w * weight_sets[ax][offsets[ax]]
            for out, flat in zip(outs, self._padded):
                # flat[shift:][corner] is flat[corner + shift] without the add.
                term = flat[shift:][corner]
                term *= w
                out += term
        return outs

