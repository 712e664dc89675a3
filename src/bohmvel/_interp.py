"""Vectorized Catmull-Rom interpolation on uniform periodic grids.

Shared by the guiding-field evaluation (real densities and currents) and
the momentum-space boost transport (complex amplitudes). The grid is
treated as periodic, matching the spectral representation; callers are
responsible for keeping queries away from wrap-around artifacts.

``cubic_interp_grid`` interpolates several grids on one lattice at the
same points (rho and every current of a field snapshot), so it builds the
stencil once and applies it to each grid. Per axis it takes the base index
floor(pos), the four Catmull-Rom weights (Keys, IEEE TASSP 29, 1981) and a
single ``base % n``. Each grid is padded with periodic ghost cells, one
before and two after every axis, so the 4^d stencil offsets become
constant shifts of one flat index into the padded grid and no further
wrap is needed. Every grid is accumulated as ``zeros + w * v`` over the
offsets in ``itertools.product`` order, with the weight products formed
axis by axis; the result is bitwise equal to wrapping each offset with
``% n`` separately, also for points outside the box.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = ["cubic_interp_grid"]


def _catmull_rom_weights(theta: np.ndarray) -> tuple[np.ndarray, ...]:
    t = theta
    t2 = t * t
    t3 = t2 * t
    w_m1 = 0.5 * (-t + 2.0 * t2 - t3)
    w_0 = 0.5 * (2.0 - 5.0 * t2 + 3.0 * t3)
    w_p1 = 0.5 * (t + 4.0 * t2 - 3.0 * t3)
    w_p2 = 0.5 * (-t2 + t3)
    return w_m1, w_0, w_p1, w_p2


def cubic_interp_grid(grids, x_min, dx, points: np.ndarray) -> list[np.ndarray]:
    """Tensor-product cubic interpolation of d-dim grids at scattered points.

    grids: sequence of arrays sharing one grid shape; points: (k, d).
    Returns one (k,) array per grid, in the order of ``grids``.
    """
    grids = [np.asarray(g) for g in grids]
    points = np.atleast_2d(np.asarray(points, dtype=float))
    k, dim = points.shape
    shape = grids[0].shape
    padded = [np.pad(g, [(1, 2)] * dim, mode="wrap").reshape(-1) for g in grids]
    padded_shape = tuple(n + 3 for n in shape)
    strides = [math.prod(padded_shape[ax + 1:]) for ax in range(dim)]
    weight_sets = []
    for ax in range(dim):
        pos = (points[:, ax] - x_min[ax]) / dx[ax]
        base = np.floor(pos).astype(np.int64)
        weight_sets.append(_catmull_rom_weights(pos - base))
        # corner: flat padded index of the ghost cell before each base cell.
        term = (base % shape[ax]) * strides[ax]
        corner = term if ax == 0 else corner + term
    outs = [np.zeros(k, dtype=g.dtype) for g in grids]
    for offsets in itertools.product(range(4), repeat=dim):
        shift = sum(o * s for o, s in zip(offsets, strides))
        w = weight_sets[0][offsets[0]]
        for ax in range(1, dim):
            w = w * weight_sets[ax][offsets[ax]]
        for out, flat in zip(outs, padded):
            # flat[shift:][corner] is flat[corner + shift] without the add.
            out += w * flat[shift:][corner]
    return outs
