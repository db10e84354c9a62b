"""Backward semi-Lagrangian extrapolation under Lagrangian persistence.

Each output cell samples the input field at its upstream departure point
(x - u_x, y - u_y) with bilinear interpolation; intensity is conserved along
trajectories (no growth or decay). The validity mask is advected with
nearest-neighbor sampling.

Out-of-bounds rule: bilinear neighbors outside the domain are 0 mm/h, so
inflow is 0 mm/h, and a cell whose departure point leaves the domain is
flagged invalid (inflow carries no information).
"""

from __future__ import annotations

import numpy as np

from .grid import (
    MotionField,
    RainField,
    bilinear_apply,
    bilinear_geometry,
    mask_apply,
    mask_geometry,
)


def _departures(ux: np.ndarray, uy: np.ndarray, ny: int, nx: int) -> tuple:
    """The departure geometry of one level under the motion (ux, uy): the
    bilinear corners in a plane padded as _advect_planes pads it, and the
    nearest-cell lookup of the mask. The motion is time-invariant, so every
    step of the level reuses it. The departure coordinates need no
    finiteness test: MotionField rejects non-finite motion, and arange - u
    of a finite u is finite in float64."""
    xs = np.arange(nx, dtype=np.float64) - ux
    ys = np.arange(ny, dtype=np.float64)[:, None] - uy
    # two zero cells before each axis keep both clamped corners of
    # floor(x) = -2 outside, one after covers floor(x) = n - 1
    return (bilinear_geometry(xs, ys, ny + 3, nx + 3, pad=2),
            mask_geometry(xs, ys, ny, nx))


def _advect_planes(plane: np.ndarray, corners: tuple, k: int):
    """Yield the 2-D plane advected 1, ..., k times through its level's
    departure corners. Every step is the interior of one zero-padded
    buffer, which the next step overwrites; out-of-domain neighbors are
    the padding's 0 mm/h. The kernel writes its samples into that interior
    only once it has gathered the four corners, so each step reads the
    previous one in place."""
    ny, nx = plane.shape
    padded = np.zeros((ny + 3, nx + 3))
    out = padded[2:-1, 2:-1]
    out[...] = plane
    work = [np.empty((ny, nx)) for _ in range(6)]
    for _ in range(k):
        bilinear_apply(padded, corners, out=out, work=work)
        yield out


def _advect_masks(mask: np.ndarray, nearest: tuple, k: int):
    """Yield the validity mask advected 1, ..., k times by nearest-cell
    lookup. The steps alternate between two buffers, each overwritten two
    steps later; a lookup cannot write into its own input."""
    buffers = (np.empty(mask.shape, bool), np.empty(mask.shape, bool))
    for j in range(k):
        mask = mask_apply(mask, nearest, out=buffers[j % 2])
        yield mask


def advect_once(f: RainField, mf: MotionField) -> RainField:
    """Advect a field by one time step with the per-level motion field."""
    return extrapolate(f, mf, 1)[0]


def extrapolate(f: RainField, mf: MotionField, k: int,
                sink=None) -> list[RainField] | None:
    """k iterated one-step advections of the field; returns the k leads.

    Levels are advected one after another, each through its own departure
    geometry, so only one level's geometry is held at a time. With sink,
    no lead is kept and None is returned: each level first advects its
    mask k times and ANDs the k lead masks, then calls sink(t, z, plane)
    for t = 0, ..., k - 1 with the level's lead t as a one-level RainField
    whose data and mask are views of the plane and of that AND. The plane's
    data is overwritten once sink returns.
    """
    if k < 1:
        raise ValueError(f"lead count must be >= 1, got {k}")
    if f.data.shape[1:] != mf.grid_shape:
        raise ValueError(
            f"field grid {f.data.shape[1:]} != motion grid {mf.grid_shape}")
    if f.nz != mf.nz:
        raise ValueError(f"field has Z={f.nz} but motion has Z={mf.nz}")
    ny, nx = mf.grid_shape
    if sink is None:
        data = np.empty((k,) + f.data.shape)
        mask = np.empty((k,) + f.data.shape, dtype=bool)
    for z in range(f.nz):
        corners, nearest = _departures(*mf.level(z), ny, nx)
        masks = _advect_masks(f.mask[z], nearest, k)
        planes = _advect_planes(f.data[z], corners, k)
        if sink is None:
            for j, (m, d) in enumerate(zip(masks, planes)):
                mask[j, z], data[j, z] = m, d
        else:
            valid = np.ones((ny, nx), dtype=bool)
            for m in masks:
                valid &= m
            for t, d in enumerate(planes):
                sink(t, z, RainField(data=d[None], mask=valid[None]))
    if sink is None:
        return [RainField(data=d, mask=m) for d, m in zip(data, mask)]
    return None
