"""Backward semi-Lagrangian extrapolation under Lagrangian persistence.

Each output cell samples the input field at its upstream departure point
(x - u_x, y - u_y) with bilinear interpolation; intensity is conserved along
trajectories (no growth or decay). The validity mask is advected with
nearest-neighbor sampling.

Out-of-bounds rule: bilinear neighbors outside the domain take the field's
fill value, and a cell whose departure point leaves the domain is flagged
invalid (inflow carries no information).
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


def _advect_level(data_out: np.ndarray, mask_out: np.ndarray,
                  plane: np.ndarray, mask: np.ndarray, ux: np.ndarray,
                  uy: np.ndarray, fill: float) -> None:
    """Advect one 2-D plane and its validity mask len(data_out) times,
    writing step j into data_out[j] and mask_out[j].

    The motion is time-invariant, so the departure geometry is built once
    and every step reuses it along with one padded plane and the kernel's
    buffers. Out-of-domain neighbors contribute ``fill``, which keeps the
    convex-combination property in shifted spaces such as dBR, where fill is
    the space floor. Non-finite departure coordinates raise ValueError.
    """
    ny, nx = plane.shape
    xs = np.arange(nx, dtype=np.float64) - ux
    ys = np.arange(ny, dtype=np.float64)[:, None] - uy
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("sample coordinates must be finite")
    # sample plane - fill with zeros outside the domain, then add fill back;
    # two zero cells before each axis keep both clamped corners of
    # floor(x) = -2 outside, one after covers floor(x) = n - 1
    padded = np.zeros((ny + 3, nx + 3))
    corners = bilinear_geometry(xs, ys, ny + 3, nx + 3, pad=2)
    nearest = mask_geometry(xs, ys, ny, nx)
    work = [np.empty((ny, nx)) for _ in range(6)]
    for out, out_mask in zip(data_out, mask_out):
        np.subtract(plane, fill, out=padded[2:-1, 2:-1])
        bilinear_apply(padded, corners, out=out, work=work)
        np.add(out, fill, out=out)
        mask_apply(mask, nearest, out=out_mask)
        plane, mask = out, out_mask


def warp_plane(plane: np.ndarray, mask: np.ndarray, ux: np.ndarray,
               uy: np.ndarray, fill: float) -> tuple[np.ndarray, np.ndarray]:
    """One backward warp of a single 2-D plane plus its validity mask; see
    _advect_level."""
    plane = np.asarray(plane, dtype=np.float64)
    out = np.empty((1,) + plane.shape)
    out_mask = np.empty((1,) + plane.shape, dtype=bool)
    _advect_level(out, out_mask, plane, mask, ux, uy, fill)
    return out[0], out_mask[0]


def advect_once(f: RainField, mf: MotionField) -> RainField:
    """Advect a field by one time step with the per-level motion field."""
    return extrapolate(f, mf, 1)[0]


def extrapolate(f: RainField, mf: MotionField, k: int) -> list[RainField]:
    """k iterated one-step advections of the field; returns the k leads.

    Levels are advected one after another, each through its own departure
    geometry, so only one level's geometry is held at a time.
    """
    if k < 1:
        raise ValueError(f"lead count must be >= 1, got {k}")
    if f.data.shape[1:] != mf.grid_shape:
        raise ValueError(
            f"field grid {f.data.shape[1:]} != motion grid {mf.grid_shape}")
    if f.nz != mf.nz:
        raise ValueError(f"field has Z={f.nz} but motion has Z={mf.nz}")
    data = np.empty((k,) + f.data.shape)
    mask = np.empty((k,) + f.data.shape, dtype=bool)
    for z in range(f.nz):
        ux, uy = mf.level(z)
        _advect_level(data[:, z], mask[:, z], f.data[z], f.mask[z], ux, uy,
                      f.fill_value)
    return [RainField(data=d, space=f.space, mask=m)
            for d, m in zip(data, mask)]
