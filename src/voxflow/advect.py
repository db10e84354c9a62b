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

from .grid import MotionField, RainField


def warp_plane(plane: np.ndarray, mask: np.ndarray, ux: np.ndarray,
               uy: np.ndarray, fill: float) -> tuple[np.ndarray, np.ndarray]:
    """One backward warp of a single 2-D plane plus its validity mask.

    Out-of-domain neighbors contribute ``fill``, which keeps the
    convex-combination property in shifted spaces such as dBR, where fill is
    the space floor. Non-finite departure coordinates raise ValueError.
    """
    ny, nx = plane.shape
    ygrid, xgrid = np.mgrid[0:ny, 0:nx].astype(np.float64)
    xs = xgrid - ux
    ys = ygrid - uy
    if np.any(~np.isfinite(xs)) or np.any(~np.isfinite(ys)):
        raise ValueError("sample coordinates must be finite")
    # sample plane - fill with zero outside the domain, then add fill back
    shifted = np.asarray(plane, dtype=np.float64) - fill

    x0 = np.floor(xs)
    y0 = np.floor(ys)
    wx = xs - x0
    wy = ys - y0
    x0 = x0.astype(np.int64)
    y0 = y0.astype(np.int64)
    x1 = x0 + 1
    y1 = y0 + 1

    def gather(yi, xi):
        inside = (yi >= 0) & (yi < ny) & (xi >= 0) & (xi < nx)
        vals = shifted[np.clip(yi, 0, ny - 1), np.clip(xi, 0, nx - 1)]
        return np.where(inside, vals, 0.0)

    f00 = gather(y0, x0)
    f01 = gather(y0, x1)
    f10 = gather(y1, x0)
    f11 = gather(y1, x1)
    out = (1 - wy) * ((1 - wx) * f00 + wx * f01) + wy * ((1 - wx) * f10 + wx * f11)
    out = out + fill

    inside = (xs >= 0) & (xs <= nx - 1) & (ys >= 0) & (ys <= ny - 1)
    xi = np.clip(np.rint(xs).astype(np.int64), 0, nx - 1)
    yi = np.clip(np.rint(ys).astype(np.int64), 0, ny - 1)
    return out, inside & mask[yi, xi]


def advect_once(f: RainField, mf: MotionField) -> RainField:
    """Advect a field by one time step with the per-level motion field."""
    if f.data.shape[1:] != mf.grid_shape:
        raise ValueError(
            f"field grid {f.data.shape[1:]} != motion grid {mf.grid_shape}")
    if f.nz != mf.nz:
        raise ValueError(f"field has Z={f.nz} but motion has Z={mf.nz}")
    fill = f.fill_value
    out = np.empty_like(f.data)
    out_mask = np.empty_like(f.mask)
    for z in range(f.nz):
        ux, uy = mf.level(z)
        out[z], out_mask[z] = warp_plane(f.data[z], f.mask[z], ux, uy,
                                         fill=fill)
    return RainField(data=out, space=f.space, mask=out_mask)


def extrapolate(f: RainField, mf: MotionField, k: int) -> list[RainField]:
    """k iterated one-step advections of the field; returns the k leads."""
    if k < 1:
        raise ValueError(f"lead count must be >= 1, got {k}")
    leads = []
    cur = f
    for _ in range(k):
        cur = advect_once(cur, mf)
        leads.append(cur)
    return leads
