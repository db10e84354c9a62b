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

from .grid import MotionField, RainField, bilinear_sample, sample_mask


def warp_plane(plane: np.ndarray, mask: np.ndarray, ux: np.ndarray,
               uy: np.ndarray, fill: float) -> tuple[np.ndarray, np.ndarray]:
    """One backward warp of a single 2-D plane plus its validity mask.

    Out-of-domain neighbors contribute ``fill``, which keeps the
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
    shifted = np.pad(np.asarray(plane, dtype=np.float64) - fill,
                     ((2, 1), (2, 1)))
    out, _, _ = bilinear_sample(shifted, xs, ys, pad=2)
    return out + fill, sample_mask(mask, xs, ys)


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
