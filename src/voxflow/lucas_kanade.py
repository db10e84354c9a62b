"""Classical windowed least-squares optical flow baseline.

Per pixel, the flow solves the local normal equations of the brightness
constancy constraint over a square window, rejecting pixels whose structure
tensor is near-degenerate (the aperture problem); rejected pixels are filled
from the nearest accepted one. Intended as a sanity baseline for the
variational estimator, not as a production flow method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import SOBEL_X, SOBEL_Y, correlate3x3
from .grid import MotionField, RainField
from .advect import warp_plane

# rejection threshold and refinement passes; see estimate_lucas_kanade
TAU = 0.05
ITERATIONS = 3


@dataclass
class LucasKanadeResult:
    motion: MotionField
    accepted: np.ndarray
    all_rejected: bool


def _as_plane(f) -> np.ndarray:
    if isinstance(f, RainField):
        if f.nz != 1:
            raise ValueError("baseline flow expects single-level fields")
        return f.data[0]
    arr = np.asarray(f, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("baseline flow expects 2-D fields")
    return arr


def _solve(frame0: np.ndarray, frame1: np.ndarray, window: int):
    from scipy import ndimage
    mean = 0.5 * (frame0 + frame1)
    ix = correlate3x3(mean, SOBEL_X, "edge")
    iy = correlate3x3(mean, SOBEL_Y, "edge")
    it = frame1 - frame0

    def wmean(a):
        return ndimage.uniform_filter(a, size=window, mode="nearest")

    sxx = wmean(ix * ix)
    syy = wmean(iy * iy)
    sxy = wmean(ix * iy)
    sxt = wmean(ix * it)
    syt = wmean(iy * it)

    tr = sxx + syy
    lam_min = 0.5 * (tr - np.sqrt(np.maximum((sxx - syy) ** 2 + 4 * sxy ** 2, 0.0)))
    grad_energy = float(np.mean(ix * ix + iy * iy))
    accepted = lam_min > TAU * max(grad_energy, 1e-300)

    det = sxx * syy - sxy * sxy
    safe = np.where(accepted, det, 1.0)
    du = np.where(accepted, (sxy * syt - syy * sxt) / safe, 0.0)
    dv = np.where(accepted, (sxy * sxt - sxx * syt) / safe, 0.0)
    return du, dv, accepted


def estimate_lucas_kanade(frame0, frame1, window: int = 15) -> LucasKanadeResult:
    """Estimate a single-level motion field between two consecutive frames.

    window is the side of the averaging window (odd, >= 3). Pixels whose
    smallest structure-tensor eigenvalue falls below TAU times the mean
    gradient energy are rejected; ITERATIONS warp-and-refine passes handle
    displacements beyond the linear range.
    """
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    a = _as_plane(frame0)
    b = _as_plane(frame1)
    if a.shape != b.shape:
        raise ValueError("frames must share one shape")
    ny, nx = a.shape
    ones = np.ones((ny, nx), dtype=bool)

    ux = np.zeros((ny, nx))
    uy = np.zeros((ny, nx))
    accepted = np.zeros((ny, nx), dtype=bool)
    for _ in range(ITERATIONS):
        warped, _ = warp_plane(a, ones, ux, uy, fill=0.0)
        du, dv, accepted = _solve(warped, b, window)
        if not accepted.any():
            return LucasKanadeResult(
                motion=MotionField.zero(1, ny, nx),
                accepted=accepted, all_rejected=True)
        ux = ux + np.where(accepted, du, 0.0)
        uy = uy + np.where(accepted, dv, 0.0)

    # fill rejected pixels from the nearest accepted one
    if not accepted.all():
        from scipy import ndimage
        _, (iy_idx, ix_idx) = ndimage.distance_transform_edt(
            ~accepted, return_indices=True)
        ux = ux[iy_idx, ix_idx]
        uy = uy[iy_idx, ix_idx]
    u = np.stack([ux, uy])[None]
    return LucasKanadeResult(motion=MotionField(u), accepted=accepted,
                             all_rejected=False)
