"""Quality control: polarimetric filtering and per-level speckle removal.

All spatial operations act in the horizontal plane only, level by level, so
cleaning never introduces vertical coupling. The morphology is NumPy's own:
shifted slices of a False-padded mask, one pass per iteration.
"""

from __future__ import annotations

import numpy as np

from .grid import NO_ECHO_DBZ, RadarVolume

#: 3x3 diamond (4-connected cross) structuring element.
DIAMOND = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)

# QC settings; the docstrings below say how each is applied.
RHO_MIN = 0.6
ECHO_THRESHOLD_DBZ = 0.0
OPEN_ITERS = 2
PROTECT_DBZ = 40.0
DILATE_ITERS = 2


def diamond_morphology(mask: np.ndarray, iterations: int, op) -> np.ndarray:
    """mask eroded (op np.logical_and) or dilated (op np.logical_or)
    iterations times with DIAMOND in its last two axes, each (..., Y, X)
    plane on its own and False beyond its edges: the binary_erosion or
    binary_dilation of scipy.ndimage with structure DIAMOND[None, None]."""
    for _ in range(iterations):
        p = np.pad(mask, [(0, 0)] * (mask.ndim - 2) + [(1, 1), (1, 1)])
        mask = p[..., 1:-1, 1:-1].copy()
        for s in (p[..., :-2, 1:-1], p[..., 2:, 1:-1],
                  p[..., 1:-1, :-2], p[..., 1:-1, 2:]):
            op(mask, s, out=mask)
    return mask


def polarimetric_filter(vol: RadarVolume) -> RadarVolume:
    """Remove echoes wherever the copolar correlation falls below RHO_MIN.

    Removed cells are set to the no-echo value; the validity mask is
    unchanged (the observation existed, it was just not precipitation).
    """
    if vol.rho_hv is None:
        raise ValueError("polarimetric_filter requires a volume with rho_hv")
    data = np.where(vol.rho_hv < RHO_MIN, NO_ECHO_DBZ, vol.data)
    return RadarVolume(data=data, z_levels=vol.z_levels, dt=vol.dt,
                       mask=vol.mask.copy(), rho_hv=vol.rho_hv.copy())


def morphological_clean(vol: RadarVolume) -> RadarVolume:
    """Remove small isolated echo regions per altitude level.

    Per level and frame, independently: the binary echo mask (reflectivity
    above ECHO_THRESHOLD_DBZ) is opened OPEN_ITERS times with the 3x3
    diamond element; cells above PROTECT_DBZ, dilated DILATE_ITERS times
    with the same element, are exempt from removal. Removed cells become
    no-echo.
    """
    data = vol.data.copy()
    echo = data > ECHO_THRESHOLD_DBZ
    eroded = diamond_morphology(echo, OPEN_ITERS, np.logical_and)
    opened = diamond_morphology(eroded, OPEN_ITERS, np.logical_or)
    protected = diamond_morphology(data > PROTECT_DBZ, DILATE_ITERS,
                                   np.logical_or)
    data[echo & ~opened & ~protected] = NO_ECHO_DBZ
    rho = vol.rho_hv.copy() if vol.rho_hv is not None else None
    return RadarVolume(data=data, z_levels=vol.z_levels, dt=vol.dt,
                       mask=vol.mask.copy(), rho_hv=rho)


def denoise_volume(vol: RadarVolume) -> RadarVolume:
    """Full QC chain: polarimetric filter (when rho_hv is present) followed
    by morphological cleaning."""
    if vol.rho_hv is not None:
        vol = polarimetric_filter(vol)
    return morphological_clean(vol)
