"""Quality control: polarimetric filtering and per-level speckle removal.

All spatial operations act in the horizontal plane only, level by level, so
cleaning never introduces vertical coupling.
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
    from scipy import ndimage
    data = vol.data.copy()
    # an element one plane thick: no (t, z) plane touches another
    element = DIAMOND[None, None]
    echo = data > ECHO_THRESHOLD_DBZ
    opened = ndimage.binary_opening(echo, structure=element,
                                    iterations=OPEN_ITERS)
    protected = ndimage.binary_dilation(data > PROTECT_DBZ, structure=element,
                                        iterations=DILATE_ITERS)
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
