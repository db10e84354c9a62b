"""Unit conversions: reflectivity to rain rate and back, and rain rate to
the dBR arrays the objective compares.

The Z-R relationship is Z = a * R^b with the Marshall-Palmer constants
MARSHALL_PALMER_A = 200 and MARSHALL_PALMER_B = 1.6. The dBR floor threshold
is 10**-1.5 mm/h so the mapping is continuous at the floor (-15 dBR). dBR is
one-way: nothing converts it back, and no RainField holds it.
"""

from __future__ import annotations

import numpy as np

from .grid import DBR_FLOOR, NO_ECHO_DBZ, RadarVolume, RainField

MARSHALL_PALMER_A = 200.0
MARSHALL_PALMER_B = 1.6

#: Rain rate whose dBR value is exactly the floor; rates at or below map
#: to the floor.
DBR_THRESHOLD_MMH = 10.0 ** (DBR_FLOOR / 10.0)


def dbz_to_rain(dbz: np.ndarray | RadarVolume,
                mask: np.ndarray | None = None) -> RainField:
    """Convert reflectivity (dBZ) to rain rate via R = (10^(dBZ/10) / a)^(1/b).

    Takes a Z x Y x X dBZ array (one frame, not a whole RadarVolume). Values at
    or below the no-echo sentinel convert to exactly 0 mm/h; invalid cells
    come out as 0 with the mask cleared. The rates are computed in float64
    whatever the array's dtype, in one array of the result's size.
    """
    if isinstance(dbz, RadarVolume):
        raise TypeError("pass a single Z x Y x X frame, not a RadarVolume")
    arr = np.asarray(dbz)
    with np.errstate(over="ignore"):
        rain = np.divide(arr, 10.0, dtype=np.float64)
        np.power(10.0, rain, out=rain)
        rain /= MARSHALL_PALMER_A
        np.power(rain, 1.0 / MARSHALL_PALMER_B, out=rain)
    mask = np.isfinite(arr) if mask is None else \
        np.logical_and(mask, np.isfinite(arr))
    # NaN rates come only from NaN cells, which the mask clears
    np.copyto(rain, 0.0, where=~mask | (arr <= NO_ECHO_DBZ))
    return RainField(data=rain, mask=mask)


def volume_to_rain(vol: RadarVolume, t: int) -> RainField:
    """Rain-rate field for frame t of a volume, honoring the volume mask."""
    return dbz_to_rain(vol.data[t], mask=vol.mask)


def rain_to_dbz(r: RainField) -> np.ndarray:
    """Invert the Z-R relationship; rates mapping below NO_ECHO_DBZ (or zero
    rates) take the no-echo value."""
    with np.errstate(divide="ignore"):
        dbz = (10.0 * np.log10(MARSHALL_PALMER_A)
               + 10.0 * MARSHALL_PALMER_B * np.log10(r.data))
    # NaN and -inf take the no-echo value, +inf the largest float
    np.fmax(dbz, NO_ECHO_DBZ, out=dbz)
    return np.minimum(dbz, np.finfo(np.float64).max, out=dbz)


def rain_to_dbr(r: RainField) -> np.ndarray:
    """The field's rates in dBR, the Z x Y x X array SequenceObjective
    takes with r.mask: values above DBR_THRESHOLD_MMH map to 10*log10(R),
    values at or below map to the fixed floor."""
    with np.errstate(divide="ignore"):
        dbr = 10.0 * np.log10(np.maximum(r.data, 1e-300))
    return np.where(r.data > DBR_THRESHOLD_MMH, dbr, DBR_FLOOR)
