"""Unit conversions: reflectivity to rain rate and back, and rain rate to
the dBR arrays the objective compares.

The Z-R relationship is Z = a * R^b with the Marshall-Palmer constants
MARSHALL_PALMER_A = 200 and MARSHALL_PALMER_B = 1.6. The dBR floor threshold
is 10**-1.5 mm/h so the mapping is continuous at the floor (-15 dBR). dBR is
one-way: nothing converts it back, and no RainField holds it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import DBR_FLOOR, NO_ECHO_DBZ, RadarVolume, RainField

MARSHALL_PALMER_A = 200.0
MARSHALL_PALMER_B = 1.6

#: Rain rate whose dBR value is exactly the floor; rates at or below map
#: to the floor.
DBR_THRESHOLD_MMH = 10.0 ** (DBR_FLOOR / 10.0)

#: The least float64 rain rate that rounds to float32 infinity: halfway
#: between float32's largest value and 2**128, a tie that rounds to 2**128.
F32_OVERFLOW_MMH = 2.0 ** 128 - 2.0 ** 103


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


@lru_cache
def dbz_reaching(rate: float, dtype: type = np.float32) -> np.floating:
    """The least finite reflectivity of the dtype (float32 or float64)
    whose dbz_to_rain rate is at or above rate mm/h.

    It is searched for over the dtype's finite values in order, taken as
    their bit patterns, with dbz_to_rain itself: each round converts 257
    evenly spaced candidates in one call and keeps the span below the
    first that reaches the rate, so float32 takes 4 rounds and float64 8.
    dbz_to_rain is monotone, so for finite dBZ d of that dtype,
    dbz_to_rain(d) >= rate exactly where d >= the result, and a threshold
    in mm/h can be compared in dBZ with no frame converted. For a rate
    above 0 mm/h the result is above NO_ECHO_DBZ. A rate that no finite
    value reaches is a ValueError.
    """
    dtype = np.dtype(dtype)
    ints = np.dtype(f"i{dtype.itemsize}")

    def values(ks: list[int]) -> np.ndarray:
        # the k-th finite value above +0.0, or the -k-th below it for k < 0
        k = np.array(ks, ints)
        v = np.abs(k).view(dtype)
        return np.where(k < 0, -v, v)

    top = int(np.array(np.finfo(dtype).max, dtype).view(ints))
    lo, hi = -top, top
    while True:
        ks = sorted({lo + (hi - lo) * i // 256 for i in range(257)})
        reached = dbz_to_rain(values(ks)[None, None]).data[0, 0] >= rate
        if not reached[-1]:
            raise ValueError(f"no finite {dtype} reflectivity reaches "
                             f"{rate} mm/h")
        first = int(np.argmax(reached))
        if first == 0:
            return values([lo])[0]
        lo, hi = ks[first - 1] + 1, ks[first]
        if lo == hi:
            return values([hi])[0]


def volume_to_rain(vol: RadarVolume, t: int) -> RainField:
    """Rain-rate field for frame t of a volume, honoring the volume mask."""
    return dbz_to_rain(vol.data[t], mask=vol.mask)


def rain_to_dbz(rates: np.ndarray) -> np.ndarray:
    """Invert the Z-R relationship on an array of rates (mm/h), computed in
    the array's dtype: float32 rates give float32 dBZ, any other dtype
    float64. Rates mapping below NO_ECHO_DBZ (or zero rates) take the
    no-echo value, +inf the dtype's largest float."""
    rates = np.asarray(rates)
    dtype = np.float32 if rates.dtype == np.float32 else np.float64
    with np.errstate(divide="ignore"):
        dbz = np.log10(rates, dtype=dtype)
    # the constants in the result's dtype: a float64 scalar would promote
    dbz *= dtype(10.0 * MARSHALL_PALMER_B)
    dbz += dtype(10.0 * np.log10(MARSHALL_PALMER_A))
    # NaN and -inf take the no-echo value, +inf the largest float
    np.fmax(dbz, NO_ECHO_DBZ, out=dbz)
    return np.minimum(dbz, np.finfo(dtype).max, out=dbz)


def rain_to_dbr(r: RainField) -> np.ndarray:
    """The field's rates in dBR, the Z x Y x X float64 array
    SequenceObjective takes with r.mask: values above DBR_THRESHOLD_MMH
    map to 10*log10(R), values at or below map to the fixed floor. A
    float32 field is read in float64, so it gives its float64 copy's
    bytes. A valid rate must be finite: NaN or an infinity in a valid cell
    is a ValueError that counts such cells; an invalid cell may hold
    anything."""
    bad = np.count_nonzero(r.mask & ~np.isfinite(r.data))
    if bad:
        raise ValueError(f"{bad} valid cell(s) hold a non-finite rain rate; "
                         "dBR takes finite rates only")
    data = r.data.astype(np.float64, copy=False)
    with np.errstate(divide="ignore"):
        dbr = 10.0 * np.log10(np.maximum(data, 1e-300))
    return np.where(data > DBR_THRESHOLD_MMH, dbr, DBR_FLOOR)
