"""Core tensor types and grid primitives shared by all modules.

Axis order is fixed as T x Z x Y x X, row-major, everywhere in the package.
Validity is carried as explicit boolean masks (True = valid observation);
sentinel values are never stored inside float arrays.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

DEFAULT_DT_SECONDS = 300

#: Reflectivity value used to represent "no echo" (the lower bound of the
#: 8-bit storage mapping).
NO_ECHO_DBZ = -32.0


class Space(enum.Enum):
    """Unit space of a precipitation field."""

    MMH = "mmh"
    DBR = "dbr"


#: Fixed lower bound of the dBR space; rain rates at or below the dBR
#: threshold map to this value exactly.
DBR_FLOOR = -15.0


@dataclass
class RadarVolume:
    """A T x Z x Y x X reflectivity tensor (dBZ) with altitude metadata.

    mask is Z x Y x X, static over time; rho_hv (copolar correlation
    coefficient in [0, 1]) is optional and matches data's full shape.
    """

    data: np.ndarray
    z_levels: np.ndarray
    dt: float = DEFAULT_DT_SECONDS
    mask: np.ndarray | None = None
    rho_hv: np.ndarray | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 4:
            raise ValueError(f"data must be 4-D T x Z x Y x X, got shape {self.data.shape}")
        t, z, y, x = self.data.shape
        self.z_levels = np.asarray(self.z_levels, dtype=np.float64)
        if self.z_levels.shape != (z,):
            raise ValueError(f"z_levels length {self.z_levels.size} != Z={z}")
        if z > 1 and not np.all(np.diff(self.z_levels) > 0):
            raise ValueError("z_levels must be strictly increasing")
        if self.mask is None:
            self.mask = np.ones((z, y, x), dtype=bool)
        else:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != (z, y, x):
                raise ValueError(f"mask shape {self.mask.shape} != {(z, y, x)}")
        if self.rho_hv is not None:
            self.rho_hv = np.asarray(self.rho_hv, dtype=np.float64)
            if self.rho_hv.shape != self.data.shape:
                raise ValueError("rho_hv shape must match data shape")

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    def frame(self, t: int) -> np.ndarray:
        """Z x Y x X reflectivity slice at time index t."""
        return self.data[t]


@dataclass
class RainField:
    """A Z x Y x X field in mm/h or dBR space, tagged with its unit space.

    2-D input is promoted to Z=1. The mask may be given as 2-D (shared across
    levels) or 3-D.
    """

    data: np.ndarray
    space: Space
    mask: np.ndarray | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim == 2:
            self.data = self.data[None, :, :]
        if self.data.ndim != 3:
            raise ValueError(f"data must be 2-D or 3-D, got shape {self.data.shape}")
        if self.mask is None:
            self.mask = np.ones(self.data.shape, dtype=bool)
        else:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.ndim == 2:
                self.mask = np.broadcast_to(self.mask[None], self.data.shape).copy()
            if self.mask.shape != self.data.shape:
                raise ValueError(f"mask shape {self.mask.shape} != {self.data.shape}")
        valid = self.data[self.mask]
        valid = valid[np.isfinite(valid)]
        if valid.size:
            if self.space is Space.MMH and valid.min() < 0:
                raise ValueError("MMH field has negative valid values")
            if self.space is Space.DBR and valid.min() < DBR_FLOOR - 1e-9:
                raise ValueError(f"DBR field has valid values below {DBR_FLOOR}")

    @property
    def nz(self) -> int:
        return self.data.shape[0]

    @property
    def fill_value(self) -> float:
        """The no-echo value of this field's unit space."""
        return 0.0 if self.space is Space.MMH else DBR_FLOOR


@dataclass
class MotionField:
    """Per-altitude stack of 2-D horizontal displacement fields.

    u has shape Z x 2 x Y x X; channel 0 is x-displacement (east, +columns),
    channel 1 is y-displacement (+rows internally, which renders as south in
    the usual display orientation). Units are grid cells per time step. One
    field per sequence: there is no time axis.
    """

    u: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)
        if self.u.ndim == 3 and self.u.shape[0] == 2:
            self.u = self.u[None]
        if self.u.ndim != 4 or self.u.shape[1] != 2:
            raise ValueError(f"u must have shape Z x 2 x Y x X, got {self.u.shape}")
        if not np.all(np.isfinite(self.u)):
            raise ValueError("motion field must be finite everywhere")

    @property
    def nz(self) -> int:
        return self.u.shape[0]

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.u.shape[2], self.u.shape[3]

    def level(self, z: int) -> tuple[np.ndarray, np.ndarray]:
        """(u_x, u_y) pair at altitude index z."""
        return self.u[z, 0], self.u[z, 1]

    @classmethod
    def zero(cls, nz: int, ny: int, nx: int) -> "MotionField":
        return cls(np.zeros((nz, 2, ny, nx)))


def _pad_to_multiple(field: np.ndarray, k: int, edge: bool) -> np.ndarray:
    """Pad the trailing two axes up to multiples of k.

    edge=True replicates the boundary (data); edge=False pads with zeros,
    which marks padded mask cells invalid.
    """
    ny, nx = field.shape[-2:]
    py = (-ny) % k
    px = (-nx) % k
    if py == 0 and px == 0:
        return field
    width = [(0, 0)] * (field.ndim - 2) + [(0, py), (0, px)]
    if edge:
        return np.pad(field, width, mode="edge")
    return np.pad(field, width, mode="constant", constant_values=False)


def avg_pool2d(field: np.ndarray, k: int) -> np.ndarray:
    """Block-average the trailing two axes by factor k.

    Non-divisible sizes are padded by edge replication before pooling; use
    pool_mask_all on the matching mask so padded blocks come out invalid.
    k=1 is the identity.
    """
    if k <= 0:
        raise ValueError(f"pooling factor must be >= 1, got {k}")
    field = np.asarray(field, dtype=np.float64)
    if k == 1:
        return field.copy()
    field = _pad_to_multiple(field, k, edge=True)
    ny, nx = field.shape[-2:]
    shape = field.shape[:-2] + (ny // k, k, nx // k, k)
    return field.reshape(shape).mean(axis=(-3, -1))


def pool_mask_all(mask: np.ndarray, k: int) -> np.ndarray:
    """Pool a boolean mask: a block is valid only if all its cells are valid.

    Padding introduced for non-divisible sizes is invalid by construction.
    """
    if k <= 0:
        raise ValueError(f"pooling factor must be >= 1, got {k}")
    mask = np.asarray(mask, dtype=bool)
    if k == 1:
        return mask.copy()
    mask = _pad_to_multiple(mask, k, edge=False)
    ny, nx = mask.shape[-2:]
    shape = mask.shape[:-2] + (ny // k, k, nx // k, k)
    return mask.reshape(shape).all(axis=(-3, -1))


def upsample2d(field: np.ndarray, k: int) -> np.ndarray:
    """Block-replicate the trailing two axes by factor k (adjoint layout of
    avg_pool2d)."""
    if k == 1:
        return np.asarray(field, dtype=np.float64).copy()
    return np.repeat(np.repeat(field, k, axis=-2), k, axis=-1)


def bilinear_sample(planes: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                    pad: int = 0, want_grad: bool = False):
    """The package's one bilinear kernel: samples of a (..., H, W) stack of
    planes at the points (xs, ys), shared by every plane of the stack.

    The corners of a point are floor(x) + pad and the cell after it on each
    axis, clamped to the array edge; a stack padded by ``pad`` cells before
    each axis is thus sampled at unpadded coordinates. Coordinates are
    clamped in floating point before the integer cast, so huge departures
    land on the edge without a cast warning. Returns (samples, d/dx, d/dy),
    each of shape planes.shape[:-2] + the points' shape, the derivatives
    with respect to the sample point being None unless want_grad.
    """
    h, w = planes.shape[-2:]
    x0 = np.floor(xs)
    y0 = np.floor(ys)
    wx = xs - x0
    wy = ys - y0
    x0i = np.minimum(np.maximum(x0 + pad, 0), w - 1).astype(np.int64)
    y0i = np.minimum(np.maximum(y0 + pad, 0), h - 1).astype(np.int64)
    x1i = np.minimum(x0i + 1, w - 1)
    row0 = y0i * w
    row1 = np.minimum(y0i + 1, h - 1) * w

    # gather from the flattened planes: one index array per corner
    flat = planes.reshape(planes.shape[:-2] + (h * w,))
    f00 = flat.take(row0 + x0i, axis=-1)
    f01 = flat.take(row0 + x1i, axis=-1)
    f10 = flat.take(row1 + x0i, axis=-1)
    f11 = flat.take(row1 + x1i, axis=-1)
    cx = 1 - wx
    cy = 1 - wy
    out = cy * (cx * f00 + wx * f01) + wy * (cx * f10 + wx * f11)
    if not want_grad:
        return out, None, None
    gx = cy * (f01 - f00) + wy * (f11 - f10)
    gy = cx * (f10 - f00) + wx * (f11 - f01)
    return out, gx, gy


def inside(xs: np.ndarray, ys: np.ndarray, ny: int, nx: int) -> np.ndarray:
    """Points (xs, ys) inside an ny x nx domain, edges included; a cell
    whose departure point is outside is invalid."""
    return (xs >= 0) & (xs <= nx - 1) & (ys >= 0) & (ys <= ny - 1)


def sample_mask(masks: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Nearest-cell lookup of a (..., Y, X) validity stack at the points
    (xs, ys); False wherever the point leaves the domain."""
    ny, nx = masks.shape[-2:]
    xn = np.clip(np.rint(xs), 0, nx - 1).astype(np.int64)
    yn = np.clip(np.rint(ys), 0, ny - 1).astype(np.int64)
    return inside(xs, ys, ny, nx) & masks[..., yn, xn]


def max_pool_vertical(vol: RadarVolume, factor: int) -> RadarVolume:
    """Max-pool adjacent altitude groups of size factor.

    Invalid cells are treated as -inf; an output cell is invalid only when
    every cell of its group is invalid. z_levels become the group maxima.
    factor = Z produces the column-maximum (CMAX) composite. rho_hv is
    dropped: the quality field has no defined pooling semantics.
    """
    t, z, ny, nx = vol.shape
    if factor <= 0 or z % factor != 0:
        raise ValueError(f"Z={z} not divisible by pooling factor {factor}")
    zp = z // factor
    data = np.where(vol.mask[None], vol.data, -np.inf)
    data = data.reshape(t, zp, factor, ny, nx).max(axis=2)
    mask = vol.mask.reshape(zp, factor, ny, nx).any(axis=1)
    # all-invalid groups hold -inf; replace with the no-echo sentinel
    data = np.where(mask[None], data, NO_ECHO_DBZ)
    levels = vol.z_levels.reshape(zp, factor).max(axis=1)
    return RadarVolume(data=data, z_levels=levels, dt=vol.dt, mask=mask)


def cmax(vol: RadarVolume) -> RadarVolume:
    """Column-maximum composite: max over all altitude levels (Z -> 1)."""
    return max_pool_vertical(vol, vol.shape[1])


def cmax_field(f: RainField) -> RainField:
    """Column maximum of a RainField over its valid cells (Z -> 1)."""
    fill = f.fill_value
    data = np.where(f.mask, f.data, -np.inf).max(axis=0, keepdims=True)
    mask = f.mask.any(axis=0, keepdims=True)
    data = np.where(mask, data, fill)
    return RainField(data=data, space=f.space, mask=mask)
