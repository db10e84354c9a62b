"""Core tensor types and grid primitives shared by all modules.

Axis order is fixed as T x Z x Y x X, row-major, everywhere in the package.
Validity is carried as explicit boolean masks (True = valid observation);
sentinel values are never stored inside float arrays. A RainField always
holds rain rate in mm/h; the dBR frames the objective compares are bare
arrays made by transform.rain_to_dbr.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_DT_SECONDS = 300

#: Reflectivity value used to represent "no echo" (the lower bound of the
#: 8-bit storage mapping).
NO_ECHO_DBZ = -32.0


#: Fixed lower bound of the dBR space the objective compares frames in;
#: rain rates at or below the dBR threshold map to this value exactly.
DBR_FLOOR = -15.0


@dataclass
class RadarVolume:
    """A T x Z x Y x X reflectivity tensor (dBZ) with altitude metadata.

    data keeps a float32 or float64 dtype and takes float64 otherwise; the
    library creates float32 volumes, RVOL's own precision, and consumers
    that do arithmetic on the reflectivity read it in float64. mask is
    Z x Y x X, static over time; rho_hv (copolar correlation coefficient in
    [0, 1]) is optional and matches data's full shape.
    """

    data: np.ndarray
    z_levels: np.ndarray
    dt: float = DEFAULT_DT_SECONDS
    mask: np.ndarray | None = None
    rho_hv: np.ndarray | None = None

    def __post_init__(self):
        data = np.asarray(self.data)
        self.data = np.asarray(data, dtype=np.float32 if data.dtype == np.float32
                               else np.float64)
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

    def __iter__(self):
        """The frames in order, each a one-frame RadarVolume with this
        volume's static mask and its rho_hv slice."""
        rho = self.rho_hv
        for t in range(self.data.shape[0]):
            yield RadarVolume(self.data[t:t + 1], self.z_levels, self.dt,
                              self.mask, None if rho is None else rho[t:t + 1])


@dataclass
class RainField:
    """A Z x Y x X rain-rate field in mm/h; the mask, when given, has the
    same shape.

    data keeps a float32 or float64 dtype and takes float64 otherwise, as
    RadarVolume's data does. volume_to_rain gives float64 rates; nowcast
    rounds them once to float32, RVOL's own precision, and advects them in
    float32. The consumers that compute with rates (rain_to_dbr, verify,
    cmax_field, cell_split_diagnostic) read them in float64, so a float32
    field gives its float64 copy's results.
    """

    data: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        data = np.asarray(self.data)
        self.data = np.asarray(data, dtype=np.float32 if data.dtype == np.float32
                               else np.float64)
        if self.data.ndim != 3:
            raise ValueError(f"data must be Z x Y x X, got shape {self.data.shape}")
        if self.mask is None:
            self.mask = np.ones(self.data.shape, dtype=bool)
        else:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.data.shape:
                raise ValueError(f"mask shape {self.mask.shape} != "
                                 f"Z x Y x X {self.data.shape}")
        # only finite valid values are checked
        if np.min(self.data, where=self.mask & np.isfinite(self.data),
                  initial=np.inf) < 0:
            raise ValueError("MMH field has negative valid values")

    @property
    def nz(self) -> int:
        return self.data.shape[0]


@dataclass
class MotionField:
    """Per-altitude stack of 2-D horizontal displacement fields.

    u has shape Z x 2 x Y x X; channel 0 is x-displacement (east, +columns),
    channel 1 is y-displacement (+rows internally, which renders as south in
    the usual display orientation). Units are grid cells per time step. One
    field per sequence: there is no time axis.

    u keeps a float32 or float64 dtype and takes float64 otherwise, as
    RadarVolume's data does. Synthetic truths and RMF1 reads are float32,
    RMF1's own precision; the estimator's result and zero() are float64;
    consumers that do arithmetic on the motion read it in float64.
    """

    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u)
        self.u = np.asarray(u, dtype=np.float32 if u.dtype == np.float32
                            else np.float64)
        if self.u.ndim != 4 or self.u.shape[1] != 2:
            raise ValueError(f"u must have shape Z x 2 x Y x X, got {self.u.shape}")
        # reductions allocate no copy of the field: NaN makes the maximum
        # NaN, and an infinity shows in the maximum or the minimum
        if self.u.size and not (np.isfinite(self.u.max())
                                and np.isfinite(self.u.min())):
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


def _pad_to_multiple(field: np.ndarray, k: int, edge: bool,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Pad the trailing two axes up to multiples of k.

    edge=True replicates the boundary (data); edge=False pads with zeros,
    which marks padded mask cells invalid. out, of the padded shape and
    field's dtype, receives the result when given; a field that needs no
    padding is returned as it is.
    """
    ny, nx = field.shape[-2:]
    py = (-ny) % k
    px = (-nx) % k
    if py == 0 and px == 0:
        return field
    if out is None:
        out = np.empty(field.shape[:-2] + (ny + py, nx + px), field.dtype)
    out[..., :ny, :nx] = field
    if edge:
        out[..., ny:, :nx] = field[..., ny - 1:, :]
        out[..., :, nx:] = out[..., :, nx - 1:nx]
    else:
        out[..., ny:, :] = 0
        out[..., :, nx:] = 0
    return out


def avg_pool2d(field: np.ndarray, k: int, out: np.ndarray | None = None,
               padded: np.ndarray | None = None,
               row: np.ndarray | None = None) -> np.ndarray:
    """Block-average the trailing two axes by factor k.

    Non-divisible sizes are padded by edge replication before pooling; use
    pool_mask_all on the matching mask so padded blocks come out invalid.
    k=1 is the identity. A floating field keeps its dtype, any other is
    pooled in float64. The result is NumPy's mean over each block, bit for
    bit. out (the result), padded (the field edge-padded to multiples of
    k, used only when k does not divide its trailing axes) and row (an
    array of the result's shape) may be caller-owned buffers.
    """
    if k <= 0:
        raise ValueError(f"pooling factor must be >= 1, got {k}")
    field = np.asarray(field)
    if not np.issubdtype(field.dtype, np.floating):
        field = field.astype(np.float64)
    if k == 1:
        return field.copy()
    field = _pad_to_multiple(field, k, edge=True, out=padded)
    ny, nx = field.shape[-2:]
    if k >= 8:
        # NumPy sums 8 or more cells of a block row pairwise
        return field.reshape(field.shape[:-2] + (ny // k, k, nx // k, k)) \
            .mean(axis=(-3, -1), out=out)
    # A reduction over two short axes runs several times slower than
    # these k * k strided additions, which keep its order: each block row
    # summed from 0.0 cell by cell, then the row sums added from 0.0.
    shape = field.shape[:-2] + (ny // k, nx // k)
    out = np.empty(shape, field.dtype) if out is None else out
    row = np.empty(shape, field.dtype) if row is None else row
    for i in range(k):
        total = out if i == 0 else row
        np.add(0.0, field[..., i::k, 0::k], out=total)
        for j in range(1, k):
            total += field[..., i::k, j::k]
        if i:
            out += row
    out /= k * k
    return out


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


def bilinear_geometry(xs: np.ndarray, ys: np.ndarray, h: int, w: int,
                      pad: int = 0, out: tuple | None = None) -> tuple:
    """Corner geometry of the points (xs, ys) in H x W planes: the four flat
    corner indices (i00, i01, i10, i11) and the weights (cx, wx, cy, wy).

    The corners of a point are floor(x) + pad and the cell after it on each
    axis, clamped to the array edge; a stack padded by ``pad`` cells before
    each axis is thus sampled at unpadded coordinates. Coordinates are
    clamped in floating point before the integer cast, so huge departures
    land on the edge without a cast warning. out, a geometry returned by an
    earlier call for points of the same shape, is overwritten and returned
    instead of allocating a new one.
    """
    if out is None:
        shape = np.broadcast_shapes(np.shape(xs), np.shape(ys))
        out = (tuple(np.empty(shape, np.int64) for _ in range(4)),
               *(np.empty(shape) for _ in range(4)))
    (i00, i01, i10, i11), cx, wx, cy, wy = out
    x0 = np.floor(xs, out=cx)
    y0 = np.floor(ys, out=cy)
    np.subtract(xs, x0, out=wx)
    np.subtract(ys, y0, out=wy)
    # i00 = first column, i01 = the column after it, i10 = first row's
    # offset, i11 = the step to the row after it (w, or 0 on the last row)
    _clamp_cast(np.add(x0, pad, out=x0), w, i00)
    np.minimum(np.add(i00, 1, out=i01), w - 1, out=i01)
    _clamp_cast(np.add(y0, pad, out=y0), h, i10)
    np.minimum(np.add(i10, 1, out=i11), h - 1, out=i11)
    np.subtract(i11, i10, out=i11)
    np.multiply(i11, w, out=i11)
    np.multiply(i10, w, out=i10)
    # top corners = row offset + column; bottom corners = top + row step
    np.add(i00, i10, out=i00)
    np.add(i01, i10, out=i01)
    np.add(i00, i11, out=i10)
    np.add(i01, i11, out=i11)
    np.subtract(1, wx, out=cx)
    np.subtract(1, wy, out=cy)
    return out


def _clamp_cast(coord: np.ndarray, n: int, out: np.ndarray) -> None:
    """out = coord clamped to [0, n - 1] and cast to integer; coord is
    overwritten."""
    np.minimum(np.maximum(coord, 0, out=coord), n - 1, out=coord)
    np.copyto(out, coord, casting="unsafe")


def bilinear_apply(planes: np.ndarray, geometry: tuple,
                   want_grad: bool = False, out: np.ndarray | None = None,
                   work: list[np.ndarray] | None = None):
    """The package's one bilinear kernel: samples of a (..., H, W) stack at
    the points whose bilinear_geometry is given, shared by every plane of
    the stack. Returns (samples, d/dx, d/dy), each of shape
    planes.shape[:-2] + the points' shape, the derivatives with respect to
    the sample point being None unless want_grad.

    out (the samples) and work (six arrays: four corners, two products),
    all of the samples' shape, may be caller-owned buffers reused across
    calls; the arithmetic is the same with or without them. Buffers the
    call allocates take the common dtype of the planes and the weights.
    The two derivatives are returned in work[4] and work[5].
    """
    corners, cx, wx, cy, wy = geometry
    shape = planes.shape[:-2] + corners[0].shape
    dtype = np.result_type(planes, cx)
    if out is None:
        out = np.empty(shape, dtype)
    if work is None:
        work = [np.empty(shape, dtype) for _ in range(6)]
    # gather from the flattened planes: one index array per corner; the
    # indices are in range by construction, and mode="clip" lets take
    # write into the buffer directly
    flat = planes.reshape(planes.shape[:-2] + (-1,))
    f00, f01, f10, f11 = (flat.take(i, axis=-1, out=buf, mode="clip")
                          for i, buf in zip(corners, work))
    a, b = work[4:]
    # out = cy * (cx * f00 + wx * f01) + wy * (cx * f10 + wx * f11)
    top = np.add(np.multiply(cx, f00, out=a), np.multiply(wx, f01, out=b),
                 out=a)
    bottom = np.add(np.multiply(cx, f10, out=b),
                    np.multiply(wx, f11, out=out), out=b)
    np.add(np.multiply(cy, top, out=a), np.multiply(wy, bottom, out=b),
           out=out)
    if not want_grad:
        return out, None, None
    # gx = cy * (f01 - f00) + wy * (f11 - f10), into a
    gx = np.add(np.multiply(cy, np.subtract(f01, f00, out=a), out=a),
                np.multiply(wy, np.subtract(f11, f10, out=b), out=b), out=a)
    # gy = cx * (f10 - f00) + wx * (f11 - f01), into b; the corner samples
    # are dead after their last use here
    gy = np.add(np.multiply(cx, np.subtract(f10, f00, out=f00), out=f00),
                np.multiply(wx, np.subtract(f11, f01, out=f01), out=f01),
                out=b)
    return out, gx, gy


def inside(xs: np.ndarray, ys: np.ndarray, ny: int, nx: int,
           out: np.ndarray | None = None,
           work: np.ndarray | None = None) -> np.ndarray:
    """Points (xs, ys) inside an ny x nx domain, edges included; a cell
    whose departure point is outside is invalid. out (the result) and work
    (one boolean array of the points' shape) may be caller-owned buffers."""
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(xs), np.shape(ys)), bool)
    test = np.empty(out.shape, bool) if work is None else work
    np.greater_equal(xs, 0, out=out)
    out &= np.less_equal(xs, nx - 1, out=test)
    out &= np.greater_equal(ys, 0, out=test)
    out &= np.less_equal(ys, ny - 1, out=test)
    return out


def mask_geometry(xs: np.ndarray, ys: np.ndarray, ny: int, nx: int,
                  out: tuple | None = None,
                  work: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-cell flat index of the points (xs, ys) in an ny x nx domain,
    clamped to its edge, and whether each point is inside it.

    out (a geometry of an earlier call for points of the same shape) and
    work (a float, an integer and a boolean array of the points' shape) may
    be caller-owned buffers; the results are the same with or without them.
    """
    shape = np.broadcast_shapes(np.shape(xs), np.shape(ys))
    nearest, valid = out or (np.empty(shape, np.int64), None)
    coord, column, test = work or (np.empty(shape), np.empty(shape, np.int64),
                                   None)
    np.copyto(column, np.clip(np.rint(xs, out=coord), 0, nx - 1, out=coord),
              casting="unsafe")
    np.copyto(nearest, np.clip(np.rint(ys, out=coord), 0, ny - 1, out=coord),
              casting="unsafe")
    np.add(np.multiply(nearest, nx, out=nearest), column, out=nearest)
    return nearest, inside(xs, ys, ny, nx, out=valid, work=test)


def mask_apply(masks: np.ndarray, geometry: tuple[np.ndarray, np.ndarray],
               out: np.ndarray | None = None) -> np.ndarray:
    """Nearest-cell lookup of a (..., Y, X) validity stack at the points
    whose mask_geometry is given; False wherever the point leaves the
    domain."""
    nearest, valid = geometry
    flat = masks.reshape(masks.shape[:-2] + (-1,))
    # the indices are in range by construction; mode="clip" lets take
    # write into out directly
    out = flat.take(nearest, axis=-1, out=out, mode="clip")
    return np.logical_and(valid, out, out=out)


def column_max(data: np.ndarray, where: np.ndarray, mask: np.ndarray,
               fill) -> tuple[np.ndarray, np.ndarray]:
    """The column-maximum rule on a bare (..., Z, Y, X) array: the maximum
    over the levels of the cells where `where` (broadcast to data) holds, in
    data's dtype with the level axis kept, and the pooled Z x Y x X
    validity mask (a column with any valid cell). A column without a valid
    cell holds fill; a valid one where nothing is taken holds the dtype's
    lowest value (-inf for floats). data is not written.
    """
    lowest = -np.inf if data.dtype.kind == "f" else np.iinfo(data.dtype).min
    data = data.max(axis=-3, keepdims=True, where=where, initial=lowest)
    mask = mask.any(axis=0, keepdims=True)
    np.copyto(data, fill, where=~mask)
    return data, mask


def cmax(vol: RadarVolume) -> RadarVolume:
    """Column-maximum composite: max over all altitude levels (Z -> 1).

    The maximum is taken over the valid, finite cells of a column, the
    cells that volume_to_rain converts; an output cell is invalid only when
    every cell of its column is invalid, and a valid one without a finite
    valid cell holds -inf, which converts to an invalid cell. So
    volume_to_rain(cmax(vol), t) equals cmax_field(volume_to_rain(vol, t)),
    the Z-R map being monotone. z_levels become the top level. rho_hv is
    dropped: the quality field has no defined pooling semantics.
    """
    data, mask = column_max(vol.data, vol.mask & np.isfinite(vol.data),
                            vol.mask, NO_ECHO_DBZ)
    return RadarVolume(data=data, z_levels=vol.z_levels.max(keepdims=True),
                       dt=vol.dt, mask=mask)


def cmax_field(f: RainField) -> RainField:
    """Column maximum of a RainField over its valid cells, finite or not.
    The result is float64 whatever the field's dtype: a maximum is exact,
    so a float32 field gives its float64 copy's bytes."""
    data, mask = column_max(f.data, f.mask, f.mask, 0.0)
    return RainField(data=data.astype(np.float64, copy=False), mask=mask)
