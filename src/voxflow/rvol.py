"""Binary file formats for radar volumes (RVOL) and motion fields (RMF1).

RVOL layout, little-endian:
    magic "RVOL" | u8 version (0x01)
    u32 T, Z, Y, X | u8 dtype (0 = f32, 1 = u8 quantized) | u32 dt_seconds
    Z x f32 altitudes (m), finite and strictly increasing
    payload row-major [t][z][y][x]:
        dtype 0: f32, invalid cells stored as NaN
        dtype 1: u8 with dBZ = v/2 - 32 (covers [-32, 95] in 0.5 dBZ steps),
                 v = 255 reserved for invalid
    optional trailing chunk "RHOH": u8 payload [t][z][y][x], rho_hv = v/200
        with v in [0, 200], which ends the file

RMF1 layout, little-endian:
    magic "RMF1" | u32 Z, Y, X | f32 payload [z][component][y][x]
    (component 0 = x-displacement, 1 = y-displacement, grid cells per step)
    read_motion returns the payload as a float32 MotionField, in the buffer
    it is read into.

Every dimension lies in [1, MAX_DIM]. Each field rule is one function, so
the readers (FormatError) refuse what the writers (ValueError) refuse.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import FormatError
from .grid import (NO_ECHO_DBZ, MotionField, RadarVolume, all_finite,
                   column_max, float32_altitudes)
from .output import open_output

RVOL_MAGIC = b"RVOL"
RVOL_VERSION = 1
RHOH_MAGIC = b"RHOH"
RMF_MAGIC = b"RMF1"

DTYPE_F32 = 0
DTYPE_U8 = 1

MAX_DIM = 100_000

_RVOL_HEADER = struct.Struct("<4sBIIIIBI")  # up to the altitudes
_RMF_HEADER = struct.Struct("<4sIII")  # up to the payload


def _check_dims(kind: str, names: str, dims, reading: bool = False) -> None:
    """Each of dims, named by names, in [1, MAX_DIM]: the first outside is
    a FormatError naming it when reading, else a ValueError."""
    for name, dim in zip(names, dims):
        if not 1 <= dim <= MAX_DIM:
            raise (FormatError(name, f"implausible dimension {dim}") if reading
                   else ValueError(f"{kind} dimension {name}={dim} is outside "
                                   f"[1, {MAX_DIM}]"))


def _quantize_dbz(data: np.ndarray, invalid: np.ndarray) -> np.ndarray:
    """u8 codes; invalid and non-finite cells get 255, as an f32 read has it.
    A value is coded as the float32 that an f32 payload stores, so a float64
    volume and its float32 copy get the same codes; (x + 32) * 2 of a
    float32 x is exact in float64."""
    invalid = invalid | ~np.isfinite(data)
    with np.errstate(over="ignore"):  # beyond float32's range is inf: 254
        x = np.where(invalid, NO_ECHO_DBZ, data).astype(np.float32, copy=False)
    v = np.rint(np.add(x, 32.0, dtype=np.float64) * 2.0)
    v = np.clip(v, 0, 254).astype(np.uint8)
    v[invalid] = 255
    return v


def _decode(raw: np.ndarray) -> np.ndarray:
    """float32 dBZ of stored f32 or u8 values, NO_ECHO_DBZ where they are
    invalid. An f32 buffer is decoded in place and returned; a u8 buffer is
    consumed, and its codes decoded into one new float32 array."""
    if raw.dtype == np.uint8:
        # (v + 1) / 2 - 32.5 is v/2 - 32, exact in float32. The invalid code
        # 255 wraps to 0 in the u8 add, and the floor at NO_ECHO_DBZ, code
        # 0's value, decodes it as NO_ECHO_DBZ. Every step is elementwise
        # in place: a table lookup, or a ufunc taking the u8 codes, would
        # cast them through a temporary on the way.
        raw += 1
        out = raw.astype(np.float32)
        out *= 0.5
        out -= 32.5
        return np.maximum(out, NO_ECHO_DBZ, out=out)
    np.copyto(raw, NO_ECHO_DBZ, where=~np.isfinite(raw))
    return raw


def _check_rho_finite(rho: np.ndarray) -> None:
    """A ValueError if rho holds a non-finite value, which RHOH cannot store."""
    if not all_finite(rho):
        raise ValueError("rho_hv holds non-finite values, which RVOL "
                         "cannot store")


class RvolWriter:
    """An RVOL file written one (t, z) reflectivity plane at a time.

    Opening writes the header and the altitudes. A dimension or altitude
    that RvolReader would reject, or a dt that does not round into the
    header's u32, is a ValueError, raised before the file is opened; a
    header write that raises removes the file. write() stores
    a plane at its offset in the payload, in any order, as f32 or, with
    quantize, as u8; a (t, z) outside the volume, or a plane or validity of
    another shape, is a ValueError, raised before the seek. Used as a
    context manager, the writer removes its file when the block raises or
    leaves a plane unwritten, so no partial volume is left behind.
    """

    def __init__(self, path: str | Path, shape: tuple[int, int, int, int],
                 z_levels: np.ndarray, dt: float, quantize: bool = False):
        _check_dims("RVOL", "TZYX", shape)
        if not (math.isfinite(dt) and 0 <= round(dt) < 2**32):
            raise ValueError(f"RVOL time step dt={dt} does not round into "
                             f"[0, {2**32 - 1}] seconds")
        levels = float32_altitudes(z_levels, shape[1])
        self.path, self.shape = Path(path), tuple(shape)
        self._dtype = DTYPE_U8 if quantize else DTYPE_F32
        self._plane_bytes = (1 if quantize else 4) * shape[2] * shape[3]
        self._unwritten = np.ones(shape[:2], dtype=bool)
        self._fh = fh = open_output(path, "wb", open)
        try:
            fh.write(_RVOL_HEADER.pack(RVOL_MAGIC, RVOL_VERSION, *shape,
                                       self._dtype, int(round(dt))))
            fh.write(levels.astype("<f4", copy=False))
        except BaseException:
            fh.close()
            self.path.unlink(missing_ok=True)
            raise
        self._payload = fh.tell()

    def write(self, t: int, z: int, dbz: np.ndarray,
              valid: np.ndarray) -> None:
        """Store plane (t, z) of the reflectivity, invalid where valid,
        taken as bool, is False."""
        if not (0 <= t < self.shape[0] and 0 <= z < self.shape[1]):
            raise ValueError(f"plane ({t}, {z}) is outside the "
                             f"{self.shape[0]} x {self.shape[1]} planes")
        valid = np.asarray(valid, dtype=bool)
        if dbz.shape != self.shape[2:] or valid.shape != self.shape[2:]:
            raise ValueError(f"plane shape {dbz.shape} and valid shape "
                             f"{valid.shape} must be {self.shape[2:]}")
        if self._dtype == DTYPE_F32:
            plane = np.where(valid, dbz, np.float32(np.nan)).astype("<f4", copy=False)
        else:
            plane = _quantize_dbz(dbz, ~valid)
        self._fh.seek(self._payload
                      + (t * self.shape[1] + z) * self._plane_bytes)
        self._fh.write(plane)
        self._unwritten[t, z] = False

    def write_rho_hv(self, rho: np.ndarray) -> None:
        """Append the RHOH chunk of a T x Z x Y x X rho_hv after the
        payload, converted one frame at a time. A rho_hv of another shape,
        or with a non-finite value, which RHOH cannot store, is a
        ValueError, raised before anything is written."""
        rho = np.asarray(rho)
        if rho.shape != self.shape:
            raise ValueError(f"rho_hv shape {rho.shape} must be {self.shape}")
        _check_rho_finite(rho)
        self._fh.seek(self._payload + self._unwritten.size * self._plane_bytes)
        self._fh.write(RHOH_MAGIC)
        code = None  # the first frame's product, reused by the others
        for frame in rho:
            code = np.multiply(frame, 200.0, out=code)
            np.clip(np.rint(code, out=code), 0, 200, out=code)
            self._fh.write(code.astype(np.uint8))

    def __enter__(self) -> RvolWriter:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._fh.close()
        if exc_type is None and not self._unwritten.any():
            return
        self.path.unlink(missing_ok=True)
        if exc_type is None:
            raise ValueError(f"{np.count_nonzero(self._unwritten)} RVOL "
                             "planes were never written")


def write_rvol(path: str | Path, vol: RadarVolume, quantize: bool = False) -> None:
    """Write vol as RVOL, its reflectivity as f32 or, with quantize, as u8:
    RvolWriter's whole-volume case. A non-finite rho_hv value, which RHOH
    cannot store, is a ValueError, raised before the file is opened."""
    if vol.rho_hv is not None:
        _check_rho_finite(vol.rho_hv)
    with RvolWriter(path, vol.shape, vol.z_levels, vol.dt, quantize) as out:
        for t, z in np.ndindex(vol.shape[:2]):
            out.write(t, z, vol.data[t, z], vol.mask[z])
        if vol.rho_hv is not None:
            out.write_rho_hv(vol.rho_hv)


def _read_into(fh, buf, what: str = "payload"):
    """buf filled from fh; a short read is a truncated-file FormatError."""
    n = memoryview(buf).nbytes
    if fh.readinto(buf) != n:
        raise FormatError(what, f"truncated file: expected {n} bytes")
    return buf


def _read_header(fh, layout: struct.Struct, magic: bytes) -> tuple:
    """The fields of layout after its magic, which is checked first, so a
    file of another format fails on it, then the header's length."""
    raw = fh.read(layout.size)
    if raw[:4] != magic:
        raise FormatError("magic", f"expected {magic!r}, got {raw[:4]!r}")
    if len(raw) != layout.size:
        raise FormatError("header", f"truncated file: expected "
                                    f"{layout.size} bytes")
    return layout.unpack(raw)[1:]


def _check_size(fh, declared: int, what: str = "payload") -> None:
    """Reject a header whose declared remainder outruns the file before
    anything that large is allocated."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if declared > left:
        raise FormatError(what, f"header declares {declared} more bytes, "
                                f"file holds {left}")


class RvolHeader(NamedTuple):
    """The fixed-size RVOL header: dimensions, dtype code and time step."""

    t: int
    z: int
    y: int
    x: int
    dtype: int
    dt_seconds: int


class RvolReader:
    """An open RVOL file whose frames are decoded when they are read.

    Opening reads and checks the header, the altitudes and where the
    payload and the optional RHOH chunk lie, and that nothing follows them;
    it does not read the payload. The static mask covers every frame: the
    first read() or read_cmax() checks every frame's stored values for
    invalid cells (non-finite f32, u8 255) and its RHOH codes (one above 200
    is a FormatError), a frame at a time and undecoded; later reads reuse it.

    Frames are decoded to float32 dBZ, RVOL's own precision: an f32 payload
    in the buffer it is read into, u8 codes by elementwise arithmetic in
    one new float32 array. A frame of 8 levels at 512 x 512 thus takes 8 MB
    once read, half its float64 size, and its decoding makes no other array
    of that size.

    read_cmax() pools a frame to its column maximum (grid.column_max, over
    the static mask's cells, which hold finite values in every frame) on
    the stored f32 or u8 values, in a frame buffer the reader keeps, and
    decodes only the pooled level: the maximum commutes with the monotone
    u8 decoding, so it returns the bytes of grid.cmax(read(t, t + 1))
    without a decoded copy of the frame.
    """

    def __init__(self, path: str | Path):
        self._fh = fh = open(path, "rb")
        try:
            version, t, z, y, x, dtype, dt = _read_header(fh, _RVOL_HEADER,
                                                          RVOL_MAGIC)
            if version != RVOL_VERSION:
                raise FormatError("version", f"unsupported version {version}")
            _check_dims("RVOL", "TZYX", (t, z, y, x), reading=True)
            if dtype not in (DTYPE_F32, DTYPE_U8):
                raise FormatError("dtype", f"unknown dtype code {dtype}")
            self.header = RvolHeader(t, z, y, x, dtype, dt)
            self._stored = "<f4" if dtype == DTYPE_F32 else np.uint8
            self._frame = (z, y, x)
            self._frame_bytes = np.dtype(self._stored).itemsize * z * y * x
            n = t * z * y * x
            _check_size(fh, 4 * z + t * self._frame_bytes)
            levels = _read_into(fh, np.empty(z, "<f4"), "altitudes")
            try:
                self.z_levels = float32_altitudes(levels, z).astype(np.float64)
            except ValueError:
                raise FormatError("altitudes", "z_levels must be finite and "
                                               "strictly increasing") from None
            self._payload = fh.tell()
            self._rho = None
            fh.seek(t * self._frame_bytes, os.SEEK_CUR)
            tag = fh.read(4)
            if tag:
                if tag != RHOH_MAGIC:
                    raise FormatError("chunk", f"unknown trailing chunk {tag!r}")
                _check_size(fh, n, "rho_hv")
                self._rho = fh.tell()
                fh.seek(n, os.SEEK_CUR)
                if fh.read(1):
                    raise FormatError("chunk", "unexpected trailing bytes "
                                               "after the RHOH chunk")
        except BaseException:
            fh.close()
            raise
        self._mask = self._buffer = None

    def _seek(self, start: int, stop: int) -> np.ndarray:
        """The static mask, with the file at frame start. A range that is
        empty or outside [0, T) is a FormatError. The first call scans the
        values and RHOH codes of every frame, in buffers it frees."""
        t = self.header.t
        if not 0 <= start < stop <= t:
            raise FormatError("frames", f"range [{start}, {stop}) is empty or "
                                        f"outside the volume (T={t})")
        if self._mask is None:
            self._fh.seek(self._payload)
            frame = np.empty(self._frame, self._stored)
            mask, ok = np.ones(self._frame, bool), np.empty(self._frame, bool)
            for _ in range(t):
                _read_into(self._fh, frame)
                if frame.dtype == np.uint8:
                    np.not_equal(frame, 255, out=ok)
                else:
                    np.isfinite(frame, out=ok)
                mask &= ok
            if self._rho is not None:
                self._fh.seek(self._rho)
                codes = np.empty(self._frame, np.uint8)
                for _ in range(t):
                    if (top := _read_into(self._fh, codes, "rho_hv").max()) > 200:
                        raise FormatError("rho_hv", f"code {top} is above 200")
            self._mask = mask
        self._fh.seek(self._payload + start * self._frame_bytes)
        return self._mask

    def read(self, start: int, stop: int) -> RadarVolume:
        """Frames [start, stop) with the file's static mask, decoded as a
        whole-file read decodes them. A range that is empty or outside
        [0, T) is a FormatError."""
        mask = self._seek(start, stop)
        count = stop - start
        data = _decode(_read_into(self._fh, np.empty((count,) + self._frame,
                                                     self._stored)))
        rho = None
        if self._rho is not None:
            self._fh.seek(self._rho + start * mask.size)
            rho = _read_into(self._fh, np.empty(data.shape, np.uint8),
                             "rho_hv") / 200.0
        return RadarVolume(data=data, z_levels=self.z_levels,
                           dt=float(self.header.dt_seconds), mask=mask.copy(),
                           rho_hv=rho)

    def read_cmax(self, t: int) -> RadarVolume:
        """grid.cmax(read(t, t + 1)), byte for byte, pooled on the stored
        values before the one pooled level is decoded. A frame outside
        [0, T) is a FormatError."""
        mask = self._seek(t, t + 1)
        if self._buffer is None:
            self._buffer = np.empty(self._frame, self._stored)
        frame = _read_into(self._fh, self._buffer)
        # as grid.cmax; the static mask is False wherever any frame stores
        # an invalid value, so its cells are finite; a column without a
        # valid cell holds the invalid code
        top, pooled = column_max(frame, mask, mask,
                                 255 if self.header.dtype == DTYPE_U8 else np.nan)
        return RadarVolume(data=_decode(top[None]),
                           z_levels=self.z_levels.max(keepdims=True),
                           dt=float(self.header.dt_seconds), mask=pooled)

    def __iter__(self):
        """read(t, t + 1) for every frame in order, one decoded at a time."""
        for t in range(self.header.t):
            yield self.read(t, t + 1)

    def close(self) -> None:
        """Close the file and drop the mask and the frame buffer."""
        self._fh.close()
        self._mask = self._buffer = None

    def __enter__(self) -> RvolReader:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_rvol(path: str | Path) -> RadarVolume:
    """Read a whole RVOL file: RvolReader's read of every frame, on a file
    opened for that one read."""
    with RvolReader(path) as reader:
        return reader.read(0, reader.header.t)


def write_motion(path: str | Path, mf: MotionField) -> None:
    """Write mf as RMF1, one level at a time, each value rounded once to
    float32. A dimension that read_motion would reject, or a value that
    rounds past float32's range, is a ValueError, raised before the file is
    opened; a write that raises removes the file."""
    dims = (mf.nz, *mf.grid_shape)
    _check_dims("RMF", "ZYX", dims)
    # rounding is monotone: the extremes round to finite values only if
    # every value does
    with np.errstate(over="ignore"):
        ends = np.array([mf.u.min(), mf.u.max()]).astype("<f4")
    if not np.isfinite(ends).all():
        raise ValueError("motion field holds values beyond float32's range, "
                         "which RMF1 cannot store")
    with open_output(path, "wb", open) as fh:
        try:
            fh.write(_RMF_HEADER.pack(RMF_MAGIC, *dims))
            for level in mf.u:
                fh.write(level.astype("<f4"))
        except BaseException:
            fh.close()
            Path(path).unlink(missing_ok=True)
            raise


def read_motion(path: str | Path) -> MotionField:
    with open(path, "rb") as fh:
        z, y, x = _read_header(fh, _RMF_HEADER, RMF_MAGIC)
        _check_dims("RMF", "ZYX", (z, y, x), reading=True)
        _check_size(fh, 8 * z * y * x)
        raw = _read_into(fh, np.empty((z, 2, y, x), "<f4"))
        if fh.read(1):
            raise FormatError("chunk", "unexpected trailing bytes after the payload")
    try:
        return MotionField(raw)
    except ValueError as exc:
        raise FormatError("payload", str(exc)) from None
