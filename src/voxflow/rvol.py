"""Binary file formats for radar volumes (RVOL) and motion fields (RMF1).

RVOL layout, little-endian:
    magic "RVOL" | u8 version (0x01)
    u32 T, Z, Y, X | u8 dtype (0 = f32, 1 = u8 quantized) | u32 dt_seconds
    Z x f32 altitudes (m)
    payload row-major [t][z][y][x]:
        dtype 0: f32, invalid cells stored as NaN
        dtype 1: u8 with dBZ = v/2 - 32 (covers [-32, 95] in 0.5 dBZ steps),
                 v = 255 reserved for invalid
    optional trailing chunk "RHOH": u8 payload [t][z][y][x], rho_hv = v/200,
        which ends the file

RMF1 layout, little-endian:
    magic "RMF1" | u32 Z, Y, X | f32 payload [z][component][y][x]
    (component 0 = x-displacement, 1 = y-displacement, grid cells per step)
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import FormatError
from .grid import NO_ECHO_DBZ, MotionField, RadarVolume

RVOL_MAGIC = b"RVOL"
RVOL_VERSION = 1
RHOH_MAGIC = b"RHOH"
RMF_MAGIC = b"RMF1"

DTYPE_F32 = 0
DTYPE_U8 = 1

_MAX_DIM = 100_000


def _quantize_dbz(data: np.ndarray, invalid: np.ndarray) -> np.ndarray:
    """u8 codes; invalid and non-finite cells get 255, as an f32 read has it."""
    invalid = invalid | ~np.isfinite(data)
    v = np.rint((np.where(invalid, NO_ECHO_DBZ, data) + 32.0) * 2.0)
    v = np.clip(v, 0, 254).astype(np.uint8)
    v[invalid] = 255
    return v


def _dequantize_dbz(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    invalid = v == 255
    data = v.astype(np.float64) / 2.0 - 32.0
    data[invalid] = NO_ECHO_DBZ
    return data, invalid


def write_rvol(path: str | Path, vol: RadarVolume, quantize: bool = False) -> None:
    """Write vol as RVOL, its reflectivity as f32 or, with quantize, as u8.
    rho_hv has no invalid code, so a non-finite rho_hv value is a
    ValueError, raised before the file is opened."""
    if vol.rho_hv is not None and not np.isfinite(vol.rho_hv).all():
        raise ValueError("rho_hv holds non-finite values, which RVOL "
                         "cannot store")
    t, z, y, x = vol.shape
    dtype = DTYPE_U8 if quantize else DTYPE_F32
    invalid = np.broadcast_to(~vol.mask[None], vol.shape)
    with open(path, "wb") as fh:
        fh.write(RVOL_MAGIC)
        fh.write(struct.pack("<B", RVOL_VERSION))
        fh.write(struct.pack("<IIII", t, z, y, x))
        fh.write(struct.pack("<B", dtype))
        fh.write(struct.pack("<I", int(round(vol.dt))))
        fh.write(np.asarray(vol.z_levels, dtype="<f4").tobytes())
        if dtype == DTYPE_F32:
            payload = vol.data.astype("<f4")
            payload[invalid] = np.nan
            fh.write(payload.tobytes())
        else:
            fh.write(_quantize_dbz(vol.data, invalid).tobytes())
        if vol.rho_hv is not None:
            fh.write(RHOH_MAGIC)
            rho = np.clip(np.rint(vol.rho_hv * 200.0), 0, 200).astype(np.uint8)
            fh.write(rho.tobytes())


def _read_exactly(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(what, f"truncated file: expected {n} bytes")
    return buf


def _check_size(fh, declared: int, what: str = "payload") -> None:
    """Reject a header whose declared remainder outruns the file before
    anything that large is allocated."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if declared > left:
        raise FormatError(what, f"header declares {declared} more bytes, "
                                f"file holds {left}")


class RvolHeader(NamedTuple):
    """The fixed-size RVOL header: dimensions, payload dtype code and the
    time step."""

    t: int
    z: int
    y: int
    x: int
    dtype: int
    dt_seconds: int


def _parse_header(fh) -> RvolHeader:
    magic = fh.read(4)
    if magic != RVOL_MAGIC:
        raise FormatError("magic", f"expected {RVOL_MAGIC!r}, got {magic!r}")
    (version,) = struct.unpack("<B", _read_exactly(fh, 1, "version"))
    if version != RVOL_VERSION:
        raise FormatError("version", f"unsupported version {version}")
    t, z, y, x = struct.unpack("<IIII", _read_exactly(fh, 16, "dims"))
    for name, dim in (("T", t), ("Z", z), ("Y", y), ("X", x)):
        if dim == 0 or dim > _MAX_DIM:
            raise FormatError(name, f"implausible dimension {dim}")
    (dtype,) = struct.unpack("<B", _read_exactly(fh, 1, "dtype"))
    if dtype not in (DTYPE_F32, DTYPE_U8):
        raise FormatError("dtype", f"unknown dtype code {dtype}")
    (dt_seconds,) = struct.unpack("<I", _read_exactly(fh, 4, "dt_seconds"))
    return RvolHeader(t, z, y, x, dtype, dt_seconds)


def read_header(path: str | Path) -> RvolHeader:
    """The validated header of an RVOL file, without its payload."""
    with open(path, "rb") as fh:
        return _parse_header(fh)


def _frames_valid(fh, count: int, shape: tuple, dtype) -> np.ndarray | bool:
    """AND of the validity of the next count payload frames, read one frame
    at a time and checked on the stored values (finite for f32, not 255 for
    u8) without decoding them; True when count is 0."""
    if not count:
        return True
    frame = np.empty(shape, dtype=dtype)
    valid = np.ones(shape, dtype=bool)
    ok = np.empty(shape, dtype=bool)
    for _ in range(count):
        if fh.readinto(frame) != frame.nbytes:
            raise FormatError("payload", f"truncated file: expected "
                                         f"{frame.nbytes} more bytes")
        if frame.dtype == np.uint8:
            np.not_equal(frame, 255, out=ok)
        else:
            np.isfinite(frame, out=ok)
        valid &= ok
    return valid


def read_rvol(path: str | Path,
              frames: tuple[int, int] | None = None) -> RadarVolume:
    """Read an RVOL file, or only its frames [start, stop) when frames is
    given.

    The frames read are decoded as a whole-volume read decodes them. The
    static mask still covers every frame of the file: each frame outside
    the range is checked for invalid cells one at a time, without decoding
    it. A range that is empty or outside [0, T) is a FormatError.
    """
    with open(path, "rb") as fh:
        t, z, y, x, dtype, dt_seconds = _parse_header(fh)
        start, stop = (0, t) if frames is None else frames
        if not 0 <= start < stop <= t:
            raise FormatError("frames", f"range [{start}, {stop}) is empty or "
                                        f"outside the volume (T={t})")
        count, frame_n = stop - start, z * y * x
        n = t * frame_n
        _check_size(fh, 4 * z + (4 if dtype == DTYPE_F32 else 1) * n)
        levels = np.frombuffer(_read_exactly(fh, 4 * z, "altitudes"),
                               dtype="<f4").astype(np.float64)
        stored = "<f4" if dtype == DTYPE_F32 else np.uint8
        before = _frames_valid(fh, start, (z, y, x), stored)
        if dtype == DTYPE_F32:
            raw = np.frombuffer(_read_exactly(fh, 4 * count * frame_n,
                                              "payload"), dtype="<f4")
            data = raw.reshape(count, z, y, x).astype(np.float64)
            invalid = ~np.isfinite(data)
            data = np.where(invalid, NO_ECHO_DBZ, data)
        else:
            raw = np.frombuffer(_read_exactly(fh, count * frame_n, "payload"),
                                dtype=np.uint8)
            data, invalid = _dequantize_dbz(raw.reshape(count, z, y, x).copy())
        mask = ~invalid.any(axis=0)
        mask &= before
        mask &= _frames_valid(fh, t - stop, (z, y, x), stored)

        rho = None
        tag = fh.read(4)
        if tag:
            if tag != RHOH_MAGIC:
                raise FormatError("chunk", f"unknown trailing chunk {tag!r}")
            _check_size(fh, n, "rho_hv")
            fh.seek(start * frame_n, os.SEEK_CUR)
            raw = np.frombuffer(_read_exactly(fh, count * frame_n, "rho_hv"),
                                dtype=np.uint8)
            rho = raw.reshape(count, z, y, x).astype(np.float64) / 200.0
            fh.seek((t - stop) * frame_n, os.SEEK_CUR)
            if fh.read(1):
                raise FormatError("chunk", "unexpected trailing bytes after "
                                           "the RHOH chunk")
    try:
        return RadarVolume(data=data, z_levels=levels, dt=float(dt_seconds),
                           mask=mask, rho_hv=rho)
    except ValueError as exc:
        raise FormatError("altitudes", str(exc)) from None


def write_motion(path: str | Path, mf: MotionField) -> None:
    z = mf.nz
    y, x = mf.grid_shape
    with open(path, "wb") as fh:
        fh.write(RMF_MAGIC)
        fh.write(struct.pack("<III", z, y, x))
        fh.write(mf.u.astype("<f4").tobytes())


def read_motion(path: str | Path) -> MotionField:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != RMF_MAGIC:
            raise FormatError("magic", f"expected {RMF_MAGIC!r}, got {magic!r}")
        z, y, x = struct.unpack("<III", _read_exactly(fh, 12, "dims"))
        for name, dim in (("Z", z), ("Y", y), ("X", x)):
            if dim == 0 or dim > _MAX_DIM:
                raise FormatError(name, f"implausible dimension {dim}")
        n = z * 2 * y * x
        _check_size(fh, 4 * n)
        raw = np.frombuffer(_read_exactly(fh, 4 * n, "payload"), dtype="<f4")
        if fh.read(1):
            raise FormatError("chunk", "unexpected trailing bytes after the payload")
    try:
        return MotionField(raw.reshape(z, 2, y, x).astype(np.float64))
    except ValueError as exc:
        raise FormatError("payload", str(exc)) from None
