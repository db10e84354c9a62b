import errno
import io
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from voxflow.errors import FormatError
from voxflow import rvol as rvol_module
from voxflow.grid import NO_ECHO_DBZ, MotionField, RadarVolume, cmax
from voxflow.rvol import (
    RHOH_MAGIC,
    RMF_MAGIC,
    RVOL_MAGIC,
    RvolReader,
    RvolWriter,
    read_motion,
    read_rvol,
    write_motion,
    write_rvol,
)
from voxflow.synth import generate, preset


def sample_volume(rng, with_rho=False, with_mask=False):
    data = rng.uniform(-30.0, 60.0, (3, 2, 8, 10))
    mask = None
    if with_mask:
        mask = rng.random((2, 8, 10)) < 0.85
    rho = rng.uniform(0.0, 1.0, data.shape) if with_rho else None
    return RadarVolume(data=data, z_levels=[500.0, 1500.0], dt=300.0,
                       mask=mask, rho_hv=rho)


class TestRvolRoundTrip:
    def test_f32_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        vol = sample_volume(rng)
        path = tmp_path / "v.rvol"
        write_rvol(path, vol)
        back = read_rvol(path)
        np.testing.assert_allclose(back.data, vol.data, atol=1e-4)
        np.testing.assert_array_equal(back.mask, vol.mask)
        np.testing.assert_allclose(back.z_levels, vol.z_levels)
        assert back.dt == vol.dt

    def test_mask_round_trip_via_nan(self, tmp_path):
        rng = np.random.default_rng(1)
        vol = sample_volume(rng, with_mask=True)
        path = tmp_path / "v.rvol"
        write_rvol(path, vol)
        back = read_rvol(path)
        np.testing.assert_array_equal(back.mask, vol.mask)
        np.testing.assert_allclose(back.data[:, vol.mask],
                                   vol.data[:, vol.mask], atol=1e-4)

    def test_u8_quantization_half_dbz_steps(self, tmp_path):
        # multiples of 0.5 dBZ in [-32, 95] survive exactly
        vol = RadarVolume(data=np.array([[[[-32.0, 0.5, 59.5, 95.0]]]]),
                          z_levels=[500.0])
        path = tmp_path / "q.rvol"
        write_rvol(path, vol, quantize=True)
        back = read_rvol(path)
        np.testing.assert_allclose(back.data[0, 0, 0],
                                   [-32.0, 0.5, 59.5, 95.0])

    def test_u8_quantization_error_bounded(self, tmp_path):
        rng = np.random.default_rng(8)
        data = rng.uniform(-32.0, 95.0, (2, 1, 4, 4))
        vol = RadarVolume(data=data, z_levels=[500.0])
        path = tmp_path / "q.rvol"
        write_rvol(path, vol, quantize=True)
        back = read_rvol(path)
        assert np.abs(back.data - data).max() <= 0.25 + 1e-9

    def test_u8_invalid_is_255(self, tmp_path):
        mask = np.ones((1, 1, 2), bool)
        mask[0, 0, 1] = False
        vol = RadarVolume(data=np.full((1, 1, 1, 2), 10.0),
                          z_levels=[500.0], mask=mask)
        path = tmp_path / "q.rvol"
        write_rvol(path, vol, quantize=True)
        raw = path.read_bytes()
        assert raw[-1] == 255
        back = read_rvol(path)
        assert not back.mask[0, 0, 1]

    def test_u8_and_f32_agree_on_invalid_cells(self, tmp_path):
        # NaN and +inf in cells the mask calls valid: the f32 file stores
        # them as they are and its reader drops them, so the u8 file codes
        # them 255
        data = np.array([[[[np.nan, np.inf], [10.0, 20.0]]]])
        mask = np.array([[[True, True], [False, True]]])
        vol = RadarVolume(data=data, z_levels=[500.0], mask=mask)
        masks = []
        for quantize in (False, True):
            path = tmp_path / f"q{int(quantize)}.rvol"
            write_rvol(path, vol, quantize=quantize)
            masks.append(read_rvol(path).mask)
        np.testing.assert_array_equal(masks[0], [[[False, False], [False, True]]])
        np.testing.assert_array_equal(masks[1], masks[0])
        assert (tmp_path / "q1.rvol").read_bytes()[-4:] == bytes([255, 255, 255, 104])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rho_is_rejected_before_writing(self, tmp_path, bad):
        vol = sample_volume(np.random.default_rng(5), with_rho=True)
        vol.rho_hv[1, 0, 2, 3] = bad
        path = tmp_path / "v.rvol"
        path.write_bytes(b"kept")
        for quantize in (False, True):
            with pytest.raises(ValueError, match="rho_hv holds non-finite"):
                write_rvol(path, vol, quantize=quantize)
            assert path.read_bytes() == b"kept"

    def test_rho_chunk_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        vol = sample_volume(rng, with_rho=True)
        path = tmp_path / "r.rvol"
        write_rvol(path, vol)
        back = read_rvol(path)
        assert back.rho_hv is not None
        np.testing.assert_allclose(back.rho_hv, vol.rho_hv, atol=1 / 200.0)

    def test_synthetic_preset_round_trip(self, tmp_path):
        vol, _ = generate(preset("noisy"))
        path = tmp_path / "n.rvol"
        write_rvol(path, vol)
        back = read_rvol(path)
        np.testing.assert_allclose(back.data, vol.data, atol=1e-3)
        assert back.rho_hv is not None


class TestFloat32Volumes:
    """Volumes are read as float32, RVOL's own precision, and u8 codes are
    those of the float32 value an f32 payload stores."""

    @pytest.mark.parametrize("quantize", [False, True])
    def test_reads_return_float32(self, tmp_path, quantize):
        vol = sample_volume(np.random.default_rng(11), with_mask=True)
        vol.data[0, 1, 2, 3], vol.data[2, 0, 4, 5] = np.nan, -np.inf
        path = tmp_path / "v.rvol"
        write_rvol(path, vol, quantize)
        # the payload follows the 26-byte header and the two altitudes
        stored = np.fromfile(path, np.uint8 if quantize else "<f4",
                             offset=26 + 4 * 2).reshape(vol.shape)
        want = stored / np.float32(2) - 32 if quantize else stored.copy()
        invalid = ~np.isfinite(stored) | (stored == 255 if quantize else False)
        want[invalid] = NO_ECHO_DBZ
        with RvolReader(path) as reader:
            reads = [reader.read(0, 3), reader.read(1, 2), *reader,
                     reader.read_cmax(2), read_rvol(path)]
        for got in reads:
            assert got.data.dtype == np.float32
        assert reads[0].data.tobytes() == want.astype(np.float32).tobytes()
        assert reads[-1].data.tobytes() == reads[0].data.tobytes()
        assert reads[1].data.tobytes() == reads[0].data[1:2].tobytes()

    def test_quantize_of_float32_equals_its_float64_copy(self):
        # 0.25 + 2**-20 is a float32 just above a half code: (x + 32) * 2 in
        # float32 rounds it onto the half and codes 64, not 65
        tie = 0.25 + 2.0 ** -20
        data = np.random.default_rng(12).uniform(-40.0, 100.0, (64, 64))
        data[0, :6] = [tie, -tie, 0.25, 0.75, 95.0, 1e30]
        data = data.astype(np.float32)
        invalid = np.zeros(data.shape, bool)
        invalid[1, 1] = True
        got = rvol_module._quantize_dbz(data, invalid)
        assert got.tobytes() == \
            rvol_module._quantize_dbz(data.astype(np.float64), invalid).tobytes()
        assert got[0, :6].tolist() == [65, 63, 64, 66, 254, 254]
        assert got[1, 1] == 255

    def test_float64_value_is_coded_as_its_float32(self, tmp_path):
        # 0.25 + 2**-30 and 0.75 - 2**-30 code 65 in float64, but round to
        # the half codes 0.25 and 0.75 in float32, which code 64 and 66
        # (ties to even)
        data = np.array([[[[0.25 + 2.0 ** -30, 0.25, 0.75 - 2.0 ** -30]]]])
        files = []
        for dtype in (np.float64, np.float32):
            vol = RadarVolume(data=data.astype(dtype), z_levels=[500.0])
            files.append(tmp_path / f"{np.dtype(dtype).name}.rvol")
            write_rvol(files[-1], vol, quantize=True)
        assert files[0].read_bytes() == files[1].read_bytes()
        assert files[0].read_bytes()[-3:] == bytes([64, 64, 66])

    def test_float64_beyond_float32_codes_254_without_warning(self):
        data = np.array([[1e300, -1e300, 1e39]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rvol_module._quantize_dbz(data, np.zeros(data.shape, bool))
        assert got.tolist() == [[254, 0, 254]]

    def test_every_u8_code_decodes_as_v_over_2_minus_32(self, tmp_path):
        codes = np.arange(256, dtype=np.uint8).reshape(1, 1, 16, 16)
        path = tmp_path / "q.rvol"
        # the payload follows the 26-byte header and the one altitude
        with RvolWriter(path, codes.shape, [500.0], 300.0, quantize=True) as out:
            out.write(0, 0, np.zeros((16, 16)), np.ones((16, 16), bool))
        with open(path, "r+b") as fh:
            fh.seek(26 + 4)
            fh.write(codes.tobytes())
        want = np.arange(256, dtype=np.float32) / 2 - 32
        want[255] = NO_ECHO_DBZ
        got = read_rvol(path)
        assert got.data.dtype == np.float32
        assert got.data.tobytes() == want.tobytes()
        assert got.mask.ravel().tolist() == [True] * 255 + [False]

    def test_u8_read_holds_the_codes_and_one_float32_frame(self, tmp_path):
        # the codes are decoded without an index array: 1 + 4 bytes a cell
        # and a few hundred bytes, where a table lookup took about 7
        shape = (3, 8, 64, 64)
        vol = RadarVolume(data=np.random.default_rng(13).uniform(
            -20.0, 60.0, shape), z_levels=np.arange(1.0, 9.0))
        path = tmp_path / "v.rvol"
        write_rvol(path, vol, quantize=True)
        with RvolReader(path) as reader:
            reader.read(0, 1)
            tracemalloc.start()
            try:
                reader.read(1, 2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 5.5 * np.prod(shape[1:]), peak / np.prod(shape[1:])

    @pytest.mark.parametrize("quantize", [False, True])
    def test_read_allocates_one_float32_frame(self, tmp_path, quantize):
        # an f32 payload is decoded in its read buffer, u8 codes in one
        # float32 array: 5 bytes a cell, where a float64 decoding took 15
        # and 11
        shape = (3, 8, 64, 64)
        vol = RadarVolume(data=np.random.default_rng(13).uniform(
            -20.0, 60.0, shape), z_levels=np.arange(1.0, 9.0))
        path = tmp_path / "v.rvol"
        write_rvol(path, vol, quantize)
        with RvolReader(path) as reader:
            reader.read(0, 1)
            tracemalloc.start()
            try:
                reader.read(1, 2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 8 * np.prod(shape[1:]), peak

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rho_leaves_no_file(self, tmp_path, bad):
        vol = sample_volume(np.random.default_rng(14), with_rho=True)
        vol.rho_hv[2, 1, 7, 9] = bad
        path = tmp_path / "v.rvol"
        for quantize in (False, True):
            with pytest.raises(ValueError, match="rho_hv holds non-finite"):
                write_rvol(path, vol, quantize=quantize)
            assert not path.exists()

    def test_rho_hv_check_copies_nothing(self, tmp_path):
        # the finiteness check reads rho_hv's minimum and maximum: the
        # write's peak stays under one byte per rho_hv cell, the size of
        # an isfinite copy
        rng = np.random.default_rng(15)
        shape = (16, 2, 64, 64)
        vol = RadarVolume(data=rng.uniform(-10.0, 50.0, shape).astype(np.float32),
                          z_levels=[500.0, 1000.0],
                          rho_hv=rng.uniform(0.0, 1.0, shape))
        path = tmp_path / "v.rvol"
        write_rvol(path, vol)
        tracemalloc.start()
        try:
            write_rvol(path, vol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < vol.rho_hv.size, peak


def _raw_rvol(dims, levels, quantize) -> bytes:
    """An RVOL file with header dims, altitudes levels and the dtype of
    quantize, as the layout lays them out, and a zero payload of the size
    the header declares; no writer check applies."""
    t, z, y, x = dims
    return (RVOL_MAGIC + struct.pack("<BIIIIBI", 1, *dims, int(quantize), 300)
            + np.asarray(levels, dtype="<f4").tobytes()
            + bytes((1 if quantize else 4) * t * z * y * x))


class TestRvolValidation:
    def test_bad_magic_names_field(self, tmp_path):
        path = tmp_path / "bad.rvol"
        path.write_bytes(b"JUNKxxxxxxxxxxxxxxxxxxxx")
        with pytest.raises(FormatError) as err:
            read_rvol(path)
        assert err.value.field == "magic"

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(3)
        vol = sample_volume(rng)
        path = tmp_path / "t.rvol"
        write_rvol(path, vol)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 50])
        with pytest.raises(FormatError) as err:
            read_rvol(path)
        assert err.value.field == "payload"

    def test_bad_version(self, tmp_path):
        rng = np.random.default_rng(4)
        vol = sample_volume(rng)
        path = tmp_path / "v.rvol"
        write_rvol(path, vol)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            read_rvol(path)
        assert err.value.field == "version"

    def test_implausible_dimension(self, tmp_path):
        rng = np.random.default_rng(5)
        vol = sample_volume(rng)
        path = tmp_path / "d.rvol"
        write_rvol(path, vol)
        raw = bytearray(path.read_bytes())
        raw[5:9] = (0).to_bytes(4, "little")  # T = 0
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            read_rvol(path)
        assert err.value.field == "T"

    def test_payload_larger_than_file(self, tmp_path):
        # each dimension passes the plausibility check; their product is
        # 8e15 bytes, which must be refused before any allocation
        path = tmp_path / "huge.rvol"
        path.write_bytes(RVOL_MAGIC + b"\x01"
                         + struct.pack("<IIII", 100_000, 2, 100_000, 100_000)
                         + b"\x00" + struct.pack("<I", 300)
                         + struct.pack("<2f", 500.0, 1000.0) + bytes(64))
        with pytest.raises(FormatError) as err:
            read_rvol(path)
        assert err.value.field == "payload"

    def test_non_increasing_altitudes(self, tmp_path):
        vol = sample_volume(np.random.default_rng(9))
        path = tmp_path / "a.rvol"
        write_rvol(path, vol)
        raw = bytearray(path.read_bytes())
        raw[26:30] = struct.pack("<f", 2000.0)  # first of the two altitudes
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            read_rvol(path)
        assert err.value.field == "altitudes"

    @pytest.mark.parametrize("levels", [[np.nan], [np.inf], [500.0, np.inf],
                                        [-np.inf, 500.0], [np.nan, 500.0]])
    def test_non_finite_altitudes(self, tmp_path, levels):
        # the writer refuses each of these; the reader refuses it on opening
        path = tmp_path / "a.rvol"
        path.write_bytes(_raw_rvol((1, len(levels), 2, 2), levels, False))
        with pytest.raises(FormatError) as err:
            RvolReader(path)
        assert err.value.field == "altitudes"

    @pytest.mark.parametrize("code", [201, 255])
    def test_rho_code_above_200(self, tmp_path, code):
        vol = sample_volume(np.random.default_rng(12), with_rho=True)
        vol.rho_hv[2, 1, 4, 4] = 1.0
        path = tmp_path / "r.rvol"
        write_rvol(path, vol)
        raw = bytearray(path.read_bytes())
        # the RHOH codes end the file
        cell = len(raw) - vol.data.size + np.ravel_multi_index((2, 1, 4, 4),
                                                               vol.shape)
        assert raw[cell] == 200
        raw[cell] = code
        path.write_bytes(bytes(raw))
        # opening passes; the first read of any frame, decoded or pooled,
        # checks the codes of every frame and fails
        for first in (lambda r: r.read(0, 2), lambda r: r.read_cmax(0),
                      lambda r: r.read(2, 3)):
            with RvolReader(path) as reader:
                with pytest.raises(FormatError) as err:
                    first(reader)
            assert str(err.value) == f"rho_hv: code {code} is above 200"
        with pytest.raises(FormatError, match="rho_hv: code"):
            read_rvol(path)

    def test_unknown_trailing_chunk(self, tmp_path):
        rng = np.random.default_rng(6)
        vol = sample_volume(rng)
        path = tmp_path / "c.rvol"
        write_rvol(path, vol)
        with open(path, "ab") as fh:
            fh.write(b"WHAT")
        with pytest.raises(FormatError) as err:
            read_rvol(path)
        assert err.value.field == "chunk"


def _write_with_holes(path, vol, quantize, holes):
    """Write vol, then make each (t, z, y, x) cell of holes invalid in that
    frame only: NaN in an f32 payload, 255 in a u8 one. The writer itself
    stores one static mask."""
    write_rvol(path, vol, quantize=quantize)
    raw = bytearray(path.read_bytes())
    payload = 26 + 4 * vol.shape[1]
    size = 1 if quantize else 4
    for cell in holes:
        at = payload + size * int(np.ravel_multi_index(cell, vol.shape))
        raw[at:at + size] = b"\xff" if quantize else struct.pack("<f", np.nan)
    path.write_bytes(bytes(raw))


#: every non-empty frame range of the 3-frame sample volume
_RANGES = [(lo, hi) for lo in range(3) for hi in range(lo + 1, 4)]


def _read_frames(path, frames=None) -> RadarVolume:
    """Frames [lo, hi) of an RVOL file, or all of them when frames is None,
    read through one RvolReader."""
    with RvolReader(path) as reader:
        return reader.read(*(frames or (0, reader.header.t)))


class TestRvolFrameRange:
    @pytest.mark.parametrize("quantize", [False, True])
    @pytest.mark.parametrize("with_rho", [False, True])
    def test_range_equals_whole_read_sliced(self, tmp_path, quantize, with_rho):
        vol = sample_volume(np.random.default_rng(20), with_rho=with_rho,
                            with_mask=True)
        path = tmp_path / "v.rvol"
        _write_with_holes(path, vol, quantize, [(0, 1, 2, 3), (2, 0, 7, 9)])
        with RvolReader(path) as reader:
            assert reader.header == (3, 2, 8, 10, int(quantize), 300)
        whole = read_rvol(path)
        for lo, hi in _RANGES:
            part = _read_frames(path, (lo, hi))
            assert part.data.tobytes() == whole.data[lo:hi].tobytes()
            assert part.mask.tobytes() == whole.mask.tobytes()
            if with_rho:
                assert part.rho_hv.tobytes() == whole.rho_hv[lo:hi].tobytes()
            else:
                assert part.rho_hv is None
            assert part.z_levels.tobytes() == whole.z_levels.tobytes()
            assert part.dt == whole.dt

    @pytest.mark.parametrize("quantize", [False, True])
    def test_invalid_cell_outside_range_clears_mask(self, tmp_path, quantize):
        vol = sample_volume(np.random.default_rng(21))
        path = tmp_path / "v.rvol"
        _write_with_holes(path, vol, quantize, [(0, 1, 2, 3), (2, 0, 7, 9)])
        mask = _read_frames(path, (1, 2)).mask
        assert not mask[1, 2, 3] and not mask[0, 7, 9]
        assert np.count_nonzero(~mask) == 2

    @pytest.mark.parametrize("frames", [(0, 0), (2, 1), (-1, 2), (0, 4), (3, 4)])
    def test_empty_or_outside_range_is_error(self, tmp_path, frames):
        path = tmp_path / "v.rvol"
        write_rvol(path, sample_volume(np.random.default_rng(22)))
        with pytest.raises(FormatError) as err:
            _read_frames(path, frames)
        assert err.value.field == "frames"

    @pytest.mark.parametrize("frames", _RANGES)
    def test_truncated_rho_chunk_is_error_for_any_range(self, tmp_path, frames):
        path = tmp_path / "v.rvol"
        write_rvol(path, sample_volume(np.random.default_rng(23), with_rho=True))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError) as err:
            _read_frames(path, frames)
        assert err.value.field == "rho_hv"

    @pytest.mark.parametrize("frames", [None] + _RANGES)
    def test_bytes_after_rho_chunk_are_error(self, tmp_path, frames):
        path = tmp_path / "v.rvol"
        write_rvol(path, sample_volume(np.random.default_rng(24), with_rho=True))
        with open(path, "ab") as fh:
            fh.write(b"junkjunk")
        with pytest.raises(FormatError) as err:
            _read_frames(path, frames)
        assert err.value.field == "chunk"


def _whole_volume_bytes(vol, quantize):
    """The RVOL bytes of vol as a writer that casts the whole volume at
    once writes them: the reference of the plane writer."""
    t, z, y, x = vol.shape
    head = (RVOL_MAGIC + struct.pack("<BIIIIBI", 1, t, z, y, x, int(quantize),
                                     int(round(vol.dt)))
            + np.asarray(vol.z_levels, dtype="<f4").tobytes())
    invalid = np.broadcast_to(~vol.mask[None], vol.shape)
    if quantize:
        invalid = invalid | ~np.isfinite(vol.data)
        v = np.rint((np.where(invalid, -32.0, vol.data) + 32.0) * 2.0)
        payload = np.clip(v, 0, 254).astype(np.uint8)
        payload[invalid] = 255
    else:
        payload = vol.data.astype("<f4")
        payload[invalid] = np.nan
    rho = b"" if vol.rho_hv is None else RHOH_MAGIC + np.clip(
        np.rint(vol.rho_hv * 200.0), 0, 200).astype(np.uint8).tobytes()
    return head + payload.tobytes() + rho


def _holey_volume(seed, with_rho):
    vol = sample_volume(np.random.default_rng(seed), with_rho=with_rho,
                        with_mask=True)
    vol.data[0, 1, 2, 3] = np.nan
    vol.data[2, 0, 7, 9] = np.inf
    vol.data[1, 1, 4, 4] = -40.0
    return vol


class TestRvolWriter:
    @pytest.mark.parametrize("quantize", [False, True])
    @pytest.mark.parametrize("with_rho", [False, True])
    def test_write_rvol_equals_the_whole_volume_writer(self, tmp_path,
                                                      quantize, with_rho):
        vol = _holey_volume(40, with_rho)
        path = tmp_path / "v.rvol"
        write_rvol(path, vol, quantize=quantize)
        assert path.read_bytes() == _whole_volume_bytes(vol, quantize)

    @pytest.mark.parametrize("quantize", [False, True])
    def test_planes_in_any_order_give_the_same_file(self, tmp_path, quantize):
        vol = _holey_volume(41, with_rho=False)
        order = [(t, z) for z in range(2) for t in (2, 0, 1)]
        with RvolWriter(tmp_path / "p.rvol", vol.shape, vol.z_levels, vol.dt,
                        quantize=quantize) as out:
            for t, z in order:
                out.write(t, z, vol.data[t, z], vol.mask[z])
        assert (tmp_path / "p.rvol").read_bytes() == \
            _whole_volume_bytes(vol, quantize)

    @pytest.mark.parametrize("shape, bad, match", [
        ((1, 1, 2, 2), None, r"rho_hv shape \(1, 1, 2, 2\) must be "
                             r"\(2, 1, 4, 4\)"),
        ((2, 1, 4, 4), np.nan, "rho_hv holds non-finite"),
        ((2, 1, 4, 4), np.inf, "rho_hv holds non-finite"),
        ((2, 1, 4, 4), -np.inf, "rho_hv holds non-finite"),
    ])
    def test_write_rho_hv_checks_before_writing(self, tmp_path, shape, bad,
                                                match):
        # a misshaped chunk used to make a file the reader rejects, and a
        # NaN was cast to an undefined code
        rho = np.full(shape, 0.9)
        if bad is not None:
            rho[1, 0, 3, 2] = bad
        path = tmp_path / "v.rvol"
        with pytest.raises(ValueError, match=match):
            with RvolWriter(path, (2, 1, 4, 4), [500.0], 300.0) as out:
                for t in range(2):
                    out.write(t, 0, np.zeros((4, 4)), np.ones((4, 4), bool))
                out.write_rho_hv(rho)
        assert not path.exists()

    def test_rho_hv_is_converted_one_frame_at_a_time(self, tmp_path):
        # a whole-volume conversion holds two float64 copies of rho_hv
        rng = np.random.default_rng(47)
        rho = rng.uniform(0.0, 1.0, (8, 2, 64, 64))
        with RvolWriter(tmp_path / "v.rvol", rho.shape, np.arange(1.0, 3.0),
                        300.0) as out:
            for t, z in np.ndindex(rho.shape[:2]):
                out.write(t, z, rho[t, z], np.ones(rho.shape[2:], bool))
            tracemalloc.start()
            try:
                out.write_rho_hv(rho)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2 * rho[0].nbytes, peak
        assert read_rvol(tmp_path / "v.rvol").rho_hv.tobytes() == \
            (np.clip(np.rint(rho * 200.0), 0, 200).astype(np.uint8)
             / 200.0).tobytes()

    @pytest.mark.parametrize("axis", range(4))
    def test_dimension_the_reader_rejects_is_refused_before_opening(
            self, tmp_path, axis):
        shape = [1, 1, 1, 1]
        shape[axis] = 100_001
        vol = RadarVolume(data=np.zeros(shape), z_levels=np.arange(shape[1]))
        path = tmp_path / "v.rvol"
        path.write_bytes(b"kept")
        with pytest.raises(ValueError, match="outside \\[1, 100000\\]"):
            write_rvol(path, vol)
        assert path.read_bytes() == b"kept"

    def test_unwritten_plane_or_error_removes_the_file(self, tmp_path):
        vol = sample_volume(np.random.default_rng(42))
        path = tmp_path / "v.rvol"
        with pytest.raises(ValueError, match="1 RVOL planes were never"):
            with RvolWriter(path, vol.shape, vol.z_levels, vol.dt) as out:
                for t, z in np.ndindex(vol.shape[:2]):
                    if (t, z) != (1, 1):
                        out.write(t, z, vol.data[t, z], vol.mask[z])
        assert not path.exists()
        with pytest.raises(KeyError):
            with RvolWriter(path, vol.shape, vol.z_levels, vol.dt):
                raise KeyError("stop")
        assert not path.exists()
        # a plane outside the 3 x 2 planes is refused before the seek, which
        # would land in the altitudes or past the payload
        for t, z in [(-1, 1), (1, -1), (3, 0), (0, 2)]:
            with pytest.raises(ValueError, match=f"plane \\({t}, {z}\\) is "
                                                 "outside the 3 x 2 planes"):
                with RvolWriter(path, vol.shape, vol.z_levels, vol.dt) as out:
                    for tz in np.ndindex(vol.shape[:2]):
                        if tz != (2, 1):
                            out.write(*tz, vol.data[tz], vol.mask[tz[1]])
                    out.write(t, z, vol.data[2, 1], vol.mask[1])
            assert not path.exists()

    @pytest.mark.parametrize("dt", [-5, -0.6, 2**32 - 0.5, 2**33, np.inf,
                                    -np.inf, np.nan])
    def test_time_step_the_header_cannot_hold_is_refused(self, tmp_path, dt):
        vol = sample_volume(np.random.default_rng(48))
        vol.dt = dt
        with pytest.raises(ValueError, match=f"dt={dt} does not round into"):
            write_rvol(tmp_path / "v.rvol", vol)
        assert not (tmp_path / "v.rvol").exists()

    @pytest.mark.parametrize("z_levels", [
        [500.0], [500.0, 1500.0, 2500.0], [[500.0, 1500.0]],
        # distinct in float64, equal once cast to the stored float32
        [1000.0, 1000.00001], [1500.0, 500.0], [500.0, np.inf],
        [np.nan, 500.0], [500.0, 1e39]])
    def test_altitudes_the_reader_rejects_are_refused(self, tmp_path,
                                                      z_levels):
        with pytest.raises(ValueError, match="RVOL altitudes .* are not 2 "
                                             "finite increasing float32"):
            RvolWriter(tmp_path / "v.rvol", (3, 2, 8, 10), z_levels, 300.0)
        assert not (tmp_path / "v.rvol").exists()

    def test_altitude_message_names_the_first_fault(self, tmp_path):
        # Z = MAX_DIM altitudes, one of them NaN: the message names Z and
        # the first value that breaks the rule, not every altitude
        levels = np.arange(100_000.0)
        levels[70_000] = np.nan
        with pytest.raises(ValueError) as err:
            RvolWriter(tmp_path / "v.rvol", (1, 100_000, 1, 1), levels, 300.0)
        assert str(err.value) == ("RVOL altitudes (altitude 70000 is nan) are "
                                  "not 100000 finite increasing float32 "
                                  "values")
        assert len(str(err.value)) < 100
        assert not (tmp_path / "v.rvol").exists()

    def test_extreme_time_steps_round_trip(self, tmp_path):
        for dt, stored in ((-0.4, 0), (2**32 - 1, 2**32 - 1)):
            vol = sample_volume(np.random.default_rng(49))
            vol.dt = dt
            write_rvol(tmp_path / "v.rvol", vol)
            assert read_rvol(tmp_path / "v.rvol").dt == stored

    def test_failed_header_write_closes_and_removes_the_file(
            self, tmp_path, monkeypatch):
        class FullDisk(io.FileIO):
            """A file that takes the fixed header, then fails as a full
            disk would."""

            def write(self, data):
                if self.tell():
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(data)

        opened = []
        monkeypatch.setattr(rvol_module, "open", lambda path, mode: (
            opened.append(FullDisk(path, mode)), opened[-1])[1], raising=False)
        path = tmp_path / "v.rvol"
        with pytest.raises(OSError, match="No space left"):
            RvolWriter(path, (3, 2, 8, 10), [500.0, 1500.0], 300.0)
        assert opened[0].closed and not path.exists()

    @pytest.mark.parametrize("quantize", [False, True])
    def test_integer_validity_writes_the_bytes_of_bool(self, tmp_path,
                                                       quantize):
        vol = _holey_volume(50, with_rho=False)
        for name, as_valid in (("bool", lambda m: m),
                               ("int", lambda m: m.astype(np.int64)),
                               ("uint8", lambda m: m.astype(np.uint8))):
            with RvolWriter(tmp_path / f"{name}.rvol", vol.shape,
                            vol.z_levels, vol.dt, quantize) as out:
                for t, z in np.ndindex(vol.shape[:2]):
                    out.write(t, z, vol.data[t, z], as_valid(vol.mask[z]))
        want = _whole_volume_bytes(vol, quantize)
        for name in ("bool", "int", "uint8"):
            assert (tmp_path / f"{name}.rvol").read_bytes() == want, name

    @pytest.mark.parametrize("shape", [(8,), (10, 8), (8, 10, 1), ()])
    def test_validity_of_another_shape_is_refused(self, tmp_path, shape):
        vol = sample_volume(np.random.default_rng(51))
        path = tmp_path / "v.rvol"
        with pytest.raises(ValueError, match=re.escape(
                f"valid shape {shape} must be (8, 10)")):
            with RvolWriter(path, vol.shape, vol.z_levels, vol.dt) as out:
                out.write(0, 0, vol.data[0, 0], np.ones(shape, bool))
        assert not path.exists()


#: damaged files: (label, bytes to keep from the end, bytes to append)
_DAMAGE = [("truncated payload", -3, b""), ("trailing bytes", 0, b"ab"),
           ("unknown chunk", 0, b"WHAT"), ("truncated rho_hv", -1, b""),
           ("bytes after rho_hv", 0, b"junkjunk")]


class TestRvolReader:
    @pytest.mark.parametrize("quantize", [False, True])
    @pytest.mark.parametrize("with_rho", [False, True])
    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 2, 0)])
    def test_frames_one_at_a_time_equal_the_whole_read(
            self, tmp_path, quantize, with_rho, order):
        vol = sample_volume(np.random.default_rng(43), with_rho=with_rho,
                            with_mask=True)
        path = tmp_path / "v.rvol"
        # invalid cells outside the first frame read still clear the mask
        _write_with_holes(path, vol, quantize, [(0, 1, 2, 3), (2, 0, 7, 9)])
        whole = read_rvol(path)
        with RvolReader(path) as reader:
            assert reader.header == (3, 2, 8, 10, int(quantize), 300)
            for t in order:
                part = reader.read(t, t + 1)
                assert part.data.tobytes() == whole.data[t:t + 1].tobytes()
                assert part.mask.tobytes() == whole.mask.tobytes()
                if with_rho:
                    assert part.rho_hv.tobytes() == \
                        whole.rho_hv[t:t + 1].tobytes()
                else:
                    assert part.rho_hv is None
                assert part.z_levels.tobytes() == whole.z_levels.tobytes()
                assert part.dt == whole.dt
        assert not whole.mask[1, 2, 3] and not whole.mask[0, 7, 9]

    @pytest.mark.parametrize("quantize", [False, True])
    def test_iterating_equals_iterating_the_whole_read(self, tmp_path,
                                                       quantize):
        vol = sample_volume(np.random.default_rng(52), with_rho=True,
                            with_mask=True)
        path = tmp_path / "v.rvol"
        _write_with_holes(path, vol, quantize, [(0, 1, 2, 3), (2, 0, 7, 9)])
        whole = read_rvol(path)
        with RvolReader(path) as reader:
            for _ in range(2):  # each iteration starts at the first frame
                got = list(reader)
                assert len(got) == len(list(whole)) == 3
                for t, (part, want) in enumerate(zip(got, whole)):
                    for name in ("data", "mask", "rho_hv", "z_levels"):
                        assert getattr(part, name).tobytes() == \
                            getattr(want, name).tobytes(), (t, name)
                    assert part.data.tobytes() == whole.data[t:t + 1].tobytes()
                    assert part.rho_hv.tobytes() == \
                        whole.rho_hv[t:t + 1].tobytes()
                    assert part.dt == want.dt == whole.dt
                    assert want.mask is whole.mask

    @pytest.mark.parametrize("quantize", [False, True])
    @pytest.mark.parametrize("label, keep, extra", _DAMAGE)
    def test_damaged_file_fails_on_opening_as_read_rvol_fails(
            self, tmp_path, quantize, label, keep, extra):
        path = tmp_path / "v.rvol"
        write_rvol(path, sample_volume(np.random.default_rng(44),
                                       with_rho="rho" in label), quantize)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) + keep] + extra)
        with pytest.raises(FormatError) as want:
            read_rvol(path)
        with pytest.raises(FormatError) as got:
            RvolReader(path)
        assert (got.value.field, str(got.value)) == \
            (want.value.field, str(want.value))

    def test_reads_after_the_first_reuse_its_mask(self, tmp_path,
                                                  monkeypatch):
        path = tmp_path / "v.rvol"
        _write_with_holes(path, sample_volume(np.random.default_rng(45)),
                          False, [(2, 0, 7, 9)])
        sizes, read_into = [], rvol_module._read_into
        monkeypatch.setattr(rvol_module, "_read_into", lambda fh, buf, *a: (
            sizes.append(memoryview(buf).nbytes), read_into(fh, buf, *a))[1])
        # whole frames first, pooled frames first, and a mix of both
        for calls in ([("read", 0), ("read", 1), ("read", 2)],
                      [("cmax", 2), ("cmax", 0), ("cmax", 1)],
                      [("cmax", 1), ("read", 2), ("cmax", 2), ("read", 0)]):
            with RvolReader(path) as reader:
                sizes.clear()  # the header and the altitudes
                for kind, t in calls:
                    if kind == "read":
                        assert not reader.read(t, t + 1).mask[0, 7, 9]
                    else:
                        reader.read_cmax(t)
            # one scan of the 3 frames, then one frame per call
            assert sizes == [4 * 2 * 8 * 10] * (3 + len(calls)), calls

    @pytest.mark.parametrize("quantize", [False, True])
    def test_first_read_frees_the_scan_before_decoding(self, tmp_path,
                                                       quantize):
        # the first read scans every frame for the static mask, then
        # decodes its frame as a later read does: its peak is a later
        # read's plus the one bool plane of the mask it keeps, not plus
        # the scan's stored frame
        vol = RadarVolume(data=np.random.default_rng(46).uniform(
            -20.0, 60.0, (3, 8, 128, 128)), z_levels=np.arange(1.0, 9.0))
        path = tmp_path / "v.rvol"
        write_rvol(path, vol, quantize)
        peaks = []
        with RvolReader(path) as reader:
            for _ in range(2):
                tracemalloc.start()
                try:
                    reader.read(1, 2)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        first, later = peaks
        assert first < later + 8 * 128 * 128 + 32 * 1024, peaks


def _cmax_volume(seed, z, with_rho):
    """A 4-frame volume with masked cells, a column without a valid cell,
    tied signed zeros, and NaN and +-inf cells stored in single frames."""
    rng = np.random.default_rng(seed)
    mask = rng.random((z, 6, 7)) < 0.8
    mask[:, 0, 0] = False
    data = rng.uniform(-40.0, 100.0, (4, z, 6, 7))
    data[1, :, 4, 4] = 0.0
    data[1, 0, 4, 4] = -0.0
    data[0, 0, 1, 2], data[2, -1, 3, 3], data[3, 0, 5, 6] = \
        np.nan, np.inf, -np.inf
    rho = rng.uniform(0.0, 1.0, data.shape) if with_rho else None
    return RadarVolume(data=data, z_levels=500.0 * np.arange(1, z + 1),
                       mask=mask, rho_hv=rho)


def _same_volume(got, want):
    assert got.data.tobytes() == want.data.tobytes()
    assert got.mask.tobytes() == want.mask.tobytes()
    assert got.z_levels.tobytes() == want.z_levels.tobytes()
    assert (got.dt, got.rho_hv) == (want.dt, None)


#: read_cmax and read calls on one reader: pooled first, whole first, and
#: every frame pooled in reverse
_CALLS = [[("cmax", 2), ("read", 0), ("cmax", 0), ("cmax", 3), ("read", 1),
           ("cmax", 1), ("cmax", 2)],
          [("read", 3), ("cmax", 1), ("cmax", 3), ("read", 0), ("cmax", 0)],
          [("cmax", 3), ("cmax", 2), ("cmax", 1), ("cmax", 0)]]


class TestRvolReadCmax:
    @pytest.mark.parametrize("quantize", [False, True])
    @pytest.mark.parametrize("z", [1, 3])
    @pytest.mark.parametrize("with_rho", [False, True])
    @pytest.mark.parametrize("calls", _CALLS)
    def test_equals_cmax_of_the_read(self, tmp_path, quantize, z, with_rho,
                                     calls):
        path = tmp_path / "v.rvol"
        write_rvol(path, _cmax_volume(50 + z, z, with_rho), quantize)
        whole = read_rvol(path)
        # the NaN and +-inf cells clear the static mask of every frame
        assert not whole.mask[0, 1, 2] and not whole.mask[-1, 3, 3]
        with RvolReader(path) as reader:
            for kind, t in calls:
                if kind == "read":
                    assert reader.read(t, t + 1).data.tobytes() == \
                        whole.data[t:t + 1].tobytes()
                    continue
                with RvolReader(path) as fresh:
                    want = cmax(fresh.read(t, t + 1))
                _same_volume(reader.read_cmax(t), want)
                assert want.data[0, 0, 0, 0] == NO_ECHO_DBZ
                assert not want.mask[0, 0, 0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_of_one_frame(self, tmp_path, bad):
        """An f32 value stored non-finite in one frame clears its cell of
        the static mask, so read_cmax pools every frame without it: in the
        frames that hold it finite too, where it is the column's largest,
        and in a column that it leaves without a valid cell."""
        data = np.random.default_rng(64).uniform(-20.0, 40.0, (4, 2, 5, 6))
        data[:, 0, 2, 3] = 90.0
        data[1, 0, 2, 3] = bad
        data[2, :, 4, 5] = bad
        path = tmp_path / "v.rvol"
        write_rvol(path, RadarVolume(data=data, z_levels=[500.0, 1500.0]))
        with RvolReader(path) as reader:
            for t in range(4):
                with RvolReader(path) as fresh:
                    want = cmax(fresh.read(t, t + 1))
                got = reader.read_cmax(t)
                _same_volume(got, want)
                assert got.data[0, 0, 2, 3] == np.float32(data[t, 1, 2, 3])
                assert got.data[0, 0, 4, 5] == NO_ECHO_DBZ
            assert reader.read(0, 1).mask.sum() == 2 * 5 * 6 - 3
        assert not got.mask[0, 4, 5] and got.mask.sum() == 5 * 6 - 1

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_random_volumes_equal_cmax_of_the_read(self, tmp_path, data):
        t, z, y, x = (data.draw(st.integers(1, n)) for n in (3, 4, 3, 3))
        values = st.one_of(st.floats(-60.0, 130.0), st.sampled_from(
            [np.nan, np.inf, -np.inf, 0.0, -0.0, -32.0, 95.0]))
        vol = RadarVolume(
            data=np.array(data.draw(st.lists(values, min_size=t * z * y * x,
                                             max_size=t * z * y * x)))
            .reshape(t, z, y, x),
            z_levels=np.arange(1, z + 1, dtype=float),
            mask=np.array(data.draw(st.lists(
                st.booleans(), min_size=z * y * x, max_size=z * y * x)))
            .reshape(z, y, x))
        path = tmp_path / "h.rvol"
        write_rvol(path, vol, quantize=data.draw(st.booleans()))
        with RvolReader(path) as reader, RvolReader(path) as ref:
            for frame in data.draw(st.permutations(range(t))):
                _same_volume(reader.read_cmax(frame),
                             cmax(ref.read(frame, frame + 1)))

    @pytest.mark.parametrize("t", [-1, 4])
    def test_frame_outside_the_volume_is_read_error(self, tmp_path, t):
        path = tmp_path / "v.rvol"
        write_rvol(path, _cmax_volume(60, 2, False))
        with RvolReader(path) as reader:
            with pytest.raises(FormatError) as want:
                reader.read(t, t + 1)
            with pytest.raises(FormatError) as got:
                reader.read_cmax(t)
        assert (got.value.field, str(got.value)) == \
            (want.value.field, str(want.value))

    @pytest.mark.parametrize("quantize", [False, True])
    def test_file_truncated_after_opening_is_read_error(self, tmp_path,
                                                        quantize):
        # frames larger than the file buffer, so the cut is read from disk
        vol = RadarVolume(data=np.zeros((4, 2, 80, 80)), z_levels=[1.0, 2.0])
        path = tmp_path / "v.rvol"
        write_rvol(path, vol, quantize)
        raw = path.read_bytes()
        with RvolReader(path) as reader, RvolReader(path) as first:
            reader.read_cmax(0)
            path.write_bytes(raw[:len(raw) - 5])
            with pytest.raises(FormatError) as want:
                reader.read(3, 4)
            with pytest.raises(FormatError) as got:
                reader.read_cmax(3)
            # the first call scans every frame for the static mask
            with pytest.raises(FormatError) as scan:
                first.read_cmax(0)
        assert (got.value.field, str(got.value)) == \
            (want.value.field, str(want.value))
        assert scan.value.field == "payload"

    @pytest.mark.parametrize("quantize", [False, True])
    def test_pooled_read_allocates_less_than_a_float64_frame(self, tmp_path,
                                                             quantize):
        vol = RadarVolume(data=np.random.default_rng(62).uniform(
            -20.0, 60.0, (3, 8, 64, 64)), z_levels=np.arange(1.0, 9.0))
        path = tmp_path / "v.rvol"
        write_rvol(path, vol, quantize)
        with RvolReader(path) as reader:
            reader.read_cmax(0)
            tracemalloc.start()
            try:
                reader.read_cmax(1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 8 * 8 * 64 * 64, peak


class TestMotionFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        mf = MotionField(rng.normal(0, 2, (3, 2, 6, 5)))
        path = tmp_path / "m.rmf"
        write_motion(path, mf)
        back = read_motion(path)
        np.testing.assert_allclose(back.u, mf.u, atol=1e-5)
        assert back.u.shape == mf.u.shape

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_read_is_the_float32_payload(self, tmp_path, dtype):
        """read_motion keeps RMF1's float32 in the buffer it reads into:
        the field's bytes are the payload's, and the read allocates little
        beyond them."""
        mf = MotionField(np.random.default_rng(10).normal(0, 2, (4, 2, 64, 64))
                         .astype(dtype))
        path = tmp_path / "m.rmf"
        write_motion(path, mf)
        read_motion(path)
        tracemalloc.start()
        try:
            back = read_motion(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.u.dtype == np.float32
        assert back.u.tobytes() == mf.u.astype("<f4").tobytes()
        assert peak < 1.25 * back.u.nbytes, peak

    @pytest.mark.parametrize("value", [1e39, -1e39, 1e300])
    def test_value_beyond_float32_is_refused_before_opening(self, tmp_path,
                                                            value):
        path = tmp_path / "m.rmf"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            with pytest.raises(ValueError, match="beyond float32's range"):
                write_motion(path, MotionField(np.full((1, 2, 4, 4), value)))
            u = np.zeros((2, 2, 4, 4))
            u[1, 0, 3, 2] = value
            with pytest.raises(ValueError, match="beyond float32's range"):
                write_motion(path, MotionField(u))
        assert not path.exists()

    def test_values_that_round_to_the_float32_extremes_are_written(
            self, tmp_path):
        top = float(np.finfo(np.float32).max)
        u = np.zeros((1, 2, 4, 4))
        u[0, 0, 0, :2] = top, -top
        u[0, 1, 0, :2] = top * (1 + 2.0 ** -25), -top * (1 + 2.0 ** -25)
        path = tmp_path / "m.rmf"
        write_motion(path, MotionField(u))
        back = read_motion(path).u
        assert (back[0, :, 0, 0] == top).all()
        assert (back[0, :, 0, 1] == -top).all()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rmf"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError) as err:
            read_motion(path)
        assert err.value.field == "magic"

    def test_truncation(self, tmp_path):
        mf = MotionField(np.zeros((1, 2, 4, 4)))
        path = tmp_path / "m.rmf"
        write_motion(path, mf)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError):
            read_motion(path)

    def test_payload_larger_than_file(self, tmp_path):
        path = tmp_path / "huge.rmf"
        path.write_bytes(RMF_MAGIC + struct.pack("<III", 100_000, 100_000,
                                                 100_000) + bytes(64))
        with pytest.raises(FormatError) as err:
            read_motion(path)
        assert err.value.field == "payload"

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "nan.rmf"
        write_motion(path, MotionField(np.zeros((1, 2, 2, 2))))
        raw = bytearray(path.read_bytes())
        raw[16:20] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            read_motion(path)
        assert err.value.field == "payload"

    def test_trailing_bytes_rejected(self, tmp_path):
        mf = MotionField(np.zeros((1, 2, 4, 4)))
        path = tmp_path / "m.rmf"
        write_motion(path, mf)
        with open(path, "ab") as fh:
            fh.write(b"junk")
        with pytest.raises(FormatError) as err:
            read_motion(path)
        assert err.value.field == "chunk"

    def test_bytes_are_the_whole_field_layout(self, tmp_path):
        mf = MotionField(np.random.default_rng(8).normal(0, 2, (3, 2, 5, 4)))
        path = tmp_path / "m.rmf"
        write_motion(path, mf)
        assert path.read_bytes() == (RMF_MAGIC + struct.pack("<III", 3, 5, 4)
                                     + mf.u.astype("<f4").tobytes())

    @pytest.mark.parametrize("shape", [(0, 2, 4, 4), (1, 2, 0, 4),
                                       (1, 2, 4, 100_001)])
    def test_dimension_the_reader_rejects_is_refused_before_opening(
            self, tmp_path, shape):
        path = tmp_path / "m.rmf"
        with pytest.raises(ValueError, match="outside \\[1, 100000\\]"):
            write_motion(path, MotionField(np.zeros(shape, np.float32)))
        assert not path.exists()

    def test_failed_write_removes_the_file(self, tmp_path, monkeypatch):
        class FullDisk:
            """A file that takes the header, then fails as a full disk
            would."""

            def __init__(self, path, mode):
                self._fh = open(path, mode)
                self.writes = 0

            def write(self, data):
                self.writes += 1
                if self.writes > 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self._fh.write(data)

            def close(self):
                self._fh.close()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.close()

        opened = []

        def full_disk_open(path, mode):
            opened.append(FullDisk(path, mode))
            return opened[-1]

        monkeypatch.setattr(rvol_module, "open", full_disk_open, raising=False)
        path = tmp_path / "m.rmf"
        with pytest.raises(OSError, match="No space left"):
            write_motion(path, MotionField(np.zeros((2, 2, 4, 4))))
        assert opened[0].writes == 3
        assert not path.exists()

    def test_peak_memory_is_one_level(self, tmp_path):
        """One level's f32 copy at a time, not f32 and bytes copies of the
        whole field."""
        mf = MotionField(np.random.default_rng(9).normal(0, 2, (4, 2, 64, 64)))
        level_f32 = 4 * 2 * 64 * 64
        write_motion(tmp_path / "warm.rmf", mf)
        tracemalloc.start()
        try:
            write_motion(tmp_path / "m.rmf", mf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * level_f32, peak


@pytest.fixture(scope="module")
def valid_bytes(tmp_path_factory):
    """One valid file per format, the seed of the mutation fuzzer."""
    d = tmp_path_factory.mktemp("valid")
    write_rvol(d / "v.rvol", sample_volume(np.random.default_rng(10),
                                           with_rho=True, with_mask=True))
    write_motion(d / "m.rmf", MotionField(np.random.default_rng(11).normal(
        0, 2, (2, 2, 3, 4))))
    return {"rvol": (d / "v.rvol").read_bytes(),
            "rmf": (d / "m.rmf").read_bytes()}


_WORD = (st.floats(width=32).map(lambda v: struct.pack("<f", v))
         | st.integers(0, 2 ** 32 - 1).map(lambda v: struct.pack("<I", v))
         | st.binary(min_size=1, max_size=4))


@st.composite
def _mutated(draw, valid: bytes) -> bytes:
    """A valid file with a few words after the magic overwritten by
    arbitrary floats, integers or bytes, then possibly cut or extended.
    Positions come from a seeded random source: Hypothesis' own integers
    favour the range ends, which would mostly rewrite the magic."""
    rnd = draw(st.randoms(use_true_random=False))
    raw = bytearray(valid)
    for _ in range(rnd.randint(1, 3)):
        word = draw(_WORD)
        last = len(raw) - len(word)
        # half the writes land in the header and the altitudes
        pos = rnd.randint(4, min(last, 64) if rnd.random() < 0.5 else last)
        raw[pos:pos + len(word)] = word
    if rnd.random() < 0.5:
        return bytes(raw)
    return bytes(raw[:rnd.randint(0, len(raw))]) + draw(st.binary(max_size=16))


#: reader, the type it returns, its magic plus version, and a strategy for
#: its keyword arguments: the RVOL reader also reads frame ranges, valid,
#: empty and outside the volume alike
READERS = {
    "rvol": (_read_frames, RadarVolume, RVOL_MAGIC + b"\x01",
             st.fixed_dictionaries({"frames": st.none() | st.tuples(
                 st.integers(-1, 4), st.integers(-1, 4))})),
    "rmf": (read_motion, MotionField, RMF_MAGIC, st.just({})),
}

_FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _read_or_format_error(name: str, path, raw: bytes, data) -> None:
    """The reader's only outcomes: a valid object or a FormatError. The
    file is removed after, as in _reader_refuses."""
    reader, kind, _, kwargs = READERS[name]
    path.write_bytes(raw)
    try:
        assert isinstance(reader(path, **data.draw(kwargs)), kind)
    except FormatError:
        pass
    finally:
        path.unlink()


#: the edges of the dimension rule, [1, 100000]
_EDGE_DIM = st.sampled_from([0, 100_000, 100_001])
#: altitudes that are non-finite, equal or decreasing in a pair
_ALTITUDE = st.sampled_from([np.nan, np.inf, -np.inf, 500.0, 1500.0])


@st.composite
def _dims(draw, n: int) -> tuple[int, ...]:
    """n dimensions of 1 or 2, one of which may be an edge of the rule, so
    that a payload of the declared size stays at most 3.2 MB."""
    dims = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    axis = draw(st.integers(-1, n - 1))
    if axis >= 0:
        dims[axis] = draw(_EDGE_DIM)
    return tuple(dims)


def _reader_refuses(read, path, raw: bytes) -> bool:
    """Whether read(path) raises FormatError on a file of raw bytes. The
    file is removed after: truncating a file just written, as the next
    example would, can flush it to disk first (ext4's auto_da_alloc)."""
    path.write_bytes(raw)
    try:
        read(path)
    except FormatError:
        return True
    finally:
        path.unlink()
    return False


class TestWritersRefuseWhatReadersRefuse:
    """Each header both sides can express: the writer raises ValueError
    exactly when the reader raises FormatError on the same header, written
    raw with a payload of the declared size."""

    @_FUZZ
    @given(dims=_dims(4), drawn=st.lists(_ALTITUDE, min_size=2, max_size=2),
           quantize=st.booleans())
    @example(dims=(1, 1, 1, 1), drawn=[np.nan, 500.0], quantize=False)
    @example(dims=(1, 2, 1, 1), drawn=[500.0, np.inf], quantize=True)
    def test_rvol_header(self, tmp_path, dims, drawn, quantize):
        # Z drawn altitudes, or 0, 10, 20, ... where Z is an edge
        z = dims[1]
        levels = drawn[:z] if z <= 2 else np.arange(z) * 10.0
        # a writer that opens raises too, at the exit of a block that
        # writes no plane, and removes its file
        with pytest.raises(ValueError) as err:
            with RvolWriter(tmp_path / "w.rvol", dims, levels, 300.0,
                            quantize):
                pass
        writer_refuses = "never written" not in str(err.value)
        assert _reader_refuses(lambda p: RvolReader(p).close(),
                               tmp_path / "r.rvol",
                               _raw_rvol(dims, levels, quantize)) \
            == writer_refuses

    @_FUZZ
    @given(dims=_dims(3))
    def test_rmf_header(self, tmp_path, dims):
        z, y, x = dims
        path = tmp_path / "w.rmf"
        try:
            write_motion(path, MotionField(np.zeros((z, 2, y, x), np.float32)))
        except ValueError:
            writer_refuses = True
        else:
            writer_refuses = False
            path.unlink()
        assert _reader_refuses(read_motion, tmp_path / "r.rmf",
                               RMF_MAGIC + struct.pack("<III", *dims)
                               + bytes(8 * z * y * x)) == writer_refuses


@pytest.mark.parametrize("name", sorted(READERS))
class TestReadersFuzz:
    @_FUZZ
    @given(data=st.data())
    def test_arbitrary_bytes(self, tmp_path, name, data):
        magic = READERS[name][2]
        raw = data.draw(st.binary(max_size=200)
                        | st.binary(max_size=200).map(lambda b: magic + b))
        _read_or_format_error(name, tmp_path / "f", raw, data)

    @_FUZZ
    @given(data=st.data())
    def test_mutated_valid_file(self, tmp_path, valid_bytes, name, data):
        raw = data.draw(_mutated(valid_bytes[name]))
        _read_or_format_error(name, tmp_path / "f", raw, data)
