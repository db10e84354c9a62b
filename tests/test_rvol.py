import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from voxflow.errors import FormatError
from voxflow.grid import MotionField, RadarVolume
from voxflow.rvol import (
    RMF_MAGIC,
    RVOL_MAGIC,
    read_header,
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


class TestRvolFrameRange:
    @pytest.mark.parametrize("quantize", [False, True])
    @pytest.mark.parametrize("with_rho", [False, True])
    def test_range_equals_whole_read_sliced(self, tmp_path, quantize, with_rho):
        vol = sample_volume(np.random.default_rng(20), with_rho=with_rho,
                            with_mask=True)
        path = tmp_path / "v.rvol"
        _write_with_holes(path, vol, quantize, [(0, 1, 2, 3), (2, 0, 7, 9)])
        assert read_header(path) == (3, 2, 8, 10, int(quantize), 300)
        whole = read_rvol(path)
        for lo, hi in _RANGES:
            part = read_rvol(path, frames=(lo, hi))
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
        mask = read_rvol(path, frames=(1, 2)).mask
        assert not mask[1, 2, 3] and not mask[0, 7, 9]
        assert np.count_nonzero(~mask) == 2

    @pytest.mark.parametrize("frames", [(0, 0), (2, 1), (-1, 2), (0, 4), (3, 4)])
    def test_empty_or_outside_range_is_error(self, tmp_path, frames):
        path = tmp_path / "v.rvol"
        write_rvol(path, sample_volume(np.random.default_rng(22)))
        with pytest.raises(FormatError) as err:
            read_rvol(path, frames=frames)
        assert err.value.field == "frames"

    @pytest.mark.parametrize("frames", _RANGES)
    def test_truncated_rho_chunk_is_error_for_any_range(self, tmp_path, frames):
        path = tmp_path / "v.rvol"
        write_rvol(path, sample_volume(np.random.default_rng(23), with_rho=True))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError) as err:
            read_rvol(path, frames=frames)
        assert err.value.field == "rho_hv"

    @pytest.mark.parametrize("frames", [None] + _RANGES)
    def test_bytes_after_rho_chunk_are_error(self, tmp_path, frames):
        path = tmp_path / "v.rvol"
        write_rvol(path, sample_volume(np.random.default_rng(24), with_rho=True))
        with open(path, "ab") as fh:
            fh.write(b"junkjunk")
        with pytest.raises(FormatError) as err:
            read_rvol(path, frames=frames)
        assert err.value.field == "chunk"


class TestMotionFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        mf = MotionField(rng.normal(0, 2, (3, 2, 6, 5)))
        path = tmp_path / "m.rmf"
        write_motion(path, mf)
        back = read_motion(path)
        np.testing.assert_allclose(back.u, mf.u, atol=1e-5)
        assert back.u.shape == mf.u.shape

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
    "rvol": (read_rvol, RadarVolume, RVOL_MAGIC + b"\x01",
             st.fixed_dictionaries({"frames": st.none() | st.tuples(
                 st.integers(-1, 4), st.integers(-1, 4))})),
    "rmf": (read_motion, MotionField, RMF_MAGIC, st.just({})),
}

_FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _read_or_format_error(name: str, path, raw: bytes, data) -> None:
    """The reader's only outcomes: a valid object or a FormatError."""
    reader, kind, _, kwargs = READERS[name]
    path.write_bytes(raw)
    try:
        assert isinstance(reader(path, **data.draw(kwargs)), kind)
    except FormatError:
        pass


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
