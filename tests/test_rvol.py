import numpy as np
import pytest

from voxflow.errors import FormatError
from voxflow.grid import MotionField, RadarVolume
from voxflow.rvol import read_motion, read_rvol, write_motion, write_rvol
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

    def test_trailing_bytes_rejected(self, tmp_path):
        mf = MotionField(np.zeros((1, 2, 4, 4)))
        path = tmp_path / "m.rmf"
        write_motion(path, mf)
        with open(path, "ab") as fh:
            fh.write(b"junk")
        with pytest.raises(FormatError) as err:
            read_motion(path)
        assert err.value.field == "chunk"
