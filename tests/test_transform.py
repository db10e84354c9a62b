import numpy as np
import pytest

from voxflow.grid import DBR_FLOOR, RainField, Space
from voxflow.transform import (
    DBR_THRESHOLD_MMH,
    dbr_to_rain,
    dbz_to_rain,
    rain_to_dbr,
    rain_to_dbz,
)

# closed-form inverse of Z = a R^b with a=200, b=1.6:
# R = 1 mm/h  ->  dBZ = 10 log10(200) = 23.0103
DBZ_R1 = 10.0 * np.log10(200.0)


class TestDbzToRain:
    def test_one_mm_per_hour(self):
        out = dbz_to_rain(np.array([[DBZ_R1]]))
        assert out.data[0, 0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_ten_mm_per_hour(self):
        # Z grows by 10^1.6 per decade of R: dBZ = 23.0103 + 16
        out = dbz_to_rain(np.array([[DBZ_R1 + 16.0]]))
        assert out.data[0, 0, 0] == pytest.approx(10.0, rel=1e-12)

    def test_no_echo_is_zero(self):
        out = dbz_to_rain(np.array([[-np.inf]]))
        assert out.data[0, 0, 0] == 0.0
        assert not out.mask[0, 0, 0]

    def test_masked_cells_cleared(self):
        out = dbz_to_rain(np.array([[30.0, 30.0]]),
                          mask=np.array([[True, False]]))
        assert out.data[0, 0, 1] == 0.0
        assert not out.mask[0, 0, 1]

    def test_monotone_in_dbz(self):
        dbz = np.linspace(-20, 60, 81).reshape(1, -1)
        rain = dbz_to_rain(dbz).data[0, 0]
        assert (np.diff(rain) > 0).all()

    def test_round_trip_with_rain_to_dbz(self):
        rng = np.random.default_rng(0)
        rain = RainField(data=rng.uniform(0.1, 50.0, (1, 4, 4)), space=Space.MMH)
        back = dbz_to_rain(rain_to_dbz(rain))
        np.testing.assert_allclose(back.data, rain.data, rtol=1e-10)


class TestRainToDbr:
    def test_unity_is_zero(self):
        out = rain_to_dbr(RainField(data=np.array([[1.0]]), space=Space.MMH))
        assert out.data[0, 0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_decade_is_ten(self):
        out = rain_to_dbr(RainField(data=np.array([[10.0]]), space=Space.MMH))
        assert out.data[0, 0, 0] == pytest.approx(10.0)

    def test_zero_maps_to_floor(self):
        out = rain_to_dbr(RainField(data=np.array([[0.0]]), space=Space.MMH))
        assert out.data[0, 0, 0] == DBR_FLOOR

    def test_continuous_at_threshold(self):
        eps = 1e-9
        just_above = rain_to_dbr(RainField(
            data=np.array([[DBR_THRESHOLD_MMH * (1 + eps)]]), space=Space.MMH))
        assert just_above.data[0, 0, 0] == pytest.approx(DBR_FLOOR, abs=1e-6)

    def test_monotone_above_floor(self):
        rain = np.linspace(0.05, 30.0, 100).reshape(1, -1)
        dbr = rain_to_dbr(RainField(data=rain, space=Space.MMH)).data[0, 0]
        assert (np.diff(dbr) > 0).all()


class TestDbrToRain:
    def test_zero_dbr_is_one(self):
        out = dbr_to_rain(RainField(data=np.array([[0.0]]), space=Space.DBR))
        assert out.data[0, 0, 0] == pytest.approx(1.0)

    def test_floor_is_zero(self):
        out = dbr_to_rain(RainField(data=np.array([[DBR_FLOOR]]), space=Space.DBR))
        assert out.data[0, 0, 0] == 0.0

    def test_round_trip_above_threshold(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rain = rng.uniform(DBR_THRESHOLD_MMH * 1.01, 80.0, (1, 5, 5))
            f = RainField(data=rain, space=Space.MMH)
            back = dbr_to_rain(rain_to_dbr(f))
            np.testing.assert_allclose(back.data, rain, rtol=1e-6)

    def test_space_checks(self):
        mmh = RainField(data=np.ones((2, 2)), space=Space.MMH)
        with pytest.raises(ValueError):
            dbr_to_rain(mmh)
        dbr = rain_to_dbr(mmh)
        with pytest.raises(ValueError):
            rain_to_dbr(dbr)
