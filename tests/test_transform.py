import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxflow.grid import (
    DBR_FLOOR,
    NO_ECHO_DBZ,
    RadarVolume,
    RainField,
    cmax,
    cmax_field,
)
from voxflow.transform import (
    DBR_THRESHOLD_MMH,
    F32_OVERFLOW_MMH,
    dbz_reaching,
    dbz_to_rain,
    rain_to_dbr,
    rain_to_dbz,
    volume_to_rain,
)

# closed-form inverse of Z = a R^b with a=200, b=1.6:
# R = 1 mm/h  ->  dBZ = 10 log10(200) = 23.0103
DBZ_R1 = 10.0 * np.log10(200.0)


class TestDbzToRain:
    def test_one_mm_per_hour(self):
        out = dbz_to_rain(np.array([[[DBZ_R1]]]))
        assert out.data[0, 0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_ten_mm_per_hour(self):
        # Z grows by 10^1.6 per decade of R: dBZ = 23.0103 + 16
        out = dbz_to_rain(np.array([[[DBZ_R1 + 16.0]]]))
        assert out.data[0, 0, 0] == pytest.approx(10.0, rel=1e-12)

    def test_no_echo_is_zero(self):
        out = dbz_to_rain(np.array([[[-np.inf]]]))
        assert out.data[0, 0, 0] == 0.0
        assert not out.mask[0, 0, 0]

    def test_masked_cells_cleared(self):
        out = dbz_to_rain(np.array([[[30.0, 30.0]]]),
                          mask=np.array([[[True, False]]]))
        assert out.data[0, 0, 1] == 0.0
        assert not out.mask[0, 0, 1]

    def test_monotone_in_dbz(self):
        dbz = np.linspace(-20, 60, 81).reshape(1, 1, -1)
        rain = dbz_to_rain(dbz).data[0, 0]
        assert (np.diff(rain) > 0).all()

    def test_round_trip_with_rain_to_dbz(self):
        rng = np.random.default_rng(0)
        rain = RainField(data=rng.uniform(0.1, 50.0, (1, 4, 4)))
        back = dbz_to_rain(rain_to_dbz(rain.data))
        np.testing.assert_allclose(back.data, rain.data, rtol=1e-10)


def _dbz_to_rain_reference(dbz, mask=None):
    """dbz_to_rain's data and mask as nan_to_num and np.where passes
    computed them: the reference of the in-place clamps."""
    arr = np.asarray(dbz, dtype=np.float64)
    with np.errstate(over="ignore"):
        rain = np.power(np.power(10.0, arr / 10.0) / 200.0, 1.0 / 1.6)
    rain = np.nan_to_num(rain, nan=0.0, posinf=np.inf)
    rain = np.where(arr <= NO_ECHO_DBZ, 0.0, rain)
    if mask is None:
        mask = np.isfinite(arr)
    else:
        mask = np.asarray(mask, dtype=bool) & np.isfinite(arr)
    return np.where(mask, rain, 0.0), mask


def _rain_to_dbz_reference(r):
    """rain_to_dbz in r's float dtype, its constants rounded to it, with
    nan_to_num's clamps; +inf takes the dtype's largest float."""
    cast = r.dtype.type
    with np.errstate(divide="ignore"):
        dbz = cast(10.0 * np.log10(200.0)) + cast(10.0 * 1.6) * np.log10(r)
    return np.maximum(np.nan_to_num(dbz, nan=NO_ECHO_DBZ, neginf=NO_ECHO_DBZ),
                      NO_ECHO_DBZ)


_MAX = np.finfo(np.float64).max
#: the values a clamp meets: NaN, the infinities, signed zeros, subnormals,
#: tiny and huge magnitudes, then any float at all
_EDGE = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e-310,
                     -1e-310, 1e-300, _MAX, -_MAX, NO_ECHO_DBZ]),
    st.floats(-60.0, 400.0),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


@st.composite
def _edge_arrays(draw):
    """A small Z x Y x X array of _EDGE values and a random mask."""
    shape = tuple(draw(st.integers(1, n)) for n in (2, 3, 4))
    size = int(np.prod(shape))
    data = np.array(draw(st.lists(_EDGE, min_size=size, max_size=size)))
    mask = np.array(draw(st.lists(st.booleans(), min_size=size,
                                  max_size=size)))
    return data.reshape(shape), mask.reshape(shape)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestClampsMatchNanToNum:
    """The in-place fmax/minimum clamps give nan_to_num's bytes."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_edge_arrays(), masked=st.booleans())
    def test_dbz_to_rain(self, case, masked):
        dbz, mask = case
        mask = mask if masked else None
        got = dbz_to_rain(dbz, mask=mask)
        want, want_mask = _dbz_to_rain_reference(dbz, mask)
        assert np.array_equal(_bits(got.data), _bits(want))
        assert np.array_equal(got.mask, want_mask)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_edge_arrays(), masked=st.booleans())
    def test_dbz_to_rain_of_float32(self, case, masked):
        # a float32 frame converts as its exact float64 copy does
        dbz, mask = case
        with np.errstate(over="ignore"):
            dbz = dbz.astype(np.float32)
        mask = mask if masked else None
        got = dbz_to_rain(dbz, mask=mask)
        want, want_mask = _dbz_to_rain_reference(dbz.astype(np.float64), mask)
        assert np.array_equal(_bits(got.data), _bits(want))
        assert np.array_equal(got.mask, want_mask)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dbz_to_rain_holds_one_float64_frame(self, dtype):
        # the rates are computed in the result's array, beside a few
        # boolean planes: no float64 copy of the input and no temporary of
        # the result's size (about 1.5, 2.5 and 3.5 times the result)
        dbz = np.random.default_rng(3).uniform(-40.0, 70.0, (8, 64, 64))
        dbz = dbz.astype(dtype)
        tracemalloc.start()
        try:
            out = dbz_to_rain(dbz)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * out.data.nbytes, peak

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_edge_arrays())
    def test_rain_to_dbz(self, case):
        rain, mask = case
        # an MMH field holds no negative valid rate; NaN, -inf and negative
        # values reach the clamps from invalid cells
        field = RainField(data=rain, mask=mask & ~(rain < 0))
        with np.errstate(invalid="ignore"):
            got = rain_to_dbz(field.data)
            want = _rain_to_dbz_reference(field.data)
        assert np.array_equal(_bits(got), _bits(want))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_edge_arrays())
    def test_rain_to_dbz_of_float32(self, case):
        # float32 rates convert in float32, as nowcast converts its leads:
        # the float32 reference's bytes, within float32 rounding of the
        # float64 conversion of the same rates
        rain, _ = case
        with np.errstate(over="ignore"):
            rain = rain.astype(np.float32)
        with np.errstate(invalid="ignore"):
            got = rain_to_dbz(rain)
            want = _rain_to_dbz_reference(rain)
            wide = rain_to_dbz(rain.astype(np.float64))
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        usual = (rain > 0) & (rain < 1e6)
        np.testing.assert_allclose(got[usual], wide[usual], rtol=0,
                                   atol=1e-4)


class TestRainToDbr:
    def test_unity_is_zero(self):
        out = rain_to_dbr(RainField(data=np.array([[[1.0]]])))
        assert out[0, 0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_decade_is_ten(self):
        out = rain_to_dbr(RainField(data=np.array([[[10.0]]])))
        assert out[0, 0, 0] == pytest.approx(10.0)

    def test_zero_maps_to_floor(self):
        out = rain_to_dbr(RainField(data=np.array([[[0.0]]])))
        assert out[0, 0, 0] == DBR_FLOOR

    def test_continuous_at_threshold(self):
        eps = 1e-9
        just_above = rain_to_dbr(RainField(
            data=np.array([[[DBR_THRESHOLD_MMH * (1 + eps)]]])))
        assert just_above[0, 0, 0] == pytest.approx(DBR_FLOOR, abs=1e-6)

    def test_float32_field_gives_the_float64_copys_bytes(self):
        # the threshold and the logarithm are taken in float64; float32
        # rates next to the threshold fall on the same side as their copy
        rng = np.random.default_rng(6)
        edge = np.float32(DBR_THRESHOLD_MMH)
        rates = np.concatenate([
            [0.0, np.inf, np.nextafter(edge, np.float32(0)), edge,
             np.nextafter(edge, np.float32(1)), 1e-30, 3.4e38],
            rng.uniform(0.0, 50.0, 41)]).astype(np.float32).reshape(1, 6, 8)
        mask = rng.random(rates.shape) > 0.2
        got = rain_to_dbr(RainField(data=rates, mask=mask))
        want = rain_to_dbr(RainField(data=rates.astype(np.float64), mask=mask))
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_monotone_above_floor(self):
        rain = np.linspace(0.05, 30.0, 100).reshape(1, 1, -1)
        dbr = rain_to_dbr(RainField(data=rain))[0, 0]
        assert (np.diff(dbr) > 0).all()

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf],
                                     [np.nan, np.inf]],
                             ids=["nan", "inf", "-inf", "nan-and-inf"])
    @pytest.mark.parametrize("finite", [False, True],
                             ids=["alone", "with-finite"])
    def test_non_finite_valid_rate_is_rejected(self, bad, finite):
        # one rule for every non-finite valid rate, counted in the message;
        # the same values in invalid cells are left alone
        rates = list(bad) + ([0.0, 2.5, DBR_THRESHOLD_MMH] if finite else [])
        data = np.array(rates * 2).reshape(1, 2, -1)
        mask = np.ones(data.shape, bool)
        with pytest.raises(ValueError, match=f"^{2 * len(bad)} valid cell"):
            rain_to_dbr(RainField(data=data, mask=mask))
        mask[:, :, :len(bad)] = False
        out = rain_to_dbr(RainField(data=data, mask=mask))
        assert np.isfinite(out[mask]).all()
        assert out.dtype == np.float64 and out.shape == data.shape


class TestDbzReaching:
    """dbz_reaching(rate) splits finite dBZ by dbz_to_rain's own rates: a
    value's rate reaches rate exactly where the value is at or above it."""

    #: float32 ulps on each side of a boundary; about 2 dBZ at 1 mm/h and
    #: 64 dBZ at float32's range
    WINDOW = 2 ** 20

    @staticmethod
    def _window(edge, ints, span):
        """Every value within span steps of the positive edge, in order."""
        steps = np.arange(-span, span + 1, dtype=ints)
        return (np.array([edge]).view(ints) + steps).view(edge.dtype)

    @pytest.mark.parametrize("rate", [1.0, 0.7, 5.0])
    def test_float32_window_around_a_rain_rate(self, rate):
        edge = dbz_reaching(rate)
        assert edge.dtype == np.float32 and edge > NO_ECHO_DBZ
        dbz = self._window(edge, np.int32, self.WINDOW)
        rain = dbz_to_rain(dbz[None, None]).data[0, 0]
        assert (np.diff(rain) >= 0).all()
        assert np.array_equal(rain >= rate, dbz >= edge)

    def test_float32_window_around_float32s_range(self):
        # the rates whose float32 rounding is infinite: the rule by which
        # every command refuses a frame
        edge = dbz_reaching(F32_OVERFLOW_MMH)
        assert f"{edge:.4f}" == "639.5198"
        dbz = self._window(edge, np.int32, self.WINDOW)
        rain = dbz_to_rain(dbz[None, None]).data[0, 0]
        assert (np.diff(rain) >= 0).all()
        with np.errstate(over="ignore"):
            beyond = np.isinf(rain.astype(np.float32))
        assert np.array_equal(beyond, dbz >= edge)
        assert np.array_equal(rain >= F32_OVERFLOW_MMH, dbz >= edge)

    @pytest.mark.parametrize("rate", [1.0, F32_OVERFLOW_MMH])
    def test_float64_window(self, rate):
        edge = dbz_reaching(rate, np.float64)
        assert edge.dtype == np.float64
        assert abs(edge - dbz_reaching(rate)) < 1e-4
        dbz = self._window(edge, np.int64, 2 ** 16)
        rain = dbz_to_rain(dbz[None, None]).data[0, 0]
        assert np.array_equal(rain >= rate, dbz >= edge)

    def test_every_value_reaches_a_rate_of_zero(self):
        lowest = np.finfo(np.float32).min
        assert dbz_reaching(0.0) == dbz_reaching(-1.0) == lowest

    def test_nan_rate_is_rejected(self):
        with pytest.raises(ValueError, match="reaches nan mm/h"):
            dbz_reaching(float("nan"))


#: dBZ values a column maximum meets: the no-echo sentinel and its two
#: neighbours, repeated values that tie, the stored range and beyond it,
#: and the non-finite values that a valid cell may hold
_DBZ = st.one_of(
    st.sampled_from([NO_ECHO_DBZ, np.nextafter(NO_ECHO_DBZ, 0.0),
                     np.nextafter(NO_ECHO_DBZ, -np.inf), -40.0, 0.0, 23.0,
                     55.5, 95.0]),
    st.floats(-80.0, 400.0),
    st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def _dbz_volumes(draw) -> RadarVolume:
    """Small T x Z x Y x X volumes, Z = 1 included, with masked cells and
    often one column without a valid cell."""
    t, z, y, x = (draw(st.integers(1, n)) for n in (2, 4, 4, 4))
    data = np.array(draw(st.lists(_DBZ, min_size=t * z * y * x,
                                  max_size=t * z * y * x)))
    mask = np.array(draw(st.lists(st.booleans(), min_size=z * y * x,
                                  max_size=z * y * x))).reshape(z, y, x)
    if draw(st.booleans()):
        mask[:, draw(st.integers(0, y - 1)), draw(st.integers(0, x - 1))] = False
    return RadarVolume(data=data.reshape(t, z, y, x),
                       z_levels=500.0 * np.arange(1, z + 1), mask=mask)


class TestCmaxRain:
    """verify pools each lead in dBZ with grid.cmax and converts one level;
    that must give the bytes of converting every level first."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(vol=_dbz_volumes())
    def test_pooling_in_dbz_first_gives_the_same_bytes(self, vol):
        pooled = cmax(vol)
        for t in range(vol.shape[0]):
            want = cmax_field(volume_to_rain(vol, t))
            got = volume_to_rain(pooled, t)
            assert np.array_equal(got.data, want.data)
            assert np.array_equal(got.mask, want.mask)
            assert got.data.tobytes() == want.data.tobytes()

    def test_column_without_valid_cell_is_invalid_zero(self):
        mask = np.array([[[True, False]], [[False, False]]])
        vol = RadarVolume(data=np.full((1, 2, 1, 2), 40.0),
                          z_levels=[500.0, 1500.0], mask=mask)
        got = volume_to_rain(cmax(vol), 0)
        assert got.data.shape == (1, 1, 2)
        assert got.mask.tolist() == [[[True, False]]]
        assert got.data[0, 0, 1] == 0.0

    def test_z_r_map_is_monotone_on_every_u8_code(self):
        # each code decoded as the RVOL reader decodes it
        dbz = np.arange(255, dtype=np.uint8).astype(np.float64) / 2.0 - 32.0
        rain = dbz_to_rain(dbz[None, None]).data.ravel()
        assert (np.diff(rain) >= 0).all()

    def test_z_r_map_is_monotone_on_a_dense_f32_sample(self):
        # an even spread over the stored range plus runs of consecutive f32
        # values around the no-echo value and a few rain rates
        spread = np.linspace(-40.0, 130.0, 1_000_001).astype(np.float32)
        steps = np.arange(-20_000, 20_000, dtype=np.int32)
        runs = [(np.array([c], np.float32).view(np.int32) + steps)
                .view(np.float32) for c in (-32.0, -31.5, 0.5, 23.0, 47.25)]
        dbz = np.sort(np.concatenate([spread, *runs])).astype(np.float64)
        rain = dbz_to_rain(dbz[None, None]).data.ravel()
        assert (np.diff(rain) >= 0).all()
