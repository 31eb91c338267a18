import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reramopt.design_space import (
    RES_CELL_LEVELS,
    XBAR_SIZES,
    DesignSpace,
    ReramDesign,
    fidelity_grid,
)

SPACE = DesignSpace()


def make(res_cell=2, freq=5e8, temp=350.0, xbar=64, **kw):
    return ReramDesign(res_cell=res_cell, freq_hz=freq, temperature_k=temp, xbar_size=xbar, **kw)


class TestEncode:
    def test_lower_corner(self):
        v = SPACE.encode(make(res_cell=1, freq=1e7, temp=300.0, xbar=32))
        np.testing.assert_allclose(v, [0.0, 0.0, 0.0, 0.0])

    def test_upper_corner(self):
        v = SPACE.encode(make(res_cell=8, freq=1e9, temp=400.0, xbar=128))
        np.testing.assert_allclose(v, [1.0, 1.0, 1.0, 1.0])

    def test_xbar64_is_midpoint(self):
        assert SPACE.encode(make(xbar=64))[3] == 0.5

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            make(res_cell=5)
        with pytest.raises(ValueError):
            make(freq=5e9)
        with pytest.raises(ValueError):
            make(temp=250.0)
        with pytest.raises(ValueError):
            make(xbar=96)


class TestDecode:
    def test_lower_corner(self):
        d = SPACE.decode(np.zeros(4))
        assert (d.res_cell, d.freq_hz, d.temperature_k, d.xbar_size) == (1, 1e7, 300.0, 32)

    def test_nearest_level_snap_res_cell(self):
        assert SPACE.decode([0.24, 0.5, 0.5, 0.5]).res_cell == 2

    def test_nearest_level_snap_xbar(self):
        assert SPACE.decode([0.0, 0.0, 0.0, 0.6]).xbar_size == 64

    def test_total_on_unit_cube_with_clamping(self):
        d = SPACE.decode([-0.3, 1.7, 0.42, 2.0])
        assert d.res_cell == 1 and d.freq_hz == 1e9 and d.xbar_size == 128

    @given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_decode_always_valid(self, coords):
        d = SPACE.decode(np.array(coords))
        assert d.res_cell in RES_CELL_LEVELS
        assert d.xbar_size in XBAR_SIZES
        assert 1e7 <= d.freq_hz <= 1e9
        assert 300.0 <= d.temperature_k <= 400.0


class TestRoundTrip:
    @pytest.mark.parametrize("res_cell", RES_CELL_LEVELS)
    @pytest.mark.parametrize("xbar", XBAR_SIZES)
    def test_grid_designs_round_trip(self, res_cell, xbar):
        rng = np.random.default_rng(res_cell * 100 + xbar)
        for _ in range(10):
            d = make(
                res_cell=res_cell,
                xbar=xbar,
                freq=float(rng.uniform(1e7, 1e9)),
                temp=float(rng.uniform(300.0, 400.0)),
            )
            d2 = SPACE.decode(SPACE.encode(d))
            assert d2.res_cell == d.res_cell
            assert d2.xbar_size == d.xbar_size
            assert d2.freq_hz == pytest.approx(d.freq_hz, rel=1e-12)
            assert d2.temperature_k == pytest.approx(d.temperature_k, rel=1e-12)


class TestSampling:
    # Campaigns sample designs as the decode of uniform coordinates.
    def test_law_of_large_numbers(self):
        designs = [SPACE.decode(u) for u in np.random.default_rng(11).random((10000, 4))]
        coords = np.array([SPACE.encode(d) for d in designs])
        # Ordinal coordinates snap to grid levels whose mean is still 0.5.
        assert np.all(np.abs(coords.mean(axis=0) - 0.5) < 0.02)

    def test_all_valid(self):
        for u in np.random.default_rng(3).random((100, 4)):
            d = SPACE.decode(u)
            assert d.res_cell in RES_CELL_LEVELS and d.xbar_size in XBAR_SIZES


class TestFidelityGrid:
    def test_top_level_is_exactly_one(self):
        for n in (1, 2, 10):
            assert fidelity_grid(n)[-1] == 1.0

    def test_ten_levels(self):
        g = fidelity_grid(10)
        assert len(g) == 10 and g[0] == 0.0
        np.testing.assert_allclose(np.diff(g), 1.0 / 9.0)


def test_with_context_keeps_device():
    d = make(res_cell=8, xbar=128)
    r = d.with_context(1e8, 300.0)
    assert r.freq_hz == 1e8 and r.temperature_k == 300.0
    assert r.res_cell == 8 and r.xbar_size == 128 and r.r_on == d.r_on


def test_space_constants_flow_into_designs():
    space = SPACE
    d = space.decode([0.5, 0.5, 0.5, 0.5])
    assert d.bit_quan == 8 and d.v_r == 1.65 and d.sigma_prog == 0.0658


def test_dac_narrower_than_the_activation_quantizer_rejected():
    # A 4-bit DAC would clip 8-bit activation codes at 15 without an error.
    with pytest.raises(ValueError, match=r"res_dac \(4\) is narrower than bit_quan \(8\)"):
        make(res_dac=4)
    assert make(res_dac=4, bit_quan=4).res_dac == 4


PER_DESIGN_CONSTANTS = (
    "g_min",
    "g_max",
    "g_step",
    "slice_shifts",
    "slice_weights",
    "dac_levels",
    "v_step",
    "adc_levels",
)


def test_equal_designs_get_equal_constants():
    warm, cold = make(res_cell=3, xbar=128), make(res_cell=3, xbar=128)
    for name in PER_DESIGN_CONSTANTS:
        getattr(warm, name)
    for name in PER_DESIGN_CONSTANTS:
        np.testing.assert_array_equal(getattr(warm, name), getattr(cold, name))
    assert warm == cold and hash(warm) == hash(cold)


def test_replaced_design_computes_its_own_constants():
    d = make(res_cell=2, temp=300.0, res_adc=8)
    assert (d.g_step, d.adc_levels, len(d.slice_weights)) == ((d.g_max - d.g_min) / 3, 255, 4)
    wide = dataclasses.replace(d, res_cell=4, res_adc=None)
    assert wide.g_step == (d.g_max - d.g_min) / 15 and wide.adc_levels is None
    np.testing.assert_array_equal(wide.slice_shifts, [4, 0])
    np.testing.assert_array_equal(wide.slice_weights, [16.0, 1.0])
