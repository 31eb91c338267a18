import numpy as np
import pytest

from reramopt.noise import (
    K_BOLTZMANN,
    Q_ELECTRON,
    NoiseContext,
    RtnParams,
    prog_sigma,
    rtn_amplitude,
    rtn_sample,
    sample_read,
    sample_write_noise,
    shot_sigma,
    thermal_sigma,
)

G_LOW = 1.0 / 3.03e6  # lowest programmable conductance


def sample_read_noise(c, rng, **sources):
    """The read perturbation alone: one production read minus the conductance."""
    return sample_read(c, rng, **sources) - c.g


def ctx(g=3.3003e-7, v=1.65, freq=5e8, temp=350.0, **kw):
    return NoiseContext(g=g, v=v, freq_hz=freq, temperature_k=temp, **kw)


class TestThermal:
    def test_reference_value(self):
        # Independent arithmetic oracle for sqrt(4*G*f*k_B*T)/V.
        expected = np.sqrt(4.0 * 3.3003e-7 * 5e8 * K_BOLTZMANN * 350.0) / 1.65
        assert thermal_sigma(ctx()) == pytest.approx(expected, rel=1e-12)
        assert thermal_sigma(ctx()) == pytest.approx(1.082e-9, rel=5e-3)

    def test_zero_conductance(self):
        assert thermal_sigma(ctx(g=0.0)) == 0.0

    def test_sqrt_scaling_in_freq(self):
        assert thermal_sigma(ctx(freq=4e8)) == pytest.approx(2 * thermal_sigma(ctx(freq=1e8)))


class TestShot:
    def test_reference_value(self):
        expected = np.sqrt(2.0 * 3.3003e-7 * 5e8 * Q_ELECTRON * 1.65) / 1.65
        assert shot_sigma(ctx()) == pytest.approx(expected, rel=1e-12)
        assert shot_sigma(ctx()) == pytest.approx(5.66e-9, rel=5e-3)

    def test_zero_conductance(self):
        assert shot_sigma(ctx(g=0.0)) == 0.0

    def test_sqrt_scaling_in_g(self):
        assert shot_sigma(ctx(g=4e-6)) == pytest.approx(2 * shot_sigma(ctx(g=1e-6)))


class TestProg:
    def test_reference_value(self):
        assert prog_sigma(ctx(g=1e-4)) == pytest.approx(6.58e-6, rel=1e-12)

    def test_zero(self):
        assert prog_sigma(ctx(g=0.0)) == 0.0

    def test_proportionality(self):
        ratios = [prog_sigma(ctx(g=g)) / g for g in (1e-7, 3e-6, 2e-4)]
        assert max(ratios) == pytest.approx(min(ratios))


class TestRtn:
    def test_never_occupied(self):
        c = ctx(rtn=RtnParams(p_occupancy=0.0))
        rng = np.random.default_rng(0)
        assert all(rtn_sample(c, rng) == 0.0 for _ in range(100))

    def test_forced_amplitude_law(self):
        c = ctx(g=2e-5, rtn=RtnParams(amp_coeff_a=0.0, amp_coeff_b=0.1, p_occupancy=1.0))
        assert rtn_sample(c, np.random.default_rng(0)) == pytest.approx(0.1 * 2e-5)

    def test_amplitude_affine_form(self):
        p = RtnParams(amp_coeff_a=4e-4, amp_coeff_b=2e-3)
        c = ctx(g=5e-6, rtn=p)
        assert rtn_amplitude(c) == pytest.approx(4e-4 * G_LOW + 2e-3 * 5e-6)

    def test_empirical_occupancy(self):
        p = 0.37
        c = ctx(g=np.full(1_000_000, 1e-5), rtn=RtnParams(p_occupancy=p))
        draws = rtn_sample(c, np.random.default_rng(42))
        assert abs(np.mean(draws > 0) - p) < 0.003


class TestSamplers:
    def test_all_disabled_gives_zero(self):
        c = ctx()
        rng = np.random.default_rng(0)
        assert sample_read_noise(c, rng, thermal=False, shot=False, rtn=False) == 0.0
        assert sample_write_noise(c, rng, prog=False) == 0.0

    def test_determinism(self):
        c = ctx(g=np.full(10, 1e-5))
        a = sample_read_noise(c, np.random.default_rng(5))
        b = sample_read_noise(c, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "sampler,sigma_fn,kwargs",
        [
            (sample_read_noise, thermal_sigma, {"shot": False, "rtn": False}),
            (sample_read_noise, shot_sigma, {"thermal": False, "rtn": False}),
            (sample_write_noise, prog_sigma, {}),
        ],
    )
    def test_monte_carlo_std_matches_analytic(self, sampler, sigma_fn, kwargs):
        c = ctx(g=np.full(1_000_000, 2.5e-5))
        draws = sampler(c, np.random.default_rng(123), **kwargs)
        analytic = sigma_fn(ctx(g=2.5e-5))
        assert np.std(draws) == pytest.approx(analytic, rel=0.01)

    def test_relative_read_noise_decreases_with_g(self):
        # Thermal+shot sigma scales with sqrt(G), so |dG|/G falls as G rises.
        n = 200_000
        lo = ctx(g=np.full(n, G_LOW))
        hi = ctx(g=np.full(n, 1.0 / 3.03e3))
        rng = np.random.default_rng(7)
        rel_lo = np.mean(np.abs(sample_read_noise(lo, rng, rtn=False))) / G_LOW
        rel_hi = np.mean(np.abs(sample_read_noise(hi, rng, rtn=False))) / (1.0 / 3.03e3)
        assert rel_lo > rel_hi


class TestValidation:
    def test_negative_conductance_rejected(self):
        with pytest.raises(ValueError):
            ctx(g=-1e-6)

    def test_bad_voltage(self):
        with pytest.raises(ValueError):
            ctx(v=0.0)

    def test_bad_occupancy(self):
        with pytest.raises(ValueError):
            RtnParams(p_occupancy=1.5)
