import dataclasses

import numpy as np
import pytest
from scipy import stats

from reramopt.design_space import ReramDesign
from reramopt.noise import (
    K_BOLTZMANN,
    Q_ELECTRON,
    NoiseSpec,
    prog_sigma,
    rtn_amplitude,
    rtn_sample,
    sample_read,
    sample_write_noise,
    shot_sigma,
    standard_normal,
    thermal_sigma,
)

G_LOW = 1.0 / 3.03e6  # lowest programmable conductance
G_REF = 3.3003e-7


def sample_read_noise(g, design, spec, rng):
    """The read perturbation alone: one production read minus the conductance."""
    return sample_read(g, design, spec, rng) - g


def dsg(freq=5e8, temp=350.0, **kw):
    """A design at the given operating point; v_r defaults to 1.65 V."""
    return ReramDesign(res_cell=2, freq_hz=freq, temperature_k=temp, xbar_size=64, **kw)


D = dsg()


class TestThermal:
    def test_reference_value(self):
        # Independent arithmetic oracle for sqrt(4*G*f*k_B*T)/V.
        expected = np.sqrt(4.0 * 3.3003e-7 * 5e8 * K_BOLTZMANN * 350.0) / 1.65
        assert thermal_sigma(G_REF, D) == pytest.approx(expected, rel=1e-12)
        assert thermal_sigma(G_REF, D) == pytest.approx(1.082e-9, rel=5e-3)

    def test_zero_conductance(self):
        assert thermal_sigma(0.0, D) == 0.0

    def test_sqrt_scaling_in_freq(self):
        assert thermal_sigma(G_REF, dsg(freq=4e8)) == pytest.approx(2 * thermal_sigma(G_REF, dsg(freq=1e8)))


class TestShot:
    def test_reference_value(self):
        expected = np.sqrt(2.0 * 3.3003e-7 * 5e8 * Q_ELECTRON * 1.65) / 1.65
        assert shot_sigma(G_REF, D) == pytest.approx(expected, rel=1e-12)
        assert shot_sigma(G_REF, D) == pytest.approx(5.66e-9, rel=5e-3)

    def test_zero_conductance(self):
        assert shot_sigma(0.0, D) == 0.0

    def test_sqrt_scaling_in_g(self):
        assert shot_sigma(4e-6, D) == pytest.approx(2 * shot_sigma(1e-6, D))


class TestProg:
    def test_reference_value(self):
        assert prog_sigma(1e-4, D) == pytest.approx(6.58e-6, rel=1e-12)

    def test_zero(self):
        assert prog_sigma(0.0, D) == 0.0

    def test_proportionality(self):
        ratios = [prog_sigma(g, D) / g for g in (1e-7, 3e-6, 2e-4)]
        assert max(ratios) == pytest.approx(min(ratios))


class TestRtn:
    def test_never_occupied(self):
        spec = NoiseSpec(rtn_p_occupancy=0.0)
        rng = np.random.default_rng(0)
        assert all(rtn_sample(G_REF, D, spec, rng) == 0.0 for _ in range(100))

    def test_forced_amplitude_law(self):
        spec = NoiseSpec(rtn_amp_a=0.0, rtn_amp_b=0.1, rtn_p_occupancy=1.0)
        assert rtn_sample(2e-5, D, spec, np.random.default_rng(0)) == pytest.approx(0.1 * 2e-5)

    def test_amplitude_affine_form(self):
        spec = NoiseSpec(rtn_amp_a=4e-4, rtn_amp_b=2e-3)
        assert rtn_amplitude(5e-6, D, spec) == pytest.approx(4e-4 * G_LOW + 2e-3 * 5e-6)

    def test_amplitude_masks_g_zero_exactly_as_the_where_form(self):
        spec = NoiseSpec(rtn_amp_a=4e-4, rtn_amp_b=2e-3)
        g = np.concatenate([[0.0], np.geomspace(1e-12, 1e-3, 200), np.linspace(0.0, 2e-4, 101)])
        jump = spec.rtn_amp_a * D.g_min + spec.rtn_amp_b * g
        reference = np.where(g > 0.0, jump, 0.0)
        assert rtn_amplitude(g, D, spec).tobytes() == reference.tobytes()
        assert rtn_amplitude(0.0, D, spec) == 0.0

    def test_empirical_occupancy(self):
        p = 0.37
        spec = NoiseSpec(rtn_p_occupancy=p)
        draws = rtn_sample(np.full(1_000_000, 1e-5), D, spec, np.random.default_rng(42))
        assert abs(np.mean(draws > 0) - p) < 0.003

    @pytest.mark.parametrize("p", [0.5, 0.37])
    def test_occupancy_source_per_p(self, p):
        # p = 1/2 takes one packed bit per cell, any other p one uniform per cell.
        g = np.full((3, 7, 5), 1e-5)
        occupied = rtn_sample(g, D, NoiseSpec(rtn_p_occupancy=p), np.random.default_rng(4)) > 0
        rng = np.random.default_rng(4)
        if p == 0.5:
            bits = np.unpackbits(rng.integers(0, 256, 14, dtype=np.uint8))[: g.size]
            want = bits.reshape(g.shape) == 1
        else:
            want = rng.random(g.shape) < p
        np.testing.assert_array_equal(occupied, want)

    def test_packed_occupancy_is_bernoulli_half(self):
        n = 1_000_000
        spec = NoiseSpec()
        occupied = (rtn_sample(np.full(n, 1e-5), D, spec, np.random.default_rng(43)) > 0).astype(float)
        # Bernoulli(1/2): sd 1/2, so the mean's s.e. is 0.5/sqrt(n) and the
        # lag-1 correlation's 1/sqrt(n).
        assert abs(occupied.mean() - 0.5) <= 5 * 0.5 / np.sqrt(n)
        c = occupied - occupied.mean()
        lag1 = np.dot(c[:-1], c[1:]) / np.dot(c, c)
        assert abs(lag1) <= 5 / np.sqrt(n)


class TestStandardNormal:
    """The emulator's one Gaussian source against N(0, 1)."""

    N = 1_000_000

    def test_law_matches_the_standard_normal(self):
        z = standard_normal(np.random.default_rng(0), (self.N,))
        assert z.dtype == np.float32
        z = z.astype(float)
        # One-sample KS test at the 1% level: the asymptotic critical value.
        assert stats.kstest(z, "norm").statistic < 1.628 / np.sqrt(self.N)
        # Mean and variance within 5 standard errors: 1/sqrt(n) and sqrt(2/n).
        assert abs(z.mean()) <= 5 / np.sqrt(self.N)
        assert abs(z.var() - 1.0) <= 5 * np.sqrt(2 / self.N)
        # u1 is a float32 multiple of 2**-24 below 1, which bounds the radius.
        assert np.abs(z).max() <= np.sqrt(-2 * np.log(2.0**-24))

    def test_largest_value_is_the_stated_tail_cut(self):
        class LargestRadius:
            """Stands in for a generator: u1 at its largest float32, 1 - 2**-24, and u2 = 0."""

            def random(self, size, dtype):
                u = np.zeros(size, dtype)
                u[: size // 2] = 1 - 2.0**-24
                return u

        z = standard_normal(LargestRadius(), (2,))
        assert z[0] <= np.sqrt(48 * np.log(2)) and z[0] == pytest.approx(5.768107, abs=1e-6)
        assert z[1] == 0.0

    @pytest.mark.parametrize("shape", [(), (0,), (1,), (7,), (4, 3, 2, 5, 3)])
    def test_shape_and_seed_stream(self, shape):
        n = int(np.prod(shape))
        rng = np.random.default_rng(5)
        z = standard_normal(rng, shape)
        assert z.shape == shape and z.dtype == np.float32
        # The values depend on n alone, and an odd n gives the first n of n + 1.
        flat = standard_normal(np.random.default_rng(5), (n,))
        np.testing.assert_array_equal(z.ravel(), flat)
        if n % 2:
            np.testing.assert_array_equal(flat, standard_normal(np.random.default_rng(5), (n + 1,))[:n])
        # n values take 2*ceil(n/2) float32 uniforms from the stream.
        reference = np.random.default_rng(5)
        reference.random(2 * ((n + 1) // 2), dtype=np.float32)
        assert rng.bit_generator.state == reference.bit_generator.state


class TestSamplers:
    def test_all_disabled_gives_zero(self):
        off = NoiseSpec.disabled()
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert sample_read_noise(G_REF, D, off, rng) == 0.0
        assert sample_write_noise(G_REF, D, off, rng) == 0.0
        assert sample_write_noise(G_REF, dsg(sigma_prog=0.0), NoiseSpec(), rng) == 0.0
        assert rng.bit_generator.state == state

    def test_determinism(self):
        g = np.full(10, 1e-5)
        a = sample_read_noise(g, D, NoiseSpec(), np.random.default_rng(5))
        b = sample_read_noise(g, D, NoiseSpec(), np.random.default_rng(5))
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
        g = np.full(1_000_000, 2.5e-5)
        draws = sampler(g, D, NoiseSpec(**kwargs), np.random.default_rng(123))
        analytic = sigma_fn(2.5e-5, D)
        assert np.std(draws) == pytest.approx(analytic, rel=0.01)

    def test_relative_read_noise_decreases_with_g(self):
        # Thermal+shot sigma scales with sqrt(G), so |dG|/G falls as G rises.
        n = 200_000
        lo = np.full(n, G_LOW)
        hi = np.full(n, 1.0 / 3.03e3)
        spec = NoiseSpec(rtn=False)
        rng = np.random.default_rng(7)
        rel_lo = np.mean(np.abs(sample_read_noise(lo, D, spec, rng))) / G_LOW
        rel_hi = np.mean(np.abs(sample_read_noise(hi, D, spec, rng))) / (1.0 / 3.03e3)
        assert rel_lo > rel_hi


def three_draw_read(g, design, spec, rng):
    """Reference read: thermal, shot and RTN each drawn on their own, in turn."""
    out = g
    if spec.thermal:
        out = out + rng.standard_normal(g.shape) * thermal_sigma(g, design)
    if spec.shot:
        out = out + rng.standard_normal(g.shape) * shot_sigma(g, design)
    if spec.rtn:
        occupied = rng.random(g.shape) < spec.rtn_p_occupancy
        out = out + np.where(occupied, rtn_amplitude(g, design, spec), 0.0)
    return out


def assert_same_mean_and_variance(a, b, z=5.0):
    """Means and variances of two independent samples agree within z standard errors."""
    assert abs(a.mean() - b.mean()) <= z * np.sqrt(a.var() / len(a) + b.var() / len(b))
    # Standard error of a sample variance: sqrt((m4 - var^2) / n).
    se2 = [(np.mean((x - x.mean()) ** 4) - x.var() ** 2) / len(x) for x in (a, b)]
    assert abs(a.var() - b.var()) <= z * np.sqrt(sum(se2))


class TestReadDistribution:
    """The one-Gaussian read against the three-draw reference, per cell."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shot": False, "rtn": False},
            {"thermal": False, "rtn": False},
            {"rtn": False},
            {},
        ],
        ids=["thermal", "shot", "thermal+shot", "thermal+shot+rtn"],
    )
    def test_mean_and_variance_match_three_draw_read(self, kwargs):
        spec = NoiseSpec(**kwargs)
        # Every conductance level of a 2-bit cell, 250k cells each.
        levels = D.g_min + np.arange(4) * (D.g_max - D.g_min) / 3
        g = np.repeat(levels, 250_000)
        got = sample_read_noise(g, D, spec, np.random.default_rng(31))
        want = three_draw_read(g, D, spec, np.random.default_rng(32)) - g
        for level in range(4):
            cells = slice(level * 250_000, (level + 1) * 250_000)
            assert_same_mean_and_variance(got[cells], want[cells])


def formula_fresh_read(g, design, spec, rng):
    """A fresh-deployment read spelled out from the noise functions, every source on.

    Byte oracle at p = 1/2: the one Gaussian through ``standard_normal``,
    then one packed random bit per cell for the RTN occupancy.
    """
    assert spec.rtn_p_occupancy == 0.5
    var_per_siemens = thermal_sigma(1.0, design) ** 2 + shot_sigma(1.0, design) ** 2
    var = var_per_siemens * g + prog_sigma(g, design) ** 2
    out = g + standard_normal(rng, g.shape) * np.sqrt(var)
    bits = np.unpackbits(rng.integers(0, 256, (g.size + 7) // 8, dtype=np.uint8))
    occupied = bits[: g.size].reshape(g.shape) == 1
    return out + np.where(occupied, rtn_amplitude(g, design, spec), 0.0)


class TestPerDesignConstants:
    @pytest.mark.parametrize(
        "change", [{"temperature_k": 390.0}, {"freq_hz": 2e7}, {"v_r": 0.9}, {"r_off": 1e6}]
    )
    def test_replaced_design_reads_with_its_own_constants(self, change):
        spec = NoiseSpec()
        g = D.g_min + np.arange(4) * D.g_step
        sample_read(g, D, spec, np.random.default_rng(0), fresh=True)  # fills D's constants
        other = dataclasses.replace(D, **change)
        for design in (D, other):
            got = sample_read(g, design, spec, np.random.default_rng(9), fresh=True)
            want = formula_fresh_read(g, design, spec, np.random.default_rng(9))
            np.testing.assert_array_equal(got, want)


class TestValidation:
    def test_bad_voltage(self):
        with pytest.raises(ValueError):
            dsg(v_r=0.0)

    def test_bad_occupancy(self):
        with pytest.raises(ValueError):
            NoiseSpec(rtn_p_occupancy=1.5)
