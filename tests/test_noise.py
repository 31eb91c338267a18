import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from reramopt.design_space import RES_CELL_LEVELS, ReramDesign
from reramopt.noise import (
    K_BOLTZMANN,
    Q_ELECTRON,
    CellNoise,
    NoiseSpec,
    prog_sigma,
    rtn_amplitude,
    shot_sigma,
    standard_normal,
    thermal_sigma,
)
from reramopt.noise import _uint32_draws

G_LOW = 1.0 / 3.03e6  # lowest programmable conductance
G_REF = 3.3003e-7


def sample_read_noise(g, design, spec, rng):
    """The read perturbation alone: one production read of programmed conductances minus the conductance."""
    return CellNoise(design, spec).read(g, rng) - g


def sample_write(g, design, spec, rng):
    """One programming error for every cell of g, drawn with every other source off."""
    spec = dataclasses.replace(spec, thermal=False, shot=False, rtn=False)
    return CellNoise(design, spec).sources(np.asarray(g, dtype=float), rng)["prog"]


def sample_rtn(g, design, spec, rng):
    """One RTN draw for every cell of g: the trap amplitude where occupied, else 0, with every other source off."""
    spec = dataclasses.replace(spec, thermal=False, shot=False, prog=False)
    return CellNoise(design, spec).sources(np.asarray(g, dtype=float), rng)["rtn"]


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
        assert all(sample_rtn(G_REF, D, spec, rng) == 0.0 for _ in range(100))

    def test_forced_amplitude_law(self):
        spec = NoiseSpec(rtn_amp_a=0.0, rtn_amp_b=0.1, rtn_p_occupancy=1.0)
        assert sample_rtn(2e-5, D, spec, np.random.default_rng(0)) == pytest.approx(0.1 * 2e-5)

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
        draws = sample_rtn(np.full(1_000_000, 1e-5), D, spec, np.random.default_rng(42))
        assert abs(np.mean(draws > 0) - p) < 0.003

    @pytest.mark.parametrize("p", [0.5, 0.37])
    def test_occupancy_source_per_p(self, p):
        # p = 1/2 takes one packed bit per cell, any other p one uniform per cell.
        g = np.full((3, 7, 5), 1e-5)
        occupied = sample_rtn(g, D, NoiseSpec(rtn_p_occupancy=p), np.random.default_rng(4)) > 0
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
        occupied = (sample_rtn(np.full(n, 1e-5), D, spec, np.random.default_rng(43)) > 0).astype(float)
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

            bit_generator = None  # not PCG64, so the 32-bit draws come from integers()

            def integers(self, low, high, size, dtype):
                draws = np.zeros(size, dtype)
                draws[: size // 2] = high - 1  # whose top 24 bits make 1 - 2**-24
                return draws

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

    @pytest.mark.parametrize("n", [1, 2, 7, 4096])
    @pytest.mark.parametrize("spare", [False, True])
    def test_box_muller_of_the_generators_float32_uniforms(self, n, spare):
        """Byte oracle: Box-Muller spelled out on ``Generator.random(dtype=np.float32)``."""
        rng, reference = np.random.default_rng(8), np.random.default_rng(8)
        for g in (rng, reference)[: int(spare) * 2]:
            g.integers(0, 2**32, 1, dtype=np.uint32)  # leaves PCG64 a spare 32-bit half
        m = (n + 1) // 2
        u = reference.random(2 * m, dtype=np.float32)
        r = np.sqrt(np.float32(-2.0) * np.log1p(-u[:m]))
        theta = u[m:] * np.float32(2.0 * np.pi)
        want = np.concatenate((r * np.cos(theta), r * np.sin(theta)))[:n]
        np.testing.assert_array_equal(standard_normal(rng, (n,)), want)
        assert rng.bit_generator.state == reference.bit_generator.state


class TestUint32Draws:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 8, 1000, 1001])
    @pytest.mark.parametrize("before", [0, 1, 2])
    def test_values_and_state_of_integers(self, k, before):
        """The draws and the generator state after them are those of ``integers``, spare half or not."""
        rng, reference = np.random.default_rng(12), np.random.default_rng(12)
        for g in (rng, reference):
            g.integers(0, 2**32, before, dtype=np.uint32)
        got = _uint32_draws(rng, k)
        assert got.dtype == np.uint32
        np.testing.assert_array_equal(got, reference.integers(0, 2**32, k, dtype=np.uint32))
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_other_bit_generators_draw_through_integers(self):
        rng, reference = np.random.Generator(np.random.MT19937(3)), np.random.Generator(np.random.MT19937(3))
        np.testing.assert_array_equal(_uint32_draws(rng, 9), reference.integers(0, 2**32, 9, dtype=np.uint32))


class TestSamplers:
    def test_all_disabled_gives_zero(self):
        off = NoiseSpec.disabled()
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert sample_read_noise(G_REF, D, off, rng) == 0.0
        assert sample_write(G_REF, D, off, rng) == 0.0
        assert sample_write(G_REF, dsg(sigma_prog=0.0), NoiseSpec(), rng) == 0.0
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
            (sample_write, prog_sigma, {}),
        ],
    )
    def test_monte_carlo_std_matches_analytic(self, sampler, sigma_fn, kwargs):
        g = np.full(1_000_000, 2.5e-5)
        draws = sampler(g, D, NoiseSpec(**kwargs), np.random.default_rng(123))
        analytic = sigma_fn(2.5e-5, D)
        assert np.std(draws) == pytest.approx(analytic, rel=0.01)

    def test_relative_read_noise_decreases_with_g(self):
        # Thermal+shot sigma scales with sqrt(G), so |dG|/G falls as G rises. The high point
        # is half of g_max, which the 5.77-sigma tail of standard_normal does not reach.
        n = 200_000
        noise = CellNoise(D, NoiseSpec(rtn=False))
        rng = np.random.default_rng(7)
        rel = []
        for g in (G_LOW, 0.5 / 3.03e3):
            cells = np.full(n, g)
            read = noise.read(cells, rng)
            assert np.all((read > 0.0) & (read < D.g_max))  # no read clipped
            rel.append(np.mean(np.abs(read - cells)) / g)
        rel_lo, rel_hi = rel
        assert rel_lo > rel_hi


def three_draw_read(g, design, spec, rng):
    """Reference read: thermal, shot and RTN each drawn on their own, in turn, then the clip."""
    out = g
    if spec.thermal:
        out = out + rng.standard_normal(g.shape) * thermal_sigma(g, design)
    if spec.shot:
        out = out + rng.standard_normal(g.shape) * shot_sigma(g, design)
    if spec.rtn:
        occupied = rng.random(g.shape) < spec.rtn_p_occupancy
        out = out + np.where(occupied, rtn_amplitude(g, design, spec), 0.0)
    return np.clip(out, 0.0, design.g_max)


def assert_same_mean_and_variance(a, b, z=5.0):
    """Means and variances of two independent samples agree within z standard errors."""
    assert abs(a.mean() - b.mean()) <= z * np.sqrt(a.var() / len(a) + b.var() / len(b))
    # Standard error of a sample variance: sqrt((m4 - var^2) / n).
    se2 = [(np.mean((x - x.mean()) ** 4) - x.var() ** 2) / len(x) for x in (a, b)]
    assert abs(a.var() - b.var()) <= z * np.sqrt(sum(se2))


class TestReadDistribution:
    """The one-Gaussian read of programmed cells against the three-draw reference, per cell."""

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
    """A fresh-deployment read of targets g, spelled out per cell from the noise functions.

    Byte oracle: one Gaussian through ``standard_normal`` with the enabled
    thermal, shot and write variances, then the RTN occupancy (one packed
    random bit per cell at p = 1/2, else one uniform each), then one clip.
    A read that draws nothing returns g itself. With ``prog`` off it is the
    read of programmed conductances g.
    """
    write = spec.prog and design.sigma_prog > 0.0
    var_per_siemens = (thermal_sigma(1.0, design) ** 2 if spec.thermal else 0.0) + (
        shot_sigma(1.0, design) ** 2 if spec.shot else 0.0
    )
    if not (spec.thermal or spec.shot or write or spec.rtn):
        return g
    out = g
    if spec.thermal or spec.shot or write:
        var = var_per_siemens * g + (prog_sigma(g, design) ** 2 if write else 0.0)
        out = g + standard_normal(rng, g.shape) * np.sqrt(var)
    if spec.rtn:
        out = out + np.where(formula_occupancy(spec, rng, g.shape), rtn_amplitude(g, design, spec), 0.0)
    return np.clip(out, 0.0, design.g_max)


def formula_occupancy(spec, rng, shape):
    """Which RTN traps a read finds occupied: one packed random bit per cell at p = 1/2, else one uniform each."""
    n = math.prod(shape)
    if spec.rtn_p_occupancy == 0.5:
        bits = np.unpackbits(rng.integers(0, 256, (n + 7) // 8, dtype=np.uint8))
        return bits[:n].reshape(shape) == 1
    return rng.random(shape) < spec.rtn_p_occupancy


def code_targets(codes, design):
    """The targets of the cells of weight codes (rows, cols), (rows, 1, 2, n_slices, cols), as the crossbar spells them.

    |code| sits on the side of its sign, split big-endian into res_cell-bit
    digits, and digit d is g_min + d*g_step; the other side holds g_min.
    """
    n_slices = math.ceil(design.bit_quan / design.res_cell)
    shifts = design.res_cell * np.arange(n_slices - 1, -1, -1)
    digits = (np.abs(codes)[:, None, :] >> shifts[:, None]) & ((1 << design.res_cell) - 1)  # (rows, S, cols)
    sides = np.stack([np.where(codes[:, None, :] > 0, digits, 0), np.where(codes[:, None, :] < 0, digits, 0)], axis=1)
    return (design.g_min + sides * design.g_step)[:, None]


def spread_codes(n, design):
    """n weight codes spread over every code that ``crossbar.map_weights`` accepts, -(2**bit_quan - 1) up, as (1, n)."""
    widest = (1 << design.bit_quan) - 1
    return (np.arange(n) * 37 % (2 * widest + 1) - widest).reshape(1, -1)


class TestFreshRead:
    """The reads of fresh and of programmed cells against the per-cell formula, byte for byte."""

    @pytest.mark.parametrize("res_cell", RES_CELL_LEVELS)
    @pytest.mark.parametrize(
        "spec_kw,design_kw",
        [
            ({}, {}),
            ({"prog": False}, {}),
            ({}, {"sigma_prog": 0.0}),
            ({"thermal": False, "shot": False}, {}),
            ({"rtn": False}, {}),
            ({"rtn_p_occupancy": 0.3}, {}),
            ({"thermal": False, "shot": False, "rtn": False, "prog": False}, {}),
        ],
        ids=["all", "prog-off", "sigma-prog-0", "thermal-shot-off", "rtn-off", "p-0.3", "none"],
    )
    @pytest.mark.parametrize("cells_per_digit", [5, 64])
    @pytest.mark.parametrize("programmed", [False, True], ids=["fresh", "programmed"])
    def test_every_digit_reads_the_per_cell_formula(self, res_cell, spec_kw, design_kw, cells_per_digit, programmed):
        design = dataclasses.replace(D, res_cell=res_cell, **design_kw)
        spec = NoiseSpec(**spec_kw)
        noise = CellNoise(design, spec)
        # A fresh read takes weight codes spread over the whole code range, so every digit of
        # every slice; programmed cells come in an odd and in an even number (an even number of
        # 32-bit draws at 64). The second read reuses the first one's buffers, and the third
        # starts with a spare 32-bit half in the generator.
        n = cells_per_digit * (1 << res_cell) + (cells_per_digit % 2)
        codes = spread_codes(n, design)
        # Programmed cells hold continuous conductances from 0 to g_max and read without the write error.
        stored = np.linspace(0.0, design.g_max, n).reshape(1, -1)
        rng, oracle_rng = np.random.default_rng(res_cell), np.random.default_rng(res_cell)
        for spare in (0, 0, 1):
            for g in (rng, oracle_rng):
                g.integers(0, 2**32, spare, dtype=np.uint32)
            if programmed:
                got = noise.read(stored, rng)
                want = formula_fresh_read(stored, design, dataclasses.replace(spec, prog=False), oracle_rng)
            else:
                got = noise.fresh(codes, 1, rng)
                want = formula_fresh_read(code_targets(codes, design), design, spec, oracle_rng)
            np.testing.assert_array_equal(got, want)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_noisy_read_requires_rng(self):
        with pytest.raises(ValueError, match="requires a generator"):
            CellNoise(D, NoiseSpec(thermal=False, shot=False, rtn=False)).fresh(np.zeros((1, 2), np.intp), 1, None)
        with pytest.raises(ValueError, match="requires a generator"):
            CellNoise(D, NoiseSpec(thermal=False, shot=False)).read(np.full(2, G_REF), None)


def formula_sources(g, design, spec, rng):
    """Each source's own perturbation of cells g, as noise-hist once spelled it out in turn.

    Byte oracle: thermal and shot each scale their own ``standard_normal``
    draws by their sigma, RTN is the trap amplitude where occupied, and the
    write error scales ``standard_normal`` draws by sigma_prog*g. A source
    that is off, or a write with sigma_prog = 0, is zeros and draws nothing.
    """
    off = np.zeros(g.shape)
    thermal = standard_normal(rng, g.shape) * thermal_sigma(g, design) if spec.thermal else off
    shot = standard_normal(rng, g.shape) * shot_sigma(g, design) if spec.shot else off
    rtn = np.where(formula_occupancy(spec, rng, g.shape), rtn_amplitude(g, design, spec), 0.0) if spec.rtn else off
    write = spec.prog and design.sigma_prog > 0.0
    prog = prog_sigma(g, design) * standard_normal(rng, g.shape) if write else off
    return {"thermal": thermal, "shot": shot, "rtn": rtn, "prog": prog}


SOURCES = ("thermal", "shot", "rtn", "prog")


class TestSources:
    """``CellNoise.sources``, which noise-hist bins, against the per-source formulas, byte for byte."""

    @pytest.mark.parametrize("sigma_prog", [D.sigma_prog, 0.0], ids=["sigma-prog", "sigma-prog-0"])
    @pytest.mark.parametrize("p", [0.5, 0.37])
    @pytest.mark.parametrize(
        "off", [(), *((s,) for s in SOURCES), SOURCES], ids=["all", *(f"{s}-off" for s in SOURCES), "none"]
    )
    def test_each_source_draws_its_formula(self, off, p, sigma_prog):
        design = dsg(sigma_prog=sigma_prog)
        spec = NoiseSpec(rtn_p_occupancy=p, **dict.fromkeys(off, False))
        noise = CellNoise(design, spec)
        # An odd number of cells, 0 and g_max included, over several packed RTN words;
        # the second call starts with a spare 32-bit half in the generator.
        g = np.linspace(0.0, design.g_max, 99).reshape(3, 33)
        rng, oracle_rng = np.random.default_rng(17), np.random.default_rng(17)
        for spare in (0, 1):
            for r in (rng, oracle_rng):
                r.integers(0, 2**32, spare, dtype=np.uint32)
            got = noise.sources(g, rng)
            want = formula_sources(g, design, spec, oracle_rng)
            assert tuple(got) == SOURCES
            for source in SOURCES:
                np.testing.assert_array_equal(got[source], want[source], strict=True)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestPerDesignConstants:
    @pytest.mark.parametrize(
        "change", [{"temperature_k": 390.0}, {"freq_hz": 2e7}, {"v_r": 0.9}, {"r_off": 1e6}]
    )
    def test_replaced_design_reads_with_its_own_constants(self, change):
        spec = NoiseSpec()
        codes = np.arange(-3, 4).reshape(1, -1)
        CellNoise(D, spec).fresh(codes, 1, np.random.default_rng(0))  # fills D's constants
        other = dataclasses.replace(D, **change)
        for design in (D, other):
            got = CellNoise(design, spec).fresh(codes, 1, np.random.default_rng(9))
            want = formula_fresh_read(code_targets(codes, design), design, spec, np.random.default_rng(9))
            np.testing.assert_array_equal(got, want)

    def test_equal_designs_get_equal_read_variances(self):
        warm, cold = dsg(), dsg()
        for sigma, spec in ((thermal_sigma, NoiseSpec(shot=False)), (shot_sigma, NoiseSpec(thermal=False))):
            warm_var = CellNoise(warm, spec).var_per_siemens
            assert warm_var == CellNoise(cold, spec).var_per_siemens == sigma(1.0, cold) ** 2
        assert warm == cold and hash(warm) == hash(cold)

    def test_replaced_design_computes_its_own_read_variance(self):
        d = dsg(temp=300.0)
        hot = d.with_context(d.freq_hz, 400.0)
        thermal, shot = NoiseSpec(shot=False), NoiseSpec(thermal=False)
        want = CellNoise(d, thermal).var_per_siemens * 4.0 / 3.0
        assert CellNoise(hot, thermal).var_per_siemens == pytest.approx(want, rel=1e-12)
        assert CellNoise(hot, shot).var_per_siemens == CellNoise(d, shot).var_per_siemens


class TestValidation:
    def test_bad_voltage(self):
        with pytest.raises(ValueError):
            dsg(v_r=0.0)

    def test_bad_occupancy(self):
        with pytest.raises(ValueError):
            NoiseSpec(rtn_p_occupancy=1.5)
