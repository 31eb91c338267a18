import math

import numpy as np
import pytest

from reramopt.crossbar import map_weights, mvm, program, quantize
from reramopt.design_space import RES_CELL_LEVELS, ReramDesign
from reramopt.noise import CellNoise, NoiseSpec, rtn_amplitude, shot_sigma, standard_normal, thermal_sigma

NOISE = NoiseSpec()
QUIET = NoiseSpec.disabled()


def design(res_cell=2, xbar=64, freq=5e8, temp=350.0, res_adc=8, **kw):
    return ReramDesign(
        res_cell=res_cell, freq_hz=freq, temperature_k=temp, xbar_size=xbar, res_adc=res_adc, **kw
    )


def fixed_point_oracle(w_codes, in_codes, d: ReramDesign):
    """Plain-loop reference for the DAC/tile/ADC/shift-add pipeline.

    Independent scalar reimplementation of the documented conventions;
    noiseless (conductances at their targets).
    """
    rows, cols = w_codes.shape
    n_slices = math.ceil(d.bit_quan / d.res_cell)
    g_min, g_max = 1.0 / d.r_off, 1.0 / d.r_on
    step = (g_max - g_min) / (2**d.res_cell - 1)
    dac_max = 2**d.res_dac - 1
    v_step = d.v_r / dac_max
    out = np.zeros((in_codes.shape[0], cols), dtype=np.int64)
    for b in range(in_codes.shape[0]):
        part = np.minimum(in_codes[b], dac_max)
        if not part.any():
            continue
        for o in range(cols):
            total = 0.0
            for r0 in range(0, rows, d.xbar_size):
                r1 = min(r0 + d.xbar_size, rows)
                fs = d.v_r * g_max * (r1 - r0)
                for s in range(n_slices):
                    weight = 2 ** (d.res_cell * (n_slices - 1 - s))
                    mask = 2**d.res_cell - 1
                    i_pos = i_neg = 0.0
                    for i in range(r0, r1):
                        code = w_codes[i, o]
                        digit = (abs(int(code)) >> (d.res_cell * (n_slices - 1 - s))) & mask
                        gp = g_min + (digit if code > 0 else 0) * step
                        gn = g_min + (digit if code < 0 else 0) * step
                        v = part[i] * v_step
                        i_pos += v * gp
                        i_neg += v * gn
                    if d.res_adc is not None:
                        levels = 2**d.res_adc - 1
                        i_pos = min(max(round(i_pos / fs * levels), 0), levels) * fs / levels
                        i_neg = min(max(round(i_neg / fs * levels), 0), levels) * fs / levels
                    total += weight * (i_pos - i_neg)
            out[b, o] = round(total / (step * v_step))
    return out


def code_cells(w_codes, d: ReramDesign):
    """Plain-loop reference for the cells of weight codes: their targets, (rows, 1, 2, n_slices, cols).

    |code| sits on the side of its sign, split big-endian into res_cell-bit
    digits; digit d is g_min + d*step, and the other side holds g_min.
    """
    rows, cols = w_codes.shape
    n_slices = math.ceil(d.bit_quan / d.res_cell)
    g_min, g_max = 1.0 / d.r_off, 1.0 / d.r_on
    step = (g_max - g_min) / (2**d.res_cell - 1)
    mask = 2**d.res_cell - 1
    out = np.full((rows, 1, 2, n_slices, cols), g_min)
    for i in range(rows):
        for o in range(cols):
            code = int(w_codes[i, o])
            for s in range(n_slices):
                digit = (abs(code) >> (d.res_cell * (n_slices - 1 - s))) & mask
                out[i, 0, 0 if code > 0 else 1, s, o] = g_min + digit * step
    return out


class TestQuantize:
    def test_symmetric_endpoints(self):
        codes, _ = quantize(np.array([[-1.0, 0.0, 1.0]]), 8)
        np.testing.assert_array_equal(codes, [[-127, 0, 127]])

    def test_zero_matrix_convention(self):
        codes, scale = quantize(np.zeros((2, 2)), 4)
        assert scale == 1.0
        assert not codes.any()

    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_round_trip_within_half_step(self, bits):
        rng = np.random.default_rng(bits)
        v = rng.standard_normal((16, 16)) * 3.0
        codes, scale = quantize(v, bits)
        assert np.max(np.abs(codes * scale - v)) <= scale / 2 + 1e-12

    def test_bits_bounds(self):
        with pytest.raises(ValueError):
            quantize(np.ones((2, 2)), 9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            quantize(np.array([[bad, 1.0]]), 8)


class TestMapWeights:
    def test_slice_counts(self):
        w = quantize(np.eye(4), 8)
        assert map_weights(*w, CellNoise(design(res_cell=2), NOISE)).n_slices == 4
        assert map_weights(*w, CellNoise(design(res_cell=8), NOISE)).n_slices == 1
        assert map_weights(*w, CellNoise(design(res_cell=3), NOISE)).n_slices == 3

    def test_zero_code_sits_at_g_min_both_sides(self):
        d = design(res_cell=4)
        layer = map_weights(np.zeros((2, 2), dtype=np.int64), 1.0, CellNoise(d, NOISE))
        targets = layer.noise.targets(layer.codes)
        np.testing.assert_array_equal(targets, code_cells(layer.codes, d))
        np.testing.assert_array_equal(targets, d.g_min)

    def test_targets_on_level_grid(self):
        d = design(res_cell=3)
        rng = np.random.default_rng(0)
        layer = map_weights(*quantize(rng.standard_normal((8, 8)), 8), CellNoise(d, NOISE))
        targets = layer.noise.targets(layer.codes)
        np.testing.assert_array_equal(targets, code_cells(layer.codes, d))
        step = (d.g_max - d.g_min) / (2**3 - 1)
        lv = (targets[:, 0, 0] - d.g_min) / step
        np.testing.assert_allclose(lv, np.rint(lv), atol=1e-9)
        assert lv.max() <= 2**3 - 1

    # res_cell 8 needs bit_quan 8: a cell cannot hold more bits than a weight has.
    @pytest.mark.parametrize("res_cell,bit_quan", [(r, b) for b in (8, 4) for r in RES_CELL_LEVELS if r <= b])
    def test_every_code_holds_its_digits_with_their_read_std_and_rtn_jump(self, res_cell, bit_quan):
        # Every code the layer accepts, once each: every plane's cell is its digit's level on
        # the side of the code's sign and g_min on the other, read with that level's std and jump.
        d = design(res_cell=res_cell, bit_quan=bit_quan)
        widest = (1 << bit_quan) - 1
        codes = np.arange(-widest, widest + 1).reshape(1, -1)
        want = code_cells(codes, d)
        layer = map_weights(codes, 1.0, CellNoise(d, NOISE))
        np.testing.assert_array_equal(layer.noise.targets(layer.codes), want)
        np.testing.assert_array_equal(program(map_weights(codes, 1.0, CellNoise(d, QUIET))).noisy, want)
        # RTN alone with every trap occupied: the target plus its level's jump.
        jump_only = NoiseSpec(thermal=False, shot=False, prog=False, rtn_p_occupancy=1.0)
        got = CellNoise(d, jump_only).fresh(codes, 1, np.random.default_rng(0))
        np.testing.assert_array_equal(got, np.clip(want + rtn_amplitude(want, d, jump_only), 0.0, d.g_max))
        # The Gaussian alone: the target plus its level's std, with the write error, times a normal.
        gauss_only = NoiseSpec(rtn=False)
        got = CellNoise(d, gauss_only).fresh(codes, 1, np.random.default_rng(1))
        std = np.sqrt((thermal_sigma(1.0, d) ** 2 + shot_sigma(1.0, d) ** 2) * want + (d.sigma_prog * want) ** 2)
        normals = standard_normal(np.random.default_rng(1), want.shape)
        np.testing.assert_array_equal(got, np.clip(want + normals * std, 0.0, d.g_max))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            map_weights(np.zeros((0, 3), dtype=np.int64), 1.0, CellNoise(design(), NOISE))

    def test_codes_wider_than_bit_quan_rejected(self):
        # Sliced at bit_quan=4, these 8-bit codes would lose their high
        # digits and mvm([[10, 20]]) would read [[150, -300]], not the exact
        # [[1910, -1900]] they give at the default width.
        w = np.array([[127, 64], [32, -127]])
        d = design(res_cell=2, res_adc=None, bit_quan=4)
        with pytest.raises(ValueError, match=r"codes need 7 bits but the design's bit_quan is 4"):
            map_weights(w, 1.0, CellNoise(d, QUIET))
        layer = program(map_weights(w, 1.0, CellNoise(design(res_cell=2, res_adc=None), QUIET)))
        np.testing.assert_array_equal(mvm(layer, np.array([[10, 20]]))[0], [[1910, -1900]])

    def test_tiling_shape(self):
        # 2 row blocks x 2 col blocks of 64 share one whole-layer array.
        layer = map_weights(*quantize(np.ones((100, 70)), 8), CellNoise(design(xbar=64), NOISE))
        assert layer.codes.shape == (100, 70)
        assert layer.noise.targets(layer.codes).shape == (100, 1, 2, 4, 70)  # rows, copy, sides, slices, cols
        programmed = program(layer, np.random.default_rng(0))
        assert programmed.noisy.shape == (100, 1, 2, 4, 70)  # rows, copies, ...


class TestProgram:
    def test_zero_sigma_exact(self):
        d = design(sigma_prog=0.0)
        for rng in (np.random.default_rng(0), None):  # a write that draws nothing needs no generator
            layer = program(map_weights(*quantize(np.eye(3), 8), CellNoise(d, NOISE)), rng)
            np.testing.assert_array_equal(layer.noisy, code_cells(layer.codes, d))

    def test_prog_disabled_exact(self):
        layer = program(map_weights(*quantize(np.eye(3), 8), CellNoise(design(), QUIET)))
        np.testing.assert_array_equal(layer.noisy, code_cells(layer.codes, layer.design))

    def test_per_cell_std_matches_sigma_prog(self):
        # 1e5 independent programmings of one target cell via duplicate copies.
        d = design(res_cell=8)
        base = map_weights(np.full((1, 1), 100, dtype=np.int64), 1.0, CellNoise(d, NOISE), dup=1000)
        rng = np.random.default_rng(9)
        samples = []
        for _ in range(100):
            layer = program(base, rng)
            samples.append(layer.noisy[0, :, 0, 0, 0])
        samples = np.concatenate(samples)
        target = code_cells(base.codes, d)[0, 0, 0, 0, 0]
        assert np.std(samples) == pytest.approx(d.sigma_prog * target, rel=0.02)

    def test_duplicate_copies_uncorrelated(self):
        d = design(res_cell=8)
        base = map_weights(np.full((3, 3), 80, dtype=np.int64), 1.0, CellNoise(d, NOISE), dup=2)
        rng = np.random.default_rng(17)
        a, b = [], []
        for _ in range(11200):
            layer = program(base, rng)
            a.append(layer.noisy[:, 0, 0].ravel())
            b.append(layer.noisy[:, 1, 0].ravel())
        a = np.concatenate(a)
        b = np.concatenate(b)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.01

    def test_reprogramming_resamples(self):
        base = map_weights(*quantize(np.eye(4), 8), CellNoise(design(), NOISE))
        l1 = program(base, np.random.default_rng(0))
        l2 = program(l1, np.random.default_rng(1))
        assert not np.array_equal(l1.noisy[:, :, 0], l2.noisy[:, :, 0])

    def test_program_requires_rng_when_noisy(self):
        with pytest.raises(ValueError):
            program(map_weights(*quantize(np.eye(2), 8), CellNoise(design(), NOISE)))


class TestMvmIdealPath:
    def test_identity_2x2(self):
        d = design(res_cell=8, res_adc=None)
        w, scale = quantize(np.eye(2), 8)
        layer = program(map_weights(w, scale, CellNoise(d, QUIET)))
        x, _ = quantize(np.array([[1.0, 0.0]]), 8)
        y = mvm(layer, x)[0]
        np.testing.assert_array_equal(y, x @ w)

    @pytest.mark.parametrize("res_cell", [1, 2, 3, 4, 8])
    def test_ideal_equals_integer_matmul(self, res_cell):
        rng = np.random.default_rng(res_cell)
        d = design(res_cell=res_cell, res_adc=None)
        w, scale = quantize(rng.standard_normal((20, 12)), 8)
        layer = program(map_weights(w, scale, CellNoise(d, QUIET)))
        x = rng.integers(0, 128, size=(6, 20))
        np.testing.assert_array_equal(mvm(layer, x)[0], x @ w)

    def test_negating_weights_negates_output(self):
        rng = np.random.default_rng(4)
        d = design(res_cell=2, res_adc=8)
        w, scale = quantize(rng.standard_normal((10, 7)), 8)
        x = rng.integers(0, 128, size=(4, 10))
        y = mvm(program(map_weights(w, scale, CellNoise(d, QUIET))), x)[0]
        y_neg = mvm(program(map_weights(-w, scale, CellNoise(d, QUIET))), x)[0]
        np.testing.assert_array_equal(y_neg, -y)

    def test_tiling_invariance(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((100, 100))
        qw = quantize(w, 8)
        x = rng.integers(0, 128, size=(3, 100))
        outs = []
        for xbar in (64, 128):
            d = design(res_cell=4, xbar=xbar, res_adc=None)
            outs.append(mvm(program(map_weights(*qw, CellNoise(d, QUIET))), x)[0])
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_unprogrammed_quiet_read_equals_integer_matmul(self):
        rng = np.random.default_rng(6)
        w, scale = quantize(rng.standard_normal((20, 12)), 8)
        x = rng.integers(0, 128, size=(6, 20))
        # All sources off, and programming on at sigma_prog = 0 with the read sources off.
        for noise, kw in ((QUIET, {}), (NoiseSpec(thermal=False, shot=False, rtn=False), {"sigma_prog": 0.0})):
            layer = map_weights(w, scale, CellNoise(design(res_cell=2, res_adc=None, **kw), noise))
            np.testing.assert_array_equal(mvm(layer, x)[0], x @ w)

    @pytest.mark.parametrize(
        "noise",
        [NoiseSpec(), NoiseSpec(thermal=False, shot=False, rtn=False)],
        ids=["all-sources", "programming-only"],
    )
    def test_unprogrammed_noisy_read_requires_rng(self, noise):
        layer = map_weights(*quantize(np.eye(2), 8), CellNoise(design(), noise))
        with pytest.raises(ValueError, match="requires a generator"):
            mvm(layer, np.array([[1, 0]]))

    @pytest.mark.parametrize("codes", [[[2.7, 1.2]], [[2.0, 1.0]], [[True, False]]])
    def test_non_integer_codes_rejected(self, codes):
        # Cast to int64, [[2.7, 1.2]] would read as [[2, 1]]: 318, not 419.7.
        layer = program(map_weights(np.array([[127], [64]]), 1.0, CellNoise(design(res_adc=None), QUIET)))
        np.testing.assert_array_equal(mvm(layer, np.array([[2, 1]]))[0], [[318]])
        with pytest.raises(ValueError, match="integer dtype"):
            mvm(layer, np.array(codes))

    def test_wrong_input_length(self):
        layer = program(map_weights(*quantize(np.eye(3), 8), CellNoise(design(), QUIET)))
        with pytest.raises(ValueError):
            mvm(layer, np.array([[1, 0]]))

    @pytest.mark.parametrize("codes", [[1, 0, 2], [[[1, 0, 2]]]], ids=["1-D", "3-D"])
    def test_mis_shaped_codes_rejected(self, codes):
        layer = map_weights(*quantize(np.eye(3), 8), CellNoise(design(), NOISE))
        with pytest.raises(ValueError, match="inputs must have shape"):
            mvm(layer, np.array(codes, dtype=np.uint8), np.random.default_rng(0))

    def test_negative_codes_rejected(self):
        # ReLU activations are never negative, so the DACs read one pass.
        layer = program(map_weights(*quantize(np.eye(3), 8), CellNoise(design(res_adc=None), QUIET)))
        np.testing.assert_array_equal(mvm(layer, np.array([[1, 0, 2]]))[0], [[127, 0, 254]])
        with pytest.raises(ValueError, match="non-negative"):
            mvm(layer, np.array([[1, -1, 2]]))

    @pytest.mark.parametrize("dtype", [np.int8, np.int16])
    def test_negative_codes_rejected_by_a_fresh_read(self, dtype):
        # Only signed codes are scanned for a sign; unsigned ones read as they are.
        layer = map_weights(*quantize(np.eye(3), 8), CellNoise(design(res_adc=None), QUIET))
        np.testing.assert_array_equal(mvm(layer, np.array([[1, 0, 2]], dtype=np.uint8))[0], [[127, 0, 254]])
        with pytest.raises(ValueError, match="non-negative"):
            mvm(layer, np.array([[1, -1, 2]], dtype=dtype))

    def test_all_zero_inputs_read_like_any_other(self):
        rng = np.random.default_rng(12)
        fresh = map_weights(*quantize(rng.standard_normal((40, 6)), 8), CellNoise(design(xbar=32), NOISE), dup=2)
        x = np.zeros((3, 40), dtype=np.uint8)
        for layer in (fresh, program(fresh, rng)):
            zero_rng, other_rng = np.random.default_rng(5), np.random.default_rng(5)
            out = mvm(layer, x, zero_rng)
            assert out.shape == (2, 3, 6) and not out.any()
            mvm(layer, x + 1, other_rng)
            # The zero input drew exactly the read of a non-zero one.
            assert zero_rng.bit_generator.state == other_rng.bit_generator.state
            assert zero_rng.bit_generator.state != np.random.default_rng(5).bit_generator.state
            with pytest.raises(ValueError, match="requires a generator"):
                mvm(layer, x)


class TestMvmFixedPointOracle:
    @pytest.mark.parametrize("res_cell", [1, 2, 4, 8])
    def test_bit_exact_against_oracle(self, res_cell):
        rng = np.random.default_rng(100 + res_cell)
        d = design(res_cell=res_cell, xbar=32, res_adc=8)
        for case in range(25):
            w, scale = quantize(rng.standard_normal((8, 8)) * rng.uniform(0.5, 3.0), 8)
            layer = program(map_weights(w, scale, CellNoise(d, QUIET)))
            x = rng.integers(0, 128, size=(1, 8))
            got = mvm(layer, x)[0]
            want = fixed_point_oracle(w, x, d)
            np.testing.assert_array_equal(got, want, err_msg=f"case {case}")

    def test_oracle_with_row_tiling(self):
        rng = np.random.default_rng(55)
        d = design(res_cell=4, xbar=32, res_adc=8)
        w, scale = quantize(rng.standard_normal((70, 5)), 8)
        layer = program(map_weights(w, scale, CellNoise(d, QUIET)))
        x = rng.integers(0, 128, size=(2, 70))
        np.testing.assert_array_equal(mvm(layer, x)[0], fixed_point_oracle(w, x, d))


def _read_error_variance(dup: int, n_reads: int, seed: int) -> float:
    """Variance of the copy-averaged output under fresh program+read noise."""
    rng = np.random.default_rng(seed)
    d = design(res_cell=8, xbar=32, freq=5e8, temp=350.0)
    qw = quantize(np.linspace(-1.0, 1.0, 16 * 8).reshape(16, 8), 8)
    base = map_weights(*qw, CellNoise(d, NOISE), dup=dup)
    x = np.full((1, 16), 90, dtype=np.int64)
    ideal = mvm(
        program(map_weights(*qw, CellNoise(design(res_cell=8, xbar=32, res_adc=None), QUIET)), None),
        x,
    )[0].astype(float)
    errs = np.empty(n_reads)
    for i in range(n_reads):
        layer = program(base, rng)
        out = mvm(layer, x, rng).mean(axis=0)
        errs[i] = float(out[0, 0] - ideal[0, 0])
    return float(np.var(errs))


class TestDuplicationVariance:
    def test_variance_quarter_at_k4(self):
        v1 = _read_error_variance(1, 10000, seed=2)
        v4 = _read_error_variance(4, 10000, seed=3)
        assert v4 == pytest.approx(v1 / 4.0, rel=0.20)

    def test_variance_monotone_in_k(self):
        v1 = _read_error_variance(1, 4000, seed=5)
        v2 = _read_error_variance(2, 4000, seed=6)
        v4 = _read_error_variance(4, 4000, seed=7)
        assert v1 > v2 > v4


def per_tile_reference_mvm(layer, codes, rng):
    """Reference read: per tile and side, thermal, shot and RTN drawn on their own.

    Averages the copies' integer outputs; needs res_adc=None.
    """
    d, spec = layer.design, layer.noise.spec
    assert d.res_adc is None
    dac_max = 2**d.res_dac - 1
    v_step = d.v_r / dac_max
    g_step = (d.g_max - d.g_min) / (2**d.res_cell - 1)
    acc = np.zeros((layer.dup, codes.shape[0], layer.cols))
    volts = np.minimum(codes, dac_max) * v_step
    for r0 in range(0, layer.rows, d.xbar_size):
        r1 = min(r0 + d.xbar_size, layer.rows)
        for c0 in range(0, layer.cols, d.xbar_size):
            c1 = min(c0 + d.xbar_size, layer.cols)
            for side, side_sign in ((0, 1), (1, -1)):
                g = layer.noisy[r0:r1, :, side, :, c0:c1]  # (r, dup, S, c)
                read = g + rng.standard_normal(g.shape) * thermal_sigma(g, d)
                read = read + rng.standard_normal(g.shape) * shot_sigma(g, d)
                occupied = rng.random(g.shape) < spec.rtn_p_occupancy
                read = read + np.where(occupied, rtn_amplitude(g, d, spec), 0.0)
                read = np.clip(read, 0.0, d.g_max)
                cur = np.einsum("br,rdsc->dbsc", volts[:, r0:r1], read)
                acc[:, :, c0:c1] += side_sign * np.einsum("dbsc,s->dbc", cur, d.slice_weights)
    return np.rint(acc / (g_step * v_step)).mean(axis=0)


def assert_same_mean_and_variance(a, b, z=5.0):
    """Means and variances of two independent samples agree within z standard errors."""
    assert abs(a.mean() - b.mean()) <= z * np.sqrt(a.var() / len(a) + b.var() / len(b))
    # Standard error of a sample variance: sqrt((m4 - var^2) / n).
    se2 = [(np.mean((x - x.mean()) ** 4) - x.var() ** 2) / len(x) for x in (a, b)]
    assert abs(a.var() - b.var()) <= z * np.sqrt(sum(se2))


class TestMvmReadDistribution:
    def test_average_mode_matches_per_tile_three_draw_read(self):
        # 40 rows at xbar 32: 2 row blocks.
        rng = np.random.default_rng(41)
        d = design(res_cell=2, xbar=32, res_adc=None)
        layer = program(map_weights(*quantize(rng.standard_normal((40, 8)), 8), CellNoise(d, NOISE), dup=3), rng)
        x = rng.integers(0, 128, size=(1, 40))
        n = 2000
        got = np.array([mvm(layer, x, rng).mean(axis=0)[0] for _ in range(n)])
        want = np.array([per_tile_reference_mvm(layer, x, rng)[0] for _ in range(n)])
        assert got.var(axis=0).min() > 1.0  # read noise moves every output code
        for col in range(layer.cols):
            assert_same_mean_and_variance(got[:, col], want[:, col])


class TestFreshDeploymentRead:
    @pytest.mark.parametrize("res_adc", [8, None])
    @pytest.mark.parametrize("res_cell", [1, 2, 4, 8])
    def test_one_draw_read_matches_program_then_read(self, res_cell, res_adc):
        # An unprogrammed read folds the write error into the read Gaussian;
        # its codes must match writing the cells and then reading them.
        rng = np.random.default_rng(60 + res_cell)
        d = design(res_cell=res_cell, xbar=32, res_adc=res_adc)
        layer = map_weights(*quantize(rng.standard_normal((40, 8)), 8), CellNoise(d, NOISE))
        x = rng.integers(0, 128, size=(1, 40))
        n = 3000
        got = np.array([mvm(layer, x, rng)[0, 0] for _ in range(n)])
        want = np.array([mvm(program(layer, rng), x, rng)[0, 0] for _ in range(n)])
        assert got.var(axis=0).max() > 1.0  # the noise moves the output codes
        for col in range(layer.cols):
            assert_same_mean_and_variance(got[:, col], want[:, col])


class TestCopies:
    def test_every_copy_reads_every_input_with_its_own_noise(self):
        rng = np.random.default_rng(8)
        d = design(res_cell=2, xbar=32, res_adc=None)
        w, scale = quantize(rng.standard_normal((40, 6)), 8)
        x = rng.integers(0, 128, size=(5, 40))
        quiet = mvm(program(map_weights(w, scale, CellNoise(d, QUIET), dup=3)), x)
        assert quiet.shape == (3, 5, 6) and quiet.dtype == np.int64
        for copy in quiet:
            np.testing.assert_array_equal(copy, x @ w)
        # Without programming noise the copies hold equal conductances, so
        # only their read noise can set them apart.
        read_only = NoiseSpec(prog=False)
        out = mvm(program(map_weights(w, scale, CellNoise(d, read_only), dup=3)), x, rng)
        assert out.shape == (3, 5, 6) and out.dtype == np.int64
        for a, b in ((0, 1), (0, 2), (1, 2)):
            assert not np.array_equal(out[a], out[b])
