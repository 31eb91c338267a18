import math

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import dtrtrs

from reramopt.gp import (
    _LOG_2PI,
    GpConfig,
    GpParams,
    _cho_solve,
    _chol_with_jitter,
    _cholesky,
    _kernel,
    _lml_and_grad,
    fit,
    posterior,
    sample_function,
)

GP = GpConfig()


def toy_data(seed, n=30, d=2):
    rng = np.random.default_rng(seed)
    x = rng.random((n, d))
    z = rng.random(n)
    y = np.sin(3 * x[:, 0]) + 0.5 * x[:, 1] + 0.3 * z + rng.normal(0, 0.02, n)
    return x, z, y


def direct_inversion_posterior(model, q, qz):
    """Naive Gram-inverse oracle on the standardized scale."""
    xz = model.xz
    k_full = _kernel(xz, xz, model.params) + (model.params.noise_var + model.jitter) * np.eye(
        len(xz)
    )
    k_inv = np.linalg.inv(k_full)
    qq = np.hstack([np.atleast_2d(q), np.asarray(qz, dtype=float).reshape(-1, 1)])
    ks = _kernel(qq, xz, model.params)
    ys = (model.y - model.y_mean) / model.y_std
    mean = model.y_mean + model.y_std * (ks @ k_inv @ ys)
    var = model.params.signal_var - np.sum((ks @ k_inv) * ks, axis=1)
    return mean, model.y_std * np.sqrt(np.maximum(var, 0.0))


# The kernel, posterior and likelihood as they were written before the
# kernel was built in one buffer and the triangular solve called LAPACK
# directly: the oracles for the bits of the current ones.
def _reference_pairwise_sq(u, v, lengthscales):
    a = u / lengthscales
    b = v / lengthscales
    sq = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :] - 2.0 * a @ b.T
    return np.maximum(sq, 0.0)


def _reference_kernel(u, v, params):
    ls = np.asarray(params.lengthscales)
    return params.signal_var * np.exp(-0.5 * _reference_pairwise_sq(u, v, ls))


def _reference_posterior(model, x, z):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z_arr = np.broadcast_to(np.asarray(z, dtype=float), (len(x),)).reshape(-1, 1)
    q = np.hstack([x, z_arr])
    k_star = _reference_kernel(q, model.xz, model.params)
    mean = k_star @ model.alpha
    v = solve_triangular(model.chol, k_star.T, lower=True)
    var = model.params.signal_var - np.sum(v * v, axis=0)
    var = np.maximum(var, 0.0)
    return model.y_mean + model.y_std * mean, model.y_std * np.sqrt(var)


def _reference_lml_and_grad(log_theta, xz, y):
    n, dims = xz.shape
    signal_var = math.exp(log_theta[0])
    ls = np.exp(log_theta[1 : 1 + dims])
    noise_var = math.exp(log_theta[-1])
    scaled = xz / ls
    k = signal_var * np.exp(-0.5 * _reference_pairwise_sq(xz, xz, ls))
    low = cholesky(k + noise_var * np.eye(n), lower=True)
    alpha = cho_solve((low, True), y)
    lml = -0.5 * float(y @ alpha) - float(np.log(np.diag(low)).sum()) - 0.5 * n * _LOG_2PI
    tmp = np.outer(alpha, alpha) - cho_solve((low, True), np.eye(n))
    grad = np.empty_like(log_theta)
    grad[0] = 0.5 * float(np.sum(tmp * k))
    for i in range(dims):
        diff_sq = (scaled[:, i][:, None] - scaled[:, i][None, :]) ** 2
        grad[1 + i] = 0.5 * float(np.sum(tmp * (k * diff_sq)))
    grad[-1] = 0.5 * noise_var * float(np.trace(tmp))
    return -lml, -grad


def _same_bits(a, b):
    return all(np.asarray(u).tobytes() == np.asarray(v).tobytes() for u, v in zip(a, b))


class TestFit:
    def test_two_point_closed_form_lml(self):
        # Hand-evaluated 2x2 closed form at fixed hyperparameters.
        x = np.array([[0.2], [0.7]])
        z = np.array([0.0, 1.0])
        y = np.array([1.0, -1.0])  # standardizes to (1, -1)
        params = GpParams(signal_var=1.5, lengthscales=(0.4, 0.8), noise_var=0.01)
        model = fit(x, z, y, GP, optimize=False, init_params=params)
        ys = (y - y.mean()) / y.std()
        d2 = (0.5 / 0.4) ** 2 + (1.0 / 0.8) ** 2
        k01 = 1.5 * np.exp(-0.5 * d2)
        k_mat = np.array([[1.51, k01], [k01, 1.51]])
        expected = (
            -0.5 * ys @ np.linalg.solve(k_mat, ys)
            - 0.5 * np.log(np.linalg.det(k_mat))
            - np.log(2 * np.pi)
        )
        assert model.lml == pytest.approx(expected, abs=1e-10)

    def test_duplicated_point_tiny_noise_fits(self):
        x = np.array([[0.5], [0.5], [0.1]])
        z = np.array([1.0, 1.0, 1.0])
        y = np.array([2.0, 2.0, 1.0])
        params = GpParams(signal_var=1.0, lengthscales=(0.5, 0.5), noise_var=1e-6)
        model = fit(x, z, y, GP, optimize=False, init_params=params)
        mu, _ = posterior(model, np.array([[0.5]]), 1.0)
        assert np.isfinite(mu).all()

    def test_standardization_internal_zero_mean(self):
        x, z, y = toy_data(0)
        model = fit(x, z, y + 100.0, GP)
        ys = (model.y - model.y_mean) / model.y_std
        assert abs(ys.mean()) < 1e-12

    def test_constant_targets_fit(self):
        x, z, _ = toy_data(1, n=10)
        model = fit(x, z, np.full(10, 3.3), GP)
        mu, sd = posterior(model, x[:3], z[:3])
        assert mu == pytest.approx(np.full(3, 3.3), abs=1e-6)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit(np.array([[0.1]]), np.array([1.0]), np.array([1.0]), GP)

    @pytest.mark.parametrize("name", ["x", "z", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("optimize", [True, False])
    def test_non_finite_inputs_are_rejected_by_name(self, name, bad, optimize):
        data = dict(zip("xzy", toy_data(3, n=8)))
        data[name][(4, 0) if name == "x" else 4] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            fit(data["x"], data["z"], data["y"], GP, optimize=optimize)

    def test_indefinite_matrix_raises_linalg_error(self):
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(np.linalg.LinAlgError):
            _chol_with_jitter(-np.eye(3))

    @pytest.mark.parametrize("n", [10, 40])
    def test_direct_lapack_matches_the_scipy_wrappers_bit_for_bit(self, n):
        x, z, y = toy_data(n, n=n)
        model = fit(x, z, y, GP, GP)
        k = _kernel(model.xz, model.xz, model.params) + model.params.noise_var * np.eye(n)
        low = _cholesky(k)
        np.testing.assert_array_equal(low, cholesky(k, lower=True))
        for rhs in (y, np.eye(n)):
            np.testing.assert_array_equal(_cho_solve(low, rhs), cho_solve((low, True), rhs))


    @pytest.mark.parametrize("optimize", [True, False])
    @pytest.mark.parametrize("count", [2, 4])
    def test_init_params_need_one_lengthscale_per_input_column(self, count, optimize):
        x, z, y = toy_data(3, n=8)
        params = GpParams(signal_var=1.0, lengthscales=(0.5,) * count, noise_var=1e-2)
        with pytest.raises(ValueError, match=f"^lengthscales must hold 3 values, .* got {count}$"):
            fit(x, z, y, GP, optimize=optimize, init_params=params)

    @pytest.mark.parametrize("optimize", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.5])
    @pytest.mark.parametrize("name", ["signal_var", "lengthscales", "noise_var"])
    def test_non_finite_or_non_positive_init_params_are_rejected_by_name(self, name, bad, optimize):
        x, z, y = toy_data(3, n=8)
        fields = {"signal_var": 1.0, "lengthscales": (0.5, 0.5, 0.5), "noise_var": 1e-2}
        fields[name] = (0.5, bad, 0.5) if name == "lengthscales" else bad
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
            fit(x, z, y, GP, optimize=optimize, init_params=GpParams(**fields))

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_gradient_equals_central_differences_of_the_likelihood(self, d):
        # An independent check of the gradient formulas, which
        # _reference_lml_and_grad repeats. Central differences with step 1e-5
        # in log theta agree to about 5e-8 of max(1, |gradient|) here; a wrong
        # term is off by O(1).
        rng = np.random.default_rng(d)
        x, z = rng.random((25, d)), rng.random(25)
        y = np.sin(3 * x).sum(axis=1) + 0.3 * z
        xz = np.hstack([x, z[:, None]])
        ys = (y - y.mean()) / y.std()
        h = 1e-5
        for _ in range(5):
            log_theta = np.log(np.r_[rng.uniform(0.05, 20.0), rng.uniform(0.05, 2.0, d + 1), rng.uniform(1e-3, 0.1)])
            _, grad = _lml_and_grad(log_theta, xz, ys)
            for p, step in enumerate(h * np.eye(len(log_theta))):
                upper, lower = _lml_and_grad(log_theta + step, xz, ys)[0], _lml_and_grad(log_theta - step, xz, ys)[0]
                assert abs((upper - lower) / (2 * h) - grad[p]) <= 1e-6 * max(1.0, abs(grad[p])), (d, p)

    @pytest.mark.parametrize("n", [2, 13, 40])
    def test_likelihood_and_gradient_equal_the_reference_bit_for_bit(self, n):
        x, z, y = toy_data(n, n=n)
        xz = np.hstack([x, z[:, None]])
        ys = (y - y.mean()) / y.std()
        rng = np.random.default_rng(n)
        for _ in range(5):
            log_theta = np.log(np.r_[rng.uniform(0.05, 20.0), rng.uniform(0.05, 2.0, 3), rng.uniform(1e-6, 0.1)])
            assert _same_bits(_lml_and_grad(log_theta, xz, ys), _reference_lml_and_grad(log_theta, xz, ys))


class TestPosterior:
    @pytest.mark.parametrize("n", [2, 13, 40])
    def test_kernel_and_posterior_equal_the_reference_bit_for_bit(self, n):
        x, z, y = toy_data(n, n=n)
        model = fit(x, z, y, GP, GP)
        assert _same_bits([_kernel(model.xz, model.xz, model.params)], [_reference_kernel(model.xz, model.xz, model.params)])
        rng = np.random.default_rng(n)
        for rows in (1, 2000, 20000):
            q, qz = rng.random((rows, 2)), rng.random(rows)
            qq = np.hstack([q, qz[:, None]])
            assert _same_bits([_kernel(qq, model.xz, model.params)], [_reference_kernel(qq, model.xz, model.params)])
            assert _same_bits(posterior(model, q, qz), _reference_posterior(model, q, qz)), rows
            assert _same_bits(posterior(model, q, 0.5), _reference_posterior(model, q, 0.5)), rows

    @pytest.mark.parametrize("n", [2, 13, 40])
    def test_direct_trtrs_matches_solve_triangular_bit_for_bit(self, n):
        x, z, y = toy_data(n, n=n)
        model = fit(x, z, y, GP, GP)
        assert model.chol.flags.f_contiguous
        rng = np.random.default_rng(n)
        for rows in (1, 2000, 20000):
            rhs = rng.standard_normal((rows, n)).T
            expected = solve_triangular(model.chol, rhs, lower=True)
            np.testing.assert_array_equal(dtrtrs(model.chol, rhs.copy(order="F"), lower=1, overwrite_b=1)[0], expected)

    @pytest.mark.parametrize("name", ["x", "z"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_queries_are_rejected_by_name(self, name, bad):
        x, z, y = toy_data(3, n=8)
        model = fit(x, z, y, GP, GP)
        q, qz = np.random.default_rng(0).random((5, 2)), np.full(5, 0.5)
        (q if name == "x" else qz)[2] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            posterior(model, q, qz)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            posterior(model, q[2] if name == "x" else q[:1], bad if name == "z" else 0.5)

    def test_interpolates_with_tiny_noise(self):
        x, z, y = toy_data(2, n=20)
        params = GpParams(signal_var=1.0, lengthscales=(0.5, 0.5, 0.5), noise_var=1e-8)
        model = fit(x, z, y, GP, optimize=False, init_params=params)
        mu, sd = posterior(model, x, z)
        assert np.max(np.abs(mu - y)) < 1e-4
        assert np.max(sd) <= 1e-3

    def test_reverts_to_prior_far_away(self):
        x, z, y = toy_data(3, n=15)
        model = fit(x, z, y, GP, GP)
        _, sd = posterior(model, np.full((1, 2), 60.0), 1.0)
        prior_sd = np.sqrt(model.params.signal_var) * model.y_std
        assert sd[0] == pytest.approx(prior_sd, rel=0.01)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_matches_direct_inversion_oracle(self, seed):
        x, z, y = toy_data(seed)
        model = fit(x, z, y, GP, GP)
        rng = np.random.default_rng(seed + 100)
        q, qz = rng.random((50, 2)), rng.random(50)
        mu, sd = posterior(model, q, qz)
        mu_o, sd_o = direct_inversion_posterior(model, q, qz)
        assert np.max(np.abs(mu - mu_o)) < 1e-8
        assert np.max(np.abs(sd - sd_o)) < 1e-8

    def test_variance_shrinks_when_point_added_there(self):
        x, z, y = toy_data(4, n=12)
        params = GpParams(signal_var=1.0, lengthscales=(0.4, 0.4, 0.4), noise_var=1e-4)
        model = fit(x, z, y, GP, optimize=False, init_params=params)
        q = np.array([[0.42, 0.58]])
        _, sd_before = posterior(model, q, 0.5)
        x2 = np.vstack([x, q])
        z2 = np.append(z, 0.5)
        y2 = np.append(y, 0.0)
        model2 = fit(x2, z2, y2, GP, optimize=False, init_params=params)
        _, sd_after = posterior(model2, q, 0.5)
        assert sd_after[0] <= sd_before[0] * model2.y_std / model.y_std + 1e-9

    def test_training_permutation_invariance(self):
        x, z, y = toy_data(5)
        params = GpParams(signal_var=2.0, lengthscales=(0.3, 0.3, 0.7), noise_var=1e-3)
        m1 = fit(x, z, y, GP, optimize=False, init_params=params)
        perm = np.random.default_rng(0).permutation(len(y))
        m2 = fit(x[perm], z[perm], y[perm], GP, optimize=False, init_params=params)
        q = np.random.default_rng(1).random((20, 2))
        mu1, sd1 = posterior(m1, q, 0.7)
        mu2, sd2 = posterior(m2, q, 0.7)
        assert np.max(np.abs(mu1 - mu2)) < 1e-8
        assert np.max(np.abs(sd1 - sd2)) < 1e-8

    def test_fidelity_continuity_at_z_star(self):
        x, z, y = toy_data(6)
        model = fit(x, z, y, GP, GP)
        q = np.array([[0.3, 0.3]])
        _, sd_star = posterior(model, q, 1.0)
        _, sd_near = posterior(model, q, 1.0 - 1e-7)
        assert sd_near[0] == pytest.approx(sd_star[0], rel=1e-4)


class TestSampledFunctions:
    def test_same_seed_identical(self):
        x, z, y = toy_data(7)
        model = fit(x, z, y, GP, GP)
        pts = np.random.default_rng(2).random((6, 2))
        f1 = sample_function(model, seed=42, n_features=500)
        f2 = sample_function(model, seed=42, n_features=500)
        np.testing.assert_array_equal(f1(pts), f2(pts))

    def test_different_seeds_differ(self):
        x, z, y = toy_data(8)
        model = fit(x, z, y, GP, GP)
        pts = np.random.default_rng(3).random((4, 2))
        assert not np.allclose(sample_function(model, 1, 500)(pts), sample_function(model, 2, 500)(pts))

    def test_finite_everywhere(self):
        x, z, y = toy_data(9)
        model = fit(x, z, y, GP, GP)
        f = sample_function(model, 0, 500)
        grid = np.random.default_rng(4).random((200, 2)) * 3 - 1
        assert np.all(np.isfinite(f(grid)))

    def test_float32_draw_stays_within_1e5_of_the_prior_sd(self):
        # The shortest lengthscales give the largest arguments, where float32
        # rounding is coarsest; d = 2, 4 and 6 are the widths of branin, ReRAM
        # and zdt1. The reference is the float64 formula on the float64
        # fields that define the draw.
        short = GpConfig().lengthscale_bounds[0]
        for d in (2, 4, 6):
            rng = np.random.default_rng(11)
            x, z = rng.random((30, d)), rng.random(30)
            y = np.sin(6 * x).sum(axis=1) + z
            params = GpParams(signal_var=1.7, lengthscales=(short,) * (d + 1), noise_var=1e-3)
            model = fit(x, z, y, GP, optimize=False, init_params=params)
            pts = rng.random((1000, d))
            for seed in range(10):
                f = sample_function(model, seed=seed, n_features=500)
                assert f.freqs.shape == (d, 500) and f.freqs.flags.c_contiguous
                exact = f.y_mean + f.y_std * f.feature_scale * (
                    np.cos(pts @ f.freqs + f.offset) @ f.weights
                )
                err = np.max(np.abs(f(pts) - exact))
                assert err <= 1e-5 * model.y_std * np.sqrt(model.params.signal_var), (d, seed)

    def test_draw_returns_float64_on_the_target_scale(self):
        x, z, y = toy_data(12)
        y = 1e6 + 1e3 * y
        f = sample_function(fit(x, z, y, GP, GP), seed=0, n_features=500)
        out = f(np.random.default_rng(5).random((7, 2)))
        assert out.dtype == np.float64 and out.shape == (7,)
        assert np.all(np.abs(out - f.y_mean) < 10 * f.y_std)
        assert f(np.array([0.2, 0.3])).shape == (1,)

    @pytest.mark.slow
    def test_covariance_matches_exact_posterior(self):
        x, z, y = toy_data(10, n=25)
        model = fit(x, z, y, GP, GP)
        pts = np.array([[0.3, 0.4], [0.36, 0.52]])
        qq = np.hstack([pts, np.ones((2, 1))])
        k_full = _kernel(model.xz, model.xz, model.params) + (
            model.params.noise_var + model.jitter
        ) * np.eye(len(model.xz))
        k_inv = np.linalg.inv(k_full)
        ks = _kernel(qq, model.xz, model.params)
        cov_exact = (_kernel(qq, qq, model.params) - ks @ k_inv @ ks.T) * model.y_std**2
        ys = (model.y - model.y_mean) / model.y_std
        mean_exact = model.y_mean + model.y_std * (ks @ k_inv @ ys)

        draws = np.empty((2000, 2))
        for i in range(2000):
            draws[i] = sample_function(model, seed=5000 + i, n_features=2000)(pts)
        cov_emp = np.cov(draws.T)
        assert np.all(
            np.abs(np.diag(cov_emp) - np.diag(cov_exact)) <= 0.10 * np.diag(cov_exact)
        )
        se = np.sqrt(np.diag(cov_exact) / 2000)
        assert np.all(np.abs(draws.mean(axis=0) - mean_exact) <= 3 * se)


class TestJitterPath:
    def test_near_singular_gram_recovers(self):
        x = np.tile([[0.5, 0.5]], (6, 1))
        z = np.ones(6)
        y = np.full(6, 1.0) + np.random.default_rng(0).normal(0, 1e-9, 6)
        params = GpParams(signal_var=1.0, lengthscales=(0.5, 0.5, 0.5), noise_var=1e-6)
        model = fit(x, z, y, GP, optimize=False, init_params=params)
        mu, sd = posterior(model, np.array([[0.5, 0.5]]), 1.0)
        assert np.isfinite(mu).all() and np.isfinite(sd).all()
