"""Gaussian-process surrogates over joint (design, fidelity) inputs.

One model per objective. The kernel is a product of squared exponentials
over the design coordinates (ARD) and the fidelity coordinate, which is
simply an ARD squared-exponential kernel on the concatenated input
u = [x, z]. Targets are standardized internally; hyperparameters maximize
the log marginal likelihood with a multi-start L-BFGS search over log
parameters. Posterior function draws use a random-Fourier-feature
expansion of the kernel followed by Bayesian linear regression on the
feature weights; the weight posterior is sampled exactly through
Matheron's update so only n x n factorizations are ever needed.

``_bounds``, ``_pack`` and ``_unpack`` own the hyperparameter layout,
``_kernel`` and ``_gram`` the kernel and its gradient, ``_lml`` the
likelihood. ``sample_function`` draws the spectral frequencies, maps the
data to random features and folds z* into a draw; ``features32`` is the
one float32 formula of a draw, with its error analysis.

Factorizations and solves call LAPACK's dpotrf, dpotrs and dtrtrs
directly, the routines behind scipy.linalg.cholesky, cho_solve and
solve_triangular, so the results are bit-identical without the wrappers'
per-call overhead and copies; fit() and posterior() therefore check their
inputs for NaN and inf themselves. The kernel matrix is built in one
buffer, step by step in place and in the plain formula's order, and
posterior() solves in that buffer, so a 20,000-row call allocates only
one more array of its size, the product (2a) b^T.

A fitted model is immutable: posterior() and sample_function() may be
called concurrently, fit() builds a fresh model.

SciPy loads on first use, inside the functions that call it, not at import:
its linalg and optimize packages take longer to import than the rest of
reramopt together, and the emulator path (evaluate, train-one, noise-hist)
imports this module through the config but never fits a surrogate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GpConfig:
    lengthscale_bounds: tuple[float, float] = (0.05, 2.0)
    signal_var_bounds: tuple[float, float] = (0.05, 20.0)
    noise_var_bounds: tuple[float, float] = (1e-6, 1e-1)  # relative to var(y)=1
    n_restarts: int = 5
    max_opt_iter: int = 60

    def __post_init__(self):
        for name in ("lengthscale_bounds", "signal_var_bounds", "noise_var_bounds"):
            bounds = getattr(self, name)
            if len(bounds) != 2 or not 0.0 < bounds[0] <= bounds[1] < math.inf:
                raise ValueError(f"{name} must be a finite pair with 0 < lo <= hi, got {list(bounds)}")
        for name in ("n_restarts", "max_opt_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class GpParams:
    signal_var: float
    lengthscales: tuple[float, ...]  # design dims then fidelity dim
    noise_var: float


@dataclass(frozen=True)
class CfGpModel:
    """Fitted GP over (x, z) with cached Cholesky factorization."""

    xz: np.ndarray  # (n, d+1)
    y: np.ndarray  # raw targets
    y_mean: float
    y_std: float
    params: GpParams
    chol: np.ndarray
    alpha: np.ndarray  # (K + sigma_n^2 I)^-1 y_standardized
    lml: float
    jitter: float


def _bounds(config: GpConfig, dims: int) -> np.ndarray:
    """Lower and upper bounds, (2, dims + 2), of the hyperparameter vector over
    ``dims`` input columns, in its order: signal_var, lengthscales, noise_var."""
    return np.array([config.signal_var_bounds, *[config.lengthscale_bounds] * dims, config.noise_var_bounds]).T


def _pack(params: GpParams, dims: int) -> np.ndarray:
    """``params`` as the vector of ``_bounds``, or a ValueError naming a bad field."""
    if len(params.lengthscales) != dims:
        got = len(params.lengthscales)
        raise ValueError(f"lengthscales must hold {dims} values, one per column of [x, z], got {got}")
    for name in ("signal_var", "lengthscales", "noise_var"):
        value = np.asarray(getattr(params, name), dtype=float)
        if not ((value > 0.0) & (value < np.inf)).all():
            raise ValueError(f"{name} must be finite and positive, got {getattr(params, name)}")
    return np.array([params.signal_var, *params.lengthscales, params.noise_var], dtype=float)


def _unpack(log_theta: np.ndarray) -> tuple[float, np.ndarray, float]:
    """signal_var, lengthscales and noise_var from the log of a ``_pack`` vector."""
    return math.exp(log_theta[0]), np.exp(log_theta[1:-1]), math.exp(log_theta[-1])


def _se_kernel(a: np.ndarray, b: np.ndarray, signal_var: float) -> np.ndarray:
    """signal_var * exp(-|a_i - b_j|^2 / 2) over rows already divided by the
    lengthscales, built in one (len(a), len(b)) buffer.

    The squared distance is |a_i|^2 + |b_j|^2 - (2a_i) . b_j, clamped at 0.
    Pass the same array as ``a`` and ``b`` for the distances of a set to
    itself, and its norms are computed once.
    """
    na = np.sum(a * a, axis=1)
    nb = na if b is a else np.sum(b * b, axis=1)
    k = na[:, None] + nb[None, :]
    k -= 2.0 * a @ b.T
    np.maximum(k, 0.0, out=k)
    k *= -0.5
    np.exp(k, out=k)
    k *= signal_var
    return k


def _kernel(u: np.ndarray, v: np.ndarray, params: GpParams) -> np.ndarray:
    ls = np.asarray(params.lengthscales)
    a = u / ls
    return _se_kernel(a, a if v is u else v / ls, params.signal_var)


def _gram(xz: np.ndarray, signal_var: float, ls: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """K over the rows of ``xz`` and dK/dlog theta_p for each kernel
    hyperparameter p in the order of ``_bounds``: signal_var, lengthscales."""
    scaled = xz / ls
    k = _se_kernel(scaled, scaled, signal_var)
    diff_sq = (scaled.T[:, :, None] - scaled.T[:, None, :]) ** 2
    return k, [k, *(k * d for d in diff_sq)]


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a finite symmetric matrix, through LAPACK.

    The same dpotrf call as ``scipy.linalg.cholesky(a, lower=True)``, so the
    factor is bit-identical, without the wrapper's checks and dispatch.
    Raises LinAlgError when ``a`` is not positive definite.
    """
    from scipy.linalg.lapack import dpotrf

    low, info = dpotrf(a, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor is not positive definite")
    return low


def _cho_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (low @ low.T) x = b with dpotrs, as ``scipy.linalg.cho_solve`` does."""
    from scipy.linalg.lapack import dpotrs

    return dpotrs(low, b, lower=1)[0]


def _require_finite(**arrays: np.ndarray) -> None:
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite, got NaN or inf")


def _chol_with_jitter(k_noisy: np.ndarray) -> tuple[np.ndarray, float]:
    jitter = 0.0
    scale = float(np.mean(np.diag(k_noisy)))
    for _ in range(8):
        try:
            return _cholesky(k_noisy + jitter * np.eye(len(k_noisy))), jitter
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10.0, 1e-10 * scale)
    raise np.linalg.LinAlgError("kernel matrix not positive definite even with jitter")


def _lml(low: np.ndarray, alpha: np.ndarray, y: np.ndarray) -> float:
    """Log marginal likelihood of y from the Cholesky factor of its covariance C and C^-1 y."""
    return -0.5 * float(y @ alpha) - float(np.log(low.diagonal()).sum()) - 0.5 * len(y) * _LOG_2PI


def _lml_and_grad(log_theta: np.ndarray, xz: np.ndarray, y: np.ndarray):
    """Negative LML and its gradient w.r.t. the log hyperparameters of ``_bounds``."""
    signal_var, ls, noise_var = _unpack(log_theta)
    k, k_grads = _gram(xz, signal_var, ls)
    eye = np.eye(len(y))
    try:
        low = _cholesky(k + noise_var * eye)
    except np.linalg.LinAlgError:
        return np.inf, np.zeros_like(log_theta)
    alpha = _cho_solve(low, y)
    tmp = alpha[:, None] * alpha - _cho_solve(low, eye)
    grad = np.empty_like(log_theta)
    for p, dk in enumerate(k_grads):
        grad[p] = 0.5 * float((tmp * dk).sum())
    grad[-1] = 0.5 * noise_var * float(tmp.trace())  # dK/dlog noise_var = noise_var * I
    return -_lml(low, alpha, y), -grad


def fit(
    x: np.ndarray,
    z: np.ndarray,
    y: np.ndarray,
    config: GpConfig,
    optimize: bool = True,
    init_params: GpParams | None = None,
) -> CfGpModel:
    """Fit the surrogate on (x_i, z_i, y_i) triples.

    Targets are standardized to zero mean / unit variance internally (a
    constant target keeps std 1 and drives the signal variance to its
    lower bound, so degenerate data still fits). The search runs
    ``n_restarts`` L-BFGS starts: the provided/default parameters first,
    clipped into the bounds, then log-uniform draws within the bounds from
    ``default_rng(0)``, so a fit is deterministic.
    """
    from scipy.optimize import minimize

    x = np.atleast_2d(np.asarray(x, dtype=float))
    z = np.asarray(z, dtype=float).reshape(-1, 1)
    y = np.asarray(y, dtype=float).ravel()
    if len(x) != len(z) or len(x) != len(y):
        raise ValueError("x, z, y must have matching lengths")
    _require_finite(x=x, z=z, y=y)
    if len(y) < 2:
        raise ValueError("need at least 2 observations to fit")
    xz = np.hstack([x, z])
    dims = xz.shape[1]

    y_mean = float(y.mean())
    y_sd = float(y.std())
    y_std = y_sd if y_sd > 0.0 else 1.0
    ys = (y - y_mean) / y_std

    if init_params is None:
        init_params = GpParams(1.0, (0.5,) * dims, 1e-2)
    lo, hi = _bounds(config, dims)
    theta = np.log(np.clip(_pack(init_params, dims), lo, hi))

    if optimize:
        log_lo, log_hi = np.log(lo), np.log(hi)
        starts = [theta]
        rng = np.random.default_rng(0)
        for _ in range(config.n_restarts - 1):
            starts.append(log_lo + rng.random(len(lo)) * (log_hi - log_lo))
        best_val = np.inf
        for start in starts:
            res = minimize(
                _lml_and_grad,
                start,
                args=(xz, ys),
                jac=True,
                method="L-BFGS-B",
                bounds=list(zip(log_lo, log_hi)),
                options={"maxiter": config.max_opt_iter},
            )
            if res.fun < best_val:
                best_val, theta = res.fun, res.x

    signal_var, ls, noise_var = _unpack(theta)
    params = GpParams(signal_var, tuple(ls), noise_var)
    low, jitter = _chol_with_jitter(_kernel(xz, xz, params) + noise_var * np.eye(len(xz)))
    alpha = _cho_solve(low, ys)
    return CfGpModel(
        xz=xz,
        y=y,
        y_mean=y_mean,
        y_std=y_std,
        params=params,
        chol=low,
        alpha=alpha,
        lml=_lml(low, alpha, ys),
        jitter=jitter,
    )


def posterior(model: CfGpModel, x: np.ndarray, z) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and std of the latent function at (x, z), batched.

    ``x`` is (m, d) or (d,); ``z`` is a scalar or (m,). Values are returned
    on the raw target scale; the variance is clamped at 0 before the root.
    """
    from scipy.linalg.lapack import dtrtrs

    x = np.atleast_2d(np.asarray(x, dtype=float))
    z_arr = np.broadcast_to(np.asarray(z, dtype=float), (len(x),)).reshape(-1, 1)
    _require_finite(x=x, z=z_arr)
    q = np.hstack([x, z_arr])
    k_star = _kernel(q, model.xz, model.params)
    mean = k_star @ model.alpha
    # The Fortran-ordered factor is the branch where solve_triangular calls
    # trtrs(chol, b, lower=1); k_star is not read again, so it is solved in place.
    v = dtrtrs(model.chol, k_star.T, lower=1, overwrite_b=1)[0]
    v *= v
    var = model.params.signal_var - np.sum(v, axis=0)
    var = np.maximum(var, 0.0)
    return model.y_mean + model.y_std * mean, model.y_std * np.sqrt(var)


def features32(x: np.ndarray, freqs32, offset32, trig, out=None) -> np.ndarray:
    """trig(float32(x - 1/2) @ freqs32 + offset32): a draw's float32 features
    at points x (..., n, d), written into ``out`` if given.

    The argument is centred at x = 1/2 with offset32 = offset + freqs.sum(0)
    / 2 reduced mod 2 pi in float64 before it is rounded, so every term
    stays small; x - 1/2 is rounded after the float64 subtraction, the order
    ``mesmo._screen_margin`` bounds. The cosines and their weighted sum are
    float32, and only the final affine map is float64: numpy vectorizes
    float32 cos and sin, not float64, which costs about 20x as much. Against
    the float64 formula, with every lengthscale at the 0.05 bound, the
    largest error over 100 draws x 2,000 points in [0, 1]^d was 3.4e-6 (d =
    2), 3.7e-6 (d = 4) and 4.8e-6 (d = 6) of y_std * sqrt(signal_var), and
    9.8e-6 at d = 6 without the centring.
    """
    phi = np.matmul((x - 0.5).astype(np.float32), freqs32, out=out)
    phi += offset32
    return trig(phi, out=phi)


@dataclass(frozen=True)
class SampledFunction:
    """One analytic draw of the highest-fidelity function g(., z*=1).

    g(x) = y_mean + y_std * feature_scale * cos(x @ freqs + offset) @ weights,
    with z* folded into ``offset``. These float64 fields define the draw; a
    call evaluates it by ``features32`` on float32 copies made once per draw.
    """

    freqs: np.ndarray  # (d, m) design-dimension frequencies, C-contiguous
    offset: np.ndarray  # (m,) fidelity frequency * z* + phase
    weights: np.ndarray  # (m,)
    feature_scale: float
    y_mean: float
    y_std: float
    freqs32: np.ndarray = field(init=False, repr=False, compare=False)
    offset32: np.ndarray = field(init=False, repr=False, compare=False)  # centred, mod 2 pi
    weights32: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        centred = np.mod(self.offset + 0.5 * self.freqs.sum(axis=0), 2.0 * np.pi)
        object.__setattr__(self, "freqs32", self.freqs.astype(np.float32))
        object.__setattr__(self, "offset32", centred.astype(np.float32))
        object.__setattr__(self, "weights32", self.weights.astype(np.float32))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        phi = features32(np.atleast_2d(np.asarray(x, dtype=float)), self.freqs32, self.offset32, np.cos)
        return self.y_mean + self.y_std * self.feature_scale * (phi @ self.weights32).astype(float)


def sample_function(model: CfGpModel, seed: int, n_features: int) -> SampledFunction:
    """Draw one posterior function, evaluable anywhere at z = z* = 1.

    The kernel is approximated with ``n_features`` random Fourier features
    and the Gaussian weight posterior of the resulting Bayesian linear
    regression is sampled exactly (Matheron's update), so the draw costs
    one n x n factorization regardless of the feature count.
    """
    rng = np.random.default_rng(seed)
    params = model.params
    m = n_features
    ls = np.asarray(params.lengthscales)
    freqs = rng.standard_normal((m, len(ls))) / ls
    phases = rng.uniform(0.0, 2.0 * np.pi, m)
    scale = math.sqrt(2.0 * params.signal_var / m)

    phi = scale * np.cos(model.xz @ freqs.T + phases)  # (n, m)
    ys = (model.y - model.y_mean) / model.y_std
    sigma2 = params.noise_var

    w0 = rng.standard_normal(m)
    eps = rng.standard_normal(len(ys)) * math.sqrt(sigma2)
    gram = phi @ phi.T + sigma2 * np.eye(len(ys))
    low, _ = _chol_with_jitter(gram)
    resid = ys - phi @ w0 - eps
    weights = w0 + phi.T @ _cho_solve(low, resid)

    return SampledFunction(
        freqs=np.ascontiguousarray(freqs[:, :-1].T),
        offset=freqs[:, -1] + phases,  # the fidelity column at z* = 1
        weights=weights,
        feature_scale=scale,
        y_mean=model.y_mean,
        y_std=model.y_std,
    )
