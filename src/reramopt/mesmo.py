"""Cost-aware max-value entropy search over designs and fidelities.

Each iteration samples S highest-fidelity Pareto fronts from the
surrogates, as the per-objective maxima of posterior function draws found
by direct search, then picks the (design, fidelity level) pair maximizing

    alpha(x, z) = sum_j sum_s [ g*phi(g)/(2*Phi(g)) - ln Phi(g) ] / (C(z)*S)

with g = (f_s^{j*} - mu_j(x, z_j)) / sigma_j(x, z_j): the expected entropy
reduction of the front's per-objective maxima per unit normalized cost.
The level z is one float; z_j is z for a fidelity-bearing objective and 1
for the others (``MooProblem.fidelity_vector``).
``select_next`` has two homes: ``_candidate_grid`` draws the designs and
levels and evaluates each objective's posterior on that grid, and
``_mes_gain`` scores the grid, in full only where a bound on alpha says a
pair can win, so the pick is the whole grid's, ties included. Front
sampling spends float64 the same way: each draw's ascent starts and ends
are scored on its float32 copy, and only the points within twice a proven
bound on the float32 error of the draw's best get a float64 value, so
every maximum is the one a float64 pass over all points gives.
The same loop over the single level 1 is the MESMO baseline. Every
optimizer, the random-search and NSGA-II baselines included, records its
evaluations in one trace, and the campaign's state is read from it.

The outer loop is sequential by nature; within an iteration every random
draw comes from an indexed substream of the campaign seed, so reruns are
exactly reproducible.

``entropy_term`` imports SciPy's ``log_ndtr`` when first called, as gp.py
does its solvers, so that importing the package for the emulator alone
does not load SciPy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .design_space import fidelity_grid
from .gp import CfGpModel, GpConfig, GpParams, SampledFunction, features32, fit, posterior, sample_function
from .objectives import MooProblem
from .pareto import Nsga2Config, dominated_hypervolume, nsga2, pareto_front
from .resna import TrainingDivergedError

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# Substream tags for indexed, order-independent seeding.
_TAG_INIT, _TAG_EVAL, _TAG_FRONT, _TAG_POOL, _TAG_NSGA_EVAL = 11, 13, 17, 19, 23

# The optimizers ``search`` runs, and those of them that pick with surrogates.
OPTIMIZERS = ("cf-mesmo", "mesmo", "random", "nsga2")
SURROGATES = ("cf-mesmo", "mesmo")


def entropy_term(gamma):
    """Entropy reduction of one truncated Gaussian: g*phi/(2*Phi) - ln Phi.

    Equals the differential-entropy gap between a standard Gaussian and
    the same Gaussian truncated above at gamma; nonnegative, decreasing in
    gamma, ln 2 at gamma=0 and 0 in the no-truncation limit. The ratio
    phi/Phi is evaluated in log space so the expression stays finite for
    arbitrarily negative gamma. Against 400-digit arithmetic it is within
    2.5e-11 relative for gamma >= -30 while the result is a normal float
    (gamma < 37.5); below -30 its two terms near gamma^2/2 cancel, and the
    error grows to 1.7e-10 at -100 and 3% at -1e4.
    """
    from scipy.special import log_ndtr

    g = np.asarray(gamma, dtype=float)
    log_pdf = -0.5 * g * g - _HALF_LOG_2PI
    log_cdf = log_ndtr(g)
    hazard = np.exp(log_pdf - log_cdf)
    out = np.maximum(0.5 * g * hazard - log_cdf, 0.0)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class MesmoConfig:
    """The config's ``mesmo:`` section: front sampling, candidate pool,
    fidelity grid, initial design and surrogate refits. The acquisition
    and ``search`` read it whole, so no signature restates a default."""

    n_front_samples: int = 10
    pool_size: int = 2000
    fidelity_levels: int = 10
    n_init: int = 5
    rff_features: int = 500
    gp_refit_every: int = 3  # hyperparameter re-optimization cadence (conditioning is per-iteration)

    def __post_init__(self):
        for name in ("n_front_samples", "pool_size", "fidelity_levels", "rff_features", "gp_refit_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_init < 0:
            raise ValueError(f"n_init must be >= 0, got {self.n_init}")


@dataclass(frozen=True)
class Budget:
    total_cost: float = 60.0
    max_iterations: int = 100
    converge_eps: float = 1e-3
    converge_window: int = 10

    def __post_init__(self):
        if not (math.isfinite(self.total_cost) and self.total_cost > 0):
            raise ValueError(f"total_cost must be positive and finite, got {self.total_cost}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (math.isfinite(self.converge_eps) and self.converge_eps >= 0):
            raise ValueError(f"converge_eps must be finite and >= 0, got {self.converge_eps}")
        if self.converge_window < 1:
            raise ValueError(f"converge_window must be >= 1, got {self.converge_window}")


@dataclass
class TraceRow:
    iteration: int
    phase: str  # "init" or "opt"
    x: np.ndarray
    z: float  # fidelity level
    y: np.ndarray | None
    cost: float
    cum_cost: float
    hypervolume: float
    ok: bool


@dataclass
class CampaignResult:
    problem_name: str
    optimizer: str
    seed: int
    pareto_x: np.ndarray
    pareto_y: np.ndarray
    trace: list[TraceRow]
    truncated: bool
    converged: bool
    model_params: list[GpParams] | None = None

    @property
    def total_cost(self) -> float:
        """The cost spent, the last row's ``cum_cost``."""
        return self.trace[-1].cum_cost if self.trace else 0.0


# Front sampling's direct search: uniform pool size, ascent starts per
# function, and projected Adam steps and step size in the unit box.
_POOL, _STARTS, _STEPS, _LR = 256, 16, 30, 0.02


def sample_pareto_fronts(models: list[CfGpModel], cfg: MesmoConfig, dim: int, seed) -> np.ndarray:
    """Per-objective maxima of S = ``cfg.n_front_samples`` sampled fronts, shape (S, k).

    Sample s draws one highest-fidelity function per objective, each with
    ``cfg.rff_features`` random Fourier features. The maximum of objective
    j over the exact front of those functions is the maximum of f_j over
    [0,1]^dim, since a maximizer of f_j is weakly Pareto-optimal, so each
    function is maximized on its own. Its values
    over ``_POOL`` uniform points, drawn from the sample's own spawned
    generator, and the 2**dim corners pick ``_STARTS`` starts; ``_maximize``
    climbs from them, all S*k functions at once. Each sample spawns one
    seed per model for its draws, then one for its pool, so the draws do
    not depend on the search's sizes.
    """
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=dim)))
    funcs, starts = [], []
    for _ in range(cfg.n_front_samples):
        sample = [sample_function(m, base.spawn(1)[0], n_features=cfg.rff_features) for m in models]
        pool = np.vstack([np.random.default_rng(base.spawn(1)[0]).random((_POOL, dim)), corners])
        for f in sample:
            top = np.argsort(-f(pool), kind="stable")[:_STARTS]
            funcs.append(f)
            starts.append(pool[top])
    return _maximize(funcs, np.stack(starts)).reshape(cfg.n_front_samples, len(models))


def _maximize(funcs: list[SampledFunction], starts: np.ndarray) -> np.ndarray:
    """Largest value of each sampled function over its starts (B, n, d) and
    the ends of projected Adam ascent from them, evaluated in float64.

    The ascent climbs the standardized draw s(x) = cos(x @ freqs + offset)
    @ weights, whose gradient is -freqs @ (weights * sin(x @ freqs +
    offset)), batched over the B functions. It takes the sines from
    ``gp.features32``, the float32 formula of ``SampledFunction.__call__``.

    The n starts and n ends of draw b are then scored with its cosines, and
    ``_screen_margin`` bounds |float32 value - float64 value| of draw b by
    E_b. A point more than 2 E_b below the draw's best float32 value is
    below that best point in float64 as well, so only the other points get
    a float64 value: the batched matmul over all n rows of every draw (a
    gathered one-row matmul would go to gemv, whose bits can differ from
    gemm's), then, on the kept rows only, the cosine, product and row sum.
    The maxima are bit-identical to scoring every point in float64. Per
    draw the screen kept a median of 41% of the points (19-53% from the
    10th to the 90th percentile) on three campaign-synth campaigns and 12%
    (3-28%) on three campaign-reram ones.
    """
    n_funcs, n = starts.shape[:2]
    freqs = np.stack([f.freqs for f in funcs])  # (B, d, m)
    offset = np.stack([f.offset for f in funcs])
    weights = np.stack([f.weights for f in funcs])
    freqs32 = np.stack([f.freqs32 for f in funcs])
    freqs32_t = freqs32.transpose(0, 2, 1).copy()
    offset32 = np.stack([f.offset32 for f in funcs])[:, None, :]
    weights32 = np.stack([f.weights32 for f in funcs])
    work = np.empty((n_funcs, n, freqs.shape[2]), dtype=np.float32)

    x = starts
    m1 = np.zeros_like(x)
    m2 = np.zeros_like(x)
    for t in range(1, _STEPS + 1):
        phi = features32(x, freqs32, offset32, np.sin, work)
        phi *= weights32[:, None, :]
        grad = -(phi @ freqs32_t).astype(float)
        m1 = 0.9 * m1 + 0.1 * grad
        m2 = 0.999 * m2 + 0.001 * grad * grad
        step = _LR * (m1 / (1.0 - 0.9**t)) / (np.sqrt(m2 / (1.0 - 0.999**t)) + 1e-8)
        x = np.clip(x + step, 0.0, 1.0)

    points = (starts, x)
    fast = [(features32(p, freqs32, offset32, np.cos, work) @ weights32[:, :, None])[..., 0] for p in points]
    floor = np.maximum(fast[0].max(axis=1), fast[1].max(axis=1))
    floor -= 2.0 * _screen_margin(freqs, offset, weights)
    best = np.full(n_funcs, -np.inf)
    for p, v32 in zip(points, fast):
        b, r = np.nonzero(v32 >= floor[:, None])
        phi = (p @ freqs)[b, r]
        phi += offset[b]
        np.cos(phi, out=phi)
        phi *= weights[b]
        exact = np.full((n_funcs, n), -np.inf)
        exact[b, r] = phi.sum(axis=-1)
        np.maximum(best, exact.max(axis=1), out=best)
    scale = np.array([f.y_std * f.feature_scale for f in funcs])
    return np.array([f.y_mean for f in funcs]) + scale * best


# Unit roundoffs of float32 and float64. _COS_ERR is four times the largest
# |np.cos(a) - cos(a)| over every float32 a with |a| < 2**16, 7.18e-8 at
# a = 3.9258246 (numpy 2.4 on x86-64 with AVX-512; float64 cos as
# reference), rounded up to 7.2e-8. Within _COS_REACH every float32
# argument of a screened draw stays in that measured range.
_U32, _U64 = 2.0**-24, 2.0**-53
_COS_ERR, _COS_REACH = 4 * 7.2e-8, 2.0**15


def _gamma(n: int, u: float) -> float:
    """Bound on the relative rounding of an n-term dot product at unit roundoff u."""
    return n * u / (1.0 - n * u)


def _screen_margin(freqs: np.ndarray, offset: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """E_b: a bound on |float32 - float64| standardized value of draw b
    anywhere in [0, 1]^d, from the draw's float64 fields (B, d, m), (B, m)
    and (B, m).

    Let u = 2**-24 and e = 2**-53, F_i = sum_k |freqs_ki| and W = sum_i
    |w_i|. Both values are compared with the exact sum_i w_i cos(theta_i),
    theta_i = (x - 1/2) . f_i + offset_i + f_i.sum() / 2, which equals the
    uncentred argument mod 2 pi.

    - float32 argument, to first order in u: rounding x - 1/2 and f_i gives
      u F_i, the d-term float32 product sum d u F_i / 2, the rounded
      centred offset 2 pi u, and the final float32 add u (F_i / 2 + 2 pi).
      Twice that sum, u ((d + 3) F_i + 8 pi), covers every higher-order
      term. Reducing the offset in float64 adds e (2 |offset_i| + (d + 1)
      F_i + 4 pi).
    - float32 cosine: _COS_ERR, plus e for the float64 reference it was
      measured against, while every argument is inside _COS_REACH; past
      it E_b is infinite and the draw is evaluated in float64 everywhere.
    - float32 weights and the m-term weighted sum: W (1 + _COS_ERR) (u +
      gamma_{m+1}), which also covers the screen's own float64 rounding.
    - float64 value: gamma_{d+1} (F_i + |offset_i|) for the argument, 2e
      for the cosine (within 1 ulp), and gamma_{m+2} W for the weighted
      sum.

    cos is 1-Lipschitz, so each argument bound enters weighted by |w_i|.
    """
    d, m = freqs.shape[1:]
    f = np.abs(freqs).sum(axis=1)
    o = np.abs(offset)
    w = np.abs(weights)
    arg32 = _U32 * ((d + 3) * f + 8.0 * np.pi) + _U64 * (2.0 * o + (d + 1) * f + 4.0 * np.pi)
    arg64 = _gamma(d + 1, _U64) * (f + o)
    per_feature = arg32 + arg64 + _COS_ERR + 3.0 * _U64
    total = (w * per_feature).sum(axis=1) + w.sum(axis=1) * (
        (1.0 + _COS_ERR) * (_U32 + _gamma(m + 1, _U32)) + _gamma(m + 2, _U64)
    )
    reach = 0.5 * f.max(axis=1) + 2.0 * np.pi
    return np.where(reach < _COS_REACH, total, np.inf)


_SIGMA_FLOOR = 1e-9


def _candidate_grid(models: list[CfGpModel], problem: MooProblem, pool: int, fidelity_levels: int, seed):
    """The (candidate, level) grid: the pool, the levels, their costs and
    each objective's posterior (mu, sigma), (pool, L) up to broadcasting."""
    candidates = np.random.default_rng(seed).random((pool, problem.dim))
    levels = fidelity_grid(fidelity_levels)
    posts = []
    for model, bearing in zip(models, problem.fidelity_mask):
        lv = levels if bearing else np.ones(1)
        mu, sigma = posterior(model, np.repeat(candidates, len(lv), axis=0), np.tile(lv, pool))
        posts.append((mu.reshape(pool, len(lv)), np.maximum(sigma, _SIGMA_FLOOR).reshape(pool, len(lv))))
    return candidates, levels, np.array([problem.cost(z) for z in levels]), posts


_PROBE, _MARGIN, _TINY, _GAMMA_LO = 64, 1e-9, 1e-300, -30.0  # derived in _mes_gain


def _mes_gain(front_maxima: np.ndarray, posts: list, costs: np.ndarray) -> np.ndarray:
    """Flat indices candidate * L + level of the grid pairs with the largest
    alpha, from the (S, k) front maxima, ``_candidate_grid``'s posteriors
    and the L level costs.

    Only the pairs that can win are scored in full. ``entropy_term`` is
    non-increasing, so with gamma_min_j = (min_s f*_sj - mu_j) / sigma_j
    the bound U(x, l) = sum_j h(gamma_min_j) / C_l is at least alpha(x, l).
    Alpha is computed exactly for the ``_PROBE`` = 64 pairs with the
    largest U, the best of which is alpha_0, and then for every pair with
    U >= (1 - _MARGIN) * alpha_0 - _TINY, with _MARGIN = 1e-9 and _TINY =
    1e-300. For gamma >= _GAMMA_LO = -30 ``entropy_term`` is within 2.5e-11
    of h relatively while h is a normal float, so the relative margin
    covers its rounding and that of the sums, and the absolute one covers
    subnormal values and an alpha_0 of 0. Below -30 its error grows past
    the margin (1.7e-10 at -100), so U is infinite for a pair with any
    gamma_min_j < -30. A pair below the line has alpha < alpha_0: it can
    neither win nor tie, and the result is the full grid's. Exact alpha
    keeps the full grid's arithmetic and order: a row sum over s per
    objective, accumulated over j from zero, divided by C_l * S.
    """
    pool, n_l = len(posts[0][0]), len(costs)
    bound = np.zeros((pool, n_l))
    for fm, (mu, sigma) in zip(front_maxima.T, posts):
        g_min = (fm.min() - mu) / sigma
        bound += np.where(g_min < _GAMMA_LO, np.inf, entropy_term(g_min))
    bound = (bound / costs).ravel()

    def exact(flat):
        """Alpha at flat grid indices."""
        cand, lvl = np.divmod(flat, n_l)
        gains = np.zeros(len(flat))
        for fm, post in zip(front_maxima.T, posts):
            mu, sigma = (np.broadcast_to(a, (pool, n_l))[cand, lvl][:, None] for a in post)
            gains += entropy_term((fm[None, :] - mu) / sigma).sum(axis=1)
        return gains / (costs[lvl] * len(front_maxima))

    probe = np.argpartition(bound, -_PROBE)[-_PROBE:] if len(bound) > _PROBE else np.arange(len(bound))
    live = np.flatnonzero(bound >= (1.0 - _MARGIN) * exact(probe).max() - _TINY)
    alpha = exact(live)
    return live[alpha == alpha.max()]


def select_next(
    models: list[CfGpModel], front_maxima: np.ndarray, problem: MooProblem, cfg: MesmoConfig, seed
) -> tuple[np.ndarray, float]:
    """Arg-max of the acquisition over a candidate pool x fidelity grid:
    the picked design and its fidelity level.

    ``front_maxima`` is the (S, k) output of ``sample_pareto_fronts``: it
    must be finite, with S >= 1 and k == len(models) == problem.n_obj.
    ``_candidate_grid`` draws the pool ``default_rng(seed).random((pool,
    dim))``, pool = ``cfg.pool_size``, and takes the levels
    ``fidelity_grid(cfg.fidelity_levels)`` with their ``problem.cost``;
    one level is the MESMO baseline. Its posterior pass evaluates a
    fidelity-bearing objective once per (candidate, level), shape
    (pool, L), and any other once per candidate, at 1, shape (pool, 1).
    ``_mes_gain`` returns the pairs with the largest alpha and states the
    bound that spares it scoring the rest. Exact ties go to the cheaper
    pair, then to the lower (candidate, level) index.
    """
    front_maxima = np.asarray(front_maxima, dtype=float)
    k = problem.n_obj
    if len(models) != k or front_maxima.ndim != 2 or front_maxima.shape[1] != k:
        raise ValueError(
            f"front_maxima must be (S, {k}) for {len(models)} models of a {k}-objective "
            f"problem, got shape {front_maxima.shape}"
        )
    if len(front_maxima) < 1 or not np.isfinite(front_maxima).all():
        raise ValueError("front_maxima must hold at least one sample, all finite")
    candidates, levels, costs, posts = _candidate_grid(models, problem, cfg.pool_size, cfg.fidelity_levels, seed)
    cand, lvl = np.divmod(_mes_gain(front_maxima, posts, costs), len(levels))
    pick = np.lexsort((lvl, cand, costs[lvl]))[0]
    return candidates[cand[pick]], float(levels[lvl[pick]])


def _fit_models(problem: MooProblem, rows: list[TraceRow], gp: GpConfig, warm, optimize: bool):
    x = np.asarray([r.x for r in rows])
    z = problem.fidelity_vector(np.asarray([r.z for r in rows])[:, None])
    y = np.asarray([r.y for r in rows])
    return [
        fit(x, z[:, j], y[:, j], config=gp, init_params=warm[j] if warm else None, optimize=optimize)
        for j in range(y.shape[1])
    ]


def nsga2_plan(problem: MooProblem, budget: Budget, pop: int) -> tuple[int, int]:
    """The (evaluations at z=1, generations) that the budget buys NSGA-II.

    Below two populations' worth it buys 0 generations: random search.
    """
    evals = int(budget.total_cost // problem.cost(1.0))
    return evals, 0 if evals < 2 * pop else evals // pop - 1


def _run_nsga2(problem: MooProblem, budget: Budget, seed: int, cfg: Nsga2Config) -> CampaignResult:
    """Outer NSGA-II baseline: generations sized to the evaluation budget.

    Every individual is evaluated at z=1 and recorded in evaluation order,
    so hypervolume-vs-cost curves are comparable with the other
    optimizers. A diverged evaluation enters selection at the reference
    point. ``nsga2_plan`` sizes the run. When it buys no generation, the
    initial population holds every evaluation the budget buys, so the
    budget is spent in full on random search.
    """
    max_evals, gens = nsga2_plan(problem, budget, cfg.pop)
    ledger = _Ledger(problem, seed)

    def evaluate(x: np.ndarray) -> np.ndarray:
        y = ledger.evaluate(x, 1.0, _TAG_NSGA_EVAL, len(ledger.trace), "opt")
        return problem.hv_ref if y is None else y

    if max_evals > 0:
        nsga2(
            lambda batch: np.stack([evaluate(row) for row in np.atleast_2d(batch)]),
            problem.dim,
            seed=seed,
            config=cfg if gens else replace(cfg, pop=max_evals),
            gens=gens,
        )
    return ledger.result("nsga2", truncated=max_evals == 0, converged=False)


class _Ledger:
    """One campaign's evaluations in order. The trace is the only record:
    the running cost is the last row's, the GP history is the ok rows, and
    the hypervolume and front come from the ok rows at level 1."""

    def __init__(self, problem: MooProblem, seed: int):
        self.problem = problem
        self.seed = seed
        self.trace: list[TraceRow] = []

    @property
    def cost(self) -> float:
        return self.trace[-1].cum_cost if self.trace else 0.0

    def ok_rows(self, top: bool = False) -> list[TraceRow]:
        """The rows with a result in order; with ``top``, those at level 1."""
        return [r for r in self.trace if r.ok and (r.z >= 1.0 or not top)]

    def evaluate(self, x, z: float, tag: int, index: int, phase: str) -> np.ndarray | None:
        """Evaluate design x at fidelity level z on substream (seed, tag,
        index) and append its row.

        Diverged training is recorded as a failed row and returns None;
        any other exception from the problem propagates.
        """
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, tag, index]))
        cost = self.problem.cost(z)
        try:
            y = np.asarray(self.problem.evaluate(x, self.problem.fidelity_vector(z), rng), dtype=float)
        except TrainingDivergedError:
            y = None
        x = np.asarray(x, dtype=float)
        row = TraceRow(len(self.trace), phase, x, float(z), y, cost, self.cost + cost, 0.0, ok=y is not None)
        self.trace.append(row)
        top = self.ok_rows(top=True)
        if top:
            row.hypervolume = dominated_hypervolume(np.asarray([r.y for r in top]), self.problem.hv_ref)
        return y

    def result(self, optimizer: str, truncated: bool, converged: bool, model_params=None) -> CampaignResult:
        top = self.ok_rows(top=True)
        x = np.reshape([r.x for r in top], (-1, self.problem.dim))
        pareto_x, pareto_y = pareto_front(x, np.reshape([r.y for r in top], (-1, self.problem.n_obj)))
        return CampaignResult(
            problem_name=self.problem.name, optimizer=optimizer, seed=self.seed, pareto_x=pareto_x, pareto_y=pareto_y,
            trace=self.trace, truncated=truncated, converged=converged, model_params=model_params,
        )


def search(
    problem: MooProblem,
    budget: Budget,
    seed: int,
    optimizer: str,
    cfg: MesmoConfig,
    gp: GpConfig,
    operators: Nsga2Config,
) -> CampaignResult:
    """One campaign of ``optimizer`` on ``problem`` from ``seed``.

    ``optimizer`` is one of ``OPTIMIZERS``. ``cf-mesmo`` picks (design,
    fidelity) pairs by entropy gain per unit cost; ``mesmo`` runs the same
    loop with ``cfg`` at ``fidelity_levels=1``; ``random`` draws uniform
    designs at z=1; ``nsga2`` runs the outer NSGA-II baseline with the
    ``operators``. ``cfg`` and ``gp`` drive the surrogate loop.
    """
    if optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {optimizer!r}")
    if optimizer == "nsga2":
        return _run_nsga2(problem, budget, seed, operators)
    if optimizer == "mesmo":
        cfg = replace(cfg, fidelity_levels=1)
    ledger = _Ledger(problem, seed)
    init_rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_INIT]))
    for i in range(cfg.n_init):
        ledger.evaluate(init_rng.random(problem.dim), 1.0, _TAG_INIT, i, "init")

    truncated = ledger.cost > budget.total_cost
    converged = False
    warm = None  # latest GP hyperparameters, reported with the result
    sel_rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_POOL]))
    t = 0
    while ledger.cost <= budget.total_cost and t < budget.max_iterations and not converged:
        if optimizer == "random":
            x, z = sel_rng.random(problem.dim), 1.0
        elif len(ledger.ok_rows()) < 2:
            break
        else:
            optimize_hypers = warm is None or (t % cfg.gp_refit_every == 0)
            models = _fit_models(problem, ledger.ok_rows(), gp, warm, optimize_hypers)
            warm = [m.params for m in models]
            front_maxima = sample_pareto_fronts(
                models, cfg, problem.dim, np.random.SeedSequence([seed, _TAG_FRONT, t])
            )
            x, z = select_next(models, front_maxima, problem, cfg, np.random.SeedSequence([seed, _TAG_POOL, t]))
        ledger.evaluate(x, z, _TAG_EVAL, t, "opt")
        if z >= 1.0:
            converged = _has_converged(ledger.trace, budget)
        t += 1
    return ledger.result(optimizer, truncated, converged, model_params=warm)


def _has_converged(trace: list[TraceRow], budget: Budget) -> bool:
    """Whether the hypervolume of the last converge_window + 1 level-1 opt
    rows, failed ones included, moved by under converge_eps at each step.
    Cheap evaluations, which cannot move the front, are not stagnation."""
    series = [r.hypervolume for r in trace if r.phase == "opt" and r.z >= 1.0]
    w = budget.converge_window
    if len(series) < w + 1:
        return False
    recent = series[-(w + 1) :]
    if recent[-1] <= 0.0:  # an empty dominated region has not converged, it has not started
        return False
    return all(abs(cur - prev) / max(abs(prev), 1e-12) < budget.converge_eps for prev, cur in zip(recent, recent[1:]))
