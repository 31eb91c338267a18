import dataclasses
import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from reramopt import mesmo
from reramopt.config import build_problem, load_config
from reramopt.design_space import fidelity_grid
from reramopt.gp import GpConfig, GpParams, SampledFunction, fit, sample_function
from reramopt.mesmo import (
    Budget,
    MesmoConfig,
    entropy_term,
    sample_pareto_fronts,
    search,
    select_next,
)
from reramopt.objectives import synthetic_cf_problem
from reramopt.pareto import Nsga2Config, dominated_hypervolume, pareto_front
from reramopt.resna import TrainingDivergedError

SMALL = MesmoConfig(n_front_samples=2, pool_size=32, n_init=3, rff_features=30)
MESMO, GP, OPERATORS = MesmoConfig(), GpConfig(), Nsga2Config()


def test_entropy_term_is_the_truncated_gaussian_entropy_gap():
    from scipy.stats import norm, truncnorm

    assert entropy_term(0.0) == pytest.approx(np.log(2.0), rel=1e-15)
    values = entropy_term(np.linspace(-40.0, 10.0, 2001))
    assert np.isfinite(values).all() and (values >= 0.0).all()
    assert (np.diff(values) <= 0.0).all()
    # truncnorm(-inf, gamma) gives NaN; a lower bound at -30 sd cuts nothing.
    gamma = np.linspace(-5.0, 5.0, 201)
    gap = norm().entropy() - truncnorm(-30.0, gamma).entropy()
    np.testing.assert_allclose(entropy_term(gamma), gap, rtol=0.0, atol=1e-9)


def test_one_fidelity_level_evaluates_at_the_top():
    problem = synthetic_cf_problem("branin-currin-cf")
    cfg = dataclasses.replace(SMALL, fidelity_levels=1)
    result = search(problem, Budget(total_cost=100.0, max_iterations=3), 0, "cf-mesmo", cfg, GP, OPERATORS)
    opt = [row for row in result.trace if row.phase == "opt"]
    assert len(opt) == 3
    assert all(row.z == 1.0 for row in opt)


def test_zero_refit_cadence_is_rejected_before_the_campaign_runs():
    # Unchecked, this cadence divided by zero at the second iteration.
    with pytest.raises(ValueError, match="gp_refit_every must be >= 1, got 0"):
        search(
            synthetic_cf_problem("branin-currin-cf"),
            Budget(max_iterations=3),
            0,
            "cf-mesmo",
            MesmoConfig(gp_refit_every=0, pool_size=50, n_front_samples=2, rff_features=50),
            GP,
            OPERATORS,
        )


def test_unknown_optimizer_is_rejected():
    with pytest.raises(ValueError, match="^unknown optimizer 'bogus'$"):
        search(synthetic_cf_problem("branin-currin-cf"), Budget(), 0, "bogus", MESMO, GP, OPERATORS)


def _failing(problem, exc_at: int, exc: Exception):
    calls = []

    def evaluate(x, z, rng):
        calls.append(1)
        if len(calls) == exc_at:
            raise exc
        return problem.evaluate(x, z, rng)

    return dataclasses.replace(problem, evaluate=evaluate)


def test_bug_in_evaluate_propagates():
    problem = _failing(synthetic_cf_problem("branin-currin-cf"), 2, ValueError("bug"))
    with pytest.raises(ValueError, match="bug"):
        search(problem, Budget(total_cost=100.0, max_iterations=3), 0, "random", SMALL, GP, OPERATORS)


def test_diverged_training_records_a_failed_row():
    problem = _failing(synthetic_cf_problem("branin-currin-cf"), 2, TrainingDivergedError(4))
    result = search(problem, Budget(total_cost=100.0, max_iterations=3), 0, "random", SMALL, GP, OPERATORS)
    assert [row.ok for row in result.trace] == [True, False, True, True, True, True]
    failed = result.trace[1]
    assert failed.y is None and failed.cost == 2.0 and failed.cum_cost == 4.0
    assert result.total_cost == 12.0


def test_flat_zero_hypervolume_is_not_convergence():
    # The first 16 random designs all fall outside the reference box; a run
    # that stopped there would report converged with nothing found.
    result = search(synthetic_cf_problem("branin-currin-cf"), Budget(), 0, "random", MESMO, GP, OPERATORS)
    assert len(result.trace) == 27 and result.total_cost == 54.0
    assert result.trace[-1].hypervolume == pytest.approx(3.607, abs=1e-3)
    assert result.converged


@pytest.mark.parametrize(
    "optimizer,diverge_at",
    [("cf-mesmo", None), ("mesmo", None), ("random", None), ("nsga2", None), ("cf-mesmo", 2), ("random", 5)],
)
def test_campaign_invariants_hold_on_the_trace(optimizer, diverge_at):
    # Read from the trace alone: each row's hypervolume is that of the ok
    # level-1 rows up to and including it, cum_cost is the running sum of
    # cost, and the front is the pareto_front of the ok level-1 rows. The
    # reference lies below every objective value in the box, so every ok
    # level-1 row counts and the hypervolume moves within a short budget.
    problem = dataclasses.replace(synthetic_cf_problem("branin-currin-cf"), hv_ref=np.array([-400.0, -20.0]))
    if diverge_at is not None:
        problem = _failing(problem, diverge_at, TrainingDivergedError(0))
    budget = Budget(total_cost=24.0, max_iterations=6)
    result = search(problem, budget, 0, optimizer, SMALL, GP, Nsga2Config(pop=4))
    trace = result.trace
    assert any(row.phase == "opt" for row in trace)
    assert all(row.ok for row in trace) == (diverge_at is None)
    spent = 0.0
    for i, row in enumerate(trace):
        top = [r.y for r in trace[: i + 1] if r.ok and r.z >= 1.0]
        assert row.hypervolume == (dominated_hypervolume(np.stack(top), problem.hv_ref) if top else 0.0)
        spent += row.cost
        assert row.cum_cost == spent
    assert result.total_cost == trace[-1].cum_cost
    assert 0.0 < trace[0].hypervolume < trace[-1].hypervolume
    top = [r for r in trace if r.ok and r.z >= 1.0]
    front_x, front_y = pareto_front(np.stack([r.x for r in top]), np.stack([r.y for r in top]))
    np.testing.assert_array_equal(result.pareto_x, front_x)
    np.testing.assert_array_equal(result.pareto_y, front_y)
    assert dominated_hypervolume(result.pareto_y, problem.hv_ref) == trace[-1].hypervolume


def _seeded_models(seed: int, cfg: MesmoConfig = MesmoConfig(), problem=None):
    """Surrogates of ``problem`` (branin-currin-cf by default) fitted to 15
    seeded points: 5 at z* and 10 at levels drawn from the default fidelity
    grid."""
    problem = problem or synthetic_cf_problem("branin-currin-cf")
    rng = np.random.default_rng(seed)
    x = rng.random((15, problem.dim))
    levels = np.concatenate([np.ones(5), rng.choice(fidelity_grid(cfg.fidelity_levels), 10)])
    z = problem.fidelity_vector(levels[:, None])
    y = np.stack([problem.evaluate(xi, zi, rng) for xi, zi in zip(x, z)])
    models = [fit(x, z[:, j], y[:, j], GP) for j in range(problem.n_obj)]
    return problem, models


# The 4-objective, 4-D ReRAM problem with the golden config's small ReSNA.
def _reram_problem():
    return build_problem(load_config(str(Path(__file__).parent / "golden" / "configs" / "reram.yaml")))


# sha256 of the freqs, offset and weights bytes of the six functions that
# sample_pareto_fronts draws for 3 samples at seed 5 on _seeded_models(0).
DRAWS_DIGEST = "9617230fe8734276403fc2da76047396f213966bcb591e2b40327e2d59d10b2d"


# select_next's pick after sample_pareto_fronts at the default MesmoConfig,
# recorded with float64 feature cosines. A change that is meant to leave
# front sampling's decisions alone must keep every pick.
PINNED_PICKS = {
    0: ((0.988563790381297, 0.990876755717729), (0.0, 0.0)),
    1: ((0.9991993182784583, 0.9536333395616265), (0.0, 0.0)),
    2: ((0.6497514339141913, 0.0038446159329970087), (0.0, 0.0)),
    3: ((0.0014900835088361708, 0.9734602747664127), (0.6666666666666666, 0.6666666666666666)),
    4: ((0.9974739489908547, 0.9950166704823218), (0.0, 0.0)),
    5: ((0.010825641615620052, 0.9747673216320109), (0.0, 0.0)),
}


@pytest.mark.parametrize("seed", sorted(PINNED_PICKS))
def test_default_pick_is_pinned(seed):
    cfg = MesmoConfig()
    problem, models = _seeded_models(seed, cfg)
    maxima = sample_pareto_fronts(models, cfg, problem.dim, seed)
    x, z = select_next(models, maxima, problem, cfg, seed)
    assert (tuple(x), tuple(problem.fidelity_vector(z))) == PINNED_PICKS[seed]


def _full_grid_pick(models, front_maxima, problem, cfg, seed):
    """select_next's pick by scoring every (candidate, level) pair: the
    oracle for its bound-pruned search."""
    pool = cfg.pool_size
    candidates = np.random.default_rng(seed).random((pool, problem.dim))
    levels = fidelity_grid(cfg.fidelity_levels)
    z_grid = problem.fidelity_vector(levels[:, None])
    grid_costs = np.array([problem.cost(z) for z in levels])
    gains = np.zeros((pool, len(levels)))
    for j, model in enumerate(models):
        lv = np.unique(z_grid[:, j])
        mu, sigma = mesmo.posterior(model, np.repeat(candidates, len(lv), axis=0), np.tile(lv, pool))
        sigma = np.maximum(sigma, mesmo._SIGMA_FLOOR)
        gamma = (front_maxima[None, :, j] - mu[:, None]) / sigma[:, None]
        terms = entropy_term(gamma).sum(axis=1).reshape(pool, len(lv))
        gains += terms[:, np.searchsorted(lv, z_grid[:, j])]
    alpha = gains / (grid_costs[None, :] * len(front_maxima))
    tied = np.argwhere(alpha == alpha.max())
    pick, level = tied[np.lexsort((tied[:, 1], tied[:, 0], grid_costs[tied[:, 1]]))[0]]
    return candidates[pick], float(levels[level])


def _model_sets(seeds=range(10)):
    """Seeded model sets on each of branin-currin-cf, zdt1 and the ReRAM shape."""
    shapes = [synthetic_cf_problem("branin-currin-cf"), synthetic_cf_problem("zdt1"), _reram_problem()]
    for problem in shapes:
        for seed in seeds:
            yield seed, *_seeded_models(seed, problem=problem)


def _same_pick(a, b):
    return (a[0].tobytes(), a[1]) == (b[0].tobytes(), b[1])


# The 30 model sets, with sampled maxima and with maxima lowered by one
# prior sd, which puts some pairs' gamma below the bound's trusted range.
def test_pruned_pick_equals_the_full_grid():
    for seed, problem, models in _model_sets():
        prior_sd = np.array([m.y_std * np.sqrt(m.params.signal_var) for m in models])
        for n_s in (1, 3, 10):
            front_cfg = MesmoConfig(n_front_samples=n_s, rff_features=100)
            sampled = sample_pareto_fronts(models, front_cfg, problem.dim, seed)
            for maxima, pool, levels in itertools.product(
                (sampled, sampled - prior_sd), (1, 50), (10, 1)
            ):
                args = (models, maxima, problem, MesmoConfig(pool_size=pool, fidelity_levels=levels), seed)
                assert _same_pick(select_next(*args), _full_grid_pick(*args)), (seed, n_s, pool, levels)


@pytest.mark.parametrize("single", [False, True])
def test_pruned_pick_equals_the_full_grid_at_the_default_pool(single):
    for seed, problem, models in _model_sets(seeds=(0, 5)):
        maxima = sample_pareto_fronts(models, MesmoConfig(n_front_samples=10, rff_features=100), problem.dim, seed)
        args = (models, maxima, problem, MesmoConfig(pool_size=2000, fidelity_levels=1 if single else 10), seed)
        assert _same_pick(select_next(*args), _full_grid_pick(*args)), seed


@pytest.mark.parametrize("single,falling", [(False, False), (True, False), (False, True)])
def test_all_zero_gains_tie_on_cost_then_index(single, falling):
    # Maxima 1e3 posterior sd above every mean: every gain underflows to 0,
    # so every pair ties and the cheapest level of candidate 0 wins. With
    # costs that fall with fidelity, that level is the top one.
    problem, models = _seeded_models(3)
    if falling:
        problem = dataclasses.replace(problem, fidelity_cost=lambda z: 2.0 - z)
    candidates = np.random.default_rng(3).random((50, problem.dim))
    maxima = []
    for model in models:
        mu, sigma = mesmo.posterior(model, np.repeat(candidates, 10, axis=0), np.tile(fidelity_grid(10), 50))
        maxima.append(np.max(mu + 1e3 * np.maximum(sigma, 1e-9)))
    maxima = np.tile(maxima, (3, 1))
    cfg = MesmoConfig(pool_size=50, fidelity_levels=1 if single else 10)
    x, z = select_next(models, maxima, problem, cfg, 3)
    assert _same_pick((x, z), _full_grid_pick(models, maxima, problem, cfg, 3))
    assert x.tobytes() == candidates[0].tobytes()
    assert z == (1.0 if single or falling else 0.0)


@pytest.mark.parametrize("shape", ["branin-currin-cf", "reram"])
def test_pick_is_a_python_float_level_of_the_grid(shape):
    problem, models = _seeded_models(1, problem=_reram_problem() if shape == "reram" else None)
    maxima = sample_pareto_fronts(models, MesmoConfig(n_front_samples=3, rff_features=50), problem.dim, 1)
    for levels in (1, 4, 10):
        _, z = select_next(models, maxima, problem, MesmoConfig(pool_size=50, fidelity_levels=levels), 1)
        assert type(z) is float and z in fidelity_grid(levels)


def test_reram_hardware_models_are_fitted_at_the_top_fidelity(monkeypatch):
    # Only the accuracy bears fidelity: the area, latency and energy models
    # see z = 1 in every row, also after the campaign picks a cheaper level.
    cfg = load_config(str(Path(__file__).parent / "golden" / "configs" / "reram.yaml"))
    fitted = []

    def recording(x, z, y, **kwargs):
        fitted.append(np.array(z))
        return fit(x, z, y, **kwargs)

    monkeypatch.setattr(mesmo, "fit", recording)
    search(build_problem(cfg), cfg.budget, 0, "cf-mesmo", cfg.mesmo, cfg.gp, cfg.nsga2)
    assert len(fitted) == 4 * cfg.budget.max_iterations
    accuracy, hardware = fitted[0::4], [z for i, z in enumerate(fitted) if i % 4]
    assert any((z < 1.0).any() for z in accuracy)
    assert all((z == 1.0).all() for z in hardware)


def test_pairs_below_the_trusted_gamma_range_are_always_scored(monkeypatch):
    # entropy_term is not monotone far below zero: between these two gammas
    # near -1000 it rises by 1e-5 of itself. Pair A (candidate 0) has both
    # on objective 0, so its bound, taken at the lower one, falls short of
    # its exact value. Pair B's exact value is set between the two, so a
    # bound trusted there would drop A and pick B.
    from scipy.optimize import brentq

    lo, hi = -999.999998049, -999.999998048
    h_lo, h_hi = entropy_term(lo), entropy_term(hi)
    assert h_hi > h_lo * (1.0 + 1e-6)
    b_rest = entropy_term(-30.0) + entropy_term(-30.0 + (hi - lo))
    t = brentq(lambda g: b_rest + 2.0 * entropy_term(g) - (1.5 * h_lo + 0.5 * h_hi), -30.0, 8.0)
    table = {  # (mu, sigma) of candidates A and B per objective
        "f0": (np.array([0.0, lo + 30.0]), np.ones(2)),
        "f1": (np.array([-1000.0, -t]), np.ones(2)),
    }
    monkeypatch.setattr(mesmo, "posterior", lambda model, x, z: table[model])
    problem = synthetic_cf_problem("branin-currin-cf")
    cfg = MesmoConfig(pool_size=2, fidelity_levels=1)
    args = (["f0", "f1"], np.array([[lo, 0.0], [hi, 0.0]]), problem, cfg, 0)
    pick = select_next(*args)
    assert _same_pick(pick, _full_grid_pick(*args))
    assert pick[0].tobytes() == np.random.default_rng(0).random((2, 2))[0].tobytes()


def test_pruned_search_scores_a_fraction_of_the_grid(monkeypatch):
    # The full grid hands entropy_term pool * levels * S * k = 400,000
    # gammas at the defaults; the bound takes a tenth of that.
    problem, models = _seeded_models(0)
    maxima = sample_pareto_fronts(models, MesmoConfig(n_front_samples=10, rff_features=100), problem.dim, 0)
    sizes = []
    monkeypatch.setattr(mesmo, "entropy_term", lambda g: sizes.append(np.size(g)) or entropy_term(g))
    select_next(models, maxima, problem, MesmoConfig(), 0)
    assert sizes[:2] == [20_000, 20_000] and sum(sizes) < 60_000


def test_reram_posterior_pass_evaluates_only_accuracy_per_level(monkeypatch):
    # Only the accuracy bears fidelity: its posterior is evaluated at every
    # (candidate, level), and each hardware model's once per candidate, at 1.
    problem, models = _seeded_models(0, problem=_reram_problem())
    calls, posterior = [], mesmo.posterior
    monkeypatch.setattr(mesmo, "posterior", lambda m, x, z: calls.append((len(x), z)) or posterior(m, x, z))
    select_next(models, np.zeros((2, problem.n_obj)), problem, MesmoConfig(), 0)
    pool, levels = MesmoConfig().pool_size, fidelity_grid(MesmoConfig().fidelity_levels)
    assert [n for n, _ in calls] == [pool * len(levels), pool, pool, pool]
    np.testing.assert_array_equal(calls[0][1], np.tile(levels, pool))
    assert all((z == 1.0).all() for _, z in calls[1:])


@pytest.mark.parametrize(
    "maxima,n_models,match",
    [
        (np.array([[1.0, np.nan]]), 2, "all finite"),
        (np.array([[1.0, np.inf], [0.0, 0.0]]), 2, "all finite"),
        (np.empty((0, 2)), 2, "at least one sample"),
        (np.ones((2, 3)), 2, r"must be \(S, 2\) for 2 models"),
        (np.ones(2), 2, r"must be \(S, 2\)"),
        (np.ones((2, 2)), 1, r"for 1 models of a 2-objective problem"),
    ],
)
def test_bad_front_maxima_are_rejected(maxima, n_models, match):
    problem, models = _seeded_models(0)
    with pytest.raises(ValueError, match=match):
        select_next(models[:n_models], maxima, problem, MesmoConfig(pool_size=8), 0)


def _float64_call(self, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    phi = self.feature_scale * np.cos(x @ self.freqs + self.offset)
    return self.y_mean + self.y_std * (phi @ self.weights)


def _front_maxima_shift_in_se(monkeypatch, problem, models, seed, cfg=MesmoConfig(), n_s=24):
    """Shift of the mean sampled front maxima, float32 draws against the
    float64 formula on the same draws, in units of its Monte-Carlo s.e."""

    def maxima():
        return sample_pareto_fronts(models, dataclasses.replace(cfg, n_front_samples=n_s), problem.dim, seed)

    fast = maxima()
    monkeypatch.setattr(SampledFunction, "__call__", _float64_call)
    exact = maxima()
    se = exact.std(axis=0, ddof=1) / np.sqrt(n_s)
    assert np.all(se > 0)
    return np.abs(fast.mean(axis=0) - exact.mean(axis=0)) / se


# Same draws, same pools: only the precision of the sampled functions
# differs, so the sampled maxima may move by far less than their own
# Monte-Carlo error. The reference evaluates the float64 fields that define
# each draw, never its float32 copies.
@pytest.mark.slow
def test_front_maxima_match_float64_features(monkeypatch):
    problem, models = _seeded_models(7)
    assert np.all(_front_maxima_shift_in_se(monkeypatch, problem, models, 7) <= 0.1)


@pytest.mark.slow
def test_reram_front_maxima_match_float64_features(monkeypatch):
    # The 4-objective, 4-D shape of the ReRAM campaign, under the same bound:
    # only the choice of ascent starts reads the float32 values.
    problem, models = _seeded_models(7, problem=_reram_problem())
    assert problem.n_obj == 4 and problem.dim == 4
    assert np.all(_front_maxima_shift_in_se(monkeypatch, problem, models, 7) <= 0.1)


def _recorded_draws(monkeypatch, models, n_samples, dim, seed):
    """sample_pareto_fronts' maxima and the functions it drew, in order."""
    drawn = []

    def recording(*args, **kwargs):
        drawn.append(sample_function(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(mesmo, "sample_function", recording)
    maxima = sample_pareto_fronts(models, MesmoConfig(n_front_samples=n_samples), dim, seed)
    monkeypatch.undo()
    return maxima, drawn


def test_front_sampling_draws_are_pinned(monkeypatch):
    # Recorded when an inner NSGA-II solved the sampled fronts; the direct
    # search that replaced it keeps every draw.
    problem, models = _seeded_models(0)
    _, drawn = _recorded_draws(monkeypatch, models, 3, problem.dim, 5)
    assert len(drawn) == 6
    data = b"".join(f.freqs.tobytes() + f.offset.tobytes() + f.weights.tobytes() for f in drawn)
    assert hashlib.sha256(data).hexdigest() == DRAWS_DIGEST


def _unscreened_maximize(funcs, starts):
    """_maximize before its float32 screen: the same ascent, then every start
    and end evaluated in float64. The oracle for the screened maxima."""
    freqs = np.stack([f.freqs for f in funcs])
    offset = np.stack([f.offset for f in funcs])[:, None, :]
    weights = np.stack([f.weights for f in funcs])[:, None, :]
    freqs32 = np.stack([f.freqs32 for f in funcs])
    freqs32_t = freqs32.transpose(0, 2, 1).copy()
    offset32 = np.stack([f.offset32 for f in funcs])[:, None, :]
    weights32 = np.stack([f.weights32 for f in funcs])[:, None, :]

    def standardized(x):
        return (np.cos(x @ freqs + offset) * weights).sum(axis=-1)

    x = starts
    m1 = np.zeros_like(x)
    m2 = np.zeros_like(x)
    for t in range(1, mesmo._STEPS + 1):
        phi = (x - 0.5).astype(np.float32) @ freqs32
        phi += offset32
        np.sin(phi, out=phi)
        phi *= weights32
        grad = -(phi @ freqs32_t).astype(float)
        m1 = 0.9 * m1 + 0.1 * grad
        m2 = 0.999 * m2 + 0.001 * grad * grad
        step = mesmo._LR * (m1 / (1.0 - 0.9**t)) / (np.sqrt(m2 / (1.0 - 0.999**t)) + 1e-8)
        x = np.clip(x + step, 0.0, 1.0)
    best = np.maximum(standardized(starts), standardized(x)).max(axis=1)
    scale = np.array([f.y_std * f.feature_scale for f in funcs])
    return np.array([f.y_mean for f in funcs]) + scale * best


def _maximize_inputs(monkeypatch, models, n_samples, dim, seed):
    """The draws and starts that sample_pareto_fronts hands _maximize."""
    seen = []
    real = mesmo._maximize
    monkeypatch.setattr(mesmo, "_maximize", lambda funcs, starts: seen.append((funcs, starts)) or real(funcs, starts))
    sample_pareto_fronts(models, MesmoConfig(n_front_samples=n_samples), dim, seed)
    monkeypatch.undo()
    return seen[0]


def test_screened_maxima_equal_the_float64_evaluation_of_every_point(monkeypatch):
    for seed, problem, models in _model_sets():
        funcs, starts = _maximize_inputs(monkeypatch, models, 10, problem.dim, seed)
        assert mesmo._maximize(funcs, starts).tobytes() == _unscreened_maximize(funcs, starts).tobytes(), (
            problem.name,
            seed,
        )


def _draw(freqs, offset, weights):
    """A hand-made standardized draw: y_mean 0, y_std and feature_scale 1."""
    return SampledFunction(
        freqs=np.array(freqs, dtype=float),
        offset=np.array(offset, dtype=float),
        weights=np.array(weights, dtype=float),
        feature_scale=1.0,
        y_mean=0.0,
        y_std=1.0,
    )


def _values32(f, x):
    """The standardized draw at points x (n, d) by the screen's float32 formula."""
    phi = (x - 0.5).astype(np.float32) @ f.freqs32 + f.offset32
    return (np.cos(phi) @ f.weights32).astype(float)


def _values64(f, x):
    return np.cos(x @ f.freqs + f.offset) @ f.weights


def _margin(f):
    return mesmo._screen_margin(f.freqs[None], f.offset[None], f.weights[None])[0]


def test_screen_keeps_a_near_tied_maximum_that_float32_misorders():
    # s(x) = -cos(2x - 1) + 1e-12 sin(x - 1/2): the first term ties x = 0 and
    # x = 1, the ascent stays at both, and x = 1 wins by 1e-12. Moving the
    # first feature's float32 centred offset by -2.4e-6 raises the float32
    # value at 0 and lowers it at 1 by 2.0e-6 each, about 0.8 E_b: inside
    # the bound, yet more than E_b apart in all, so a screen at E_b rather
    # than 2 E_b would drop x = 1.
    f = _draw([[2.0, 1.0]], [-1.0, -0.5 - np.pi / 2], [-1.0, 1e-12])
    object.__setattr__(f, "offset32", f.offset32 + np.float32([-2.4e-6, 0.0]))
    x = np.array([[0.0], [1.0]])
    v32, v64 = _values32(f, x), _values64(f, x)
    assert v64[1] - v64[0] > 5e-13
    assert np.all(np.abs(v32 - v64) < _margin(f))
    assert v32[0] - v32[1] > _margin(f)
    best = mesmo._maximize([f], x[None])
    assert best[0] > v64[0] + 5e-13
    assert best.tobytes() == _unscreened_maximize([f], x[None]).tobytes()


def test_a_draw_past_the_measured_cos_range_is_scored_in_float64_everywhere():
    wide = _draw([[7e4, 1.0]], [0.3, 0.1], [0.8, -0.5])
    narrow = _draw([[2.0, 1.0]], [0.3, 0.1], [0.8, -0.5])
    assert _margin(wide) == np.inf and np.isfinite(_margin(narrow))
    starts = np.random.default_rng(0).random((2, 16, 1))
    funcs = [wide, narrow]
    assert mesmo._maximize(funcs, starts).tobytes() == _unscreened_maximize(funcs, starts).tobytes()


def test_cos_err_covers_this_builds_float32_cos():
    # _screen_margin's proof rests on _COS_ERR, four times a float32 np.cos
    # error measured on one NumPy build; a build with a worse cos breaks it.
    a = np.random.default_rng(0).uniform(-(2.0**15), 2.0**15, 10**6).astype(np.float32)
    a = np.append(a, np.float32(3.9258246))  # the measured worst argument
    err = np.max(np.abs(np.cos(a).astype(float) - np.cos(a.astype(float))))
    assert err <= mesmo._COS_ERR / 4, f"float32 cos error {err:.3g}: re-measure mesmo._COS_ERR"


def test_screen_margin_bounds_the_float32_error_of_real_draws():
    # The shortest lengthscales give the largest arguments; d = 2, 4 and 6
    # are the widths of branin, ReRAM and zdt1. The corners are included.
    short = GpConfig().lengthscale_bounds[0]
    for d in (2, 4, 6):
        rng = np.random.default_rng(d)
        x, z = rng.random((30, d)), rng.random(30)
        params = GpParams(signal_var=1.7, lengthscales=(short,) * (d + 1), noise_var=1e-3)
        model = fit(x, z, np.sin(6 * x).sum(axis=1) + z, GP, optimize=False, init_params=params)
        pts = np.vstack([rng.random((2000, d)), list(itertools.product((0.0, 1.0), repeat=d))])
        for seed in range(10):
            f = sample_function(model, seed=seed, n_features=500)
            assert np.max(np.abs(_values32(f, pts) - _values64(f, pts))) <= _margin(f), (d, seed)


def test_a_draw_evaluates_the_screens_float32_formula_bit_for_bit():
    # SampledFunction.__call__ picks the ascent starts and _maximize screens
    # with the same float32 formula, whose error _screen_margin bounds:
    # float32(x - 1/2), not float32(x) - 1/2. Points below 1/4 are where the
    # two orders round differently most often.
    short = GpConfig().lengthscale_bounds[0]
    for d in (2, 4, 6):
        rng = np.random.default_rng(d)
        x, z = rng.random((30, d)), rng.random(30)
        params = GpParams(signal_var=1.7, lengthscales=(short,) * (d + 1), noise_var=1e-3)
        model = fit(x, z, np.sin(6 * x).sum(axis=1) + z, GP, optimize=False, init_params=params)
        corners = list(itertools.product((0.0, 1.0), repeat=d))
        pts = np.vstack([rng.random((1000, d)), rng.random((1000, d)) / 4, corners])
        for seed in range(5):
            f = sample_function(model, seed=seed, n_features=500)
            expected = f.y_mean + f.y_std * f.feature_scale * _values32(f, pts)
            assert f(pts).tobytes() == expected.tobytes(), (d, seed)


def _thorough_maxima(funcs, rng):
    """Reference maxima of sampled functions, one per function.

    Per function, the best 32 of 4,096 uniform points and the 2**d corners
    are climbed by 200 projected Adam steps with a decaying step size, and
    L-BFGS-B polishes the best end on the standardized function (the raw
    scale can sit below L-BFGS-B's gradient tolerance). On the draws of
    ``test_front_maxima_match_a_thorough_search`` this equalled L-BFGS-B
    run from each of the 32 starts, to 1e-5 of the prior sd, in a third of
    its time.
    """
    from scipy.optimize import minimize

    d = funcs[0].freqs.shape[0]
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
    pools = [np.vstack([rng.random((4096, d)), corners]) for _ in funcs]
    x = np.stack([p[np.argsort(-f(p), kind="stable")[:32]] for f, p in zip(funcs, pools)])
    freqs32 = np.stack([f.freqs32 for f in funcs])
    offset32 = np.stack([f.offset32 for f in funcs])[:, None, :]
    weights32 = np.stack([f.weights32 for f in funcs])[:, None, :]
    m1, m2 = np.zeros_like(x), np.zeros_like(x)
    for t in range(1, 201):
        phi = (x - 0.5).astype(np.float32) @ freqs32 + offset32
        grad = -((np.sin(phi) * weights32) @ freqs32.transpose(0, 2, 1)).astype(float)
        m1 = 0.9 * m1 + 0.1 * grad
        m2 = 0.999 * m2 + 0.001 * grad * grad
        step = (m1 / (1 - 0.9**t)) / (np.sqrt(m2 / (1 - 0.999**t)) + 1e-8)
        x = np.clip(x + 0.02 * 0.98**t * step, 0.0, 1.0)
    out = []
    for f, ends in zip(funcs, x):

        def negative(u, f=f):
            phi = u @ f.freqs + f.offset
            return -np.cos(phi) @ f.weights, f.freqs @ (np.sin(phi) * f.weights)

        values = np.cos(ends @ f.freqs + f.offset) @ f.weights
        polished = minimize(
            negative, ends[values.argmax()], jac=True, method="L-BFGS-B", bounds=[(0.0, 1.0)] * d
        )
        out.append(f.y_mean + f.y_std * f.feature_scale * max(values.max(), -polished.fun))
    return np.array(out)


# The front maxima CF-MESMO's acquisition reads: ten samples at each of seeds
# 0-4, so 50 draws per objective and shape, may fall short of a thorough
# search by at most this share of each model's prior sd.
THOROUGH_GAP_SD = 0.05


@pytest.mark.slow
@pytest.mark.parametrize("shape", ["branin-currin-cf", "reram"])
def test_front_maxima_match_a_thorough_search(monkeypatch, shape):
    gaps = []
    for seed in range(5):
        problem, models = _seeded_models(seed, problem=_reram_problem() if shape == "reram" else None)
        maxima, drawn = _recorded_draws(monkeypatch, models, 10, problem.dim, seed)
        reference = _thorough_maxima(drawn, np.random.default_rng([seed, 1])).reshape(maxima.shape)
        prior_sd = np.array([m.y_std * np.sqrt(m.params.signal_var) for m in models])
        gaps.append((reference - maxima) / prior_sd)
    assert np.max(gaps) <= THOROUGH_GAP_SD
