import dataclasses
import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from reramopt import mesmo
from reramopt.config import build_problem, load_config
from reramopt.design_space import fidelity_grid
from reramopt.gp import SampledFunction, fit, sample_function
from reramopt.mesmo import (
    Budget,
    MesmoConfig,
    entropy_term,
    fidelity_vectors,
    sample_pareto_fronts,
    search,
    select_next,
)
from reramopt.objectives import synthetic_cf_problem
from reramopt.resna import TrainingDivergedError

SMALL = MesmoConfig(n_front_samples=2, pool_size=32, n_init=3, rff_features=30)


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
    result = search(problem, Budget(total_cost=100.0, max_iterations=3), 0, "cf-mesmo", cfg)
    opt = [row for row in result.trace if row.phase == "opt"]
    assert len(opt) == 3
    assert all(np.array_equal(row.z, problem.z_star()) for row in opt)


def test_zero_refit_cadence_is_rejected_before_the_campaign_runs():
    # Unchecked, this cadence divided by zero at the second iteration.
    with pytest.raises(ValueError, match="gp_refit_every must be >= 1, got 0"):
        search(
            synthetic_cf_problem("branin-currin-cf"),
            Budget(max_iterations=3),
            0,
            "cf-mesmo",
            MesmoConfig(gp_refit_every=0, pool_size=50, n_front_samples=2, rff_features=50),
        )


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
        search(problem, Budget(total_cost=100.0, max_iterations=3), 0, "random", SMALL)


def test_diverged_training_records_a_failed_row():
    problem = _failing(synthetic_cf_problem("branin-currin-cf"), 2, TrainingDivergedError(4))
    result = search(problem, Budget(total_cost=100.0, max_iterations=3), 0, "random", SMALL)
    assert [row.ok for row in result.trace] == [True, False, True, True, True, True]
    failed = result.trace[1]
    assert failed.y is None and failed.cost == 2.0 and failed.cum_cost == 4.0
    assert result.total_cost == 12.0


def test_flat_zero_hypervolume_is_not_convergence():
    # The first 16 random designs all fall outside the reference box; a run
    # that stopped there would report converged with nothing found.
    result = search(synthetic_cf_problem("branin-currin-cf"), Budget(), 0, "random")
    assert len(result.trace) == 27 and result.total_cost == 54.0
    assert result.trace[-1].hypervolume == pytest.approx(3.607, abs=1e-3)
    assert result.converged


def _seeded_models(seed: int, cfg: MesmoConfig = MesmoConfig(), problem=None):
    """Surrogates of ``problem`` (branin-currin-cf by default) fitted to 15
    seeded points: 5 at z* and 10 at levels drawn from the default fidelity
    grid."""
    problem = problem or synthetic_cf_problem("branin-currin-cf")
    rng = np.random.default_rng(seed)
    x = rng.random((15, problem.dim))
    levels = np.concatenate([np.ones(5), rng.choice(fidelity_grid(cfg.fidelity_levels), 10)])
    z = fidelity_vectors(problem, levels)
    y = np.stack([problem.evaluate(xi, zi, rng) for xi, zi in zip(x, z)])
    models = [fit(x, z[:, j], y[:, j]) for j in range(problem.n_obj)]
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
    maxima = sample_pareto_fronts(models, cfg.n_front_samples, problem.dim, seed, cfg.rff_features)
    x, z = select_next(
        models, maxima, problem, pool=cfg.pool_size, fidelity_levels=cfg.fidelity_levels, seed=seed
    )
    assert (tuple(x), tuple(z)) == PINNED_PICKS[seed]


def _float64_call(self, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    phi = self.feature_scale * np.cos(x @ self.freqs + self.offset)
    return self.y_mean + self.y_std * (phi @ self.weights)


def _front_maxima_shift_in_se(monkeypatch, problem, models, seed, cfg=MesmoConfig(), n_s=24):
    """Shift of the mean sampled front maxima, float32 draws against the
    float64 formula on the same draws, in units of its Monte-Carlo s.e."""

    def maxima():
        return sample_pareto_fronts(models, n_s, problem.dim, seed, cfg.rff_features)

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
    maxima = sample_pareto_fronts(models, n_samples, dim, seed)
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
