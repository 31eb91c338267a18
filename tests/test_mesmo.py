import dataclasses
from pathlib import Path

import numpy as np
import pytest

from reramopt.config import build_problem, load_config
from reramopt.design_space import fidelity_grid
from reramopt.gp import SampledFunction, fit
from reramopt.mesmo import (
    Budget,
    MesmoConfig,
    fidelity_vectors,
    sample_pareto_fronts,
    search,
    select_next,
)
from reramopt.objectives import synthetic_cf_problem
from reramopt.pareto import Nsga2Config
from reramopt.resna import TrainingDivergedError

SMALL = MesmoConfig(n_front_samples=2, pool_size=32, n_init=3, rff_features=30, inner_pop=8, inner_gens=2)


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
    maxima = sample_pareto_fronts(
        models,
        cfg.n_front_samples,
        problem.dim,
        seed,
        inner=Nsga2Config(pop=cfg.inner_pop),
        gens=cfg.inner_gens,
        rff_features=cfg.rff_features,
    )
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
        return sample_pareto_fronts(
            models,
            n_s,
            problem.dim,
            seed,
            inner=Nsga2Config(pop=cfg.inner_pop),
            gens=cfg.inner_gens,
            rff_features=cfg.rff_features,
        )

    fast = maxima()
    monkeypatch.setattr(SampledFunction, "__call__", _float64_call)
    exact = maxima()
    se = exact.std(axis=0, ddof=1) / np.sqrt(n_s)
    assert np.all(se > 0)
    return np.abs(fast.mean(axis=0) - exact.mean(axis=0)) / se


# Same draws, same inner seeds: only the precision of the sampled functions
# differs, so the sampled maxima may move by far less than their own
# Monte-Carlo error. The reference evaluates the float64 fields that define
# each draw, never its float32 copies.
@pytest.mark.slow
def test_front_maxima_match_float64_features(monkeypatch):
    problem, models = _seeded_models(7)
    assert np.all(_front_maxima_shift_in_se(monkeypatch, problem, models, 7) <= 0.1)


@pytest.mark.slow
def test_reram_front_maxima_match_float64_features(monkeypatch):
    # The 4-objective, 4-D shape of the ReRAM campaign. Here the inner solves
    # branch apart on differences far below 1e-5 of the prior sd: single
    # maxima move by up to 1.7 of their sd at either precision, so the mean
    # moves by a good share of its s.e. (0.46 on seed 7; a float32 cos of a
    # float64 argument gave 0.50). The gate asks that the moved mean stay
    # inside the Monte-Carlo error of the maxima the acquisition reads.
    problem, models = _seeded_models(7, problem=_reram_problem())
    assert problem.n_obj == 4 and problem.dim == 4
    assert np.all(_front_maxima_shift_in_se(monkeypatch, problem, models, 7) <= 1.0)
