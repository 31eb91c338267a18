import dataclasses

import numpy as np
import pytest

from reramopt.mesmo import Budget, MesmoConfig, run_cf_mesmo, run_random
from reramopt.objectives import synthetic_cf_problem
from reramopt.pareto import Nsga2Config
from reramopt.resna import TrainingDivergedError

SMALL = MesmoConfig(
    n_front_samples=2, pool_size=32, n_init=3, rff_features=30, inner_nsga2=Nsga2Config(pop=8, gens=2)
)


def test_one_fidelity_level_evaluates_at_the_top():
    problem = synthetic_cf_problem("branin-currin-cf")
    cfg = dataclasses.replace(SMALL, fidelity_levels=1)
    result = run_cf_mesmo(problem, Budget(total_cost=100.0, max_iterations=3), 0, cfg)
    opt = [row for row in result.trace if row.phase == "opt"]
    assert len(opt) == 3
    assert all(np.array_equal(row.z, problem.z_star()) for row in opt)


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
        run_random(problem, Budget(total_cost=100.0, max_iterations=3), 0, SMALL)


def test_diverged_training_records_a_failed_row():
    problem = _failing(synthetic_cf_problem("branin-currin-cf"), 2, TrainingDivergedError(4))
    result = run_random(problem, Budget(total_cost=100.0, max_iterations=3), 0, SMALL)
    assert [row.ok for row in result.trace] == [True, False, True, True, True, True]
    failed = result.trace[1]
    assert failed.y is None and failed.cost == 2.0 and failed.cum_cost == 4.0
    assert result.total_cost == 12.0


def test_flat_zero_hypervolume_is_not_convergence():
    # The first 16 random designs all fall outside the reference box; a run
    # that stopped there would report converged with nothing found.
    result = run_random(synthetic_cf_problem("branin-currin-cf"), Budget(), 0, MesmoConfig())
    assert len(result.trace) == 27 and result.total_cost == 54.0
    assert result.trace[-1].hypervolume == pytest.approx(3.607, abs=1e-3)
    assert result.converged
